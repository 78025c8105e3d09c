//! Ternary logic foundation for the `icdiag` workspace.
//!
//! This crate provides the small, dependency-free vocabulary shared by every
//! other crate in the workspace:
//!
//! * [`Lv`] — the ternary logic value `{0, 1, U}` used by the switch-level
//!   simulator and by the diagnosis suspect lists, together with the
//!   intersection lattice of the paper's Fig. 10 ([`Lv::meet`]).
//! * [`Pattern`] — an input vector applied to a circuit or to a single cell.
//! * [`PatternPair`] — a two-pattern (launch/capture) test used for delay
//!   fault analysis.
//! * [`TruthTable`] — an exhaustive single-output function over `n` ternary
//!   inputs, the artifact produced by defect characterization (the paper's
//!   SPICE-to-library-model step) and consumed by gate-level simulation.
//!
//! # Example
//!
//! ```
//! use icd_logic::{Lv, TruthTable};
//!
//! // A 2-input NAND as a truth table.
//! let nand = TruthTable::from_fn(2, |bits| !(bits[0] & bits[1]));
//! assert_eq!(nand.eval_bits(&[true, true]), Lv::Zero);
//! assert_eq!(nand.eval_bits(&[true, false]), Lv::One);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::panic))]
#![warn(missing_docs)]

mod lv;
pub mod packed;
mod pattern;
mod truth_table;

pub use lv::Lv;
pub use packed::{PackedEval, PackedWord};
pub use pattern::{Pattern, PatternPair};
pub use truth_table::{TruthTable, TruthTableError, MAX_TRUTH_TABLE_INPUTS};
