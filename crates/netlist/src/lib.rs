//! Gate-level netlist substrate for the `icdiag` workspace.
//!
//! The intra-cell diagnosis flow of the paper operates on a *device under
//! test* described at gate level: a flattened network of single-output
//! standard-cell instances. This crate provides:
//!
//! * [`GateType`] / [`Library`] — the logic view of a standard-cell library
//!   (name, pin names, truth table). The transistor-level view lives in
//!   `icd-cells`.
//! * [`Circuit`] and [`CircuitBuilder`] — a compact, flat gate-graph
//!   representation that scales to the multi-million-gate circuits of the
//!   paper's Table 6, with levelization for event-driven simulation.
//! * [`generator`] — deterministic synthetic circuit generation used to
//!   reproduce the paper's circuits A, B (Table 1) and H, M, C (Table 6).
//! * [`format`](mod@format) — a small structural text format for circuits.
//!
//! Sequential elements are handled with the standard full-scan abstraction:
//! every flip-flop contributes one pseudo-primary input (its Q pin) and one
//! pseudo-primary output (its D pin); the stored circuit is purely
//! combinational and scan-chain structure is retained as metadata.
//!
//! # Example
//!
//! ```
//! use icd_logic::TruthTable;
//! use icd_netlist::{CircuitBuilder, GateType, Library};
//!
//! let mut lib = Library::new();
//! lib.insert(GateType::new("NAND2", ["A", "B"], TruthTable::from_fn(2, |b| !(b[0] & b[1])))?);
//!
//! let mut b = CircuitBuilder::new("demo", &lib);
//! let a = b.add_input("a");
//! let c = b.add_input("c");
//! let y = b.add_gate("NAND2", &[a, c], Some("U1"))?;
//! b.mark_output(y, "y");
//! let circuit = b.finish()?;
//! assert_eq!(circuit.num_gates(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::panic))]
#![warn(missing_docs)]

mod circuit;
pub mod cone;
mod error;
pub mod format;
pub mod generator;
mod ids;
mod library;
mod stats;

pub use circuit::{Circuit, CircuitBuilder, ContentHash, ScanCell, ScanInfo, TesterCoordinate};
pub use cone::{ConeIndex, ConeSet, Levels};
pub use error::NetlistError;
pub use ids::{GateId, NetId, TypeId};
pub use library::{GateType, Library};
pub use stats::CircuitStats;
