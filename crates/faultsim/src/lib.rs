//! Gate-level simulation, fault models and tester emulation.
//!
//! The paper's flow begins with a production test: ATPG patterns are
//! applied to the DUT and failing responses are stored in a *datalog*
//! (Fig. 2). This crate provides everything needed to emulate that phase on
//! synthetic circuits:
//!
//! * [`good_simulate`] — bit-parallel (64 patterns/word) good-machine
//!   simulation that scales to the paper's multi-million-gate circuits.
//! * [`EventSim`] — event-driven, cone-restricted faulty-machine
//!   propagation: divergences are seeded at the fault site over the shared
//!   good machine and only the reached gates re-evaluate, with per-word
//!   early exit and fault dropping ([`first_detections`]).
//! * [`ternary_simulate`] / [`DiffPropagator`] — serial three-valued
//!   simulation and event-driven difference propagation (used where
//!   values can be `U`: faulty-response computation and
//!   [`EventSim`]'s three-valued fallback).
//! * [`GateFault`] — the classical fault models (stuck-at, transition,
//!   dominant bridging) with parallel-pattern single-fault detection
//!   ([`detects`]).
//! * [`FaultyGate`] / [`FaultyBehavior`] — the *faulty cell* abstraction:
//!   a defective standard-cell instance characterized at switch level
//!   (truth-table override, optionally with two-pattern delay behaviour)
//!   and simulated inside the gate-level circuit, exactly the paper's §4
//!   methodology.
//! * [`run_test`] — applies an ordered pattern set to a circuit with one
//!   faulty cell and produces the [`Datalog`].
//!
//! # Example
//!
//! ```
//! use icd_faultsim::{good_simulate, GateFault, detects};
//! use icd_logic::{Pattern, TruthTable};
//! use icd_netlist::{CircuitBuilder, GateType, Library};
//!
//! let mut lib = Library::new();
//! lib.insert(GateType::new("INV", ["A"], TruthTable::from_fn(1, |b| !b[0]))?)?;
//! let mut b = CircuitBuilder::new("c", &lib);
//! let a = b.add_input("a");
//! let y = b.add_gate("INV", &[a], None)?;
//! b.mark_output(y, "y");
//! let circuit = b.finish()?;
//!
//! let patterns = vec!["0".parse::<Pattern>()?, "1".parse()?];
//! let good = good_simulate(&circuit, &patterns)?;
//! let fault = GateFault::stuck_at(y, true);
//! // y stuck-at-1 is detected by the pattern that sets y to 0 (input 1).
//! let det = detects(&circuit, &good, &fault);
//! assert_eq!(det, vec![false, true]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::panic))]
#![warn(missing_docs)]

mod bitsim;
mod datalog;
pub mod datalog_text;
mod error;
mod eventsim;
mod faults;
mod faulty_gate;
pub mod noise;
mod ternary;

pub use bitsim::{good_simulate, good_simulate_scalar, BitValues};
pub use datalog::{
    run_test, run_test_gate_fault, run_test_multi, run_test_multi_full, run_test_with_good,
    Datalog, DatalogEntry,
};
pub use error::FaultSimError;
pub use eventsim::EventSim;
pub use faults::{
    detects, detects_any, detects_with, enumerate_stuck_at, enumerate_transitions,
    first_detection_with, first_detections, GateFault,
};
pub use faulty_gate::{DelayTable, FaultyBehavior, FaultyGate};
pub use noise::{Corruption, NoiseModel, NoiseRng, SanitizeLog};
pub use ternary::{ternary_simulate, DiffPropagator};
