//! Inter-cell (gate-level) diagnosis and local pattern extraction.
//!
//! The paper's flow (Fig. 2) relies on a logic-level diagnosis front end
//! ("any available commercial diagnosis tool can be adopted") to reduce the
//! circuit to a handful of *suspected gates*, and on a *DUT simulation*
//! step that derives, for each suspected gate, the local failing and
//! passing patterns the intra-cell engine consumes. This crate provides
//! both:
//!
//! * [`gate_cpt`] — classical critical path tracing at gate level
//!   (Abramovici-style, as in the paper's reference \[2\]): from a failing
//!   output, trace back critical nets through critical gate inputs.
//! * [`diagnose`] — effect-cause candidate extraction and ranking. Each
//!   failing pattern contributes the gates on its critical paths;
//!   candidates are scored by explained failing patterns and contradicted
//!   passing patterns, and a greedy set cover selects a *multiplet* of
//!   candidates that together explain every failing pattern — without any
//!   assumption on how failing patterns distribute over defects (the
//!   multiple-defect, no-assumptions regime).
//! * [`extract_local_patterns`] — the DUT-simulation step: local failing
//!   patterns from the datalog, local passing patterns filtered by an
//!   observability check (a fault effect at the suspected gate's output
//!   must reach an observe point), plus the Fig.-4 taxonomy
//!   ([`LocalPatterns::taxonomy`]): `lfp ∩ lpp ≠ ∅` proves the defect is
//!   dynamic.
//!
//! # Example
//!
//! ```
//! use icd_cells::CellLibrary;
//! use icd_faultsim::{enumerate_stuck_at, run_test_gate_fault};
//! use icd_intercell::{diagnose, extract_local_patterns};
//! use icd_netlist::generator;
//!
//! // A small synthetic circuit with a random test set.
//! let library = CellLibrary::standard().logic_library();
//! let circuit = generator::generate(&generator::circuit_a().scaled_down(8), &library)?;
//! let patterns = icd_atpg::random_patterns(&circuit, 32, 7);
//!
//! // Emulate the tester: the first stuck-at fault the test set detects.
//! let datalog = enumerate_stuck_at(&circuit)
//!     .iter()
//!     .filter_map(|fault| run_test_gate_fault(&circuit, &patterns, fault).ok())
//!     .find(|datalog| !datalog.all_pass())
//!     .expect("some stuck fault is detected");
//!
//! // Effect-cause diagnosis, then local patterns per suspected gate.
//! let result = diagnose(&circuit, &patterns, &datalog)?;
//! assert!(!result.multiplet.is_empty());
//! for &gate in &result.multiplet {
//!     let local = extract_local_patterns(&circuit, &patterns, &datalog, gate)?;
//!     println!("{}: {} lfp / {} lpp", circuit.gate_name(gate), local.lfp.len(), local.lpp.len());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::panic))]
#![warn(missing_docs)]

mod cpt;
mod diagnose;
mod error;
mod local;

pub use cpt::gate_cpt;
pub use diagnose::{
    diagnose, diagnose_with_good, diagnose_with_options, DiagnoseOptions, GateCandidate,
    IntercellDiagnosis,
};
pub use error::IntercellError;
pub use local::{
    extract_local_patterns, extract_local_patterns_with_good, DefectClassHint, LocalPattern,
    LocalPatterns,
};

use icd_faultsim::{BitValues, Datalog, EventSim};
use icd_logic::Pattern;
use icd_netlist::{Circuit, GateId};

/// Rejects a datalog whose header claims more patterns than were applied:
/// its passing patterns would index past the good simulation.
fn check_pattern_count(datalog: &Datalog, patterns: &[Pattern]) -> Result<(), IntercellError> {
    if datalog.num_patterns > patterns.len() {
        return Err(IntercellError::PatternCountExceeded {
            claimed: datalog.num_patterns,
            applied: patterns.len(),
        });
    }
    Ok(())
}

/// The pattern indices `lanes` as one 64-lane mask per word of `good`.
fn lane_words(good: &BitValues, lanes: impl IntoIterator<Item = usize>) -> Vec<u64> {
    let mut words = vec![0u64; good.words_per_net()];
    for t in lanes {
        words[t / 64] |= 1u64 << (t % 64);
    }
    words
}

/// `obs(g, w)` lookups against the good machine's memo
/// ([`BitValues::obs_memo`]). A missing entry is filled by one word
/// propagation on a simulator built at the first miss, so a call whose
/// lookups all hit builds none.
struct Observability<'a> {
    circuit: &'a Circuit,
    good: &'a BitValues,
    sim: Option<EventSim>,
    lookups: u64,
    fills: u64,
}

impl<'a> Observability<'a> {
    fn new(circuit: &'a Circuit, good: &'a BitValues) -> Self {
        Observability {
            circuit,
            good,
            sim: None,
            lookups: 0,
            fills: 0,
        }
    }

    /// The lanes of word `w` on which flipping `gate`'s output reaches an
    /// observe point.
    fn lanes(&mut self, gate: GateId, w: usize) -> Result<u64, IntercellError> {
        self.lookups += 1;
        let entry = self.good.obs_memo(gate, w);
        if let Some(&lanes) = entry.get() {
            return Ok(lanes);
        }
        let (circuit, good) = (self.circuit, self.good);
        let sim = match &mut self.sim {
            Some(sim) => sim,
            none => none.insert(EventSim::new(circuit)?),
        };
        let fills = &mut self.fills;
        Ok(*entry.get_or_init(|| {
            *fills += 1;
            sim.observable_lanes(circuit, good, gate, w)
        }))
    }

    /// Flushes `intercell.obs_memo.{lookups,fills}` and the simulator's
    /// `eventsim.*` counters. Each entry is filled exactly once per good
    /// machine, so a batch's sums do not depend on the schedule.
    fn observe(self) {
        icd_obs::counter(
            "intercell.obs_memo.lookups",
            self.lookups,
            icd_obs::Stability::Stable,
        );
        icd_obs::counter(
            "intercell.obs_memo.fills",
            self.fills,
            icd_obs::Stability::Stable,
        );
        if let Some(mut sim) = self.sim {
            sim.observe();
        }
    }
}
