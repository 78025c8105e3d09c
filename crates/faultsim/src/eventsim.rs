//! Event-driven, cone-restricted faulty-machine propagation.
//!
//! Every fault can only disturb the gates in its site's transitive
//! fanout cone, yet the original simulation paths re-walked the full
//! [`Circuit::topo_order`] per fault and pattern. [`EventSim`] instead
//! seeds one 64-lane divergence word at the fault site over the shared
//! bit-parallel good machine ([`BitValues`]) and evaluates only the
//! gates the divergence actually reaches, draining the frontier in
//! strict level order (every fanout successor sits at a strictly
//! greater level, so each gate is evaluated at most once per word).
//! When the forced word already matches the good machine the word is
//! abandoned before any gate evaluation — the fault is provably silent
//! for those 64 patterns.
//!
//! Correctness relies on two facts: gate evaluation is deterministic
//! per lane, so lanes where the site agrees with the good machine stay
//! equal to it everywhere downstream; and the level-bucket drain
//! evaluates a gate only after all its disturbed predecessors, so each
//! evaluation sees final effective input words. The full-topology walk
//! remains available as the differential oracle
//! ([`run_test_multi_full`](crate::run_test_multi_full), and the
//! `event_diff` suite holds the two byte-identical).
//!
//! The accumulated `eventsim.gates_evaluated` / `eventsim.early_exits`
//! counters quantify the saving; flush them with [`EventSim::observe`].
//! An `EventSim` is sized for one circuit: using it with a different
//! circuit than the one passed to [`EventSim::new`] is a logic error.

use std::sync::Arc;

use icd_logic::packed::PackedEval;
use icd_logic::Lv;
use icd_netlist::{Circuit, ConeSet, GateId, NetId};

use crate::bitsim::{build_evaluators, BitValues};
use crate::{DiffPropagator, FaultSimError};

/// Mask of lanes in word `w` that hold real patterns. Unlike
/// [`BitValues::tail_mask`] this is defined for any word index (words
/// entirely past the pattern count get an empty mask).
pub(crate) fn lane_mask(num_patterns: usize, w: usize) -> u64 {
    let filled = num_patterns.saturating_sub(w * 64).min(64);
    if filled == 64 {
        !0
    } else {
        (1u64 << filled) - 1
    }
}

/// Reusable event-driven word propagator over a shared good machine.
///
/// Scratch buffers (overlay words, stamps, per-level worklists) persist
/// across calls so injection campaigns that query thousands of faults
/// against one [`BitValues`] never re-allocate.
#[derive(Debug)]
pub struct EventSim {
    evals: Arc<Vec<PackedEval>>,
    /// Per-net overlay word; live iff `net_stamp` matches `stamp`.
    overlay: Vec<u64>,
    net_stamp: Vec<u32>,
    /// Dedup stamp for scheduled gates.
    gate_stamp: Vec<u32>,
    stamp: u32,
    /// Per-level frontier worklists, drained in ascending level order.
    buckets: Vec<Vec<GateId>>,
    /// Lowest / highest level holding scheduled gates this propagation.
    level_lo: usize,
    level_hi: usize,
    input_words: Vec<u64>,
    /// Lazily built scalar fallback for non-binary forced values.
    ternary: Option<DiffPropagator>,
    gates_evaluated: u64,
    early_exits: u64,
}

impl EventSim {
    /// Creates a propagator sized for `circuit`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSimError::UnknownGoodValue`] when a library cell's
    /// table has `U` entries (the packed binary kernel needs a fully
    /// specified good machine, as [`good_simulate`](crate::good_simulate)
    /// does).
    pub fn new(circuit: &Circuit) -> Result<Self, FaultSimError> {
        Ok(EventSim {
            evals: build_evaluators(circuit)?,
            overlay: vec![0; circuit.num_nets()],
            net_stamp: vec![0; circuit.num_nets()],
            gate_stamp: vec![0; circuit.num_gates()],
            stamp: 0,
            buckets: vec![Vec::new(); circuit.max_level() as usize + 1],
            level_lo: usize::MAX,
            level_hi: 0,
            input_words: Vec::with_capacity(8),
            ternary: None,
            gates_evaluated: 0,
            early_exits: 0,
        })
    }

    fn begin(&mut self) {
        if self.stamp == u32::MAX {
            // Extremely rare wrap: clear stamps to stay sound.
            self.net_stamp.fill(0);
            self.gate_stamp.fill(0);
            self.stamp = 1;
        } else {
            self.stamp += 1;
        }
        self.level_lo = usize::MAX;
        self.level_hi = 0;
    }

    fn schedule_fanout(&mut self, circuit: &Circuit, net: NetId) {
        for &g in circuit.fanout(net) {
            let gi = g.index();
            if self.gate_stamp[gi] != self.stamp {
                self.gate_stamp[gi] = self.stamp;
                let level = circuit.gate_level(g) as usize;
                self.buckets[level].push(g);
                self.level_lo = self.level_lo.min(level);
                self.level_hi = self.level_hi.max(level);
            }
        }
    }

    /// Forces word `w` of `site` to `faulty_word` (lanes past the
    /// pattern count are pinned to the good value) and propagates the
    /// divergence through the fanout cone over the good machine.
    ///
    /// Returns the mask of lanes where the site actually diverges; `0`
    /// means the fault is silent for this word and nothing was
    /// evaluated. Afterwards [`EventSim::word`] reads the effective
    /// faulty-machine value of any net for the same `w`, valid until the
    /// next propagation.
    pub fn propagate_word(
        &mut self,
        circuit: &Circuit,
        good: &BitValues,
        w: usize,
        site: NetId,
        faulty_word: u64,
    ) -> u64 {
        self.begin();
        let tail = lane_mask(good.num_patterns(), w);
        let site_good = good.word(site, w);
        let forced = (faulty_word & tail) | (site_good & !tail);
        let diff = forced ^ site_good;
        if diff == 0 {
            self.early_exits += 1;
            return 0;
        }
        self.overlay[site.index()] = forced;
        self.net_stamp[site.index()] = self.stamp;
        self.schedule_fanout(circuit, site);

        let mut input_words = std::mem::take(&mut self.input_words);
        let mut level = self.level_lo;
        // `level_hi` can grow while draining: successors always land on
        // strictly greater levels.
        while level <= self.level_hi && level < self.buckets.len() {
            if self.buckets[level].is_empty() {
                level += 1;
                continue;
            }
            let mut bucket = std::mem::take(&mut self.buckets[level]);
            for &gate in &bucket {
                self.gates_evaluated += 1;
                input_words.clear();
                for &n in circuit.gate_inputs(gate) {
                    input_words.push(self.word(good, n, w));
                }
                let eval = &self.evals[circuit.gate_type_id(gate).index()];
                let new = eval.eval_binary_word(&input_words);
                let out = circuit.gate_output(gate);
                if out == site {
                    continue; // the fault dominates its own net
                }
                if new != good.word(out, w) {
                    self.overlay[out.index()] = new;
                    self.net_stamp[out.index()] = self.stamp;
                    self.schedule_fanout(circuit, out);
                }
            }
            bucket.clear();
            self.buckets[level] = bucket;
            level += 1;
        }
        self.input_words = input_words;
        diff
    }

    /// The effective faulty-machine word of `net` after the last
    /// [`EventSim::propagate_word`] (word index must match).
    pub fn word(&self, good: &BitValues, net: NetId, w: usize) -> u64 {
        if self.net_stamp[net.index()] == self.stamp {
            self.overlay[net.index()]
        } else {
            good.word(net, w)
        }
    }

    /// Whether `net` was disturbed by the last propagation.
    pub fn disturbed(&self, net: NetId) -> bool {
        self.net_stamp[net.index()] == self.stamp
    }

    /// The lanes of word `w` on which the last propagation reached any
    /// observe point in `positions` (indices into [`Circuit::outputs`]):
    /// the OR of their faulty-vs-good difference words.
    pub fn observed(
        &self,
        circuit: &Circuit,
        good: &BitValues,
        w: usize,
        positions: ConeSet<'_>,
    ) -> u64 {
        let outputs = circuit.outputs();
        positions
            .iter()
            .map(|i| outputs[i])
            .filter(|&net| self.disturbed(net))
            .fold(0, |lanes, net| {
                lanes | (self.word(good, net, w) ^ good.word(net, w))
            })
    }

    /// `obs(gate, w)`: flips every lane of word `w` at `gate`'s output
    /// and returns the lanes on which the flip reaches one of
    /// [`Circuit::observable_outputs`]. Lanes never interact in a binary
    /// word propagation, so a propagation flipping only `lanes` observes
    /// exactly `obs(gate, w) & lanes`. [`BitValues::obs_memo`] keeps the
    /// answer per good machine.
    pub fn observable_lanes(
        &mut self,
        circuit: &Circuit,
        good: &BitValues,
        gate: GateId,
        w: usize,
    ) -> u64 {
        let out = circuit.gate_output(gate);
        self.propagate_word(circuit, good, w, out, !good.word(out, w));
        self.observed(circuit, good, w, circuit.observable_outputs(gate))
    }

    /// Scalar three-valued fallback for forced values the binary word
    /// path cannot carry (a faulty cell output degrading to `U`).
    /// Delegates to an internal, lazily built [`DiffPropagator`]; its
    /// gate evaluations are counted into the same `eventsim.*` family.
    pub fn propagate_ternary(
        &mut self,
        circuit: &Circuit,
        base: &[Lv],
        forces: &[(NetId, Lv)],
    ) -> Vec<(usize, Lv)> {
        self.ternary
            .get_or_insert_with(|| DiffPropagator::new(circuit))
            .propagate(circuit, base, forces)
    }

    /// Gates evaluated by the word path since the last
    /// [`EventSim::observe`].
    pub fn gates_evaluated(&self) -> u64 {
        self.gates_evaluated
    }

    /// Words abandoned without evaluating any gate since the last
    /// [`EventSim::observe`].
    pub fn early_exits(&self) -> u64 {
        self.early_exits
    }

    /// Flushes the accumulated counters to the installed [`icd_obs`]
    /// collector (`eventsim.gates_evaluated`, `eventsim.early_exits` —
    /// both scheduling-stable per-datalog sums) and resets them.
    pub fn observe(&mut self) {
        icd_obs::counter(
            "eventsim.gates_evaluated",
            self.gates_evaluated,
            icd_obs::Stability::Stable,
        );
        icd_obs::counter(
            "eventsim.early_exits",
            self.early_exits,
            icd_obs::Stability::Stable,
        );
        self.gates_evaluated = 0;
        self.early_exits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::good_simulate;
    use icd_logic::{Pattern, TruthTable};
    use icd_netlist::{CircuitBuilder, GateType, Library};

    fn lib() -> Library {
        let mut lib = Library::new();
        lib.insert(GateType::new("INV", ["A"], TruthTable::from_fn(1, |b| !b[0])).unwrap())
            .unwrap();
        lib.insert(
            GateType::new("AND2", ["A", "B"], TruthTable::from_fn(2, |b| b[0] & b[1])).unwrap(),
        )
        .unwrap();
        lib
    }

    /// y0 = a & b, y1 = !(a & b), y2 = !c (disjoint cone)
    fn circuit(lib: &Library) -> Circuit {
        let mut bld = CircuitBuilder::new("c", lib);
        let a = bld.add_input("a");
        let b = bld.add_input("b");
        let c = bld.add_input("c");
        let m = bld.add_gate("AND2", &[a, b], None).unwrap();
        let n = bld.add_gate("INV", &[m], None).unwrap();
        let o = bld.add_gate("INV", &[c], None).unwrap();
        bld.mark_output(m, "y0");
        bld.mark_output(n, "y1");
        bld.mark_output(o, "y2");
        bld.finish().unwrap()
    }

    #[test]
    fn lane_masks_cover_tail_and_out_of_range_words() {
        assert_eq!(lane_mask(0, 0), 0);
        assert_eq!(lane_mask(64, 0), !0);
        assert_eq!(lane_mask(70, 1), (1 << 6) - 1);
        assert_eq!(lane_mask(70, 2), 0);
    }

    #[test]
    fn divergence_stays_inside_the_cone() {
        let lib = lib();
        let c = circuit(&lib);
        let pats: Vec<Pattern> = ["110", "000", "111"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let good = good_simulate(&c, &pats).unwrap();
        let mut sim = EventSim::new(&c).unwrap();
        let m = c.outputs()[0];
        // Force the AND output to all-ones: diverges on patterns 1 (good 0).
        let diff = sim.propagate_word(&c, &good, 0, m, !0);
        assert_eq!(diff, 0b010);
        // y0 and y1 disturbed, the disjoint y2 untouched.
        assert!(sim.disturbed(c.outputs()[0]));
        assert!(sim.disturbed(c.outputs()[1]));
        assert!(!sim.disturbed(c.outputs()[2]));
        // y1 = !y0 with y0 forced to all-ones: all real lanes drop to 0.
        assert_eq!(sim.word(&good, c.outputs()[1], 0) & 0b111, 0b000);
        // Only the inverter was evaluated (the forced site's driver is
        // upstream and never re-runs).
        assert_eq!(sim.gates_evaluated(), 1);
    }

    #[test]
    fn silent_words_exit_before_any_evaluation() {
        let lib = lib();
        let c = circuit(&lib);
        let pats: Vec<Pattern> = ["110", "111"].iter().map(|s| s.parse().unwrap()).collect();
        let good = good_simulate(&c, &pats).unwrap();
        let mut sim = EventSim::new(&c).unwrap();
        let m = c.outputs()[0];
        // Force the good values back: silent.
        let diff = sim.propagate_word(&c, &good, 0, m, good.word(m, 0));
        assert_eq!(diff, 0);
        assert_eq!(sim.early_exits(), 1);
        assert_eq!(sim.gates_evaluated(), 0);
        // Lanes past the pattern count are pinned to good: still silent.
        let diff = sim.propagate_word(&c, &good, 0, m, good.word(m, 0) | (!0 << 2));
        assert_eq!(diff, 0);
        assert_eq!(sim.early_exits(), 2);
    }

    #[test]
    fn observe_flushes_and_resets_counters() {
        let lib = lib();
        let c = circuit(&lib);
        let pats: Vec<Pattern> = ["110"].iter().map(|s| s.parse().unwrap()).collect();
        let good = good_simulate(&c, &pats).unwrap();
        let mut sim = EventSim::new(&c).unwrap();
        sim.propagate_word(&c, &good, 0, c.outputs()[0], 0);
        let collector = icd_obs::Collector::new();
        {
            let _active = collector.install_local();
            sim.observe();
        }
        let snap = collector.snapshot();
        assert_eq!(snap.counters["eventsim.gates_evaluated"].0, 1);
        assert_eq!(snap.counters["eventsim.early_exits"].0, 0);
        assert_eq!(sim.gates_evaluated(), 0);
    }
}
