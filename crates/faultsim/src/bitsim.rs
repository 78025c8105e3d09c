use std::sync::OnceLock;

use icd_logic::packed::PackedEval;
use icd_logic::{Lv, Pattern};
use icd_netlist::{Circuit, GateId, NetId};

use crate::{ternary_simulate, FaultSimError};

/// Bit-parallel good-machine values: one bit per (net, pattern).
///
/// Patterns are packed 64 per `u64` word, net-major. Produced by
/// [`good_simulate`].
///
/// A good machine also carries the observability memo of its design and
/// pattern set ([`BitValues::obs_memo`]), so every diagnosis that shares
/// the machine shares the memo.
#[derive(Debug, Clone)]
pub struct BitValues {
    num_patterns: usize,
    words_per_net: usize,
    num_gates: usize,
    data: Vec<u64>,
    /// `obs(g, w)` entries, gate-major; allocated on the first lookup.
    obs: OnceLock<Box<[OnceLock<u64>]>>,
}

impl BitValues {
    /// Number of simulated patterns.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Words per net (`ceil(num_patterns / 64)`).
    pub fn words_per_net(&self) -> usize {
        self.words_per_net
    }

    /// The value of `net` under pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern >= num_patterns()`.
    pub fn value(&self, net: NetId, pattern: usize) -> bool {
        assert!(pattern < self.num_patterns, "pattern index out of range");
        let w = self.word(net, pattern / 64);
        (w >> (pattern % 64)) & 1 == 1
    }

    /// One 64-pattern word of a net.
    pub fn word(&self, net: NetId, word_index: usize) -> u64 {
        self.data[net.index() * self.words_per_net + word_index]
    }

    /// The values a gate's input nets take under one pattern, as booleans.
    pub fn gate_input_bits(&self, circuit: &Circuit, gate: GateId, pattern: usize) -> Vec<bool> {
        circuit
            .gate_inputs(gate)
            .iter()
            .map(|&n| self.value(n, pattern))
            .collect()
    }

    /// Mask with the low `num_patterns % 64` bits set for the final word
    /// (all bits set for full words).
    pub fn tail_mask(&self, word_index: usize) -> u64 {
        if word_index + 1 == self.words_per_net && !self.num_patterns.is_multiple_of(64) {
            (1u64 << (self.num_patterns % 64)) - 1
        } else {
            !0u64
        }
    }

    /// The memo entry of `obs(gate, w)`: the lanes of word `w` on which
    /// flipping `gate`'s output reaches an observe point, as
    /// [`EventSim::observable_lanes`](crate::EventSim::observable_lanes)
    /// computes it. The answer depends only on the design and the
    /// patterns, so one entry serves every datalog diagnosed against this
    /// machine. Fill it with [`OnceLock::get_or_init`], which runs its
    /// closure exactly once per entry even when threads race.
    ///
    /// The table, 16 B per (gate, word), is allocated on the first call:
    /// [`good_simulate`] never pays for it, nor do the simulation paths
    /// that never ask.
    ///
    /// # Panics
    ///
    /// Panics if `gate` or `w` is out of range for the simulated circuit.
    pub fn obs_memo(&self, gate: GateId, w: usize) -> &OnceLock<u64> {
        assert!(w < self.words_per_net, "word index out of range");
        let memo = self.obs.get_or_init(|| {
            (0..self.num_gates * self.words_per_net)
                .map(|_| OnceLock::new())
                .collect()
        });
        &memo[gate.index() * self.words_per_net + w]
    }

    fn new(circuit: &Circuit, num_patterns: usize, words_per_net: usize, data: Vec<u64>) -> Self {
        BitValues {
            num_patterns,
            words_per_net,
            num_gates: circuit.num_gates(),
            data,
            obs: OnceLock::new(),
        }
    }
}

/// One [`PackedEval`] per library type of the circuit, rejecting tables
/// with `U` entries (good machines are fully specified).
///
/// The evaluators are compiled once per circuit
/// ([`Circuit::packed_evaluators`]) and shared by every simulation path.
pub(crate) fn build_evaluators(
    circuit: &Circuit,
) -> Result<std::sync::Arc<Vec<PackedEval>>, FaultSimError> {
    let evals = circuit.packed_evaluators();
    for ((_, t), eval) in circuit.library().iter().zip(evals.iter()) {
        if eval.has_unknown_entries() {
            return Err(FaultSimError::UnknownGoodValue(format!(
                "table of {} has U entries",
                t.name()
            )));
        }
    }
    Ok(std::sync::Arc::clone(evals))
}

fn validate_patterns(circuit: &Circuit, patterns: &[Pattern]) -> Result<(), FaultSimError> {
    let num_inputs = circuit.inputs().len();
    for (i, p) in patterns.iter().enumerate() {
        if p.len() != num_inputs {
            return Err(FaultSimError::WrongPatternWidth {
                expected: num_inputs,
                got: p.len(),
                pattern: i,
            });
        }
        if !p.is_fully_specified() {
            return Err(FaultSimError::UnknownInPattern { pattern: i });
        }
    }
    Ok(())
}

/// Simulates the fault-free circuit over a set of fully specified patterns,
/// 64 patterns per machine word, on the shared [`icd_logic::packed`]
/// kernel (binary fast path).
///
/// Every call adds `words × gates` to the `packed.words_simulated`
/// [`icd_obs`] counter. [`good_simulate_scalar`] is the differential
/// oracle for this function.
///
/// # Errors
///
/// Returns an error when a pattern has the wrong width or contains `U`, or
/// when a library cell's table has `U` entries.
pub fn good_simulate(circuit: &Circuit, patterns: &[Pattern]) -> Result<BitValues, FaultSimError> {
    validate_patterns(circuit, patterns)?;
    let words_per_net = patterns.len().div_ceil(64).max(1);
    let mut data = vec![0u64; circuit.num_nets() * words_per_net];

    // Load input words.
    for (pi, &net) in circuit.inputs().iter().enumerate() {
        for (t, p) in patterns.iter().enumerate() {
            if p[pi] == Lv::One {
                data[net.index() * words_per_net + t / 64] |= 1u64 << (t % 64);
            }
        }
    }

    let evals = build_evaluators(circuit)?;
    let mut input_words: Vec<u64> = Vec::with_capacity(8);
    for w in 0..words_per_net {
        for &gate in circuit.topo_order() {
            let eval = &evals[circuit.gate_type_id(gate).index()];
            input_words.clear();
            for &inp in circuit.gate_inputs(gate) {
                input_words.push(data[inp.index() * words_per_net + w]);
            }
            let out = eval.eval_binary_word(&input_words);
            data[circuit.gate_output(gate).index() * words_per_net + w] = out;
        }
    }
    icd_obs::counter(
        "packed.words_simulated",
        (words_per_net * circuit.num_gates()) as u64,
        icd_obs::Stability::Stable,
    );

    Ok(BitValues::new(circuit, patterns.len(), words_per_net, data))
}

/// The scalar differential oracle for [`good_simulate`]: one
/// [`ternary_simulate`] call per pattern, packed into the same
/// [`BitValues`] layout.
///
/// Bits beyond the pattern count are left at `0`, so compare per-lane (or
/// through [`BitValues::tail_mask`]), not by raw word. Every call adds
/// `patterns` to the `packed.scalar_fallbacks` [`icd_obs`] counter.
///
/// # Errors
///
/// Same contract as [`good_simulate`]; additionally reports
/// [`FaultSimError::UnknownGoodValue`] if a net simulates to `U` (which a
/// fully specified pattern set cannot produce on a `U`-free library).
pub fn good_simulate_scalar(
    circuit: &Circuit,
    patterns: &[Pattern],
) -> Result<BitValues, FaultSimError> {
    validate_patterns(circuit, patterns)?;
    // Match good_simulate's library validation so the two paths accept and
    // reject exactly the same inputs.
    build_evaluators(circuit)?;
    let words_per_net = patterns.len().div_ceil(64).max(1);
    let mut data = vec![0u64; circuit.num_nets() * words_per_net];
    for (t, p) in patterns.iter().enumerate() {
        let values = ternary_simulate(circuit, p)?;
        for (net, &v) in values.iter().enumerate() {
            match v {
                Lv::One => data[net * words_per_net + t / 64] |= 1u64 << (t % 64),
                Lv::Zero => {}
                Lv::U => {
                    return Err(FaultSimError::UnknownGoodValue(
                        circuit.net_name(NetId::from_index(net)),
                    ))
                }
            }
        }
    }
    icd_obs::counter(
        "packed.scalar_fallbacks",
        patterns.len() as u64,
        icd_obs::Stability::Stable,
    );
    Ok(BitValues::new(circuit, patterns.len(), words_per_net, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_logic::TruthTable;
    use icd_netlist::{CircuitBuilder, GateType, Library};

    fn lib() -> Library {
        let mut lib = Library::new();
        lib.insert(GateType::new("INV", ["A"], TruthTable::from_fn(1, |b| !b[0])).unwrap())
            .unwrap();
        lib.insert(
            GateType::new(
                "NAND2",
                ["A", "B"],
                TruthTable::from_fn(2, |b| !(b[0] & b[1])),
            )
            .unwrap(),
        )
        .unwrap();
        lib.insert(
            GateType::new("XOR2", ["A", "B"], TruthTable::from_fn(2, |b| b[0] ^ b[1])).unwrap(),
        )
        .unwrap();
        lib
    }

    /// y = (a NAND b) XOR (NOT a)
    fn circuit(lib: &Library) -> Circuit {
        let mut b = CircuitBuilder::new("c", lib);
        let a = b.add_input("a");
        let c = b.add_input("c");
        let n = b.add_gate("NAND2", &[a, c], None).unwrap();
        let i = b.add_gate("INV", &[a], None).unwrap();
        let y = b.add_gate("XOR2", &[n, i], None).unwrap();
        b.mark_output(y, "y");
        b.finish().unwrap()
    }

    fn reference(a: bool, c: bool) -> bool {
        !(a & c) ^ !a
    }

    #[test]
    fn matches_reference_on_all_input_combos() {
        let lib = lib();
        let circuit = circuit(&lib);
        let patterns: Vec<Pattern> = (0..4)
            .map(|i| Pattern::from_bits([(i & 1) == 1, (i & 2) == 2]))
            .collect();
        let vals = good_simulate(&circuit, &patterns).unwrap();
        let y = circuit.outputs()[0];
        for (t, p) in patterns.iter().enumerate() {
            let a = p[0] == Lv::One;
            let c = p[1] == Lv::One;
            assert_eq!(vals.value(y, t), reference(a, c), "pattern {t}");
        }
    }

    #[test]
    fn more_than_64_patterns_cross_word_boundary() {
        let lib = lib();
        let circuit = circuit(&lib);
        let patterns: Vec<Pattern> = (0..130)
            .map(|i| Pattern::from_bits([(i % 3) == 0, (i % 5) == 0]))
            .collect();
        let vals = good_simulate(&circuit, &patterns).unwrap();
        assert_eq!(vals.words_per_net(), 3);
        let y = circuit.outputs()[0];
        for t in 0..130 {
            assert_eq!(vals.value(y, t), reference(t % 3 == 0, t % 5 == 0));
        }
    }

    #[test]
    fn rejects_wrong_width() {
        let lib = lib();
        let circuit = circuit(&lib);
        let err = good_simulate(&circuit, &[Pattern::from_bits([true])]);
        assert!(matches!(err, Err(FaultSimError::WrongPatternWidth { .. })));
    }

    #[test]
    fn rejects_unknowns() {
        let lib = lib();
        let circuit = circuit(&lib);
        let err = good_simulate(&circuit, &["0U".parse().unwrap()]);
        assert!(matches!(err, Err(FaultSimError::UnknownInPattern { .. })));
    }

    #[test]
    fn binary_eval_word_matches_table() {
        let t = TruthTable::from_fn(3, |b| (b[0] & b[1]) | b[2]);
        let eval = PackedEval::from_table(&t);
        // Pack the 8 combos into one word, inputs as bit masks.
        let a = 0b10101010u64;
        let b = 0b11001100u64;
        let c = 0b11110000u64;
        let out = eval.eval_binary_word(&[a, b, c]);
        for combo in 0..8 {
            let bits = [
                (a >> combo) & 1 == 1,
                (b >> combo) & 1 == 1,
                (c >> combo) & 1 == 1,
            ];
            assert_eq!((out >> combo) & 1 == 1, t.eval_bits(&bits) == Lv::One);
        }
    }

    #[test]
    fn scalar_oracle_agrees_with_packed_path() {
        let lib = lib();
        let circuit = circuit(&lib);
        // 70 patterns to cover the tail word of the second lane group.
        let patterns: Vec<Pattern> = (0..70)
            .map(|i| Pattern::from_bits([(i % 3) == 0, (i % 7) < 3]))
            .collect();
        let packed = good_simulate(&circuit, &patterns).unwrap();
        let scalar = good_simulate_scalar(&circuit, &patterns).unwrap();
        assert_eq!(scalar.num_patterns(), packed.num_patterns());
        for net in circuit.nets() {
            for t in 0..patterns.len() {
                assert_eq!(packed.value(net, t), scalar.value(net, t), "net {net:?}");
            }
        }
    }

    #[test]
    fn observability_memo_is_allocated_on_first_use_and_filled_once() {
        let lib = lib();
        let circuit = circuit(&lib);
        let patterns: Vec<Pattern> = (0..4)
            .map(|i| Pattern::from_bits([(i & 1) == 1, (i & 2) == 2]))
            .collect();
        let good = good_simulate(&circuit, &patterns).unwrap();
        assert!(good.obs.get().is_none(), "good_simulate allocated the memo");

        // The NAND feeds the XOR at the output: a flip of its output is
        // observed on every pattern.
        let y = circuit.outputs()[0];
        let nand = circuit
            .driver(circuit.gate_inputs(circuit.driver(y).unwrap())[0])
            .unwrap();
        let mut sim = crate::EventSim::new(&circuit).unwrap();
        let mut lookup = || {
            *good
                .obs_memo(nand, 0)
                .get_or_init(|| sim.observable_lanes(&circuit, &good, nand, 0))
        };
        assert_eq!(lookup(), 0b1111);
        assert_eq!(lookup(), 0b1111);
        assert!(good.obs.get().is_some());
        // The one fill evaluated the XOR; the repeated lookup nothing.
        assert_eq!(sim.gates_evaluated(), 1);
    }

    #[test]
    fn packed_counters_are_recorded() {
        let lib = lib();
        let circuit = circuit(&lib);
        let patterns: Vec<Pattern> = (0..70)
            .map(|i| Pattern::from_bits([i % 2 == 0, i % 3 == 0]))
            .collect();
        let collector = icd_obs::Collector::new();
        {
            let _active = collector.install_local();
            good_simulate(&circuit, &patterns).unwrap();
            good_simulate_scalar(&circuit, &patterns).unwrap();
        }
        let snap = collector.snapshot();
        // 2 words per net × 3 gates, and one scalar fallback per pattern.
        assert_eq!(snap.counters["packed.words_simulated"].0, 6);
        assert_eq!(snap.counters["packed.scalar_fallbacks"].0, 70);
    }
}
