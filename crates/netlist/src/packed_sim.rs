//! Packed (bit-parallel) good-machine simulation of a [`Circuit`].
//!
//! The diagnosis flow re-simulates the same circuit under hundreds of
//! patterns; evaluating them one [`Lv`] at a time wastes the word-level
//! parallelism of the host. This module threads the
//! [`icd_logic::packed`] kernel through the netlist layer: 64 patterns
//! travel together as one [`PackedWord`] per net, and each gate is a
//! single [`PackedEval`](icd_logic::packed::PackedEval) application
//! per word instead of 64 table lookups.
//!
//! The scalar path ([`GateType::eval`](crate::GateType::eval) applied in
//! topological order) remains the authoritative oracle; the differential
//! tests below and in `icd-faultsim` hold the two paths byte-identical.

use icd_logic::packed::{PackedPatternSet, PackedWord};
use icd_logic::{Lv, Pattern};

use crate::{Circuit, NetId, NetlistError};

/// Per-net packed simulation results: one [`PackedWord`] per (net, word)
/// pair, net-major.
///
/// Lanes beyond the pattern count carry the pinned tail of the input
/// [`PackedPatternSet`] (all-`Zero` inputs); mask with
/// [`PackedNetValues::tail_mask`] before counting anything per-lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedNetValues {
    num_patterns: usize,
    words: usize,
    planes: Vec<PackedWord>,
}

impl PackedNetValues {
    /// Number of (real) patterns simulated.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Number of 64-lane words per net.
    pub fn words_per_net(&self) -> usize {
        self.words
    }

    /// The packed word `word` of `net`.
    pub fn word(&self, net: NetId, word: usize) -> PackedWord {
        self.planes[net.index() * self.words + word]
    }

    /// All packed words of `net`, in word order.
    pub fn net_words(&self, net: NetId) -> &[PackedWord] {
        let lo = net.index() * self.words;
        &self.planes[lo..lo + self.words]
    }

    /// The simulated value of `net` under pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern >= self.num_patterns()`.
    pub fn value(&self, net: NetId, pattern: usize) -> Lv {
        assert!(pattern < self.num_patterns, "pattern index out of range");
        self.word(net, pattern / 64).lane(pattern % 64)
    }

    /// Mask of lanes in `word` that hold real patterns.
    pub fn tail_mask(&self, word: usize) -> u64 {
        let filled = self.num_patterns.saturating_sub(word * 64).min(64);
        if filled == 64 {
            !0
        } else {
            (1u64 << filled) - 1
        }
    }
}

/// Simulates the fault-free circuit under a packed pattern set, 64
/// patterns per machine word.
///
/// The set's pins correspond positionally to [`Circuit::inputs`]. `U`
/// input positions are propagated with exact ternary semantics (the
/// packed evaluator agrees with [`TruthTable::eval`](icd_logic::TruthTable::eval)
/// on every lane).
///
/// # Errors
///
/// Returns [`NetlistError::WrongPatternWidth`] when the set's width
/// differs from the circuit's input count.
pub fn packed_simulate(
    circuit: &Circuit,
    patterns: &PackedPatternSet,
) -> Result<PackedNetValues, NetlistError> {
    if patterns.width() != circuit.inputs().len() {
        return Err(NetlistError::WrongPatternWidth {
            expected: circuit.inputs().len(),
            got: patterns.width(),
            pattern: 0,
        });
    }
    // Evaluators are compiled once per circuit and reused across calls.
    let evals = circuit.packed_evaluators();
    let words = patterns.num_words();
    let mut planes = vec![PackedWord::ALL_U; circuit.num_nets() * words];

    // Load the input planes (tail lanes stay pinned to the set's Zero).
    for (pin, &net) in circuit.inputs().iter().enumerate() {
        for w in 0..words {
            planes[net.index() * words + w] = patterns.word(pin, w);
        }
    }

    // Word-major evaluation keeps each word's working set in cache.
    let mut ins: Vec<PackedWord> = Vec::new();
    for w in 0..words {
        for &gate in circuit.topo_order() {
            ins.clear();
            ins.extend(
                circuit
                    .gate_inputs(gate)
                    .iter()
                    .map(|n| planes[n.index() * words + w]),
            );
            let eval = &evals[circuit.gate_type_id(gate).index()];
            let out = eval
                .eval_word(&ins)
                .expect("gate arity checked at construction");
            planes[circuit.gate_output(gate).index() * words + w] = out;
        }
    }

    Ok(PackedNetValues {
        num_patterns: patterns.num_patterns(),
        words,
        planes,
    })
}

/// Convenience wrapper: packs a pattern slice and simulates it.
///
/// # Errors
///
/// Returns [`NetlistError::WrongPatternWidth`] (with the offending
/// pattern's index) when any pattern's width differs from the circuit's
/// input count.
pub fn packed_simulate_patterns(
    circuit: &Circuit,
    patterns: &[Pattern],
) -> Result<PackedNetValues, NetlistError> {
    let expected = circuit.inputs().len();
    for (i, p) in patterns.iter().enumerate() {
        if p.len() != expected {
            return Err(NetlistError::WrongPatternWidth {
                expected,
                got: p.len(),
                pattern: i,
            });
        }
    }
    let set = PackedPatternSet::from_patterns(patterns)
        .expect("pattern widths checked against the circuit");
    // An empty set has the circuit width by convention.
    if patterns.is_empty() && expected > 0 {
        return Ok(PackedNetValues {
            num_patterns: 0,
            words: 1,
            planes: vec![PackedWord::splat(Lv::Zero, !0); circuit.num_nets()],
        });
    }
    packed_simulate(circuit, &set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};
    use crate::{CircuitBuilder, GateType, Library};
    use icd_logic::TruthTable;

    fn small_library() -> Library {
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
        lib
    }

    /// The scalar oracle: topo-order ternary evaluation, one pattern at a
    /// time.
    fn scalar_simulate(circuit: &Circuit, pattern: &Pattern) -> Vec<Lv> {
        let mut values = vec![Lv::U; circuit.num_nets()];
        for (pin, &net) in circuit.inputs().iter().enumerate() {
            values[net.index()] = pattern[pin];
        }
        for &gate in circuit.topo_order() {
            let ins: Vec<Lv> = circuit
                .gate_inputs(gate)
                .iter()
                .map(|n| values[n.index()])
                .collect();
            values[circuit.gate_output(gate).index()] = circuit.gate_type(gate).eval(&ins);
        }
        values
    }

    fn chain_circuit() -> Circuit {
        let lib = small_library();
        let mut b = CircuitBuilder::new("chain", &lib);
        let a = b.add_input("a");
        let c = b.add_input("c");
        let x = b.add_gate("NAND2", &[a, c], Some("U1")).unwrap();
        let y = b.add_gate("INV", &[x], Some("U2")).unwrap();
        let z = b.add_gate("NAND2", &[y, a], Some("U3")).unwrap();
        b.mark_output(z, "z");
        b.finish().unwrap()
    }

    #[test]
    fn packed_matches_scalar_on_all_ternary_vectors() {
        let circuit = chain_circuit();
        let all: Vec<Pattern> = (0..9)
            .map(|i| Pattern::new([Lv::ALL[i / 3], Lv::ALL[i % 3]]))
            .collect();
        let packed = packed_simulate_patterns(&circuit, &all).unwrap();
        for (t, p) in all.iter().enumerate() {
            let scalar = scalar_simulate(&circuit, p);
            for net in circuit.nets() {
                assert_eq!(packed.value(net, t), scalar[net.index()], "net {net:?}");
            }
        }
    }

    #[test]
    fn packed_matches_scalar_on_generated_circuit_with_tail() {
        // 70 patterns exercise the partially filled second word.
        let config = GeneratorConfig {
            name: "packed_diff".into(),
            gates: 120,
            primary_inputs: 8,
            primary_outputs: 6,
            flip_flops: 4,
            scan_chains: 1,
            seed: 7,
        };
        let circuit = generate(&config, &small_library()).unwrap();
        let width = circuit.inputs().len();
        let mut state = 0x243F6A8885A308D3u64;
        let patterns: Vec<Pattern> = (0..70)
            .map(|_| {
                Pattern::new((0..width).map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    match state >> 62 {
                        0 => Lv::U,
                        1 => Lv::One,
                        _ => Lv::Zero,
                    }
                }))
            })
            .collect();
        let packed = packed_simulate_patterns(&circuit, &patterns).unwrap();
        assert_eq!(packed.num_patterns(), 70);
        assert_eq!(packed.words_per_net(), 2);
        assert_eq!(packed.tail_mask(1), (1u64 << 6) - 1);
        for (t, p) in patterns.iter().enumerate() {
            let scalar = scalar_simulate(&circuit, p);
            for net in circuit.nets() {
                assert_eq!(packed.value(net, t), scalar[net.index()]);
            }
        }
    }

    #[test]
    fn width_mismatch_reports_offending_pattern() {
        let circuit = chain_circuit();
        let patterns = vec![
            Pattern::from_bits([true, false]),
            Pattern::from_bits([true]),
        ];
        assert!(matches!(
            packed_simulate_patterns(&circuit, &patterns),
            Err(NetlistError::WrongPatternWidth {
                expected: 2,
                got: 1,
                pattern: 1,
            })
        ));
    }

    #[test]
    fn packed_evaluators_are_compiled_once_per_circuit() {
        let circuit = chain_circuit();
        let first = std::sync::Arc::clone(circuit.packed_evaluators());
        let patterns = vec![Pattern::from_bits([true, false])];
        packed_simulate_patterns(&circuit, &patterns).unwrap();
        packed_simulate_patterns(&circuit, &patterns).unwrap();
        // Still the same compiled evaluators, not fresh per-call copies.
        assert!(std::sync::Arc::ptr_eq(&first, circuit.packed_evaluators()));
        assert_eq!(first.len(), circuit.library().len());
    }

    #[test]
    fn empty_pattern_set_simulates() {
        let circuit = chain_circuit();
        let packed = packed_simulate_patterns(&circuit, &[]).unwrap();
        assert_eq!(packed.num_patterns(), 0);
        assert_eq!(packed.tail_mask(0), 0);
    }
}
