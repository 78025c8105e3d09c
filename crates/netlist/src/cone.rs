//! Levelized structure and observe-point reachability indexes.
//!
//! Event-driven fault simulation needs two structural views that a flat
//! gate list does not give directly:
//!
//! * [`Levels`] — the gates grouped by logic level, so a divergence
//!   frontier can be drained strictly level by level (every fanout
//!   successor sits at a strictly greater level, so each gate is
//!   evaluated at most once per propagation);
//! * [`ConeIndex`] — the set of observe points each gate can reach, as
//!   dense bitsets, so candidate pre-filtering and observation checks are
//!   O(outputs/64) lookups, plus each gate's fanout-cone size, walked on
//!   first ask and cached, for cone-size scheduling.
//!
//! [`Levels`] is cheap (two flat arrays) and built eagerly by
//! [`CircuitBuilder::finish`](crate::CircuitBuilder::finish). The cone
//! index costs `num_gates·num_outputs/64` words plus 8 B per gate, so it
//! is built lazily on first use and cached on the [`Circuit`];
//! simulation paths that never ask for observe points (the
//! multi-million-gate Table 6 circuits) never pay for it.

use std::sync::OnceLock;

use crate::{Circuit, GateId};

/// Gates grouped by logic level, level-major.
///
/// `gates_at(l)` lists every gate whose [`Circuit::gate_level`] is `l`,
/// in ascending gate-id order. Gates on the same level never feed each
/// other (a gate's level is one past its deepest predecessor), so a
/// per-level slice can be evaluated in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    /// `offsets[l]..offsets[l + 1]` indexes `gates` for level `l`.
    offsets: Vec<u32>,
    gates: Vec<GateId>,
}

impl Levels {
    /// Groups `gate_level` (indexed by gate) into level-major slices.
    pub(crate) fn build(gate_level: &[u32], max_level: u32) -> Levels {
        let num_levels = if gate_level.is_empty() {
            0
        } else {
            max_level as usize + 1
        };
        let mut offsets = vec![0u32; num_levels + 1];
        for &l in gate_level {
            offsets[l as usize + 1] += 1;
        }
        for l in 0..num_levels {
            offsets[l + 1] += offsets[l];
        }
        let mut cursor = offsets.clone();
        let mut gates = vec![GateId::from_index(0); gate_level.len()];
        for (g, &l) in gate_level.iter().enumerate() {
            let slot = cursor[l as usize];
            gates[slot as usize] = GateId::from_index(g);
            cursor[l as usize] = slot + 1;
        }
        Levels { offsets, gates }
    }

    /// Number of distinct levels (0 for an empty circuit).
    pub fn num_levels(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The gates at `level`, in ascending gate-id order (empty when the
    /// level is out of range).
    pub fn gates_at(&self, level: u32) -> &[GateId] {
        let l = level as usize;
        if l >= self.num_levels() {
            return &[];
        }
        &self.gates[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    /// Iterates `(level, gates)` pairs in ascending level order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[GateId])> {
        (0..self.num_levels() as u32).map(move |l| (l, self.gates_at(l)))
    }
}

/// A borrowed dense bitset over observe-point positions.
#[derive(Debug, Clone, Copy)]
pub struct ConeSet<'a> {
    words: &'a [u64],
}

impl<'a> ConeSet<'a> {
    /// Whether `index` is a member.
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|w| w >> (index % 64) & 1 == 1)
    }

    /// Whether the set shares any member with the raw bitset `words`.
    pub fn intersects_words(&self, words: &[u64]) -> bool {
        self.words.iter().zip(words).any(|(a, b)| a & b != 0)
    }

    /// Iterates member indexes in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// The raw bitset words.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }
}

/// Per-gate observe-point reachability, as dense bitsets, and fanout-cone
/// sizes.
///
/// `observable(g)` is the set of positions in [`Circuit::outputs`] that
/// `g`'s output structurally reaches, computed in one reverse-topological
/// pass: a gate reaches the positions observing its output net plus
/// those its fanout successors reach. A gate's fanout-cone size (the
/// gates, itself included, a defect at its output can disturb) is walked
/// on the first [`Circuit::cone_size`] for that gate and cached.
#[derive(Debug, Clone)]
pub struct ConeIndex {
    out_words: usize,
    observable: Vec<u64>,
    /// Fanout-cone size per gate, set by its first walk.
    cone_sizes: Box<[OnceLock<u32>]>,
}

impl ConeIndex {
    /// Builds the observe-point bitsets by reverse-topological union.
    pub(crate) fn build(circuit: &Circuit) -> ConeIndex {
        let num_gates = circuit.num_gates();
        let num_outputs = circuit.outputs().len();
        let out_words = num_outputs.div_ceil(64).max(1);
        let mut observable = vec![0u64; num_gates * out_words];

        // Observe positions per net (a net may be observed at several
        // positions, e.g. a PO also captured by a scan cell).
        let mut out_positions: Vec<Vec<usize>> = vec![Vec::new(); circuit.num_nets()];
        for (pos, &net) in circuit.outputs().iter().enumerate() {
            out_positions[net.index()].push(pos);
        }

        for &gate in circuit.topo_order().iter().rev() {
            let g = gate.index();
            let out = circuit.gate_output(gate);
            // Seed: the positions directly observing the gate's output.
            for &pos in &out_positions[out.index()] {
                observable[g * out_words + pos / 64] |= 1u64 << (pos % 64);
            }
            // Union in each successor's already-final set (successors
            // have strictly greater level, hence later topo position).
            for &succ in circuit.fanout(out) {
                let s = succ.index();
                for w in 0..out_words {
                    let bits = observable[s * out_words + w];
                    observable[g * out_words + w] |= bits;
                }
            }
        }

        ConeIndex {
            out_words,
            observable,
            cone_sizes: (0..num_gates).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The observe-point positions (indexes into [`Circuit::outputs`])
    /// reachable from `gate`'s output.
    pub fn observable(&self, gate: GateId) -> ConeSet<'_> {
        let g = gate.index();
        ConeSet {
            words: &self.observable[g * self.out_words..(g + 1) * self.out_words],
        }
    }

    /// Number of gates in `gate`'s fanout cone (including itself): a walk
    /// over the fanout on the first ask for `gate`, a load afterwards.
    pub(crate) fn cone_size(&self, circuit: &Circuit, gate: GateId) -> u32 {
        *self.cone_sizes[gate.index()].get_or_init(|| walk_cone(circuit, gate))
    }

    /// Number of `u64` words in an observe-point bitset, for building
    /// masks compatible with [`ConeSet::intersects_words`].
    pub fn output_words(&self) -> usize {
        self.out_words
    }
}

/// Counts the gates reachable from `gate` through fanout, `gate` itself
/// included, each once however many paths reach it.
fn walk_cone(circuit: &Circuit, gate: GateId) -> u32 {
    let mut seen = vec![false; circuit.num_gates()];
    seen[gate.index()] = true;
    let mut stack = vec![gate];
    let mut size = 0u32;
    while let Some(g) = stack.pop() {
        size += 1;
        for &succ in circuit.fanout(circuit.gate_output(g)) {
            if !seen[succ.index()] {
                seen[succ.index()] = true;
                stack.push(succ);
            }
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// a ─ U1 ─ U2 ─ y0        (disjoint branch)  c ─ U3 ─ y1
    fn two_branch() -> Circuit {
        let lib = small_library();
        let mut b = CircuitBuilder::new("two_branch", &lib);
        let a = b.add_input("a");
        let c = b.add_input("c");
        let x = b.add_gate("INV", &[a], Some("U1")).unwrap();
        let y0 = b.add_gate("INV", &[x], Some("U2")).unwrap();
        let y1 = b.add_gate("NAND2", &[c, c], Some("U3")).unwrap();
        b.mark_output(y0, "y0");
        b.mark_output(y1, "y1");
        b.finish().unwrap()
    }

    #[test]
    fn levels_group_gates_by_level() {
        let c = two_branch();
        let levels = c.levels();
        assert_eq!(levels.num_levels(), 2);
        let u1 = c.find_gate("U1").unwrap();
        let u2 = c.find_gate("U2").unwrap();
        let u3 = c.find_gate("U3").unwrap();
        assert_eq!(levels.gates_at(0), &[u1, u3]);
        assert_eq!(levels.gates_at(1), &[u2]);
        assert_eq!(levels.gates_at(7), &[] as &[GateId]);
        let collected: Vec<_> = levels.iter().map(|(l, g)| (l, g.len())).collect();
        assert_eq!(collected, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn cones_follow_structural_reachability() {
        let c = two_branch();
        let u1 = c.find_gate("U1").unwrap();
        let u2 = c.find_gate("U2").unwrap();
        let u3 = c.find_gate("U3").unwrap();

        assert_eq!(c.cone_size(u1), 2);
        assert_eq!(c.cone_size(u2), 1);
        assert_eq!(c.cone_size(u3), 1);
        // Cached: the second ask answers the same.
        assert_eq!(c.cone_size(u1), 2);

        // U1 reaches only y0 (position 0); U3 only y1 (position 1).
        assert_eq!(c.observable_outputs(u1).iter().collect::<Vec<_>>(), [0]);
        assert_eq!(c.observable_outputs(u3).iter().collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn reconvergent_gates_count_once_in_a_cone() {
        // a ─ U1 ┬ U2 ┐
        //        └ U3 ┴ U4 ─ y: U4 is reached through both branches.
        let lib = small_library();
        let mut b = CircuitBuilder::new("reconverge", &lib);
        let a = b.add_input("a");
        let x = b.add_gate("INV", &[a], Some("U1")).unwrap();
        let p = b.add_gate("INV", &[x], Some("U2")).unwrap();
        let q = b.add_gate("INV", &[x], Some("U3")).unwrap();
        let y = b.add_gate("NAND2", &[p, q], Some("U4")).unwrap();
        b.mark_output(y, "y");
        let c = b.finish().unwrap();
        let u1 = c.find_gate("U1").unwrap();
        assert_eq!(c.cone_size(u1), 4);
        assert_eq!(c.cone_size(c.find_gate("U2").unwrap()), 2);
        assert_eq!(c.cone_size(c.find_gate("U4").unwrap()), 1);
        // A clone answers the same, walked or not.
        assert_eq!(c.clone().cone_size(u1), 4);
    }

    #[test]
    fn observable_respects_multiply_observed_nets() {
        let lib = small_library();
        let mut b = CircuitBuilder::new("double_obs", &lib);
        let a = b.add_input("a");
        let x = b.add_gate("INV", &[a], Some("U1")).unwrap();
        b.mark_output(x, "po");
        b.mark_output_anonymous(x); // observed twice
        let c = b.finish().unwrap();
        let u1 = c.find_gate("U1").unwrap();
        assert_eq!(c.observable_outputs(u1).iter().collect::<Vec<_>>(), [0, 1]);
        assert!(c.observable_outputs(u1).intersects_words(&[0b10]));
        assert!(!c.observable_outputs(u1).intersects_words(&[0b100]));
    }

    #[test]
    fn empty_circuit_levels_are_empty() {
        let lib = small_library();
        let b = CircuitBuilder::new("empty", &lib);
        let c = b.finish().unwrap();
        assert_eq!(c.levels().num_levels(), 0);
    }
}
