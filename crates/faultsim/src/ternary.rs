use icd_logic::{Lv, Pattern};
use icd_netlist::{Circuit, GateId, NetId};

use crate::FaultSimError;

/// Serial three-valued simulation of one (possibly partially specified)
/// pattern. Returns the value of every net, indexed by [`NetId`].
///
/// # Errors
///
/// Returns [`FaultSimError::WrongPatternWidth`] when the pattern width
/// differs from the circuit's input count.
pub fn ternary_simulate(circuit: &Circuit, pattern: &Pattern) -> Result<Vec<Lv>, FaultSimError> {
    if pattern.len() != circuit.inputs().len() {
        return Err(FaultSimError::WrongPatternWidth {
            expected: circuit.inputs().len(),
            got: pattern.len(),
            pattern: 0,
        });
    }
    let mut values = vec![Lv::U; circuit.num_nets()];
    for (i, &net) in circuit.inputs().iter().enumerate() {
        values[net.index()] = pattern[i];
    }
    let mut ins: Vec<Lv> = Vec::with_capacity(8);
    for &gate in circuit.topo_order() {
        ins.clear();
        ins.extend(circuit.gate_inputs(gate).iter().map(|&n| values[n.index()]));
        let out = circuit
            .gate_type(gate)
            .table()
            .eval(&ins)
            .expect("arity checked at construction");
        values[circuit.gate_output(gate).index()] = out;
    }
    Ok(values)
}

/// Reusable event-driven difference propagator.
///
/// Given a base (good-machine) valuation and a set of forced net values, it
/// propagates the differences level by level through the fanout cones and
/// reports which circuit outputs change. Scratch buffers persist across
/// calls so repeated queries on a multi-million-net circuit do not
/// re-allocate.
#[derive(Debug)]
pub struct DiffPropagator {
    /// Overlay values; `overlay_stamp` says whether an entry is live.
    overlay: Vec<Lv>,
    overlay_stamp: Vec<u32>,
    stamp: u32,
    /// Per-level worklists of gates, plus a dirty flag per gate.
    queued: Vec<u32>,
}

impl DiffPropagator {
    /// Creates a propagator sized for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        DiffPropagator {
            overlay: vec![Lv::U; circuit.num_nets()],
            overlay_stamp: vec![0; circuit.num_nets()],
            stamp: 0,
            queued: vec![0; circuit.num_gates()],
        }
    }

    /// The effective value of `net` after the last propagation: the overlay
    /// if the net changed, otherwise `base`.
    pub fn effective(&self, base: &[Lv], net: NetId) -> Lv {
        if self.overlay_stamp[net.index()] == self.stamp {
            self.overlay[net.index()]
        } else {
            base[net.index()]
        }
    }

    /// Propagates `forces` through the circuit on top of `base` and returns
    /// the outputs whose value definitely or possibly changed, with their
    /// new value.
    ///
    /// The returned vector lists `(output position, new value)` pairs for
    /// every circuit output whose effective value differs from `base`.
    /// Each call adds the number of gates it re-evaluated to the
    /// `eventsim.gates_evaluated` counter; calls where no force differs
    /// from the base return immediately and count one
    /// `eventsim.early_exits`.
    pub fn propagate(
        &mut self,
        circuit: &Circuit,
        base: &[Lv],
        forces: &[(NetId, Lv)],
    ) -> Vec<(usize, Lv)> {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Extremely rare wrap: clear stamps to stay sound.
            self.overlay_stamp.fill(0);
            self.queued.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;

        // Level-ordered worklist of gates to re-evaluate.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, GateId)>> =
            std::collections::BinaryHeap::new();
        let schedule = |g: GateId,
                        queued: &mut Vec<u32>,
                        heap: &mut std::collections::BinaryHeap<
            std::cmp::Reverse<(u32, GateId)>,
        >| {
            if queued[g.index()] != stamp {
                queued[g.index()] = stamp;
                heap.push(std::cmp::Reverse((circuit.gate_level(g), g)));
            }
        };

        let mut any_force = false;
        for &(net, value) in forces {
            if base[net.index()] == value {
                continue;
            }
            any_force = true;
            self.overlay[net.index()] = value;
            self.overlay_stamp[net.index()] = stamp;
            for &g in circuit.fanout(net) {
                schedule(g, &mut self.queued, &mut heap);
            }
        }
        if !any_force {
            icd_obs::counter("eventsim.early_exits", 1, icd_obs::Stability::Stable);
            return Vec::new();
        }

        let mut evaluated = 0u64;
        let mut ins: Vec<Lv> = Vec::with_capacity(8);
        while let Some(std::cmp::Reverse((_, gate))) = heap.pop() {
            evaluated += 1;
            ins.clear();
            for &n in circuit.gate_inputs(gate) {
                ins.push(if self.overlay_stamp[n.index()] == stamp {
                    self.overlay[n.index()]
                } else {
                    base[n.index()]
                });
            }
            let new = circuit
                .gate_type(gate)
                .table()
                .eval(&ins)
                .expect("arity checked at construction");
            let out = circuit.gate_output(gate);
            let old_effective = if self.overlay_stamp[out.index()] == stamp {
                self.overlay[out.index()]
            } else {
                base[out.index()]
            };
            if new != old_effective {
                self.overlay[out.index()] = new;
                self.overlay_stamp[out.index()] = stamp;
                for &g in circuit.fanout(out) {
                    schedule(g, &mut self.queued, &mut heap);
                }
            }
        }
        icd_obs::counter(
            "eventsim.gates_evaluated",
            evaluated,
            icd_obs::Stability::Stable,
        );

        // A forced output net with an empty fanout still changed, so the
        // output scan cannot be skipped once any force took effect.
        circuit
            .outputs()
            .iter()
            .enumerate()
            .filter_map(|(i, &net)| {
                if self.overlay_stamp[net.index()] == stamp
                    && self.overlay[net.index()] != base[net.index()]
                {
                    Some((i, self.overlay[net.index()]))
                } else {
                    None
                }
            })
            .collect()
    }
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
            GateType::new("AND2", ["A", "B"], TruthTable::from_fn(2, |b| b[0] & b[1])).unwrap(),
        )
        .unwrap();
        lib
    }

    /// y0 = a & b, y1 = !(a & b)
    fn circuit(lib: &Library) -> Circuit {
        let mut bld = CircuitBuilder::new("c", lib);
        let a = bld.add_input("a");
        let b = bld.add_input("b");
        let m = bld.add_gate("AND2", &[a, b], None).unwrap();
        let n = bld.add_gate("INV", &[m], None).unwrap();
        bld.mark_output(m, "y0");
        bld.mark_output(n, "y1");
        bld.finish().unwrap()
    }

    #[test]
    fn ternary_sim_basics() {
        let lib = lib();
        let c = circuit(&lib);
        let vals = ternary_simulate(&c, &"11".parse().unwrap()).unwrap();
        assert_eq!(vals[c.outputs()[0].index()], Lv::One);
        assert_eq!(vals[c.outputs()[1].index()], Lv::Zero);
        // Partially specified: a=0 decides the AND regardless of b.
        let vals = ternary_simulate(&c, &"0U".parse().unwrap()).unwrap();
        assert_eq!(vals[c.outputs()[0].index()], Lv::Zero);
        assert_eq!(vals[c.outputs()[1].index()], Lv::One);
    }

    #[test]
    fn propagate_reaches_both_outputs() {
        let lib = lib();
        let c = circuit(&lib);
        let base = ternary_simulate(&c, &"11".parse().unwrap()).unwrap();
        let mut prop = DiffPropagator::new(&c);
        // Force the AND output (y0) to 0: both outputs change.
        let m = c.outputs()[0];
        let changed = prop.propagate(&c, &base, &[(m, Lv::Zero)]);
        assert_eq!(changed.len(), 2);
        assert!(changed.contains(&(0, Lv::Zero)));
        assert!(changed.contains(&(1, Lv::One)));
    }

    #[test]
    fn masked_force_changes_nothing() {
        let lib = lib();
        let c = circuit(&lib);
        // a=0: forcing b has no observable effect.
        let base = ternary_simulate(&c, &"01".parse().unwrap()).unwrap();
        let mut prop = DiffPropagator::new(&c);
        let b_net = c.inputs()[1];
        let changed = prop.propagate(&c, &base, &[(b_net, Lv::Zero)]);
        assert!(changed.is_empty());
    }

    #[test]
    fn propagator_is_reusable() {
        let lib = lib();
        let c = circuit(&lib);
        let base = ternary_simulate(&c, &"11".parse().unwrap()).unwrap();
        let mut prop = DiffPropagator::new(&c);
        let a = c.inputs()[0];
        for _ in 0..100 {
            let changed = prop.propagate(&c, &base, &[(a, Lv::Zero)]);
            assert_eq!(changed.len(), 2);
            let changed = prop.propagate(&c, &base, &[]);
            assert!(changed.is_empty());
        }
    }

    #[test]
    fn forcing_to_same_value_is_a_no_op() {
        let lib = lib();
        let c = circuit(&lib);
        let base = ternary_simulate(&c, &"11".parse().unwrap()).unwrap();
        let mut prop = DiffPropagator::new(&c);
        let a = c.inputs()[0];
        let changed = prop.propagate(&c, &base, &[(a, Lv::One)]);
        assert!(changed.is_empty());
    }
}
