use icd_faultsim::{BitValues, DatalogEntry};
use icd_logic::Lv;
use icd_netlist::{Circuit, GateId, NetId};

/// Classical critical path tracing at gate level.
///
/// Starting from `start` (typically a failing observe point), the trace
/// walks backwards: a gate input is *critical* when inverting its value
/// inverts the gate's output; every net reached through critical inputs is
/// critical and recursively traced until the primary inputs. This is the
/// paper's Fig.-5 procedure and the backbone of the inter-cell diagnosis
/// reference \[2\].
///
/// Fanout stems are handled with the standard single-path approximation: a
/// stem is critical when it is critical through at least one traced branch
/// (self-masking through reconvergence is not re-checked), which matches
/// the behaviour the paper relies on.
///
/// `base` holds the fault-free value of every net under the traced
/// pattern; inputs with unknown base values are never critical.
///
/// Returns the critical nets in trace order, starting with `start`.
pub fn gate_cpt(circuit: &Circuit, base: &[Lv], start: NetId) -> Vec<NetId> {
    let mut critical = vec![false; circuit.num_nets()];
    let mut order = Vec::new();
    let mut stack = vec![start];
    critical[start.index()] = true;

    let mut ins: Vec<Lv> = Vec::with_capacity(8);
    while let Some(net) = stack.pop() {
        order.push(net);
        let Some(gate) = circuit.driver(net) else {
            continue; // primary input: the trace stops here
        };
        let table = circuit.gate_type(gate).table();
        let inputs = circuit.gate_inputs(gate);
        ins.clear();
        ins.extend(inputs.iter().map(|&n| base[n.index()]));
        let out = table.eval(&ins).expect("arity checked at construction");
        for (i, &input_net) in inputs.iter().enumerate() {
            let v = ins[i];
            if !v.is_known() {
                continue;
            }
            let saved = ins[i];
            ins[i] = !v;
            let flipped = table.eval(&ins).expect("arity checked at construction");
            ins[i] = saved;
            if flipped.conflicts_with(out) && !critical[input_net.index()] {
                critical[input_net.index()] = true;
                stack.push(input_net);
            }
        }
    }
    order
}

/// [`gate_cpt`] for up to 64 datalog entries per word: lane `k` of a
/// word is entry `k` of a 64-entry chunk of `entries` (entries, not
/// pattern indices, so a duplicated entry is traced twice).
///
/// Each chunk seeds every failing output's net with the lanes that fail
/// there, then makes one reverse-topological pass: for a gate whose
/// output mask `m` is non-zero, input `i` gets `m & (eval(ins) ^ eval(ins
/// with input i flipped))`, ORed into that input's net. Under
/// [`gate_cpt`]'s stem rule a net is critical when it is critical
/// through any traced branch, so tracing all failing outputs at once
/// gives exactly the union of the per-output traces.
///
/// Calls `credit(entry, gate, value)` for every gate whose output net is
/// critical under entry `entry` (an index into `entries`), with the
/// gate's good output value under that entry's pattern; one gate sees
/// its entries in ascending order. The caller validates every pattern
/// and output index first.
pub(crate) fn word_cpt(
    circuit: &Circuit,
    good: &BitValues,
    entries: &[DatalogEntry],
    mut credit: impl FnMut(usize, GateId, bool),
) {
    let evals = circuit.packed_evaluators();
    let outputs = circuit.outputs();
    let mut critical = vec![0u64; circuit.num_nets()];
    // Good values per lane, gathered on first use in a chunk.
    let mut values = vec![0u64; circuit.num_nets()];
    let mut gathered = vec![usize::MAX; circuit.num_nets()];
    let mut ins: Vec<u64> = Vec::with_capacity(8);
    for (c, chunk) in entries.chunks(64).enumerate() {
        critical.fill(0);
        for (k, entry) in chunk.iter().enumerate() {
            for &oi in &entry.failing_outputs {
                critical[outputs[oi].index()] |= 1u64 << k;
            }
        }
        let mut value = |net: NetId| {
            let n = net.index();
            if gathered[n] != c {
                gathered[n] = c;
                values[n] = chunk.iter().enumerate().fold(0u64, |word, (k, entry)| {
                    word | u64::from(good.value(net, entry.pattern_index)) << k
                });
            }
            values[n]
        };
        for &gate in circuit.topo_order().iter().rev() {
            let m = critical[circuit.gate_output(gate).index()];
            if m == 0 {
                continue;
            }
            let inputs = circuit.gate_inputs(gate);
            ins.clear();
            ins.extend(inputs.iter().map(|&n| value(n)));
            let eval = &evals[circuit.gate_type_id(gate).index()];
            let out = eval.eval_binary_word(&ins);
            for (i, &net) in inputs.iter().enumerate() {
                ins[i] = !ins[i];
                let flipped = eval.eval_binary_word(&ins);
                ins[i] = !ins[i];
                critical[net.index()] |= m & (out ^ flipped);
            }
            let mut rest = m;
            while rest != 0 {
                let k = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                credit(c * 64 + k, gate, out >> k & 1 == 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_faultsim::ternary_simulate;
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
        lib.insert(
            GateType::new("OR2", ["A", "B"], TruthTable::from_fn(2, |b| b[0] | b[1])).unwrap(),
        )
        .unwrap();
        lib
    }

    #[test]
    fn and_gate_sensitization() {
        // y = a & b under a=1, b=1: both inputs critical.
        let lib = lib();
        let mut bld = CircuitBuilder::new("c", &lib);
        let a = bld.add_input("a");
        let b = bld.add_input("b");
        let y = bld.add_gate("AND2", &[a, b], None).unwrap();
        bld.mark_output(y, "y");
        let c = bld.finish().unwrap();
        let base = ternary_simulate(&c, &"11".parse().unwrap()).unwrap();
        let crit = gate_cpt(&c, &base, y);
        assert!(crit.contains(&a) && crit.contains(&b) && crit.contains(&y));

        // Under a=0, b=1: only a is critical (b is masked).
        let base = ternary_simulate(&c, &"01".parse().unwrap()).unwrap();
        let crit = gate_cpt(&c, &base, y);
        assert!(crit.contains(&a));
        assert!(!crit.contains(&b));
    }

    #[test]
    fn trace_descends_through_chains() {
        // y = !(a & b); chain INV(AND).
        let lib = lib();
        let mut bld = CircuitBuilder::new("c", &lib);
        let a = bld.add_input("a");
        let b = bld.add_input("b");
        let m = bld.add_gate("AND2", &[a, b], None).unwrap();
        let y = bld.add_gate("INV", &[m], None).unwrap();
        bld.mark_output(y, "y");
        let c = bld.finish().unwrap();
        let base = ternary_simulate(&c, &"11".parse().unwrap()).unwrap();
        let crit = gate_cpt(&c, &base, y);
        assert_eq!(crit.len(), 4); // y, m, a, b
    }

    #[test]
    fn or_gate_with_two_controlling_inputs_has_no_critical_input() {
        // y = a | b under a=1, b=1: flipping either alone changes nothing.
        let lib = lib();
        let mut bld = CircuitBuilder::new("c", &lib);
        let a = bld.add_input("a");
        let b = bld.add_input("b");
        let y = bld.add_gate("OR2", &[a, b], None).unwrap();
        bld.mark_output(y, "y");
        let c = bld.finish().unwrap();
        let base = ternary_simulate(&c, &"11".parse().unwrap()).unwrap();
        let crit = gate_cpt(&c, &base, y);
        assert_eq!(crit, vec![y]);
    }

    #[test]
    fn unknown_inputs_are_not_critical() {
        let lib = lib();
        let mut bld = CircuitBuilder::new("c", &lib);
        let a = bld.add_input("a");
        let b = bld.add_input("b");
        let y = bld.add_gate("OR2", &[a, b], None).unwrap();
        bld.mark_output(y, "y");
        let c = bld.finish().unwrap();
        let base = ternary_simulate(&c, &"0U".parse().unwrap()).unwrap();
        let crit = gate_cpt(&c, &base, y);
        // Output U: flipping a known 0 input against a U output cannot be
        // decided -> only the start net is reported.
        assert_eq!(crit, vec![y]);
    }

    #[test]
    fn reconvergent_stem_reported_via_branch() {
        // y = (a & b) | (!a & b) == b, reconvergence at the OR.
        let lib = lib();
        let mut bld = CircuitBuilder::new("c", &lib);
        let a = bld.add_input("a");
        let b = bld.add_input("b");
        let an = bld.add_gate("INV", &[a], None).unwrap();
        let t1 = bld.add_gate("AND2", &[a, b], None).unwrap();
        let t2 = bld.add_gate("AND2", &[an, b], None).unwrap();
        let y = bld.add_gate("OR2", &[t1, t2], None).unwrap();
        bld.mark_output(y, "y");
        let c = bld.finish().unwrap();
        // a=1, b=1: t1=1 (critical path via t1), t2=0.
        let base = ternary_simulate(&c, &"11".parse().unwrap()).unwrap();
        let crit = gate_cpt(&c, &base, y);
        assert!(crit.contains(&t1));
        assert!(crit.contains(&b));
        // The single-path approximation also flags `a` through t1 even
        // though flipping the stem would be self-masked — the classical
        // CPT behaviour.
        assert!(crit.contains(&a));
    }
}
