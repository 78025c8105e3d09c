//! Property-based tests for netlist construction, levelization and the
//! text format.

#![allow(clippy::unwrap_used, clippy::panic)] // test code

use icd_logic::TruthTable;
use icd_netlist::{format, generator, Circuit, GateType, Library};
use proptest::prelude::*;

fn library() -> Library {
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
        GateType::new(
            "AOI21",
            ["A", "B", "C"],
            TruthTable::from_fn(3, |b| !((b[0] & b[1]) | b[2])),
        )
        .unwrap(),
    )
    .unwrap();
    lib
}

fn random_circuit(lib: &Library, seed: u64, gates: usize) -> Circuit {
    let cfg = generator::GeneratorConfig {
        name: format!("p{seed}"),
        gates,
        primary_inputs: 5,
        primary_outputs: 5,
        flip_flops: 3,
        scan_chains: 1,
        seed,
    };
    generator::generate(&cfg, lib).expect("generates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The topological order is a valid schedule: every gate input is a
    /// primary input or driven by an earlier gate.
    #[test]
    fn topo_order_is_valid(seed in any::<u64>(), gates in 1usize..120) {
        let lib = library();
        let c = random_circuit(&lib, seed, gates);
        let mut scheduled = vec![false; c.num_gates()];
        for &g in c.topo_order() {
            for &input in c.gate_inputs(g) {
                match c.driver(input) {
                    None => prop_assert!(c.is_input(input)),
                    Some(d) => prop_assert!(scheduled[d.index()], "unscheduled driver"),
                }
            }
            scheduled[g.index()] = true;
        }
        prop_assert!(scheduled.iter().all(|&s| s));
    }

    /// Levels are consistent: a gate's level is exactly one more than the
    /// maximum level of its driven inputs.
    #[test]
    fn levels_are_consistent(seed in any::<u64>(), gates in 1usize..120) {
        let lib = library();
        let c = random_circuit(&lib, seed, gates);
        for g in c.gates() {
            let max_in = c
                .gate_inputs(g)
                .iter()
                .filter_map(|&n| c.driver(n))
                .map(|d| c.gate_level(d) + 1)
                .max()
                .unwrap_or(0);
            prop_assert_eq!(c.gate_level(g), max_in);
            prop_assert!(c.gate_level(g) <= c.max_level());
        }
    }

    /// Fanout lists are the exact inverse of the gate-input relation.
    #[test]
    fn fanout_inverts_inputs(seed in any::<u64>(), gates in 1usize..120) {
        let lib = library();
        let c = random_circuit(&lib, seed, gates);
        for g in c.gates() {
            for &input in c.gate_inputs(g) {
                prop_assert!(c.fanout(input).contains(&g));
            }
        }
        for net in c.nets() {
            for &g in c.fanout(net) {
                prop_assert!(c.gate_inputs(g).contains(&net));
            }
        }
    }

    /// Cone sizes and observe points match a per-gate reachability
    /// reference: the gates a forward walk from the gate's output reaches,
    /// and the output positions whose nets those gates (or the gate's own
    /// net) drive.
    #[test]
    fn cones_match_forward_reachability(seed in any::<u64>(), gates in 1usize..120) {
        let lib = library();
        let c = random_circuit(&lib, seed, gates);
        for g in c.gates() {
            let mut reached = vec![false; c.num_gates()];
            let mut frontier = vec![g];
            reached[g.index()] = true;
            while let Some(x) = frontier.pop() {
                for &succ in c.fanout(c.gate_output(x)) {
                    if !std::mem::replace(&mut reached[succ.index()], true) {
                        frontier.push(succ);
                    }
                }
            }
            let size = reached.iter().filter(|&&r| r).count();
            prop_assert_eq!(c.cone_size(g) as usize, size);
            let observed: Vec<usize> = c
                .outputs()
                .iter()
                .enumerate()
                .filter(|&(_, &net)| c.driver(net).is_some_and(|d| reached[d.index()]))
                .map(|(pos, _)| pos)
                .collect();
            prop_assert_eq!(c.observable_outputs(g).iter().collect::<Vec<_>>(), observed);
        }
    }

    /// The text format round-trips: writing and re-parsing preserves the
    /// structure (gates, types, connections up to net identity).
    #[test]
    fn format_round_trips(seed in any::<u64>(), gates in 1usize..60) {
        let lib = library();
        let c = random_circuit(&lib, seed, gates);
        let text = format::write(&c);
        let c2 = format::parse(&text, &lib).expect("parses");
        prop_assert_eq!(c2.num_gates(), c.num_gates());
        prop_assert_eq!(c2.inputs().len(), c.inputs().len());
        prop_assert_eq!(c2.outputs().len(), c.outputs().len());
        prop_assert_eq!(c2.scan_info(), c.scan_info());
        prop_assert_eq!(c2.max_level(), c.max_level());
        // Same multiset of gate types.
        let mut t1: Vec<&str> = c.gates().map(|g| c.gate_type(g).name()).collect();
        let mut t2: Vec<&str> = c2.gates().map(|g| c2.gate_type(g).name()).collect();
        t1.sort_unstable();
        t2.sort_unstable();
        prop_assert_eq!(t1, t2);
        // And a second round-trip is textually identical (canonical form).
        let text2 = format::write(&c2);
        let c3 = format::parse(&text2, &lib).expect("parses");
        prop_assert_eq!(format::write(&c3), text2);
    }

    /// Generation is a pure function of its configuration.
    #[test]
    fn generation_is_deterministic(seed in any::<u64>(), gates in 1usize..80) {
        let lib = library();
        let a = random_circuit(&lib, seed, gates);
        let b = random_circuit(&lib, seed, gates);
        prop_assert_eq!(a.num_nets(), b.num_nets());
        for g in a.gates() {
            prop_assert_eq!(a.gate_inputs(g), b.gate_inputs(g));
            prop_assert_eq!(a.gate_type_id(g), b.gate_type_id(g));
        }
    }
}
