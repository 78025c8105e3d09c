//! Inter-cell (gate-level) diagnosis benchmark: effect-cause candidate
//! extraction over circuit size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use icd_cells::CellLibrary;
use icd_defects::{sample_defects, MixConfig};
use icd_engine::flow::pattern_set_for;
use icd_faultsim::{run_test, FaultyGate};
use icd_intercell::diagnose;
use icd_netlist::generator;

fn bench_diagnose(c: &mut Criterion) {
    let cells = CellLibrary::standard();
    let logic = cells.logic_library();
    let mut group = c.benchmark_group("intercell_diagnose");
    group.sample_size(15);
    for divisor in [2000usize, 500] {
        let cfg = generator::circuit_b().scaled_down(divisor);
        let circuit = generator::generate(&cfg, &logic).expect("generates");
        let patterns = pattern_set_for(&circuit, 64, 1);
        // Inject one observable defect to obtain a realistic datalog.
        let gate = circuit
            .gates()
            .find(|&g| circuit.gate_type(g).name() == "AO7SVTX1")
            .or_else(|| circuit.gates().next())
            .expect("non-empty circuit");
        let cell = cells
            .get(circuit.gate_type(gate).name())
            .expect("library cell");
        let injected = sample_defects(cell.netlist(), 4, &MixConfig::default(), 5)
            .expect("samples")
            .into_iter()
            .find_map(|d| {
                let behavior = d.characterization.behavior.clone()?;
                let log = run_test(&circuit, &patterns, &FaultyGate::new(gate, behavior)).ok()?;
                (!log.all_pass()).then_some(log)
            });
        let Some(datalog) = injected else {
            continue;
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(circuit.num_gates()),
            &(&circuit, &patterns, &datalog),
            |b, (circuit, patterns, datalog)| {
                b.iter(|| diagnose(circuit, patterns, datalog).expect("diagnoses"));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_diagnose
}
criterion_main!(benches);
