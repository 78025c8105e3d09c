//! Gate-level simulation benchmarks: bit-parallel good simulation
//! throughput and single-fault detection, over circuit size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use icd_cells::CellLibrary;
use icd_engine::flow::pattern_set_for;
use icd_faultsim::{detects, good_simulate, GateFault};
use icd_netlist::generator;

fn bench_good_sim(c: &mut Criterion) {
    let cells = CellLibrary::standard();
    let logic = cells.logic_library();
    let mut group = c.benchmark_group("good_simulate");
    group.sample_size(20);
    for divisor in [2000usize, 500, 100] {
        let cfg = generator::circuit_b().scaled_down(divisor);
        let circuit = generator::generate(&cfg, &logic).expect("generates");
        let patterns = pattern_set_for(&circuit, 64, 1);
        group.throughput(Throughput::Elements(
            (circuit.num_gates() * patterns.len()) as u64,
        ));
        group.bench_with_input(
            BenchmarkId::from_parameter(circuit.num_gates()),
            &(&circuit, &patterns),
            |b, (circuit, patterns)| {
                b.iter(|| good_simulate(circuit, patterns).expect("simulates"));
            },
        );
    }
    group.finish();
}

fn bench_detects(c: &mut Criterion) {
    let cells = CellLibrary::standard();
    let logic = cells.logic_library();
    let cfg = generator::circuit_b().scaled_down(500);
    let circuit = generator::generate(&cfg, &logic).expect("generates");
    let patterns = pattern_set_for(&circuit, 64, 1);
    let good = good_simulate(&circuit, &patterns).expect("simulates");
    let fault = GateFault::stuck_at(circuit.gate_output(circuit.topo_order()[0]), true);
    c.bench_function("detects_single_fault", |b| {
        b.iter(|| detects(&circuit, &good, &fault));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_good_sim, bench_detects
}
criterion_main!(benches);
