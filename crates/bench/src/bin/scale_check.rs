//! Full-scale feasibility check: builds the paper's circuits at their
//! *published* sizes (Table 1/6), runs the 500-pattern good simulation,
//! injects one defect and times every stage of the diagnosis flow.
//!
//! Run with: `cargo run --release -p icd-bench --bin scale_check [--huge]`
//! (`--huge` adds the 2M-gate circuit C).

use std::time::Instant;

use icd_bench::analyze_datalog;
use icd_defects::{characterize, Defect};
use icd_engine::flow::ExperimentContext;
use icd_faultsim::{good_simulate, run_test, FaultyGate};
use icd_netlist::generator;

fn check(config: &generator::GeneratorConfig, patterns: usize) {
    println!(
        "=== circuit {} ({} gates, {} FFs, {} chains) ===",
        config.name, config.gates, config.flip_flops, config.scan_chains
    );

    let t0 = Instant::now();
    let ctx = ExperimentContext::from_preset(config, 1, patterns).expect("builds");
    println!(
        "build + pattern generation : {:>8.2}s ({} gates, {} nets, {} patterns)",
        t0.elapsed().as_secs_f64(),
        ctx.circuit.num_gates(),
        ctx.circuit.num_nets(),
        ctx.patterns.len()
    );

    let t0 = Instant::now();
    let good = good_simulate(&ctx.circuit, &ctx.patterns).expect("simulates");
    let elapsed = t0.elapsed().as_secs_f64();
    let gate_evals = ctx.circuit.num_gates() as f64 * ctx.patterns.len() as f64;
    println!(
        "good simulation            : {:>8.2}s ({:.1} M gate-evaluations/s)",
        elapsed,
        gate_evals / elapsed / 1e6
    );
    drop(good);

    // Inject one observable defect into an AO7SVTX1 instance and run the
    // whole flow.
    let cell = ctx.cells.get("AO7SVTX1").expect("library cell").netlist();
    let gate = ctx
        .instance_of("AO7SVTX1")
        .expect("instantiated in a large random circuit");
    let a = cell.find_net("A").expect("input A");
    let ch = characterize(cell, &Defect::hard_short(a, cell.gnd())).expect("characterizes");
    let faulty = FaultyGate::new(gate, ch.behavior.expect("observable"));

    let t0 = Instant::now();
    let datalog = run_test(&ctx.circuit, &ctx.patterns, &faulty).expect("tests");
    println!(
        "tester emulation           : {:>8.2}s ({} failing patterns)",
        t0.elapsed().as_secs_f64(),
        datalog.entries.len()
    );
    if datalog.all_pass() {
        println!("defect escaped this random set; flow timing skipped");
        return;
    }

    let t0 = Instant::now();
    let outcome = analyze_datalog(&ctx, &datalog).expect("analyzes");
    println!(
        "inter-cell + intra-cell    : {:>8.2}s ({} gates analyzed)",
        t0.elapsed().as_secs_f64(),
        outcome.analyses.len()
    );
    if let Some(analysis) = outcome.analysis_of(gate) {
        println!(
            "defective instance analyzed: {} candidates over {} nets",
            analysis.report.resolution(),
            analysis.report.net_resolution(cell)
        );
    }
    println!();
}

fn main() {
    let huge = std::env::args().any(|a| a == "--huge");
    check(&generator::circuit_a(), 25);
    check(&generator::circuit_b(), 500);
    if huge {
        check(&generator::circuit_m(), 1055);
        check(&generator::circuit_c(), 1000);
    }
}
