//! Volume diagnosis determinism and accuracy, end to end:
//!
//! 1. **worker-count independence** — the `VolumeReport` JSON is
//!    byte-identical at 1, 2 and 8 workers (the acceptance bar for
//!    `icdiag volume`);
//! 2. **accuracy** — a 32-device population with a planted systematic
//!    root cause ranks that gate first;
//! 3. **cache transparency** — a warm snapshot run derives no truth
//!    tables and reproduces the cold report byte for byte;
//! 4. **degraded inputs** — skipped and escaped devices reduce coverage
//!    without failing the run;
//! 5. **server parity** — a `Volume` request over loopback returns the
//!    exact JSON a local run produces for the same corpus.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use icd_engine::flow::ExperimentContext;
use icd_faultsim::datalog_text;
use icd_netlist::generator;
use icd_server::{Client, DrainOutcome, ResponseStatus, Server, ServerConfig};
use icd_volume::{
    synthesize_population, PopulationConfig, RootCauseKind, VolumeInput, VolumeOptions, VolumeRun,
};

fn shared_ctx() -> Arc<ExperimentContext> {
    Arc::new(
        ExperimentContext::from_preset(&generator::circuit_a(), 16, 12)
            .expect("scaled circuit A builds"),
    )
}

/// A planted-defect population rendered as named volume inputs.
fn population_inputs(
    ctx: &ExperimentContext,
    devices: usize,
    seed: u64,
) -> (Vec<VolumeInput>, String) {
    let population = synthesize_population(ctx, &PopulationConfig::new(devices, seed))
        .expect("population synthesizes");
    let inputs = population
        .datalogs
        .iter()
        .enumerate()
        .map(|(i, d)| VolumeInput {
            name: format!("device-{i:03}.log"),
            datalog: d.clone(),
        })
        .collect();
    (inputs, population.planted.gate_name)
}

fn run_json(ctx: &Arc<ExperimentContext>, inputs: &[VolumeInput], workers: usize) -> String {
    let run = VolumeRun::new(
        Arc::clone(ctx),
        VolumeOptions {
            workers,
            ..VolumeOptions::default()
        },
    );
    run.execute(inputs, 0, None)
        .expect("volume run succeeds")
        .report
        .to_json()
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let ctx = shared_ctx();
    let (inputs, _) = population_inputs(&ctx, 10, 0x5eed);
    let one = run_json(&ctx, &inputs, 1);
    assert_eq!(one, run_json(&ctx, &inputs, 2), "2 workers diverged");
    assert_eq!(one, run_json(&ctx, &inputs, 8), "8 workers diverged");
}

#[test]
fn planted_root_cause_ranks_first_in_a_32_device_population() {
    let ctx = shared_ctx();
    let (inputs, planted) = population_inputs(&ctx, 32, 0xacc32);
    let run = VolumeRun::new(Arc::clone(&ctx), VolumeOptions::default());
    let outcome = run.execute(&inputs, 0, None).expect("volume run succeeds");
    let report = &outcome.report;
    assert_eq!(report.devices_total, 32);
    assert!(report.devices_diagnosed >= 16, "most devices diagnose");
    let top = report.root_causes.first().expect("some root cause");
    match &top.kind {
        RootCauseKind::Gate { name, .. } => {
            assert_eq!(name, &planted, "planted gate must rank first");
        }
        other => panic!("top root cause is not a gate: {other:?}"),
    }
    assert!(
        top.devices >= 32 / 4,
        "the systematic defect shows on many devices (got {})",
        top.devices
    );
}

#[test]
fn warm_snapshot_run_reproduces_the_cold_report() {
    let ctx = shared_ctx();
    let (inputs, _) = population_inputs(&ctx, 6, 0xcafe);
    let cache_dir: PathBuf =
        std::env::temp_dir().join(format!("icd-volume-integration-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let run_with_cache = || {
        let run = VolumeRun::new(
            Arc::clone(&ctx),
            VolumeOptions {
                workers: 2,
                cache_dir: Some(cache_dir.clone()),
                ..VolumeOptions::default()
            },
        );
        run.execute(&inputs, 0, None).expect("volume run succeeds")
    };
    let cold = run_with_cache();
    assert!(cold.stats.table_misses > 0, "cold run derives tables");
    assert!(cold.stats.snapshot_tables_saved > 0, "snapshot persisted");

    let warm = run_with_cache();
    assert_eq!(
        warm.stats.snapshot_tables_loaded, cold.stats.snapshot_tables_saved,
        "warm run restores everything the cold run persisted"
    );
    assert_eq!(warm.stats.table_misses, 0, "warm run derives nothing");
    assert_eq!(
        cold.report.to_json(),
        warm.report.to_json(),
        "cache temperature leaked into the report"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn degraded_inputs_yield_partial_coverage_not_failure() {
    let ctx = shared_ctx();
    let (mut inputs, _) = population_inputs(&ctx, 5, 0xf00d);
    // An all-pass datalog: a test escape, diagnosed as nothing.
    let escape = icd_faultsim::run_test_multi(&ctx.circuit, &ctx.patterns, &[])
        .expect("good machine simulates");
    assert!(escape.all_pass());
    inputs.push(VolumeInput {
        name: "device-escape.log".to_owned(),
        datalog: escape,
    });

    let run = VolumeRun::new(Arc::clone(&ctx), VolumeOptions::default());
    let outcome = run.execute(&inputs, 3, None).expect("volume run succeeds");
    let report = &outcome.report;
    assert_eq!(report.devices_total, inputs.len() + 3);
    assert_eq!(report.devices_skipped, 3);
    assert_eq!(report.devices_escaped, 1);
    assert!(
        report.coverage_permille < 1000,
        "skips must dent coverage (got {})",
        report.coverage_permille
    );
    assert!(!report.root_causes.is_empty(), "the rest still aggregates");
}

#[test]
fn server_volume_request_matches_local_report_byte_for_byte() {
    let ctx = shared_ctx();
    let (inputs, _) = population_inputs(&ctx, 6, 0xd1a6);
    let local = run_json(&ctx, &inputs, 1);

    let config = ServerConfig {
        workers: 2,
        queue_capacity: 32,
        idle_timeout: Duration::from_secs(2),
        drain_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&ctx), config).expect("binds loopback");
    let addr: SocketAddr = server.local_addr().expect("local addr");
    let handle = server.handle().expect("handle");
    let join = thread::spawn(move || server.run().expect("run returns"));

    let devices: Vec<(String, String)> = inputs
        .iter()
        .map(|i| (i.name.clone(), datalog_text::write(&i.datalog)))
        .collect();
    let mut client = Client::connect(addr, Duration::from_secs(60)).expect("connects");
    let response = client
        .submit_volume(&devices, 0)
        .expect("volume request answered");
    assert_eq!(response.status, ResponseStatus::Ok);
    assert_eq!(response.summary, local, "server report diverged from local");

    // A malformed device text degrades the answer but still aggregates
    // the parseable rest.
    let mut degraded_devices = devices.clone();
    degraded_devices.push(("device-bad.log".to_owned(), "not a datalog".to_owned()));
    let response = client
        .submit_volume(&degraded_devices, 0)
        .expect("degraded volume request answered");
    assert_eq!(response.status, ResponseStatus::Degraded);
    assert!(
        response.summary.contains("\"skipped\":1"),
        "skip accounting missing from {}",
        response.summary
    );

    drop(client);
    handle.shutdown();
    assert_eq!(join.join().expect("server thread"), DrainOutcome::Clean);
}
