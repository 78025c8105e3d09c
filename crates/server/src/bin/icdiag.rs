//! `icdiag` — batch volume-diagnosis driver and daemon front-end.
//!
//! ```text
//! icdiag gen <dir> [--devices N] [--seed S] [--divisor D] [--patterns P] [--defect-rate R]
//! icdiag run <dir> [--workers N] [--quiet] [--trace-out FILE] [--metrics-out FILE]
//! icdiag volume <dir> [--workers N] [--seed S] [--cache-dir DIR] [--json-out FILE]
//!                     [--check-planted] [--quiet] [--metrics-out FILE]
//! icdiag serve <dir> [--addr HOST:PORT] [--workers N] [--queue N] [--deadline-ms N]
//!                    [--idle-ms N] [--drain-ms N] [--chaos-panic-rate F] [--chaos-seed S]
//!                    [--metrics-out FILE] [--event-log FILE] [--slow-ms N]
//! icdiag submit <addr> <file.log> [--deadline-ms N] [--timeout-ms N] [--trace-id HEX]
//! icdiag submit-volume <addr> <dir> [--deadline-ms N] [--timeout-ms N]
//! icdiag stats <addr>
//! icdiag top <addr> [--interval-ms N] [--count N]
//! icdiag benchdiff <baseline.json> <fresh.json> [--tolerance F]
//! icdiag shutdown <addr>
//! icdiag check-metrics <file>
//! ```
//!
//! `gen` synthesizes a failing-device batch: a netlist (`netlist.txt`),
//! a manifest recording how to regenerate the test set (`manifest.txt`)
//! and one tester datalog per device (`device-NNN.log`). With
//! `--defect-rate R` (permille) the batch becomes a *population* with a
//! planted systematic root cause: R permille of the devices carry the
//! same defect on the same gate (recorded as `planted_gate=` in the
//! manifest), the rest fail for unrelated background reasons.
//!
//! `volume` diagnoses every datalog in such a directory as one workload
//! and aggregates per-device suspects into ranked systematic root-cause
//! candidates (see `icd-volume`). The report is byte-identical at any
//! worker count; `--cache-dir` persists derived truth tables keyed by
//! the netlist's content hash, so a second run over the same design
//! skips the switch-level derivations. `--check-planted` verifies the
//! manifest's planted gate tops the ranking (the accuracy smoke check);
//! `submit-volume` sends the same corpus to a daemon and prints the
//! byte-identical JSON the local run would.
//!
//! `run` diagnoses such a directory with the parallel batch engine and
//! prints one summary line per datalog, an aggregate throughput line
//! and (unless `--quiet`) a per-stage latency breakdown. Unreadable or
//! unparseable datalogs are skipped and reported (counted in metrics as
//! `run.inputs_skipped`); the run only fails when *no* datalog loads.
//! Worker count comes from `--workers`, else `ICD_WORKERS`, else the
//! machine's parallelism. `--trace-out` / `--metrics-out` export the
//! run's span tree and metrics snapshot as JSON.
//!
//! `serve` hosts the same directory's context as a streaming TCP daemon
//! (see `icd-server`); `submit` sends one datalog to a daemon and prints
//! the identical summary line `run` would; `shutdown` asks a daemon to
//! drain and exit. With `--event-log` the daemon appends one JSONL
//! record per completed request (trace id, outcome, span forest) to a
//! size-rotated file; `--slow-ms` sets the latency above which a
//! request is flagged slow (default 1000). `submit --trace-id` pins the
//! request's trace id so the record can be grepped out of the log.
//!
//! `stats` fetches a live daemon's telemetry snapshot (the `Stats`
//! frame) as JSON: outcome-partitioned request counters and rolling
//! 60 s p50/p95/p99 latency percentiles per request type — served
//! without pausing the daemon, even mid-drain. `top` polls the same
//! snapshot as a one-line-per-tick dashboard.
//!
//! `benchdiff` compares a fresh bench JSON against a committed baseline
//! (see `icd_server::benchdiff`) and exits 4 when a gated throughput or
//! wall-time metric regressed past tolerance — the CI perf gate.
//!
//! `check-metrics` validates a `--metrics-out` file offline (the CI
//! smoke check; no `jq` in the build environment).
//!
//! Exit codes: `0` clean diagnosis; `1` operational error; `2` usage
//! error; `3` degraded diagnosis (some datalog failed outright, some
//! suspect was skipped for a reason other than missing local failures,
//! a submitted request came back degraded, or a serve drain was
//! forced); `4` benchdiff found a perf regression.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use icd_cells::CellLibrary;
use icd_engine::flow::{pattern_set_for, ExperimentContext, FlowError};
use icd_engine::{
    summarize_report, synthesize_batch, BatchConfig, BatchEngine, Collector, EngineConfig,
};
use icd_faultsim::{datalog_text, Datalog};
use icd_netlist::generator;
use icd_obs::json::Value;
use icd_obs::TraceContext;
use icd_server::{ChaosPanics, Client, ResponseStatus, Server, ServerConfig};
use icd_volume::{
    synthesize_population, AggregationConfig, PopulationConfig, RootCauseKind, VolumeInput,
    VolumeOptions, VolumeRun,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         icdiag gen <dir> [--devices N] [--seed S] [--divisor D] [--patterns P] [--defect-rate R]\n  \
         icdiag run <dir> [--workers N] [--quiet] [--trace-out FILE] [--metrics-out FILE]\n  \
         icdiag volume <dir> [--workers N] [--seed S] [--cache-dir DIR] [--json-out FILE]\n                      \
         [--check-planted] [--quiet] [--metrics-out FILE]\n  \
         icdiag serve <dir> [--addr HOST:PORT] [--workers N] [--queue N] [--deadline-ms N]\n                     \
         [--idle-ms N] [--drain-ms N] [--chaos-panic-rate F] [--chaos-seed S]\n                     \
         [--metrics-out FILE] [--event-log FILE] [--slow-ms N]\n  \
         icdiag submit <addr> <file.log> [--deadline-ms N] [--timeout-ms N] [--trace-id HEX]\n  \
         icdiag submit-volume <addr> <dir> [--deadline-ms N] [--timeout-ms N]\n  \
         icdiag stats <addr>\n  \
         icdiag top <addr> [--interval-ms N] [--count N]\n  \
         icdiag benchdiff <baseline.json> <fresh.json> [--tolerance F]\n  \
         icdiag shutdown <addr>\n  \
         icdiag check-metrics <file>\n\
         \n\
         exit codes:\n  \
         0  clean diagnosis\n  \
         1  operational error (unreadable input, malformed datalog, ...)\n  \
         2  usage error\n  \
         3  degraded diagnosis: a datalog failed (panic or flow error), a suspect\n     \
         was skipped for a reason other than missing local failing patterns,\n     \
         part of a volume population was skipped or failed, a submitted request\n     \
         was answered degraded, or a serve drain was forced\n  \
         4  benchdiff: a gated metric regressed past its tolerance"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    // Each subcommand returns its exit code, or an operational error that
    // is reported as `icdiag <cmd>: <error>` with exit 1.
    let run_command: fn(&[String]) -> Result<ExitCode, String> = match command.as_str() {
        "gen" => gen,
        "run" => run,
        "volume" => volume,
        "serve" => serve,
        "submit" => submit,
        "submit-volume" => submit_volume,
        "stats" => stats,
        "top" => top,
        "benchdiff" => benchdiff,
        "shutdown" => shutdown,
        "check-metrics" => check_metrics,
        _ => return usage(),
    };
    run_command(&args[1..]).unwrap_or_else(|e| {
        eprintln!("icdiag {command}: {e}");
        ExitCode::FAILURE
    })
}

/// Parses `--flag value` pairs; names in `boolean` take no value and
/// record `"true"`.
fn parse_flag_pairs(args: &[String], boolean: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut iter = args.iter();
    let mut flags = Vec::new();
    while let Some(flag) = iter.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        if boolean.contains(&name) {
            flags.push((name.to_owned(), "true".to_owned()));
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.push((name.to_owned(), value.clone()));
    }
    Ok(flags)
}

/// Parses one positional path followed by `--flag value` pairs.
fn parse_flags(
    args: &[String],
    boolean: &[&str],
) -> Result<(PathBuf, Vec<(String, String)>), String> {
    let dir = args
        .first()
        .ok_or_else(|| "missing <dir>".to_owned())?
        .clone();
    Ok((PathBuf::from(dir), parse_flag_pairs(&args[1..], boolean)?))
}

fn flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.iter().find(|(n, _)| n == name) {
        None => Ok(default),
        Some((_, v)) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse {v:?}")),
    }
}

/// Parses a 64-bit trace id from hex (optionally `0x`-prefixed).
/// Zero is rejected: it means "no trace id" on the wire.
fn parse_trace_id(text: &str) -> Result<u64, String> {
    let digits = text
        .strip_prefix("0x")
        .or_else(|| text.strip_prefix("0X"))
        .unwrap_or(text);
    let id = u64::from_str_radix(digits, 16)
        .map_err(|_| format!("--trace-id: {text:?} is not a 64-bit hex id"))?;
    if id == 0 {
        return Err("--trace-id: zero means \"no trace id\" on the wire".to_owned());
    }
    Ok(id)
}

fn gen(args: &[String]) -> Result<ExitCode, String> {
    let (dir, flags) = parse_flags(args, &[])?;
    let devices: usize = flag(&flags, "devices", 8)?;
    let seed: u64 = flag(&flags, "seed", 0x1cd1a6)?;
    let divisor: usize = flag(&flags, "divisor", 400)?;
    let patterns: usize = flag(&flags, "patterns", 64)?;
    let defect_rate: u32 = flag(&flags, "defect-rate", 0)?;

    let ctx = ExperimentContext::from_preset(&generator::circuit_b(), divisor, patterns)
        .map_err(|e| format!("building circuit: {e}"))?;
    // With a defect rate, synthesize a population around one planted
    // systematic root cause; without, the classic independent batch.
    let mut planted_lines = String::new();
    let batch = if defect_rate > 0 {
        let mut cfg = PopulationConfig::new(devices, seed);
        cfg.defect_rate_permille = defect_rate;
        let population = synthesize_population(&ctx, &cfg)
            .map_err(|e| format!("synthesizing population: {e}"))?;
        planted_lines = format!(
            "planted_gate={}\nplanted_cell={}\ndefect_rate_permille={}\nplanted_devices={}\n",
            population.planted.gate_name,
            population.planted.cell,
            defect_rate,
            population.planted_devices
        );
        population.datalogs
    } else {
        synthesize_batch(&ctx, &BatchConfig::new(devices, seed))
            .map_err(|e| format!("synthesizing batch: {e}"))?
    };
    if batch.is_empty() {
        return Err("no sampled defect produced a failing device at this scale".into());
    }

    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let write = |name: &str, text: &str| -> Result<(), String> {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write("netlist.txt", &icd_netlist::format::write(&ctx.circuit))?;
    // The test set is regenerated, not stored: record its recipe. The
    // pattern seed matches ExperimentContext::from_preset (config seed is
    // divisor-independent, the whitening constant is the context's).
    let cfg = generator::circuit_b();
    let pattern_seed = if divisor > 1 {
        cfg.scaled_down(divisor).seed ^ 0x7e57
    } else {
        cfg.seed ^ 0x7e57
    };
    write(
        "manifest.txt",
        &format!("patterns={patterns}\npattern_seed={pattern_seed}\n{planted_lines}"),
    )?;
    for (i, datalog) in batch.iter().enumerate() {
        write(&format!("device-{i:03}.log"), &datalog_text::write(datalog))?;
    }
    println!(
        "generated {} devices in {} ({} gates, {} patterns, netlist {})",
        batch.len(),
        dir.display(),
        ctx.circuit.num_gates(),
        ctx.patterns.len(),
        ctx.circuit.content_hash()
    );
    if !planted_lines.is_empty() {
        print!("{planted_lines}");
    }
    Ok(ExitCode::SUCCESS)
}

fn read_manifest(dir: &Path) -> Result<(usize, u64), String> {
    let path = dir.join("manifest.txt");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut patterns = None;
    let mut seed = None;
    for line in text.lines() {
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        match key.trim() {
            "patterns" => patterns = value.trim().parse::<usize>().ok(),
            "pattern_seed" => seed = value.trim().parse::<u64>().ok(),
            _ => {}
        }
    }
    match (patterns, seed) {
        (Some(p), Some(s)) => Ok((p, s)),
        _ => Err(format!(
            "{}: needs `patterns=` and `pattern_seed=` lines",
            path.display()
        )),
    }
}

/// Rebuilds the experiment context a `gen` directory describes: parse
/// the netlist against the standard library, regenerate the recorded
/// test set. Shared by `run` and `serve`.
fn load_context(dir: &Path) -> Result<Arc<ExperimentContext>, String> {
    let cells = CellLibrary::standard();
    let logic = cells.logic_library();
    let netlist_path = dir.join("netlist.txt");
    let netlist_text = std::fs::read_to_string(&netlist_path)
        .map_err(|e| format!("reading {}: {e}", netlist_path.display()))?;
    let circuit = icd_netlist::format::parse(&netlist_text, &logic)
        .map_err(|e| format!("parsing {}: {e}", netlist_path.display()))?;
    let (num_patterns, pattern_seed) = read_manifest(dir)?;
    let patterns = pattern_set_for(&circuit, num_patterns, pattern_seed);
    Ok(Arc::new(ExperimentContext {
        cells,
        logic,
        circuit,
        patterns,
    }))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (dir, flags) = parse_flags(args, &["quiet"])?;
    let workers: usize = flag(&flags, "workers", 0)?;
    let quiet = flags.iter().any(|(n, _)| n == "quiet");
    let out_path = |name: &str| {
        flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| PathBuf::from(v))
    };
    // Spans are kept only when a trace file is asked for: the batch
    // runs inside this trace, which the engine hands to every job.
    let trace =
        out_path("trace-out").map(|path| (path, TraceContext::new(icd_obs::mint_trace_id())));
    let metrics_out = out_path("metrics-out");

    let ctx = load_context(&dir)?;
    if !quiet {
        // The design fingerprint: two runs printing the same hash
        // diagnosed the same netlist (see Circuit::content_hash).
        println!("netlist {}", ctx.circuit.content_hash());
    }

    let (loaded, inputs_skipped) = load_datalogs(&dir, "run")?;
    let (names, datalogs): (Vec<String>, Vec<Datalog>) = loaded.into_iter().unzip();

    let config = if workers > 0 {
        EngineConfig::with_workers(workers)
    } else {
        EngineConfig::from_env()
    };
    let engine = BatchEngine::new(config);
    let collector = Collector::new();
    if inputs_skipped > 0 {
        let _guard = collector.install();
        icd_obs::counter(
            "run.inputs_skipped",
            inputs_skipped as u64,
            icd_obs::Stability::Stable,
        );
    }
    let batch = {
        let _recording = collector.install();
        let _entered = trace.as_ref().map(|(_, trace)| trace.enter());
        engine.diagnose_batch(&ctx, &datalogs, &Default::default())
    }
    .map_err(|e| format!("batch diagnosis: {e}"))?;

    // Degraded: a whole datalog failed, or a suspect was skipped for a
    // reason other than the routine "no local failing patterns".
    let mut degraded = false;
    for outcome in &batch.outcomes {
        match &outcome.report {
            Err(_) => degraded = true,
            Ok(report) => {
                if report
                    .skipped
                    .iter()
                    .any(|s| !matches!(s.error, FlowError::NoLocalFailures))
                {
                    degraded = true;
                }
            }
        }
        if quiet {
            continue;
        }
        let name = &names[outcome.index];
        match &outcome.report {
            // The canonical shared rendering: the daemon's Report frames
            // carry these exact bytes for the same datalog.
            Ok(report) => println!("{name}: {}", summarize_report(&ctx, report)),
            Err(e) => println!("{name}: FAILED ({e})"),
        }
    }

    let snapshot = collector.snapshot();
    let stats = &batch.stats;
    let seconds = stats.elapsed.as_secs_f64().max(1e-9);
    let applied = (stats.datalogs * ctx.patterns.len()) as f64;
    println!(
        "batch: {} datalogs, {} suspect jobs, {} workers, {:.2}s \
         ({:.1} datalogs/s, {:.1} patterns/s, table cache {:.0}% hit, cpt cache {:.0}% hit, \
         {} sim faults dropped, {} cones filtered, {} inputs skipped)",
        stats.datalogs,
        stats.suspect_jobs,
        stats.workers,
        seconds,
        stats.datalogs as f64 / seconds,
        applied / seconds,
        stats.table_cache.hit_rate() * 100.0,
        stats.cpt_cache.hit_rate() * 100.0,
        snapshot.counter("eventsim.faults_dropped").unwrap_or(0),
        snapshot.counter("intercell.cone_filtered").unwrap_or(0),
        inputs_skipped,
    );

    if !quiet {
        let stages: Vec<_> = snapshot
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("flow.") || name.starts_with("batch."))
            .collect();
        if !stages.is_empty() {
            println!("per-stage latency:");
            for (name, h) in stages {
                println!(
                    "  {name:<22} {:>7} calls  total {:>10.1} ms  mean {:>8.0} us",
                    h.count,
                    h.sum_us as f64 / 1_000.0,
                    h.mean_us(),
                );
            }
        }
    }
    if let Some((path, trace)) = trace {
        std::fs::write(&path, icd_obs::forest_json(&trace.span_forest(), false))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if let Some(path) = metrics_out {
        std::fs::write(&path, snapshot.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    Ok(if degraded {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

/// Every `*.log` in `dir`, in name order (determinism).
fn log_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no *.log datalogs in {}", dir.display()));
    }
    Ok(files)
}

/// The name a device's datalog file is reported under.
fn device_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// Parses every `*.log` in `dir`, returning the named datalogs and the
/// count skipped. A bad datalog is the tester's fault, not the batch's:
/// it is skipped with an `icdiag <command>: skipping` warning and the
/// rest are kept. Only a directory where none loads is an error.
fn load_datalogs(dir: &Path, command: &str) -> Result<(Vec<(String, Datalog)>, usize), String> {
    let mut datalogs = Vec::new();
    let mut skipped = 0usize;
    for path in log_files(dir)? {
        let loaded = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading: {e}"))
            .and_then(|text| datalog_text::parse(&text).map_err(|e| e.to_string()));
        match loaded {
            Ok(datalog) => datalogs.push((device_name(&path), datalog)),
            Err(why) => {
                skipped += 1;
                eprintln!("icdiag {command}: skipping {}: {why}", path.display());
            }
        }
    }
    if datalogs.is_empty() {
        return Err(format!(
            "all {skipped} datalogs in {} were unreadable or unparseable",
            dir.display()
        ));
    }
    Ok((datalogs, skipped))
}

/// The `planted_gate=` line a `gen --defect-rate` manifest records.
fn read_planted_gate(dir: &Path) -> Result<String, String> {
    let path = dir.join("manifest.txt");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .find_map(|line| line.strip_prefix("planted_gate="))
        .map(|v| v.trim().to_owned())
        .ok_or_else(|| {
            format!(
                "{}: no planted_gate= line (generate with --defect-rate)",
                path.display()
            )
        })
}

/// A device name with its diagnosis busy time in microseconds.
type NamedUs<'a> = (&'a str, u64);

/// Per-device busy-time percentiles for the volume summary line:
/// `(slowest, p50, p95)` as `(name, busy_us)` pairs; `None` for an
/// empty batch. Nearest-rank percentiles over the sorted busy times,
/// ties broken by name so the line is deterministic.
fn device_latency_summary(
    latencies: &[(String, u64)],
) -> Option<(NamedUs<'_>, NamedUs<'_>, NamedUs<'_>)> {
    let mut sorted: Vec<&(String, u64)> = latencies.iter().collect();
    sorted.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    let slowest = sorted.last()?;
    let rank = |q: f64| {
        let n = sorted.len();
        let r = ((q * n as f64).ceil() as usize).clamp(1, n);
        let (name, us) = sorted[r - 1];
        (name.as_str(), *us)
    };
    Some(((slowest.0.as_str(), slowest.1), rank(0.50), rank(0.95)))
}

fn volume(args: &[String]) -> Result<ExitCode, String> {
    let (dir, flags) = parse_flags(args, &["check-planted", "quiet"])?;
    let workers: usize = flag(&flags, "workers", 0)?;
    let quiet = flags.iter().any(|(n, _)| n == "quiet");
    let check_planted = flags.iter().any(|(n, _)| n == "check-planted");
    let mut aggregation = AggregationConfig::default();
    aggregation.seed = flag(&flags, "seed", aggregation.seed)?;
    let path_flag = |name: &str| {
        flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| PathBuf::from(v))
    };
    let cache_dir = path_flag("cache-dir");
    let json_out = path_flag("json-out");
    let metrics_out = path_flag("metrics-out");

    let ctx = load_context(&dir)?;
    let (loaded, skipped) = load_datalogs(&dir, "volume")?;
    let inputs: Vec<VolumeInput> = loaded
        .into_iter()
        .map(|(name, datalog)| VolumeInput { name, datalog })
        .collect();

    let run = VolumeRun::new(
        Arc::clone(&ctx),
        VolumeOptions {
            workers,
            aggregation,
            cache_dir,
        },
    );
    let collector = Collector::new();
    let outcome = run
        .execute(&inputs, skipped, Some(&collector))
        .map_err(|e| format!("volume diagnosis: {e}"))?;

    for (name, why) in &outcome.failures {
        eprintln!("icdiag volume: {name}: FAILED ({why})");
    }
    if !quiet {
        print!("{}", outcome.report.render_text());
        let stats = &outcome.stats;
        println!(
            "cache: {} tables restored, {} persisted, {} derived this run",
            stats.snapshot_tables_loaded, stats.snapshot_tables_saved, stats.table_misses
        );
        // Operator-facing only: busy time is scheduling-dependent and
        // never enters the serialized report.
        if let Some((slowest, p50, p95)) = device_latency_summary(&outcome.device_latency) {
            println!(
                "device latency: p50 {:.1} ms, p95 {:.1} ms, slowest {} ({:.1} ms)",
                p50.1 as f64 / 1_000.0,
                p95.1 as f64 / 1_000.0,
                slowest.0,
                slowest.1 as f64 / 1_000.0,
            );
        }
    }
    if let Some(path) = json_out {
        std::fs::write(&path, outcome.report.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if let Some(path) = metrics_out {
        std::fs::write(&path, collector.snapshot().to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    if check_planted {
        let planted = read_planted_gate(&dir)?;
        let top = outcome.report.root_causes.first();
        let hit = matches!(
            top.map(|rc| &rc.kind),
            Some(RootCauseKind::Gate { name, .. }) if *name == planted
        );
        if !hit {
            return Err(format!(
                "planted gate {planted} is not the top root cause (got {})",
                top.map_or_else(|| "none".to_owned(), |rc| rc.kind.describe())
            ));
        }
        println!("check-planted: ok ({planted} ranks first)");
    }

    Ok(
        if outcome.report.devices_failed > 0 || outcome.report.devices_skipped > 0 {
            ExitCode::from(3)
        } else {
            ExitCode::SUCCESS
        },
    )
}

fn serve(args: &[String]) -> Result<ExitCode, String> {
    let (dir, flags) = parse_flags(args, &[])?;
    let addr: String = flag(&flags, "addr", "127.0.0.1:0".to_owned())?;
    let workers: usize = flag(&flags, "workers", 0)?;
    let queue: usize = flag(&flags, "queue", 64)?;
    let deadline_ms: u64 = flag(&flags, "deadline-ms", 30_000)?;
    let idle_ms: u64 = flag(&flags, "idle-ms", 30_000)?;
    let drain_ms: u64 = flag(&flags, "drain-ms", 10_000)?;
    let chaos_rate: f64 = flag(&flags, "chaos-panic-rate", 0.0)?;
    let chaos_seed: u64 = flag(&flags, "chaos-seed", 0xc4a05)?;
    let slow_ms: u64 = flag(&flags, "slow-ms", 1_000)?;
    let metrics_out = flags
        .iter()
        .find(|(n, _)| n == "metrics-out")
        .map(|(_, v)| PathBuf::from(v));
    let event_log = flags
        .iter()
        .find(|(n, _)| n == "event-log")
        .map(|(_, v)| {
            icd_obs::EventLog::open(v.as_str(), icd_obs::DEFAULT_MAX_BYTES)
                .map(Arc::new)
                .map_err(|e| format!("opening event log {v}: {e}"))
        })
        .transpose()?;

    let ctx = load_context(&dir)?;
    let engine_defaults = if workers > 0 {
        EngineConfig::with_workers(workers)
    } else {
        EngineConfig::from_env()
    };
    let config = ServerConfig {
        workers: engine_defaults.workers,
        queue_capacity: queue,
        default_deadline: Duration::from_millis(deadline_ms),
        idle_timeout: Duration::from_millis(idle_ms),
        drain_deadline: Duration::from_millis(drain_ms),
        chaos_panics: (chaos_rate > 0.0).then_some(ChaosPanics {
            rate: chaos_rate,
            seed: chaos_seed,
        }),
        event_log,
        slow_threshold: Duration::from_millis(slow_ms),
        ..ServerConfig::default()
    };

    let collector = Collector::new();
    let _guard = collector.install();
    let server = Server::bind(&addr, ctx, config).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // The CI smoke step parses this exact line for the bound port.
    println!("icdiag serve: listening on {bound}");
    let outcome = server.run().map_err(|e| format!("serving: {e}"))?;
    println!("icdiag serve: drained ({outcome:?})");
    if let Some(path) = metrics_out {
        std::fs::write(&path, collector.snapshot().to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(match outcome {
        icd_server::DrainOutcome::Clean => ExitCode::SUCCESS,
        icd_server::DrainOutcome::Forced => ExitCode::from(3),
    })
}

fn submit(args: &[String]) -> Result<ExitCode, String> {
    let [addr, file, rest @ ..] = args else {
        return Err(
            "usage: icdiag submit <addr> <file.log> [--deadline-ms N] [--timeout-ms N] \
             [--trace-id HEX]"
                .to_owned(),
        );
    };
    let flags = parse_flag_pairs(rest, &[])?;
    let deadline_ms: u32 = flag(&flags, "deadline-ms", 0)?;
    let timeout_ms: u64 = flag(&flags, "timeout-ms", 60_000)?;
    let trace_id = flags
        .iter()
        .find(|(n, _)| n == "trace-id")
        .map(|(_, v)| parse_trace_id(v))
        .transpose()?;

    let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let mut client = Client::connect(addr.as_str(), Duration::from_millis(timeout_ms))
        .map_err(|e| format!("connecting {addr}: {e}"))?;
    let response = client
        .submit_traced(&text, deadline_ms, trace_id)
        .map_err(|e| format!("submitting {file}: {e}"))?;
    let name = Path::new(file)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| file.clone());
    if let Some(id) = trace_id {
        // The grep key for the daemon's --event-log record.
        println!("{name}: trace_id {id:#018x}");
    }
    println!("{name}: {}", response.summary);
    Ok(match response.status {
        ResponseStatus::Ok => ExitCode::SUCCESS,
        ResponseStatus::Degraded => ExitCode::from(3),
    })
}

fn submit_volume(args: &[String]) -> Result<ExitCode, String> {
    let [addr, dir, rest @ ..] = args else {
        return Err(
            "usage: icdiag submit-volume <addr> <dir> [--deadline-ms N] [--timeout-ms N]"
                .to_owned(),
        );
    };
    let flags = parse_flag_pairs(rest, &[])?;
    let deadline_ms: u32 = flag(&flags, "deadline-ms", 0)?;
    let timeout_ms: u64 = flag(&flags, "timeout-ms", 120_000)?;

    // Raw texts, name order: the server parses (and skips) for itself,
    // so its skip accounting matches a local run over the same corpus.
    let dir = PathBuf::from(dir);
    let devices = log_files(&dir)?
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .map(|text| (device_name(path), text))
                .map_err(|e| format!("reading {}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut client = Client::connect(addr.as_str(), Duration::from_millis(timeout_ms))
        .map_err(|e| format!("connecting {addr}: {e}"))?;
    let response = client
        .submit_volume(&devices, deadline_ms)
        .map_err(|e| format!("submitting {}: {e}", dir.display()))?;
    // The canonical volume-report JSON — byte-identical to a local
    // `icdiag volume --json-out` over the same corpus.
    println!("{}", response.summary);
    Ok(match response.status {
        ResponseStatus::Ok => ExitCode::SUCCESS,
        ResponseStatus::Degraded => ExitCode::from(3),
    })
}

fn stats(args: &[String]) -> Result<ExitCode, String> {
    let Some(addr) = args.first() else {
        return Err("usage: icdiag stats <addr>".to_owned());
    };
    let mut client = Client::connect(addr.as_str(), Duration::from_secs(10))
        .map_err(|e| format!("connecting {addr}: {e}"))?;
    let snapshot = client
        .stats()
        .map_err(|e| format!("fetching stats from {addr}: {e}"))?;
    // The StatsReport payload is already the canonical JSON snapshot.
    print!("{snapshot}");
    Ok(ExitCode::SUCCESS)
}

/// A dashboard line per poll: totals, queue/in-flight gauges, and the
/// windowed request percentiles. `--count 0` polls until the daemon
/// goes away.
fn top(args: &[String]) -> Result<ExitCode, String> {
    let [addr, rest @ ..] = args else {
        return Err("usage: icdiag top <addr> [--interval-ms N] [--count N]".to_owned());
    };
    let flags = parse_flag_pairs(rest, &[])?;
    let interval_ms: u64 = flag(&flags, "interval-ms", 1_000)?;
    let count: u64 = flag(&flags, "count", 0)?;

    let mut client = Client::connect(addr.as_str(), Duration::from_secs(10))
        .map_err(|e| format!("connecting {addr}: {e}"))?;
    println!(
        "{:>8} {:>6} {:>6} {:>6} {:>6} {:>5} {:>5} {:>9} {:>9} {:>9}",
        "total", "clean", "degr", "fail", "rej", "queue", "infl", "p50_ms", "p95_ms", "p99_ms"
    );
    let mut polls = 0u64;
    loop {
        let snapshot = client
            .stats()
            .map_err(|e| format!("fetching stats from {addr}: {e}"))?;
        let v = icd_obs::json::parse(&snapshot)
            .map_err(|e| format!("stats snapshot: invalid JSON: {e}"))?;
        let num = |path: &[&str]| -> u64 {
            let mut cur = &v;
            for key in path {
                match cur.get(key) {
                    Some(next) => cur = next,
                    None => return 0,
                }
            }
            cur.as_u64().unwrap_or(0)
        };
        let pct_ms = |name: &str| -> String {
            let window = v
                .get("latency")
                .and_then(|l| l.get("request"))
                .and_then(|r| r.get("window"));
            match window.and_then(|w| w.get(name)).and_then(Value::as_u64) {
                Some(us) => format!("{:.1}", us as f64 / 1_000.0),
                None => "-".to_owned(),
            }
        };
        println!(
            "{:>8} {:>6} {:>6} {:>6} {:>6} {:>5} {:>5} {:>9} {:>9} {:>9}{}",
            num(&["requests", "total"]),
            num(&["requests", "clean"]),
            num(&["requests", "degraded"]),
            num(&["requests", "failed"]),
            num(&["requests", "rejected"]),
            num(&["server", "queue_depth"]),
            num(&["server", "in_flight"]),
            pct_ms("p50_us"),
            pct_ms("p95_us"),
            pct_ms("p99_us"),
            if v.get("server")
                .and_then(|s| s.get("draining"))
                .and_then(Value::as_bool)
                == Some(true)
            {
                "  [draining]"
            } else {
                ""
            },
        );
        polls += 1;
        if count > 0 && polls >= count {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

fn benchdiff(args: &[String]) -> Result<ExitCode, String> {
    let [baseline, fresh, rest @ ..] = args else {
        return Err(
            "usage: icdiag benchdiff <baseline.json> <fresh.json> [--tolerance F]".to_owned(),
        );
    };
    let flags = parse_flag_pairs(rest, &[])?;
    let tolerance: f64 = flag(&flags, "tolerance", 0.20)?;
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("--tolerance: {tolerance} must be in [0, 1)"));
    }
    let old_json =
        std::fs::read_to_string(baseline).map_err(|e| format!("reading {baseline}: {e}"))?;
    let new_json = std::fs::read_to_string(fresh).map_err(|e| format!("reading {fresh}: {e}"))?;
    let diff = icd_server::benchdiff::compare(&old_json, &new_json, tolerance)?;
    print!("{}", diff.to_json());
    Ok(if diff.regressions() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(4)
    })
}

fn shutdown(args: &[String]) -> Result<ExitCode, String> {
    let Some(addr) = args.first() else {
        return Err("usage: icdiag shutdown <addr>".to_owned());
    };
    let mut client = Client::connect(addr.as_str(), Duration::from_secs(10))
        .map_err(|e| format!("connecting {addr}: {e}"))?;
    client
        .shutdown_server()
        .map_err(|e| format!("shutting down {addr}: {e}"))?;
    println!("icdiag shutdown: server draining");
    Ok(ExitCode::SUCCESS)
}

/// Offline validation of a `--metrics-out` file: well-formed JSON, the
/// expected counter/gauge/histogram keys, and internally consistent
/// histograms (bucket counts summing to the sample count).
fn check_metrics(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("missing <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let root = icd_obs::json::parse(&text)
        .map_err(|e| format!("{path}: invalid JSON at byte {}: {}", e.offset, e.message))?;

    let section = |name: &str| {
        root.get(name)
            .ok_or_else(|| format!("{path}: missing {name:?} object"))
    };
    let counters = section("counters")?;
    let gauges = section("gauges")?;
    let histograms = section("histograms")?;

    let check_value = |owner: &Value, kind: &str, name: &str| -> Result<(), String> {
        let entry = owner
            .get(name)
            .ok_or_else(|| format!("{path}: missing {kind} {name:?}"))?;
        entry
            .get("value")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{path}: {kind} {name:?} lacks an integer \"value\""))?;
        match entry.get("stability").and_then(Value::as_str) {
            Some("stable") | Some("timing") => Ok(()),
            _ => Err(format!(
                "{path}: {kind} {name:?} lacks a \"stability\" of stable/timing"
            )),
        }
    };
    for name in [
        "batch.datalogs",
        "batch.suspect_jobs",
        "cache.table.lookups",
        "cache.cpt.lookups",
        "pool.jobs_executed",
    ] {
        check_value(counters, "counter", name)?;
    }
    check_value(gauges, "gauge", "pool.workers")?;

    let mut stage_histograms = 0usize;
    let names = histograms
        .as_object()
        .ok_or_else(|| format!("{path}: \"histograms\" is not an object"))?;
    for (name, h) in names {
        let count = h
            .get("count")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{path}: histogram {name:?} lacks \"count\""))?;
        h.get("sum_us")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{path}: histogram {name:?} lacks \"sum_us\""))?;
        let buckets = h
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path}: histogram {name:?} lacks \"buckets\""))?;
        if buckets.len() != icd_obs::BUCKETS {
            return Err(format!(
                "{path}: histogram {name:?} has {} buckets, expected {}",
                buckets.len(),
                icd_obs::BUCKETS
            ));
        }
        let bucket_total: u64 = buckets.iter().filter_map(Value::as_u64).sum();
        if bucket_total != count {
            return Err(format!(
                "{path}: histogram {name:?} buckets sum to {bucket_total}, count is {count}"
            ));
        }
        if name.starts_with("flow.") {
            stage_histograms += 1;
        }
    }
    if stage_histograms == 0 {
        return Err(format!("{path}: no flow.* stage histograms recorded"));
    }
    println!("{path}: ok ({stage_histograms} flow stage histograms)");
    Ok(ExitCode::SUCCESS)
}
