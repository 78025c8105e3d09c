//! End-to-end benchmark of the `icdiag` diagnosis daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_a|serve_b|volume_b [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run generates a seeded ground-truth corpus, computes every
//! expected answer in-process, starts the `icd-server` daemon in a child
//! process on loopback (two workers, configured as `icdiag serve` runs
//! it), sends one warm-up pass over the corpus, then drives the daemon
//! in a closed loop for `--seconds` over at most two connections,
//! checking every reply byte for byte against its reference. With
//! `--trace 1` a traced replay follows (see [`replay`]) and the per-layer
//! metrics are reported instead of the end-to-end ones.
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (`{"name": {"value": v, "unit": u}}`). The
//! lines before it are a human-readable table with sample counts.
//! `perfbench/METRICS.md` lists what each metric measures and what
//! should move it.

mod corpus;
mod daemon;
mod drive;
mod reference;
mod replay;
mod stats;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;

use icd_faultsim::datalog_text;

use crate::drive::{Job, Payload};
use crate::reference::Answer;
use crate::replay::{Item, Layers};
use crate::stats::{median, Metric, Tally};
use crate::workload::{Traffic, Workload, WORKERS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Distinct datalogs a traced serve run replays, at most.
const MAX_REPLAYED: usize = 128;

/// Command-line options of a benchmark run.
#[derive(Debug, Clone)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        let workers = args.get(2).and_then(|w| w.parse().ok()).unwrap_or(WORKERS);
        return match daemon::child_main(workers) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match parse_options(&args).and_then(|o| run(&o)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// The inputs a workload sends, with their reference answers.
struct Inputs<'c> {
    /// Each distinct input once: every distinct datalog text, every lot.
    distinct: Vec<Job<'c>>,
    /// The traffic: one job per device (serve) or lot (volume).
    jobs: Vec<Job<'c>>,
    /// Which distinct input each traffic job sends.
    input_of: Vec<usize>,
}

fn inputs<'c>(
    traffic: Traffic,
    corpus: &'c corpus::Corpus,
    lots: &'c [Vec<(String, String)>],
    answers: &'c [Answer],
    of_device: Vec<usize>,
) -> Inputs<'c> {
    match traffic {
        Traffic::Serve => {
            let mut first = vec![None; answers.len()];
            for (d, &t) in corpus.devices().zip(&of_device) {
                first[t].get_or_insert(d);
            }
            let distinct: Vec<Job<'c>> = first
                .iter()
                .zip(answers)
                .filter_map(|(d, a)| {
                    let d: &corpus::Device = (*d)?;
                    Some(Job {
                        name: &d.name,
                        payload: Payload::Datalog(&d.text),
                        devices: 1,
                        status: a.status,
                        expected: &a.body,
                    })
                })
                .collect();
            let jobs = corpus
                .devices()
                .zip(&of_device)
                .map(|(d, &t)| Job {
                    name: &d.name,
                    ..distinct[t].clone()
                })
                .collect();
            Inputs {
                distinct,
                jobs,
                input_of: of_device,
            }
        }
        Traffic::Volume => {
            let distinct: Vec<Job<'c>> = corpus
                .lots
                .iter()
                .zip(lots)
                .zip(answers)
                .map(|((lot, devices), a)| Job {
                    name: lot.devices.first().map_or("lot", |d| d.name.as_str()),
                    payload: Payload::Lot(devices),
                    devices: devices.len(),
                    status: a.status,
                    expected: &a.body,
                })
                .collect();
            Inputs {
                jobs: distinct.clone(),
                input_of: (0..distinct.len()).collect(),
                distinct,
            }
        }
    }
}

/// What the daemon under load showed.
struct Served {
    setups: Vec<f64>,
    window: drive::Window,
    peak_rss_mb: f64,
    accuracy: reference::Accuracy,
    lots: usize,
}

impl Served {
    /// Window operations whose reply matched the reference.
    fn ok(&self) -> impl Iterator<Item = &drive::Done> {
        self.window.done.iter().filter(|d| d.result.is_ok())
    }

    fn seconds(&self) -> f64 {
        self.window.elapsed.as_secs_f64().max(1e-9)
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.window
            .done
            .iter()
            .map(|d| d.latency.as_secs_f64() * 1e3)
            .collect()
    }
}

fn end_to_end(s: &Served, jobs: &[Job<'_>]) -> Vec<Metric> {
    let secs = s.seconds();
    let requests = s.ok().count();
    let devices: usize = s.ok().map(|d| jobs[d.job].devices).sum();
    let latencies = s.latencies_ms();
    let p50 = median(&latencies).unwrap_or(0.0);
    let (tail, tail_note) = stats::tail(&latencies).map_or((0.0, "no samples".to_owned()), |t| {
        (t.value, format!("p{} of {}", t.percentile, t.samples))
    });
    let a = &s.accuracy;
    vec![
        metric(
            "setup_s",
            median(&s.setups).unwrap_or(0.0),
            "s",
            format!("median of {} set-ups", s.setups.len()),
        ),
        metric(
            "req_per_s",
            requests as f64 / secs,
            "1/s",
            format!("{requests} requests in {secs:.2} s"),
        ),
        metric(
            "devices_per_s",
            devices as f64 / secs,
            "1/s",
            format!("{devices} devices in {secs:.2} s"),
        ),
        metric(
            "req_p50_ms",
            p50,
            "ms",
            format!("p50 of {}", latencies.len()),
        ),
        metric("req_p99_ms", tail, "ms", tail_note),
        metric(
            "peak_rss_mb",
            s.peak_rss_mb,
            "MB",
            "VmHWM of the daemon process after the warm-up pass",
        ),
        metric(
            "hit_rate",
            a.hit_rate,
            "ratio",
            format!("of {} answers", a.samples),
        ),
        metric(
            "resolution",
            a.resolution,
            "count",
            format!("of {} answers", a.samples),
        ),
        metric(
            "planted_rank",
            a.planted_rank,
            "rank",
            format!("mean of {} lots", s.lots),
        ),
    ]
}

fn run(opts: &Options) -> Result<(), String> {
    let w = opts.workload;
    // The daemon numbers gates as it parses the netlist text; the corpus,
    // the references and the replay use that same parsed design.
    let design = w.design(&w.context()?);
    let ctx = Arc::new(daemon::load_context(&design)?);
    let corpus = corpus::generate(&ctx, opts.seed, w.lots, w.lot_size)?;
    let (texts, of_device) = reference::distinct_texts(&corpus);
    println!(
        "workload {} seed {}: {} gates, {} patterns, {} devices in {} lots, \
         {} distinct datalogs, {:.1} failing patterns/device, {:.0}% planted, \
         {:.0}% multi-defect",
        w.name,
        opts.seed,
        ctx.circuit.num_gates(),
        ctx.patterns.len(),
        corpus.len(),
        corpus.lots.len(),
        texts.len(),
        corpus.mean_failing_patterns(),
        corpus.share(|d| d.planted) * 100.0,
        corpus.share(|d| d.injected.len() > 1) * 100.0,
    );

    // Reference answers first, so nothing in-process competes with the
    // daemon once timing starts.
    let lots: Vec<Vec<(String, String)>> = corpus.lots.iter().map(reference::lot_payload).collect();
    let answers: Vec<Answer> = match w.traffic {
        Traffic::Serve => reference::single_answers(&ctx, &texts)?,
        Traffic::Volume => reference::volume_answers(&ctx, &corpus)?,
    };
    let inputs = inputs(w.traffic, &corpus, &lots, &answers, of_device);

    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let d = daemon::Daemon::start(&design, WORKERS)?;
        setups.push(d.setup.as_secs_f64());
        d.stop()?;
    }
    let mut daemon = daemon::Daemon::start(&design, WORKERS)?;
    setups.push(daemon.setup.as_secs_f64());

    // Warm-up: every distinct input once, which fills every cache a
    // repeat could hit. Its replies are the ones scored for accuracy.
    let mut tally = Tally::default();
    let warm = drive::pass(&daemon, w.connections, &inputs.distinct)?;
    drive::tally(&mut tally, &inputs.distinct, &warm);
    let mut replies: Vec<&str> = vec![""; inputs.distinct.len()];
    for d in &warm {
        if let Ok(reply) = &d.result {
            replies[d.job] = reply;
        }
    }
    let accuracy = match w.traffic {
        Traffic::Serve => {
            let per_device: Vec<&str> = inputs.input_of.iter().map(|&t| replies[t]).collect();
            reference::score_devices(&corpus, &per_device)
        }
        Traffic::Volume => reference::score_lots(&ctx, &corpus, &replies)?,
    };

    // Memory after set-up and one pass over the corpus: a fixed amount of
    // work. The process collector keeps every finished span, so the peak
    // after the timed window grows with the requests served; it is only
    // printed.
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let before = daemon.counters()?;
    let window = drive::window(&daemon, w.connections, &inputs.jobs, opts.seconds)?;
    let after = daemon.counters()?;
    let rss_after_window = daemon.peak_rss_mb()?;
    drive::tally(&mut tally, &inputs.jobs, &window.done);
    // The traced runs replay the first distinct inputs, and time their
    // idle round trips on this daemon over one connection: the baseline
    // of engine.wait_ms.
    let replayed = &inputs.distinct[..inputs.distinct.len().min(match w.traffic {
        Traffic::Serve => MAX_REPLAYED,
        // One lot stands for all: the lots are drawn alike, and replaying
        // each would take longer than the timed window.
        Traffic::Volume => 1,
    })];
    let idle = if opts.trace {
        let idle = drive::pass(&daemon, 1, replayed)?;
        drive::tally(&mut tally, replayed, &idle);
        idle
    } else {
        Vec::new()
    };
    daemon.stop()?;

    let served = Served {
        setups,
        window,
        peak_rss_mb,
        accuracy,
        lots: corpus.lots.len(),
    };
    let end_to_end = end_to_end(&served, &inputs.jobs);
    let metrics = if opts.trace {
        let items: Vec<Item<'_>> = replayed
            .iter()
            .enumerate()
            .map(|(k, job)| {
                let datalogs = match job.payload {
                    Payload::Datalog(text) => {
                        vec![(text, datalog_text::parse(text).map_err(|e| e.to_string())?)]
                    }
                    Payload::Lot(_) => corpus.lots[k]
                        .devices
                        .iter()
                        .map(|d| (d.text.as_str(), d.datalog.clone()))
                        .collect(),
                };
                Ok(Item {
                    job: job.clone(),
                    datalogs,
                })
            })
            .collect::<Result<_, String>>()?;
        let layers = replay::replay(&ctx, &design, &items, &mut tally)?;
        let path = trace_path(w.name, opts.seed);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, layers.trace.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            layers.trace.spans.len(),
            path.display()
        );

        // The window's operations whose input was replayed stand for all
        // of them: their idle compute (rung 2) and idle round trips.
        let mut idle_ms = vec![0.0; replayed.len()];
        for d in &idle {
            idle_ms[d.job] = d.latency.as_secs_f64() * 1e3;
        }
        let covered: Vec<usize> = served
            .ok()
            .map(|d| inputs.input_of[d.job])
            .filter(|&t| t < replayed.len())
            .collect();
        let busy_us = covered.iter().map(|&t| layers.engine_us[t]).sum::<f64>()
            * served.ok().count() as f64
            / covered.len().max(1) as f64;
        let idle_rt: Vec<f64> = covered.iter().map(|&t| idle_ms[t]).collect();
        let delta = |name: &str| {
            let at =
                |c: &std::collections::BTreeMap<String, u64>| c.get(name).copied().unwrap_or(0);
            at(&after).saturating_sub(at(&before))
        };
        let front_stages = served
            .ok()
            .map(|d| inputs.jobs[d.job].devices)
            .sum::<usize>()
            .max(1) as f64;
        per_layer(
            &layers,
            LayerInputs {
                wait_ms: median(&served.latencies_ms()).unwrap_or(0.0)
                    - median(&idle_rt).unwrap_or(0.0),
                utilization: busy_us / 1e6 / (WORKERS as f64 * served.seconds()),
                retries: delta("server.retries_busy") + delta("server.retries_panic"),
                cover_iterations: delta("intercell.set_cover.iterations") as f64 / front_stages,
                cone_filtered: delta("intercell.cone_filtered") as f64 / front_stages,
            },
        )
    } else {
        end_to_end.clone()
    };

    let shown = |m: &Metric| {
        format!(
            "  {:<26} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        )
    };
    println!(
        "end to end ({} operations in the window, {} connection(s)):",
        served.window.done.len(),
        w.connections
    );
    for m in &end_to_end {
        println!("{}", shown(m));
    }
    println!(
        "  {:<26} {:>14.4} {:<6} {} failed of {} checked replies",
        "fail_rate",
        tally.fail_rate(),
        "ratio",
        tally.failed,
        tally.attempted
    );
    println!("  (daemon VmHWM after the timed window: {rss_after_window:.1} MB)");
    if !after.keys().any(|c| c.starts_with("cache.cpt.")) {
        println!("  (the daemon exports no cache.cpt.* counters; core.cpt_hit_rate comes from the replay's cache)");
    }
    if opts.trace {
        println!("per layer (traced replay, idle, 1 worker):");
        for m in &metrics {
            println!("{}", shown(m));
        }
    }
    for f in &tally.first_failures {
        println!("FAILED {f}");
    }
    if let Some(bad) = metrics.iter().find(|m| !stats::valid_name(m.name)) {
        return Err(format!("invalid metric name {:?}", bad.name));
    }
    println!(
        "{}",
        stats::result_line(tally.failed == 0, &tally, &metrics)
    );
    Ok(())
}

/// Where a traced run writes its spans: inside the benchmark's own
/// directory of the checkout it was built from.
fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-seed{seed}.json"))
}

/// Window-derived inputs of the per-layer table.
struct LayerInputs {
    wait_ms: f64,
    utilization: f64,
    retries: u64,
    cover_iterations: f64,
    cone_filtered: f64,
}

fn per_layer(l: &Layers, x: LayerInputs) -> Vec<Metric> {
    let items = l.items.max(1) as f64;
    let datalogs = l.datalogs.max(1) as f64;
    let suspects = l.counts.suspects.max(1) as f64;
    let analyses = l.counts.analyses.max(1) as f64;
    let per_item = format!("mean of {} items", l.items);
    let per_datalog = format!("mean of {} datalogs", l.datalogs);
    let per_suspect = format!("per suspect, {} suspects", l.counts.suspects);
    vec![
        metric(
            "server.idle_rt_ms",
            stats::mean(&l.round_trip_us).unwrap_or(0.0) / 1e3,
            "ms",
            per_item.clone(),
        ),
        metric(
            "server.self_us",
            l.own("server.submit") / items,
            "us",
            per_item.clone(),
        ),
        metric(
            "server.frame_us",
            stats::mean(&l.frame_us).unwrap_or(0.0),
            "us",
            per_item.clone(),
        ),
        metric(
            "server.retries",
            x.retries as f64,
            "count",
            "busy + panic retries in the window",
        ),
        metric(
            "engine.self_us",
            l.own("engine.diagnose_streamed") / datalogs,
            "us",
            per_datalog.clone(),
        ),
        metric(
            "engine.wait_ms",
            x.wait_ms,
            "ms",
            "window p50 - idle round-trip p50 on the same daemon",
        ),
        metric(
            "engine.utilization",
            x.utilization,
            "ratio",
            "idle compute of the window's operations / (2 workers x window)",
        ),
        metric(
            "flow.self_us",
            (l.own("flow.select") + l.own("flow.suspect")) / datalogs,
            "us",
            per_datalog.clone(),
        ),
        metric(
            "flow.suspects",
            l.counts.suspects as f64 / datalogs,
            "count",
            per_datalog.clone(),
        ),
        metric(
            "flow.suspect_yield",
            l.counts.analyses as f64 / suspects,
            "ratio",
            "analyses / suspects",
        ),
        metric(
            "faultsim.ingest_us",
            (l.total("faultsim.parse") + l.total("faultsim.sanitize")) / datalogs,
            "us",
            per_datalog.clone(),
        ),
        metric(
            "faultsim.good_simulate_ms",
            l.good_simulate_ms,
            "ms",
            "median of 5",
        ),
        metric("netlist.parse_ms", l.netlist_parse_ms, "ms", "median of 5"),
        metric("atpg.test_set_ms", l.test_set_ms, "ms", "median of 5"),
        metric(
            "intercell.diagnose_ms",
            l.total("intercell.diagnose") / 1e3 / datalogs,
            "ms",
            per_datalog.clone(),
        ),
        metric(
            "intercell.local_us",
            l.total("intercell.local") / suspects,
            "us",
            per_suspect.clone(),
        ),
        metric(
            "intercell.failing_patterns",
            l.counts.failing_patterns as f64 / datalogs,
            "count",
            per_datalog.clone(),
        ),
        metric(
            "intercell.candidates",
            l.counts.candidates as f64 / datalogs,
            "count",
            per_datalog.clone(),
        ),
        metric(
            "intercell.cover_iterations",
            x.cover_iterations,
            "count",
            "per front stage in the window",
        ),
        metric(
            "intercell.cone_filtered",
            x.cone_filtered,
            "count",
            "per front stage in the window",
        ),
        metric(
            "core.diagnose_us",
            l.total("core.diagnose") / suspects,
            "us",
            per_suspect.clone(),
        ),
        metric(
            "core.rank_us",
            l.total("core.rank") / suspects,
            "us",
            per_suspect,
        ),
        metric(
            "core.cpt_hit_rate",
            l.cpt_hit_rate,
            "ratio",
            "replay cache, cold pass",
        ),
        metric(
            "core.lfp",
            l.counts.lfp as f64 / analyses,
            "count",
            "per analyzed suspect",
        ),
        metric(
            "core.lpp",
            l.counts.lpp as f64 / analyses,
            "count",
            "per analyzed suspect",
        ),
        metric(
            "volume.aggregate_ms",
            l.aggregate_ms,
            "ms",
            "assemble_report + to_json per lot",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn options_parse_and_reject() {
        let o = parse_options(&args("--workload serve_a --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.name, o.seed, o.seconds, o.trace),
            ("serve_a", 7, 3, true)
        );
        let o = parse_options(&args("--workload volume_b")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (DEFAULT_SEED, 10, false));
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--seed 3")).is_err());
        assert!(parse_options(&args("--workload serve_a --seed")).is_err());
        assert!(parse_options(&args("--workload serve_a --bogus 1")).is_err());
    }

    /// `BENCHMARK.json` must name exactly the metrics the program prints,
    /// with the same units, and every name must be valid.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = icd_obs::json::parse(&text).unwrap();
        let listed = |key: &str| -> BTreeMap<String, String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let printed = |ms: &[Metric]| -> BTreeMap<String, String> {
            ms.iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect()
        };
        let layers = per_layer(
            &Layers::default(),
            LayerInputs {
                wait_ms: 0.0,
                utilization: 0.0,
                retries: 0,
                cover_iterations: 0.0,
                cone_filtered: 0.0,
            },
        );
        assert_eq!(listed("per_layer"), printed(&layers));
        let served = Served {
            setups: vec![],
            window: drive::Window {
                done: vec![],
                elapsed: std::time::Duration::ZERO,
            },
            peak_rss_mb: 0.0,
            accuracy: reference::Accuracy {
                hit_rate: 0.0,
                resolution: 0.0,
                planted_rank: 0.0,
                samples: 0,
            },
            lots: 0,
        };
        let e2e = listed("end_to_end");
        assert_eq!(e2e, printed(&end_to_end(&served, &[])));
        for name in e2e.keys().chain(listed("per_layer").keys()) {
            assert!(stats::valid_name(name), "{name}");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap().to_owned())
            .collect();
        let ours: Vec<String> = workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_owned())
            .collect();
        assert_eq!(workloads, ours);
    }
}
