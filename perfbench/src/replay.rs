//! The traced replay: corpus items down a ladder of public calls, timed
//! from outside the program.
//!
//! 1. `Client::submit` / `submit_volume` against an idle 1-worker daemon;
//! 2. `DiagnosisService::diagnose_streamed` on an in-process 1-worker
//!    service;
//! 3. the flow's own calls, made directly: `Datalog::sanitize`,
//!    `icd_intercell::diagnose_with_good`, `select_suspects`, and per
//!    suspect `extract_local_patterns_with_good`,
//!    `icd_core::diagnose_with_cache` and `rank_candidates_with_cache`.
//!
//! Each rung's span is the parent of the next rung's spans for the same
//! item, so a layer's self time (its span less its children) is what
//! that layer adds, and the layers of an item add up to its idle round
//! trip. Spans are kept in memory and written out as one file at the
//! end. Every rung works from warm caches: one untimed pass over the
//! items runs first; the measured pass then runs three times and each
//! call keeps its shortest duration.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use icd_bench::flow::{
    select_suspects, to_local_tests, ExperimentContext, FlowError, FlowReport, FlowStage,
    GateAnalysis, SkippedGate,
};
use icd_core::AnalysisCache;
use icd_engine::{summarize_report, CancelToken, DiagnosisService, StreamEvent};
use icd_faultsim::{BitValues, Datalog};
use icd_server::frame::{self, Frame, FrameType};
use icd_server::ResponseStatus;

use crate::daemon::{Daemon, Design};
use crate::drive::{execute, Job, Payload};
use crate::stats::{median, Tally};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `intercell.diagnose`.
    pub name: &'static str,
    /// Start, in microseconds since the trace began.
    pub start_us: f64,
    /// End, in microseconds since the trace began.
    pub end_us: f64,
    /// The span this one refines: the rung above, or the enclosing call.
    pub parent: Option<usize>,
    /// The replayed item (distinct datalog, or lot) it belongs to.
    pub item: usize,
    /// The device within a lot (0 for single datalogs).
    pub device: usize,
    /// The measured pass it was recorded in.
    pub rep: usize,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    /// Every span, in the order they were opened.
    pub spans: Vec<Span>,
    /// The measured pass new spans belong to.
    rep: usize,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            rep: 0,
        }
    }
}

impl Trace {
    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished call.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        item: usize,
        device: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_us: self.at(start),
            end_us: self.at(end),
            parent,
            item,
            device,
            rep: self.rep,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        item: usize,
        device: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.push(name, parent, item, device, start, Instant::now());
        (out, id)
    }

    /// The spans of the first measured pass, each with its shortest
    /// duration over every pass. The passes repeat the same calls in the
    /// same order, so span `k` of one pass is span `k` of every other; the
    /// shortest is the one least disturbed by anything else on the host.
    ///
    /// # Errors
    ///
    /// Passes that recorded different calls.
    pub fn shortest(&self) -> Result<Vec<(&Span, f64)>, String> {
        let passes = self.rep + 1;
        let len = self.spans.len() / passes;
        if len * passes != self.spans.len() {
            return Err("measured passes recorded different numbers of spans".into());
        }
        (0..len)
            .map(|k| {
                let first = &self.spans[k];
                let mut us = first.us();
                for again in self.spans[k..].iter().step_by(len).skip(1) {
                    if (again.name, again.item, again.device)
                        != (first.name, first.item, first.device)
                    {
                        return Err(format!("measured passes diverged at span {k}"));
                    }
                    us = us.min(again.us());
                }
                Ok((first, us))
            })
            .collect()
    }
    /// The spans as JSON: `{"spans":[{"id","name","start_us","end_us",
    /// "parent","item","device","pass"},...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"item\":{},\"device\":{},\"pass\":{}}}",
                s.name, s.start_us, s.end_us, s.item, s.device, s.rep
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// What the rung-3 calls of one datalog found.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlowCounts {
    /// Suspects fanned out.
    pub suspects: usize,
    /// Suspects that reached intra-cell analysis.
    pub analyses: usize,
    /// Local failing tests over analyzed suspects.
    pub lfp: usize,
    /// Local passing tests over analyzed suspects.
    pub lpp: usize,
    /// Failing patterns after sanitation.
    pub failing_patterns: usize,
    /// Inter-cell candidates.
    pub candidates: usize,
}

impl FlowCounts {
    fn add(&mut self, other: &FlowCounts) {
        self.suspects += other.suspects;
        self.analyses += other.analyses;
        self.lfp += other.lfp;
        self.lpp += other.lpp;
        self.failing_patterns += other.failing_patterns;
        self.candidates += other.candidates;
    }
}

/// The in-process rungs shared by every item.
pub struct Bench<'a> {
    ctx: &'a Arc<ExperimentContext>,
    good: BitValues,
    cache: AnalysisCache,
    service: DiagnosisService,
}

impl<'a> Bench<'a> {
    /// A 1-worker service and a cache for the direct calls.
    ///
    /// # Errors
    ///
    /// Good-machine simulation failures.
    pub fn new(ctx: &'a Arc<ExperimentContext>) -> Result<Self, String> {
        let good =
            icd_faultsim::good_simulate(&ctx.circuit, &ctx.patterns).map_err(|e| e.to_string())?;
        let service = DiagnosisService::new(Arc::clone(ctx), 1, 64, Duration::from_millis(100))
            .map_err(|e| e.to_string())?;
        Ok(Bench {
            ctx,
            good,
            cache: AnalysisCache::new(),
            service,
        })
    }

    /// Rung 2: the engine's streamed diagnosis, with the frames the
    /// daemon would stream for it.
    fn engine(&self, datalog: &Datalog) -> Result<(FlowReport, Vec<Frame>), String> {
        let mut frames = Vec::new();
        let mut on_event = |ev: StreamEvent<'_>| {
            let payload = match ev {
                StreamEvent::Suspects(gates) => (
                    FrameType::Suspects,
                    gates
                        .iter()
                        .map(|g| g.index().to_string())
                        .collect::<Vec<_>>()
                        .join(" "),
                ),
                StreamEvent::SuspectDone { slot, gate, ok } => (
                    FrameType::Progress,
                    format!("slot={slot} gate={} ok={}", gate.index(), u8::from(ok)),
                ),
            };
            frames.push(Frame {
                frame_type: payload.0,
                request_id: 1,
                trace_id: None,
                payload: payload.1.into_bytes(),
            });
        };
        let report = self
            .service
            .diagnose_streamed(datalog, &CancelToken::new(), &mut on_event)
            .map_err(|e| e.to_string())?;
        Ok((report, frames))
    }

    /// Rung 3: the flow's calls made directly, under `parent`. Returns
    /// the merged report (which must equal the engine's) and the work
    /// counts.
    fn flow(
        &self,
        trace: &mut Trace,
        parent: Option<usize>,
        item: usize,
        device: usize,
        datalog: &Datalog,
    ) -> Result<(FlowReport, FlowCounts), String> {
        let ctx = self.ctx;
        let ((datalog, sanitize), _) =
            trace.time("faultsim.sanitize", parent, item, device, || {
                datalog.sanitize(ctx.circuit.outputs().len())
            });
        let mut counts = FlowCounts {
            failing_patterns: datalog.entries.len(),
            ..FlowCounts::default()
        };
        let mut report = FlowReport {
            failing_patterns: datalog.entries.len(),
            sanitize,
            analyses: Vec::new(),
            skipped: Vec::new(),
            unexplained: Vec::new(),
        };
        if datalog.all_pass() {
            report.failing_patterns = 0;
            return Ok((report, counts));
        }
        let (inter, _) = trace.time("intercell.diagnose", parent, item, device, || {
            icd_intercell::diagnose_with_good(&ctx.circuit, &ctx.patterns, &datalog, &self.good)
        });
        let inter = inter.map_err(|e| e.to_string())?;
        counts.candidates = inter.candidates.len();
        let (suspects, _) = trace.time("flow.select", parent, item, device, || {
            select_suspects(&inter)
        });
        counts.suspects = suspects.len();
        for gate in suspects {
            let start = Instant::now();
            let suspect = trace.push("flow.suspect", parent, item, device, start, start);
            let explained: HashSet<usize> = inter
                .candidates
                .iter()
                .find(|c| c.gate == gate)
                .map(|c| c.explained.iter().copied().collect())
                .unwrap_or_default();
            let view = Datalog {
                circuit_name: datalog.circuit_name.clone(),
                num_patterns: datalog.num_patterns,
                entries: datalog
                    .entries
                    .iter()
                    .filter(|e| explained.contains(&e.pattern_index))
                    .cloned()
                    .collect(),
            };
            let (local, _) = trace.time("intercell.local", Some(suspect), item, device, || {
                icd_intercell::extract_local_patterns_with_good(
                    &ctx.circuit,
                    &ctx.patterns,
                    &view,
                    gate,
                    &self.good,
                )
            });
            let outcome = self.analyze(trace, suspect, item, device, gate, local);
            match outcome {
                Ok(analysis) => {
                    counts.analyses += 1;
                    counts.lfp += analysis.lfp;
                    counts.lpp += analysis.lpp;
                    report.analyses.push(analysis);
                }
                Err((stage, error)) => report.skipped.push(SkippedGate { gate, stage, error }),
            }
            let end = trace.at(Instant::now());
            trace.spans[suspect].end_us = end;
        }
        report.unexplained = inter.unexplained;
        Ok((report, counts))
    }

    /// The intra-cell half of one suspect, as `analyze_suspect` runs it.
    fn analyze(
        &self,
        trace: &mut Trace,
        suspect: usize,
        item: usize,
        device: usize,
        gate: icd_netlist::GateId,
        local: Result<icd_intercell::LocalPatterns, icd_intercell::IntercellError>,
    ) -> Result<GateAnalysis, (FlowStage, FlowError)> {
        let local = local.map_err(|e| (FlowStage::LocalExtraction, FlowError::Intercell(e)))?;
        let lfp = to_local_tests(&local.lfp);
        let lpp = to_local_tests(&local.lpp);
        if lfp.is_empty() {
            return Err((FlowStage::LocalExtraction, FlowError::NoLocalFailures));
        }
        let name = self.ctx.circuit.gate_type(gate).name();
        let cell = self
            .ctx
            .cells
            .get(name)
            .ok_or_else(|| (FlowStage::CellLookup, FlowError::NoInstance(name.into())))?
            .netlist();
        let (report, _) = trace.time("core.diagnose", Some(suspect), item, device, || {
            icd_core::diagnose_with_cache(cell, &lfp, &lpp, Some(&self.cache))
        });
        let report = report.map_err(|e| (FlowStage::IntraCell, FlowError::Core(e)))?;
        let (ranked, _) = trace.time("core.rank", Some(suspect), item, device, || {
            icd_core::rank_candidates_with_cache(cell, &report, &lfp, &lpp, Some(&self.cache))
        });
        let ranked = ranked.map_err(|e| (FlowStage::Ranking, FlowError::Core(e)))?;
        Ok(GateAnalysis {
            gate,
            lfp: lfp.len(),
            lpp: lpp.len(),
            report,
            ranked,
        })
    }
}

/// Encodes and decodes every frame of one exchange, as the daemon and
/// the client do; returns the decoded payload bytes (kept alive so the
/// work is not optimized away).
fn frame_round_trip(frames: &[Frame]) -> Result<usize, String> {
    let mut bytes = 0usize;
    for f in frames {
        let wire = frame::encode(f);
        let decoded = frame::read_frame(&mut Cursor::new(&wire), frame::DEFAULT_MAX_PAYLOAD)
            .map_err(|e| e.to_string())?
            .ok_or("frame vanished in a round trip")?;
        bytes += match decoded.frame_type {
            FrameType::Request => {
                frame::parse_request_payload(&decoded.payload).map_or(0, |(_, t)| t.len())
            }
            FrameType::Volume => {
                frame::parse_volume_payload(&decoded.payload).map_or(0, |(_, d)| d.len())
            }
            _ => decoded.payload.len(),
        };
    }
    Ok(std::hint::black_box(bytes))
}

fn request_frame(payload: Payload<'_>) -> Frame {
    let (frame_type, payload) = match payload {
        Payload::Datalog(text) => (FrameType::Request, frame::request_payload(0, text)),
        Payload::Lot(devices) => (FrameType::Volume, frame::volume_request_payload(0, devices)),
    };
    Frame {
        frame_type,
        request_id: 1,
        trace_id: None,
        payload,
    }
}

fn report_frame(status: ResponseStatus, body: &str) -> Frame {
    let mut payload = vec![status as u8];
    payload.extend_from_slice(body.as_bytes());
    Frame {
        frame_type: FrameType::Report,
        request_id: 1,
        trace_id: None,
        payload,
    }
}

/// A replayed item: one distinct datalog, or one lot.
pub struct Item<'j> {
    /// The job that sends it (its reference answer included).
    pub job: Job<'j>,
    /// Its datalogs with their texts (one for a single datalog).
    pub datalogs: Vec<(&'j str, Datalog)>,
}

/// Per-layer figures of a replay.
#[derive(Debug, Default)]
pub struct Layers {
    /// Spans of every measured pass.
    pub trace: Trace,
    /// Items replayed.
    pub items: usize,
    /// Datalogs replayed (devices, for lots).
    pub datalogs: usize,
    /// Work counts summed over datalogs.
    pub counts: FlowCounts,
    /// Idle round trip of each item, µs.
    pub round_trip_us: Vec<f64>,
    /// Rung-2 time of each item, µs (summed over a lot's devices).
    pub engine_us: Vec<f64>,
    /// Frame encode + decode of each item's exchange, µs.
    pub frame_us: Vec<f64>,
    /// Shortest duration per span name, summed over one pass.
    total: BTreeMap<&'static str, f64>,
    /// Self time per span name, summed likewise.
    own: BTreeMap<&'static str, f64>,
    /// CPT cache hit rate of the warm-up (cold) pass.
    pub cpt_hit_rate: f64,
    /// `icd_netlist::format::parse` of the design, ms.
    pub netlist_parse_ms: f64,
    /// Test-set regeneration, ms.
    pub test_set_ms: f64,
    /// Good-machine simulation, ms.
    pub good_simulate_ms: f64,
    /// `assemble_report` + `to_json` per item, ms (for single datalogs:
    /// the replayed reports aggregated as one lot).
    pub aggregate_ms: f64,
}

impl Layers {
    /// Derives the per-item and per-name figures from each call's
    /// shortest duration. A span's self time is its duration less its
    /// children's: children of one span never overlap (each rung runs on
    /// one thread), so that is the time they do not cover.
    fn profile(&mut self) -> Result<(), String> {
        let spans = self.trace.shortest()?;
        let mut own: Vec<f64> = spans.iter().map(|(_, us)| *us).collect();
        for (span, us) in &spans {
            if let Some(p) = span.parent {
                own[p] -= us;
            }
        }
        self.round_trip_us = vec![0.0; self.items];
        self.engine_us = vec![0.0; self.items];
        self.frame_us = vec![0.0; self.items];
        for ((span, us), own) in spans.iter().zip(own) {
            *self.total.entry(span.name).or_default() += us;
            *self.own.entry(span.name).or_default() += own;
            match span.name {
                "server.submit" => self.round_trip_us[span.item] += us,
                "engine.diagnose_streamed" => self.engine_us[span.item] += us,
                "server.frames" => self.frame_us[span.item] += us,
                _ => {}
            }
        }
        Ok(())
    }

    /// Summed duration of the spans named `name`, µs.
    pub fn total(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }

    /// Summed self time of the spans named `name`, µs.
    pub fn own(&self, name: &str) -> f64 {
        self.own.get(name).copied().unwrap_or(0.0)
    }
}

/// Items per turn of the rungs in a measured pass.
const CHUNK: usize = 8;
/// Measured passes over the items.
const PASSES: usize = 3;

/// Repeats of each set-up layer's timing.
const SETUP_REPEATS: usize = 5;

fn median_ms(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Replays `items` down the ladder and measures each layer.
///
/// # Errors
///
/// Daemon, service or flow failures, or a rung whose answer differs from
/// the reference (counted in `tally` as well).
pub fn replay(
    ctx: &Arc<ExperimentContext>,
    design: &Design,
    items: &[Item<'_>],
    tally: &mut Tally,
) -> Result<Layers, String> {
    let bench = Bench::new(ctx)?;
    let daemon = Daemon::start(design, 1)?;
    let mut client = daemon.connect()?;

    // Warm every rung's caches: one untimed pass.
    let mut warm_trace = Trace::default();
    for (i, item) in items.iter().enumerate() {
        let (_, result) = execute(&mut client, &item.job);
        tally.record(item.job.name, result.map(|_| ()));
        for (d, (_, datalog)) in item.datalogs.iter().enumerate() {
            bench.engine(datalog)?;
            bench.flow(&mut warm_trace, None, i, d, datalog)?;
        }
    }
    let cpt = bench.cache.cpt_stats();

    let mut layers = Layers {
        items: items.len(),
        cpt_hit_rate: cpt.hit_rate(),
        ..Layers::default()
    };
    // The rungs take turns over chunks of a few items: each rung runs
    // several items back to back, as a daemon serves them, so it does not
    // work from caches another rung just evicted; and the turns are short,
    // so the rungs see the same host conditions. The whole pass runs
    // PASSES times and each call keeps its shortest duration.
    let mut named_reports: Vec<(String, FlowReport)> = Vec::new();
    for pass in 0..PASSES {
        layers.trace.rep = pass;
        let first = pass == 0;
        for chunk in (0..items.len()).collect::<Vec<_>>().chunks(CHUNK) {
            let mut servers = Vec::with_capacity(chunk.len());
            for &i in chunk {
                let item = &items[i];
                let ((_, result), server) = layers.trace.time("server.submit", None, i, 0, || {
                    execute(&mut client, &item.job)
                });
                tally.record(item.job.name, result.map(|_| ()));
                servers.push(server);
            }
            let mut engine: Vec<Vec<(usize, FlowReport, Vec<Frame>)>> =
                Vec::with_capacity(chunk.len());
            for (k, &i) in chunk.iter().enumerate() {
                let mut devices = Vec::with_capacity(items[i].datalogs.len());
                for (d, (_, datalog)) in items[i].datalogs.iter().enumerate() {
                    let (out, span) = layers.trace.time(
                        "engine.diagnose_streamed",
                        Some(servers[k]),
                        i,
                        d,
                        || bench.engine(datalog),
                    );
                    let (report, streamed) = out?;
                    devices.push((span, report, streamed));
                }
                engine.push(devices);
            }
            for (k, &i) in chunk.iter().enumerate() {
                let item = &items[i];
                let trace = &mut layers.trace;
                let mut frames = vec![request_frame(item.job.payload)];
                for (d, (text, datalog)) in item.datalogs.iter().enumerate() {
                    let (engine_span, engine_report, streamed) = &engine[k][d];
                    trace
                        .time("faultsim.parse", None, i, d, || {
                            icd_faultsim::datalog_text::parse(text)
                        })
                        .0
                        .map_err(|e| e.to_string())?;
                    let (flow_report, counts) =
                        bench.flow(trace, Some(*engine_span), i, d, datalog)?;
                    if summarize_report(ctx, &flow_report) != summarize_report(ctx, engine_report) {
                        return Err(format!(
                            "{}: the direct flow calls and the engine disagree",
                            item.job.name
                        ));
                    }
                    if first {
                        layers.datalogs += 1;
                        layers.counts.add(&counts);
                    }
                    frames.extend(streamed.iter().cloned());
                }
                let reports = std::mem::take(&mut engine[k])
                    .into_iter()
                    .map(|(_, r, _)| r);
                if let Payload::Lot(devices) = item.job.payload {
                    let reports: Vec<FlowReport> = reports.collect();
                    let named: Vec<(String, &FlowReport)> = devices
                        .iter()
                        .map(|(n, _)| n.clone())
                        .zip(&reports)
                        .collect();
                    let (json, _) = trace.time("volume.aggregate", Some(servers[k]), i, 0, || {
                        icd_volume::assemble_report(
                            ctx,
                            ctx.circuit.content_hash(),
                            &named,
                            0,
                            0,
                            &icd_volume::AggregationConfig::default(),
                        )
                        .to_json()
                    });
                    if json != item.job.expected {
                        return Err(format!(
                            "{}: in-process aggregation differs from the reference",
                            item.job.name
                        ));
                    }
                } else if first {
                    named_reports.extend(reports.map(|r| (item.job.name.to_owned(), r)));
                }
                frames.push(report_frame(item.job.status, item.job.expected));
                trace
                    .time("server.frames", None, i, 0, || frame_round_trip(&frames))
                    .0?;
            }
        }
    }
    layers.profile()?;
    if !named_reports.is_empty() {
        let named_reports: Vec<(String, &FlowReport)> =
            named_reports.iter().map(|(n, r)| (n.clone(), r)).collect();
        layers.aggregate_ms = median_ms(|| {
            std::hint::black_box(
                icd_volume::assemble_report(
                    ctx,
                    ctx.circuit.content_hash(),
                    &named_reports,
                    0,
                    0,
                    &icd_volume::AggregationConfig::default(),
                )
                .to_json(),
            );
        });
    } else {
        layers.aggregate_ms = layers.total("volume.aggregate") / 1e3 / items.len().max(1) as f64;
    }
    drop(client);
    daemon.stop()?;

    let logic = icd_cells::CellLibrary::standard().logic_library();
    layers.netlist_parse_ms = median_ms(|| {
        std::hint::black_box(icd_netlist::format::parse(&design.netlist, &logic).ok());
    });
    let (patterns, pattern_seed) = design.recipe()?;
    layers.test_set_ms = median_ms(|| {
        std::hint::black_box(icd_bench::flow::pattern_set_for(
            &ctx.circuit,
            patterns,
            pattern_seed,
        ));
    });
    layers.good_simulate_ms = median_ms(|| {
        std::hint::black_box(icd_faultsim::good_simulate(&ctx.circuit, &ctx.patterns).ok());
    });
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        rep: usize,
    ) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            item: 0,
            device: 0,
            rep,
        }
    }

    #[test]
    fn self_time_is_the_span_less_its_children_at_their_shortest() {
        let trace = Trace {
            spans: vec![
                span("server.submit", 0.0, 100.0, None, 0),
                span("engine.diagnose_streamed", 100.0, 170.0, Some(0), 0),
                span("intercell.diagnose", 170.0, 200.0, Some(1), 0),
                span("server.submit", 300.0, 390.0, None, 1),
                span("engine.diagnose_streamed", 390.0, 475.0, Some(3), 1),
                span("intercell.diagnose", 475.0, 495.0, Some(4), 1),
            ],
            rep: 1,
            ..Trace::default()
        };
        let mut layers = Layers {
            trace,
            items: 1,
            ..Layers::default()
        };
        layers.profile().unwrap();
        // Shortest durations: 90, 70 and 20 µs.
        assert_eq!(layers.round_trip_us, vec![90.0]);
        assert_eq!(layers.engine_us, vec![70.0]);
        assert_eq!(layers.own("server.submit"), 20.0);
        assert_eq!(layers.own("engine.diagnose_streamed"), 50.0);
        assert_eq!(layers.own("intercell.diagnose"), 20.0);
        assert_eq!(layers.total("intercell.diagnose"), 20.0);
        let layers_sum: f64 = [
            "server.submit",
            "engine.diagnose_streamed",
            "intercell.diagnose",
        ]
        .iter()
        .map(|n| layers.own(n))
        .sum();
        assert_eq!(
            layers_sum, layers.round_trip_us[0],
            "layers add up to the round trip"
        );
    }

    #[test]
    fn passes_that_recorded_different_calls_are_refused() {
        let mut trace = Trace {
            spans: vec![
                span("server.submit", 0.0, 10.0, None, 0),
                span("server.frames", 10.0, 12.0, None, 1),
            ],
            rep: 1,
            ..Trace::default()
        };
        assert!(trace.shortest().is_err());
        trace.spans.push(span("server.submit", 20.0, 30.0, None, 1));
        assert!(
            trace.shortest().is_err(),
            "three spans cannot split into two passes"
        );
    }
}
