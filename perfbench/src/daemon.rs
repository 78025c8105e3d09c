//! The daemon under test, hosted in a child process of the benchmark.
//!
//! The child is this same executable run as `daemon --workers N`. It
//! announces itself, then receives the corpus design (netlist text and
//! manifest) on stdin and starts the `icd-server` daemon on loopback the
//! way `icdiag serve` does: context rebuilt from the design, process
//! [`Collector`] installed, no event log. Set-up is timed from the
//! hand-over to the daemon's first `Pong`.
//!
//! After the hand-over the child's stdin stays open as a control
//! channel: a `snapshot` line asks for the collector's counters, and end
//! of input (the benchmark went away) ends the child. A `Shutdown` frame
//! drains the daemon; the child then prints its final counters and
//! exits.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icd_bench::flow::{pattern_set_for, ExperimentContext};
use icd_cells::CellLibrary;
use icd_obs::Collector;
use icd_server::{Client, Server, ServerConfig};

/// Socket timeout of every benchmark client: far above any request's
/// latency, so a hung daemon fails the run instead of stalling it.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The corpus design handed to a daemon: what `icdiag gen` writes as
/// `netlist.txt` and `manifest.txt`.
#[derive(Debug, Clone)]
pub struct Design {
    /// The netlist in the repository's text format.
    pub netlist: String,
    /// `patterns=` and `pattern_seed=` lines: the test set's recipe.
    pub manifest: String,
}

impl Design {
    /// The test set's length and pattern seed, from the manifest.
    ///
    /// # Errors
    ///
    /// A manifest without numeric `patterns=` and `pattern_seed=` lines.
    pub fn recipe(&self) -> Result<(usize, u64), String> {
        let field = |key: &str| {
            self.manifest
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .ok_or_else(|| format!("manifest lacks a numeric {key}= line"))
        };
        let count = usize::try_from(field("patterns")?).map_err(|_| "patterns= is too large")?;
        Ok((count, field("pattern_seed")?))
    }
}

/// Rebuilds the context a design describes, as `icdiag serve` does:
/// parse the netlist against the standard library, regenerate the test
/// set from the manifest.
///
/// # Errors
///
/// Unparseable netlist or manifest.
pub fn load_context(design: &Design) -> Result<ExperimentContext, String> {
    let cells = CellLibrary::standard();
    let logic = cells.logic_library();
    let circuit = icd_netlist::format::parse(&design.netlist, &logic)
        .map_err(|e| format!("parsing the netlist: {e}"))?;
    let (count, seed) = design.recipe()?;
    let patterns = pattern_set_for(&circuit, count, seed);
    Ok(ExperimentContext {
        cells,
        logic,
        circuit,
        patterns,
    })
}

/// The server configuration of `icdiag serve` with default flags.
fn serve_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(30),
        idle_timeout: Duration::from_secs(30),
        drain_deadline: Duration::from_secs(10),
        chaos_panics: None,
        event_log: None,
        slow_threshold: Duration::from_millis(1_000),
        ..ServerConfig::default()
    }
}

fn read_block(input: &mut impl BufRead, key: &str) -> Result<String, String> {
    let mut header = String::new();
    input
        .read_line(&mut header)
        .map_err(|e| format!("reading the {key} header: {e}"))?;
    let len: usize = header
        .trim_end()
        .strip_prefix(key)
        .and_then(|rest| rest.trim().parse().ok())
        .ok_or_else(|| format!("expected `{key} <bytes>`, got {header:?}"))?;
    let mut body = vec![0u8; len];
    input
        .read_exact(&mut body)
        .map_err(|e| format!("reading the {key}: {e}"))?;
    String::from_utf8(body).map_err(|_| format!("{key} is not UTF-8"))
}

fn one_line_snapshot(collector: &Collector) -> String {
    // JSON strings never hold raw newlines, so this keeps it valid.
    format!(
        "metrics {}",
        collector.snapshot().to_json().replace('\n', " ")
    )
}

/// The child side: `daemon --workers N`.
///
/// # Errors
///
/// A broken hand-over, an unusable design, or a failed bind.
pub fn child_main(workers: usize) -> Result<(), String> {
    let say = |line: &str| {
        let mut out = std::io::stdout().lock();
        // The parent reads these lines; if it is gone there is no one to
        // tell, and end of stdin ends this process.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };
    say("ready");
    let mut input = BufReader::new(std::io::stdin());
    let design = Design {
        netlist: read_block(&mut input, "netlist")?,
        manifest: read_block(&mut input, "manifest")?,
    };
    let ctx = Arc::new(load_context(&design)?);
    let collector = Collector::new();
    let _guard = collector.install();
    let server = Server::bind("127.0.0.1:0", ctx, serve_config(workers))
        .map_err(|e| format!("starting the daemon: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;

    let control = collector.clone();
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match input.read_line(&mut line) {
                Ok(0) | Err(_) => std::process::exit(0),
                Ok(_) if line.trim() == "snapshot" => say(&one_line_snapshot(&control)),
                Ok(_) => {}
            }
        }
    });
    say(&format!("listening {addr}"));
    let outcome = server.run().map_err(|e| format!("serving: {e}"))?;
    say(&one_line_snapshot(&collector));
    say(&format!("drained {outcome:?}"));
    Ok(())
}

/// A running daemon child, seen from the benchmark.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// The daemon's loopback address.
    pub addr: SocketAddr,
    /// Hand-over of the design to the first `Pong`.
    pub setup: Duration,
}

impl Daemon {
    /// Starts a daemon with `workers` pool threads on `design`.
    ///
    /// # Errors
    ///
    /// Spawn failures, a child that does not come up, or a failed ping.
    pub fn start(design: &Design, workers: usize) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let mut child = Command::new(exe)
            .args(["daemon", "--workers", &workers.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting the daemon process: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let (Some(stdin), Some(stdout)) = (stdin, stdout) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon process has no pipes".into());
        };
        let mut daemon = Daemon {
            child,
            stdin: Some(stdin),
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        daemon.expect_line("ready")?;
        let handed = Instant::now();
        let mut message = Vec::new();
        for (key, text) in [("netlist", &design.netlist), ("manifest", &design.manifest)] {
            message.extend_from_slice(format!("{key} {}\n", text.len()).as_bytes());
            message.extend_from_slice(text.as_bytes());
        }
        daemon.send(&message)?;
        let addr = daemon.expect_line("listening")?;
        daemon.addr = addr
            .parse()
            .map_err(|_| format!("daemon announced a bad address {addr:?}"))?;
        let mut client = Client::connect(daemon.addr, IO_TIMEOUT)
            .map_err(|e| format!("connecting to the daemon: {e}"))?;
        client.ping().map_err(|e| format!("first ping: {e}"))?;
        daemon.setup = handed.elapsed();
        Ok(daemon)
    }

    /// A fresh client connection.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr, IO_TIMEOUT).map_err(|e| format!("connecting: {e}"))
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon control channel closed")?;
        stdin
            .write_all(bytes)
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the daemon: {e}"))
    }

    /// Reads the child's next line, which must start with `key`; returns
    /// the rest.
    fn expect_line(&mut self, key: &str) -> Result<String, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading from the daemon: {e}"))?;
        let line = line.trim_end();
        line.strip_prefix(key)
            .map(|rest| rest.trim().to_owned())
            .ok_or_else(|| format!("daemon said {line:?}, expected {key}"))
    }

    /// The daemon's counters so far.
    ///
    /// # Errors
    ///
    /// A broken control channel or an unparseable snapshot.
    pub fn counters(&mut self) -> Result<BTreeMap<String, u64>, String> {
        self.send(b"snapshot\n")?;
        let json = self.expect_line("metrics")?;
        parse_counters(&json)
    }

    /// Peak resident memory of the daemon process so far (`VmHWM`), in
    /// MB (10^6 bytes).
    ///
    /// # Errors
    ///
    /// An unreadable `/proc` entry.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib * 1024.0 / 1e6)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// Drains the daemon, collects its final counters and waits for the
    /// process to end.
    ///
    /// # Errors
    ///
    /// A failed shutdown exchange, an unclean drain or a failed exit.
    pub fn stop(mut self) -> Result<BTreeMap<String, u64>, String> {
        self.connect()?
            .shutdown_server()
            .map_err(|e| format!("shutting the daemon down: {e}"))?;
        let counters = parse_counters(&self.expect_line("metrics")?)?;
        let drained = self.expect_line("drained")?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        self.stdin = None;
        if drained != "Clean" || !status.success() {
            return Err(format!("daemon drained {drained}, exited {status}"));
        }
        Ok(counters)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After a clean stop the child has been reaped and this is a
        // no-op; on any error path the child is killed and reaped.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Counters of a `MetricsSnapshot::to_json` document, by name.
fn parse_counters(json: &str) -> Result<BTreeMap<String, u64>, String> {
    let doc = icd_obs::json::parse(json).map_err(|e| format!("daemon snapshot: {e}"))?;
    let counters = doc
        .get("counters")
        .and_then(|c| c.as_object())
        .ok_or("daemon snapshot has no counters")?;
    Ok(counters
        .iter()
        .filter_map(|(name, v)| Some((name.clone(), v.get("value")?.as_u64()?)))
        .collect())
}
