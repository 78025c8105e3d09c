//! Closed-loop traffic against a running daemon, every reply checked.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use icd_server::{Client, ResponseStatus};

use crate::daemon::Daemon;
use crate::stats::{compare, Tally};

/// What one operation sends.
#[derive(Debug, Clone, Copy)]
pub enum Payload<'a> {
    /// One datalog text as a `Request` frame.
    Datalog(&'a str),
    /// A named lot of datalog texts as a `Volume` frame.
    Lot(&'a [(String, String)]),
}

/// One operation with its reference answer.
#[derive(Debug, Clone)]
pub struct Job<'a> {
    /// Device or lot name, for failure reports.
    pub name: &'a str,
    /// What is sent.
    pub payload: Payload<'a>,
    /// Devices the operation diagnoses.
    pub devices: usize,
    /// The in-process reference status.
    pub status: ResponseStatus,
    /// The in-process reference reply, byte for byte.
    pub expected: &'a str,
}

/// One finished operation.
#[derive(Debug, Clone)]
pub struct Done {
    /// Index of the job.
    pub job: usize,
    /// Client-seen latency: request frame written to report read.
    pub latency: Duration,
    /// When the reply was read.
    pub end: Instant,
    /// The reply when it matched the reference, else why not.
    pub result: Result<String, String>,
}

/// Sends one job on `client` and checks the reply.
pub fn execute(client: &mut Client, job: &Job<'_>) -> (Duration, Result<String, String>) {
    let t0 = Instant::now();
    let reply = match job.payload {
        Payload::Datalog(text) => client.submit(text, 0),
        Payload::Lot(devices) => client.submit_volume(devices, 0),
    };
    let latency = t0.elapsed();
    let result = match reply {
        Err(e) => Err(e.to_string()),
        Ok(r) if r.status != job.status => {
            Err(format!("status {:?}, reference {:?}", r.status, job.status))
        }
        Ok(r) => compare(&r.summary, job.expected).map(|()| r.summary),
    };
    (latency, result)
}

/// Runs `per_connection` on `connections` client connections at once
/// and gathers what they finished.
fn on_connections<F>(
    daemon: &Daemon,
    connections: usize,
    per_connection: F,
) -> Result<Vec<Done>, String>
where
    F: Fn(usize, &mut Client, &mut Vec<Done>) + Sync,
{
    let mut clients = (0..connections)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let per_connection = &per_connection;
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    per_connection(k, client, &mut done);
                    done
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => all.extend(done),
                Err(_) => return Err("a client thread panicked".to_owned()),
            }
        }
        Ok(())
    })?;
    Ok(all)
}

/// One pass over `jobs`, each sent once, shared out over `connections`.
///
/// # Errors
///
/// Connection failures (failed operations are results, not errors).
pub fn pass(daemon: &Daemon, connections: usize, jobs: &[Job<'_>]) -> Result<Vec<Done>, String> {
    let next = AtomicUsize::new(0);
    on_connections(daemon, connections, |_, client, done| loop {
        let job = next.fetch_add(1, Ordering::Relaxed);
        if job >= jobs.len() {
            break;
        }
        let (latency, result) = execute(client, &jobs[job]);
        done.push(Done {
            job,
            latency,
            end: Instant::now(),
            result,
        });
    })
}

/// A timed closed-loop window.
#[derive(Debug)]
pub struct Window {
    /// Every operation finished in the window.
    pub done: Vec<Done>,
    /// From the first send to the last reply.
    pub elapsed: Duration,
}

/// Closed-loop traffic for at least `seconds`: each connection cycles
/// `jobs` from its own offset, sending the next job when the previous
/// reply arrives, until the time is up; operations in flight then
/// finish and count.
///
/// # Errors
///
/// Connection failures.
pub fn window(
    daemon: &Daemon,
    connections: usize,
    jobs: &[Job<'_>],
    seconds: u64,
) -> Result<Window, String> {
    let start = Instant::now();
    let stop = start + Duration::from_secs(seconds);
    let done = on_connections(daemon, connections, |k, client, done| {
        let mut job = k * jobs.len() / connections;
        while Instant::now() < stop {
            let (latency, result) = execute(client, &jobs[job % jobs.len()]);
            done.push(Done {
                job: job % jobs.len(),
                latency,
                end: Instant::now(),
                result,
            });
            job += 1;
        }
    })?;
    let end = done.iter().map(|d| d.end).max().unwrap_or(start);
    Ok(Window {
        done,
        elapsed: end.duration_since(start),
    })
}

/// Folds finished operations into `tally`.
pub fn tally(tally: &mut Tally, jobs: &[Job<'_>], done: &[Done]) {
    for d in done {
        tally.record(jobs[d.job].name, d.result.clone().map(|_| ()));
    }
}
