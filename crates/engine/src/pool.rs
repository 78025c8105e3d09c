//! A std-only thread pool with one bounded FIFO queue.
//!
//! The build environment has no registry access, so instead of `rayon`
//! this is a small, purpose-built pool on `std::thread` +
//! `std::sync::{Mutex, Condvar}` (results travel back to the coordinator
//! over `std::sync::mpsc` channels owned by the submitted closures):
//!
//! * **one FIFO queue** — every idle worker takes the oldest waiting job,
//!   so jobs start in submission order (the engine submits the
//!   largest-cone suspects first) and one long-running datalog cannot
//!   starve the pool. Per-worker deques with stealing would sit under the
//!   same mutex, so they would buy no concurrency;
//! * **bounded queue with backpressure** — [`WorkerPool::submit`] blocks
//!   once `queue_capacity` jobs are waiting, so a producer enumerating a
//!   huge batch cannot buffer the whole batch in memory;
//! * **panic isolation** — every job runs under
//!   [`std::panic::catch_unwind`]; a poisoned job increments
//!   [`WorkerPool::caught_panics`] and the worker keeps serving. (The
//!   engine additionally catches panics *inside* its jobs so the failure
//!   is attributed to the right datalog; this pool-level net is the
//!   backstop that keeps the pool alive no matter what.)

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work. Jobs communicate results themselves (typically via an
/// `mpsc::Sender` captured by the closure).
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    /// Jobs waiting to run, oldest first.
    queue: VecDeque<Job>,
    /// Jobs a worker is currently executing.
    active: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued or shutdown begins.
    work: Condvar,
    /// Signalled when a worker takes a job (queue space freed).
    space: Condvar,
    /// Signalled when the pool becomes idle (no queued or running job).
    idle: Condvar,
    capacity: usize,
    panics: AtomicUsize,
    /// Jobs run to completion (panicked or not).
    executed: AtomicU64,
    /// Most jobs ever waiting at once — how hard backpressure worked.
    queue_high_water: AtomicU64,
    /// Per-worker time spent running jobs (ns).
    busy_ns: Vec<AtomicU64>,
    /// Per-worker time spent waiting for work (ns).
    idle_ns: Vec<AtomicU64>,
}

/// Health counters of one pool, captured by [`WorkerPool::metrics`].
/// Everything except `workers` and `jobs_executed` is
/// scheduling-dependent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Worker thread count.
    pub workers: usize,
    /// Jobs run to completion (including contained panics).
    pub jobs_executed: u64,
    /// Most jobs ever waiting at once.
    pub queue_high_water: u64,
    /// Panics the pool-level net contained.
    pub panics_contained: u64,
    /// Per-worker time spent running jobs (µs).
    pub busy_us: Vec<u64>,
    /// Per-worker time spent waiting for work (µs).
    pub idle_us: Vec<u64>,
}

fn lock(shared: &PoolShared) -> MutexGuard<'_, PoolState> {
    match shared.state.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The pool. Dropping it finishes all queued jobs, then joins the
/// workers.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one) with room for
    /// `queue_capacity` waiting jobs before submissions block.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
            capacity: queue_capacity.max(1),
            panics: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            idle_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("icd-worker-{i}"))
                    .spawn(move || worker_loop(i, &shared))
                    .expect("spawning a diagnosis worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Enqueues a job, blocking while the pool already holds
    /// `queue_capacity` waiting jobs (backpressure).
    pub fn submit(&self, job: Job) {
        let mut state = lock(&self.shared);
        while state.queue.len() >= self.shared.capacity && !state.shutdown {
            state = match self.shared.space.wait(state) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        self.enqueue(state, job);
    }

    /// Tries to enqueue a job, waiting at most `wait` for queue space.
    ///
    /// Returns the job back (`Err`) when the queue stayed full for the
    /// whole wait or the pool is shutting down — the caller owns the
    /// retry policy (the diagnosis server retries with capped backoff
    /// and eventually degrades the response instead of blocking a
    /// connection thread forever).
    pub fn try_submit(&self, job: Job, wait: Duration) -> Result<(), Job> {
        let deadline = Instant::now() + wait;
        let mut state = lock(&self.shared);
        loop {
            if state.shutdown {
                return Err(job);
            }
            if state.queue.len() < self.shared.capacity {
                self.enqueue(state, job);
                return Ok(());
            }
            let now = Instant::now();
            let Some(left) = deadline.checked_duration_since(now) else {
                return Err(job);
            };
            state = match self.shared.space.wait_timeout(state, left) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    fn enqueue(&self, mut state: MutexGuard<'_, PoolState>, job: Job) {
        state.queue.push_back(job);
        self.shared
            .queue_high_water
            .fetch_max(state.queue.len() as u64, Ordering::Relaxed);
        drop(state);
        self.shared.work.notify_one();
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Jobs not yet finished: waiting in the queue or running on a worker.
    pub fn pending_jobs(&self) -> usize {
        let state = lock(&self.shared);
        state.queue.len() + state.active
    }

    /// Blocks until no job is queued or running, or `timeout` elapses.
    /// Returns whether the pool is idle — the drain primitive of a
    /// graceful shutdown (stop submitting, then `wait_idle` under the
    /// drain deadline).
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.shared);
        loop {
            if state.queue.is_empty() && state.active == 0 {
                return true;
            }
            let now = Instant::now();
            let Some(left) = deadline.checked_duration_since(now) else {
                return false;
            };
            state = match self.shared.idle.wait_timeout(state, left) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Shuts the pool down in place: queued jobs still run, new
    /// `try_submit`s are refused, workers are joined. Idempotent — a
    /// second call (or the eventual drop) finds no workers left and
    /// returns immediately.
    pub fn shutdown(&mut self) {
        self.join_workers();
    }

    /// Jobs whose panic the pool-level net had to contain.
    pub fn caught_panics(&self) -> usize {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// A snapshot of the pool's health counters. Job counts are exact
    /// once the work they belong to has been joined (e.g. after the
    /// engine drained its result channels); busy/idle times are advisory
    /// — a worker currently inside a job has not yet banked that time.
    /// Use [`WorkerPool::into_metrics`] for final, exact counters.
    pub fn metrics(&self) -> PoolMetrics {
        self.snapshot_metrics(self.handles.len())
    }

    /// Shuts the pool down (queued jobs still finish), joins every
    /// worker, and returns the final health counters — exact, since no
    /// worker can still be banking time.
    pub fn into_metrics(mut self) -> PoolMetrics {
        let workers = self.handles.len();
        self.join_workers();
        self.snapshot_metrics(workers)
    }

    fn snapshot_metrics(&self, workers: usize) -> PoolMetrics {
        let to_us = |ns: &AtomicU64| ns.load(Ordering::Relaxed) / 1_000;
        PoolMetrics {
            workers,
            jobs_executed: self.shared.executed.load(Ordering::Relaxed),
            queue_high_water: self.shared.queue_high_water.load(Ordering::Relaxed),
            panics_contained: self.shared.panics.load(Ordering::Relaxed) as u64,
            busy_us: self.shared.busy_ns.iter().map(to_us).collect(),
            idle_us: self.shared.idle_ns.iter().map(to_us).collect(),
        }
    }

    fn join_workers(&mut self) {
        {
            let mut state = lock(&self.shared);
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for h in self.handles.drain(..) {
            // A worker that itself panicked outside the catch (impossible
            // by construction) must not poison the drop.
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join_workers();
    }
}

fn worker_loop(me: usize, shared: &PoolShared) {
    loop {
        let idle_start = Instant::now();
        let job = {
            let mut state = lock(shared);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.active += 1;
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = match shared.work.wait(state) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        shared.idle_ns[me].fetch_add(idle_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.space.notify_one();
        let busy_start = Instant::now();
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
        shared.busy_ns[me].fetch_add(busy_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.executed.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = lock(shared);
            state.active -= 1;
            if state.active == 0 && state.queue.is_empty() {
                drop(state);
                shared.idle.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_every_job_exactly_once() {
        let pool = WorkerPool::new(4, 8);
        let (tx, rx) = mpsc::channel();
        for i in 0..100usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i).unwrap();
            }));
        }
        drop(tx);
        let mut seen: Vec<usize> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(2, 4);
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(|| panic!("poisoned job")));
        for i in 0..10usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i).unwrap();
            }));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 10);
        // The panicking job may still be queued behind the counted ones.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.caught_panics() == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.caught_panics(), 1);
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        // One worker blocked on a gate; capacity 2. The third submit must
        // block until the gate opens.
        let pool = WorkerPool::new(1, 2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let pool = Arc::new(pool);
        let gate_holder = Arc::new(gate_rx);
        {
            let holder = Arc::clone(&gate_holder);
            pool.submit(Box::new(move || {
                let _ = lock_rx(&holder).recv();
            }));
        }
        // Fill the queue (worker busy on the gate job).
        pool.submit(Box::new(|| {}));
        pool.submit(Box::new(|| {}));
        let (done_tx, done_rx) = mpsc::channel();
        let p2 = Arc::clone(&pool);
        let t = std::thread::spawn(move || {
            p2.submit(Box::new(|| {}));
            done_tx.send(()).unwrap();
        });
        // The submit above must be blocked while the queue is full.
        assert!(done_rx.recv_timeout(Duration::from_millis(200)).is_err());
        gate_tx.send(()).unwrap();
        assert!(done_rx.recv_timeout(Duration::from_secs(5)).is_ok());
        t.join().unwrap();

        fn lock_rx(m: &Mutex<mpsc::Receiver<()>>) -> MutexGuard<'_, mpsc::Receiver<()>> {
            m.lock().unwrap()
        }
    }

    #[test]
    fn metrics_count_executed_jobs_and_queue_high_water() {
        let pool = WorkerPool::new(2, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..25usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i).unwrap();
            }));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 25);
        // Joining makes the counters exact: no worker is still banking
        // the final job's timing after its send.
        let m = pool.into_metrics();
        assert_eq!(m.workers, 2);
        assert_eq!(m.jobs_executed, 25);
        assert_eq!(m.panics_contained, 0);
        assert!(m.queue_high_water >= 1);
        assert!(m.queue_high_water <= 16);
        assert_eq!(m.busy_us.len(), 2);
        assert_eq!(m.idle_us.len(), 2);
    }

    #[test]
    fn dropping_pool_with_queued_jobs_still_runs_them() {
        // One slow worker, many queued jobs; the drop must finish every
        // queued job before joining (queued work is never lost).
        let pool = WorkerPool::new(1, 64);
        let (tx, rx) = mpsc::channel();
        for i in 0..30usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(1));
                tx.send(i).unwrap();
            }));
        }
        drop(pool);
        drop(tx);
        let mut seen: Vec<usize> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn wait_idle_drains_with_a_panicked_job_in_flight() {
        let pool = WorkerPool::new(2, 16);
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(|| {
            std::thread::sleep(Duration::from_millis(5));
            panic!("in-flight poison");
        }));
        for i in 0..8usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i).unwrap();
            }));
        }
        assert!(
            pool.wait_idle(Duration::from_secs(10)),
            "drain must complete despite the panicked job"
        );
        assert_eq!(pool.pending_jobs(), 0);
        assert_eq!(pool.caught_panics(), 1);
        drop(tx);
        assert_eq!(rx.iter().count(), 8);
        // The pool still accepts and runs work after the drain.
        let (tx2, rx2) = mpsc::channel();
        pool.submit(Box::new(move || {
            tx2.send(99usize).unwrap();
        }));
        assert_eq!(rx2.recv_timeout(Duration::from_secs(5)), Ok(99));
    }

    #[test]
    fn double_shutdown_is_idempotent() {
        let mut pool = WorkerPool::new(2, 8);
        let (tx, rx) = mpsc::channel();
        for i in 0..6usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i).unwrap();
            }));
        }
        drop(tx);
        pool.shutdown();
        pool.shutdown(); // second explicit shutdown: no-op
        assert_eq!(rx.iter().count(), 6);
        // try_submit after shutdown is refused, not queued forever.
        assert!(pool
            .try_submit(Box::new(|| {}), Duration::from_millis(10))
            .is_err());
        let m = pool.into_metrics(); // third join via into_metrics + drop
        assert_eq!(m.jobs_executed, 6);
    }

    #[test]
    fn try_submit_times_out_on_a_full_queue_and_returns_the_job() {
        let pool = WorkerPool::new(1, 1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        pool.submit(Box::new(move || {
            let _ = match gate_rx.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }
            .recv();
        }));
        // Worker busy on the gate; fill the single queue slot.
        pool.submit(Box::new(|| {}));
        let rejected = pool.try_submit(Box::new(|| {}), Duration::from_millis(50));
        assert!(rejected.is_err(), "full queue must bounce the job");
        gate_tx.send(()).unwrap();
        // Space frees up: the bounced job can be resubmitted (the retry
        // path of the server).
        let job = rejected.unwrap_err();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut job = Some(job);
        while let Some(j) = job.take() {
            match pool.try_submit(j, Duration::from_millis(100)) {
                Ok(()) => break,
                Err(j) => {
                    assert!(Instant::now() < deadline, "resubmission never succeeded");
                    job = Some(j);
                }
            }
        }
        assert!(pool.wait_idle(Duration::from_secs(10)));
    }

    #[test]
    fn single_worker_preserves_submission_order() {
        let pool = WorkerPool::new(1, 64);
        let (tx, rx) = mpsc::channel();
        for i in 0..20usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i).unwrap();
            }));
        }
        drop(tx);
        let seen: Vec<usize> = rx.iter().collect();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }
}
