//! Fixed worker pool over the `crossbeam` scope + bounded-channel stubs.
//!
//! [`map_ordered`] fans a work list out to `threads` workers through a
//! **bounded** MPMC channel (so an enormous batch never materializes in
//! the queue all at once — backpressure caps the in-flight window at
//! `2 × threads` items) and reassembles results **by index**, so the
//! output order is that of the input regardless of which worker finished
//! first. That reassembly is what makes `gaps batch` byte-identical
//! across `--threads 1/2/8`.
//!
//! Results travel back over an unbounded channel: workers never block on
//! the way out, so the only backpressure point is work intake and the
//! pool cannot deadlock (the collector drains exactly `items.len()`
//! results while the feeder is still pushing).
//!
//! For open-ended traffic (the serve daemon) the batch-shaped
//! [`map_ordered`] is the wrong lifecycle: there is no "end of input" to
//! join on. [`TaskPool`] keeps the same discipline — bounded intake,
//! crossbeam-channel fan-out — but lives for the process: submit jobs
//! with [`TaskPool::try_submit`] (non-blocking, `Full` is the admission
//! backpressure signal), observe [`TaskPool::queued`] /
//! [`TaskPool::active`], and drain with [`TaskPool::shutdown`].
//!
//! A [`TaskPool::elastic`] pool additionally grows past its core size
//! under queue pressure — up to a hard `max_threads` cap — and shrinks
//! back when the extra workers sit idle past a timeout. Growth happens
//! on the submit path (all workers busy with jobs waiting, or the
//! admission limit reached — the grown worker then takes the refused
//! job as its first task); shrink is each grown worker retiring
//! itself after `idle_timeout` with no work. Elasticity never touches
//! [`map_ordered`], whose index-reassembly determinism is
//! worker-count-independent by construction. The idle-shrink timer is a
//! real wall-clock read (`Instant`), which is why this file sits on the
//! analyzer determinism rule's explicit allowlist.
//!
//! This module is the workspace's only sanctioned `thread::spawn` site
//! (the analyzer's `concurrency` rule pins that); [`background`] is the
//! escape hatch for the few long-lived utility threads (report ticker,
//! connection readers) that are not worker-pool shaped.

use crossbeam::channel::{self, RecvTimeoutError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Apply `f` to every `(index, item)` pair on a pool of `threads` workers
/// (at least one) and return the results in input order.
///
/// `f` must be deterministic per item for the output to be reproducible —
/// the pool guarantees *order*, the caller guarantees *values*.
///
/// # Panics
/// Re-raises panics from worker threads after the scope joins.
pub fn map_ordered<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let total = items.len();
    if total == 0 {
        return Vec::new();
    }
    // More workers than items would just be idle OS threads (and an
    // absurd request, e.g. `--threads 500000`, would die in spawn).
    let threads = threads.clamp(1, total);
    let (work_tx, work_rx) = channel::bounded::<(usize, T)>(threads * 2);
    let (result_tx, result_rx) = channel::unbounded::<(usize, R)>();
    let mut results: Vec<Option<R>> = (0..total).map(|_| None).collect();
    crossbeam::scope(|s| {
        for _ in 0..threads {
            let work_rx = work_rx.clone();
            let result_tx = result_tx.clone();
            let f = &f;
            s.spawn(move |_| {
                for (index, item) in work_rx {
                    // The collector only disappears early if a sibling
                    // panicked; stop quietly and let the scope re-raise.
                    if result_tx.send((index, f(index, item))).is_err() {
                        break;
                    }
                }
            });
        }
        // Only workers hold live clones now; when the feeder below drops
        // `work_tx`, their intake iterators end.
        drop(work_rx);
        drop(result_tx);
        for pair in items.into_iter().enumerate() {
            work_tx.send(pair).expect("a worker is alive to receive");
        }
        drop(work_tx);
        for _ in 0..total {
            let (index, value) = result_rx.recv().expect("every item yields a result");
            results[index] = Some(value);
        }
    })
    .expect("worker threads join");
    results
        .into_iter()
        .map(|r| r.expect("every index was filled"))
        .collect()
}

/// Spawn one named long-lived utility thread. Kept here so the
/// analyzer's pool-only-spawn rule stays a single-file invariant; every
/// caller gets a `gaps-`-prefixed thread name for debuggability.
pub fn background<F>(name: &str, f: F) -> thread::JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    thread::Builder::new()
        .name(format!("gaps-{name}"))
        .spawn(f)
        .expect("spawn background thread")
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`TaskPool::try_submit`] refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded intake queue is at capacity — the backpressure signal
    /// (serve answers `BUSY`).
    Full,
    /// The pool has been shut down and accepts nothing.
    Closed,
}

/// Gauges shared between the pool handle and its workers.
#[derive(Debug, Default)]
struct PoolGauges {
    queued: AtomicU64,
    active: AtomicU64,
    panicked: AtomicU64,
    /// Live worker threads right now (core + grown, before retirement).
    workers: AtomicU64,
    /// High-water mark of `workers`.
    peak_workers: AtomicU64,
    /// Monotone spawn counter; names grown workers uniquely.
    spawn_seq: AtomicU64,
}

/// Dequeue-and-run one job with the shared gauge discipline; both the
/// core and the grown worker loops funnel through here.
fn run_job(gauges: &PoolGauges, job: Job) {
    gauges.queued.fetch_sub(1, SeqCst);
    gauges.active.fetch_add(1, SeqCst);
    // A panicking job must not kill the worker: the pool would silently
    // shrink and queued requests would never be answered.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    gauges.active.fetch_sub(1, SeqCst);
    if outcome.is_err() {
        gauges.panicked.fetch_add(1, SeqCst);
    }
}

/// A long-lived worker pool with a bounded intake queue and explicit
/// backpressure — the serve daemon's execution substrate.
///
/// Unlike [`map_ordered`] there is no ordering contract: each job
/// carries its own reply path (request id), so completions may
/// interleave freely. Admission is strictly non-blocking
/// ([`TaskPool::try_submit`] uses `try_send`), so no caller ever stalls
/// on a full queue — it is told [`SubmitError::Full`] and sheds instead.
#[derive(Debug)]
pub struct TaskPool {
    gauges: Arc<PoolGauges>,
    sender: Mutex<Option<channel::Sender<Job>>>,
    /// Kept so grown workers can be attached to the same intake queue
    /// after construction.
    receiver: channel::Receiver<Job>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    max_threads: usize,
    /// Jobs that may wait beyond one per live worker (see
    /// [`TaskPool::try_submit`]).
    queue_capacity: u64,
    idle_timeout: Duration,
}

/// How long a grown worker idles before retiring itself.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_millis(500);

impl TaskPool {
    /// Start `threads` workers (at least one) behind a bounded intake
    /// queue of `queue_capacity` jobs (at least one). The pool stays at
    /// this size forever — fixed pools are `elastic` with `max ==
    /// core`.
    pub fn new(threads: usize, queue_capacity: usize) -> TaskPool {
        TaskPool::elastic(threads, threads, queue_capacity, DEFAULT_IDLE_TIMEOUT)
    }

    /// Start an elastic pool: `core_threads` permanent workers (at
    /// least one), growing up to `max_threads` under queue pressure,
    /// with grown workers retiring after `idle_timeout` without work.
    pub fn elastic(
        core_threads: usize,
        max_threads: usize,
        queue_capacity: usize,
        idle_timeout: Duration,
    ) -> TaskPool {
        let core_threads = core_threads.max(1);
        let max_threads = max_threads.max(core_threads);
        let queue_capacity = queue_capacity.max(1);
        let (tx, rx) = channel::bounded::<Job>(queue_capacity + max_threads);
        let gauges = Arc::new(PoolGauges::default());
        let workers = (0..core_threads)
            .map(|i| {
                let rx = rx.clone();
                let gauges = Arc::clone(&gauges);
                gauges.workers.fetch_add(1, SeqCst);
                gauges.peak_workers.fetch_max(i as u64 + 1, SeqCst);
                thread::Builder::new()
                    .name(format!("gaps-worker-{i}"))
                    .spawn(move || {
                        for job in rx {
                            run_job(&gauges, job);
                        }
                        gauges.workers.fetch_sub(1, SeqCst);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        TaskPool {
            gauges,
            sender: Mutex::new(Some(tx)),
            receiver: rx,
            workers: Mutex::new(workers),
            max_threads,
            queue_capacity: queue_capacity as u64,
            idle_timeout,
        }
    }

    /// Spawn one grown worker if the live count is below the cap,
    /// handing it `first` to run before it starts reading the queue.
    /// Returns whether a worker was added; if not, `first` is dropped
    /// unrun. The slot is reserved with an atomic compare-and-update,
    /// so concurrent submitters never overshoot `max_threads`; no lock
    /// is held anywhere near the worker's channel loop.
    fn spawn_extra(&self, first: Option<Job>) -> bool {
        let cap = self.max_threads as u64;
        if self
            .gauges
            .workers
            .fetch_update(SeqCst, SeqCst, |w| (w < cap).then_some(w + 1))
            .is_err()
        {
            return false;
        }
        let rx = self.receiver.clone();
        let gauges = Arc::clone(&self.gauges);
        let idle_timeout = self.idle_timeout;
        let seq = self.gauges.spawn_seq.fetch_add(1, SeqCst);
        self.gauges
            .peak_workers
            .fetch_max(self.gauges.workers.load(SeqCst), SeqCst);
        let spawned = thread::Builder::new()
            .name(format!("gaps-worker-x{seq}"))
            .spawn(move || {
                if let Some(job) = first {
                    run_job(&gauges, job);
                }
                // Patience deadline, not a raw recv_timeout: the worker
                // retires only once it has *accumulated* idle_timeout of
                // continuous idleness, robust to early condvar wakeups.
                let mut idle_since = Instant::now();
                loop {
                    match rx.recv_timeout(idle_timeout) {
                        Ok(job) => {
                            run_job(&gauges, job);
                            idle_since = Instant::now();
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if idle_since.elapsed() >= idle_timeout {
                                break;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                gauges.workers.fetch_sub(1, SeqCst);
            });
        match spawned {
            Ok(handle) => {
                // Retired workers' handles stay in the registry until
                // shutdown joins them; the threads themselves are gone.
                self.workers.lock().push(handle);
                true
            }
            Err(_) => {
                self.gauges.workers.fetch_sub(1, SeqCst);
                false
            }
        }
    }

    /// Grow if the queue shows pressure: jobs waiting while every live
    /// worker is busy.
    fn maybe_grow(&self) {
        if self.gauges.queued.load(SeqCst) > 0
            && self.gauges.active.load(SeqCst) >= self.gauges.workers.load(SeqCst)
        {
            self.spawn_extra(None);
        }
    }

    /// Submit a job without blocking. `Err(Full)` is the backpressure
    /// signal; `Err(Closed)` means the pool was shut down.
    ///
    /// Admission counts jobs, not channel slots: a job is refused only
    /// when `queue_capacity` jobs would wait beyond one per live worker.
    /// A worker that has not yet woken to drain the queue therefore
    /// never turns into a spurious `Full`; the channel carries
    /// `max_threads` slots of slack for the jobs in that hand-over. Past
    /// the limit an elastic pool grows one worker, which takes the job
    /// as its first task; only at the worker cap does `Full` surface.
    pub fn try_submit<F>(&self, job: F) -> Result<(), SubmitError>
    where
        F: FnOnce() + Send + 'static,
    {
        // Clone the sender out of the guard so the (non-blocking) channel
        // op below runs with no lock held.
        let sender = match self.sender.lock().as_ref() {
            Some(tx) => tx.clone(),
            None => return Err(SubmitError::Closed),
        };
        // Count before sending so a worker's decrement (which can only
        // follow a successful send) never underflows the gauge.
        let queued = self.gauges.queued.fetch_add(1, SeqCst) + 1;
        let mut job: Job = Box::new(job);
        let limit = self.gauges.workers.load(SeqCst) + self.queue_capacity;
        if queued + self.gauges.active.load(SeqCst) <= limit {
            match sender.try_send(job) {
                Ok(()) => {
                    self.maybe_grow();
                    return Ok(());
                }
                Err(err) if err.is_full() => job = err.into_inner(),
                Err(_) => {
                    self.gauges.queued.fetch_sub(1, SeqCst);
                    return Err(SubmitError::Closed);
                }
            }
        }
        if self.spawn_extra(Some(job)) {
            Ok(())
        } else {
            self.gauges.queued.fetch_sub(1, SeqCst);
            Err(SubmitError::Full)
        }
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queued(&self) -> u64 {
        self.gauges.queued.load(SeqCst)
    }

    /// Live worker threads right now (grown workers included until they
    /// retire).
    pub fn workers(&self) -> u64 {
        self.gauges.workers.load(SeqCst)
    }

    /// High-water mark of live workers over the pool's lifetime.
    pub fn peak_workers(&self) -> u64 {
        self.gauges.peak_workers.load(SeqCst)
    }

    /// Jobs currently executing.
    pub fn active(&self) -> u64 {
        self.gauges.active.load(SeqCst)
    }

    /// Jobs that panicked (caught; the worker survived).
    pub fn panicked(&self) -> u64 {
        self.gauges.panicked.load(SeqCst)
    }

    /// Stop accepting, run every already-queued job, and join the
    /// workers. Idempotent; the graceful-shutdown drain.
    pub fn shutdown(&self) {
        let sender = self.sender.lock().take();
        // Dropping the last pool-held sender ends the workers' intake
        // iterators once the queue drains.
        drop(sender);
        let workers = std::mem::take(&mut *self.workers.lock());
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..500).collect();
        let doubled = map_ordered(items, 8, |_, x| x * 2);
        assert_eq!(doubled, (0..500).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_and_many_threads_agree() {
        let items: Vec<u64> = (0..200).collect();
        let one = map_ordered(items.clone(), 1, |i, x| (i as u64) * 1000 + x);
        let many = map_ordered(items, 7, |i, x| (i as u64) * 1000 + x);
        assert_eq!(one, many);
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let results = map_ordered((0..300).collect::<Vec<_>>(), 4, |_, x: i32| {
            calls.fetch_add(1, SeqCst);
            x
        });
        assert_eq!(results.len(), 300);
        assert_eq!(calls.load(SeqCst), 300);
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let out: Vec<i32> = map_ordered(Vec::<i32>::new(), 4, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let out = map_ordered(vec![1, 2, 3], 0, |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn absurd_thread_counts_are_clamped_to_the_item_count() {
        let out = map_ordered(vec![1, 2, 3], 500_000, |_, x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn borrowed_state_is_visible_to_workers() {
        let offsets: Vec<i64> = vec![10, 20, 30];
        let offsets = &offsets;
        let out = map_ordered(vec![0usize, 1, 2], 3, |_, i| offsets[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn task_pool_runs_submitted_jobs_and_drains_on_shutdown() {
        let pool = TaskPool::new(2, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                done.fetch_add(1, SeqCst);
            })
            .expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(done.load(SeqCst), 50);
        assert_eq!(pool.queued(), 0);
        assert_eq!(pool.active(), 0);
        assert_eq!(pool.panicked(), 0);
    }

    #[test]
    fn task_pool_reports_full_then_recovers() {
        let pool = TaskPool::new(1, 1);
        // Gate the single worker so the queue can actually fill.
        let (gate_tx, gate_rx) = channel::bounded::<()>(4);
        pool.try_submit(move || {
            let _ = gate_rx.recv();
        })
        .expect("first job admitted");
        // Wait for the worker to pick the blocker up, then fill the
        // one-slot queue; the next submit must refuse, not block.
        while pool.active() == 0 {
            std::hint::spin_loop();
        }
        pool.try_submit(|| {}).expect("second job fills the queue");
        let mut saw_full = false;
        for _ in 0..100 {
            match pool.try_submit(|| {}) {
                Err(SubmitError::Full) => {
                    saw_full = true;
                    break;
                }
                // A race (worker dequeued between submits) re-fills;
                // keep probing.
                Ok(()) => {}
                Err(SubmitError::Closed) => panic!("pool is not closed"),
            }
        }
        assert!(saw_full, "a bounded queue must eventually report Full");
        gate_tx.send(()).expect("worker is alive");
        pool.shutdown();
    }

    #[test]
    fn task_pool_refuses_after_shutdown() {
        let pool = TaskPool::new(1, 4);
        pool.shutdown();
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::Closed));
        // Shutdown twice is fine.
        pool.shutdown();
    }

    #[test]
    fn task_pool_survives_a_panicking_job() {
        let pool = TaskPool::new(1, 8);
        let done = Arc::new(AtomicUsize::new(0));
        pool.try_submit(|| panic!("job panics")).expect("admitted");
        let done2 = Arc::clone(&done);
        pool.try_submit(move || {
            done2.fetch_add(1, SeqCst);
        })
        .expect("admitted after panic");
        pool.shutdown();
        assert_eq!(done.load(SeqCst), 1, "worker survived the panic");
        assert_eq!(pool.panicked(), 1);
    }

    /// Spin until `cond` holds or ~2s pass; elastic resize is
    /// asynchronous, so tests wait on the gauges rather than sleeping
    /// fixed amounts.
    fn wait_until(cond: impl Fn() -> bool) -> bool {
        for _ in 0..2_000 {
            if cond() {
                return true;
            }
            thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn elastic_pool_grows_under_pressure_and_shrinks_when_idle() {
        let pool = TaskPool::elastic(1, 3, 8, Duration::from_millis(30));
        assert_eq!(pool.workers(), 1);
        let (gate_tx, gate_rx) = channel::bounded::<()>(8);
        let done = Arc::new(AtomicUsize::new(0));
        // Submit three blocked jobs, letting each be picked up before
        // the next: every later submit then observes genuine pressure
        // (all live workers busy, a job queued) and grows the pool.
        for n in 1..=3u64 {
            let gate_rx = gate_rx.clone();
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                let _ = gate_rx.recv();
                done.fetch_add(1, SeqCst);
            })
            .expect("queue has room");
            assert!(
                wait_until(|| pool.active() == n),
                "job {n} picked up (active = {})",
                pool.active()
            );
        }
        assert_eq!(
            pool.workers(),
            3,
            "three blocked jobs against one core worker grow to the cap"
        );
        assert_eq!(pool.peak_workers(), 3);
        for _ in 0..3 {
            gate_tx.send(()).expect("a worker is alive");
        }
        assert!(wait_until(|| done.load(SeqCst) == 3), "all jobs ran");
        // Grown workers retire after idling past the timeout; the core
        // worker stays.
        assert!(
            wait_until(|| pool.workers() == 1),
            "grown workers retired (workers = {})",
            pool.workers()
        );
        // A shrunk pool still accepts and runs work.
        let done2 = Arc::clone(&done);
        pool.try_submit(move || {
            done2.fetch_add(1, SeqCst);
        })
        .expect("accepts after shrink");
        pool.shutdown();
        assert_eq!(done.load(SeqCst), 4);
        assert_eq!(pool.workers(), 0, "every worker joined");
        assert_eq!(pool.peak_workers(), 3);
    }

    #[test]
    fn fixed_pool_never_grows() {
        let pool = TaskPool::new(2, 1);
        assert_eq!(pool.workers(), 2);
        let (gate_tx, gate_rx) = channel::bounded::<()>(8);
        for n in 1..=2u64 {
            let gate_rx = gate_rx.clone();
            pool.try_submit(move || {
                let _ = gate_rx.recv();
            })
            .expect("admitted");
            // Let the one-slot queue drain before the next submit.
            assert!(wait_until(|| pool.active() == n), "job {n} picked up");
        }
        pool.try_submit(|| {}).expect("fills the one-slot queue");
        // Queue full + all workers busy: a fixed pool must refuse, not
        // grow.
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::Full));
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.peak_workers(), 2);
        gate_tx.send(()).expect("alive");
        gate_tx.send(()).expect("alive");
        pool.shutdown();
    }

    #[test]
    fn elastic_pool_reports_full_only_at_the_cap() {
        let pool = TaskPool::elastic(1, 2, 1, Duration::from_millis(200));
        let (gate_tx, gate_rx) = channel::bounded::<()>(8);
        let submit_blocked = |pool: &TaskPool| {
            let gate_rx = gate_rx.clone();
            pool.try_submit(move || {
                let _ = gate_rx.recv();
            })
        };
        // Saturate: every admission either runs (on a core or grown
        // worker) or queues; only once workers == cap and the queue is
        // full may Full surface.
        let mut admitted = 0;
        let mut saw_full = false;
        for _ in 0..50 {
            match submit_blocked(&pool) {
                Ok(()) => admitted += 1,
                Err(SubmitError::Full) => {
                    saw_full = true;
                    break;
                }
                Err(SubmitError::Closed) => panic!("pool is not closed"),
            }
        }
        assert!(saw_full, "the bounded queue still backpressures");
        // 2 workers (grown to cap) + 1 queued slot.
        assert!(admitted >= 3, "admitted {admitted}");
        assert_eq!(pool.workers(), 2, "grew exactly to the cap");
        for _ in 0..admitted {
            gate_tx.send(()).expect("alive");
        }
        pool.shutdown();
    }

    #[test]
    fn background_thread_is_named_and_joinable() {
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let handle = background("test-util", move || {
            ran2.fetch_add(1, SeqCst);
        });
        handle.join().expect("background thread joins");
        assert_eq!(ran.load(SeqCst), 1);
    }
}
