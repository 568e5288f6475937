//! Bounded work queue with a fixed worker pool and in-flight coalescing.
//!
//! Connection threads never compute: they [`WorkQueue::submit`] a job
//! keyed by its result identity and block on the returned [`Job`]
//! latch. The queue gives the service its overload behavior:
//!
//! - a submission whose key is already queued or executing coalesces
//!   onto that job (both callers get the same bytes, one computation);
//! - a submission that would exceed the queue bound is rejected
//!   (`Err(SubmitError::Full)` → the router's `503` + `Retry-After`),
//!   so overload sheds load instead of growing threads;
//! - a panicking job is isolated: the panic is caught on the worker,
//!   every waiter gets `Err(message)`, and the worker survives.
//!
//! [`WorkQueue::shutdown`] is graceful: submissions stop, workers drain
//! everything already queued (every accepted request gets its answer),
//! then exit and are joined.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::metrics::Metrics;

/// The bytes a finished job hands every waiter.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Response body (canonical JSON).
    pub body: Vec<u8>,
    /// sha256 of `body` — the response `ETag`.
    pub etag: String,
}

/// What a job produces: output, or an error message (harness failure or
/// an isolated panic).
pub type JobResult = Result<JobOutput, String>;

type JobFn = Box<dyn FnOnce() -> JobResult + Send>;

/// Completion latch for one submitted computation. Cheap to clone via
/// `Arc`; every coalesced caller waits on the same instance.
#[derive(Debug)]
pub struct Job {
    key: String,
    result: Mutex<Option<JobResult>>,
    cv: Condvar,
}

impl Job {
    fn new(key: String) -> Job {
        Job {
            key,
            result: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// The result key this job computes.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Blocks until the job completes, then returns (a clone of) its
    /// result.
    pub fn wait(&self) -> JobResult {
        let mut slot = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Whether the job has completed (non-blocking).
    pub fn is_done(&self) -> bool {
        self.result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    fn complete(&self, result: JobResult) {
        *self.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.cv.notify_all();
    }
}

/// Outcome of a successful [`WorkQueue::submit`].
#[derive(Debug, Clone)]
pub enum Submitted {
    /// The job was enqueued; this caller's closure will run.
    New(Arc<Job>),
    /// An identical job was already in flight; the closure was dropped
    /// and this caller shares that job's latch.
    Coalesced(Arc<Job>),
}

impl Submitted {
    /// The latch to wait on, either way.
    pub fn job(&self) -> &Arc<Job> {
        match self {
            Submitted::New(job) | Submitted::Coalesced(job) => job,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry later (`503` + `Retry-After`).
    Full,
    /// The service is shutting down; no new work is accepted.
    ShuttingDown,
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<(Arc<Job>, JobFn)>,
    /// Jobs queued or executing, by result key — the coalescing index.
    in_flight: BTreeMap<String, Arc<Job>>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<QueueState>,
    /// Wakes workers when work arrives or shutdown begins.
    work_cv: Condvar,
    capacity: usize,
    metrics: Arc<Metrics>,
    /// Which per-shard metric slice this queue feeds.
    shard: usize,
}

/// The bounded queue plus its worker pool.
pub struct WorkQueue {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl std::fmt::Debug for WorkQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkQueue")
            .field("capacity", &self.inner.capacity)
            .finish_non_exhaustive()
    }
}

impl WorkQueue {
    /// Starts `workers` worker threads draining a queue bounded at
    /// `capacity` pending jobs (executing jobs do not count against the
    /// bound). Counters feed the metric slice of campaign shard `shard`
    /// (the service runs one queue per shard).
    #[expect(
        clippy::disallowed_methods,
        reason = "the queue's fixed pool of named worker threads; jobs carry their own result latch, so completion order cannot reach a response"
    )]
    pub fn new(workers: usize, capacity: usize, metrics: Arc<Metrics>, shard: usize) -> WorkQueue {
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState::default()),
            work_cv: Condvar::new(),
            capacity: capacity.max(1),
            metrics,
            shard,
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rsls-serve-worker-{shard}-{i}"))
                    .spawn(move || worker_loop(&inner))
            })
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_default();
        WorkQueue {
            inner,
            workers: Mutex::new(handles),
            stopped: AtomicBool::new(false),
        }
    }

    /// Submits a computation for `key`. See the module docs for the
    /// coalesce/reject semantics.
    pub fn submit(
        &self,
        key: &str,
        job: impl FnOnce() -> JobResult + Send + 'static,
    ) -> Result<Submitted, SubmitError> {
        let mut state = self
            .inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if let Some(existing) = state.in_flight.get(key) {
            let job = Arc::clone(existing);
            drop(state);
            self.inner.metrics.job_coalesced_on(self.inner.shard);
            return Ok(Submitted::Coalesced(job));
        }
        if state.queue.len() >= self.inner.capacity {
            drop(state);
            self.inner.metrics.queue_rejected();
            return Err(SubmitError::Full);
        }
        let handle = Arc::new(Job::new(key.to_string()));
        state.in_flight.insert(key.to_string(), Arc::clone(&handle));
        state.queue.push_back((Arc::clone(&handle), Box::new(job)));
        drop(state);
        self.inner.metrics.queue_depth_add_on(self.inner.shard, 1);
        self.inner.work_cv.notify_one();
        Ok(Submitted::New(handle))
    }

    /// Stops accepting work, drains every already-queued job, and joins
    /// the workers. Idempotent.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut state = self
                .inner
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        let handles =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let (job, work) = {
            let mut state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(item) = state.queue.pop_front() {
                    break item;
                }
                if state.shutdown {
                    return;
                }
                state = inner
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        inner.metrics.queue_depth_add_on(inner.shard, -1);
        inner.metrics.workers_busy_add(1);
        // Panic isolation: a harness panic becomes an error result for
        // every waiter; the worker thread itself survives.
        let result = panic::catch_unwind(AssertUnwindSafe(work))
            .unwrap_or_else(|payload| Err(format!("job panicked: {}", panic_message(&*payload))));
        inner.metrics.workers_busy_add(-1);
        // De-index before publishing: once a result is observable, the
        // key is free for a fresh (non-coalesced) computation.
        inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_flight
            .remove(job.key());
        job.complete(result);
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    fn output(s: &str) -> JobOutput {
        JobOutput {
            body: s.as_bytes().to_vec(),
            etag: rsls_core::sha256_hex(s.as_bytes()),
        }
    }

    #[test]
    fn runs_a_job_and_returns_its_output() {
        let q = WorkQueue::new(2, 4, Arc::new(Metrics::new()), 0);
        let submitted = q.submit("k", || Ok(output("hello"))).unwrap();
        assert!(matches!(submitted, Submitted::New(_)));
        assert_eq!(submitted.job().wait().unwrap().body, b"hello");
    }

    #[test]
    fn duplicate_in_flight_submissions_coalesce() {
        let metrics = Arc::new(Metrics::new());
        let q = WorkQueue::new(1, 4, Arc::clone(&metrics), 0);
        let runs = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);

        let runs_leader = Arc::clone(&runs);
        let leader = q
            .submit("same-key", move || {
                runs_leader.fetch_add(1, Ordering::SeqCst);
                let _ = release_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10));
                Ok(output("computed-once"))
            })
            .unwrap();
        // Wait until the single worker has actually started the leader.
        while metrics.queue_depth() != 0 {
            std::thread::yield_now();
        }
        let runs_dup = Arc::clone(&runs);
        let follower = q
            .submit("same-key", move || {
                runs_dup.fetch_add(1, Ordering::SeqCst);
                Ok(output("must-not-run"))
            })
            .unwrap();
        assert!(matches!(follower, Submitted::Coalesced(_)));
        assert!(Arc::ptr_eq(leader.job(), follower.job()));
        release_tx.send(()).unwrap();

        assert_eq!(leader.job().wait().unwrap().body, b"computed-once");
        assert_eq!(follower.job().wait().unwrap().body, b"computed-once");
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(metrics.coalesced_total(), 1);
        // Key freed after completion: a new submit runs fresh.
        let again = q.submit("same-key", || Ok(output("fresh"))).unwrap();
        assert!(matches!(again, Submitted::New(_)));
        assert_eq!(again.job().wait().unwrap().body, b"fresh");
    }

    #[test]
    fn full_queue_rejects_and_drains_after_space_frees() {
        let metrics = Arc::new(Metrics::new());
        let q = WorkQueue::new(1, 1, Arc::clone(&metrics), 0);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let blocker = q
            .submit("blocker", move || {
                let _ = release_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10));
                Ok(output("done"))
            })
            .unwrap();
        while metrics.queue_depth() != 0 {
            std::thread::yield_now();
        }
        // Worker busy; capacity 1 → one queued job fits, the next is shed.
        let queued = q.submit("queued", || Ok(output("q"))).unwrap();
        assert!(matches!(queued, Submitted::New(_)));
        assert!(matches!(
            q.submit("shed", || Ok(output("s"))),
            Err(SubmitError::Full)
        ));
        release_tx.send(()).unwrap();
        assert!(blocker.job().wait().is_ok());
        assert!(queued.job().wait().is_ok());
    }

    #[test]
    fn panicking_job_fails_waiters_but_not_the_worker() {
        let q = WorkQueue::new(1, 4, Arc::new(Metrics::new()), 0);
        let boom = q
            .submit("boom", || panic!("kaboom in the harness"))
            .unwrap();
        let err = boom.job().wait().unwrap_err();
        assert!(err.contains("kaboom"), "got: {err}");
        // The worker survived and still serves jobs.
        let ok = q.submit("after", || Ok(output("alive"))).unwrap();
        assert_eq!(ok.job().wait().unwrap().body, b"alive");
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_rejects_new_ones() {
        let q = WorkQueue::new(1, 8, Arc::new(Metrics::new()), 0);
        let jobs: Vec<_> = (0..4)
            .map(|i| q.submit(&format!("k{i}"), move || Ok(output(&format!("v{i}")))))
            .collect::<Result<_, _>>()
            .unwrap();
        q.shutdown();
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.job().wait().unwrap().body, format!("v{i}").as_bytes());
        }
        assert!(matches!(
            q.submit("late", || Ok(output("no"))),
            Err(SubmitError::ShuttingDown)
        ));
    }
}
