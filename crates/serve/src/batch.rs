//! Cross-request batching: concurrently arriving samples coalesce into
//! one panel through a bounded window (N samples or T µs, whichever
//! fills first) and run through the engine's batched seams in a single
//! pass.
//!
//! Correctness rests on the per-column batch invariance of
//! [`crate::FrozenDetector::score_samples`]: a sample's score depends
//! only on its row and its stable id, never on what else shares the
//! panel, so coalescing changes throughput and nothing else. The same
//! invariance powers failure isolation: when a panel fails, each row is
//! rescored alone under its original sample id — innocent rows get the
//! exact score they would have received in the batch, and only the
//! offending request sees the error.
//!
//! Overload protection: the submission queue is **bounded**
//! ([`OverloadPolicy::queue_capacity`]). When a slow or wedged backend
//! lets the queue fill, further submissions are *shed* with a typed
//! [`ServeError::Overloaded`] instead of growing the queue without
//! bound — co-batched requests that made it into the queue still score
//! normally. An optional per-request deadline
//! ([`OverloadPolicy::request_deadline`]) bounds how long a submitter
//! waits for its batch to complete; an expired deadline also surfaces
//! as [`ServeError::Overloaded`] (the request may still be scored by
//! the worker, but nobody is waiting — scoring is stateless, so a
//! dropped reply leaks nothing).

use crate::error::ServeError;
use crate::frozen::FrozenDetector;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Anything that can score a coalesced panel of rows under stable sample
/// ids. The batcher is generic over this seam: the server runs it over a
/// [`FrozenDetector`], and tests run it over scorers they can stall.
///
/// Implementations must be coalescing-invariant: a row's score depends
/// only on the row and its id, never on panel company. The batcher's
/// failure-isolation rescore relies on this.
pub trait PanelScorer: Send + Sync + std::fmt::Debug {
    /// The feature width every row must have.
    fn num_features(&self) -> usize;

    /// Scores `rows` as one panel; row `j` is sample `first_sample_id + j`.
    ///
    /// # Errors
    ///
    /// Row validation and scoring failures, as [`ServeError`].
    fn score_panel(&self, rows: &[Vec<f64>], first_sample_id: u64) -> Result<Vec<f64>, ServeError>;
}

impl PanelScorer for FrozenDetector {
    fn num_features(&self) -> usize {
        FrozenDetector::num_features(self)
    }

    fn score_panel(&self, rows: &[Vec<f64>], first_sample_id: u64) -> Result<Vec<f64>, ServeError> {
        self.score_samples(rows, first_sample_id)
    }
}

/// How aggressively concurrent requests coalesce into one panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoalescePolicy {
    /// Dispatch as soon as this many samples are pending.
    pub max_batch: usize,
    /// Dispatch a partial batch after waiting this long for company.
    pub max_wait: Duration,
}

impl Default for CoalescePolicy {
    fn default() -> Self {
        CoalescePolicy {
            max_batch: 32,
            max_wait: Duration::from_micros(500),
        }
    }
}

/// Load-shedding limits for the batching queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// Maximum samples waiting in the submission queue; a submission
    /// beyond this is shed with [`ServeError::Overloaded`] instead of
    /// growing the queue. Zero means "shed everything" (useful in
    /// tests); there is no unbounded setting — a queue nobody bounds is
    /// how a slow consumer takes the process down.
    pub queue_capacity: usize,
    /// How long a submitter waits for its coalesced batch to complete
    /// before giving up with [`ServeError::Overloaded`]. `None` waits
    /// indefinitely.
    pub request_deadline: Option<Duration>,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy {
            // Deep enough that shedding only starts when the backend is
            // genuinely behind (128 max-size panels), small enough that
            // the queue can never hold more than a few MiB of rows.
            queue_capacity: 4096,
            request_deadline: None,
        }
    }
}

/// The channel a scored sample's result travels back on.
type ReplySender = Sender<Result<f64, ServeError>>;

/// One enqueued sample and the channel its score goes back on.
struct Request {
    row: Vec<f64>,
    reply: ReplySender,
}

/// The batching worker: owns the submission queue, coalesces pending
/// requests into panels, scores each panel once and fans results back
/// out. Dropping the scorer drains the queue and joins the worker.
#[derive(Debug)]
pub struct BatchScorer {
    tx: Option<Sender<Request>>,
    worker: Option<JoinHandle<()>>,
    num_features: usize,
    overload: OverloadPolicy,
    batches: Arc<AtomicU64>,
    samples: Arc<AtomicU64>,
    /// Samples enqueued but not yet pulled into a panel.
    depth: Arc<AtomicUsize>,
    /// Submissions shed because the queue was full.
    shed: Arc<AtomicU64>,
}

impl BatchScorer {
    /// Starts the batching worker over any panel scorer — a frozen
    /// detector (`Arc<FrozenDetector>`) or an already-erased
    /// `Arc<dyn PanelScorer>` — with default overload limits.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spawn`] when the worker thread cannot be spawned.
    pub fn start<S: PanelScorer + ?Sized + 'static>(
        scorer: Arc<S>,
        policy: CoalescePolicy,
    ) -> Result<Self, ServeError> {
        Self::start_with(scorer, policy, OverloadPolicy::default())
    }

    /// [`BatchScorer::start`] with explicit overload limits.
    ///
    /// # Errors
    ///
    /// [`ServeError::Spawn`] when the worker thread cannot be spawned.
    pub fn start_with<S: PanelScorer + ?Sized + 'static>(
        scorer: Arc<S>,
        policy: CoalescePolicy,
        overload: OverloadPolicy,
    ) -> Result<Self, ServeError> {
        let (tx, rx) = mpsc::channel::<Request>();
        let num_features = scorer.num_features();
        let batches = Arc::new(AtomicU64::new(0));
        let samples = Arc::new(AtomicU64::new(0));
        let depth = Arc::new(AtomicUsize::new(0));
        let shed = Arc::new(AtomicU64::new(0));
        let batches_in = Arc::clone(&batches);
        let samples_in = Arc::clone(&samples);
        let depth_in = Arc::clone(&depth);
        let worker = std::thread::Builder::new()
            .name("quorum-batcher".into())
            .spawn(move || {
                batcher_loop(&*scorer, &policy, &rx, &batches_in, &samples_in, &depth_in)
            })
            .map_err(|e| ServeError::spawn("quorum-batcher", e))?;
        Ok(BatchScorer {
            tx: Some(tx),
            worker: Some(worker),
            num_features,
            overload,
            batches,
            samples,
            depth,
            shed,
        })
    }

    /// A cloneable submission handle for connection threads.
    pub fn handle(&self) -> BatchHandle {
        BatchHandle {
            tx: self.tx.as_ref().expect("queue lives until drop").clone(),
            num_features: self.num_features,
            overload: self.overload,
            depth: Arc::clone(&self.depth),
            shed: Arc::clone(&self.shed),
        }
    }

    /// Scores one sample through the coalescing queue, blocking until
    /// its batch completes (or the configured deadline expires).
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] for a wrong-width row (rejected at
    /// enqueue, before it can occupy a panel slot);
    /// [`ServeError::Overloaded`] when the queue is full or the
    /// deadline expires; request and scoring failures from the worker;
    /// [`ServeError::Io`] if the worker is gone.
    pub fn score(&self, row: Vec<f64>) -> Result<f64, ServeError> {
        self.handle().score(row)
    }

    /// Panels dispatched so far — the coalescing regression tests assert
    /// this grows slower than the sample count.
    pub fn batches_dispatched(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Samples scored so far.
    pub fn samples_scored(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Samples currently waiting in the submission queue.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Submissions shed so far because the queue was at capacity.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

impl Drop for BatchScorer {
    fn drop(&mut self) {
        // Closing the queue lets the worker drain pending requests and
        // exit its recv loop.
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// A cheap cloneable handle for submitting samples to the batcher.
#[derive(Debug, Clone)]
pub struct BatchHandle {
    tx: Sender<Request>,
    num_features: usize,
    overload: OverloadPolicy,
    depth: Arc<AtomicUsize>,
    shed: Arc<AtomicU64>,
}

impl BatchHandle {
    /// The feature width the scorer expects.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Scores one sample through the coalescing queue, blocking until
    /// its batch completes (or the configured deadline expires).
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] for a wrong-width row (rejected here, at
    /// enqueue — a malformed submission must never occupy a slot in a
    /// coalesced panel); [`ServeError::Overloaded`] when the submission
    /// queue is at capacity (the request is shed, not queued) or when
    /// the per-request deadline expires before the batch completes;
    /// request and scoring failures from the worker; [`ServeError::Io`]
    /// if the worker is gone.
    pub fn score(&self, row: Vec<f64>) -> Result<f64, ServeError> {
        if row.len() != self.num_features {
            return Err(ServeError::Request(format!(
                "expected {} features, got {}",
                self.num_features,
                row.len()
            )));
        }
        // Load shedding: claim a queue slot or bounce. The counter is
        // decremented by the worker as it pulls requests into a panel,
        // so `depth` bounds memory held by not-yet-scored submissions.
        let occupied = self.depth.fetch_add(1, Ordering::AcqRel);
        if occupied >= self.overload.queue_capacity {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded(format!(
                "submission queue is full ({} pending samples); retry after a backoff",
                self.overload.queue_capacity
            )));
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        if self
            .tx
            .send(Request {
                row,
                reply: reply_tx,
            })
            .is_err()
        {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(worker_gone());
        }
        match self.overload.request_deadline {
            None => reply_rx.recv().map_err(|_| worker_gone())?,
            Some(deadline) => match reply_rx.recv_timeout(deadline) {
                Ok(result) => result,
                Err(RecvTimeoutError::Timeout) => Err(ServeError::Overloaded(format!(
                    "request deadline {deadline:?} expired before its batch completed"
                ))),
                Err(RecvTimeoutError::Disconnected) => Err(worker_gone()),
            },
        }
    }
}

fn worker_gone() -> ServeError {
    ServeError::Io(std::io::Error::new(
        std::io::ErrorKind::BrokenPipe,
        "the batching worker has shut down",
    ))
}

/// The worker body: block for the first request, then top the batch up
/// until it is full or the window closes, score the panel once, fan out.
fn batcher_loop<S: PanelScorer + ?Sized>(
    scorer: &S,
    policy: &CoalescePolicy,
    rx: &Receiver<Request>,
    batches: &AtomicU64,
    samples: &AtomicU64,
    depth: &AtomicUsize,
) {
    let max_batch = policy.max_batch.max(1);
    let mut next_id: u64 = 0;
    while let Ok(first) = rx.recv() {
        depth.fetch_sub(1, Ordering::AcqRel);
        let mut batch = vec![first];
        let deadline = Instant::now() + policy.max_wait;
        while batch.len() < max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(request) => {
                    depth.fetch_sub(1, Ordering::AcqRel);
                    batch.push(request);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Rows move into the panel; replies fan back out by index.
        let (rows, replies): (Vec<Vec<f64>>, Vec<ReplySender>) =
            batch.into_iter().map(|r| (r.row, r.reply)).unzip();
        let first_id = next_id;
        next_id = next_id.wrapping_add(rows.len() as u64);
        batches.fetch_add(1, Ordering::Relaxed);
        samples.fetch_add(rows.len() as u64, Ordering::Relaxed);
        match scorer.score_panel(&rows, first_id) {
            Ok(scores) => {
                for (reply, score) in replies.iter().zip(scores) {
                    let _ = reply.send(Ok(score));
                }
            }
            Err(_) => {
                // Failure isolation: one bad row must not fail its panel
                // company. Rescore each row alone under its original id —
                // coalescing invariance guarantees good rows get the exact
                // score the batch would have produced, and only offending
                // rows carry an error back.
                for (j, (row, reply)) in rows.into_iter().zip(replies).enumerate() {
                    let solo = scorer
                        .score_panel(std::slice::from_ref(&row), first_id.wrapping_add(j as u64));
                    let _ = reply.send(solo.map(|scores| scores[0]));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panel scorer that blocks on a gate, so tests can hold a batch
    /// in flight while the queue fills behind it. `panels_started`
    /// counts panels that reached the scorer — once it ticks, the
    /// in-flight request is definitively out of the queue.
    #[derive(Debug)]
    struct GatedScorer {
        gate: std::sync::Mutex<()>,
        panels_started: AtomicUsize,
    }

    impl GatedScorer {
        fn new() -> Arc<Self> {
            Arc::new(GatedScorer {
                gate: std::sync::Mutex::new(()),
                panels_started: AtomicUsize::new(0),
            })
        }
    }

    impl PanelScorer for GatedScorer {
        fn num_features(&self) -> usize {
            2
        }

        fn score_panel(
            &self,
            rows: &[Vec<f64>],
            first_sample_id: u64,
        ) -> Result<Vec<f64>, ServeError> {
            self.panels_started.fetch_add(1, Ordering::SeqCst);
            let _held = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            Ok(rows
                .iter()
                .enumerate()
                .map(|(j, row)| row.iter().sum::<f64>() + (first_sample_id + j as u64) as f64 * 0.0)
                .collect())
        }
    }

    fn wait_until(deadline_secs: u64, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(deadline_secs);
        while !done() {
            assert!(Instant::now() < deadline, "condition never became true");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn full_queue_sheds_with_a_typed_overloaded_error() {
        let scorer = GatedScorer::new();
        let batcher = BatchScorer::start_with(
            Arc::clone(&scorer),
            CoalescePolicy {
                max_batch: 1,
                max_wait: Duration::from_micros(1),
            },
            OverloadPolicy {
                queue_capacity: 1,
                request_deadline: None,
            },
        )
        .unwrap();
        // Hold the backend so the first submission blocks mid-panel and
        // later ones pile into the bounded queue.
        let gate = scorer.gate.lock().unwrap();
        let in_flight = {
            let handle = batcher.handle();
            std::thread::spawn(move || handle.score(vec![1.0, 2.0]))
        };
        // Wait until the worker has pulled the first request into a
        // panel (it is now blocked on the gate, the queue is empty).
        wait_until(5, || scorer.panels_started.load(Ordering::SeqCst) >= 1);
        let queued = {
            let handle = batcher.handle();
            std::thread::spawn(move || handle.score(vec![3.0, 4.0]))
        };
        // Wait for the queued submission to claim the only queue slot.
        wait_until(5, || batcher.queue_depth() >= 1);
        // The queue is full: this submission must shed, typed.
        let shed = batcher.score(vec![5.0, 6.0]);
        assert!(
            matches!(shed, Err(ServeError::Overloaded(_))),
            "got {shed:?}"
        );
        assert_eq!(batcher.shed_total(), 1);
        drop(gate);
        assert_eq!(in_flight.join().unwrap().unwrap(), 3.0);
        assert_eq!(queued.join().unwrap().unwrap(), 7.0);
        assert_eq!(batcher.queue_depth(), 0);
    }

    #[test]
    fn expired_deadline_is_a_typed_overloaded_error() {
        let scorer = GatedScorer::new();
        let batcher = BatchScorer::start_with(
            Arc::clone(&scorer),
            CoalescePolicy {
                max_batch: 1,
                max_wait: Duration::from_micros(1),
            },
            OverloadPolicy {
                queue_capacity: 16,
                request_deadline: Some(Duration::from_millis(20)),
            },
        )
        .unwrap();
        let gate = scorer.gate.lock().unwrap();
        let err = batcher.score(vec![1.0, 1.0]).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded(_)), "got {err:?}");
        assert!(err.to_string().contains("deadline"));
        drop(gate);
        // The backend recovers: a fresh request scores normally.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match batcher.score(vec![2.0, 3.0]) {
                Ok(score) => {
                    assert_eq!(score, 5.0);
                    break;
                }
                Err(ServeError::Overloaded(_)) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let scorer = GatedScorer::new();
        let batcher = BatchScorer::start_with(
            scorer,
            CoalescePolicy::default(),
            OverloadPolicy {
                queue_capacity: 0,
                request_deadline: None,
            },
        )
        .unwrap();
        assert!(matches!(
            batcher.score(vec![1.0, 2.0]),
            Err(ServeError::Overloaded(_))
        ));
        assert_eq!(batcher.shed_total(), 1);
    }
}
