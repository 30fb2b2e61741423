//! Fault-tolerant sharded serving: shard workers run under a
//! supervisor that catches panics, restarts crashed workers with
//! bounded exponential backoff, and — past a restart budget — retires
//! the failing shard and **re-folds** its groups into the survivors.
//!
//! The whole design leans on one invariant: the ensemble score is an
//! additive sum of per-group partial vectors, merged in ascending
//! group-index order, and a group's partial depends only on the group,
//! its assigned engine, the rows and the stable sample ids — never on
//! which worker thread computed it. Each group's engine assignment is
//! fixed at construction (it keeps the engine override of the shard it
//! was planned onto), so *any* group→worker placement afterwards —
//! original plan, transient fold while a shard backs off, permanent
//! re-fold after retirement — produces **bit-identical** scores.
//! Fault recovery here is re-planning, not re-computation semantics.
//!
//! Failure handling, per request:
//!
//! 1. A panel is dispatched to every live worker (each scores the
//!    groups it owns, plus a transient share of any backing-off
//!    shard's groups).
//! 2. A worker that panics mid-panel (caught by `catch_unwind`) sends
//!    a "panicked" reply and its thread exits. The supervisor notes the
//!    death: restart with exponential backoff while the shard is within
//!    its restart budget, retirement + permanent re-fold past it.
//! 3. Groups left unscored by the dead worker are re-dispatched, up to
//!    [`SupervisorPolicy::request_retries`] extra rounds; past the
//!    budget the request fails with a typed [`ServeError::Faulted`].
//!
//! Restarted workers re-warm their groups' noisy per-group caches
//! (readout forms, superoperators, channel programs) before taking
//! traffic, so a crash never turns into a latency cliff for the next
//! panel.

use crate::batch::PanelScorer;
use crate::error::ServeError;
use crate::frozen::{FrozenDetector, NormalizedPanel};
use crate::shard::{ShardPlan, ShardPolicy};
use quorum_core::config::EngineKind;
use quorum_core::QuorumError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Restart and retry budgets for a [`SupervisedScorer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// How many restarts one shard worker gets before it is retired and
    /// its groups are re-folded into the surviving shards for good.
    pub max_restarts: u64,
    /// Backoff before the first restart; doubles per consecutive
    /// restart of the same shard.
    pub backoff_base: Duration,
    /// Ceiling on the per-restart backoff.
    pub backoff_cap: Duration,
    /// Extra dispatch rounds one request may spend re-scoring groups a
    /// crashed worker left behind, before failing with
    /// [`ServeError::Faulted`].
    pub request_retries: u32,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_restarts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(2),
            request_retries: 2,
        }
    }
}

/// Where one shard worker is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardLiveness {
    /// Running (or eligible to be restarted on the next dispatch).
    Live,
    /// Crashed and waiting out its restart backoff; its groups are
    /// folded into live shards transiently, per dispatch.
    BackingOff,
    /// Past its restart budget; its groups have been re-folded into the
    /// surviving shards permanently.
    Retired,
}

/// One shard's liveness snapshot, as reported by the `Health` wire
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index in the original plan.
    pub shard: usize,
    /// Lifecycle state.
    pub liveness: ShardLiveness,
    /// How many times this shard's worker has been restarted.
    pub restarts: u64,
    /// Groups the shard currently owns (zero once retired).
    pub groups: usize,
}

/// A job fanned out to one supervised worker: the groups to score this
/// round (each with its fixed engine assignment), the shared normalized
/// panel, and the reply channel.
struct SupJob {
    groups: Arc<Vec<(usize, Option<EngineKind>)>>,
    normalized: Arc<NormalizedPanel>,
    first_sample_id: u64,
    reply: Sender<SupReply>,
}

/// Per-group partial score vectors (or per-group scoring errors) one
/// worker computed for a single dispatch round.
type GroupPartials = Vec<(usize, Result<Vec<f64>, QuorumError>)>;

/// A worker's answer. `Err(())` means the panel panicked: the worker
/// announced its own death and its thread has exited.
struct SupReply {
    worker: usize,
    epoch: u64,
    outcome: Result<GroupPartials, ()>,
}

/// The live half of one shard worker.
struct WorkerSlot {
    tx: Sender<SupJob>,
    join: JoinHandle<()>,
}

/// Supervisor-side state of one shard.
struct ShardState {
    /// Groups this shard owns, each with the engine assignment fixed at
    /// construction. Mutated only by permanent re-folds.
    groups: Vec<(usize, Option<EngineKind>)>,
    restarts: u64,
    retired: bool,
    /// While `Some` and in the future, the shard is backing off and its
    /// groups ride on live shards for each dispatch.
    down_until: Option<Instant>,
    /// Bumped per spawn so late replies from a previous incarnation
    /// cannot be mistaken for the current worker's.
    epoch: u64,
    worker: Option<WorkerSlot>,
}

struct Inner {
    shards: Vec<ShardState>,
}

/// A sharded panel scorer whose workers survive panics: crashed shards
/// restart with bounded exponential backoff, chronically crashing
/// shards retire and re-fold their groups into the survivors, and
/// in-flight panels are re-dispatched within a per-request retry
/// budget — all without changing a single output bit (see the module
/// docs for why re-planning preserves bit-identity).
pub struct SupervisedScorer {
    frozen: Arc<FrozenDetector>,
    policy: SupervisorPolicy,
    inner: Mutex<Inner>,
    restarts_total: AtomicU64,
    refolds_total: AtomicU64,
}

impl std::fmt::Debug for SupervisedScorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedScorer")
            .field("policy", &self.policy)
            .field(
                "restarts_total",
                &self.restarts_total.load(Ordering::Relaxed),
            )
            .field("refolds_total", &self.refolds_total.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl SupervisedScorer {
    /// Plans `shard_policy` over `frozen` (identically to
    /// [`crate::ShardedScorer::new`]) and starts one supervised worker
    /// per shard.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] for degenerate policies;
    /// [`ServeError::Quorum`] for engine overrides the frozen execution
    /// mode rejects; [`ServeError::Spawn`] when a worker thread cannot
    /// be spawned.
    pub fn new(
        frozen: Arc<FrozenDetector>,
        shard_policy: &ShardPolicy,
        policy: SupervisorPolicy,
    ) -> Result<Self, ServeError> {
        let plan = ShardPlan::for_detector(&frozen, shard_policy)?;
        Self::with_plan(frozen, plan, policy)
    }

    /// Starts supervised workers for an explicit plan.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SupervisedScorer::new`], plus
    /// [`ServeError::Request`] for plans that skip or duplicate groups.
    pub fn with_plan(
        frozen: Arc<FrozenDetector>,
        plan: ShardPlan,
        policy: SupervisorPolicy,
    ) -> Result<Self, ServeError> {
        let mut seen = vec![false; frozen.groups().len()];
        for shard in plan.shards() {
            for &g in shard.groups() {
                if g >= seen.len() || seen[g] {
                    return Err(ServeError::Request(format!(
                        "shard plan assigns group {g} out of range or twice"
                    )));
                }
                seen[g] = true;
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err(ServeError::Request(
                "shard plan leaves at least one group unassigned".into(),
            ));
        }
        let mut shards = Vec::with_capacity(plan.num_shards());
        for shard in plan.shards() {
            // Validate the override and warm this shard's groups before
            // any worker spawns, exactly like the unsupervised scorer.
            frozen.resolve_stream_engine(shard.engine())?;
            if let Some(kind) = shard.engine() {
                frozen.prewarm_groups(kind, shard.groups())?;
            }
            shards.push(ShardState {
                groups: shard
                    .groups()
                    .iter()
                    .map(|&g| (g, shard.engine()))
                    .collect(),
                restarts: 0,
                retired: false,
                down_until: None,
                epoch: 0,
                worker: None,
            });
        }
        let scorer = SupervisedScorer {
            frozen,
            policy,
            inner: Mutex::new(Inner { shards }),
            restarts_total: AtomicU64::new(0),
            refolds_total: AtomicU64::new(0),
        };
        {
            let mut inner = scorer.lock_inner();
            for s in 0..inner.shards.len() {
                scorer.spawn_worker(&mut inner, s)?;
            }
        }
        Ok(scorer)
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A worker panic can never poison this lock (workers don't hold
        // it), but a panicking test thread could; the state stays
        // consistent because every mutation is single-step.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spawns (or respawns) the worker for shard `s`, re-warming its
    /// groups' engine-specific caches first.
    fn spawn_worker(&self, inner: &mut Inner, s: usize) -> Result<(), ServeError> {
        // Re-warm per-group caches for every engine this shard's groups
        // are pinned to, so a restarted worker's first panel pays no
        // fusion or lowering. (A fresh construction warms too — the
        // calls are cheap no-ops when the caches are already populated.)
        let shard = &inner.shards[s];
        let mut by_kind: Vec<(EngineKind, Vec<usize>)> = Vec::new();
        for &(g, ov) in &shard.groups {
            if let Some(kind) = ov {
                match by_kind.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, gs)) => gs.push(g),
                    None => by_kind.push((kind, vec![g])),
                }
            }
        }
        for (kind, gs) in by_kind {
            self.frozen.prewarm_groups(kind, &gs)?;
        }
        let shard = &mut inner.shards[s];
        shard.epoch += 1;
        let epoch = shard.epoch;
        let (tx, rx) = mpsc::channel::<SupJob>();
        let frozen = Arc::clone(&self.frozen);
        let join = std::thread::Builder::new()
            .name(format!("quorum-supshard-{s}"))
            .spawn(move || worker_loop(&frozen, s, epoch, &rx))
            .map_err(|e| ServeError::spawn(&format!("quorum-supshard-{s}"), e))?;
        shard.worker = Some(WorkerSlot { tx, join });
        shard.down_until = None;
        Ok(())
    }

    /// Records the death of shard `s`'s worker at `epoch`: backoff and
    /// restart while within budget, retirement + permanent re-fold past
    /// it. Stale epochs (a reply from a worker already replaced) are
    /// ignored.
    fn note_dead(&self, inner: &mut Inner, s: usize, epoch: u64) {
        if inner.shards[s].epoch != epoch || inner.shards[s].retired {
            return;
        }
        if let Some(slot) = inner.shards[s].worker.take() {
            drop(slot.tx);
            // The thread exits right after announcing its death.
            let _ = slot.join.join();
        }
        inner.shards[s].restarts += 1;
        if inner.shards[s].restarts > self.policy.max_restarts {
            // Past the budget: retire the shard and move its groups to
            // the survivors for good. Group→engine assignments travel
            // with the groups, so scores stay bit-identical.
            inner.shards[s].retired = true;
            inner.shards[s].down_until = None;
            let orphans = std::mem::take(&mut inner.shards[s].groups);
            if !orphans.is_empty() {
                let mut heirs: Vec<usize> = (0..inner.shards.len())
                    .filter(|&i| !inner.shards[i].retired)
                    .collect();
                if !heirs.is_empty() {
                    for (g, ov) in orphans {
                        // Least-loaded survivor, by current group count.
                        heirs.sort_by_key(|&i| (inner.shards[i].groups.len(), i));
                        let heir = heirs[0];
                        inner.shards[heir].groups.push((g, ov));
                        inner.shards[heir].groups.sort_unstable_by_key(|&(g, _)| g);
                    }
                    self.refolds_total.fetch_add(1, Ordering::Relaxed);
                }
                // No survivors: the groups are lost and every future
                // dispatch fails typed — the caller sees Faulted, not a
                // wedge or a wrong partial sum.
            }
        } else {
            let exp = inner.shards[s].restarts.saturating_sub(1).min(20);
            let backoff = self
                .policy
                .backoff_base
                .saturating_mul(1u32 << u32::try_from(exp).expect("capped at 20"))
                .min(self.policy.backoff_cap);
            inner.shards[s].down_until = Some(Instant::now() + backoff);
        }
    }

    /// Scores a panel of streamed rows, transparently re-planning around
    /// crashed workers. Bit-identical to
    /// [`FrozenDetector::score_samples`] under the same per-group engine
    /// assignment, whatever faults occur, because every group's partial
    /// is merged in ascending group order regardless of which worker
    /// computed it.
    ///
    /// # Errors
    ///
    /// Row validation and scoring failures as in
    /// [`FrozenDetector::score_samples`]; [`ServeError::Faulted`] when
    /// no live worker remains or the per-request retry budget runs out.
    pub fn score_samples(
        &self,
        rows: &[Vec<f64>],
        first_sample_id: u64,
    ) -> Result<Vec<f64>, ServeError> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let normalized = Arc::new(self.frozen.normalize_stream_panel(rows)?);
        let num_groups = self.frozen.groups().len();
        let mut per_group: Vec<Option<Vec<f64>>> = (0..num_groups).map(|_| None).collect();
        let mut rounds = 0u32;
        loop {
            let missing: Vec<usize> = (0..num_groups)
                .filter(|&g| per_group[g].is_none())
                .collect();
            if missing.is_empty() {
                break;
            }
            if rounds > self.policy.request_retries {
                return Err(ServeError::Faulted(format!(
                    "retry budget exhausted: {} of {num_groups} groups unscored after {rounds} dispatch rounds",
                    missing.len()
                )));
            }
            rounds += 1;
            let (reply_tx, reply_rx) = mpsc::channel::<SupReply>();
            let outstanding = self.dispatch(&missing, &normalized, first_sample_id, &reply_tx)?;
            drop(reply_tx);
            let mut dead: Vec<(usize, u64)> = Vec::new();
            let mut group_error: Option<(usize, QuorumError)> = None;
            for _ in 0..outstanding {
                let Ok(reply) = reply_rx.recv() else {
                    // Every sender gone without replying cannot happen
                    // (workers reply even when panicking), but a lost
                    // reply is just another round of missing groups.
                    break;
                };
                match reply.outcome {
                    Ok(partials) => {
                        for (g, partial) in partials {
                            match partial {
                                Ok(p) => per_group[g] = Some(p),
                                Err(e) => {
                                    // Deterministic scoring failure: no
                                    // retry, and the lowest-indexed
                                    // group's error wins (the
                                    // single-process reporting order).
                                    if group_error.as_ref().is_none_or(|(gg, _)| g < *gg) {
                                        group_error = Some((g, e));
                                    }
                                }
                            }
                        }
                    }
                    Err(()) => dead.push((reply.worker, reply.epoch)),
                }
            }
            if !dead.is_empty() {
                let mut inner = self.lock_inner();
                for (s, epoch) in dead {
                    self.note_dead(&mut inner, s, epoch);
                }
            }
            if let Some((_, e)) = group_error {
                return Err(ServeError::Quorum(e));
            }
        }
        let mut totals = vec![0.0; rows.len()];
        for partial in per_group {
            let partial = partial.expect("loop exits only with every group scored");
            for (t, p) in totals.iter_mut().zip(partial) {
                *t += p;
            }
        }
        Ok(totals)
    }

    /// One dispatch round: revive eligible workers, assign each missing
    /// group to a live worker (its owner when live, a transient heir
    /// while the owner backs off), send the jobs. Returns how many
    /// replies to await.
    fn dispatch(
        &self,
        missing: &[usize],
        normalized: &Arc<NormalizedPanel>,
        first_sample_id: u64,
        reply_tx: &Sender<SupReply>,
    ) -> Result<usize, ServeError> {
        let mut inner = self.lock_inner();
        let live: Vec<usize> = loop {
            let now = Instant::now();
            // Revive: a non-retired shard whose worker died and whose
            // backoff has elapsed gets a fresh worker before this round.
            for s in 0..inner.shards.len() {
                let shard = &inner.shards[s];
                if shard.retired || shard.worker.is_some() {
                    continue;
                }
                if shard.down_until.is_none_or(|t| now >= t) {
                    self.spawn_worker(&mut inner, s)?;
                    self.restarts_total.fetch_add(1, Ordering::Relaxed);
                }
            }
            let live: Vec<usize> = (0..inner.shards.len())
                .filter(|&s| inner.shards[s].worker.is_some())
                .collect();
            if !live.is_empty() {
                break live;
            }
            // A crash burst can put the whole fleet into backoff at
            // once. That is a pause, not a death sentence: wait out the
            // soonest revival (bounded by `backoff_cap`) instead of
            // failing a request that still has retry budget. Only a
            // fully retired fleet is unrecoverable.
            let soonest = inner
                .shards
                .iter()
                .filter(|shard| !shard.retired)
                .filter_map(|shard| shard.down_until)
                .min();
            let Some(revive_at) = soonest else {
                return Err(ServeError::Faulted(
                    "no live shard workers remain (every shard is retired)".into(),
                ));
            };
            drop(inner);
            std::thread::sleep(revive_at.saturating_duration_since(Instant::now()));
            inner = self.lock_inner();
        };
        let is_missing = |g: usize| missing.binary_search(&g).is_ok();
        let mut assignments: Vec<Vec<(usize, Option<EngineKind>)>> =
            vec![Vec::new(); inner.shards.len()];
        let mut orphans: Vec<(usize, Option<EngineKind>)> = Vec::new();
        for (s, shard) in inner.shards.iter().enumerate() {
            let owned_missing = shard.groups.iter().copied().filter(|&(g, _)| is_missing(g));
            if shard.worker.is_some() {
                assignments[s].extend(owned_missing);
            } else {
                // Backing off: its groups ride with the live shards for
                // this round only. (Retired shards own nothing.)
                orphans.extend(owned_missing);
            }
        }
        for (i, orphan) in orphans.into_iter().enumerate() {
            assignments[live[i % live.len()]].push(orphan);
        }
        let mut outstanding = 0usize;
        let mut send_failures: Vec<(usize, u64)> = Vec::new();
        for s in live {
            if assignments[s].is_empty() {
                continue;
            }
            let shard = &inner.shards[s];
            let slot = shard.worker.as_ref().expect("live shards have workers");
            let job = SupJob {
                groups: Arc::new(std::mem::take(&mut assignments[s])),
                normalized: Arc::clone(normalized),
                first_sample_id,
                reply: reply_tx.clone(),
            };
            if slot.tx.send(job).is_err() {
                // The worker died between rounds without us noticing —
                // count the death now; its groups stay missing and the
                // next round re-plans around it.
                send_failures.push((s, shard.epoch));
            } else {
                outstanding += 1;
            }
        }
        for (s, epoch) in send_failures {
            self.note_dead(&mut inner, s, epoch);
        }
        Ok(outstanding)
    }

    /// Worker restarts performed since construction.
    pub fn restarts_total(&self) -> u64 {
        self.restarts_total.load(Ordering::Relaxed)
    }

    /// Permanent re-folds (retired shards whose groups moved to
    /// survivors) since construction.
    pub fn refolds_total(&self) -> u64 {
        self.refolds_total.load(Ordering::Relaxed)
    }

    /// Per-shard liveness snapshot, in original plan order.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        let inner = self.lock_inner();
        let now = Instant::now();
        inner
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| ShardHealth {
                shard: s,
                liveness: if shard.retired {
                    ShardLiveness::Retired
                } else if shard.worker.is_none() && shard.down_until.is_some_and(|t| now < t) {
                    ShardLiveness::BackingOff
                } else {
                    ShardLiveness::Live
                },
                restarts: shard.restarts,
                groups: shard.groups.len(),
            })
            .collect()
    }

    /// The underlying frozen detector.
    pub fn frozen(&self) -> &Arc<FrozenDetector> {
        &self.frozen
    }
}

impl Drop for SupervisedScorer {
    fn drop(&mut self) {
        let mut inner = self.lock_inner();
        for shard in &mut inner.shards {
            if let Some(slot) = shard.worker.take() {
                drop(slot.tx);
                let _ = slot.join.join();
            }
        }
    }
}

impl PanelScorer for SupervisedScorer {
    fn num_features(&self) -> usize {
        self.frozen.num_features()
    }

    fn score_panel(&self, rows: &[Vec<f64>], first_sample_id: u64) -> Result<Vec<f64>, ServeError> {
        self.score_samples(rows, first_sample_id)
    }

    fn shard_health(&self) -> Vec<ShardHealth> {
        SupervisedScorer::shard_health(self)
    }
}

/// The supervised worker body: score each assigned group under its
/// fixed engine, reply, repeat — and if a panel panics, announce the
/// death and exit (the supervisor restarts or retires the shard).
fn worker_loop(frozen: &Arc<FrozenDetector>, worker: usize, epoch: u64, rx: &Receiver<SupJob>) {
    let levels = frozen.stream_levels();
    while let Ok(job) = rx.recv() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(any(test, feature = "failpoints"))]
            match crate::fault::check("supervisor::worker") {
                Some(crate::fault::FaultAction::Panic) => {
                    panic!("failpoint \"supervisor::worker\" injected a panic")
                }
                Some(crate::fault::FaultAction::Delay(d)) => std::thread::sleep(d),
                Some(crate::fault::FaultAction::PoisonCaches) => {
                    // A crashed lock holder: poison this job's groups'
                    // derived caches. Scoring must absorb it (the
                    // byte-bounded caches recover poisoned locks). The
                    // poison hooks live behind core's `failpoints`
                    // feature, which serve's forwards to.
                    #[cfg(feature = "failpoints")]
                    for &(g, _) in job.groups.iter() {
                        frozen.groups()[g].poison_derived_caches();
                    }
                }
                _ => {}
            }
            job.groups
                .iter()
                .map(|&(g, ov)| {
                    let partial = frozen
                        .resolve_stream_engine(ov)
                        .map_err(|e| {
                            // Overrides were validated at construction;
                            // failing here is a bug, not a request error.
                            QuorumError::Internal(format!(
                                "shard engine resolve failed at scoring time: {e}"
                            ))
                        })
                        .and_then(|(engine, exact_config)| {
                            frozen.stream_scores_for_group_with(
                                engine,
                                &exact_config,
                                g,
                                &job.normalized.as_panel(),
                                &levels,
                                job.first_sample_id,
                            )
                        });
                    (g, partial)
                })
                .collect::<Vec<_>>()
        }));
        match outcome {
            Ok(partials) => {
                let _ = job.reply.send(SupReply {
                    worker,
                    epoch,
                    outcome: Ok(partials),
                });
            }
            Err(_) => {
                // Announce the death so the in-flight request re-plans
                // immediately instead of waiting on a reply that will
                // never come, then let the thread die.
                let _ = job.reply.send(SupReply {
                    worker,
                    epoch,
                    outcome: Err(()),
                });
                break;
            }
        }
    }
}
