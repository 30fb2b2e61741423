//! Chaos suite: deterministic fault injection against the supervised
//! serving runtime.
//!
//! Compiled only under the `failpoints` feature (`cargo test -p
//! quorum-serve --features failpoints --test chaos`). Every test arms a
//! deterministic schedule in `quorum_serve::fault`, drives the runtime
//! through crash → restart → re-plan, and asserts the one property that
//! matters: **scores stay bit-identical to an uninterrupted run**. The
//! additive per-group merge in ascending group order makes any
//! group→worker placement equivalent, so fault recovery is pure
//! re-planning — these tests pin that no recovery path forgets it.
//!
//! The failpoint registry is process-global, so every test serialises
//! on `fault::tests_serialized()` and resets the registry when done.

#![cfg(feature = "failpoints")]

use qdata::Dataset;
use qsim::NoiseModel;
use quorum_core::config::{EngineKind, ExecutionMode};
use quorum_core::QuorumConfig;
use quorum_serve::fault::{self, FaultAction, FaultSpec};
use quorum_serve::{
    CoalescePolicy, FrozenDetector, OverloadPolicy, QuorumServer, RetryPolicy, ScoreClient,
    ServeError, ShardLiveness, ShardPolicy, SupervisedScorer, SupervisorPolicy,
};
use std::sync::Arc;
use std::time::Duration;

/// A deterministic 12×7 reference set (same recipe as the serving suite).
fn reference() -> Dataset {
    let rows: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            (0..7)
                .map(|j| {
                    let x = (i * 7 + j) as f64;
                    (x * 0.37).sin() * (1.0 + 0.1 * j as f64) + 0.01 * x
                })
                .collect()
        })
        .collect();
    Dataset::from_rows("chaos-ref", rows, None).unwrap()
}

fn stream_rows(count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..7)
                .map(|j| ((i * 13 + j * 5) as f64 * 0.23).cos() * 0.8 + 0.05 * j as f64)
                .collect()
        })
        .collect()
}

fn base_config() -> QuorumConfig {
    QuorumConfig::default()
        .with_data_qubits(3)
        .with_ensemble_groups(5)
        .with_ansatz_layers(2)
        .with_threads(2)
        .with_seed(0x5EEF_1E55)
}

/// A supervisor policy tuned for tests: fast backoff, generous budgets.
fn fast_supervisor() -> SupervisorPolicy {
    SupervisorPolicy {
        max_restarts: 5,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        request_retries: 3,
    }
}

/// A worker killed mid-stream restarts and the stream's scores stay
/// bit-identical to an uninterrupted run — the fast always-on version
/// of the kill-worker soak.
#[test]
fn killed_worker_restarts_and_scores_stay_bit_identical() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(4);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let scorer = SupervisedScorer::new(
        Arc::clone(&frozen),
        &ShardPolicy::Workers(3),
        fast_supervisor(),
    )
    .unwrap();
    // Panel 1 fans out one job per worker (hits 1..=3); exactly one of
    // them — whichever worker draws hit 2 — panics mid-panel. Which
    // worker dies is scheduling-dependent; the scores must not be.
    fault::arm(
        "supervisor::worker",
        FaultSpec::on_hit(FaultAction::Panic, 2),
    );
    for _ in 0..3 {
        let survived = scorer.score_samples(&rows, 0).unwrap();
        assert_eq!(survived, direct, "fault recovery must not move a bit");
        // Let the crashed worker's 1ms backoff lapse so a later panel
        // exercises the restart path, not just the transient fold.
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        scorer.restarts_total(),
        1,
        "exactly one worker death, exactly one restart"
    );
    assert_eq!(scorer.refolds_total(), 0);
    let health = scorer.shard_health();
    assert!(health.iter().all(|s| s.liveness == ShardLiveness::Live));
    assert_eq!(health.iter().map(|s| s.restarts).sum::<u64>(), 1);
    assert_eq!(
        health.iter().map(|s| s.groups).sum::<usize>(),
        frozen.groups().len()
    );
    fault::reset();
}

/// Past its restart budget a shard is retired and its groups re-fold
/// into the survivors — service continues, scores unchanged.
#[test]
fn retired_shard_refolds_groups_into_survivors_bit_identically() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(3);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let policy = SupervisorPolicy {
        max_restarts: 0, // first death retires the shard
        ..fast_supervisor()
    };
    let scorer =
        SupervisedScorer::new(Arc::clone(&frozen), &ShardPolicy::Workers(2), policy).unwrap();
    // One job of the first panel panics; with a zero restart budget the
    // dead shard retires immediately and its groups move to the
    // survivor for good.
    fault::arm(
        "supervisor::worker",
        FaultSpec::on_hit(FaultAction::Panic, 1),
    );
    assert_eq!(scorer.score_samples(&rows, 0).unwrap(), direct);
    assert_eq!(scorer.refolds_total(), 1, "retirement must re-fold once");
    let health = scorer.shard_health();
    let retired: Vec<_> = health
        .iter()
        .filter(|s| s.liveness == ShardLiveness::Retired)
        .collect();
    assert_eq!(retired.len(), 1);
    assert_eq!(retired[0].groups, 0, "a retired shard owns nothing");
    assert_eq!(
        health.iter().map(|s| s.groups).sum::<usize>(),
        frozen.groups().len(),
        "every group must land on a survivor"
    );
    // The shrunken fleet keeps serving bit-identically.
    assert_eq!(scorer.score_samples(&rows, 7).unwrap(), direct);
    fault::reset();
}

/// Delayed shard replies reorder completion but never change a score.
#[test]
fn delayed_shard_replies_do_not_change_scores() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(4);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let scorer = SupervisedScorer::new(
        Arc::clone(&frozen),
        &ShardPolicy::Workers(3),
        fast_supervisor(),
    )
    .unwrap();
    // Every third worker job answers slow — partial vectors arrive out
    // of shard order, and the ascending-group merge must not care.
    fault::arm(
        "supervisor::worker",
        FaultSpec::every(FaultAction::Delay(Duration::from_millis(20)), 3, 0),
    );
    for first_id in [0u64, 4, 8] {
        assert_eq!(scorer.score_samples(&rows, first_id).unwrap(), direct);
    }
    assert_eq!(scorer.restarts_total(), 0, "delays are not deaths");
    fault::reset();
}

/// A crashed lock holder poisons the per-group derived caches; the
/// byte-bounded caches recover the poisoned mutexes and scoring —
/// including the dense noisy readout-form path — stays bit-identical.
#[test]
fn poisoned_caches_are_absorbed_bit_identically() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let config = base_config()
        .with_ensemble_groups(3)
        .with_engine(EngineKind::Density)
        .with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: None,
        });
    let frozen = Arc::new(FrozenDetector::freeze(config, &reference()).unwrap());
    let rows = stream_rows(2);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let scorer = SupervisedScorer::new(
        Arc::clone(&frozen),
        &ShardPolicy::Workers(2),
        fast_supervisor(),
    )
    .unwrap();
    fault::arm(
        "supervisor::worker",
        FaultSpec::on_hits(FaultAction::PoisonCaches, &[1, 2]),
    );
    assert_eq!(scorer.score_samples(&rows, 0).unwrap(), direct);
    assert_eq!(
        scorer.restarts_total(),
        0,
        "poison must be absorbed, not fatal"
    );
    // And again with warm (recovered) caches.
    assert_eq!(scorer.score_samples(&rows, 0).unwrap(), direct);
    fault::reset();
}

/// When every worker dies faster than the supervisor can bring one
/// back, the request fails with a typed `Faulted` error — not a hang,
/// not a panic, not a wrong partial sum.
#[test]
fn exhausted_retry_budget_is_a_typed_faulted_error() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(2);
    let policy = SupervisorPolicy {
        max_restarts: 50, // never retire: every round meets freshly doomed workers
        backoff_base: Duration::from_micros(100),
        backoff_cap: Duration::from_micros(200),
        request_retries: 2,
    };
    let scorer =
        SupervisedScorer::new(Arc::clone(&frozen), &ShardPolicy::Workers(2), policy).unwrap();
    // Every job panics: each dispatch round kills whatever workers it
    // reaches until the per-request retry budget runs out.
    fault::arm(
        "supervisor::worker",
        FaultSpec::every(FaultAction::Panic, 1, 0),
    );
    let err = scorer.score_samples(&rows, 0).unwrap_err();
    assert!(matches!(err, ServeError::Faulted(_)), "got {err:?}");
    // Disarm, let a backoff lapse, and the fleet heals on its own.
    fault::disarm("supervisor::worker");
    std::thread::sleep(Duration::from_millis(2));
    let direct = frozen.score_samples(&rows, 0).unwrap();
    assert_eq!(scorer.score_samples(&rows, 0).unwrap(), direct);
    fault::reset();
}

/// Load shedding under a wedged backend: shed requests get the typed
/// status-2 frame while the requests that made it into the bounded
/// queue still score correctly.
#[test]
fn overloaded_server_sheds_typed_while_cobatched_requests_score() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(3);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    // Every panel crawls (every worker job sleeps), the queue holds one
    // sample, and panels never coalesce — so three concurrent requests
    // must produce at least one typed shed.
    fault::arm(
        "supervisor::worker",
        FaultSpec::every(FaultAction::Delay(Duration::from_millis(150)), 1, 0),
    );
    let mut server = QuorumServer::bind_supervised(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy {
            max_batch: 1,
            max_wait: Duration::from_micros(1),
        },
        OverloadPolicy {
            queue_capacity: 1,
            request_deadline: None,
        },
        &ShardPolicy::Workers(1),
        fast_supervisor(),
    )
    .unwrap();
    let addr = server.local_addr();
    let results: Vec<(usize, Result<f64, ServeError>)> = std::thread::scope(|s| {
        let handles: Vec<_> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let row = row.clone();
                s.spawn(move || {
                    let mut client = ScoreClient::connect(addr).unwrap();
                    (i, client.score(&row))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut scored = 0usize;
    let mut shed = 0usize;
    for (i, result) in results {
        match result {
            Ok(score) => {
                assert_eq!(score, direct[i], "a scored request must be exact");
                scored += 1;
            }
            Err(ServeError::Overloaded(_)) => shed += 1,
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(scored >= 1, "the in-flight request must still score");
    assert!(shed >= 1, "a full queue must shed at least one request");
    assert_eq!(server.shed_total(), shed as u64);
    fault::reset();
    server.shutdown();
}

/// A torn response frame (server crashes mid-write) surfaces as a
/// transport error without retry, and `score_with_retry` survives it by
/// reconnecting and resending — bit-identically, because scoring is
/// stateless and a resent row is idempotent.
#[test]
fn torn_response_frame_is_survived_by_client_retry() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let row = &stream_rows(1)[0];
    let direct = frozen.score_samples(std::slice::from_ref(row), 0).unwrap()[0];
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy::default(),
    )
    .unwrap();
    // Without retries a torn frame is a typed transport error.
    fault::arm(
        "server::write_frame",
        FaultSpec::on_hit(FaultAction::TornWrite { keep_bytes: 3 }, 1),
    );
    let mut plain = ScoreClient::connect(server.local_addr()).unwrap();
    plain
        .set_timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)))
        .unwrap();
    let err = plain.score(row).unwrap_err();
    assert!(matches!(err, ServeError::Io(_)), "got {err:?}");
    // With retries the client reconnects, resends and gets the exact
    // score the untorn run produces.
    fault::arm(
        "server::write_frame",
        FaultSpec::on_hit(FaultAction::TornWrite { keep_bytes: 3 }, 1),
    );
    let mut retrying = ScoreClient::connect(server.local_addr()).unwrap();
    retrying.set_retry(RetryPolicy {
        max_retries: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        jitter: 0.5,
        seed: 7,
    });
    assert_eq!(retrying.score_with_retry(row).unwrap(), direct);
    fault::reset();
    server.shutdown();
}

/// The exhaustive kill-worker-mid-stream soak: a seeded pseudo-random
/// quarter of all worker jobs panic across a 40-panel stream while the
/// supervisor restarts and re-folds around them — every panel must stay
/// bit-identical to the uninterrupted run. Run with `--ignored` (the
/// ignored-suite CI job does).
#[test]
#[ignore = "exhaustive chaos soak; run with --ignored"]
fn kill_worker_soak_is_bit_identical_over_a_long_stream() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(6);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let policy = SupervisorPolicy {
        max_restarts: 10,
        backoff_base: Duration::from_micros(200),
        backoff_cap: Duration::from_millis(2),
        request_retries: 8,
    };
    let scorer =
        SupervisedScorer::new(Arc::clone(&frozen), &ShardPolicy::Workers(3), policy).unwrap();
    // A quarter of all jobs die, chosen by a seeded hash — a different
    // crash pattern than any fixed schedule, replayed exactly on every
    // run of this test.
    fault::arm(
        "supervisor::worker",
        FaultSpec::seeded(FaultAction::Panic, 0xC4A05, 1, 4),
    );
    for panel in 0..40 {
        let scores = scorer.score_samples(&rows, 0).unwrap();
        assert_eq!(scores, direct, "panel {panel} diverged under chaos");
    }
    assert!(
        scorer.restarts_total() > 0,
        "a quarter of jobs panicking must have killed at least one worker"
    );
    let health = scorer.shard_health();
    assert_eq!(
        health.iter().map(|s| s.groups).sum::<usize>(),
        frozen.groups().len(),
        "group ownership must stay a partition under churn"
    );
    fault::reset();
}
