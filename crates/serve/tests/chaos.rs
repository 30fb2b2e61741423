//! Chaos suite: deterministic fault injection against the serving
//! runtime's per-group supervision.
//!
//! Compiled only under the `failpoints` feature (`cargo test -p
//! quorum-serve --features failpoints --test chaos`). Every test arms a
//! deterministic schedule in `quorum_serve::fault`, drives
//! `FrozenDetector::score_samples` (directly or through a live server)
//! through group panics, stalls and poisoned caches, and asserts the one
//! property that matters: **every answer is bit-identical to an
//! uninterrupted run, or a typed error**. A group's partial depends only
//! on the group, the rows and the sample ids, so re-running a panicked
//! group in place cannot move a bit — these tests pin that no recovery
//! path forgets it.
//!
//! The failpoint registry is process-global, so every test serialises
//! on `fault::tests_serialized()` and resets the registry when done.

#![cfg(feature = "failpoints")]

use qdata::Dataset;
use qsim::NoiseModel;
use quorum_core::config::ExecutionMode;
use quorum_core::QuorumConfig;
use quorum_serve::fault::{self, FaultAction, FaultSpec};
use quorum_serve::frozen::GROUP_RETRIES;
use quorum_serve::{
    CoalescePolicy, FrozenDetector, OverloadPolicy, QuorumServer, RetryPolicy, ScoreClient,
    ServeError,
};
use std::sync::Arc;
use std::time::Duration;

/// The failpoint site inside each group's scoring attempt.
const GROUP_SITE: &str = "frozen::group";

const GROUPS: usize = 5;

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
        .with_ensemble_groups(GROUPS)
        .with_ansatz_layers(2)
        .with_threads(2)
        .with_seed(0x5EEF_1E55)
}

/// One panic in one group under plain `QuorumServer::bind`: the group is
/// re-run in place, so that request and every later one score exactly,
/// and the health probe reports the one caught panic. (Without per-group
/// isolation the panic unwinds the batching thread, and this request and
/// every later one fail with "the batching worker has shut down".)
#[test]
fn group_panic_under_bind_is_retried_and_every_request_scores_exactly() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(4);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy::default(),
    )
    .unwrap();
    let mut client = ScoreClient::connect_with_timeouts(
        server.local_addr(),
        Some(Duration::from_secs(30)),
        Some(Duration::from_secs(30)),
    )
    .unwrap();
    fault::arm(GROUP_SITE, FaultSpec::on_hit(FaultAction::Panic, 1));
    assert_eq!(
        client.score(&rows[0]).unwrap(),
        direct[0],
        "the request whose group panicked must still score exactly"
    );
    for (row, want) in rows[1..].iter().zip(&direct[1..]) {
        assert_eq!(client.score(row).unwrap(), *want);
    }
    let health = client.health().unwrap();
    assert_eq!(health.group_panics, 1);
    assert_eq!(health.samples_scored, rows.len() as u64);
    // Four one-row panels of five groups each, plus the one retry.
    assert_eq!(fault::hits(GROUP_SITE), (rows.len() * GROUPS + 1) as u64);
    fault::reset();
    server.shutdown();
}

/// A group killed mid-panel is re-run in place and the panel's scores
/// stay bit-identical to an uninterrupted run.
#[test]
fn killed_group_is_retried_and_scores_stay_bit_identical() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = FrozenDetector::freeze(base_config(), &reference()).unwrap();
    let rows = stream_rows(4);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    // Whichever group draws hit 2 panics once. Which group that is
    // depends on scheduling; the scores must not.
    fault::arm(GROUP_SITE, FaultSpec::on_hit(FaultAction::Panic, 2));
    for _ in 0..3 {
        let survived = frozen.score_samples(&rows, 0).unwrap();
        assert_eq!(survived, direct, "a retried group must not move a bit");
    }
    assert_eq!(frozen.group_panics(), 1, "exactly one caught panic");
    fault::reset();
}

/// Stalled groups reorder completion but never change a score.
#[test]
fn delayed_groups_do_not_change_scores() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = FrozenDetector::freeze(base_config(), &reference()).unwrap();
    let rows = stream_rows(4);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    // Every third group attempt stalls, so partials finish out of group
    // order; the ascending-group merge must not care.
    fault::arm(
        GROUP_SITE,
        FaultSpec::every(FaultAction::Delay(Duration::from_millis(20)), 3, 0),
    );
    for first_id in [0u64, 4, 8] {
        assert_eq!(frozen.score_samples(&rows, first_id).unwrap(), direct);
    }
    assert_eq!(frozen.group_panics(), 0, "delays are not panics");
    fault::reset();
}

/// A crashed lock holder poisons a group's derived caches; the
/// byte-bounded caches recover the poisoned mutexes and scoring —
/// including the dense noisy readout-form path — stays bit-identical.
#[test]
fn poisoned_caches_are_absorbed_bit_identically() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let config = base_config()
        .with_ensemble_groups(3)
        .with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: None,
        });
    let frozen = FrozenDetector::freeze(config, &reference()).unwrap();
    let rows = stream_rows(2);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    fault::arm(
        GROUP_SITE,
        FaultSpec::on_hits(FaultAction::PoisonCaches, &[1, 2]),
    );
    assert_eq!(frozen.score_samples(&rows, 0).unwrap(), direct);
    assert_eq!(
        frozen.group_panics(),
        0,
        "poison must be absorbed, not fatal"
    );
    // And again with warm (recovered) caches.
    assert_eq!(frozen.score_samples(&rows, 0).unwrap(), direct);
    fault::reset();
}

/// When every attempt of every group panics, the panel fails with a
/// typed `Faulted` error that names the lowest failing group, the
/// attempt count and the failpoint's panic message — not a hang, not an
/// escaped panic, not a wrong partial sum. Disarmed, the next panel
/// scores exactly.
#[test]
fn exhausted_group_retries_are_a_typed_faulted_error() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = FrozenDetector::freeze(base_config(), &reference()).unwrap();
    let rows = stream_rows(2);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    fault::arm(GROUP_SITE, FaultSpec::every(FaultAction::Panic, 1, 0));
    let err = frozen.score_samples(&rows, 0).unwrap_err();
    assert!(matches!(err, ServeError::Faulted(_)), "got {err:?}");
    let text = err.to_string();
    let attempts = GROUP_RETRIES + 1;
    assert!(text.contains("group 0 "), "{text}");
    assert!(text.contains(&format!("all {attempts} attempts")), "{text}");
    assert!(
        text.contains("failpoint \"frozen::group\" injected a panic"),
        "the panic payload must reach the error: {text}"
    );
    assert_eq!(
        frozen.group_panics(),
        (GROUPS as u64) * u64::from(attempts),
        "every attempt of every group panicked once"
    );
    fault::disarm(GROUP_SITE);
    assert_eq!(frozen.score_samples(&rows, 0).unwrap(), direct);
    fault::reset();
}

/// Load shedding under a stalled backend, through `bind_with`: shed
/// requests get the typed status-2 frame while the requests that made it
/// into the bounded queue still score correctly.
#[test]
fn overloaded_server_sheds_typed_while_cobatched_requests_score() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(3);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    // Every panel crawls (every group attempt sleeps), the queue holds
    // one sample, and panels never coalesce — so three concurrent
    // requests must produce at least one typed shed.
    fault::arm(
        GROUP_SITE,
        FaultSpec::every(FaultAction::Delay(Duration::from_millis(150)), 1, 0),
    );
    let mut server = QuorumServer::bind_with(
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

/// The exhaustive group-panic soak: a seeded pseudo-random quarter of
/// all group attempts panic across a 40-panel stream. Every panel must
/// come back bit-identical to the uninterrupted run or as a typed
/// `Faulted` error (a group that drew a panic on all of its attempts) —
/// never a wrong score. Run with `--ignored` (the ignored-suite CI job
/// does).
#[test]
#[ignore = "exhaustive chaos soak; run with --ignored"]
fn seeded_group_panic_soak_is_exact_or_typed_faulted() {
    let _serial = fault::tests_serialized();
    fault::reset();
    let frozen = FrozenDetector::freeze(base_config(), &reference()).unwrap();
    let rows = stream_rows(6);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    // A quarter of all attempts die, chosen by a seeded hash of the hit
    // number — a different crash pattern than any fixed schedule.
    fault::arm(
        GROUP_SITE,
        FaultSpec::seeded(FaultAction::Panic, 0xC4A05, 1, 4),
    );
    let mut exact = 0usize;
    for panel in 0..40 {
        match frozen.score_samples(&rows, 0) {
            Ok(scores) => {
                assert_eq!(scores, direct, "panel {panel} diverged under chaos");
                exact += 1;
            }
            Err(ServeError::Faulted(text)) => assert!(
                text.contains("injected a panic"),
                "panel {panel} faulted without the panic message: {text}"
            ),
            Err(other) => panic!("panel {panel}: unexpected error {other:?}"),
        }
    }
    assert!(
        frozen.group_panics() > 0,
        "a quarter of attempts panicking must have been caught"
    );
    assert!(exact > 0, "retries must rescue most panels");
    fault::reset();
}
