//! End-to-end serving-runtime tests: freeze/thaw bit-identity across
//! execution modes and the engines they pick, coalescing and
//! thread-count invariance,
//! sampled-draw reproducibility, and the TCP server under concurrent
//! clients.

use qdata::Dataset;
use qsim::NoiseModel;
use quorum_core::config::{ExecutionMode, Normalization, STRUCTURED_AUTO_MIN_QUBITS};
use quorum_core::{QuorumConfig, QuorumDetector, QuorumError};
use quorum_serve::{
    BatchScorer, CoalescePolicy, FrozenArtifact, FrozenDetector, OverloadPolicy, QuorumServer,
    ScoreClient, ServeError,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A deterministic 12×7 dataset with enough spread for stable buckets.
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
    Dataset::from_rows("serve-ref", rows, None).unwrap()
}

/// Streamed rows distinct from the reference set.
fn stream_rows(count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..7)
                .map(|j| ((i * 13 + j * 5) as f64 * 0.23).cos() * 0.8 + 0.05 * j as f64)
                .collect()
        })
        .collect()
}

const GROUPS: usize = 5;

fn base_config() -> QuorumConfig {
    QuorumConfig::default()
        .with_data_qubits(3)
        .with_ensemble_groups(GROUPS)
        .with_ansatz_layers(2)
        .with_threads(2)
        .with_seed(0x5EEF_1E55)
}

/// Freeze → serialize → deserialize → thaw must reproduce the
/// in-process pipeline bit-for-bit on the reference dataset.
fn assert_round_trip_bit_identical(config: QuorumConfig) {
    let ds = reference();
    let in_process = QuorumDetector::new(config.clone())
        .unwrap()
        .score(&ds)
        .unwrap();
    let frozen = FrozenDetector::freeze(config, &ds).unwrap();
    let bytes = frozen.to_bytes().unwrap();
    let thawed = FrozenDetector::from_bytes(&bytes).unwrap();
    let served = thawed.score_dataset(&ds).unwrap();
    assert_eq!(
        in_process.scores(),
        served.scores(),
        "thawed scores must be bit-identical to the in-process run"
    );
}

#[test]
fn round_trip_is_bit_identical_exact_default_engine() {
    assert_round_trip_bit_identical(base_config());
}

#[test]
fn round_trip_is_bit_identical_sampled() {
    assert_round_trip_bit_identical(
        base_config().with_execution(ExecutionMode::Sampled { shots: 256 }),
    );
}

/// Both noisy engines: dense at n = 3, structured from
/// [`STRUCTURED_AUTO_MIN_QUBITS`] up.
#[test]
fn round_trip_is_bit_identical_noisy_across_engines() {
    assert_round_trip_bit_identical(noisy_config(Some(128)));
    assert_round_trip_bit_identical(wide_noisy_config(Some(128)));
}

#[test]
fn round_trip_is_bit_identical_minmax_normalization() {
    assert_round_trip_bit_identical(base_config().with_normalization(Normalization::MinMax));
}

/// Thawing pre-builds: a full reference replay on a thawed noisy detector
/// must not trigger any new readout-form builds.
#[test]
fn thaw_prewarms_the_noisy_caches() {
    let config = base_config().with_execution(ExecutionMode::Noisy {
        noise: NoiseModel::brisbane(),
        shots: None,
    });
    let levels = config.effective_compression_levels().len();
    let ds = reference();
    let frozen = FrozenDetector::freeze(config, &ds).unwrap();
    let thawed = FrozenDetector::from_bytes(&frozen.to_bytes().unwrap()).unwrap();
    let builds_after_thaw: Vec<usize> = thawed
        .groups()
        .iter()
        .map(|g| g.readout_form_builds())
        .collect();
    assert!(
        builds_after_thaw.iter().all(|&b| b == levels),
        "thaw must pre-warm one readout form per level in every group: {builds_after_thaw:?}"
    );
    thawed.score_dataset(&ds).unwrap();
    let builds_after_score: Vec<usize> = thawed
        .groups()
        .iter()
        .map(|g| g.readout_form_builds())
        .collect();
    assert_eq!(
        builds_after_thaw, builds_after_score,
        "scoring after thaw must hit only warm caches"
    );
    assert!(
        thawed
            .groups()
            .iter()
            .all(|g| g.noisy_superop_fusions() == 0),
        "the dense engine caches no superoperators"
    );
}

/// The thread counts every invariance check sweeps: one thread, a few,
/// and one per group.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, GROUPS];

/// Streamed scoring is batch- and thread-count invariant: one coalesced
/// panel must give bit-identical scores to scoring each sample alone
/// under its id, and — since the groups run as pool jobs whose partials
/// are summed in ascending group order — to the same panel scored under
/// `with_threads(k)` for every `k` in `thread_counts`.
fn assert_coalescing_invariant(config: QuorumConfig, thread_counts: &[usize]) {
    let frozen = FrozenDetector::freeze(config.clone(), &reference()).unwrap();
    let rows = stream_rows(6);
    let batched = frozen.score_samples(&rows, 100).unwrap();
    for (j, row) in rows.iter().enumerate() {
        let alone = frozen
            .score_samples(std::slice::from_ref(row), 100 + j as u64)
            .unwrap();
        assert_eq!(
            alone[0], batched[j],
            "sample {j} must score identically alone and in a panel"
        );
    }
    for &k in thread_counts {
        let threaded = FrozenDetector::freeze(config.clone().with_threads(k), &reference())
            .unwrap()
            .score_samples(&rows, 100)
            .unwrap();
        assert_eq!(
            threaded, batched,
            "threads={k} scores must be bit-identical"
        );
    }
}

/// Noisy Brisbane at n = 3, which scores on the dense density engine.
fn noisy_config(shots: Option<u64>) -> QuorumConfig {
    base_config().with_execution(ExecutionMode::Noisy {
        noise: NoiseModel::brisbane(),
        shots,
    })
}

/// Noisy Brisbane at the narrowest width the structured density engine
/// scores, kept to two groups and two levels so debug builds stay fast.
fn wide_noisy_config(shots: Option<u64>) -> QuorumConfig {
    noisy_config(shots)
        .with_data_qubits(STRUCTURED_AUTO_MIN_QUBITS)
        .with_ensemble_groups(2)
        .with_compression_levels(vec![1, STRUCTURED_AUTO_MIN_QUBITS - 1])
}

#[test]
fn coalescing_is_invariant_exact() {
    assert_coalescing_invariant(base_config(), &THREAD_COUNTS);
}

#[test]
fn coalescing_is_invariant_with_shots() {
    assert_coalescing_invariant(
        base_config().with_execution(ExecutionMode::Sampled { shots: 512 }),
        &THREAD_COUNTS,
    );
}

#[test]
fn coalescing_is_invariant_noisy_with_shots() {
    assert_coalescing_invariant(noisy_config(Some(256)), &THREAD_COUNTS);
}

/// Exhaustive variant for CI's `--ignored` pass: more threads than
/// groups (some participants idle, scores unchanged), plus the
/// structured noisy engine.
#[test]
#[ignore = "exhaustive; run explicitly or in CI's --ignored pass"]
fn coalescing_is_invariant_exhaustive() {
    let all = [1, 2, 3, GROUPS, GROUPS + 3];
    assert_coalescing_invariant(base_config(), &all);
    assert_coalescing_invariant(
        base_config().with_execution(ExecutionMode::Sampled { shots: 64 }),
        &all,
    );
    assert_coalescing_invariant(noisy_config(Some(128)), &all);
    assert_coalescing_invariant(wide_noisy_config(Some(128)), &all);
}

/// Sampled draws are a pure function of (config, group, level, id): the
/// same rows under the same ids score identically across calls, and a
/// different id changes the draw.
#[test]
fn sampled_draws_are_reproducible_and_id_dependent() {
    let config = base_config().with_execution(ExecutionMode::Sampled { shots: 64 });
    let frozen = FrozenDetector::freeze(config, &reference()).unwrap();
    let rows = stream_rows(3);
    let first = frozen.score_samples(&rows, 7).unwrap();
    let second = frozen.score_samples(&rows, 7).unwrap();
    assert_eq!(first, second, "same ids must reproduce the same draws");
    let shifted = frozen.score_samples(&rows, 8).unwrap();
    assert_ne!(
        first, shifted,
        "shifting the ids must change the shot noise"
    );
}

/// Exact-mode streamed scores do not depend on the id at all.
#[test]
fn exact_streamed_scores_ignore_the_sample_id() {
    let frozen = FrozenDetector::freeze(base_config(), &reference()).unwrap();
    let rows = stream_rows(4);
    assert_eq!(
        frozen.score_samples(&rows, 0).unwrap(),
        frozen.score_samples(&rows, 9999).unwrap()
    );
}

#[test]
fn score_samples_rejects_bad_rows() {
    let frozen = FrozenDetector::freeze(base_config(), &reference()).unwrap();
    assert!(matches!(
        frozen.score_samples(&[vec![1.0; 3]], 0),
        Err(ServeError::Request(_))
    ));
    assert!(matches!(
        frozen.score_samples(&[vec![f64::NAN; 7]], 0),
        Err(ServeError::Request(_))
    ));
    assert!(frozen.score_samples(&[], 0).unwrap().is_empty());
}

#[test]
fn tampered_artifacts_thaw_to_typed_errors() {
    let frozen = FrozenDetector::freeze(base_config(), &reference()).unwrap();
    let artifact = frozen.to_artifact().unwrap();
    // Duplicate feature columns would otherwise panic inside the core
    // feature-selection constructor.
    let mut bad = artifact_clone(&artifact);
    let first = bad.groups[0].feature_columns[0];
    *bad.groups[0].feature_columns.last_mut().unwrap() = first;
    let rebuilt = FrozenArtifact::from_bytes(&bad.to_bytes().unwrap()).unwrap();
    assert!(matches!(
        FrozenDetector::thaw(rebuilt),
        Err(ServeError::Artifact(_))
    ));
    // A bucket index beyond the reference set.
    let mut bad = artifact_clone(&artifact);
    bad.groups[0].buckets[0][0] = bad.reference_samples + 1;
    let rebuilt = FrozenArtifact::from_bytes(&bad.to_bytes().unwrap()).unwrap();
    assert!(matches!(
        FrozenDetector::thaw(rebuilt),
        Err(ServeError::Artifact(_))
    ));
}

/// A noise model outside its ranges is a typed configuration error at
/// thaw, not a panic while pre-warming the noisy caches.
#[test]
fn thaw_rejects_an_out_of_range_noise_model() {
    let frozen = FrozenDetector::freeze(noisy_config(None), &reference()).unwrap();
    let mut bad = frozen.to_artifact().unwrap();
    bad.config.execution = ExecutionMode::Noisy {
        noise: NoiseModel {
            error_1q: 1.5,
            ..NoiseModel::brisbane()
        },
        shots: None,
    };
    let bytes = bad.to_bytes().unwrap();
    match FrozenDetector::from_bytes(&bytes) {
        Err(ServeError::Quorum(QuorumError::InvalidConfig(msg))) => {
            assert!(msg.contains("error_1q"), "{msg}")
        }
        other => panic!("thawed an out-of-range noise model: {other:?}"),
    }
}

/// Round-trips an artifact through bytes to get an owned copy to mutate.
fn artifact_clone(artifact: &FrozenArtifact) -> FrozenArtifact {
    FrozenArtifact::from_bytes(&artifact.to_bytes().unwrap()).unwrap()
}

/// Concurrent submissions through the batcher coalesce into fewer panels
/// than samples, and every score matches the direct path.
#[test]
fn batch_scorer_coalesces_concurrent_requests() {
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(8);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let scorer = BatchScorer::start(
        Arc::clone(&frozen),
        CoalescePolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(200),
        },
    )
    .unwrap();
    let barrier = Arc::new(Barrier::new(rows.len()));
    let scores: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = rows
            .iter()
            .map(|row| {
                let handle = scorer.handle();
                let barrier = Arc::clone(&barrier);
                let row = row.clone();
                s.spawn(move || {
                    barrier.wait();
                    handle.score(row).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(scorer.samples_scored(), rows.len() as u64);
    assert!(
        scorer.batches_dispatched() < rows.len() as u64,
        "concurrent requests must coalesce into fewer panels ({} batches for {} samples)",
        scorer.batches_dispatched(),
        rows.len()
    );
    // Exact mode: scores are id-independent, so coalescing order cannot
    // matter and every score must equal the direct path's.
    for (got, want) in scores.iter().zip(&direct) {
        assert_eq!(got, want);
    }
}

/// Full TCP path: concurrent clients against a live server, every score
/// bit-identical to the direct in-process streamed path (exact mode, so
/// arrival-order id assignment is immaterial).
#[test]
fn tcp_server_scores_concurrent_clients_correctly() {
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(6);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(5),
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let scores: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = rows
            .iter()
            .map(|row| {
                let row = row.clone();
                s.spawn(move || {
                    let mut client = ScoreClient::connect(addr).unwrap();
                    client.score(&row).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(scores, direct);
    assert_eq!(server.samples_scored(), rows.len() as u64);
    server.shutdown();
}

/// A malformed request gets an error frame and the connection stays
/// usable for the next request.
#[test]
fn tcp_server_answers_width_mismatch_and_keeps_the_connection() {
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy::default(),
    )
    .unwrap();
    let mut client = ScoreClient::connect(server.local_addr()).unwrap();
    let err = client.score(&[1.0, 2.0]).unwrap_err();
    assert!(matches!(err, ServeError::Request(_)), "got {err:?}");
    let row = &stream_rows(1)[0];
    let direct = frozen.score_samples(std::slice::from_ref(row), 0).unwrap();
    assert_eq!(client.score(row).unwrap(), direct[0]);
    server.shutdown();
}

/// One client streaming many samples sequentially: the server must hold
/// up over a long-lived connection and agree with the direct path.
#[test]
fn tcp_server_sustains_a_long_lived_connection() {
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(20);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy {
            max_batch: 4,
            max_wait: Duration::from_micros(100),
        },
    )
    .unwrap();
    let mut client = ScoreClient::connect(server.local_addr()).unwrap();
    for (row, want) in rows.iter().zip(&direct) {
        assert_eq!(client.score(row).unwrap(), *want);
    }
    assert_eq!(server.samples_scored(), rows.len() as u64);
    server.shutdown();
}

/// Failure isolation through the public batching API: a wrong-width row
/// is rejected at enqueue and a width-valid-but-unscorable row (NaNs)
/// fails its panel — in both cases every concurrently enqueued good row
/// still gets its exact score.
#[test]
fn bad_rows_do_not_fail_their_panel_company() {
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let good = stream_rows(6);
    let direct = frozen.score_samples(&good, 0).unwrap();
    let scorer = BatchScorer::start(
        Arc::clone(&frozen),
        CoalescePolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(200),
        },
    )
    .unwrap();
    // Round 1: a short row rides along with six good ones. Width is
    // validated at enqueue, so the bad submission never occupies a
    // panel slot and the good rows coalesce undisturbed.
    let (scores, width_err) = std::thread::scope(|s| {
        let barrier = Arc::new(Barrier::new(good.len() + 1));
        let goods: Vec<_> = good
            .iter()
            .map(|row| {
                let handle = scorer.handle();
                let barrier = Arc::clone(&barrier);
                let row = row.clone();
                s.spawn(move || {
                    barrier.wait();
                    handle.score(row)
                })
            })
            .collect();
        let bad = {
            let handle = scorer.handle();
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                handle.score(vec![1.0, 2.0])
            })
        };
        (
            goods
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
            bad.join().unwrap(),
        )
    });
    let err = width_err.unwrap_err();
    assert!(matches!(err, ServeError::Request(_)), "got {err:?}");
    assert!(err.to_string().contains("expected 7 features, got 2"));
    for (got, want) in scores.iter().zip(&direct) {
        assert_eq!(got.as_ref().unwrap(), want);
    }
    // Round 2: a NaN row has the right width, so it passes enqueue and
    // poisons its coalesced panel. The batcher rescores each row alone —
    // only the NaN submission errors, and coalescing invariance keeps
    // the good rows' scores exact.
    let (scores, nan_err) = std::thread::scope(|s| {
        let barrier = Arc::new(Barrier::new(good.len() + 1));
        let goods: Vec<_> = good
            .iter()
            .map(|row| {
                let handle = scorer.handle();
                let barrier = Arc::clone(&barrier);
                let row = row.clone();
                s.spawn(move || {
                    barrier.wait();
                    handle.score(row)
                })
            })
            .collect();
        let bad = {
            let handle = scorer.handle();
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                handle.score(vec![f64::NAN; 7])
            })
        };
        (
            goods
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
            bad.join().unwrap(),
        )
    });
    assert!(nan_err.is_err(), "a NaN row must fail its own request");
    for (got, want) in scores.iter().zip(&direct) {
        assert_eq!(
            got.as_ref().unwrap(),
            want,
            "good rows must survive a poisoned panel with exact scores"
        );
    }
}

/// A connect/score/disconnect soak must not accumulate connection state:
/// handlers reap their slab entry (closing the server-side fd clone) as
/// they exit, so the live-connection count returns to zero.
#[test]
fn connection_soak_leaves_no_tracked_connections() {
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy::default(),
    )
    .unwrap();
    let row = &stream_rows(1)[0];
    for _ in 0..20 {
        let mut client = ScoreClient::connect(server.local_addr()).unwrap();
        client.score(row).unwrap();
        drop(client);
    }
    // Handlers observe the disconnect asynchronously; poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.open_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        server.open_connections(),
        0,
        "disconnected clients must not leave tracked connections behind"
    );
    server.shutdown();
}

/// A wedged server must not hang the client forever: with a read
/// deadline set, `score` surfaces a transport error instead of blocking.
#[test]
fn client_read_timeout_fires_against_a_stalled_server() {
    // A bound listener that accepts and then never answers.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        // Hold the accepted socket open without reading or writing until
        // the client has timed out.
        let conn = listener.accept().map(|(conn, _)| conn);
        std::thread::sleep(Duration::from_millis(500));
        drop(conn);
    });
    let mut client = ScoreClient::connect_with_timeouts(
        addr,
        Some(Duration::from_millis(50)),
        Some(Duration::from_millis(50)),
    )
    .unwrap();
    let started = std::time::Instant::now();
    let err = client.score(&stream_rows(1)[0]).unwrap_err();
    assert!(matches!(err, ServeError::Io(_)), "got {err:?}");
    assert!(
        started.elapsed() < Duration::from_millis(450),
        "the deadline must fire well before the server unwedges"
    );
    stall.join().unwrap();
}

/// An implausible declared feature count is answered with an error frame
/// and then the connection closes: the declared length is the stream's
/// only framing, so an untrustworthy one cannot be resynchronised.
#[test]
fn implausible_feature_count_is_answered_then_closed() {
    use std::io::{Read, Write};
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy::default(),
    )
    .unwrap();
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // u32::MAX is the protocol-v2 health sentinel, so the largest
    // *hostile* count is one below it — still far over the feature cap.
    raw.write_all(&(u32::MAX - 1).to_le_bytes()).unwrap();
    let mut status = [0u8; 1];
    raw.read_exact(&mut status).unwrap();
    assert_eq!(status[0], 1, "the hostile frame still gets an error frame");
    let mut len_buf = [0u8; 4];
    raw.read_exact(&mut len_buf).unwrap();
    let mut msg = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    raw.read_exact(&mut msg).unwrap();
    assert!(String::from_utf8_lossy(&msg).contains("implausible feature count"));
    // ... and then EOF: the server closed rather than trying to drain an
    // attacker-sized payload.
    let mut probe = [0u8; 1];
    assert_eq!(
        raw.read(&mut probe).unwrap(),
        0,
        "connection must be closed"
    );
    server.shutdown();
}

/// A health probe (protocol v3) answers batcher statistics without
/// disturbing scoring, and the connection stays usable for both kinds
/// of request interleaved.
#[test]
fn health_probe_reports_server_liveness() {
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(3);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy::default(),
    )
    .unwrap();
    let mut client = ScoreClient::connect(server.local_addr()).unwrap();
    let fresh = client.health().unwrap();
    assert_eq!(fresh.protocol_version, 3);
    assert_eq!(fresh.samples_scored, 0);
    assert_eq!(fresh.group_panics, 0);
    for (row, want) in rows.iter().zip(&direct) {
        assert_eq!(client.score(row).unwrap(), *want);
    }
    let after = client.health().unwrap();
    assert_eq!(after.samples_scored, rows.len() as u64);
    assert_eq!(after.shed_total, 0);
    // The probe is answered outside the batching queue, so it never
    // shows up in the sample counters.
    assert_eq!(server.samples_scored(), rows.len() as u64);
    server.shutdown();
}

/// With a zero-capacity queue every request is shed with the typed
/// status-2 frame: the client surfaces `ServeError::Overloaded`, the
/// connection stays usable, and the shed totals show up in both the
/// server accessors and the health report.
#[test]
fn shed_requests_get_typed_overloaded_frames() {
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let mut server = QuorumServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy::default(),
        OverloadPolicy {
            queue_capacity: 0,
            request_deadline: None,
        },
    )
    .unwrap();
    let mut client = ScoreClient::connect(server.local_addr()).unwrap();
    let row = &stream_rows(1)[0];
    for _ in 0..3 {
        let err = client.score(row).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded(_)), "got {err:?}");
    }
    assert_eq!(server.shed_total(), 3);
    let health = client.health().unwrap();
    assert_eq!(health.shed_total, 3);
    assert_eq!(health.samples_scored, 0);
    server.shutdown();
}

/// `score_with_retry` is a straight pass-through on a healthy server
/// and refuses to retry deterministic request errors.
#[test]
fn client_retry_passes_through_on_a_healthy_server() {
    let frozen = Arc::new(FrozenDetector::freeze(base_config(), &reference()).unwrap());
    let rows = stream_rows(4);
    let direct = frozen.score_samples(&rows, 0).unwrap();
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy::default(),
    )
    .unwrap();
    let mut client = ScoreClient::connect(server.local_addr()).unwrap();
    for (row, want) in rows.iter().zip(&direct) {
        assert_eq!(client.score_with_retry(row).unwrap(), *want);
    }
    // A malformed row is a deterministic failure: no retry, immediate
    // typed error (retries would just repeat it).
    let started = std::time::Instant::now();
    let err = client.score_with_retry(&[1.0, 2.0]).unwrap_err();
    assert!(matches!(err, ServeError::Request(_)), "got {err:?}");
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "request errors must not burn the backoff schedule"
    );
    server.shutdown();
}
