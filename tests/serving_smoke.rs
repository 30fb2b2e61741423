//! Serving smoke test through the facade: freeze a detector, round-trip
//! it through artifact bytes, serve it over loopback TCP and check that
//! a client's score and the health probe agree with the in-process path.

use quorum::core::QuorumConfig;
use quorum::data::Dataset;
use quorum::serve::{CoalescePolicy, FrozenDetector, QuorumServer, ScoreClient};
use std::sync::Arc;
use std::time::Duration;

fn rows(count: usize, phase: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..7)
                .map(|j| (((i + phase) * 7 + j) as f64 * 0.37).sin() + 0.01 * j as f64)
                .collect()
        })
        .collect()
}

#[test]
fn frozen_detector_serves_bit_identical_scores_over_loopback() {
    let config = QuorumConfig::default()
        .with_data_qubits(3)
        .with_ensemble_groups(4)
        .with_threads(2)
        .with_seed(0x5EEF_1E55);
    let reference = Dataset::from_rows("smoke-ref", rows(12, 0), None).unwrap();
    let frozen = FrozenDetector::freeze(config, &reference).unwrap();
    let thawed = Arc::new(FrozenDetector::from_bytes(&frozen.to_bytes().unwrap()).unwrap());
    let stream = rows(3, 40);
    let direct = frozen.score_samples(&stream, 0).unwrap();

    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&thawed),
        CoalescePolicy::default(),
    )
    .unwrap();
    let mut client = ScoreClient::connect_with_timeouts(
        server.local_addr(),
        Some(Duration::from_secs(30)),
        Some(Duration::from_secs(30)),
    )
    .unwrap();
    for (row, want) in stream.iter().zip(&direct) {
        assert_eq!(client.score(row).unwrap().to_bits(), want.to_bits());
    }

    let health = client.health().unwrap();
    assert_eq!(health.protocol_version, 3);
    assert_eq!(health.samples_scored, stream.len() as u64);
    assert_eq!(health.group_panics, 0);
    assert_eq!(health.shed_total, 0);
    drop(client);
    server.shutdown();
}
