//! Serving smoke test through the facade: freeze a detector, round-trip
//! it through artifact bytes, serve it over loopback TCP and check that
//! every served score equals its row scored alone in process, bit for
//! bit, and that the health probe agrees. Once on the Exact path and once
//! on the Noisy Brisbane path, whose dense engine prepares each panel's
//! columns for all groups at once. In process, a 9-row panel must also
//! score like its rows alone: on the dense engine its columns fill one
//! 8-lane readout block and leave one column for the per-column path.

use quorum::core::config::ExecutionMode;
use quorum::core::QuorumConfig;
use quorum::data::Dataset;
use quorum::serve::{CoalescePolicy, FrozenDetector, QuorumServer, ScoreClient};
use quorum::sim::NoiseModel;
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

fn smoke_config() -> QuorumConfig {
    QuorumConfig::default()
        .with_data_qubits(3)
        .with_ensemble_groups(4)
        .with_threads(2)
        .with_seed(0x5EEF_1E55)
}

/// Freeze → bytes → thaw → loopback score → health for `config`.
fn assert_serves_bit_identically(config: QuorumConfig) {
    let reference = Dataset::from_rows("smoke-ref", rows(12, 0), None).unwrap();
    let frozen = FrozenDetector::freeze(config, &reference).unwrap();
    let thawed = Arc::new(FrozenDetector::from_bytes(&frozen.to_bytes().unwrap()).unwrap());
    let alone = |stream: &[Vec<f64>]| -> Vec<f64> {
        stream
            .iter()
            .enumerate()
            .map(|(i, row)| {
                frozen
                    .score_samples(std::slice::from_ref(row), i as u64)
                    .unwrap()[0]
            })
            .collect()
    };
    let panel = rows(9, 20);
    let bits = |scores: &[f64]| -> Vec<u64> { scores.iter().map(|s| s.to_bits()).collect() };
    assert_eq!(
        bits(&frozen.score_samples(&panel, 0).unwrap()),
        bits(&alone(&panel)),
        "a 9-row panel must score like its rows alone"
    );
    let stream = rows(3, 40);
    let alone = alone(&stream);

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
    for (row, want) in stream.iter().zip(&alone) {
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

#[test]
fn frozen_detector_serves_bit_identical_scores_over_loopback() {
    assert_serves_bit_identically(smoke_config());
}

#[test]
fn noisy_frozen_detector_serves_bit_identical_scores_over_loopback() {
    assert_serves_bit_identically(smoke_config().with_execution(ExecutionMode::Noisy {
        noise: NoiseModel::brisbane(),
        shots: None,
    }));
}
