//! Property pins for the batched analytic scoring path: the batched
//! lane-block engine (8-sample blocks through one encoder-and-readout
//! lane kernel), the per-sample analytic engine and the paper-literal
//! circuit engine must agree on every deviation — across random ansatz
//! draws, register widths n ∈ {2, 3}, reset counts 1..n and batch sizes
//! 1..=32 (including the degenerate single-sample batch and batches that
//! end mid-block).
//!
//! The fast blocks run on every `cargo test`; the `#[ignore]`d blocks are
//! the slow exhaustive suite CI executes with `cargo test -- --ignored`
//! and a bumped `PROPTEST_CASES`.

use proptest::prelude::*;
use quorum::core::bucket::BucketPlan;
use quorum::core::engine::{AnalyticEngine, BatchedAnalyticEngine, CircuitEngine, ScoringEngine};
use quorum::core::ensemble::EnsembleGroup;
use quorum::core::{ExecutionMode, QuorumConfig};
use quorum::data::Dataset;

/// A spread-out dataset with `features` columns and `samples` rows, in the
/// embedded range the engines expect (post range-normalisation).
fn normalized_dataset(features: usize, samples: usize, salt: u64) -> Dataset {
    let m = features as f64;
    let rows: Vec<Vec<f64>> = (0..samples)
        .map(|i| {
            (0..features)
                .map(|j| {
                    let t = (i * features + j) as f64 + salt as f64 * 0.13;
                    (t * 0.7182).sin().abs() / m
                })
                .collect()
        })
        .collect();
    Dataset::from_rows("batching-props", rows, None).unwrap()
}

/// A group drawn from `config`'s seed. The bucket plan is sized
/// independently of the scored batch: deviations never touch buckets, so
/// the same group can score batches of any size — including a single
/// sample, which no bucket plan could describe.
fn group_for(config: &QuorumConfig, num_features: usize, index: usize) -> EnsembleGroup {
    let plan = BucketPlan::from_target(64, 0.1, config.bucket_probability);
    EnsembleGroup::generate(index, config, num_features, &plan)
}

/// Asserts per-deviation agreement of `batched` against a reference
/// engine's output within `tol`.
fn assert_agree(reference: &[f64], batched: &[f64], tol: f64, label: &str) {
    assert_eq!(reference.len(), batched.len(), "{label}: length mismatch");
    for (i, (r, b)) in reference.iter().zip(batched).enumerate() {
        assert!(
            (r - b).abs() <= tol,
            "{label} sample {i}: reference {r} vs batched {b}"
        );
    }
}

/// Runs the three-engine comparison for one (seed, group, batch) draw.
fn check_three_way(seed: u64, group_index: usize, batch: usize, include_circuit: bool) {
    for data_qubits in 2usize..=3 {
        let config = QuorumConfig::default()
            .with_data_qubits(data_qubits)
            .with_seed(seed);
        let ds = normalized_dataset(config.features_per_circuit(), batch, seed);
        let group = group_for(&config, ds.num_features(), group_index);
        for reset_count in 1..data_qubits {
            let batched = BatchedAnalyticEngine
                .deviations(&group, &ds, &config, reset_count)
                .unwrap();
            let analytic = AnalyticEngine
                .deviations(&group, &ds, &config, reset_count)
                .unwrap();
            let label = format!("n={data_qubits} reset={reset_count} seed={seed} batch={batch}");
            assert_agree(&analytic, &batched, 1e-12, &format!("{label} vs analytic"));
            if include_circuit {
                let circuit = CircuitEngine
                    .deviations(&group, &ds, &config, reset_count)
                    .unwrap();
                assert_agree(&circuit, &batched, 1e-9, &format!("{label} vs circuit"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fast pin: batched vs per-sample vs circuit deviations agree across
    /// random ansatz draws, widths, resets and batch sizes.
    #[test]
    fn batched_matches_per_sample_and_circuit(
        seed in 0u64..10_000,
        group_index in 0usize..4,
        batch in 1usize..33,
    ) {
        check_three_way(seed, group_index, batch, true);
    }

    /// Sampled-mode draws through the batched path are bit-identical to
    /// the per-sample path: same exact deviation, same per-measurement
    /// seed, same cumulative sampler.
    #[test]
    fn batched_sampled_is_bit_identical_to_per_sample(
        seed in 0u64..10_000,
        batch in 1usize..33,
        shots in 64u64..4096,
    ) {
        let config = QuorumConfig::default()
            .with_seed(seed)
            .with_execution(ExecutionMode::Sampled { shots });
        let ds = normalized_dataset(config.features_per_circuit(), batch, seed);
        let group = group_for(&config, ds.num_features(), 0);
        for reset_count in 1..config.data_qubits {
            let batched = BatchedAnalyticEngine
                .deviations(&group, &ds, &config, reset_count)
                .unwrap();
            let per_sample = AnalyticEngine
                .deviations(&group, &ds, &config, reset_count)
                .unwrap();
            prop_assert_eq!(batched, per_sample);
        }
    }
}

proptest! {
    // The exhaustive suite: source default of 256 cases, overridable via
    // PROPTEST_CASES (CI bumps it only for the --ignored job).
    #![proptest_config(ProptestConfig::default())]

    /// Exhaustive batched-vs-per-sample pin. Cheap per case (no circuit
    /// simulation), so it can afford hundreds of cases.
    #[test]
    #[ignore = "slow exhaustive suite; run with `cargo test -- --ignored`"]
    fn exhaustive_batched_matches_per_sample(
        seed in 0u64..1_000_000,
        group_index in 0usize..8,
        batch in 1usize..33,
    ) {
        check_three_way(seed, group_index, batch, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exhaustive three-way pin including the circuit oracle. Circuit
    /// simulation dominates, so the case count is pinned lower than the
    /// batched-only suite.
    #[test]
    #[ignore = "slow exhaustive suite; run with `cargo test -- --ignored`"]
    fn exhaustive_batched_matches_circuit(
        seed in 0u64..1_000_000,
        group_index in 0usize..8,
        batch in 1usize..17,
    ) {
        check_three_way(seed, group_index, batch, true);
    }
}

/// The degenerate single-sample batch agrees with the per-sample path
/// and with the circuit oracle at every width and reset count.
#[test]
fn single_sample_batch_is_not_special() {
    for seed in [3u64, 1414, 99_171] {
        check_three_way(seed, 1, 1, true);
    }
}

/// Batch size must not influence any individual deviation: scoring a
/// prefix of the batch yields the prefix of the scores.
#[test]
fn deviations_are_independent_of_batch_mates() {
    let config = QuorumConfig::default().with_seed(77);
    let full = normalized_dataset(config.features_per_circuit(), 32, 7);
    let prefix = Dataset::from_rows("prefix", full.rows()[..5].to_vec(), None).unwrap();
    let group = group_for(&config, full.num_features(), 2);
    for reset_count in 1..config.data_qubits {
        let all = BatchedAnalyticEngine
            .deviations(&group, &full, &config, reset_count)
            .unwrap();
        let head = BatchedAnalyticEngine
            .deviations(&group, &prefix, &config, reset_count)
            .unwrap();
        assert_eq!(&all[..5], &head[..], "reset {reset_count}");
    }
}
