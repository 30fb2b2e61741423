//! Property pins for the lockstep batched noisy state preparation: the
//! whole-batch skeleton evolution ([`DensityEngine::prepare_batch`] — one
//! per-column RY conjugation plus one fused shared superoperator GEMM per
//! rotation position) must reproduce the per-sample gate walk
//! ([`SampleDensityEngine::prepare_batch`]) entry for entry, across
//! register widths n ∈ {2, 3}, every noise model, and batch sizes
//! 1..=32 — and the full scoring pass built on top of it must keep its
//! sampled-draw determinism.
//!
//! The fast blocks run on every `cargo test`; the `#[ignore]`d blocks are
//! the slow exhaustive suite CI executes with `cargo test -- --ignored`
//! and a bumped `PROPTEST_CASES`.

use proptest::prelude::*;
use quorum::core::bucket::BucketPlan;
use quorum::core::engine::{DensityEngine, SampleDensityEngine, ScoringEngine};
use quorum::core::ensemble::EnsembleGroup;
use quorum::core::{ExecutionMode, QuorumConfig};
use quorum::data::Dataset;
use quorum::sim::NoiseModel;

/// The noise models every equivalence block sweeps: no noise at all, the
/// paper's Brisbane preset, and an ablation-style amplified copy.
fn noise_models() -> Vec<NoiseModel> {
    vec![
        NoiseModel::ideal(),
        NoiseModel::brisbane(),
        NoiseModel::brisbane().scaled(2.0),
    ]
}

/// A spread-out dataset with `features` columns in the embedded range,
/// salted with hard zeros so degenerate multiplexor angles (the pruning
/// trap the canonical skeleton closes) are exercised.
fn normalized_dataset(features: usize, samples: usize, salt: u64) -> Dataset {
    let m = features as f64;
    let rows: Vec<Vec<f64>> = (0..samples)
        .map(|i| {
            (0..features)
                .map(|j| {
                    let t = (i * features + j) as f64 + salt as f64 * 0.13;
                    let v = (t * 0.7182).sin();
                    if v.abs() < 0.25 {
                        0.0
                    } else {
                        v.abs() / m
                    }
                })
                .collect()
        })
        .collect();
    Dataset::from_rows("lockstep-props", rows, None).unwrap()
}

/// A group drawn from `config`'s seed (bucket plan sized independently of
/// the scored batch — state preparation never touches buckets).
fn group_for(config: &QuorumConfig, num_features: usize, index: usize) -> EnsembleGroup {
    let plan = BucketPlan::from_target(64, 0.1, config.bucket_probability);
    EnsembleGroup::generate(index, config, num_features, &plan)
}

fn noisy_config(data_qubits: usize, seed: u64, noise: NoiseModel) -> QuorumConfig {
    QuorumConfig::default()
        .with_data_qubits(data_qubits)
        .with_seed(seed)
        .with_execution(ExecutionMode::Noisy { noise, shots: None })
}

/// The core pin: lockstep-prepared vec(ρ) columns against the per-sample
/// gate walk, entrywise, for one (width, seed, group, batch-size) draw
/// across every noise model — plus the realness invariant the dense
/// engine's readout forms rest on: real amplitudes, RY/CX-only
/// preparation and real Kraus channels leave every imaginary part of the
/// lockstep panel at exactly zero, so scoring may read `Re(P)` alone.
fn check_lockstep_vs_per_sample(data_qubits: usize, seed: u64, group_index: usize, samples: usize) {
    for noise in noise_models() {
        let config = noisy_config(data_qubits, seed, noise);
        let ds = normalized_dataset(config.features_per_circuit(), samples, seed);
        let group = group_for(&config, ds.num_features(), group_index);
        let lockstep = DensityEngine::prepare_batch(&group, &ds, &config).unwrap();
        let per_sample = SampleDensityEngine::prepare_batch(&group, &ds, &config).unwrap();
        assert_eq!(lockstep.rows(), per_sample.rows());
        assert_eq!(lockstep.cols(), samples);
        assert_eq!(per_sample.cols(), samples);
        for i in 0..lockstep.rows() {
            for j in 0..samples {
                let l = lockstep[(i, j)];
                let p = per_sample[(i, j)];
                assert!(
                    (l.re - p.re).abs() <= 1e-9 && (l.im - p.im).abs() <= 1e-9,
                    "n={data_qubits} seed={seed} entry ({i},{j}): lockstep {l} vs per-sample {p}"
                );
                assert!(
                    l.im == 0.0,
                    "n={data_qubits} seed={seed} entry ({i},{j}): lockstep {l} is not real"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lockstep vs per-sample prepared states across widths and every
    /// noise model, at mixed batch sizes (crossing the GEMM column-block
    /// boundary at 32 samples exercises multi-block stitching).
    #[test]
    fn lockstep_prep_matches_per_sample_walk(
        seed in 0u64..10_000,
        group_index in 0usize..4,
        samples in 1usize..=32,
    ) {
        for data_qubits in 2usize..=3 {
            check_lockstep_vs_per_sample(data_qubits, seed, group_index, samples);
        }
    }

    /// The scoring pass on top of the lockstep prep stays deterministic
    /// under shot sampling: repeated noisy+shots runs draw bit-identical
    /// statistics, and they coincide with the per-sample oracle's draws.
    #[test]
    fn lockstep_sampled_draws_are_reproducible(
        seed in 0u64..10_000,
        shots in 64u64..4096,
    ) {
        let config = QuorumConfig::default()
            .with_data_qubits(3)
            .with_seed(seed)
            .with_execution(ExecutionMode::Noisy {
                noise: NoiseModel::brisbane(),
                shots: Some(shots),
            });
        let ds = normalized_dataset(config.features_per_circuit(), 9, seed);
        let group = group_for(&config, ds.num_features(), 2);
        let a = DensityEngine.deviations(&group, &ds, &config, 1).unwrap();
        let b = DensityEngine.deviations(&group, &ds, &config, 1).unwrap();
        prop_assert_eq!(&a, &b);
        let oracle = SampleDensityEngine.deviations(&group, &ds, &config, 1).unwrap();
        for (x, y) in a.iter().zip(&oracle) {
            prop_assert!(
                (x - y).abs() <= 1.0 / shots as f64,
                "lockstep {} vs per-sample {}", x, y
            );
        }
    }
}

/// A batch exactly one sample wide (the degenerate block) and one crossing
/// several column blocks, pinned on fixed seeds.
#[test]
fn lockstep_prep_handles_block_edges() {
    for samples in [1usize, 2, 31, 32] {
        check_lockstep_vs_per_sample(3, 97, 1, samples);
    }
}

/// A wide register (n = 5, beyond every proptest width) through the same
/// lockstep pass: the panel kernels replicate the per-sample walk's
/// arithmetic exactly, so the packed batches are value-identical.
#[test]
fn wide_register_lockstep_matches_per_sample_exactly() {
    let config = noisy_config(5, 11, NoiseModel::brisbane());
    let ds = normalized_dataset(config.features_per_circuit(), 2, 11);
    let group = group_for(&config, ds.num_features(), 0);
    let lockstep = DensityEngine::prepare_batch(&group, &ds, &config).unwrap();
    let per_sample = SampleDensityEngine::prepare_batch(&group, &ds, &config).unwrap();
    assert_eq!(lockstep.rows(), 1 << 10);
    assert_eq!(lockstep.as_slice(), per_sample.as_slice());
}

/// Both packers are noise-only API surface: pure-state execution modes are
/// rejected up front.
#[test]
fn prepare_batch_rejects_pure_state_execution() {
    let config = QuorumConfig::default().with_seed(3);
    let ds = normalized_dataset(config.features_per_circuit(), 4, 3);
    let group = group_for(&config, ds.num_features(), 0);
    assert!(DensityEngine::prepare_batch(&group, &ds, &config).is_err());
    assert!(SampleDensityEngine::prepare_batch(&group, &ds, &config).is_err());
}

/// The lockstep panel really is the scoring input: scoring a prepared
/// batch through the public prep/score seam reproduces the engine's
/// one-call deviations exactly.
#[test]
fn prep_score_seam_matches_single_call_scoring() {
    let config = noisy_config(3, 29, NoiseModel::brisbane());
    let ds = normalized_dataset(config.features_per_circuit(), 12, 29);
    let group = group_for(&config, ds.num_features(), 1);
    let levels = [1usize, 2];
    let packed = DensityEngine::prepare_batch(&group, &ds, &config).unwrap();
    let via_seam = DensityEngine::score_prepared(&group, &packed, &config, &levels).unwrap();
    let one_call = DensityEngine
        .deviations_all_levels(&group, &ds, &config, &levels)
        .unwrap();
    assert_eq!(via_seam, one_call);
}

proptest! {
    // Source default of 256 cases, overridable via PROPTEST_CASES (CI
    // bumps it only for the --ignored job).
    #![proptest_config(ProptestConfig::default())]

    /// Exhaustive lockstep-vs-per-sample prep pin — no circuit oracle, so
    /// it can afford the full default case count in the CI ignored job.
    #[test]
    #[ignore = "slow exhaustive suite; run with `cargo test -- --ignored`"]
    fn exhaustive_lockstep_prep_matches_per_sample_walk(
        seed in 0u64..1_000_000,
        group_index in 0usize..8,
        samples in 1usize..=32,
    ) {
        for data_qubits in 2usize..=3 {
            check_lockstep_vs_per_sample(data_qubits, seed, group_index, samples);
        }
    }
}
