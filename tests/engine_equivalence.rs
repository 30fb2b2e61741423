//! Equivalence of the analytic scoring engines (per-sample and batched)
//! with the gate-level circuit engine, across random ansätze, register
//! widths, compression levels and execution modes — plus determinism and
//! thread-count invariance through the analytic paths.

use proptest::prelude::*;
use quorum::core::bucket::BucketPlan;
use quorum::core::engine::{
    resolve, AnalyticEngine, BatchedAnalyticEngine, CircuitEngine, DensityEngine,
    SampleDensityEngine, ScoringEngine,
};
use quorum::core::ensemble::EnsembleGroup;
use quorum::core::{ExecutionMode, QuorumConfig, QuorumDetector};
use quorum::data::Dataset;

/// A small spread-out dataset with `features` columns.
fn dataset(features: usize, samples: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..samples)
        .map(|i| {
            (0..features)
                .map(|j| 0.3 + 0.6 * ((i * features + j) as f64 * 0.7182).sin().abs())
                .collect()
        })
        .collect();
    Dataset::from_rows("engine-eq", rows, None).unwrap()
}

fn group_for(config: &QuorumConfig, ds: &Dataset, index: usize) -> EnsembleGroup {
    let plan = BucketPlan::from_target(ds.num_samples(), 0.1, config.bucket_probability);
    EnsembleGroup::generate(index, config, ds.num_features(), &plan)
}

/// Normalises the dataset the way the detector does before deviations are
/// evaluated (engines expect embedded-range features).
fn normalized(ds: &Dataset) -> Dataset {
    let ranged = quorum::data::preprocess::RangeNormalizer::fit_transform(ds);
    Dataset::from_rows(
        ranged.name(),
        ranged
            .rows()
            .iter()
            .map(|r| r.iter().map(|v| v.abs()).collect())
            .collect(),
        None,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact-mode deviations agree to ≤ 1e-9 for every reset count and
    /// random ansatz draw, on 2-, 3- and 4-qubit registers.
    #[test]
    fn engines_agree_across_widths_and_resets(
        seed in 0u64..10_000,
        group_index in 0usize..4
    ) {
        for data_qubits in 2usize..=4 {
            let config = QuorumConfig::default()
                .with_data_qubits(data_qubits)
                .with_seed(seed);
            let ds = normalized(&dataset(config.features_per_circuit(), 8));
            let group = group_for(&config, &ds, group_index);
            for reset_count in 1..data_qubits {
                let circuit = CircuitEngine
                    .deviations(&group, &ds, &config, reset_count)
                    .unwrap();
                let analytic = AnalyticEngine
                    .deviations(&group, &ds, &config, reset_count)
                    .unwrap();
                for (c, a) in circuit.iter().zip(&analytic) {
                    prop_assert!(
                        (c - a).abs() <= 1e-9,
                        "n={} reset={} seed={}: circuit {} vs analytic {}",
                        data_qubits, reset_count, seed, c, a
                    );
                }
            }
        }
    }

    /// The analytic engines are deterministic: identical inputs give
    /// identical outputs, in Exact and Sampled modes alike.
    #[test]
    fn analytic_engines_are_deterministic(seed in 0u64..10_000) {
        let config = QuorumConfig::default().with_seed(seed);
        let ds = normalized(&dataset(7, 10));
        let group = group_for(&config, &ds, 0);
        let sampled_config = config.clone().with_execution(ExecutionMode::Sampled { shots: 512 });
        for engine in [&AnalyticEngine as &dyn ScoringEngine, &BatchedAnalyticEngine] {
            let a = engine.deviations(&group, &ds, &config, 1).unwrap();
            let b = engine.deviations(&group, &ds, &config, 1).unwrap();
            prop_assert_eq!(a, b);

            let a = engine.deviations(&group, &ds, &sampled_config, 1).unwrap();
            let b = engine.deviations(&group, &ds, &sampled_config, 1).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}

#[test]
fn full_detector_scores_agree_between_engines() {
    // End-to-end: the complete pipeline (normalisation, buckets, z-scores)
    // produces the same scores whichever engine evaluates deviations.
    let mut rows: Vec<Vec<f64>> = (0..18)
        .map(|i| vec![2.0 + 0.03 * i as f64, 4.0, 1.5, 3.0, 2.5, 1.0, 3.5])
        .collect();
    rows.push(vec![9.0, 0.2, 8.5, 0.1, 9.5, 0.3, 8.0]);
    let ds = Dataset::from_rows("detector-eq", rows, None).unwrap();

    let base = QuorumConfig::default()
        .with_ensemble_groups(6)
        .with_anomaly_rate_estimate(0.1)
        .with_seed(23);
    let detector = QuorumDetector::new(base).unwrap();
    let analytic = detector.score_with(&AnalyticEngine, &ds).unwrap();
    let circuit = detector.score_with(&CircuitEngine, &ds).unwrap();
    for (a, c) in analytic.scores().iter().zip(circuit.scores()) {
        assert!((a - c).abs() < 1e-7, "analytic {a} vs circuit {c}");
    }
    assert_eq!(analytic.ranking()[0], circuit.ranking()[0]);
}

#[test]
fn analytic_path_is_thread_count_invariant() {
    let mut rows: Vec<Vec<f64>> = (0..16)
        .map(|i| vec![1.0 + 0.05 * i as f64, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        .collect();
    rows.push(vec![9.0, 0.1, 8.0, 0.2, 9.5, 0.3, 7.5]);
    let ds = Dataset::from_rows("threads-eq", rows, None).unwrap();

    let config = QuorumConfig::default()
        .with_ensemble_groups(8)
        .with_anomaly_rate_estimate(0.1)
        .with_seed(11);
    let single = QuorumDetector::new(config.clone().with_threads(1))
        .unwrap()
        .score_with(&AnalyticEngine, &ds)
        .unwrap();
    let multi = QuorumDetector::new(config.with_threads(4))
        .unwrap()
        .score_with(&AnalyticEngine, &ds)
        .unwrap();
    assert_eq!(single.scores(), multi.scores());
}

#[test]
fn auto_engine_selection_matches_forced_batched() {
    let mut rows: Vec<Vec<f64>> = (0..12)
        .map(|i| vec![1.0 + 0.02 * i as f64, 2.0, 1.5, 2.5, 1.8, 2.2, 1.3])
        .collect();
    rows.push(vec![8.0, 0.1, 7.0, 0.2, 8.5, 0.1, 7.7]);
    let ds = Dataset::from_rows("auto-eq", rows, None).unwrap();

    let base = QuorumConfig::default()
        .with_ensemble_groups(4)
        .with_anomaly_rate_estimate(0.1)
        .with_seed(3);
    assert_eq!(resolve(&base).name(), "batched");
    let detector = QuorumDetector::new(base).unwrap();
    let auto = detector.score(&ds).unwrap();
    let forced = detector.score_with(&BatchedAnalyticEngine, &ds).unwrap();
    assert_eq!(auto.scores(), forced.scores());
    // The per-sample analytic oracle lands on the same scores too (the
    // batched path preserves its per-sample summation order).
    let per_sample = detector.score_with(&AnalyticEngine, &ds).unwrap();
    for (a, b) in per_sample.scores().iter().zip(auto.scores()) {
        assert!((a - b).abs() < 1e-9, "per-sample {a} vs batched {b}");
    }
}

#[test]
fn batched_sampled_scores_bit_identical_across_runs_and_threads() {
    // Satellite pin: Sampled-mode scores through the batched path are
    // bit-identical across repeated runs and across worker-thread counts
    // (per-measurement seeds do not depend on scheduling).
    let mut rows: Vec<Vec<f64>> = (0..20)
        .map(|i| vec![3.0 + 0.04 * i as f64, 1.0, 2.0, 4.0, 2.5, 3.5, 1.5])
        .collect();
    rows.push(vec![9.0, 0.2, 8.0, 0.1, 9.5, 0.3, 8.5]);
    let ds = Dataset::from_rows("batched-det", rows, None).unwrap();

    let base = QuorumConfig::default()
        .with_execution(ExecutionMode::Sampled { shots: 1024 })
        .with_ensemble_groups(8)
        .with_anomaly_rate_estimate(0.1)
        .with_seed(19);
    let reference = QuorumDetector::new(base.clone().with_threads(1))
        .unwrap()
        .score_with(&BatchedAnalyticEngine, &ds)
        .unwrap();
    for threads in [1usize, 4] {
        let detector = QuorumDetector::new(base.clone().with_threads(threads)).unwrap();
        for run in 0..2 {
            let scores = detector.score_with(&BatchedAnalyticEngine, &ds).unwrap();
            assert_eq!(
                reference.scores(),
                scores.scores(),
                "threads {threads} run {run}"
            );
        }
    }
    // And the per-sample analytic engine draws the very same samples.
    let per_sample = QuorumDetector::new(base.with_threads(2))
        .unwrap()
        .score_with(&AnalyticEngine, &ds)
        .unwrap();
    assert_eq!(reference.scores(), per_sample.scores());
}

#[test]
fn noisy_sampled_scores_bit_identical_across_runs_and_threads() {
    // Satellite pin: Noisy + shots scoring through the density path (the
    // engine noisy runs resolve to at n = 3) is bit-identical across repeated
    // runs and across worker-thread counts — per-measurement seeds do not
    // depend on scheduling, and the fused-superoperator caches only ever
    // hold one deterministic matrix per level.
    use quorum::sim::NoiseModel;
    let mut rows: Vec<Vec<f64>> = (0..18)
        .map(|i| vec![2.5 + 0.05 * i as f64, 1.0, 3.0, 2.0, 4.0, 1.5, 2.8])
        .collect();
    rows.push(vec![9.0, 0.1, 8.5, 0.2, 9.5, 0.3, 8.0]);
    let ds = Dataset::from_rows("noisy-det", rows, None).unwrap();

    let base = QuorumConfig::default()
        .with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: Some(2048),
        })
        .with_ensemble_groups(6)
        .with_anomaly_rate_estimate(0.1)
        .with_seed(31);
    assert_eq!(resolve(&base).name(), "density");
    let reference = QuorumDetector::new(base.clone().with_threads(1))
        .unwrap()
        .score(&ds)
        .unwrap();
    for threads in [1usize, 4] {
        let detector = QuorumDetector::new(base.clone().with_threads(threads)).unwrap();
        for run in 0..2 {
            let scores = detector.score(&ds).unwrap();
            assert_eq!(
                reference.scores(),
                scores.scores(),
                "threads {threads} run {run}"
            );
        }
    }
    // Naming the (batched) density engine explicitly lands on the same
    // draws, and so does the per-sample density oracle: its unreduced
    // contraction agrees with the readout forms to ~1e-15, far inside
    // any binomial draw's threshold, so the seeded draws coincide.
    let detector = QuorumDetector::new(base.with_threads(2)).unwrap();
    let forced = detector.score_with(&DensityEngine, &ds).unwrap();
    assert_eq!(reference.scores(), forced.scores());
    let per_sample = detector.score_with(&SampleDensityEngine, &ds).unwrap();
    assert_eq!(reference.scores(), per_sample.scores());
}

#[test]
fn sampled_mode_engines_agree_through_shared_sampler() {
    // Same exact deviation, same per-measurement seed, same cumulative
    // sampler ⇒ the binomial draws coincide.
    let config = QuorumConfig::default()
        .with_seed(41)
        .with_execution(ExecutionMode::Sampled { shots: 1024 });
    let ds = normalized(&dataset(7, 8));
    let group = group_for(&config, &ds, 2);
    for reset_count in 1..config.data_qubits {
        let circuit = CircuitEngine
            .deviations(&group, &ds, &config, reset_count)
            .unwrap();
        let analytic = AnalyticEngine
            .deviations(&group, &ds, &config, reset_count)
            .unwrap();
        let batched = BatchedAnalyticEngine
            .deviations(&group, &ds, &config, reset_count)
            .unwrap();
        for ((c, a), b) in circuit.iter().zip(&analytic).zip(&batched) {
            assert!((c - a).abs() < 1e-12, "circuit {c} vs analytic {a}");
            assert!((c - b).abs() < 1e-12, "circuit {c} vs batched {b}");
        }
    }
}
