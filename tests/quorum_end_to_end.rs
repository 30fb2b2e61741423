//! End-to-end integration tests of the full Quorum pipeline on planted
//! datasets, spanning qdata → quorum-core → qmetrics.

use quorum::core::bucket::BucketPlan;
use quorum::core::detector::normalize_for_scoring;
use quorum::core::engine::resolve;
use quorum::core::ensemble::EnsembleGroup;
use quorum::core::{ExecutionMode, QuorumConfig, QuorumDetector};
use quorum::data::Dataset;
use quorum::metrics::roc_auc;
use quorum::sim::NoiseModel;

/// A structured dataset: two correlated clusters of normals plus
/// correlation-breaking anomalies.
fn planted_dataset(n_normal: usize, n_anomalies: usize) -> Dataset {
    let mut rows = Vec::new();
    for i in 0..n_normal {
        let t = (i as f64) / (n_normal as f64);
        let cluster = if i % 2 == 0 { 1.0 } else { 1.6 };
        rows.push(vec![
            cluster * (2.0 + t),
            cluster * (4.0 - t),
            cluster * (1.0 + 0.5 * t),
            cluster * (3.0 + 0.2 * t),
            cluster * (2.5 - 0.4 * t),
            cluster * (1.5 + t),
        ]);
    }
    for k in 0..n_anomalies {
        let s = 1.0 + 0.07 * k as f64;
        // In-range magnitudes but inverted correlations.
        rows.push(vec![6.4 * s, 0.8, 0.9, 6.1, 5.9 * s, 0.3]);
    }
    let mut labels = vec![false; n_normal];
    labels.extend(vec![true; n_anomalies]);
    Dataset::from_rows("planted-e2e", rows, Some(labels)).unwrap()
}

fn base_config() -> QuorumConfig {
    QuorumConfig::default()
        .with_ensemble_groups(16)
        .with_anomaly_rate_estimate(0.08)
        .with_seed(21)
}

#[test]
fn quorum_ranks_planted_anomalies_on_top() {
    let ds = planted_dataset(40, 3);
    let labels = ds.labels().unwrap().to_vec();
    let report = QuorumDetector::new(base_config())
        .unwrap()
        .score(&ds)
        .unwrap();
    let cm = report.evaluate_at_anomaly_count(&labels);
    assert!(cm.f1() >= 0.66, "F1 too low: {cm}");
    assert!(roc_auc(report.scores(), &labels) > 0.95);
}

#[test]
fn single_compression_level_still_works() {
    let ds = planted_dataset(30, 2);
    let labels = ds.labels().unwrap().to_vec();
    for level in [1usize, 2] {
        let report = QuorumDetector::new(base_config().with_compression_levels(vec![level]))
            .unwrap()
            .score(&ds)
            .unwrap();
        let auc = roc_auc(report.scores(), &labels);
        assert!(auc > 0.8, "level {level}: AUC {auc}");
    }
}

#[test]
fn more_groups_stabilise_scores() {
    // Relative score dispersion between two seeds should shrink as the
    // ensemble grows (the paper's "benefits diminish past a point").
    let ds = planted_dataset(24, 2);
    let spread = |groups: usize| -> f64 {
        let a = QuorumDetector::new(base_config().with_ensemble_groups(groups).with_seed(1))
            .unwrap()
            .score(&ds)
            .unwrap();
        let b = QuorumDetector::new(base_config().with_ensemble_groups(groups).with_seed(2))
            .unwrap()
            .score(&ds)
            .unwrap();
        // Mean absolute difference of per-sample normalised scores.
        let norm = |r: &quorum::core::ScoreReport| {
            let total: f64 = r.scores().iter().sum();
            r.scores().iter().map(|s| s / total).collect::<Vec<f64>>()
        };
        let na = norm(&a);
        let nb = norm(&b);
        na.iter().zip(&nb).map(|(x, y)| (x - y).abs()).sum::<f64>() / na.len() as f64
    };
    let small = spread(4);
    let large = spread(32);
    assert!(
        large < small,
        "scores did not stabilise: spread(4)={small}, spread(32)={large}"
    );
}

#[test]
fn four_qubit_encoding_works() {
    // The paper's scalability claim (§IV-F): n=4 => 9-qubit circuits,
    // 15 features per circuit, compression levels 1..=3.
    let ds = planted_dataset(24, 2);
    let labels = ds.labels().unwrap().to_vec();
    let report = QuorumDetector::new(base_config().with_data_qubits(4).with_ensemble_groups(8))
        .unwrap()
        .score(&ds)
        .unwrap();
    assert_eq!(report.compression_levels(), &[1, 2, 3]);
    assert!(roc_auc(report.scores(), &labels) > 0.8);
}

#[test]
fn sampled_and_exact_agree_at_high_shots() {
    let ds = planted_dataset(20, 2);
    let exact_config = base_config().with_ensemble_groups(6);
    let sampled_config = exact_config
        .clone()
        .with_execution(ExecutionMode::Sampled { shots: 50_000 });
    let [exact, sampled] = [&exact_config, &sampled_config].map(|config| {
        QuorumDetector::new(config.clone())
            .unwrap()
            .score(&ds)
            .unwrap()
    });
    // Both find the planted pair. Their order is a near tie, which any
    // change to the ensemble's random draws may flip.
    for report in [&exact, &sampled] {
        let mut top = report.ranking()[..2].to_vec();
        top.sort_unstable();
        assert_eq!(top, [20, 21]);
    }
    // Shot noise moves every score only a little. The bounds below sit
    // about four standard deviations above the median, over seeds 1–40
    // (this config and dataset, release build), of each seed's largest
    // |Sampled − Exact| gap. Scores: median 2.57, deviation 0.76, range
    // 1.49–5.55, and 3.45 at seed 21.
    const MAX_SCORE_GAP: f64 = 5.6;
    for (i, (e, s)) in exact.scores().iter().zip(sampled.scores()).enumerate() {
        assert!(
            (e - s).abs() <= MAX_SCORE_GAP,
            "sample {i}: sampled score {s} vs exact {e}"
        );
    }
    // A score sums absolute bucket z-scores, so it is the same for a
    // sampler that estimates each deviation d and for one that estimates
    // 1 − d. So group 0's deviations are compared too, through the engine
    // the detector resolves. Their gaps: median 0.0050, deviation 0.0010,
    // range 0.0036–0.0073, and 0.0064 at seed 21.
    const MAX_DEVIATION_GAP: f64 = 0.009;
    let normalized = normalize_for_scoring(&exact_config, &ds);
    let plan = BucketPlan::from_target(
        normalized.num_samples(),
        exact_config.anomaly_rate_estimate.unwrap(),
        exact_config.bucket_probability,
    );
    let group = EnsembleGroup::generate(0, &exact_config, normalized.num_features(), &plan);
    let levels = exact_config.effective_compression_levels();
    let [exact_devs, sampled_devs] = [&exact_config, &sampled_config].map(|config| {
        resolve(config)
            .deviations_all_levels(&group, &normalized, config, &levels)
            .unwrap()
    });
    for (e, s) in exact_devs
        .iter()
        .flatten()
        .zip(sampled_devs.iter().flatten())
    {
        assert!(
            (e - s).abs() <= MAX_DEVIATION_GAP,
            "sampled deviation {s} vs exact {e}"
        );
    }
}

#[test]
fn noisy_execution_preserves_top_ranking() {
    let ds = planted_dataset(16, 2);
    let labels = ds.labels().unwrap().to_vec();
    let clean = QuorumDetector::new(base_config().with_ensemble_groups(5))
        .unwrap()
        .score(&ds)
        .unwrap();
    let noisy = QuorumDetector::new(base_config().with_ensemble_groups(5).with_execution(
        ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: None,
        },
    ))
    .unwrap()
    .score(&ds)
    .unwrap();
    let auc_clean = roc_auc(clean.scores(), &labels);
    let auc_noisy = roc_auc(noisy.scores(), &labels);
    assert!(
        auc_noisy > auc_clean - 0.15,
        "noise destroyed detection: {auc_noisy} vs {auc_clean}"
    );
}

#[test]
fn report_survives_evaluation_workflows() {
    let ds = planted_dataset(30, 3);
    let labels = ds.labels().unwrap().to_vec();
    let report = QuorumDetector::new(base_config())
        .unwrap()
        .score(&ds)
        .unwrap();
    // Every public evaluation path runs without panicking and is
    // internally consistent.
    let curve = report.detection_curve(&labels);
    assert_eq!(curve.len(), ds.num_samples() + 1);
    let sorted = report.sorted_with_labels(&labels);
    assert_eq!(sorted.len(), ds.num_samples());
    let cm_full = report.evaluate_top_n(&labels, ds.num_samples());
    assert_eq!(cm_full.recall(), 1.0); // flagging everything finds all
    let flags = report.flag_top_fraction(0.1);
    assert_eq!(flags.iter().filter(|&&f| f).count(), 3); // 10% of 33
}
