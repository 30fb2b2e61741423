//! Detection quality on the paper's Table I generators, pinned in
//! tier-1: Exact scoring at a reduced budget (60 ensemble groups) must
//! keep each dataset's F1 at the true anomaly count above a floor, and so
//! must breast cancer in Noisy Brisbane mode (30 groups), which scores on
//! the dense density engine. An engine or pipeline change that keeps
//! planted anomalies separable but loses the paper's answers fails here,
//! not only in a benchmark run.

use quorum::core::config::ExecutionMode;
use quorum::core::{QuorumConfig, QuorumDetector};
use quorum::data::synth;
use quorum::sim::NoiseModel;

/// One Table I dataset: generator name, bucket probability, documented
/// anomaly and sample counts (the anomaly-rate prior), and the F1 floor.
struct Case {
    name: &'static str,
    bucket_probability: f64,
    anomalies: usize,
    samples: usize,
    floor: f64,
}

/// The floors bound the mean F1 over [`SEEDS`]. Measured on the release
/// build over 24 seed pairs `(2k − 1, 2k)`, `k = 1..=24`, the pair means
/// had these medians and standard deviations, and each floor sits about
/// four deviations below its median:
///
/// | dataset       | median | sd     | floor |
/// |---------------|--------|--------|-------|
/// | breast cancer | 0.950  | 0.046  | 0.76  |
/// | pen-global    | 0.989  | 0.0087 | 0.95  |
/// | letter        | 0.886  | 0.046  | 0.70  |
/// | power plant   | 0.250  | 0.079  | 0.05  |
///
/// Power plant spreads too widely for that rule to give a floor above
/// zero (its lowest pair mean was 0.117); its floor catches a collapse to
/// about the F1 of a random ranking, not a lost rank.
const CASES: [Case; 4] = [
    Case {
        name: "breast-cancer",
        bucket_probability: 0.75,
        anomalies: 10,
        samples: 367,
        floor: 0.76,
    },
    Case {
        name: "pen-global",
        bucket_probability: 0.6,
        anomalies: 90,
        samples: 809,
        floor: 0.95,
    },
    Case {
        name: "letter",
        bucket_probability: 0.95,
        anomalies: 33,
        samples: 533,
        floor: 0.70,
    },
    Case {
        name: "power-plant",
        bucket_probability: 0.75,
        anomalies: 30,
        samples: 1000,
        floor: 0.05,
    },
];

/// Each seed generates the dataset and draws the ensemble.
const SEEDS: [u64; 2] = [42, 43];

const GROUPS: usize = 60;

/// Ensemble groups of the Noisy Brisbane case.
const NOISY_GROUPS: usize = 30;

/// The floor of breast cancer's mean F1 over [`SEEDS`] in Noisy Brisbane
/// mode at [`NOISY_GROUPS`]. Measured on the release build over the same
/// 24 seed pairs, the pair means had median 0.900 and standard deviation
/// 0.045 (range 0.80–1.00); the floor sits four deviations below the
/// median. Seeds 42 and 43 read 0.900.
const NOISY_BREAST_CANCER_FLOOR: f64 = 0.72;

/// F1 at the true anomaly count of one pass over `case` at `seed`, with
/// `groups` ensemble groups under `execution`.
fn f1(case: &Case, seed: u64, groups: usize, execution: ExecutionMode) -> f64 {
    let data = synth::by_name(case.name, seed).expect("a Table I generator");
    let config = QuorumConfig::default()
        .with_ensemble_groups(groups)
        .with_bucket_probability(case.bucket_probability)
        .with_anomaly_rate_estimate(case.anomalies as f64 / case.samples as f64)
        .with_seed(seed)
        .with_execution(execution);
    let report = QuorumDetector::new(config)
        .expect("valid configuration")
        .score(&data)
        .expect("scoring succeeds");
    let labels = data.labels().expect("the generators label anomalies");
    report.evaluate_at_anomaly_count(labels).f1()
}

/// Mean F1 over [`SEEDS`] and its per-seed values.
fn mean_f1(case: &Case, groups: usize, execution: &ExecutionMode) -> (f64, Vec<f64>) {
    let f1s: Vec<f64> = SEEDS
        .iter()
        .map(|&seed| f1(case, seed, groups, execution.clone()))
        .collect();
    (f1s.iter().sum::<f64>() / f1s.len() as f64, f1s)
}

#[test]
fn exact_table1_f1_stays_above_measured_floors() {
    let mut misses = Vec::new();
    for case in &CASES {
        let (mean, f1s) = mean_f1(case, GROUPS, &ExecutionMode::Exact);
        if mean < case.floor {
            misses.push(format!(
                "{}: mean F1 {mean:.4} (per seed {f1s:?}) below the floor {}",
                case.name, case.floor
            ));
        }
    }
    assert!(misses.is_empty(), "{}", misses.join("; "));
}

#[test]
fn noisy_breast_cancer_f1_stays_above_its_measured_floor() {
    let case = &CASES[0];
    let noisy = ExecutionMode::Noisy {
        noise: NoiseModel::brisbane(),
        shots: None,
    };
    let (mean, f1s) = mean_f1(case, NOISY_GROUPS, &noisy);
    assert!(
        mean >= NOISY_BREAST_CANCER_FLOOR,
        "{} in Noisy Brisbane mode: mean F1 {mean:.4} (per seed {f1s:?}) below the floor \
         {NOISY_BREAST_CANCER_FLOOR}",
        case.name
    );
}
