//! # quorum-bench — experiment harness for the Quorum reproduction
//!
//! Shared plumbing for the per-figure/per-table binaries (`src/bin/`) and
//! the Criterion performance benches (`benches/`): the Table I dataset
//! registry, detector/baseline runners, and plain-text table rendering.
//!
//! Every binary accepts `--groups N`, `--noisy-groups N` and `--seed S`
//! overrides so the paper-scale configuration (1,000 ensemble members) can
//! be requested explicitly; defaults are sized to finish in minutes on a
//! laptop while preserving the papers' qualitative shapes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use qdata::{synth, Dataset};
use qmetrics::confusion::ConfusionMatrix;
use qnn_baseline::{train, TrainConfig, TrainedQnn};
use quorum_core::{ExecutionMode, QuorumConfig, QuorumDetector, ScoreReport};

/// One Table I dataset: generator name, bucket-probability target and the
/// documented anomaly count (used as the rate prior, as the paper's
/// Table I does).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Registry name (`qdata::synth::by_name`).
    pub name: &'static str,
    /// Display name used in the paper's figures.
    pub display: &'static str,
    /// Table I bucket-probability target.
    pub bucket_probability: f64,
    /// Documented anomaly count (Table I).
    pub anomalies: usize,
    /// Documented sample count (Table I).
    pub samples: usize,
}

impl DatasetSpec {
    /// The anomaly-rate prior for bucket sizing.
    pub fn anomaly_rate(&self) -> f64 {
        self.anomalies as f64 / self.samples as f64
    }

    /// Generates the dataset with the given seed.
    pub fn load(&self, seed: u64) -> Dataset {
        synth::by_name(self.name, seed).expect("registered dataset")
    }
}

/// The four evaluation datasets with their Table I parameters.
pub fn table1_specs() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "breast-cancer",
            display: "Breast Cancer",
            bucket_probability: 0.75,
            anomalies: 10,
            samples: 367,
        },
        DatasetSpec {
            name: "pen-global",
            display: "Pen",
            bucket_probability: 0.6,
            anomalies: 90,
            samples: 809,
        },
        DatasetSpec {
            name: "letter",
            display: "Letter",
            bucket_probability: 0.95,
            anomalies: 33,
            samples: 533,
        },
        DatasetSpec {
            name: "power-plant",
            display: "Power Plant",
            bucket_probability: 0.75,
            anomalies: 30,
            samples: 1000,
        },
    ]
}

/// Builds the paper-faithful Quorum configuration for a dataset spec.
///
/// The execution mode picks the engine (`quorum_core::engine::resolve`):
/// noiseless runs use the batched analytic reduced-register engine, noisy
/// runs a density engine on the same reduced register.
pub fn quorum_config(spec: &DatasetSpec, groups: usize, seed: u64) -> QuorumConfig {
    QuorumConfig::default()
        .with_ensemble_groups(groups)
        .with_bucket_probability(spec.bucket_probability)
        .with_anomaly_rate_estimate(spec.anomaly_rate())
        .with_seed(seed)
}

/// Runs Quorum on a dataset in the given execution mode.
///
/// # Panics
///
/// Panics on configuration or simulation failure (experiment harness).
pub fn run_quorum(
    data: &Dataset,
    spec: &DatasetSpec,
    groups: usize,
    seed: u64,
    mode: ExecutionMode,
) -> ScoreReport {
    let config = quorum_config(spec, groups, seed).with_execution(mode);
    let detector = QuorumDetector::new(config).expect("valid config");
    detector.score(data).expect("scoring succeeds")
}

/// Trains the supervised QNN competitor on the labelled dataset and
/// returns the trained model (paper protocol: the QNN gets the labels
/// Quorum never sees).
pub fn run_qnn(data: &Dataset, seed: u64) -> TrainedQnn {
    train(
        data,
        &TrainConfig {
            seed,
            ..TrainConfig::default()
        },
    )
}

/// The four Fig. 8 metrics for a prediction vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsRow {
    /// Recall.
    pub recall: f64,
    /// Precision.
    pub precision: f64,
    /// F1 score.
    pub f1: f64,
    /// Accuracy.
    pub accuracy: f64,
}

impl MetricsRow {
    /// Extracts the row from a confusion matrix.
    pub fn from_confusion(cm: &ConfusionMatrix) -> Self {
        MetricsRow {
            recall: cm.recall(),
            precision: cm.precision(),
            f1: cm.f1(),
            accuracy: cm.accuracy(),
        }
    }
}

/// Renders a fixed-width text table (the harness output format).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let render = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        render(headers.iter().map(|h| (*h).to_string()).collect())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", render(row.clone()));
    }
}

/// Parses `--flag value` pairs from the command line with defaults.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// Ensemble groups for noiseless runs.
    pub groups: usize,
    /// Ensemble groups for noisy runs.
    pub noisy_groups: usize,
    /// Master seed.
    pub seed: u64,
}

impl CliArgs {
    /// Parses `std::env::args`, falling back to the provided defaults.
    ///
    /// # Panics
    ///
    /// Panics on malformed numeric arguments (experiment harness).
    pub fn parse(default_groups: usize, default_noisy: usize) -> Self {
        let mut out = CliArgs {
            groups: default_groups,
            noisy_groups: default_noisy,
            seed: 42,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i + 1 < args.len() {
            match args[i].as_str() {
                "--groups" => out.groups = args[i + 1].parse().expect("--groups takes a number"),
                "--noisy-groups" => {
                    out.noisy_groups = args[i + 1].parse().expect("--noisy-groups takes a number")
                }
                "--seed" => out.seed = args[i + 1].parse().expect("--seed takes a number"),
                other => panic!("unknown argument {other}"),
            }
            i += 2;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table1() {
        let specs = table1_specs();
        assert_eq!(specs.len(), 4);
        for spec in &specs {
            let ds = spec.load(1);
            assert_eq!(ds.num_samples(), spec.samples);
            assert_eq!(ds.anomaly_count(), Some(spec.anomalies));
        }
    }

    #[test]
    fn quorum_config_carries_spec_parameters() {
        let spec = &table1_specs()[2]; // letter, p = 0.95
        let config = quorum_config(spec, 10, 3);
        assert_eq!(config.bucket_probability, 0.95);
        assert!((config.anomaly_rate_estimate.unwrap() - 33.0 / 533.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_row_extraction() {
        let cm = ConfusionMatrix::from_counts(5, 5, 85, 5);
        let row = MetricsRow::from_confusion(&cm);
        assert!((row.precision - 0.5).abs() < 1e-12);
        assert!((row.recall - 0.5).abs() < 1e-12);
        assert!((row.accuracy - 0.9).abs() < 1e-12);
    }

    #[test]
    fn mini_quorum_run_via_harness() {
        let spec = &table1_specs()[3];
        let ds = spec.load(9);
        let report = run_quorum(&ds, spec, 2, 7, ExecutionMode::Exact);
        assert_eq!(report.len(), ds.num_samples());
    }
}
