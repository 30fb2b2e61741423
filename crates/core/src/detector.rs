//! The top-level detector: Quorum's public entry point.

use crate::bucket::BucketPlan;
use crate::config::QuorumConfig;
use crate::engine::ScoringEngine;
use crate::ensemble::EnsembleGroup;
use crate::error::QuorumError;
use crate::score::ScoreReport;
use qdata::preprocess::RangeNormalizer;
use qdata::Dataset;
use qsim::parallel::map_indexed;

/// Zero-training unsupervised quantum anomaly detector.
///
/// There is deliberately **no `fit` method**: Quorum never optimises
/// parameters. [`QuorumDetector::score`] runs the whole pipeline —
/// normalisation, bucketing, feature selection, random quantum
/// autoencoding, SWAP tests and ensemble statistics — in one call.
///
/// # Examples
///
/// ```
/// use quorum_core::config::QuorumConfig;
/// use quorum_core::detector::QuorumDetector;
/// use qdata::Dataset;
///
/// // Ten tight samples plus one outlier.
/// let mut rows: Vec<Vec<f64>> = (0..10)
///     .map(|i| vec![1.0 + 0.01 * i as f64, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
///     .collect();
/// rows.push(vec![9.0, 0.1, 8.5, 0.2, 9.5, 0.3, 7.7]);
/// let ds = Dataset::from_rows("demo", rows, None).unwrap();
///
/// let detector = QuorumDetector::new(
///     QuorumConfig::default()
///         .with_ensemble_groups(12)
///         .with_anomaly_rate_estimate(0.1),
/// ).unwrap();
/// let report = detector.score(&ds).unwrap();
/// // The outlier (index 10) gets the top anomaly score.
/// assert_eq!(report.ranking()[0], 10);
/// ```
#[derive(Debug, Clone)]
pub struct QuorumDetector {
    config: QuorumConfig,
}

impl QuorumDetector {
    /// Creates a detector after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConfig`] for inconsistent settings.
    pub fn new(config: QuorumConfig) -> Result<Self, QuorumError> {
        config.validate()?;
        Ok(QuorumDetector { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &QuorumConfig {
        &self.config
    }

    /// Scores every sample of `data`. Labels, if attached, are **stripped
    /// before any processing** — they never influence the scores — and the
    /// bucket-sizing anomaly-rate prior comes from the configuration alone.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidData`] for an unusable dataset and
    /// propagates simulation failures.
    pub fn score(&self, data: &Dataset) -> Result<ScoreReport, QuorumError> {
        self.score_with(crate::engine::resolve(&self.config), data)
    }

    /// [`QuorumDetector::score`] through an explicitly given engine instead
    /// of the configured one — how tests and benches run the per-sample
    /// oracles ([`crate::engine::AnalyticEngine`],
    /// [`crate::engine::SampleDensityEngine`]) through the whole pipeline.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuorumDetector::score`]; the engine rejects
    /// execution modes it cannot honour.
    pub fn score_with(
        &self,
        engine: &dyn ScoringEngine,
        data: &Dataset,
    ) -> Result<ScoreReport, QuorumError> {
        let all: Vec<usize> = (0..self.config.ensemble_groups).collect();
        let totals = self.subset_totals(engine, data, &all)?;
        Ok(ScoreReport::new(
            data.name(),
            totals,
            self.config.ensemble_groups,
            self.config.effective_compression_levels(),
        ))
    }

    /// The additive partial score contributed by a **subset** of the
    /// ensemble groups. Quorum's total score is a plain sum of
    /// independent per-group contributions, so disjoint subsets can run
    /// separately and be merged afterwards; summing the per-group
    /// partials in ascending group-index order reproduces
    /// [`QuorumDetector::score`] bit for bit.
    ///
    /// `group_indices` may arrive in any order; evaluation and
    /// accumulation happen in ascending index order so a subset's partial
    /// is a pure function of its *set* of groups.
    ///
    /// # Errors
    ///
    /// [`QuorumError::InvalidConfig`] for out-of-range or duplicate group
    /// indices; otherwise the same conditions as
    /// [`QuorumDetector::score`].
    pub fn score_group_subset(
        &self,
        data: &Dataset,
        group_indices: &[usize],
    ) -> Result<Vec<f64>, QuorumError> {
        self.subset_totals(crate::engine::resolve(&self.config), data, group_indices)
    }

    /// The body of [`QuorumDetector::score_group_subset`] through a given
    /// engine.
    fn subset_totals(
        &self,
        engine: &dyn ScoringEngine,
        data: &Dataset,
        group_indices: &[usize],
    ) -> Result<Vec<f64>, QuorumError> {
        if data.num_samples() < 4 {
            return Err(QuorumError::InvalidData(
                "need at least 4 samples to form deviation statistics".into(),
            ));
        }
        if data.num_features() == 0 {
            return Err(QuorumError::InvalidData("dataset has no features".into()));
        }
        let mut subset = group_indices.to_vec();
        subset.sort_unstable();
        if subset.windows(2).any(|w| w[0] == w[1]) {
            return Err(QuorumError::InvalidConfig(
                "group subset contains a duplicate index".into(),
            ));
        }
        if subset
            .last()
            .is_some_and(|&g| g >= self.config.ensemble_groups)
        {
            return Err(QuorumError::InvalidConfig(format!(
                "group subset indexes beyond the {} configured groups",
                self.config.ensemble_groups
            )));
        }
        let normalized = normalize_for_scoring(&self.config, data);

        let rate = self.config.anomaly_rate_estimate.unwrap_or(0.05);
        let plan = BucketPlan::from_target(
            normalized.num_samples(),
            rate,
            self.config.bucket_probability,
        );

        let threads = self.config.effective_threads();
        let config = &self.config;
        let subset = &subset;
        // Flatten the normalised dataset once; every group scores the same
        // borrowed panel. For noiseless runs the engine is the batched
        // analytic one: each group scores its whole batch per
        // compression level through one GEMM against its cached fused
        // encoder.
        crate::engine::with_panel(&normalized, |panel| {
            let partials: Vec<Result<Vec<f64>, QuorumError>> =
                map_indexed(subset.len(), threads, move |i| {
                    let group =
                        EnsembleGroup::generate(subset[i], config, panel.num_features(), &plan);
                    group.run_with(engine, panel, config)
                });
            let mut totals = vec![0.0; panel.num_samples()];
            for partial in partials {
                for (t, p) in totals.iter_mut().zip(partial?) {
                    *t += p;
                }
            }
            Ok(totals)
        })
    }
}

/// The exact feature preprocessing [`QuorumDetector::score`] applies
/// before any engine sees the data: labels stripped (the unsupervised
/// guarantee), then the configured normalisation — for the paper-faithful
/// `RangeMax` arm with negatives folded to absolute values, since the
/// range normaliser maps into `[-1/M, 1/M]` and amplitude embedding needs
/// non-negative reals. Public so engine-level benches and tests can feed
/// engines the same distribution the production pipeline does.
pub fn normalize_for_scoring(config: &QuorumConfig, data: &Dataset) -> Dataset {
    let unlabeled = data.strip_labels();
    match config.normalization {
        crate::config::Normalization::RangeMax => {
            absolute_features(&RangeNormalizer::fit_transform(&unlabeled))
        }
        crate::config::Normalization::MinMax => qdata::MinMaxNormalizer::fit_transform(&unlabeled),
    }
}

/// Replaces every feature with its absolute value so amplitude embedding
/// (which needs non-negative reals) is well-defined; the paper's features
/// are non-negative after its normalisation, and |·| preserves "distance
/// from typical" for signed data. Public so a frozen detector can apply
/// the identical fold to streamed samples.
pub fn absolute_features(ds: &Dataset) -> Dataset {
    let rows = ds
        .rows()
        .iter()
        .map(|r| r.iter().map(|v| v.abs()).collect())
        .collect();
    Dataset::from_rows(ds.name(), rows, ds.labels().map(<[bool]>::to_vec))
        .expect("shape preserved")
        .with_feature_names(ds.feature_names().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionMode;

    /// 20 clustered samples + 2 planted outliers at indices 20, 21.
    fn planted() -> Dataset {
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let t = i as f64 * 0.05;
                vec![
                    5.0 + t,
                    4.0 - t * 0.5,
                    6.0 + t * 0.3,
                    5.5,
                    4.5 + t,
                    5.0,
                    6.0 - t,
                    5.2,
                ]
            })
            .collect();
        rows.push(vec![0.2, 9.5, 0.1, 9.8, 0.3, 9.1, 0.2, 9.9]);
        rows.push(vec![9.9, 0.2, 9.7, 0.1, 9.5, 0.4, 9.8, 0.3]);
        let mut labels = vec![false; 20];
        labels.extend([true, true]);
        Dataset::from_rows("planted", rows, Some(labels)).unwrap()
    }

    fn fast_config() -> QuorumConfig {
        QuorumConfig::default()
            .with_ensemble_groups(10)
            .with_anomaly_rate_estimate(0.1)
            .with_threads(2)
            .with_seed(3)
    }

    #[test]
    fn detects_planted_outliers() {
        let ds = planted();
        let detector = QuorumDetector::new(fast_config()).unwrap();
        let report = detector.score(&ds).unwrap();
        let ranking = report.ranking();
        let top2: Vec<usize> = ranking[..2].to_vec();
        assert!(
            top2.contains(&20) && top2.contains(&21),
            "outliers not at top: {top2:?}"
        );
        let cm = report.evaluate_at_anomaly_count(ds.labels().unwrap());
        assert_eq!(cm.f1(), 1.0);
    }

    #[test]
    fn scoring_is_deterministic() {
        let ds = planted();
        let detector = QuorumDetector::new(fast_config()).unwrap();
        let a = detector.score(&ds).unwrap();
        let b = detector.score(&ds).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_scores_but_not_conclusions() {
        let ds = planted();
        let a = QuorumDetector::new(fast_config().with_seed(1))
            .unwrap()
            .score(&ds)
            .unwrap();
        let b = QuorumDetector::new(fast_config().with_seed(2))
            .unwrap()
            .score(&ds)
            .unwrap();
        assert_ne!(a.scores(), b.scores());
        // Both seeds still rank the planted outliers on top.
        assert!(a.ranking()[..2].contains(&20));
        assert!(b.ranking()[..2].contains(&20));
    }

    #[test]
    fn labels_do_not_influence_scores() {
        let ds = planted();
        let detector = QuorumDetector::new(fast_config()).unwrap();
        let with_labels = detector.score(&ds).unwrap();
        let without_labels = detector.score(&ds.strip_labels()).unwrap();
        assert_eq!(with_labels.scores(), without_labels.scores());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let ds = planted();
        let a = QuorumDetector::new(fast_config().with_threads(1))
            .unwrap()
            .score(&ds)
            .unwrap();
        let b = QuorumDetector::new(fast_config().with_threads(4))
            .unwrap()
            .score(&ds)
            .unwrap();
        assert_eq!(a.scores(), b.scores());
    }

    #[test]
    fn sampled_execution_still_finds_outliers() {
        let ds = planted();
        let detector = QuorumDetector::new(
            fast_config().with_execution(ExecutionMode::Sampled { shots: 4096 }),
        )
        .unwrap();
        let report = detector.score(&ds).unwrap();
        let top2 = &report.ranking()[..2];
        assert!(top2.contains(&20) && top2.contains(&21), "top2 {top2:?}");
    }

    #[test]
    fn group_subsets_are_additive_and_order_free() {
        let ds = planted();
        let detector = QuorumDetector::new(fast_config()).unwrap();
        let full = detector.score(&ds).unwrap();
        // Any disjoint partition, merged per group in ascending index
        // order, reproduces the full run bit for bit — the property the
        // serving runtime's per-group pool jobs lean on.
        let partitions: [(Vec<usize>, Vec<usize>); 2] = [
            ((0..5).collect(), (5..10).collect()),
            (vec![0, 2, 4, 6, 8], vec![1, 3, 5, 7, 9]),
        ];
        for (left, right) in partitions {
            let mut per_group: Vec<(usize, Vec<f64>)> = Vec::new();
            for subset in [&left, &right] {
                for &g in subset {
                    per_group.push((g, detector.score_group_subset(&ds, &[g]).unwrap()));
                }
            }
            per_group.sort_by_key(|(g, _)| *g);
            let mut merged = vec![0.0; ds.num_samples()];
            for (_, partial) in per_group {
                for (t, p) in merged.iter_mut().zip(partial) {
                    *t += p;
                }
            }
            assert_eq!(merged, full.scores(), "partition {left:?} | {right:?}");
        }
        // The subset's own accumulation is order-free: indices may arrive
        // shuffled without changing a single bit.
        let shuffled = detector.score_group_subset(&ds, &[7, 1, 4, 0]).unwrap();
        let sorted = detector.score_group_subset(&ds, &[0, 1, 4, 7]).unwrap();
        assert_eq!(shuffled, sorted);
    }

    #[test]
    fn group_subset_rejects_bad_indices() {
        let ds = planted();
        let detector = QuorumDetector::new(fast_config()).unwrap();
        assert!(matches!(
            detector.score_group_subset(&ds, &[10]),
            Err(QuorumError::InvalidConfig(_))
        ));
        assert!(matches!(
            detector.score_group_subset(&ds, &[1, 1]),
            Err(QuorumError::InvalidConfig(_))
        ));
        let empty = detector.score_group_subset(&ds, &[]).unwrap();
        assert!(empty.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn rejects_tiny_and_empty_datasets() {
        let detector = QuorumDetector::new(fast_config()).unwrap();
        let tiny = Dataset::from_rows("t", vec![vec![1.0]; 3], None).unwrap();
        assert!(matches!(
            detector.score(&tiny),
            Err(QuorumError::InvalidData(_))
        ));
    }

    #[test]
    fn rejects_invalid_config() {
        assert!(QuorumDetector::new(QuorumConfig::default().with_ensemble_groups(0)).is_err());
    }

    #[test]
    fn handles_signed_features() {
        // Negative raw values must not break embedding.
        let mut rows: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![-5.0 + 0.1 * i as f64, 3.0, -2.0, 1.0])
            .collect();
        rows.push(vec![5.0, -3.0, 2.0, -1.0]);
        let ds = Dataset::from_rows("signed", rows, None).unwrap();
        let detector = QuorumDetector::new(fast_config()).unwrap();
        let report = detector.score(&ds).unwrap();
        assert!(report.scores().iter().all(|s| s.is_finite()));
    }
}
