//! Convergence analysis: how anomaly scores stabilise as the ensemble
//! grows.
//!
//! The paper notes that "increasing both shot count and ensemble members
//! has significant impacts on performance, with benefits diminishing as
//! they increase past a certain point" (§V). Scores are additive over
//! groups, so one pass over `max(checkpoints)` groups yields the cumulative
//! score vector at every checkpoint for free.

use crate::bucket::BucketPlan;
use crate::config::QuorumConfig;
use crate::detector::normalize_for_scoring;
use crate::ensemble::EnsembleGroup;
use crate::error::QuorumError;
use qdata::Dataset;
use qmetrics::stats::spearman_correlation;
use qsim::parallel::map_indexed;

/// Cumulative anomaly scores after each requested ensemble size.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    checkpoints: Vec<usize>,
    /// `scores[k]` is the cumulative per-sample score vector after
    /// `checkpoints[k]` groups.
    scores: Vec<Vec<f64>>,
}

impl ConvergenceTrace {
    /// The checkpoint group counts, ascending.
    pub fn checkpoints(&self) -> &[usize] {
        &self.checkpoints
    }

    /// The cumulative scores at checkpoint `k`.
    pub fn scores_at(&self, k: usize) -> &[f64] {
        &self.scores[k]
    }

    /// Number of checkpoints recorded.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Spearman rank correlation between each checkpoint's scores and the
    /// final checkpoint's — a label-free stabilisation measure that rises
    /// toward 1 as the ensemble converges.
    pub fn rank_stability(&self) -> Vec<f64> {
        let last = match self.scores.last() {
            Some(l) => l,
            None => return Vec::new(),
        };
        self.scores
            .iter()
            .map(|s| spearman_correlation(s, last))
            .collect()
    }
}

/// Runs up to `max(checkpoints)` ensemble groups once and reports the
/// cumulative score vector at every checkpoint.
///
/// # Errors
///
/// Propagates configuration, data and simulation failures exactly as
/// [`crate::detector::QuorumDetector::score`] does.
///
/// # Examples
///
/// ```
/// use quorum_core::analysis::convergence_trace;
/// use quorum_core::QuorumConfig;
/// use qdata::Dataset;
///
/// let mut rows: Vec<Vec<f64>> = (0..12)
///     .map(|i| vec![1.0 + 0.01 * i as f64, 2.0, 3.0, 4.0])
///     .collect();
/// rows.push(vec![9.0, 0.2, 9.0, 0.1]);
/// let ds = Dataset::from_rows("demo", rows, None).unwrap();
/// let config = QuorumConfig::default().with_anomaly_rate_estimate(0.1);
/// let trace = convergence_trace(&config, &ds, &[2, 4]).unwrap();
/// assert_eq!(trace.checkpoints(), &[2, 4]);
/// let stability = trace.rank_stability();
/// assert_eq!(*stability.last().unwrap(), 1.0); // last vs itself
/// ```
pub fn convergence_trace(
    config: &QuorumConfig,
    data: &Dataset,
    checkpoints: &[usize],
) -> Result<ConvergenceTrace, QuorumError> {
    config.validate()?;
    if checkpoints.is_empty() || checkpoints.contains(&0) {
        return Err(QuorumError::InvalidConfig(
            "checkpoints must be non-empty and positive".into(),
        ));
    }
    let mut sorted: Vec<usize> = checkpoints.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let total_groups = *sorted.last().expect("non-empty");

    let normalized = normalize_for_scoring(config, data);
    let rate = config.anomaly_rate_estimate.unwrap_or(0.05);
    let plan = BucketPlan::from_target(normalized.num_samples(), rate, config.bucket_probability);
    let threads = config.effective_threads();
    let engine = crate::engine::resolve(config);

    // Flatten once; every group scores the same borrowed panel.
    let partials = crate::engine::with_panel(&normalized, |panel| {
        Ok(map_indexed(total_groups, threads, |g| {
            let group = EnsembleGroup::generate(g, config, panel.num_features(), &plan);
            group.run_with(engine, panel, config)
        }))
    })?;

    // Prefix-sum in group order, snapshotting at each checkpoint.
    let n = normalized.num_samples();
    let mut cumulative = vec![0.0; n];
    let mut snapshots = Vec::with_capacity(sorted.len());
    let mut next_checkpoint = 0usize;
    for (g, partial) in partials.into_iter().enumerate() {
        let partial = partial?;
        for (c, p) in cumulative.iter_mut().zip(partial) {
            *c += p;
        }
        while next_checkpoint < sorted.len() && g + 1 == sorted[next_checkpoint] {
            snapshots.push(cumulative.clone());
            next_checkpoint += 1;
        }
    }
    Ok(ConvergenceTrace {
        checkpoints: sorted,
        scores: snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted() -> Dataset {
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![2.0 + 0.05 * i as f64, 3.0, 1.0, 2.0, 4.0])
            .collect();
        rows.push(vec![9.0, 0.1, 8.0, 0.2, 0.3]);
        rows.push(vec![0.2, 9.0, 0.1, 8.5, 9.5]);
        Dataset::from_rows("conv", rows, None).unwrap()
    }

    fn config() -> QuorumConfig {
        QuorumConfig::default()
            .with_anomaly_rate_estimate(0.1)
            .with_threads(1)
            .with_seed(17)
    }

    #[test]
    fn trace_matches_detector_at_final_checkpoint() {
        use crate::detector::QuorumDetector;
        let ds = planted();
        let trace = convergence_trace(&config(), &ds, &[2, 5]).unwrap();
        let direct = QuorumDetector::new(config().with_ensemble_groups(5))
            .unwrap()
            .score(&ds)
            .unwrap();
        let final_scores = trace.scores_at(1);
        for (a, b) in final_scores.iter().zip(direct.scores()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn checkpoints_are_sorted_and_deduped() {
        let ds = planted();
        let trace = convergence_trace(&config(), &ds, &[4, 2, 4]).unwrap();
        assert_eq!(trace.checkpoints(), &[2, 4]);
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
    }

    #[test]
    fn stability_rises_toward_one() {
        let ds = planted();
        let trace = convergence_trace(&config(), &ds, &[1, 8, 16]).unwrap();
        let stability = trace.rank_stability();
        assert_eq!(stability.len(), 3);
        assert!((stability[2] - 1.0).abs() < 1e-12);
        assert!(
            stability[1] >= stability[0] - 0.1,
            "stability regressed: {stability:?}"
        );
    }

    #[test]
    fn scores_grow_monotonically_with_groups() {
        // Scores are sums of non-negative |z| terms.
        let ds = planted();
        let trace = convergence_trace(&config(), &ds, &[2, 6]).unwrap();
        for (a, b) in trace.scores_at(0).iter().zip(trace.scores_at(1)) {
            assert!(b >= a);
        }
    }

    #[test]
    fn rejects_bad_checkpoints() {
        let ds = planted();
        assert!(convergence_trace(&config(), &ds, &[]).is_err());
        assert!(convergence_trace(&config(), &ds, &[0]).is_err());
    }
}
