//! # classical-baselines — the paper's background detectors
//!
//! Classical unsupervised anomaly detectors referenced in the paper's
//! §II-C (clustering, Isolation Forests) plus two standard companions
//! (LOF, per-feature z-scores). They share the [`Detector`] trait so the
//! bench harness can sweep them next to Quorum and the QNN.
//!
//! ```
//! use classical_baselines::{Detector, IsolationForest};
//! use qdata::Dataset;
//!
//! let mut rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.01, 1.0]).collect();
//! rows.push(vec![50.0, -50.0]);
//! let ds = Dataset::from_rows("demo", rows, None).unwrap();
//! let scores = IsolationForest::default().score(&ds);
//! assert_eq!(qmetrics::top_n_indices(&scores, 1)[0], 40);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod isolation_forest;
pub mod kmeans;
pub mod lof;
pub mod zscore;

use qdata::Dataset;

/// A score-based unsupervised anomaly detector: higher score = more
/// anomalous. Implementations must be deterministic given their seeds.
pub trait Detector {
    /// Short identifier for reports.
    fn name(&self) -> &'static str;

    /// Scores every sample of the dataset (labels must be ignored).
    fn score(&self, data: &Dataset) -> Vec<f64>;
}

pub use isolation_forest::IsolationForest;
pub use kmeans::KMeansDetector;
pub use lof::LocalOutlierFactor;
pub use zscore::ZScoreDetector;
