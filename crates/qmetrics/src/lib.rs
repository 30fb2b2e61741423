//! # qmetrics — anomaly-detection evaluation metrics
//!
//! Implements the paper's four evaluation metrics (§V): detection rate at
//! percentile thresholds, precision, recall and F1 — plus accuracy,
//! detection-rate curves (Fig. 9), ROC-AUC, and the streaming statistics
//! Quorum's ensemble analysis needs.
//!
//! ```
//! use qmetrics::confusion::ConfusionMatrix;
//! use qmetrics::threshold::flag_top_n;
//!
//! let scores = [0.2, 9.0, 0.4, 7.0];
//! let truth = [false, true, false, true];
//! let flags = flag_top_n(&scores, 2);
//! let cm = ConfusionMatrix::from_predictions(&truth, &flags);
//! assert_eq!(cm.f1(), 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod confusion;
pub mod curve;
pub mod stats;
pub mod threshold;

pub use confusion::ConfusionMatrix;
pub use curve::{detection_rate_curve, roc_auc, CurvePoint};
pub use threshold::{detection_rate_at, flag_top_fraction, flag_top_n, top_n_indices};
