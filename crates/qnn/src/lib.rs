//! # qnn-baseline — the paper's supervised QNN competitor
//!
//! A hardware-efficient variational quantum classifier trained with
//! parameter-shift gradients and Adam on **labelled** data, adapted for
//! generic tabular anomaly detection from the network-anomaly QNN of
//! Kukliansky et al. (the technique the paper benchmarks Quorum against).
//!
//! Everything Quorum avoids lives here: gradient evaluation costs two extra
//! circuit executions per parameter per sample, labels are mandatory, and
//! class imbalance drives the classifier toward conservative predictions —
//! the high-precision / low-recall behaviour visible in the paper's Fig. 8.
//!
//! ```
//! use qnn_baseline::{train, TrainConfig};
//! use qdata::Dataset;
//!
//! // A small separable labelled set.
//! let mut rows: Vec<Vec<f64>> = (0..12).map(|i| vec![0.1 + 0.01 * i as f64, 0.4]).collect();
//! rows.extend((0..12).map(|i| vec![0.9 - 0.01 * i as f64, 0.4]));
//! let mut labels = vec![false; 12];
//! labels.extend(vec![true; 12]);
//! let ds = Dataset::from_rows("toy", rows, Some(labels)).unwrap();
//!
//! let trained = train(&ds, &TrainConfig { epochs: 4, ..TrainConfig::default() });
//! let scores = trained.score_dataset(&ds);
//! assert_eq!(scores.len(), 24);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod train;

pub use model::QnnModel;
pub use train::{train, TrainConfig, TrainedQnn};
