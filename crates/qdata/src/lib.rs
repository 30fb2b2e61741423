//! # qdata — dataset substrate for the Quorum reproduction
//!
//! Provides the tabular [`dataset::Dataset`] container, the paper's
//! preprocessing (range normalisation to `1/M`, string hashing), CSV
//! ingestion for the real benchmark files, and seeded synthetic generators
//! reproducing the shape of the paper's Table I evaluation datasets.
//!
//! ```
//! use qdata::synth;
//! use qdata::preprocess::RangeNormalizer;
//!
//! let ds = synth::breast_cancer(42);
//! assert_eq!(ds.num_samples(), 367);
//! let normalized = RangeNormalizer::fit_transform(&ds.strip_labels());
//! let m = normalized.num_features() as f64;
//! assert!(normalized.rows().iter().flatten().all(|v| v.abs() <= 1.0 / m + 1e-12));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv;
pub mod dataset;
pub mod preprocess;
pub mod synth;

pub use dataset::{DataError, Dataset, SamplePanel};
pub use preprocess::{MinMaxNormalizer, RangeNormalizer};
