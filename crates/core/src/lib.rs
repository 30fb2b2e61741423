//! # quorum-core — zero-training unsupervised quantum anomaly detection
//!
//! The primary contribution of *"Quorum: Zero-Training Unsupervised Anomaly
//! Detection using Quantum Autoencoders"* (DAC 2025), reproduced in Rust on
//! top of the [`qsim`] simulation stack.
//!
//! ## Pipeline (paper §IV, Fig. 1)
//!
//! 1. **Preprocess** ([`qdata::preprocess`]): range-normalise every feature
//!    to `[0, 1/M]`.
//! 2. **Embed** ([`embed`]): squared features become probabilities; the
//!    remaining mass goes to an overflow state; amplitudes are prepared
//!    twice (transform + reference registers).
//! 3. **Bucket** ([`bucket`]): random subsets sized so each holds an
//!    anomaly with target probability `p` (Table I).
//! 4. **Select features** ([`features`]): uniform random `m = 2^n − 1`
//!    columns per ensemble group.
//! 5. **Random autoencoder** ([`ansatz`], [`circuit`]): an untrained
//!    encoder with angles from `U(0, 2π)`, a partial-reset bottleneck, the
//!    exact inverse decoder, then a SWAP test against the reference.
//! 6. **Scoring engine** ([`engine`]): the SWAP-test deviation is
//!    evaluated analytically on register A alone. The configuration
//!    alone picks the engine ([`engine::resolve`]): Exact and Sampled
//!    runs use the batched analytic engine — one cached fused unitary per
//!    group applied to all samples in a single matrix–matrix product —
//!    and Noisy runs a density engine, dense below
//!    [`config::STRUCTURED_AUTO_MIN_QUBITS`] data qubits and structured
//!    from there up. Simulating the full Fig. 2 circuit
//!    ([`engine::CircuitEngine`]) stays as the cross-check oracle.
//! 7. **Ensemble statistics** ([`ensemble`], [`score`]): per-bucket
//!    absolute z-scores of the SWAP deviations, summed over groups and
//!    compression levels.
//!
//! ## Quickstart
//!
//! ```
//! use quorum_core::{QuorumConfig, QuorumDetector};
//! use qdata::Dataset;
//!
//! let mut rows: Vec<Vec<f64>> = (0..12)
//!     .map(|i| vec![2.0 + 0.02 * i as f64, 4.0, 1.0, 3.0, 2.5, 1.5, 3.5])
//!     .collect();
//! rows.push(vec![9.0, 0.5, 8.0, 0.1, 9.5, 0.2, 8.8]); // outlier
//! let data = Dataset::from_rows("readme", rows, None).unwrap();
//!
//! let detector = QuorumDetector::new(
//!     QuorumConfig::default()
//!         .with_ensemble_groups(8)
//!         .with_anomaly_rate_estimate(0.08),
//! ).unwrap();
//! let report = detector.score(&data).unwrap();
//! assert_eq!(report.ranking()[0], 12);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod ansatz;
pub mod bucket;
mod cache;
pub mod circuit;
pub mod config;
pub mod detector;
pub mod embed;
pub mod engine;
pub mod ensemble;
pub mod error;
pub mod features;
pub mod score;

pub use config::{ExecutionMode, Normalization, QuorumConfig};
pub use detector::QuorumDetector;
pub use engine::{
    AnalyticEngine, BatchedAnalyticEngine, CircuitEngine, DensityEngine, SampleDensityEngine,
    ScoringEngine,
};
pub use error::QuorumError;
pub use score::ScoreReport;
