//! # quorum — facade for the Quorum DAC 2025 reproduction
//!
//! Re-exports every workspace crate under one roof so examples and
//! downstream users need a single dependency:
//!
//! * [`core`] — the zero-training unsupervised quantum anomaly detector
//!   (the paper's contribution).
//! * [`serve`] — the frozen-detector serving runtime: freeze/thaw
//!   artifacts, cross-request batching and the TCP scoring server.
//! * [`sim`] — the quantum circuit simulation stack.
//! * [`data`] — datasets, preprocessing and the Table I generators.
//! * [`metrics`] — evaluation metrics.
//! * [`qnn`] — the supervised QNN competitor.
//! * [`classical`] — classical unsupervised baselines.
//!
//! See the repository README for a tour and EXPERIMENTS.md for the
//! paper-vs-measured record.

#![forbid(unsafe_code)]

pub use classical_baselines as classical;
pub use qdata as data;
pub use qmetrics as metrics;
pub use qnn_baseline as qnn;
pub use qsim as sim;
pub use quorum_core as core;
pub use quorum_serve as serve;
