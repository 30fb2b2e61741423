//! Frozen-detector serving runtime for Quorum.
//!
//! Quorum's detectors need no training, but a long-lived service should
//! not redraw and refuse its ensemble per request either. This crate
//! freezes a generated detector — ensemble draws, fused encoders, bucket
//! partitions and pooled reference deviation statistics — into a
//! versioned, checksummed artifact, thaws it back into a resident
//! [`FrozenDetector`], and serves scores from a std-only threadpool TCP
//! server that coalesces concurrently arriving samples into one batched
//! engine panel (N samples or T µs, whichever comes first).
//!
//! Data flow:
//!
//! ```text
//! QuorumConfig + reference Dataset
//!         │ FrozenDetector::freeze
//!         ▼
//! FrozenArtifact bytes  (QUORUMFZ | version | length | checksum | payload)
//!         │ FrozenDetector::from_bytes (thaw + cache pre-warm)
//!         ▼
//! FrozenDetector ── score_dataset (reference replay, bit-identical)
//!         │
//!         └─ QuorumServer::bind ── per-connection handlers ──► BatchScorer
//!                                    coalesced 2^n×S panel ──► score_samples
//!                                                                  │
//!                                    one pool job per group (catch_unwind,
//!                                    panicking group re-run ≤ GROUP_RETRIES)
//!                                    group 0 │ group 1 │ … │ group G−1
//!                                                                  ▼
//!                                              Σ partials (ascending g)
//! ```
//!
//! Coalescing is invisible in the results: every per-sample score
//! depends only on the sample's row and its stable id, so batch
//! composition can never change an individual answer. The thread count
//! is invisible the same way: the ensemble score is an additive sum over
//! independent groups, the groups run as jobs on the resident worker
//! pool, and their partial vectors are summed in ascending group order,
//! so the scores are bit-identical for every thread count.
//!
//! Fault tolerance builds on the same invariant. Each group's pool job
//! runs under `catch_unwind`; a group that panics is re-run in place up
//! to [`frozen::GROUP_RETRIES`] times, and since its partial depends only
//! on the group, the rows and the ids, the retried panel is
//! bit-identical to an uninterrupted one. A group that panics on every
//! attempt fails its panel with a typed [`ServeError::Faulted`] that
//! carries the panic message; the batcher thread never sees the panic.
//! The server sheds load with typed [`ServeError::Overloaded`] frames
//! when the batching queue fills, answers `Health` probes with queue
//! pressure and the caught-panic count, and [`ScoreClient`] retries
//! transient failures with seeded exponential backoff. A deterministic
//! failpoint registry (the `fault` module, compiled only under the
//! `failpoints` feature or `cfg(test)`) drives the chaos suite that pins
//! these guarantees.

#![warn(missing_docs)]

pub mod artifact;
pub mod batch;
mod error;
#[cfg(any(test, feature = "failpoints"))]
pub mod fault;
pub mod frozen;
pub mod server;
mod wire;

pub use artifact::{FrozenArtifact, FrozenGroup, FrozenNormalizer, LevelStats};
pub use batch::{BatchHandle, BatchScorer, CoalescePolicy, OverloadPolicy, PanelScorer};
pub use error::ServeError;
pub use frozen::FrozenDetector;
pub use server::{HealthReport, QuorumServer, RetryPolicy, ScoreClient};
