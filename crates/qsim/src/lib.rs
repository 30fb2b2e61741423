//! # qsim — a hand-rolled quantum circuit simulation stack
//!
//! This crate is the substrate for the Quorum reproduction (DAC 2025,
//! arXiv:2504.13113): everything the paper obtained from Qiskit + Aer is
//! implemented here from scratch in safe, dependency-light Rust.
//!
//! ## Layers
//!
//! * [`complex`] / [`matrix`] — scalar and small-matrix complex algebra.
//! * [`kernel`] — the sample-lane kernels of the batched engines: the
//!   Exact engine's encoder-and-readout kernel and the density engines'
//!   channel kernels, each with safe `#[target_feature]` rungs chosen at
//!   runtime per CPU.
//! * [`gate`] — the gate library (rotations, Cliffords, CSWAP, …).
//! * [`circuit`] — a circuit IR with mid-circuit reset and measurement.
//! * [`statevector`] — pure-state evolution kernels.
//! * [`density`] — mixed-state evolution with Kraus channels.
//! * [`noise`] — depolarizing/relaxation/readout noise; the Brisbane-like
//!   preset from the paper's experimental setup.
//! * [`stateprep`] — Möttönen amplitude encoding (the paper's §IV-B).
//! * [`transpile`] — [`transpile::decompose_multiqubit`], which lowers
//!   CSWAP/CCX and the other multi-qubit gates to `{CX, 1-qubit}` so the
//!   noise path charges noise per lowered gate (there is no native-basis
//!   lowering).
//! * [`simulator`] — [`simulator::Backend`] implementations: exact
//!   branching statevector and density matrix.
//! * [`parallel`] — batch execution across threads ("embarrassingly
//!   parallel" ensembles, paper §IV-F).
//! * [`sampling`] — the shared cumulative-distribution shot sampler used
//!   by every backend and engine.
//!
//! ## Quick example: a SWAP test
//!
//! ```
//! use qsim::circuit::Circuit;
//! use qsim::simulator::{Backend, StatevectorBackend};
//!
//! // Compare |0⟩ and |1⟩ with a SWAP test: P(ancilla=1) = (1-|⟨a|b⟩|²)/2.
//! let mut qc = Circuit::with_clbits(3, 1);
//! qc.x(1);            // second state = |1⟩
//! qc.h(2);            // ancilla
//! qc.cswap(2, 0, 1);
//! qc.h(2);
//! qc.measure(2, 0);
//!
//! let dist = StatevectorBackend::new().probabilities(&qc).unwrap();
//! assert!((dist.marginal_one(0) - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod channel;
pub mod circuit;
pub mod complex;
pub mod density;
pub mod error;
pub mod gate;
pub mod kernel;
pub mod matrix;
pub mod noise;
pub mod parallel;
pub mod sampling;
pub mod simulator;
pub mod stateprep;
pub mod statevector;
pub mod transpile;

pub use circuit::Circuit;
pub use complex::C64;
pub use error::QsimError;
pub use gate::Gate;
pub use noise::NoiseModel;
pub use simulator::{
    Backend, Counts, DensityMatrixBackend, GateNoise, OutcomeDistribution, StatevectorBackend,
};
pub use statevector::Statevector;
