//! Pluggable scoring engines: how per-sample SWAP-test deviations are
//! actually evaluated.
//!
//! The paper's Fig. 2 circuit spans `2n + 1` qubits: register A runs
//! through the autoencoder, register B holds an untouched reference copy,
//! and a SWAP-test ancilla measures `P(1) = (1 − Tr(ρ_A ρ_B)) / 2`.
//! Simulating that literally ([`CircuitEngine`]) pays for a `2^(2n+1)`-dim
//! statevector, two amplitude-preparation gate sequences and CSWAP kernels
//! per sample — even though register B is never touched and the measured
//! quantity is an overlap computable on register A alone.
//!
//! [`AnalyticEngine`] exploits that reduction (the same trash/reference
//! trick used in quantum-autoencoder anomaly detection,
//! arXiv:2112.04958):
//!
//! 1. the sample's amplitudes are injected directly into an `n`-qubit
//!    state — no state-prep gates;
//! 2. the group's encoder circuit is **fused once per group** into a
//!    dense `2^n × 2^n` unitary
//!    ([`qsim::circuit::Circuit::to_unitary`]) and applied as a matvec
//!    (`φ = E ψ`);
//! 3. the `r`-qubit reset bottleneck expands into at most `2^r` weighted
//!    pure branches `(w_k, |χ_k⟩)` on `n` qubits;
//! 4. `Tr(ρ_A ρ_B) = Σ_k w_k |⟨ψ|D|χ_k⟩|²` comes from plain inner
//!    products — and since `D = E†`, each term collapses to
//!    `|⟨φ|χ_k⟩|²` over the already-encoded `φ`, so the decoder is never
//!    applied at all; `P(1) = (1 − Σ_k |⟨φ[..2^{n−r}]|block_k⟩|²) / 2`.
//!
//! [`BatchedAnalyticEngine`] — the default for noiseless runs — pushes the
//! same reduction one level further: instead of one `2^n`-dim matvec per
//! sample it packs **every** sample of the group column-wise into a single
//! `2^n × S` matrix `Ψ`, applies the fused encoder once as a blocked
//! matrix–matrix product `Φ = E·Ψ` ([`qsim::matrix::CMatrix::matmul`]),
//! and expands the reset branches as batched column dot products over `Φ`,
//! emitting the whole group's deviation vector in one call. The encoder
//! fusion itself is hoisted into a per-group `OnceLock` cache
//! ([`crate::ensemble::EnsembleGroup::fused_encoder`]) so all compression
//! levels of a group reuse one `to_unitary` result.
//!
//! [`DensityEngine`] — the default for noisy runs — carries the same
//! reduction over to mixed states. The paper's Brisbane-style noise
//! factorises over the Fig. 2 layout: every channel before the SWAP test
//! acts on register A *or* register B alone, so the pre-SWAP state is
//! exactly `|0⟩⟨0|_anc ⊗ ρ_A ⊗ ρ_B` — never a genuine `2n+1`-qubit mixed
//! state. The engine therefore:
//!
//! 1. prepares **all** samples' noisy input states in **lockstep**: the
//!    Möttönen preparation's gate skeleton is sample-independent
//!    ([`qsim::stateprep::PrepSkeleton`] — only the RY angles carry the
//!    data), so the whole batch evolves as one `4^n × S` vec(ρ) panel.
//!    The amplitudes are real, the preparation applies only RY and CX,
//!    and every Kraus channel of the noise model is real, so no entry
//!    ever gains an imaginary part: the panel is a real `f64` matrix
//!    ([`RealPanel`]), so every kernel moves half the bytes a complex
//!    panel would, and a fused 1q channel costs 16 real multiply-adds per
//!    lane instead of 16 complex ones. Per skeleton step, one per-column
//!    RY conjugation
//!    ([`qsim::density::ry_conjugate_columns`], the only sample-dependent
//!    operation) plus the **shared** channel/gate superoperators applied
//!    to the whole panel through sample-contiguous lane kernels
//!    ([`GateNoise::apply_after_gate_columns`] with the real views of
//!    the fused channels, [`qsim::density::permute_cx_columns`]), with
//!    fixed-width column blocks distributed across workers
//!    ([`qsim::parallel::map_indexed_with`]);
//! 2. keeps the resulting real `vec(ρ_in)` columns as the `4^n × S`
//!    panel `P` (`ρ_B` doubles as register A's input, since Fig. 2 preps
//!    both registers identically) and reads each column through one more
//!    register-level reduction: every `ρ_in` is real **symmetric**, so
//!    its `4^n` vec entries carry only `m = 2^n(2^n+1)/2` distinct
//!    numbers — the upper triangle `h = triu(ρ_in)`;
//! 3. scores every level as one **real quadratic form**
//!    `P(1) = hᵀ·G_r·h`. The readout form `G_r` ([`ReadoutForm`]) folds
//!    the level's **fused noisy superoperator** `S_r` — encoder gates
//!    with their per-gate channels, the reset Kraus channels and the
//!    decoder, fused by evolving the matrix-unit basis through the
//!    lowered gate list ([`build_noisy_superop`]) — and the **SWAP-test
//!    readout functional** `W` — the POVM element `|1⟩⟨1|_anc` pulled
//!    backwards (Heisenberg picture, adjoint channels) through the
//!    *noisy lowered* CSWAP network, restricted to `ancilla = |0⟩`, and
//!    cached globally per `(n, noise model)` — into `Re(S_rᵀ·W)` over
//!    symmetric inputs. It is built once per (group, noise model, level)
//!    through the GEMM seam ([`build_readout_form`]), `S_r` is dropped,
//!    and the form is cached on
//!    [`crate::ensemble::EnsembleGroup::readout_form`]: `m(m+1)/2` reals,
//!    5 KiB at n = 3 against a 64 KiB complex `S_r`. Per sample, the
//!    level-independent products `h_k·h_l` are formed once
//!    ([`qsim::kernel::outer_triangle_lanes`]) and each level costs one
//!    real dot product against its packed form
//!    ([`qsim::kernel::dot_lanes`]) — about 2 kflop per (group, sample)
//!    at n = 3 with two levels, where three complex `4^n × 4^n` GEMM
//!    columns cost ~100;
//! 4. applies the readout confusion to the resulting `P(1)`.
//!
//! [`SampleDensityEngine`] keeps the unreduced one-matvec-per-(sample,
//! level) path — `S_r·vec(ρ_in)` contracted against `W·vec(ρ_in)`, with
//! the per-sample gate-walk preparation — as the batched engine's
//! cross-check oracle, exactly as [`AnalyticEngine`] does for the
//! pure-state batch. The two evaluate the same real form in different
//! summation orders and agree to ~1e-15.
//!
//! Every noisy physical gate of the Fig. 2 circuit is accounted for with
//! the same fused channels the density-matrix backend applies
//! ([`qsim::simulator::GateNoise`]), so the engine tracks the
//! paper-literal noisy [`CircuitEngine`] to ≲1e-12 — with no
//! `2n+1`-qubit density simulation per sample.
//!
//! Exact mode reproduces the branching backend's semantics to ≲1e-12;
//! Sampled mode draws the same binomial statistics from the exact
//! deviation through [`qsim::sampling`], with per-measurement seeds shared
//! across all engines. `Auto` engine selection resolves the
//! execution-mode split: batched analytic for Exact/Sampled, density for
//! Noisy.

use crate::ansatz::AnsatzParams;
use crate::cache::ByteBounded;
use crate::circuit::build_sample_circuit;
use crate::config::{EngineKind, ExecutionMode, QuorumConfig};
use crate::ensemble::{derive_seed, EnsembleGroup};
use crate::error::QuorumError;
use qdata::{Dataset, SamplePanel};
use qsim::channel::{ChannelProgram, SwapTestMpo};
use qsim::circuit::{Circuit, Operation};
use qsim::complex::C64;
use qsim::density::{permute_cx_columns, ry_conjugate_columns, DensityMatrix};
use qsim::matrix::{CMatrix, GEMM_COL_BLOCK};
use qsim::parallel::map_indexed_with;
use qsim::simulator::{
    Backend, DensityMatrixBackend, GateNoise, OutcomeDistribution, StatevectorBackend,
};
use qsim::stateprep::{prepare_real_amplitudes, PrepSkeleton, PrepStep};
use qsim::{transpile, NoiseModel, QsimError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Branches lighter than this are dropped, mirroring the branching
/// statevector backend's prune threshold.
const BRANCH_PRUNE: f64 = 1e-14;

/// Evaluates SWAP-test deviations for every sample of a dataset at one
/// compression level, under one ensemble group's random draw.
///
/// Implementations must be `Send + Sync`: the detector fans groups out
/// across threads and shares one engine reference.
pub trait ScoringEngine: Send + Sync {
    /// Short human-readable engine name.
    fn name(&self) -> &'static str;

    /// The deviation `P(ancilla = 1)` of every sample in `normalized`.
    ///
    /// # Errors
    ///
    /// Propagates embedding and simulation failures; engines reject
    /// execution modes they cannot honour.
    fn deviations(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        reset_count: usize,
    ) -> Result<Vec<f64>, QuorumError>;

    /// Deviations at every compression level in `levels`, in order —
    /// the granularity at which a full group pass actually runs.
    ///
    /// The default implementation evaluates level by level through
    /// [`ScoringEngine::deviations`]. The batched engine overrides it to
    /// share everything that is level-independent (sample packing and the
    /// encoder product) across the whole sweep.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScoringEngine::deviations`].
    fn deviations_all_levels(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        levels
            .iter()
            .map(|&reset_count| self.deviations(group, normalized, config, reset_count))
            .collect()
    }

    /// [`ScoringEngine::deviations_all_levels`] over a borrowed flat
    /// [`SamplePanel`] — the zero-copy entry the serving runtime feeds
    /// from its pooled request buffers.
    ///
    /// The default implementation copies the panel into a [`Dataset`] and
    /// delegates, so every engine serves panels correctly; the batched
    /// engines override it to score the borrowed rows directly (same
    /// per-element arithmetic and iteration order, hence bit-identical to
    /// the [`Dataset`] path on the same values).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScoringEngine::deviations_all_levels`], plus
    /// [`QuorumError::InvalidData`] for panels a [`Dataset`] would reject
    /// (empty, or non-finite values).
    fn deviations_all_levels_panel(
        &self,
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        let ds = panel
            .to_dataset("panel")
            .map_err(|e| QuorumError::InvalidData(e.to_string()))?;
        self.deviations_all_levels(group, &ds, config, levels)
    }
}

/// Resolves the configured [`EngineKind`] to a concrete engine.
///
/// # Errors
///
/// Returns [`QuorumError::InvalidConfig`] for the analytic engine under
/// noisy execution (the combination [`QuorumConfig::validate`] also
/// rejects).
pub fn resolve(config: &QuorumConfig) -> Result<&'static dyn ScoringEngine, QuorumError> {
    static CIRCUIT: CircuitEngine = CircuitEngine;
    static ANALYTIC: AnalyticEngine = AnalyticEngine;
    static BATCHED: BatchedAnalyticEngine = BatchedAnalyticEngine;
    static DENSITY: DensityEngine = DensityEngine;
    static DENSITY_STRUCTURED: StructuredDensityEngine = StructuredDensityEngine;
    static DENSITY_SAMPLE: SampleDensityEngine = SampleDensityEngine;
    match config.effective_engine() {
        EngineKind::Circuit => Ok(&CIRCUIT),
        EngineKind::Analytic => {
            ensure_pure_state(config)?;
            Ok(&ANALYTIC)
        }
        EngineKind::Batched => {
            ensure_pure_state(config)?;
            Ok(&BATCHED)
        }
        EngineKind::Density => {
            ensure_noisy(config)?;
            Ok(&DENSITY)
        }
        EngineKind::DensityStructured => {
            ensure_noisy_mode(config)?;
            Ok(&DENSITY_STRUCTURED)
        }
        EngineKind::DensitySample => {
            ensure_noisy(config)?;
            Ok(&DENSITY_SAMPLE)
        }
        // `effective_engine` never returns Auto, but EngineKind is
        // non-exhaustive.
        _ => unreachable!("Auto resolves to a concrete engine"),
    }
}

/// The single guard (and error message) for the analytic engine's
/// pure-state-only limitation.
fn ensure_pure_state(config: &QuorumConfig) -> Result<(), QuorumError> {
    if matches!(config.execution, ExecutionMode::Noisy { .. }) {
        return Err(QuorumError::InvalidConfig(
            "the analytic engine is pure-state only; noisy execution needs the density or circuit engine"
                .into(),
        ));
    }
    Ok(())
}

/// The widest data register the density engine supports: the SWAP-test
/// functional is derived on the full `2n + 1`-qubit observable, which must
/// stay within the mixed-state simulator's 13-qubit limit.
const MAX_DENSITY_DATA_QUBITS: usize = 6;

/// The mode half of the density engines' guard: without a noise model
/// the analytic pure-state engines are strictly better. Shared by the
/// dense and structured engines (and the batch preparation both reuse).
fn ensure_noisy_mode(config: &QuorumConfig) -> Result<(), QuorumError> {
    if !matches!(config.execution, ExecutionMode::Noisy { .. }) {
        return Err(QuorumError::InvalidConfig(
            "the density engine scores under a noise model; Exact/Sampled execution uses the analytic engines"
                .into(),
        ));
    }
    Ok(())
}

/// The full guard for the **dense** density engines: Noisy mode plus the
/// register-width limit — the dense path materialises `16^n` fused
/// objects (the superoperators and the `2n + 1`-qubit SWAP-test
/// observable), so oversized registers are rejected up front rather than
/// on a huge allocation. The structured engine has no such objects and
/// checks only the mode ([`ensure_noisy_mode`]).
fn ensure_noisy(config: &QuorumConfig) -> Result<(), QuorumError> {
    ensure_noisy_mode(config)?;
    if config.data_qubits > MAX_DENSITY_DATA_QUBITS {
        return Err(QuorumError::InvalidConfig(format!(
            "dense noisy scoring supports at most {MAX_DENSITY_DATA_QUBITS} data qubits (the \
             {}-qubit SWAP-test observable would exceed the mixed-state simulator's memory \
             budget); wider registers run on the structured density engine",
            2 * config.data_qubits + 1
        )));
    }
    Ok(())
}

/// Deterministic per-measurement seed, shared by every engine so sampled
/// runs stay comparable across engine switches. Public for the serving
/// runtime, which scores coalesced cross-request batches with shots
/// stripped and re-applies the binomial draw per sample under a stable
/// request-assigned sample id — using this exact derivation so served
/// draws match what an in-process run at the same index would produce.
/// `sample` contributes its low 32 bits; callers with wider ids should
/// mask (draw streams repeat after 2^32 samples, which only recycles
/// measurement randomness, never data).
pub fn shot_seed(
    config: &QuorumConfig,
    group_index: usize,
    reset_count: usize,
    sample: usize,
) -> u64 {
    derive_seed(
        config.seed ^ 0x5107,
        (group_index as u64) << 40 | (reset_count as u64) << 32 | sample as u64,
    )
}

/// The shared guard for analytic reset counts: at least one qubit must be
/// reset and at least one kept.
fn ensure_reset_range(reset_count: usize, num_qubits: usize) -> Result<(), QuorumError> {
    if reset_count == 0 || reset_count >= num_qubits {
        return Err(QuorumError::InvalidConfig(format!(
            "reset count {reset_count} must lie in 1..{num_qubits}"
        )));
    }
    Ok(())
}

/// Binomial draw of `shots` ancilla measurements from an exact deviation,
/// through the same cumulative-distribution sampler the circuit backends
/// use — so all engines produce bit-identical sampled statistics from the
/// same seed. Public for the serving runtime, which applies the draw
/// after scoring a coalesced batch exactly (see [`shot_seed`]).
pub fn sampled_deviation(exact: f64, shots: u64, seed: u64) -> f64 {
    use rand::SeedableRng;
    let mut probs = HashMap::new();
    probs.insert(0u64, 1.0 - exact);
    probs.insert(1u64, exact);
    let dist = OutcomeDistribution::from_probs(1, probs);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    dist.sample(shots, &mut rng).marginal_one(0)
}

/// The paper-literal engine: builds and simulates the full `2n + 1`-qubit
/// Fig. 2 circuit per sample on the branching statevector backend (or the
/// density-matrix backend for noisy runs). Kept as the cross-check oracle
/// and as the only engine able to run noise models.
#[derive(Debug, Clone, Copy, Default)]
pub struct CircuitEngine;

impl ScoringEngine for CircuitEngine {
    fn name(&self) -> &'static str {
        "circuit"
    }

    fn deviations(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        reset_count: usize,
    ) -> Result<Vec<f64>, QuorumError> {
        let sv_backend = StatevectorBackend::new();
        let dm_backend = match &config.execution {
            ExecutionMode::Noisy { noise, .. } => {
                Some(DensityMatrixBackend::with_noise(noise.clone()))
            }
            _ => None,
        };
        let mut out = Vec::with_capacity(normalized.num_samples());
        for (i, row) in normalized.rows().iter().enumerate() {
            let values = group.features().project(row);
            let circ = build_sample_circuit(&values, group.ansatz(), reset_count)?;
            let seed = shot_seed(config, group.index(), reset_count, i);
            let p = match &config.execution {
                ExecutionMode::Exact => sv_backend.probabilities(&circ)?.marginal_one(0),
                ExecutionMode::Sampled { shots } => {
                    sv_backend.run(&circ, *shots, seed)?.marginal_one(0)
                }
                ExecutionMode::Noisy { shots, .. } => {
                    let backend = dm_backend.as_ref().expect("constructed above");
                    match shots {
                        None => backend.probabilities(&circ)?.marginal_one(0),
                        Some(s) => backend.run(&circ, *s, seed)?.marginal_one(0),
                    }
                }
            };
            out.push(p);
        }
        Ok(out)
    }
}

/// The analytic reduced-register engine: per-group fused unitaries and
/// `n`-qubit pure-state algebra (see the module docs for the math).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticEngine;

impl AnalyticEngine {
    /// `P(ancilla = 1)` for one embedded sample `psi` (unit-norm, length
    /// `2^n`) under a fused `encoder` with `reset_count` top qubits reset
    /// between it and its inverse.
    ///
    /// The decoder never has to be applied: with `D = E†`,
    /// `⟨ψ|D|χ_k⟩ = ⟨Eψ|χ_k⟩ = ⟨φ|χ_k⟩`, and `χ_k` is just the `k`-th
    /// block of `φ` renormalised and relocated to the low slots — so each
    /// branch overlap is one `2^(n−r)`-element dot product over `φ`.
    fn deviation_of(psi: &[C64], encoder: &CMatrix, num_qubits: usize, reset_count: usize) -> f64 {
        let kept = num_qubits - reset_count;
        let low_dim = 1usize << kept;
        let branches = 1usize << reset_count;

        // Encoder on register A.
        let phi = encoder.mul_vec(psi);

        // Expand the reset into ≤ 2^r weighted pure branches. Outcome `k`
        // of the reset qubits keeps the block phi[k·2^kept ..],
        // renormalised and relocated to the reset-to-zero (low) block.
        let mut trace_overlap = 0.0;
        for k in 0..branches {
            let block = &phi[k * low_dim..(k + 1) * low_dim];
            let weight: f64 = block.iter().map(|a| a.norm_sqr()).sum();
            if weight <= BRANCH_PRUNE {
                continue;
            }
            // overlap = ⟨φ|χ_k⟩ with χ_k = block/√w_k on the low slots;
            // the branch term w_k·|overlap|² cancels the 1/w_k from the
            // renormalisation, leaving |⟨φ[..2^kept]|block⟩|² outright.
            let overlap: C64 = phi[..low_dim]
                .iter()
                .zip(block)
                .map(|(a, b)| a.conj() * *b)
                .sum();
            trace_overlap += overlap.norm_sqr();
        }
        ((1.0 - trace_overlap) / 2.0).clamp(0.0, 0.5)
    }
}

impl ScoringEngine for AnalyticEngine {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn deviations(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        reset_count: usize,
    ) -> Result<Vec<f64>, QuorumError> {
        ensure_pure_state(config)?;
        let n = group.ansatz().num_qubits();
        ensure_reset_range(reset_count, n)?;
        // Fuse the group's encoder once per call; every sample reuses the
        // matrix. (The batched engine goes further and reuses one fusion
        // across all compression levels via the group's cache.) The
        // decoder is the encoder's exact adjoint and cancels out of the
        // overlap (see `deviation_of`), so it is never materialised.
        let encoder = group.ansatz().encoder().to_unitary()?;

        let mut out = Vec::with_capacity(normalized.num_samples());
        for (i, row) in normalized.rows().iter().enumerate() {
            let values = group.features().project(row);
            let amps = crate::embed::amplitudes_with_overflow(&values, n)?;
            // Inject amplitudes directly (the circuit path's state prep
            // normalises, so mirror it here).
            let norm: f64 = amps.iter().map(|a| a * a).sum::<f64>().sqrt();
            let psi: Vec<C64> = amps.iter().map(|&a| C64::from_real(a / norm)).collect();

            let exact = Self::deviation_of(&psi, &encoder, n, reset_count);
            let p = match &config.execution {
                ExecutionMode::Sampled { shots } => {
                    // Binomial draw from the exact deviation, through the
                    // same distribution sampler the backends use.
                    let seed = shot_seed(config, group.index(), reset_count, i);
                    sampled_deviation(exact, *shots, seed)
                }
                _ => exact,
            };
            out.push(p);
        }
        Ok(out)
    }
}

/// One GEMM per (group, level) is far too small at flagship scale
/// (`8×8 · 8×96` encoder, `64×64 · 64×96` superoperator products) to
/// amortise thread spawn, so the batched engines only thread the product
/// when a single one is genuinely large (roughly `n ≥ 7` for the
/// pure-state path, `n ≥ 4` for the density path, at realistic batch
/// sizes).
const GEMM_PARALLEL_WORK: usize = 1 << 21;

/// Worker threads for one batched pass (the encoder GEMM, or a density
/// panel's preparation or structured walk), from the configured thread
/// count and the pass's `dim² × samples` work estimate. Multi-group
/// ensembles keep the GEMM sequential regardless of size: the detector
/// already fans groups out across cores, and threading inside each
/// worker would multiply the two levels of parallelism into
/// oversubscription. Thread counts never change the results either way
/// (panel outputs are position-fixed).
fn gemm_threads(config: &QuorumConfig, dim: usize, samples: usize) -> usize {
    if config.ensemble_groups > 1 || dim * dim * samples < GEMM_PARALLEL_WORK {
        1
    } else {
        config.effective_threads()
    }
}

/// The batched analytic engine: the whole group's samples are packed
/// column-wise into one `2^n × S` matrix, the cached fused encoder is
/// applied as a single blocked matrix–matrix product, and the reset
/// branches expand into batched column dot products — one call emits the
/// entire deviation vector. The default for Exact and Sampled execution.
///
/// Produces the same numbers as [`AnalyticEngine`] (the per-column
/// accumulation order of the GEMM matches the per-sample matvec), but
/// amortises the encoder application across samples and the encoder
/// *fusion* across compression levels via
/// [`EnsembleGroup::fused_encoder`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchedAnalyticEngine;

impl BatchedAnalyticEngine {
    /// Packs every sample's amplitude embedding into the columns of a
    /// `2^n × S` matrix, unit-normalising each column the way the circuit
    /// path's state preparation does. Projection and embedding run
    /// through reusable scratch buffers — no per-sample allocations.
    fn pack_samples<'a>(
        group: &EnsembleGroup,
        rows: impl Iterator<Item = &'a [f64]>,
        samples: usize,
        num_qubits: usize,
    ) -> Result<CMatrix, QuorumError> {
        let dim = 1usize << num_qubits;
        let mut psi = CMatrix::zeros(dim, samples);
        let mut values = Vec::with_capacity(group.features().len());
        let mut amps = vec![0.0_f64; dim];
        for (col, row) in rows.enumerate() {
            group.features().project_into(row, &mut values);
            crate::embed::amplitudes_with_overflow_into(&values, num_qubits, &mut amps)?;
            let norm: f64 = amps.iter().map(|a| a * a).sum::<f64>().sqrt();
            for (i, &a) in amps.iter().enumerate() {
                psi[(i, col)] = C64::from_real(a / norm);
            }
        }
        Ok(psi)
    }

    /// The level-independent half of a group pass: pack the batch and
    /// push it through the cached fused encoder in one GEMM, yielding
    /// `Φ = E·Ψ` with one encoded sample per column.
    fn encode_batch<'a>(
        group: &EnsembleGroup,
        rows: impl Iterator<Item = &'a [f64]>,
        samples: usize,
        config: &QuorumConfig,
    ) -> Result<CMatrix, QuorumError> {
        let n = group.ansatz().num_qubits();
        let encoder = group.fused_encoder()?;
        let psi = Self::pack_samples(group, rows, samples, n)?;
        let threads = gemm_threads(config, 1 << n, psi.cols());
        Ok(encoder.matmul_threaded(&psi, threads)?)
    }

    /// Splits the encoded matrix `Φ` into separate re/im `f64` planes
    /// (row-major, one repack per group pass) so the branch sweeps run on
    /// pure `f64` lane streams instead of interleaved `C64` rows.
    fn split_phi(phi: &CMatrix) -> (Vec<f64>, Vec<f64>) {
        let mut re = Vec::with_capacity(phi.rows() * phi.cols());
        let mut im = Vec::with_capacity(phi.rows() * phi.cols());
        for &z in phi.as_slice() {
            re.push(z.re);
            im.push(z.im);
        }
        (re, im)
    }

    /// `P(ancilla = 1)` for every column of the encoded matrix `Φ = E·Ψ`,
    /// given as split re/im planes.
    ///
    /// The per-sample branch expansion (see [`AnalyticEngine`]) becomes
    /// row-wise sweeps over `Φ`: for branch `k` and kept index `i`, row
    /// `k·2^kept + i` holds every sample's `k`-th block entry contiguously,
    /// so branch weights and overlaps accumulate for all `S` samples in
    /// one lane pass per row through the split-complex
    /// [`qsim::kernel::branch_sweep_lanes`] kernel (runtime-AVX-recompiled
    /// like the GEMM tiles) — same per-sample summation order and
    /// per-element expressions as the matvec path, hence bit-identical
    /// deviations.
    fn deviations_of(
        phi_re: &[f64],
        phi_im: &[f64],
        samples: usize,
        num_qubits: usize,
        reset_count: usize,
    ) -> Vec<f64> {
        let kept = num_qubits - reset_count;
        let low_dim = 1usize << kept;
        let branches = 1usize << reset_count;

        let mut trace_overlap = vec![0.0; samples];
        let mut over_re = vec![0.0; samples];
        let mut over_im = vec![0.0; samples];
        let mut weight = vec![0.0; samples];
        for k in 0..branches {
            over_re.fill(0.0);
            over_im.fill(0.0);
            weight.fill(0.0);
            for i in 0..low_dim {
                let low = i * samples;
                let top = (k * low_dim + i) * samples;
                qsim::kernel::branch_sweep_lanes(
                    &phi_re[low..low + samples],
                    &phi_im[low..low + samples],
                    &phi_re[top..top + samples],
                    &phi_im[top..top + samples],
                    &mut weight,
                    &mut over_re,
                    &mut over_im,
                );
            }
            for (((t, &or), &oi), &w) in trace_overlap
                .iter_mut()
                .zip(&over_re)
                .zip(&over_im)
                .zip(&weight)
            {
                // Mirror the per-sample path's branch pruning exactly.
                if w > BRANCH_PRUNE {
                    *t += or * or + oi * oi;
                }
            }
        }
        trace_overlap
            .iter()
            .map(|t| ((1.0 - t) / 2.0).clamp(0.0, 0.5))
            .collect()
    }
}

impl ScoringEngine for BatchedAnalyticEngine {
    fn name(&self) -> &'static str {
        "batched"
    }

    fn deviations(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        reset_count: usize,
    ) -> Result<Vec<f64>, QuorumError> {
        let mut all = self.deviations_all_levels(group, normalized, config, &[reset_count])?;
        all.pop()
            .ok_or_else(|| QuorumError::Internal("deviations_all_levels returned no levels".into()))
    }

    fn deviations_all_levels(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        self.deviations_all_levels_rows(
            group,
            normalized.rows().iter().map(Vec::as_slice),
            normalized.num_samples(),
            config,
            levels,
        )
    }

    fn deviations_all_levels_panel(
        &self,
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        self.deviations_all_levels_rows(group, panel.rows(), panel.num_samples(), config, levels)
    }
}

impl BatchedAnalyticEngine {
    /// The shared body of both `deviations_all_levels` entry points,
    /// generic over the row source.
    fn deviations_all_levels_rows<'a>(
        &self,
        group: &EnsembleGroup,
        rows: impl Iterator<Item = &'a [f64]>,
        samples: usize,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        ensure_pure_state(config)?;
        let n = group.ansatz().num_qubits();
        for &reset_count in levels {
            ensure_reset_range(reset_count, n)?;
        }

        // Everything level-independent happens once per group: packing,
        // fusion (cached across calls too), the encoder GEMM, and the
        // split-complex repack the branch sweeps run on.
        let phi = Self::encode_batch(group, rows, samples, config)?;
        let samples = phi.cols();
        let (phi_re, phi_im) = Self::split_phi(&phi);

        levels
            .iter()
            .map(|&reset_count| {
                let exact = Self::deviations_of(&phi_re, &phi_im, samples, n, reset_count);
                Ok(match &config.execution {
                    ExecutionMode::Sampled { shots } => exact
                        .iter()
                        .enumerate()
                        .map(|(i, &e)| {
                            let seed = shot_seed(config, group.index(), reset_count, i);
                            sampled_deviation(e, *shots, seed)
                        })
                        .collect(),
                    _ => exact,
                })
            })
            .collect()
    }
}

/// Builds the fused noisy superoperator of one group's bottlenecked
/// autoencoder segment — encoder gates with their per-gate noise channels,
/// the `reset_count` reset Kraus channels, and the decoder — as a
/// `4^n × 4^n` matrix over row-major `vec(ρ)`.
///
/// Columns are extracted by evolving the matrix-unit basis `E_ij` through
/// the *lowered* gate list with exactly the kernels the density-matrix
/// backend uses ([`GateNoise::apply_after_gate`]), so applying the result
/// to `vec(ρ)` reproduces the backend's per-gate evolution to machine
/// precision. Called through the per-group cache
/// ([`EnsembleGroup::fused_noisy_superop`]); one build covers every sample.
///
/// # Errors
///
/// Propagates simulation failures (the segment is reset-plus-unitary, so
/// this is effectively infallible for valid ansätze).
pub(crate) fn build_noisy_superop(
    ansatz: &AnsatzParams,
    noise: &NoiseModel,
    reset_count: usize,
) -> Result<CMatrix, QuorumError> {
    let n = ansatz.num_qubits();
    let mut circ = Circuit::new(n);
    circ.compose(&ansatz.encoder(), 0)
        .map_err(QuorumError::Simulation)?;
    for q in (n - reset_count)..n {
        circ.reset(q);
    }
    circ.compose(&ansatz.decoder(), 0)
        .map_err(QuorumError::Simulation)?;
    let lowered = transpile::decompose_multiqubit(&circ);
    let gate_noise = GateNoise::from_model(noise);

    let dim = 1usize << n;
    let mut superop = CMatrix::zeros(dim * dim, dim * dim);
    for col in 0..dim * dim {
        let mut unit = CMatrix::zeros(dim, dim);
        unit[(col / dim, col % dim)] = C64::ONE;
        let mut rho = DensityMatrix::from_cmatrix(&unit).map_err(QuorumError::Simulation)?;
        evolve_noisy(&mut rho, &lowered, &gate_noise)?;
        for (row, &value) in rho.as_slice().iter().enumerate() {
            superop[(row, col)] = value;
        }
    }
    Ok(superop)
}

/// The upper-triangle coordinates `(a, b)`, `a ≤ b`, of a `dim × dim`
/// matrix in row-major order — the layout of `h = triu(ρ)` and of a
/// [`ReadoutForm`]'s coordinates.
fn upper_triangle(dim: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..dim).flat_map(move |a| (a..dim).map(move |b| (a, b)))
}

/// The dense density engine's readout at one (group, noise model,
/// compression level): the real symmetric quadratic form `G_r` with
/// `P(1) = hᵀ·G_r·h` before readout confusion, for `h` the upper
/// triangle of a real symmetric prepared state (see the module docs).
///
/// Stored as its packed upper triangle, row-major over coordinate pairs
/// `k ≤ l`, with every off-diagonal entry doubled — so the form is one
/// dot product ([`qsim::kernel::dot_lanes`]) against the packed products
/// `h_k·h_l` ([`qsim::kernel::outer_triangle_lanes`]). Built by
/// [`build_readout_form`] and cached per group
/// ([`EnsembleGroup::readout_form`]).
#[derive(Debug)]
pub struct ReadoutForm {
    packed: Vec<f64>,
}

impl ReadoutForm {
    /// Heap bytes the form holds — the size measure of its byte-bounded
    /// cache (5 KiB at n = 3, 1.1 MiB at n = 5).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(self.packed.as_slice())
    }
}

/// Builds the [`ReadoutForm`] of one group's bottlenecked segment at
/// `reset_count` under `noise`.
///
/// The unreduced path scores `raw = vec(ρ)ᵀ·S_rᵀ·W·vec(ρ)` from the fused
/// superoperator `S_r` ([`build_noisy_superop`]) and the cached SWAP-test
/// functional `W`. For a real symmetric `ρ` with upper triangle `h`,
/// `vec(ρ) = F·h`, where `F` sends coordinate `(a, b)` to both vec
/// indices `(a, b)` and `(b, a)`, so `Re(raw) = hᵀ·Re((S_r·F)ᵀ·(W·F))·h`.
/// Both folds are column sums; their product `Re(S_rᵀ·W)` restricted to
/// symmetric inputs runs through the GEMM seam
/// ([`qsim::matrix::CMatrix::matmul`]) as an `m × 4^n · 4^n × m` product,
/// and the result is symmetrised into the packed triangle. `S_r` is
/// dropped. Called through the per-group cache
/// ([`EnsembleGroup::readout_form`]).
///
/// # Errors
///
/// Propagates superoperator and functional construction failures
/// (effectively infallible for valid ansätze).
pub(crate) fn build_readout_form(
    ansatz: &AnsatzParams,
    noise: &NoiseModel,
    reset_count: usize,
) -> Result<ReadoutForm, QuorumError> {
    let n = ansatz.num_qubits();
    let dim = 1usize << n;
    let superop = build_noisy_superop(ansatz, noise, reset_count)?;
    let w = swap_test_functional(n, noise)?;
    // Coordinate (a, b) collects vec columns (a, b) and (b, a) — once on
    // the diagonal.
    let fold = |mat: &CMatrix, i: usize, a: usize, b: usize| {
        let v = mat[(i, a * dim + b)];
        if a == b {
            v
        } else {
            v + mat[(i, b * dim + a)]
        }
    };
    let pairs: Vec<(usize, usize)> = upper_triangle(dim).collect();
    let m = pairs.len();
    let mut sf_t = CMatrix::zeros(m, dim * dim);
    let mut wf = CMatrix::zeros(dim * dim, m);
    for (k, &(a, b)) in pairs.iter().enumerate() {
        for i in 0..dim * dim {
            sf_t[(k, i)] = fold(&superop, i, a, b);
            wf[(i, k)] = fold(&w, i, a, b);
        }
    }
    drop(superop);
    let g = sf_t.matmul(&wf)?;
    // hᵀ·G·h = Σ_k G_kk·h_k² + Σ_{k<l} (G_kl + G_lk)·h_k·h_l.
    let mut packed = Vec::with_capacity(m * (m + 1) / 2);
    for k in 0..m {
        packed.push(g[(k, k)].re);
        packed.extend((k + 1..m).map(|l| g[(k, l)].re + g[(l, k)].re));
    }
    Ok(ReadoutForm { packed })
}

/// Lowers the same bottlenecked autoencoder segment as
/// [`build_noisy_superop`] — encoder, `reset_count` resets, decoder —
/// into a structured per-gate [`ChannelProgram`]
/// ([`EnsembleGroup::channel_program`]), instead of fusing it dense: the
/// program is `O(gates)` to build and `O(ops · 4^n)` per sample to
/// apply, never materialising the `16^n` superoperator, which is what
/// unlocks registers past the dense engine's width cap.
///
/// # Errors
///
/// Propagates lowering failures (the segment is reset-plus-unitary over
/// 1q/CX gates, so this is effectively infallible for valid ansätze).
pub(crate) fn build_channel_program(
    ansatz: &AnsatzParams,
    noise: &NoiseModel,
    reset_count: usize,
) -> Result<ChannelProgram, QuorumError> {
    let n = ansatz.num_qubits();
    let mut circ = Circuit::new(n);
    circ.compose(&ansatz.encoder(), 0)
        .map_err(QuorumError::Simulation)?;
    for q in (n - reset_count)..n {
        circ.reset(q);
    }
    circ.compose(&ansatz.decoder(), 0)
        .map_err(QuorumError::Simulation)?;
    let lowered = transpile::decompose_multiqubit(&circ);
    ChannelProgram::from_lowered(&lowered, &GateNoise::from_model(noise))
        .map_err(QuorumError::Simulation)
}

/// Evolves a density operator forward through a lowered instruction list,
/// charging the fused per-gate noise after every gate — the shared
/// Schrödinger-picture walk behind the superoperator builder and the
/// per-sample noisy state preparation.
fn evolve_noisy(
    rho: &mut DensityMatrix,
    lowered: &Circuit,
    gate_noise: &GateNoise,
) -> Result<(), QuorumError> {
    for instr in lowered.instructions() {
        match &instr.op {
            Operation::Gate(g) => {
                rho.apply_gate(*g, &instr.qubits)
                    .map_err(QuorumError::Simulation)?;
                gate_noise
                    .apply_after_gate(rho, g.num_qubits(), &instr.qubits)
                    .map_err(QuorumError::Simulation)?;
            }
            Operation::Reset => {
                rho.reset(instr.qubits[0])
                    .map_err(QuorumError::Simulation)?;
            }
            Operation::Barrier => {}
            _ => {
                return Err(QuorumError::InvalidConfig(
                    "unsupported operation inside an autoencoder segment".into(),
                ));
            }
        }
    }
    Ok(())
}

/// The sample's noisy amplitude preparation on `n` qubits: the same
/// Möttönen circuit the Fig. 2 layout applies to registers A and B,
/// lowered and evolved with per-gate noise. The result serves as both
/// `ρ_B` and register A's input.
fn noisy_prepared_state(
    amps: &[f64],
    num_qubits: usize,
    gate_noise: &GateNoise,
) -> Result<DensityMatrix, QuorumError> {
    let prep = prepare_real_amplitudes(num_qubits, amps).map_err(QuorumError::Simulation)?;
    let lowered = transpile::decompose_multiqubit(&prep);
    let mut rho = DensityMatrix::new(num_qubits).map_err(QuorumError::Simulation)?;
    evolve_noisy(&mut rho, &lowered, gate_noise)?;
    Ok(rho)
}

/// Builds the SWAP-test readout functional `W` for `n`-qubit registers
/// under `noise`: `P(ancilla = 1) = vec(ρ_A)ᵀ · W · vec(ρ_B)` (before
/// readout confusion), where the probability includes every noisy lowered
/// gate of the CSWAP network.
///
/// Derivation: the POVM element `Π₁ = |1⟩⟨1|_anc ⊗ I` is pulled backwards
/// through the lowered SWAP-test gates in the Heisenberg picture — gate
/// adjoints via inverse gates, channel adjoints via
/// [`GateNoise::apply_adjoint_after_gate`] — and the resulting observable
/// is restricted to the ancilla's initial `|0⟩` block and reindexed into
/// the bilinear form over `(vec(ρ_A), vec(ρ_B))`. The ancilla's terminal
/// dephasing is a no-op on the diagonal `Π₁` and drops out.
fn build_swap_test_functional(n: usize, noise: &NoiseModel) -> Result<CMatrix, QuorumError> {
    let gate_noise = GateNoise::from_model(noise);
    let ancilla = 2 * n;
    let mut circ = Circuit::new(2 * n + 1);
    circ.h(ancilla);
    for q in 0..n {
        circ.cswap(ancilla, q, n + q);
    }
    circ.h(ancilla);
    let lowered = transpile::decompose_multiqubit(&circ);

    let dim = 1usize << (2 * n + 1);
    let mut pi1 = CMatrix::zeros(dim, dim);
    for i in (0..dim).filter(|i| i >> ancilla & 1 == 1) {
        pi1[(i, i)] = C64::ONE;
    }
    let mut obs = DensityMatrix::from_cmatrix(&pi1).map_err(QuorumError::Simulation)?;
    for instr in lowered.instructions().iter().rev() {
        match &instr.op {
            Operation::Gate(g) => {
                gate_noise
                    .apply_adjoint_after_gate(&mut obs, g.num_qubits(), &instr.qubits)
                    .map_err(QuorumError::Simulation)?;
                obs.apply_gate(g.inverse(), &instr.qubits)
                    .map_err(QuorumError::Simulation)?;
            }
            Operation::Barrier => {}
            _ => {
                return Err(QuorumError::InvalidConfig(
                    "the SWAP-test network must be unitary".into(),
                ));
            }
        }
    }

    // Restrict to ancilla |0⟩ (joint index u = b·2ⁿ + a, ancilla bit 0 for
    // u < 4ⁿ) and reshuffle Tr[obs · (ρ_A ⊗ ρ_B)] = Σ obs[u,v]·ρ_A[vₐ,uₐ]·
    // ρ_B[v_b,u_b] into W over row-major vec indices.
    let sub = 1usize << n;
    let obs_mat = obs.to_cmatrix();
    let mut w = CMatrix::zeros(sub * sub, sub * sub);
    for va in 0..sub {
        for ua in 0..sub {
            for vb in 0..sub {
                for ub in 0..sub {
                    w[(va * sub + ua, vb * sub + ub)] = obs_mat[(ub * sub + ua, vb * sub + va)];
                }
            }
        }
    }
    Ok(w)
}

/// Bytes the global SWAP-test functional cache may retain — a backstop
/// for pathological many-model or wide-register workloads, far above
/// anything the pipeline or test suites create (a flagship n = 3
/// functional is ~65 KiB).
const SWAP_FUNCTIONAL_CACHE_BYTES: usize = 64 << 20;

/// The process-wide SWAP-test functional store: `W` depends only on the
/// register width and the noise model, so every group, sample and
/// serving request of the process shares one instance per key. The
/// [`ByteBounded`] store recovers from mutex poisoning (a panicked
/// scorer must not wedge a resident server) and evicts oldest-first on
/// overflow instead of flushing the hot entries.
static SWAP_FUNCTIONAL_CACHE: ByteBounded<(usize, NoiseModel), CMatrix> = ByteBounded::new();

/// The globally cached SWAP-test readout functional (see
/// [`SWAP_FUNCTIONAL_CACHE`]). Retention is bounded by
/// [`SWAP_FUNCTIONAL_CACHE_BYTES`]; oversized functionals are returned
/// uncached. The build runs outside the cache lock.
fn swap_test_functional(n: usize, noise: &NoiseModel) -> Result<Arc<CMatrix>, QuorumError> {
    let functional_bytes = |w: &CMatrix| w.rows() * w.cols() * std::mem::size_of::<C64>();
    SWAP_FUNCTIONAL_CACHE.get_or_try_build(
        &(n, noise.clone()),
        SWAP_FUNCTIONAL_CACHE_BYTES,
        functional_bytes,
        || build_swap_test_functional(n, noise),
    )
}

/// Bytes the fused per-gate channel cache may retain — [`GateNoise`] is a
/// few fixed-size superoperator arrays (~1 KiB), so this admits hundreds
/// of distinct noise models before evicting.
const GATE_NOISE_CACHE_BYTES: usize = 1 << 20;

/// The process-wide fused per-gate channel store: [`GateNoise::from_model`]
/// costs microseconds of Kraus fusion per call, which a steady-state
/// scoring loop would otherwise pay twice per group pass (preparation and
/// scoring). The fused result depends only on the noise model, so every
/// group and request shares one instance per model.
static GATE_NOISE_CACHE: ByteBounded<NoiseModel, GateNoise> = ByteBounded::new();

/// The globally cached fused per-gate channels for `noise` (see
/// [`GATE_NOISE_CACHE`]).
fn cached_gate_noise(noise: &NoiseModel) -> Arc<GateNoise> {
    GATE_NOISE_CACHE
        .get_or_try_build(
            noise,
            GATE_NOISE_CACHE_BYTES,
            |_| std::mem::size_of::<GateNoise>(),
            || Ok::<_, std::convert::Infallible>(GateNoise::from_model(noise)),
        )
        .expect("building GateNoise is infallible")
}

/// Bytes the prep-skeleton cache may retain — a skeleton is `O(2^n)`
/// steps, so this admits every register width the engines support.
const PREP_SKELETON_CACHE_BYTES: usize = 1 << 20;

/// The process-wide Möttönen skeleton store: the gate skeleton depends
/// only on the register width, and rebuilding it per batch is the kind of
/// small steady-state allocation the serving hot path must not make.
static PREP_SKELETON_CACHE: ByteBounded<usize, PrepSkeleton> = ByteBounded::new();

/// The globally cached preparation skeleton for `num_qubits` (see
/// [`PREP_SKELETON_CACHE`]).
fn cached_prep_skeleton(num_qubits: usize) -> Arc<PrepSkeleton> {
    PREP_SKELETON_CACHE
        .get_or_try_build(
            &num_qubits,
            PREP_SKELETON_CACHE_BYTES,
            |s| std::mem::size_of_val(s.steps()),
            || Ok::<_, std::convert::Infallible>(PrepSkeleton::new(num_qubits)),
        )
        .expect("building PrepSkeleton is infallible")
}

/// The batched analytic density-matrix noise engine: `n`-qubit mixed-state
/// algebra with all sample-independent structure fused and cached. State
/// preparation runs in **lockstep** — all samples evolve through the
/// shared Möttönen skeleton together, the shared gates and channels
/// hitting the whole panel per step (see [`DensityEngine::prepare_batch`])
/// — and each level is scored as one real quadratic form in the upper
/// triangle of every prepared column, against the group's cached
/// [`ReadoutForm`] (see [`DensityEngine::score_prepared`]). The default
/// for Noisy execution (see the module docs for the math);
/// [`SampleDensityEngine`] keeps the unreduced one-matvec-per-sample
/// path (and the per-sample gate-walk preparation) as the in-family
/// oracle and the paper-literal [`CircuitEngine`] remains the gate-level
/// one.
#[derive(Debug, Clone, Copy, Default)]
pub struct DensityEngine;

/// The validated frame of one noisy group pass, shared by the dense and
/// per-sample density engines: the noise model, the optional shot count
/// and the readout confusion probability.
struct NoisyPass<'a> {
    noise: &'a NoiseModel,
    shots: Option<u64>,
    readout: f64,
}

impl<'a> NoisyPass<'a> {
    fn prepare(
        group: &EnsembleGroup,
        config: &'a QuorumConfig,
        levels: &[usize],
    ) -> Result<Self, QuorumError> {
        ensure_noisy(config)?;
        let (noise, shots) = match &config.execution {
            ExecutionMode::Noisy { noise, shots } => (noise, *shots),
            _ => unreachable!("ensure_noisy admits only Noisy execution"),
        };
        let n = group.ansatz().num_qubits();
        for &reset_count in levels {
            ensure_reset_range(reset_count, n)?;
        }
        let readout = cached_gate_noise(noise).readout_error();
        Ok(NoisyPass {
            noise,
            shots,
            readout,
        })
    }

    /// Readout confusion plus optional shot sampling on one exact raw
    /// overlap — the final step both engines share per sample.
    fn finish(
        &self,
        raw: f64,
        config: &QuorumConfig,
        group_index: usize,
        reset_count: usize,
        sample: usize,
    ) -> f64 {
        finish_deviation(
            self.readout,
            raw,
            self.shots,
            config,
            group_index,
            reset_count,
            sample,
        )
    }
}

/// Readout confusion plus optional shot sampling on one exact raw
/// overlap (its real part — the SWAP-test probability) — shared verbatim
/// by every density-family engine (dense, per-sample, structured), so
/// engine switches never change the deviation model.
#[allow(clippy::too_many_arguments)] // a formula, not an interface
fn finish_deviation(
    readout: f64,
    raw: f64,
    shots: Option<u64>,
    config: &QuorumConfig,
    group_index: usize,
    reset_count: usize,
    sample: usize,
) -> f64 {
    let exact = readout + (1.0 - 2.0 * readout) * raw;
    match shots {
        Some(k) => {
            let seed = shot_seed(config, group_index, reset_count, sample);
            sampled_deviation(exact, k, seed)
        }
        None => exact,
    }
}

/// A lockstep-prepared batch: a row-major real `4^n × S` matrix whose
/// column `j` is `vec(ρ_in)` of sample `j`. The preparation applies only
/// real amplitudes, RY and CX gates and real Kraus channels, so every
/// entry is real; the panel stores `f64`s, half the bytes of a complex
/// panel, and its type carries the realness the readout forms rest on.
/// Produced by [`DensityEngine::prepare_batch`] and consumed by
/// [`DensityEngine::score_prepared`] and
/// [`StructuredDensityEngine::score_prepared`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RealPanel {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl RealPanel {
    /// Number of rows: `4^n`, one per `vec(ρ)` entry.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns: one per sample.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i`: entry `i` of every sample's `vec(ρ_in)`, contiguous.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The row-major entries.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Reshapes to `rows × cols` with every entry zero, reusing the
    /// allocation when its capacity suffices.
    fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }
}

/// Reusable per-worker scratch for one lockstep column block: the RY
/// coefficient lanes (`cos²`, `cos·sin`, `sin²` of the half-angles).
#[derive(Default)]
struct RyCoeffs {
    cc: Vec<f64>,
    cs: Vec<f64>,
    ss: Vec<f64>,
}

/// Reusable buffers for the lockstep batch preparation: the angle matrix
/// and the per-sample embedding scratch.
#[derive(Default)]
struct PrepScratch {
    /// Per-sample angle vectors, angle-major (`num_angles × S`).
    thetas: Vec<f64>,
    values: Vec<f64>,
    amps: Vec<f64>,
    angles: Vec<f64>,
    coeffs: RyCoeffs,
}

/// Reusable buffers for the dense scoring half: the panel's upper
/// triangles `h` (sample-major, one `m`-run per column) and one column's
/// packed products `h_k·h_l`.
#[derive(Default)]
struct ScoreScratch {
    h: Vec<f64>,
    z: Vec<f64>,
}

/// The whole per-thread scratch of one dense noisy group pass. Held in a
/// thread-local so a steady-state scoring loop (the serving hot path)
/// stops heap-allocating per batch: after the first panel on a thread,
/// every buffer — the packed `4^n × S` batch included — is reused at
/// capacity. Resident pool workers ([`qsim::parallel::WorkerPool`]) keep
/// their scratch warm across panels, which is half the point of keeping
/// them alive.
#[derive(Default)]
struct DensityScratch {
    prep: PrepScratch,
    packed: RealPanel,
    score: ScoreScratch,
}

thread_local! {
    static DENSITY_SCRATCH: RefCell<DensityScratch> = RefCell::default();
}

impl DensityEngine {
    /// Packs every sample's noisy prepared state into the columns of a
    /// real `4^n × S` panel — column `j` is `vec(ρ_in)` of sample `j` after
    /// the per-gate-noisy Möttönen preparation (one preparation serves as
    /// `ρ_B` and as register A's input alike, since Fig. 2 preps both
    /// identically) — by evolving the whole batch **in lockstep** through
    /// the shared [`PrepSkeleton`]:
    ///
    /// 1. each sample contributes only its angle vector
    ///    ([`PrepSkeleton::angles_for_into`]); every gate *position* is
    ///    shared, so one skeleton walk serves all `S` columns;
    /// 2. the batch starts as a real `4^n × S` panel ([`RealPanel`]) of
    ///    `vec(|0…0⟩⟨0…0|)` columns;
    ///    each skeleton rotation applies the per-column RY conjugation
    ///    ([`qsim::density::ry_conjugate_columns`] — the only
    ///    sample-dependent operation) and every shared operation — the
    ///    fused 1q noise channel after each rotation, the CX basis
    ///    permutation, the CX depolarizing + relaxation channels — hits
    ///    the **whole panel at once** through the batched channel kernels
    ///    ([`GateNoise::apply_after_gate_columns`],
    ///    [`qsim::density::permute_cx_columns`]), whose sub-block lane
    ///    runs are contiguous across samples (block-diagonal GEMMs on the
    ///    lane seam, AVX-recompiled like the PR 4 ladder);
    /// 3. fixed-width column blocks ([`GEMM_COL_BLOCK`]) evolve
    ///    independently and are distributed across workers via
    ///    [`qsim::parallel::map_indexed_with`] — block boundaries never
    ///    move with the worker count, so results are bit-identical for
    ///    every thread count.
    ///
    /// The per-element arithmetic of every lockstep kernel replicates the
    /// real plane of the per-sample walk term for term, so the packed
    /// result equals the real parts of
    /// [`SampleDensityEngine::prepare_batch`]'s complex panel (whose
    /// imaginary parts are all zero) to machine precision — with none of
    /// the per-sample circuit construction, lowering, or strided
    /// small-kernel dispatch, and with half the bytes per lane.
    ///
    /// Public as the batch half of the prep/score seam — streaming callers
    /// can prepare once and score against many frozen ensembles via
    /// [`DensityEngine::score_prepared`], and the bench times the two
    /// stages separately.
    ///
    /// # Errors
    ///
    /// Rejects non-noisy execution modes and propagates embedding and
    /// simulation failures.
    pub fn prepare_batch(
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
    ) -> Result<RealPanel, QuorumError> {
        let mut packed = RealPanel::default();
        DENSITY_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            Self::prepare_panel_into(
                group,
                normalized.rows().iter().map(Vec::as_slice),
                normalized.num_samples(),
                config,
                &mut scratch.prep,
                &mut packed,
            )
        })?;
        Ok(packed)
    }

    /// The generic body of [`DensityEngine::prepare_batch`]: consumes the
    /// rows from any contiguous source (a [`Dataset`]'s row vectors or a
    /// flat [`SamplePanel`]) and writes the packed `4^n × S` batch into a
    /// caller-owned panel through reusable scratch — the zero-allocation
    /// seam the steady-state serving loop runs on. Identical arithmetic
    /// and iteration order to the allocating path.
    fn prepare_panel_into<'a>(
        group: &EnsembleGroup,
        rows: impl Iterator<Item = &'a [f64]>,
        samples: usize,
        config: &QuorumConfig,
        scratch: &mut PrepScratch,
        packed: &mut RealPanel,
    ) -> Result<(), QuorumError> {
        ensure_noisy_mode(config)?;
        let noise = match &config.execution {
            ExecutionMode::Noisy { noise, .. } => noise,
            _ => unreachable!("ensure_noisy_mode admits only Noisy execution"),
        };
        let num_qubits = group.ansatz().num_qubits();
        let gate_noise = cached_gate_noise(noise);
        let dim = 1usize << num_qubits;
        if samples == 0 {
            packed.resize_zeroed(dim * dim, 0);
            return Ok(());
        }

        // Per-sample angle vectors, angle-major: slot `a` of every sample
        // sits contiguously at `thetas[a·S..(a+1)·S]`, so each skeleton
        // rotation reads one lane run per column block.
        let skeleton = cached_prep_skeleton(num_qubits);
        scratch.thetas.clear();
        scratch.thetas.resize(skeleton.num_angles() * samples, 0.0);
        scratch.amps.clear();
        scratch.amps.resize(dim, 0.0);
        for (col, row) in rows.enumerate() {
            group.features().project_into(row, &mut scratch.values);
            crate::embed::amplitudes_with_overflow_into(
                &scratch.values,
                num_qubits,
                &mut scratch.amps,
            )?;
            skeleton
                .angles_for_into(&scratch.amps, &mut scratch.angles)
                .map_err(QuorumError::Simulation)?;
            for (a, &theta) in scratch.angles.iter().enumerate() {
                scratch.thetas[a * samples + col] = theta;
            }
        }

        // Evolve column blocks independently across workers. Every panel
        // kernel is a pure per-column (lane) operation, so any block
        // partition produces value-identical columns; the sequential path
        // therefore evolves one full-width block (no stitch, fewer
        // per-pass fixed costs), while the threaded path fans fixed
        // [`GEMM_COL_BLOCK`]-wide blocks out over workers.
        let threads = gemm_threads(config, dim * dim, samples);
        if threads <= 1 {
            return Self::evolve_block_into(
                &skeleton,
                &gate_noise,
                &scratch.thetas,
                num_qubits,
                samples,
                0,
                samples,
                &mut scratch.coeffs,
                packed,
            );
        }
        let thetas = &scratch.thetas;
        let blocks = samples.div_ceil(GEMM_COL_BLOCK);
        let panels = map_indexed_with(blocks, threads, RyCoeffs::default, |coeffs, b| {
            let c0 = b * GEMM_COL_BLOCK;
            let c1 = (c0 + GEMM_COL_BLOCK).min(samples);
            Self::evolve_block(
                &skeleton,
                &gate_noise,
                thetas,
                num_qubits,
                samples,
                c0,
                c1,
                coeffs,
            )
        });

        packed.resize_zeroed(dim * dim, samples);
        for (b, panel) in panels.into_iter().enumerate() {
            let panel = panel?;
            let c0 = b * GEMM_COL_BLOCK;
            let width = panel.cols();
            for i in 0..dim * dim {
                packed.data[i * samples + c0..i * samples + c0 + width]
                    .copy_from_slice(panel.row(i));
            }
        }
        Ok(())
    }

    /// Evolves one column block (samples `c0..c1`) through the whole
    /// skeleton: per-column RY conjugations interleaved with the shared
    /// panel channel kernels. Blocks never exceed [`GEMM_COL_BLOCK`]
    /// columns — worker parallelism lives one level up, over the blocks.
    #[allow(clippy::too_many_arguments)] // private worker body of prepare_batch
    fn evolve_block(
        skeleton: &PrepSkeleton,
        gate_noise: &GateNoise,
        thetas: &[f64],
        num_qubits: usize,
        samples: usize,
        c0: usize,
        c1: usize,
        coeffs: &mut RyCoeffs,
    ) -> Result<RealPanel, QuorumError> {
        let mut block = RealPanel::default();
        Self::evolve_block_into(
            skeleton, gate_noise, thetas, num_qubits, samples, c0, c1, coeffs, &mut block,
        )?;
        Ok(block)
    }

    /// [`DensityEngine::evolve_block`] writing into a caller-owned panel,
    /// so the sequential full-width path reuses one resident buffer across
    /// panels instead of allocating `4^n × S` reals per call.
    #[allow(clippy::too_many_arguments)] // private worker body of prepare_batch
    fn evolve_block_into(
        skeleton: &PrepSkeleton,
        gate_noise: &GateNoise,
        thetas: &[f64],
        num_qubits: usize,
        samples: usize,
        c0: usize,
        c1: usize,
        coeffs: &mut RyCoeffs,
        block: &mut RealPanel,
    ) -> Result<(), QuorumError> {
        let dim = 1usize << num_qubits;
        let width = c1 - c0;
        block.resize_zeroed(dim * dim, width);
        // vec(|0…0⟩⟨0…0|): row-major index (0, 0) = row 0.
        block.data[..width].fill(1.0);
        let data = block.data.as_mut_slice();
        coeffs.cc.resize(width, 0.0);
        coeffs.cs.resize(width, 0.0);
        coeffs.ss.resize(width, 0.0);
        for step in skeleton.steps() {
            match *step {
                PrepStep::Ry {
                    target,
                    angle_index,
                } => {
                    let lane = &thetas[angle_index * samples + c0..angle_index * samples + c1];
                    for (j, &theta) in lane.iter().enumerate() {
                        // Same half-angle evaluation as Gate::RY's matrix,
                        // so the conjugation matches the per-sample gate
                        // kernel bit for bit.
                        let half = theta / 2.0;
                        let (c, s) = (half.cos(), half.sin());
                        coeffs.cc[j] = c * c;
                        coeffs.cs[j] = c * s;
                        coeffs.ss[j] = s * s;
                    }
                    ry_conjugate_columns(
                        data, dim, width, target, &coeffs.cc, &coeffs.cs, &coeffs.ss,
                    );
                    gate_noise
                        .apply_after_gate_columns(data, dim, width, 1, &[target])
                        .map_err(QuorumError::Simulation)?;
                }
                PrepStep::Cx { control, target } => {
                    permute_cx_columns(data, dim, width, control, target);
                    gate_noise
                        .apply_after_gate_columns(data, dim, width, 2, &[control, target])
                        .map_err(QuorumError::Simulation)?;
                }
            }
        }
        Ok(())
    }

    /// Scores an already-prepared `4^n × S` batch (the output of
    /// [`DensityEngine::prepare_batch`]) at every requested compression
    /// level — the score half of the prep/score seam, reusable across
    /// calls for streaming workloads. Every column is `vec(ρ_in)` of a
    /// real symmetric state, so only its upper triangle `h` is read;
    /// per column, the products `h_k·h_l` are formed once and each level
    /// is one dot product against the group's cached [`ReadoutForm`].
    /// Each column is scored on its own, in a fixed order, so its bits do
    /// not depend on the panel width, its position in the panel or the
    /// thread count.
    ///
    /// # Errors
    ///
    /// Rejects non-noisy execution, bad reset counts and panels whose
    /// row count is not `4^n`; propagates simulation failures.
    pub fn score_prepared(
        group: &EnsembleGroup,
        packed: &RealPanel,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        DENSITY_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            Self::score_prepared_scratch(group, packed, config, levels, &mut scratch.score)
        })
    }

    /// The body of [`DensityEngine::score_prepared`] running on reusable
    /// scratch: the upper triangles and the per-column products live in
    /// resident buffers, so steady-state scoring allocates nothing
    /// panel-proportional.
    fn score_prepared_scratch(
        group: &EnsembleGroup,
        packed: &RealPanel,
        config: &QuorumConfig,
        levels: &[usize],
        scratch: &mut ScoreScratch,
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        let pass = NoisyPass::prepare(group, config, levels)?;
        let forms = levels
            .iter()
            .map(|&reset_count| group.readout_form(pass.noise, reset_count))
            .collect::<Result<Vec<_>, _>>()?;
        let dim = 1usize << group.ansatz().num_qubits();
        if packed.rows() != dim * dim {
            return Err(QuorumError::Simulation(QsimError::DimensionMismatch {
                expected: dim * dim,
                actual: packed.rows(),
            }));
        }
        // h = triu(P), sample-major: column j's coordinates sit at
        // h[j·m..(j+1)·m], so a 1-column panel reads one m-run, exactly
        // like every column of a wide one.
        let samples = packed.cols();
        let m = dim * (dim + 1) / 2;
        scratch.h.clear();
        scratch.h.resize(samples * m, 0.0);
        for (k, (a, b)) in upper_triangle(dim).enumerate() {
            for (j, &v) in packed.row(a * dim + b).iter().enumerate() {
                scratch.h[j * m + k] = v;
            }
        }
        scratch.z.clear();
        scratch.z.resize(m * (m + 1) / 2, 0.0);
        let mut out: Vec<Vec<f64>> = levels.iter().map(|_| Vec::with_capacity(samples)).collect();
        for (j, h) in scratch.h.chunks_exact(m).enumerate() {
            qsim::kernel::outer_triangle_lanes(h, &mut scratch.z);
            for ((deviations, form), &level) in out.iter_mut().zip(&forms).zip(levels) {
                let raw = qsim::kernel::dot_lanes(&form.packed, &scratch.z);
                deviations.push(pass.finish(raw, config, group.index(), level, j));
            }
        }
        Ok(out)
    }

    /// Full prepare-then-score pass over rows from any contiguous source,
    /// holding the thread-local scratch exactly once: the panel lands in
    /// `scratch.packed`, preparation runs through `scratch.prep`, scoring
    /// through `scratch.score` — disjoint field borrows, no re-entry.
    fn deviations_rows<'a>(
        group: &EnsembleGroup,
        config: &QuorumConfig,
        levels: &[usize],
        rows: impl Iterator<Item = &'a [f64]>,
        samples: usize,
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        DENSITY_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let DensityScratch {
                prep,
                packed,
                score,
            } = scratch;
            Self::prepare_panel_into(group, rows, samples, config, prep, packed)?;
            Self::score_prepared_scratch(group, packed, config, levels, score)
        })
    }
}

impl ScoringEngine for DensityEngine {
    fn name(&self) -> &'static str {
        "density"
    }

    fn deviations(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        reset_count: usize,
    ) -> Result<Vec<f64>, QuorumError> {
        let mut all = self.deviations_all_levels(group, normalized, config, &[reset_count])?;
        all.pop()
            .ok_or_else(|| QuorumError::Internal("deviations_all_levels returned no levels".into()))
    }

    fn deviations_all_levels(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        // The batch: every sample's vec(ρ_in) as one matrix column,
        // prepared in lockstep. Each column's products h_k·h_l are
        // level-independent; each level then costs one dot product per
        // column against its cached readout form.
        Self::deviations_rows(
            group,
            config,
            levels,
            normalized.rows().iter().map(Vec::as_slice),
            normalized.num_samples(),
        )
    }

    fn deviations_all_levels_panel(
        &self,
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        Self::deviations_rows(group, config, levels, panel.rows(), panel.num_samples())
    }
}

/// Reusable per-worker scratch for one structured column block: the
/// gathered panel, the readout image `Y = W·P`, and the per-level
/// evolved panel.
#[derive(Default)]
struct StructuredScratch {
    panel: Vec<C64>,
    y: Vec<C64>,
    evolved: Vec<C64>,
}

/// The structured analytic density noise engine: the same lockstep
/// `4^n × S` batch preparation as [`DensityEngine`], but nothing dense
/// after it — each level's bottlenecked segment runs as a cached
/// per-gate [`ChannelProgram`] over the panel
/// ([`EnsembleGroup::channel_program`]), and the SWAP-test readout is
/// folded into a bond-4 matrix-product sweep ([`SwapTestMpo`]). No
/// `16^n` object is ever built or applied, so the per-(group, level)
/// build drops from an `O(16^n)` superoperator fusion to `O(ops)` and
/// the apply costs `O(ops · 4^n · S)` — the warm dense readout forms
/// still score faster at `n = 5`, but the dense build dominates any
/// pass that is not amortised over many panels from there on
/// ([`crate::config::STRUCTURED_AUTO_MIN_QUBITS`]), and the structured
/// engine is the only density path past the dense width cap. The dense
/// engine stays the small-n oracle the structured path is pinned
/// against (≤ 1e-9, `tests/` `engine_structured_properties`).
#[derive(Debug, Clone, Copy, Default)]
pub struct StructuredDensityEngine;

impl StructuredDensityEngine {
    /// Scores an already-prepared `4^n × S` batch (the output of
    /// [`DensityEngine::prepare_batch`]) at every requested compression
    /// level, column-block by column-block: per block, the real columns
    /// are widened to complex in the gather, then the MPO readout
    /// image `Y = W·P` once (it is level-independent), then one channel
    /// program walk plus column dots per level. Blocks are fixed at
    /// [`GEMM_COL_BLOCK`] columns and fanned over workers with
    /// per-worker scratch, like the preparation half.
    ///
    /// # Errors
    ///
    /// Rejects non-noisy execution and bad reset counts; propagates
    /// simulation failures.
    pub fn score_prepared(
        group: &EnsembleGroup,
        packed: &RealPanel,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        ensure_noisy_mode(config)?;
        let (noise, shots) = match &config.execution {
            ExecutionMode::Noisy { noise, shots } => (noise, *shots),
            _ => unreachable!("ensure_noisy_mode admits only Noisy execution"),
        };
        let n = group.ansatz().num_qubits();
        for &reset_count in levels {
            ensure_reset_range(reset_count, n)?;
        }
        let gate_noise = cached_gate_noise(noise);
        let readout = gate_noise.readout_error();
        // Three constant-size pull-backs — cheap enough to build per
        // scoring pass, unlike the dense functional.
        let mpo = SwapTestMpo::build(n, &gate_noise).map_err(QuorumError::Simulation)?;
        let programs = levels
            .iter()
            .map(|&reset_count| group.channel_program(noise, reset_count))
            .collect::<Result<Vec<_>, _>>()?;

        let dim2 = packed.rows();
        let samples = packed.cols();
        let mut out: Vec<Vec<f64>> = levels.iter().map(|_| Vec::with_capacity(samples)).collect();
        if samples == 0 {
            return Ok(out);
        }
        let threads = gemm_threads(config, dim2, samples);
        let blocks = samples.div_ceil(GEMM_COL_BLOCK);
        let block_raws = map_indexed_with(blocks, threads, StructuredScratch::default, |s, b| {
            let c0 = b * GEMM_COL_BLOCK;
            let c1 = (c0 + GEMM_COL_BLOCK).min(samples);
            let width = c1 - c0;
            s.panel.clear();
            s.panel.reserve(dim2 * width);
            for i in 0..dim2 {
                s.panel
                    .extend(packed.row(i)[c0..c1].iter().map(|&v| C64::from_real(v)));
            }
            s.y.resize(dim2 * width, C64::ZERO);
            mpo.apply_panel(&s.panel, width, &mut s.y);
            let mut raws = Vec::with_capacity(programs.len());
            for program in &programs {
                s.evolved.clear();
                s.evolved.extend_from_slice(&s.panel);
                program.apply_panel(&mut s.evolved, width);
                // raw_j = Σ_i evolved[i,j]·y[i,j], row-by-row in the
                // same index order as the per-sample oracle's contraction.
                let mut raw = vec![C64::ZERO; width];
                for i in 0..dim2 {
                    let ev = &s.evolved[i * width..(i + 1) * width];
                    let yr = &s.y[i * width..(i + 1) * width];
                    for ((acc, &a), &b) in raw.iter_mut().zip(ev).zip(yr) {
                        *acc += a * b;
                    }
                }
                raws.push(raw);
            }
            raws
        });

        for (b, raws) in block_raws.into_iter().enumerate() {
            let c0 = b * GEMM_COL_BLOCK;
            for (level, raw) in raws.into_iter().enumerate() {
                out[level].extend(raw.into_iter().enumerate().map(|(j, z)| {
                    finish_deviation(
                        readout,
                        z.re,
                        shots,
                        config,
                        group.index(),
                        levels[level],
                        c0 + j,
                    )
                }));
            }
        }
        Ok(out)
    }
}

impl ScoringEngine for StructuredDensityEngine {
    fn name(&self) -> &'static str {
        "density-structured"
    }

    fn deviations(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        reset_count: usize,
    ) -> Result<Vec<f64>, QuorumError> {
        let mut all = self.deviations_all_levels(group, normalized, config, &[reset_count])?;
        all.pop()
            .ok_or_else(|| QuorumError::Internal("deviations_all_levels returned no levels".into()))
    }

    fn deviations_all_levels(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        let packed = DensityEngine::prepare_batch(group, normalized, config)?;
        Self::score_prepared(group, &packed, config, levels)
    }

    fn deviations_all_levels_panel(
        &self,
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        // Preparation reuses the resident density scratch; the structured
        // score half never touches that thread-local, so holding the
        // borrow across it is safe.
        DENSITY_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            DensityEngine::prepare_panel_into(
                group,
                panel.rows(),
                panel.num_samples(),
                config,
                &mut scratch.prep,
                &mut scratch.packed,
            )?;
            Self::score_prepared(group, &scratch.packed, config, levels)
        })
    }
}

/// The per-sample density oracle: the unreduced one-`4^n`-matvec-per-
/// (sample, level) path — `S_r·vec(ρ_in)` contracted against the
/// readout image `W·vec(ρ_in)`, with no realness assumption — and the
/// per-sample gate-walk state preparation, kept selectable (and
/// benchmarked) as the reference the batched [`DensityEngine`]'s
/// readout forms are pinned against, the mixed-state analogue of
/// [`AnalyticEngine`] vs [`BatchedAnalyticEngine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleDensityEngine;

impl SampleDensityEngine {
    /// Packs every sample's noisy prepared state into the columns of a
    /// `4^n × S` matrix through the **per-sample** gate walk: each column
    /// simulates its own lowered Möttönen circuit density-matrix style,
    /// gate by gate with the fused per-gate channels. The reference the
    /// lockstep pass ([`DensityEngine::prepare_batch`]) is pinned against
    /// — the two walk the *same* skeleton (every sample's circuit has
    /// identical gate positions) with the same per-element arithmetic, so
    /// they agree to machine precision.
    ///
    /// # Errors
    ///
    /// Rejects non-noisy execution modes and propagates embedding and
    /// simulation failures.
    pub fn prepare_batch(
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
    ) -> Result<CMatrix, QuorumError> {
        ensure_noisy(config)?;
        let noise = match &config.execution {
            ExecutionMode::Noisy { noise, .. } => noise,
            _ => unreachable!("ensure_noisy admits only Noisy execution"),
        };
        let gate_noise = GateNoise::from_model(noise);
        let num_qubits = group.ansatz().num_qubits();
        let dim = 1usize << num_qubits;
        let mut packed = CMatrix::zeros(dim * dim, normalized.num_samples());
        let mut values = Vec::with_capacity(group.features().len());
        let mut amps = vec![0.0_f64; dim];
        for (col, row) in normalized.rows().iter().enumerate() {
            group.features().project_into(row, &mut values);
            crate::embed::amplitudes_with_overflow_into(&values, num_qubits, &mut amps)?;
            let rho_in = noisy_prepared_state(&amps, num_qubits, &gate_noise)?;
            for (i, &v) in rho_in.as_slice().iter().enumerate() {
                packed[(i, col)] = v;
            }
        }
        Ok(packed)
    }
}

impl ScoringEngine for SampleDensityEngine {
    fn name(&self) -> &'static str {
        "density-sample"
    }

    fn deviations(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        reset_count: usize,
    ) -> Result<Vec<f64>, QuorumError> {
        let mut all = self.deviations_all_levels(group, normalized, config, &[reset_count])?;
        all.pop()
            .ok_or_else(|| QuorumError::Internal("deviations_all_levels returned no levels".into()))
    }

    fn deviations_all_levels(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        let pass = NoisyPass::prepare(group, config, levels)?;
        let n = group.ansatz().num_qubits();
        let gate_noise = cached_gate_noise(pass.noise);
        let w = swap_test_functional(n, pass.noise)?;
        let superops = levels
            .iter()
            .map(|&reset_count| group.fused_noisy_superop(pass.noise, reset_count))
            .collect::<Result<Vec<_>, _>>()?;

        let mut out: Vec<Vec<f64>> = levels
            .iter()
            .map(|_| Vec::with_capacity(normalized.num_samples()))
            .collect();
        let mut values = Vec::with_capacity(group.features().len());
        let mut amps = vec![0.0_f64; 1usize << n];
        for (i, row) in normalized.rows().iter().enumerate() {
            group.features().project_into(row, &mut values);
            crate::embed::amplitudes_with_overflow_into(&values, n, &mut amps)?;
            let rho_in = noisy_prepared_state(&amps, n, &gate_noise)?;
            let wb = w.mul_vec(rho_in.as_slice());
            for (level, superop) in superops.iter().enumerate() {
                let rho_a = superop.mul_vec(rho_in.as_slice());
                let raw: C64 = rho_a.iter().zip(&wb).map(|(a, b)| *a * *b).sum();
                out[level].push(pass.finish(raw.re, config, group.index(), levels[level], i));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketPlan;

    fn tiny_dataset() -> Dataset {
        let mut rows = Vec::new();
        for i in 0..10 {
            let base = 0.05 + 0.003 * (i as f64);
            rows.push(vec![
                base,
                base * 1.1,
                base * 0.9,
                base,
                base,
                base * 1.2,
                base,
            ]);
        }
        rows.push(vec![0.14, 0.0, 0.14, 0.0, 0.14, 0.0, 0.14]);
        Dataset::from_rows("engine-tiny", rows, None).unwrap()
    }

    fn group_for(config: &QuorumConfig, ds: &Dataset, index: usize) -> EnsembleGroup {
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, config.bucket_probability);
        EnsembleGroup::generate(index, config, ds.num_features(), &plan)
    }

    #[test]
    fn engines_agree_on_exact_deviations() {
        let ds = tiny_dataset();
        let config = QuorumConfig::default().with_seed(5);
        for index in 0..3 {
            let group = group_for(&config, &ds, index);
            for reset_count in 1..config.data_qubits {
                let circuit = CircuitEngine
                    .deviations(&group, &ds, &config, reset_count)
                    .unwrap();
                let analytic = AnalyticEngine
                    .deviations(&group, &ds, &config, reset_count)
                    .unwrap();
                for (c, a) in circuit.iter().zip(&analytic) {
                    assert!(
                        (c - a).abs() < 1e-9,
                        "group {index} reset {reset_count}: circuit {c} vs analytic {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn analytic_sampled_matches_circuit_sampled() {
        // Same exact deviation + same seed + same sampler ⇒ identical
        // binomial draws (up to knife-edge rounding, absent here).
        let ds = tiny_dataset();
        let config = QuorumConfig::default()
            .with_seed(9)
            .with_execution(ExecutionMode::Sampled { shots: 2048 });
        let group = group_for(&config, &ds, 1);
        let circuit = CircuitEngine.deviations(&group, &ds, &config, 1).unwrap();
        let analytic = AnalyticEngine.deviations(&group, &ds, &config, 1).unwrap();
        for (c, a) in circuit.iter().zip(&analytic) {
            assert!((c - a).abs() < 1e-12, "circuit {c} vs analytic {a}");
        }
    }

    #[test]
    fn analytic_engines_reject_noisy_execution() {
        let ds = tiny_dataset();
        let config = QuorumConfig::default().with_execution(ExecutionMode::Noisy {
            noise: qsim::NoiseModel::brisbane(),
            shots: None,
        });
        let group = group_for(&config, &ds, 0);
        assert!(matches!(
            AnalyticEngine.deviations(&group, &ds, &config, 1),
            Err(QuorumError::InvalidConfig(_))
        ));
        assert!(matches!(
            BatchedAnalyticEngine.deviations(&group, &ds, &config, 1),
            Err(QuorumError::InvalidConfig(_))
        ));
    }

    #[test]
    fn analytic_engines_reject_bad_reset_counts() {
        let ds = tiny_dataset();
        let config = QuorumConfig::default();
        let group = group_for(&config, &ds, 0);
        for engine in [
            &AnalyticEngine as &dyn ScoringEngine,
            &BatchedAnalyticEngine,
        ] {
            assert!(engine.deviations(&group, &ds, &config, 0).is_err());
            assert!(engine
                .deviations(&group, &ds, &config, config.data_qubits)
                .is_err());
        }
    }

    #[test]
    fn resolve_follows_configuration() {
        let auto = QuorumConfig::default();
        assert_eq!(resolve(&auto).unwrap().name(), "batched");
        let forced = QuorumConfig::default().with_engine(EngineKind::Analytic);
        assert_eq!(resolve(&forced).unwrap().name(), "analytic");
        let forced = QuorumConfig::default().with_engine(EngineKind::Circuit);
        assert_eq!(resolve(&forced).unwrap().name(), "circuit");
        let noisy = QuorumConfig::default().with_execution(ExecutionMode::Noisy {
            noise: qsim::NoiseModel::brisbane(),
            shots: None,
        });
        assert_eq!(resolve(&noisy).unwrap().name(), "density");
        let forced = noisy.clone().with_engine(EngineKind::Circuit);
        assert_eq!(resolve(&forced).unwrap().name(), "circuit");
        for kind in [EngineKind::Analytic, EngineKind::Batched] {
            let bad =
                QuorumConfig::default()
                    .with_engine(kind)
                    .with_execution(ExecutionMode::Noisy {
                        noise: qsim::NoiseModel::brisbane(),
                        shots: None,
                    });
            assert!(resolve(&bad).is_err());
        }
        // The density engines are noise-only: Exact and Sampled reject
        // them, and the per-sample oracle resolves by name under Noisy.
        for kind in [EngineKind::Density, EngineKind::DensitySample] {
            let bad = QuorumConfig::default().with_engine(kind);
            assert!(resolve(&bad).is_err());
            let bad = QuorumConfig::default()
                .with_engine(kind)
                .with_execution(ExecutionMode::Sampled { shots: 64 });
            assert!(resolve(&bad).is_err());
        }
        let forced = noisy.clone().with_engine(EngineKind::DensitySample);
        assert_eq!(resolve(&forced).unwrap().name(), "density-sample");
        // The structured engine: noise-only like its dense sibling, the
        // Auto pick for wide noisy registers, width-capped never.
        let forced = noisy.clone().with_engine(EngineKind::DensityStructured);
        assert_eq!(resolve(&forced).unwrap().name(), "density-structured");
        let bad = QuorumConfig::default().with_engine(EngineKind::DensityStructured);
        assert!(resolve(&bad).is_err());
        let wide_auto = noisy.with_data_qubits(7);
        assert_eq!(resolve(&wide_auto).unwrap().name(), "density-structured");
        let wide_dense = wide_auto.with_engine(EngineKind::Density);
        assert!(resolve(&wide_dense).is_err());
    }

    fn noisy_config(noise: qsim::NoiseModel, shots: Option<u64>) -> QuorumConfig {
        QuorumConfig::default()
            .with_seed(5)
            .with_execution(ExecutionMode::Noisy { noise, shots })
    }

    #[test]
    fn density_matches_circuit_oracle_under_noise() {
        let ds = tiny_dataset();
        for noise in [
            qsim::NoiseModel::ideal(),
            qsim::NoiseModel::brisbane(),
            qsim::NoiseModel::brisbane().scaled(2.0),
        ] {
            let config = noisy_config(noise, None);
            let group = group_for(&config, &ds, 1);
            for reset_count in 1..config.data_qubits {
                let circuit = CircuitEngine
                    .deviations(&group, &ds, &config, reset_count)
                    .unwrap();
                let density = DensityEngine
                    .deviations(&group, &ds, &config, reset_count)
                    .unwrap();
                for (c, d) in circuit.iter().zip(&density) {
                    assert!(
                        (c - d).abs() < 1e-9,
                        "reset {reset_count}: circuit {c} vs density {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn density_with_ideal_noise_matches_analytic_engine() {
        // A noise model with no error sources must collapse the density
        // path onto the pure-state analytic numbers.
        let ds = tiny_dataset();
        let exact = QuorumConfig::default().with_seed(5);
        let ideal = noisy_config(qsim::NoiseModel::ideal(), None);
        let group = group_for(&exact, &ds, 2);
        for reset_count in 1..exact.data_qubits {
            let analytic = AnalyticEngine
                .deviations(&group, &ds, &exact, reset_count)
                .unwrap();
            let density = DensityEngine
                .deviations(&group, &ds, &ideal, reset_count)
                .unwrap();
            for (a, d) in analytic.iter().zip(&density) {
                assert!(
                    (a - d).abs() < 1e-12,
                    "reset {reset_count}: analytic {a} vs density {d}"
                );
            }
        }
    }

    #[test]
    fn density_engines_reject_pure_state_execution() {
        let ds = tiny_dataset();
        let config = QuorumConfig::default();
        let group = group_for(&config, &ds, 0);
        let sampled = config
            .clone()
            .with_execution(ExecutionMode::Sampled { shots: 128 });
        for engine in [&DensityEngine as &dyn ScoringEngine, &SampleDensityEngine] {
            assert!(matches!(
                engine.deviations(&group, &ds, &config, 1),
                Err(QuorumError::InvalidConfig(_))
            ));
            assert!(matches!(
                engine.deviations(&group, &ds, &sampled, 1),
                Err(QuorumError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn density_engines_reject_bad_reset_counts() {
        let ds = tiny_dataset();
        let config = noisy_config(qsim::NoiseModel::brisbane(), None);
        let group = group_for(&config, &ds, 0);
        for engine in [&DensityEngine as &dyn ScoringEngine, &SampleDensityEngine] {
            assert!(engine.deviations(&group, &ds, &config, 0).is_err());
            assert!(engine
                .deviations(&group, &ds, &config, config.data_qubits)
                .is_err());
        }
    }

    #[test]
    fn batched_density_matches_per_sample_density() {
        // The readout-form path and the unreduced per-sample matvec path
        // evaluate the same real form in different summation orders, so
        // the two density engines agree to machine precision across noise
        // models and the whole level sweep.
        let ds = tiny_dataset();
        for noise in [
            qsim::NoiseModel::ideal(),
            qsim::NoiseModel::brisbane(),
            qsim::NoiseModel::brisbane().scaled(2.0),
        ] {
            let config = noisy_config(noise, None);
            let levels = config.effective_compression_levels();
            let group = group_for(&config, &ds, 1);
            let batched = DensityEngine
                .deviations_all_levels(&group, &ds, &config, &levels)
                .unwrap();
            let per_sample = SampleDensityEngine
                .deviations_all_levels(&group, &ds, &config, &levels)
                .unwrap();
            for (level, (b, s)) in batched.iter().zip(&per_sample).enumerate() {
                for (i, (bv, sv)) in b.iter().zip(s).enumerate() {
                    assert!(
                        (bv - sv).abs() < 1e-12,
                        "level {level} sample {i}: batched {bv} vs per-sample {sv}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_density_sampled_draws_match_per_sample() {
        // Shot sampling runs on (near-)identical exact deviations with the
        // same per-measurement seeds, so the binomial draws coincide.
        let ds = tiny_dataset();
        let config = noisy_config(qsim::NoiseModel::brisbane(), Some(1024));
        let group = group_for(&config, &ds, 2);
        let batched = DensityEngine.deviations(&group, &ds, &config, 1).unwrap();
        let per_sample = SampleDensityEngine
            .deviations(&group, &ds, &config, 1)
            .unwrap();
        for (b, s) in batched.iter().zip(&per_sample) {
            assert!((b - s).abs() < 1e-12, "batched {b} vs per-sample {s}");
        }
    }

    #[test]
    fn noisy_scoring_builds_one_readout_form_per_level() {
        // The noisy-cache regression pin: a full group pass pays for
        // exactly one readout-form build per compression level, across
        // any number of samples and repeated passes — and never caches a
        // superoperator (only the per-sample oracle does).
        let ds = tiny_dataset();
        let config = noisy_config(qsim::NoiseModel::brisbane(), None).with_seed(29);
        let levels = config.effective_compression_levels();
        let group = group_for(&config, &ds, 1);
        assert_eq!(group.readout_form_builds(), 0);
        group.run_with(&DensityEngine, &ds, &config).unwrap();
        assert_eq!(
            group.readout_form_builds(),
            levels.len(),
            "each compression level builds exactly once"
        );
        group.run_with(&DensityEngine, &ds, &config).unwrap();
        assert_eq!(group.readout_form_builds(), levels.len());
        assert_eq!(group.noisy_superop_fusions(), 0);
        // A different noise model is a different channel: it builds anew.
        let scaled = noisy_config(qsim::NoiseModel::brisbane().scaled(0.5), None).with_seed(29);
        group.run_with(&DensityEngine, &ds, &scaled).unwrap();
        assert_eq!(group.readout_form_builds(), 2 * levels.len());
        // Clones start cold, like the encoder cache.
        let fresh = group.clone();
        assert_eq!(fresh.readout_form_builds(), 0);
        fresh.run_with(&DensityEngine, &ds, &config).unwrap();
        assert_eq!(fresh.readout_form_builds(), levels.len());
        // The per-sample oracle fuses through its own cache.
        fresh.run_with(&SampleDensityEngine, &ds, &config).unwrap();
        assert_eq!(fresh.noisy_superop_fusions(), levels.len());
        assert_eq!(fresh.readout_form_builds(), levels.len());
    }

    #[test]
    fn dense_scores_do_not_depend_on_panel_company() {
        // Each column is scored on its own: a sample's deviations are
        // bit-identical alone and at every position of a wider panel.
        let ds = tiny_dataset();
        let config = noisy_config(qsim::NoiseModel::brisbane(), None);
        let levels = config.effective_compression_levels();
        let group = group_for(&config, &ds, 1);
        let panel = DensityEngine
            .deviations_all_levels(&group, &ds, &config, &levels)
            .unwrap();
        for (j, row) in ds.rows().iter().enumerate() {
            let one = Dataset::from_rows("one", vec![row.clone()], None).unwrap();
            let alone = DensityEngine
                .deviations_all_levels(&group, &one, &config, &levels)
                .unwrap();
            for (level, devs) in alone.iter().enumerate() {
                assert_eq!(devs[0].to_bits(), panel[level][j].to_bits(), "sample {j}");
            }
        }
    }

    #[test]
    fn noisy_scoring_survives_poisoned_global_functional_cache() {
        // Resident-server regression: one scorer thread panicking while it
        // holds the global swap-functional cache must not wedge every later
        // request. The cache recovers the guard and keeps serving the same
        // write-once-valid entries.
        let ds = tiny_dataset();
        let config = noisy_config(qsim::NoiseModel::brisbane(), None).with_seed(31);
        let group = group_for(&config, &ds, 0);
        let before = group.run_with(&DensityEngine, &ds, &config).unwrap();
        SWAP_FUNCTIONAL_CACHE.poison_for_test();
        // A cold clone rebuilds its readout forms, reading the functional
        // back through the poisoned cache.
        let after = group
            .clone()
            .run_with(&DensityEngine, &ds, &config)
            .unwrap();
        assert_eq!(before, after, "recovered cache must score identically");
    }

    #[test]
    fn structured_matches_dense_density_engine() {
        // The tentpole pin at unit-test granularity: the structured
        // per-gate channel walk plus the MPO readout reproduces the
        // dense fused-superoperator numbers on every sample, level and
        // noise model where both paths run.
        let ds = tiny_dataset();
        for noise in [
            qsim::NoiseModel::ideal(),
            qsim::NoiseModel::brisbane(),
            qsim::NoiseModel::brisbane().scaled(2.0),
        ] {
            let config = noisy_config(noise, None);
            let levels = config.effective_compression_levels();
            let group = group_for(&config, &ds, 1);
            let dense = DensityEngine
                .deviations_all_levels(&group, &ds, &config, &levels)
                .unwrap();
            let structured = StructuredDensityEngine
                .deviations_all_levels(&group, &ds, &config, &levels)
                .unwrap();
            for (level, (d, s)) in dense.iter().zip(&structured).enumerate() {
                for (a, b) in d.iter().zip(s) {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "level {level}: dense {a} vs structured {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn structured_scoring_lowers_one_program_per_level() {
        // The program-cache regression pin, mirroring the dense
        // superoperator cache's: one lowering per (noise, level) across
        // any number of samples and repeated passes; clones start cold.
        let ds = tiny_dataset();
        let config = noisy_config(qsim::NoiseModel::brisbane(), None).with_seed(29);
        let levels = config.effective_compression_levels();
        let group = group_for(&config, &ds, 1);
        assert_eq!(group.channel_program_fusions(), 0);
        group
            .run_with(&StructuredDensityEngine, &ds, &config)
            .unwrap();
        assert_eq!(group.channel_program_fusions(), levels.len());
        group
            .run_with(&StructuredDensityEngine, &ds, &config)
            .unwrap();
        assert_eq!(group.channel_program_fusions(), levels.len());
        let scaled = noisy_config(qsim::NoiseModel::brisbane().scaled(0.5), None).with_seed(29);
        group
            .run_with(&StructuredDensityEngine, &ds, &scaled)
            .unwrap();
        assert_eq!(group.channel_program_fusions(), 2 * levels.len());
        let fresh = group.clone();
        assert_eq!(fresh.channel_program_fusions(), 0);
        // The structured pass never touches the dense superoperator cache.
        assert_eq!(group.noisy_superop_fusions(), 0);
    }

    #[test]
    fn structured_rejects_pure_state_and_bad_reset_counts() {
        let ds = tiny_dataset();
        let exact = QuorumConfig::default();
        let group = group_for(&exact, &ds, 0);
        assert!(matches!(
            StructuredDensityEngine.deviations(&group, &ds, &exact, 1),
            Err(QuorumError::InvalidConfig(_))
        ));
        let noisy = noisy_config(qsim::NoiseModel::brisbane(), None);
        assert!(StructuredDensityEngine
            .deviations(&group, &ds, &noisy, 0)
            .is_err());
        assert!(StructuredDensityEngine
            .deviations(&group, &ds, &noisy, noisy.data_qubits)
            .is_err());
    }

    #[test]
    fn fused_noisy_superop_is_trace_preserving() {
        // Column j = vec(C(E_ij)): the channel preserves trace iff every
        // basis column's output trace equals the input's (δ_ij).
        let ds = tiny_dataset();
        let config = noisy_config(qsim::NoiseModel::brisbane(), None);
        let group = group_for(&config, &ds, 0);
        let n = config.data_qubits;
        let dim = 1usize << n;
        let superop = group
            .fused_noisy_superop(&qsim::NoiseModel::brisbane(), 1)
            .unwrap();
        for i in 0..dim {
            for j in 0..dim {
                let col = i * dim + j;
                let mut trace = C64::ZERO;
                for d in 0..dim {
                    trace += superop[(d * dim + d, col)];
                }
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (trace.re - expected).abs() < 1e-12 && trace.im.abs() < 1e-12,
                    "column ({i},{j}) trace {trace:?}"
                );
            }
        }
    }

    #[test]
    fn batched_matches_per_sample_engine_exactly() {
        // Same summation order per sample ⇒ the batched GEMM path is
        // bit-identical to the per-sample matvec path in Exact mode.
        let ds = tiny_dataset();
        let config = QuorumConfig::default().with_seed(17);
        for index in 0..3 {
            let group = group_for(&config, &ds, index);
            for reset_count in 1..config.data_qubits {
                let per_sample = AnalyticEngine
                    .deviations(&group, &ds, &config, reset_count)
                    .unwrap();
                let batched = BatchedAnalyticEngine
                    .deviations(&group, &ds, &config, reset_count)
                    .unwrap();
                for (a, b) in per_sample.iter().zip(&batched) {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "group {index} reset {reset_count}: per-sample {a} vs batched {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_handles_degenerate_single_sample_batch() {
        let ds = tiny_dataset();
        let one = Dataset::from_rows("one", ds.rows()[..1].to_vec(), None).unwrap();
        let config = QuorumConfig::default().with_seed(13);
        let group = group_for(&config, &ds, 0);
        let batched = BatchedAnalyticEngine
            .deviations(&group, &one, &config, 1)
            .unwrap();
        let per_sample = AnalyticEngine.deviations(&group, &one, &config, 1).unwrap();
        assert_eq!(batched.len(), 1);
        assert!((batched[0] - per_sample[0]).abs() < 1e-12);
    }

    #[test]
    fn scoring_all_levels_fuses_the_encoder_exactly_once() {
        // The unitary-cache regression pin: a full group pass over every
        // compression level must pay for exactly one `to_unitary` fusion.
        let ds = tiny_dataset();
        let config = QuorumConfig::default().with_seed(29);
        let group = group_for(&config, &ds, 1);
        assert_eq!(group.encoder_fusions(), 0);
        group
            .run_with(&BatchedAnalyticEngine, &ds, &config)
            .unwrap();
        assert_eq!(
            group.encoder_fusions(),
            1,
            "all compression levels must share one fused encoder"
        );
        // Further passes over the same group stay cached too.
        group
            .run_with(&BatchedAnalyticEngine, &ds, &config)
            .unwrap();
        assert_eq!(group.encoder_fusions(), 1);
        // A clone starts cold and fuses for itself exactly once.
        let fresh = group.clone();
        assert_eq!(fresh.encoder_fusions(), 0);
        fresh
            .run_with(&BatchedAnalyticEngine, &ds, &config)
            .unwrap();
        assert_eq!(fresh.encoder_fusions(), 1);
    }

    #[test]
    fn deviations_stay_in_swap_test_range() {
        let ds = tiny_dataset();
        let config = QuorumConfig::default().with_seed(31);
        let group = group_for(&config, &ds, 2);
        for reset_count in 1..config.data_qubits {
            for p in AnalyticEngine
                .deviations(&group, &ds, &config, reset_count)
                .unwrap()
            {
                assert!((0.0..=0.5).contains(&p), "deviation {p}");
            }
        }
    }
}
