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
//! sample it scores the group's samples in fixed blocks of eight lanes.
//! Each block's amplitudes are **real**, so they are embedded straight
//! into a reused real `2^n × 8` block, and one lane kernel
//! ([`qsim::kernel::encode_readout_lanes`]) applies the fused encoder as a
//! complex × real product and expands every level's reset branches in
//! registers, emitting `P(1)` per lane — no complex `Ψ`, no `Φ` matrix
//! and no per-group scratch allocation. The encoder fusion itself is
//! hoisted into a per-group `OnceLock` cache
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
//!    ([`qsim::parallel::try_for_each_chunk_mut`]). The skeleton depends
//!    only on `n` and the channels only on the noise model, so one panel
//!    may hold the columns of many groups: a server prepares every
//!    (group, row) column of a request at once
//!    ([`DensityEngine::prepare_triangles`]);
//! 2. reads each prepared `vec(ρ_in)` column (`ρ_B` doubles as register
//!    A's input, since Fig. 2 preps both registers identically) through
//!    one more register-level reduction: every `ρ_in` is real
//!    **symmetric**, so its `4^n` vec entries carry only
//!    `m = 2^n(2^n+1)/2` distinct numbers — the upper triangle
//!    `h = triu(ρ_in)`, which is all the preparation keeps of a column
//!    ([`TrianglePanel`]);
//! 3. scores every level as one **real quadratic form**
//!    `P(1) = hᵀ·G_r·h`. The readout form `G_r` ([`ReadoutForm`]) is
//!    `Re((S_r·F)ᵀ·(W·F))`: the level's noisy segment `S_r` — encoder
//!    gates with their per-gate channels, the reset Kraus channels and the
//!    decoder — and the **SWAP-test readout functional** `W` — the POVM
//!    element `|1⟩⟨1|_anc` pulled backwards (Heisenberg picture, adjoint
//!    channels) through the *noisy lowered* CSWAP network, restricted to
//!    `ancilla = |0⟩` — each applied to the `m` columns of the fold `F`
//!    with `vec(ρ) = F·h`. Neither `4^n × 4^n` factor is built:
//!    `S_r·F` walks the level's lowered [`ChannelProgram`] over `F`, and
//!    `W·F` is one [`SwapTestMpo`] sweep over `F`, shared by every group
//!    and cached globally per `(n, noise model)`; only the real part of
//!    the product is contracted (`build_readout_form`). The form is built
//!    once per (group, noise model, level) and cached on
//!    [`crate::ensemble::EnsembleGroup::readout_form`]: `m(m+1)/2` reals,
//!    5 KiB at n = 3. Per sample, the
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
//! pure-state batch. It is the only engine that fuses the dense `S_r`
//! (evolving all `4^n` matrix units through the density backend) and
//! derives `W` from a `2n + 1`-qubit Heisenberg walk, so its readout does
//! not depend on the channel program's fusions or on the MPO. The two
//! evaluate the same real form in different summation orders and agree
//! to ~1e-15. Both per-sample engines are test oracles that [`resolve`]
//! never picks.
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
//! across all engines. The configuration alone picks the engine
//! ([`resolve`]): batched analytic for Exact/Sampled; for Noisy, dense
//! density below [`STRUCTURED_AUTO_MIN_QUBITS`] data qubits and
//! [`StructuredDensityEngine`] from there up. [`CircuitEngine`] and the
//! per-sample engines are oracles, run directly or through
//! [`crate::detector::QuorumDetector::score_with`].

use crate::ansatz::AnsatzParams;
use crate::cache::ByteBounded;
use crate::circuit::build_sample_circuit;
use crate::config::{ExecutionMode, QuorumConfig, STRUCTURED_AUTO_MIN_QUBITS};
use crate::ensemble::{derive_seed, EnsembleGroup};
use crate::error::QuorumError;
use qdata::{Dataset, SamplePanel};
use qsim::channel::{ChannelProgram, MpoBonds, SwapTestMpo};
use qsim::circuit::{Circuit, Operation};
use qsim::complex::C64;
use qsim::density::{permute_cx_columns, ry_conjugate_columns, DensityMatrix};
use qsim::matrix::{CMatrix, GEMM_COL_BLOCK};
use qsim::parallel::{map_indexed_with, try_for_each_chunk_mut};
use qsim::simulator::{Backend, DensityMatrixBackend, GateNoise, StatevectorBackend};
use qsim::stateprep::{prepare_real_amplitudes, PrepSkeleton, PrepStep};
use qsim::{transpile, NoiseModel, QsimError};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Branches lighter than this are dropped, mirroring the branching
/// statevector backend's prune threshold.
const BRANCH_PRUNE: f64 = 1e-14;

/// Evaluates SWAP-test deviations for every sample of a panel at every
/// requested compression level, under one ensemble group's random draw.
///
/// Implementations define one scoring method,
/// [`ScoringEngine::deviations_all_levels_panel`]; the [`Dataset`] entry
/// points are provided wrappers that flatten the dataset once and
/// delegate. Implementations must be `Send + Sync`: the detector fans
/// groups out across threads and shares one engine reference.
pub trait ScoringEngine: Send + Sync {
    /// Short human-readable engine name.
    fn name(&self) -> &'static str;

    /// The deviation `P(ancilla = 1)` of every sample in `panel` at every
    /// compression level in `levels`, in order — the granularity at which
    /// a full group pass runs, so batched engines share everything that
    /// is level-independent (embedding, the encoder product, the prepared
    /// states) across the sweep. The panel is a borrowed flat view: the
    /// serving runtime feeds it from pooled request buffers, and the
    /// detector flattens its normalised dataset once per pass.
    ///
    /// # Errors
    ///
    /// Propagates embedding and simulation failures; engines reject
    /// execution modes they cannot honour and out-of-range reset counts.
    fn deviations_all_levels_panel(
        &self,
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError>;

    /// [`ScoringEngine::deviations_all_levels_panel`] over a [`Dataset`],
    /// flattened once through [`with_panel`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScoringEngine::deviations_all_levels_panel`],
    /// plus [`QuorumError::InvalidData`] for a dataset with no features.
    fn deviations_all_levels(
        &self,
        group: &EnsembleGroup,
        normalized: &Dataset,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        with_panel(normalized, |panel| {
            self.deviations_all_levels_panel(group, panel, config, levels)
        })
    }

    /// The deviations of every sample in `normalized` at one compression
    /// level.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScoringEngine::deviations_all_levels`].
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
}

/// Flattens `data` into one row-major buffer and lends it to `f` as a
/// [`SamplePanel`] — the bridge from the [`Dataset`] entry points to the
/// panel engines. A caller that scores many groups flattens once and
/// shares the panel across them.
///
/// # Errors
///
/// [`QuorumError::InvalidData`] for a dataset with no features, which a
/// panel cannot represent; otherwise whatever `f` returns.
pub fn with_panel<T>(
    data: &Dataset,
    f: impl FnOnce(&SamplePanel<'_>) -> Result<T, QuorumError>,
) -> Result<T, QuorumError> {
    if data.num_features() == 0 {
        return Err(QuorumError::InvalidData("dataset has no features".into()));
    }
    let flat = data.rows().concat();
    f(&SamplePanel::new(&flat, data.num_features()))
}

/// The engine the selection rule picks, with the noise model the noisy
/// engines read. [`select`] is the rule; [`resolve`] and [`prewarm`]
/// only map its answer.
enum Selected<'a> {
    Batched,
    Dense(&'a NoiseModel),
    Structured(&'a NoiseModel),
}

/// The selection rule, written once: the batched analytic engine for
/// Exact and Sampled execution; for Noisy execution the dense engine
/// below [`STRUCTURED_AUTO_MIN_QUBITS`] data qubits and the structured
/// engine from there up.
fn select(config: &QuorumConfig) -> Selected<'_> {
    match &config.execution {
        ExecutionMode::Noisy { noise, .. } if config.data_qubits < STRUCTURED_AUTO_MIN_QUBITS => {
            Selected::Dense(noise)
        }
        ExecutionMode::Noisy { noise, .. } => Selected::Structured(noise),
        _ => Selected::Batched,
    }
}

/// The engine that scores `config`: [`BatchedAnalyticEngine`] for Exact
/// and Sampled execution; for Noisy execution the dense
/// [`DensityEngine`] below [`STRUCTURED_AUTO_MIN_QUBITS`] data qubits and
/// the [`StructuredDensityEngine`] from there up. Every engine stays
/// reachable directly and through
/// [`crate::detector::QuorumDetector::score_with`].
pub fn resolve(config: &QuorumConfig) -> &'static dyn ScoringEngine {
    match select(config) {
        Selected::Batched => &BatchedAnalyticEngine,
        Selected::Dense(_) => &DensityEngine,
        Selected::Structured(_) => &StructuredDensityEngine,
    }
}

/// Builds and caches what the engine [`resolve`] picks for `config`
/// needs at one (group, compression level): the dense engine's
/// [`ReadoutForm`] ([`EnsembleGroup::readout_form`]), the structured
/// engine's channel program ([`EnsembleGroup::channel_program`]), and
/// nothing for pure-state execution. A server calls it for every
/// (group, level) before its first request, so no request pays a build.
///
/// # Errors
///
/// Propagates readout-form and lowering failures (effectively
/// infallible for valid ansätze and noise models).
pub fn prewarm(
    group: &EnsembleGroup,
    config: &QuorumConfig,
    reset_count: usize,
) -> Result<(), QuorumError> {
    match select(config) {
        Selected::Batched => Ok(()),
        Selected::Dense(noise) => group.readout_form(noise, reset_count).map(drop),
        Selected::Structured(noise) => group.channel_program(noise, reset_count).map(drop),
    }
}

/// Whether the engine [`resolve`] picks for `config` scores from prepared
/// upper triangles — the dense [`DensityEngine`], whose preparation a
/// multi-group caller may run once for all its groups
/// ([`DensityEngine::prepare_triangles`]) and score per group
/// ([`DensityEngine::score_triangles`]). Every other engine prepares
/// inside its own [`ScoringEngine::deviations_all_levels_panel`].
pub fn scores_from_triangles(config: &QuorumConfig) -> bool {
    matches!(select(config), Selected::Dense(_))
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

/// The widest data register the dense density engines support. The
/// per-sample oracle derives its SWAP-test functional on the full
/// `2n + 1`-qubit observable, which must stay within the mixed-state
/// simulator's 13-qubit limit; the dense engine's readout forms need no
/// such observable, but one form at n = 6 is already ~17 MB per (group,
/// level), so wider registers run on the structured engine.
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
/// register-width limit — the dense paths materialise `16^n`-sized
/// objects (the readout forms; the oracle's superoperators and
/// `2n + 1`-qubit SWAP-test observable), so oversized registers are
/// rejected up front rather than on a huge allocation. The structured
/// engine has no such objects and checks only the mode
/// ([`ensure_noisy_mode`]).
fn ensure_noisy(config: &QuorumConfig) -> Result<(), QuorumError> {
    ensure_noisy_mode(config)?;
    if config.data_qubits > MAX_DENSITY_DATA_QUBITS {
        return Err(QuorumError::InvalidConfig(format!(
            "dense noisy scoring supports at most {MAX_DENSITY_DATA_QUBITS} data qubits (its \
             dense objects grow as 16^n); wider registers run on the structured density engine"
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
/// with the arithmetic of the cumulative-distribution sampler the circuit
/// backends use ([`qsim::simulator::OutcomeDistribution::sample`]) — so
/// all engines produce bit-identical sampled statistics from the same
/// seed. Over the two outcomes that sampler's table is `[w0, w0 + p]`
/// with `w0 = 1 − p`, and a draw `u` lands on outcome 1 exactly when
/// `w0 < u·(w0 + p)`; this loop counts those draws over the same random
/// stream without building the table. Public for the serving runtime,
/// which applies the draw after scoring a coalesced batch exactly (see
/// [`shot_seed`]).
pub fn sampled_deviation(exact: f64, shots: u64, seed: u64) -> f64 {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let w0 = 1.0 - exact;
    let total = w0 + exact;
    let ones = (0..shots).filter(|_| w0 < rng.gen::<f64>() * total).count();
    ones as f64 / shots as f64
}

/// The paper-literal engine: builds and simulates the full `2n + 1`-qubit
/// Fig. 2 circuit per sample on the branching statevector backend (or the
/// density-matrix backend for noisy runs). Kept as the cross-check oracle
/// every other engine is pinned against, in every execution mode;
/// [`resolve`] never picks it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CircuitEngine;

impl ScoringEngine for CircuitEngine {
    fn name(&self) -> &'static str {
        "circuit"
    }

    fn deviations_all_levels_panel(
        &self,
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        let sv_backend = StatevectorBackend::new();
        let dm_backend = match &config.execution {
            ExecutionMode::Noisy { noise, .. } => {
                Some(DensityMatrixBackend::with_noise(noise.clone()))
            }
            _ => None,
        };
        let mut out: Vec<Vec<f64>> = levels
            .iter()
            .map(|_| Vec::with_capacity(panel.num_samples()))
            .collect();
        for (i, row) in panel.rows().enumerate() {
            let values = group.features().project(row);
            for (deviations, &reset_count) in out.iter_mut().zip(levels) {
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
                deviations.push(p);
            }
        }
        Ok(out)
    }
}

/// The analytic reduced-register engine: per-group fused unitaries and
/// `n`-qubit pure-state algebra (see the module docs for the math). The
/// one-matvec-per-sample reference [`BatchedAnalyticEngine`] is pinned
/// against; [`resolve`] never picks it, so tests reach it directly or
/// through [`crate::detector::QuorumDetector::score_with`].
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

    fn deviations_all_levels_panel(
        &self,
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        ensure_pure_state(config)?;
        let n = group.ansatz().num_qubits();
        for &reset_count in levels {
            ensure_reset_range(reset_count, n)?;
        }
        // Fuse the group's encoder once per call; every sample and level
        // reuses the matrix. (The batched engine goes further and reuses
        // one fusion across calls via the group's cache.) The decoder is
        // the encoder's exact adjoint and cancels out of the overlap (see
        // `deviation_of`), so it is never materialised.
        let encoder = group.ansatz().encoder().to_unitary()?;

        let mut out: Vec<Vec<f64>> = levels
            .iter()
            .map(|_| Vec::with_capacity(panel.num_samples()))
            .collect();
        for (i, row) in panel.rows().enumerate() {
            let values = group.features().project(row);
            let amps = crate::embed::amplitudes_with_overflow(&values, n)?;
            // Inject amplitudes directly (the circuit path's state prep
            // normalises, so mirror it here).
            let norm: f64 = amps.iter().map(|a| a * a).sum::<f64>().sqrt();
            let psi: Vec<C64> = amps.iter().map(|&a| C64::from_real(a / norm)).collect();
            for (deviations, &reset_count) in out.iter_mut().zip(levels) {
                let exact = Self::deviation_of(&psi, &encoder, n, reset_count);
                deviations.push(match &config.execution {
                    ExecutionMode::Sampled { shots } => {
                        // Binomial draw from the exact deviation, through
                        // the same distribution sampler the backends use.
                        let seed = shot_seed(config, group.index(), reset_count, i);
                        sampled_deviation(exact, *shots, seed)
                    }
                    _ => exact,
                });
            }
        }
        Ok(out)
    }
}

/// One batched pass per group is far too small at flagship scale (a
/// 96-sample lane-block pass at n = 3, a `64 × 96` lockstep preparation
/// panel) to amortise thread dispatch, so the batched engines only thread
/// a pass when it is genuinely large (roughly `n ≥ 7` for the pure-state
/// path, `n ≥ 4` for the density paths, at realistic batch sizes).
const GEMM_PARALLEL_WORK: usize = 1 << 21;

/// Worker threads for one batched pass (the pure-state lane blocks, or a
/// density panel's preparation or structured walk), from the configured
/// thread count and the pass's `dim² × samples` work estimate.
/// Multi-group ensembles keep the pass sequential regardless of size: the
/// detector already fans groups out across cores, and threading inside
/// each worker would multiply the two levels of parallelism into
/// oversubscription. Thread counts never change the results either way
/// (every block's output is position-fixed).
fn gemm_threads(config: &QuorumConfig, dim: usize, samples: usize) -> usize {
    if config.ensemble_groups > 1 || dim * dim * samples < GEMM_PARALLEL_WORK {
        1
    } else {
        config.effective_threads()
    }
}

/// Samples per lane block of a batched pure-state pass.
const LANES: usize = qsim::kernel::READOUT_LANES;

/// Lane blocks per chunk of a threaded pure-state pass: 64 samples, so a
/// chunk's amplitude blocks and kernel calls amortise one claim.
const PASS_CHUNK_BLOCKS: usize = 8;

/// The lane kernel a batched pure-state pass runs: the dispatched
/// [`qsim::kernel::encode_readout_lanes`]; tests also run the portable
/// body.
type ReadoutKernel =
    fn(&[C64], &[[f64; LANES]], &[usize], f64, &mut [[f64; LANES]], &mut [[f64; LANES]]);

/// One participant's buffers for a pure-state pass: one row's projected
/// features and amplitudes, the real `2^n × 8` amplitude block and the
/// kernel's `Φ` planes. Held per thread, so a steady-state pass
/// allocates nothing.
#[derive(Default)]
struct LaneScratch {
    values: Vec<f64>,
    amps: Vec<f64>,
    block: Vec<[f64; LANES]>,
    phi: Vec<[f64; LANES]>,
}

thread_local! {
    static LANE_SCRATCH: RefCell<LaneScratch> = RefCell::default();
    /// The calling thread's per-pass deviations, block-major: block `b`,
    /// level `v` at `b·levels + v`.
    static LANE_DEVIATIONS: RefCell<Vec<[f64; LANES]>> = RefCell::default();
}

/// The batched analytic engine: the group's samples run through the
/// cached fused encoder in fixed blocks of eight
/// ([`qsim::kernel::READOUT_LANES`]) samples, each block
/// embedded into a real `2^n × 8` amplitude block and scored at every
/// level by one call of the [`qsim::kernel::encode_readout_lanes`] lane
/// kernel, which applies the encoder and expands the reset branches in
/// registers. The default for Exact and Sampled execution.
///
/// Produces the same numbers as [`AnalyticEngine`] (the kernel keeps the
/// per-sample matvec's accumulation order; see its rounding contract),
/// but amortises the encoder application across samples and the encoder
/// *fusion* across compression levels via
/// [`EnsembleGroup::fused_encoder`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchedAnalyticEngine;

impl BatchedAnalyticEngine {
    /// The pass, written once over any lane kernel. Blocks of
    /// [`PASS_CHUNK_BLOCKS`] lane blocks fan out over
    /// [`gemm_threads`] participants; each sample's deviations depend only
    /// on its own row, so no bit depends on the thread count. Sampled
    /// execution then draws each deviation's shots.
    fn pass(
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        levels: &[usize],
        kernel: ReadoutKernel,
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        ensure_pure_state(config)?;
        let n = group.ansatz().num_qubits();
        for &reset_count in levels {
            ensure_reset_range(reset_count, n)?;
        }
        let encoder = group.fused_encoder()?.as_slice();
        if levels.is_empty() {
            return Ok(Vec::new());
        }
        let samples = panel.num_samples();
        let threads = gemm_threads(config, 1 << n, samples);
        LANE_DEVIATIONS.with(|cell| {
            let lanes = &mut *cell.borrow_mut();
            lanes.clear();
            lanes.resize(samples.div_ceil(LANES) * levels.len(), [0.0; LANES]);
            let chunk = PASS_CHUNK_BLOCKS * levels.len();
            try_for_each_chunk_mut(lanes, chunk, threads, |c, out| {
                LANE_SCRATCH.with(|scratch| {
                    Self::score_blocks(
                        group,
                        panel,
                        encoder,
                        levels,
                        kernel,
                        c * PASS_CHUNK_BLOCKS,
                        out,
                        &mut scratch.borrow_mut(),
                    )
                })
            })?;
            Ok(levels
                .iter()
                .enumerate()
                .map(|(v, &reset_count)| {
                    (0..samples)
                        .map(|j| {
                            let exact = lanes[j / LANES * levels.len() + v][j % LANES];
                            match &config.execution {
                                ExecutionMode::Sampled { shots } => {
                                    let seed = shot_seed(config, group.index(), reset_count, j);
                                    sampled_deviation(exact, *shots, seed)
                                }
                                _ => exact,
                            }
                        })
                        .collect()
                })
                .collect())
        })
    }

    /// Scores the lane blocks from block `b0` on, as many as `out` holds
    /// (`levels.len()` lane rows each). Every row is projected, embedded
    /// and unit-normalised the way the circuit path's state preparation
    /// does, into its lane of the amplitude block; lanes past the panel's
    /// end stay zero.
    #[allow(clippy::too_many_arguments)] // private worker body of `pass`
    fn score_blocks(
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        encoder: &[C64],
        levels: &[usize],
        kernel: ReadoutKernel,
        b0: usize,
        out: &mut [[f64; LANES]],
        scratch: &mut LaneScratch,
    ) -> Result<(), QuorumError> {
        let n = group.ansatz().num_qubits();
        let dim = 1usize << n;
        let LaneScratch {
            values,
            amps,
            block,
            phi,
        } = scratch;
        amps.resize(dim, 0.0);
        block.resize(dim, [0.0; LANES]);
        phi.resize(2 * dim, [0.0; LANES]);
        for (b, deviations) in (b0..).zip(out.chunks_exact_mut(levels.len())) {
            let rows = b * LANES..panel.num_samples().min((b + 1) * LANES);
            let live = rows.len();
            for (lane, j) in rows.enumerate() {
                group.features().project_into(panel.row(j), values);
                crate::embed::amplitudes_with_overflow_into(values, n, amps)?;
                for (row, &a) in block.iter_mut().zip(amps.iter()) {
                    row[lane] = a;
                }
            }
            // Unit-normalise all lanes at once: per lane, the same
            // in-order sum of squares, root and quotients as one column
            // alone. Dead lanes get norm 1 and stay zero.
            let mut norm = [0.0; LANES];
            for row in block.iter_mut() {
                row[live..].fill(0.0);
                for (s, &a) in norm.iter_mut().zip(row.iter()) {
                    *s += a * a;
                }
            }
            for (l, s) in norm.iter_mut().enumerate() {
                *s = if l < live { s.sqrt() } else { 1.0 };
            }
            for row in block.iter_mut() {
                for (a, &s) in row.iter_mut().zip(&norm) {
                    *a /= s;
                }
            }
            kernel(encoder, block, levels, BRANCH_PRUNE, phi, deviations);
        }
        Ok(())
    }
}

impl ScoringEngine for BatchedAnalyticEngine {
    fn name(&self) -> &'static str {
        "batched"
    }

    fn deviations_all_levels_panel(
        &self,
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        Self::pass(
            group,
            panel,
            config,
            levels,
            qsim::kernel::encode_readout_lanes,
        )
    }
}

/// The bottlenecked autoencoder segment of one group — encoder,
/// `reset_count` resets of the top qubits, decoder — lowered to 1q and CX
/// gates, the form every noisy segment builder starts from.
///
/// # Errors
///
/// Propagates circuit composition failures (effectively infallible for
/// valid ansätze).
fn lowered_segment(ansatz: &AnsatzParams, reset_count: usize) -> Result<Circuit, QuorumError> {
    let n = ansatz.num_qubits();
    let mut circ = Circuit::new(n);
    circ.compose(&ansatz.encoder(), 0)
        .map_err(QuorumError::Simulation)?;
    for q in (n - reset_count)..n {
        circ.reset(q);
    }
    circ.compose(&ansatz.decoder(), 0)
        .map_err(QuorumError::Simulation)?;
    Ok(transpile::decompose_multiqubit(&circ))
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
/// precision. Only the per-sample oracle ([`SampleDensityEngine`]) scores
/// with it, through the per-group cache
/// ([`EnsembleGroup::fused_noisy_superop`]); the dense engine's readout
/// forms walk the channel program instead ([`build_readout_form`]).
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
    let lowered = lowered_segment(ansatz, reset_count)?;
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
/// `h_k·h_l` ([`qsim::kernel::outer_triangle_lanes`]). Built once per
/// (group, noise model, level) from the level's [`ChannelProgram`] and
/// the cached SWAP-test image of a [`SwapTestMpo`] (see the module docs)
/// and cached per group ([`EnsembleGroup::readout_form`]).
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

/// The image of the upper-triangle fold `F` under a linear map on
/// `vec(ρ)` panels. `F` has one column per coordinate `(a, b)`, `a ≤ b`,
/// of [`upper_triangle`]: a 1 at vec indices `(a, b)` and `(b, a)`, a
/// single 1 on the diagonal, so `vec(ρ) = F·h` for a real symmetric `ρ`.
/// `apply` maps `F`'s columns in place, [`GEMM_COL_BLOCK`] at a time, as a
/// complex `4^n × width` panel — the block bounds the transient panels at
/// every width. Image column `k` comes back as one contiguous run of its
/// `4^n` real parts at `k·4^n`; the imaginary parts are dropped, since
/// only `Re A·Re B` survives in a form whose factor `B = W·F` is real
/// (see [`build_readout_form`]).
fn fold_image(dim: usize, mut apply: impl FnMut(&mut [C64], usize)) -> Vec<f64> {
    let dim2 = dim * dim;
    let coords: Vec<(usize, usize)> = upper_triangle(dim).collect();
    let mut image = vec![0.0; coords.len() * dim2];
    let mut panel = Vec::new();
    for (index, block) in coords.chunks(GEMM_COL_BLOCK).enumerate() {
        let width = block.len();
        panel.clear();
        panel.resize(dim2 * width, C64::ZERO);
        for (j, &(a, b)) in block.iter().enumerate() {
            panel[(a * dim + b) * width + j] = C64::ONE;
            panel[(b * dim + a) * width + j] = C64::ONE;
        }
        apply(&mut panel, width);
        let runs = image.chunks_exact_mut(dim2).skip(index * GEMM_COL_BLOCK);
        for (j, run) in runs.take(width).enumerate() {
            for (i, r) in run.iter_mut().enumerate() {
                *r = panel[i * width + j].re;
            }
        }
    }
    image
}

/// Builds the [`ReadoutForm`] of one group's bottlenecked segment at
/// `reset_count` under `noise`.
///
/// The unreduced path scores `raw = vec(ρ)ᵀ·S_rᵀ·W·vec(ρ)` from the
/// level's noisy superoperator `S_r` and the SWAP-test functional `W`.
/// For a real symmetric `ρ` with upper triangle `h`, `vec(ρ) = F·h` (see
/// [`fold_image`]), so `Re(raw) = hᵀ·G_r·h` with
/// `G_r = Re((S_r·F)ᵀ·(W·F))`. Neither dense factor is built:
///
/// - `S_r·F` walks the level's [`ChannelProgram`] over `F`'s
///   `m = 2^n(2^n+1)/2` columns — `O(ops · 4^n · m)`, where fusing `S_r`
///   evolves all `4^n` matrix units through the generic density backend;
///   the program is lowered here, not cached;
/// - `W·F` does not depend on the group: one [`SwapTestMpo`] sweep over
///   `F`, cached process-wide per `(n, noise model)`
///   ([`swap_test_image`]).
///
/// Only the real part is contracted, `G_kl = Σ_i Re A_ik·Re B_il −
/// Im A_ik·Im B_il` for `A = S_r·F` and `B = W·F`, and `B` is real in
/// exact arithmetic: the lowered SWAP-test network is a real map, and its
/// depolarizing and damping channels commute with the diagonal `T`
/// phases (the unit test `swap_test_image_is_real` bounds the rounding
/// residue by 1e-15). So `G_kl = Re A_k·Re B_l`: one real dot per entry
/// over [`fold_image`]'s real columns. The build is sequential with a
/// fixed order, so its bits depend neither on the thread count nor on
/// which caller built the image. The result is symmetrised into the
/// packed triangle. Called through the per-group cache
/// ([`EnsembleGroup::readout_form`]).
///
/// # Errors
///
/// Propagates lowering and MPO construction failures (effectively
/// infallible for valid ansätze).
pub(crate) fn build_readout_form(
    ansatz: &AnsatzParams,
    noise: &NoiseModel,
    reset_count: usize,
) -> Result<ReadoutForm, QuorumError> {
    let n = ansatz.num_qubits();
    let dim2 = 1usize << (2 * n);
    let wf = swap_test_image(n, noise)?;
    let program = build_channel_program(ansatz, noise, reset_count)?;
    let sf = fold_image(1 << n, |panel, width| program.apply_panel(panel, width));
    let m = sf.len() / dim2;
    let mut g = vec![0.0; m * m];
    for (k, a_re) in sf.chunks_exact(dim2).enumerate() {
        for (l, b_re) in wf.chunks_exact(dim2).enumerate() {
            g[k * m + l] = qsim::kernel::dot_lanes(a_re, b_re);
        }
    }
    // hᵀ·G·h = Σ_k G_kk·h_k² + Σ_{k<l} (G_kl + G_lk)·h_k·h_l.
    let mut packed = Vec::with_capacity(m * (m + 1) / 2);
    for k in 0..m {
        packed.push(g[k * m + k]);
        packed.extend((k + 1..m).map(|l| g[k * m + l] + g[l * m + k]));
    }
    Ok(ReadoutForm { packed })
}

/// Lowers the same bottlenecked autoencoder segment as
/// [`build_noisy_superop`] — encoder, `reset_count` resets, decoder —
/// into a structured per-gate [`ChannelProgram`] instead of fusing it
/// dense: the program is `O(gates)` to build and `O(ops · 4^n)` per
/// column to apply, never materialising the `16^n` superoperator. The
/// structured engine caches one per (group, level)
/// ([`EnsembleGroup::channel_program`]); a readout-form build walks one
/// over the fold's columns and drops it.
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
    let lowered = lowered_segment(ansatz, reset_count)?;
    ChannelProgram::from_lowered(&lowered, &cached_gate_noise(noise))
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
///
/// This `2n + 1`-qubit walk is the per-sample oracle's construction
/// ([`SampleDensityEngine`], through [`swap_test_functional`]) and is
/// independent of the [`SwapTestMpo`] the dense and structured engines
/// read, which makes it the check on the MPO.
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
/// anything the test suites create (an n = 3 functional is ~65 KiB).
const SWAP_FUNCTIONAL_CACHE_BYTES: usize = 64 << 20;

/// The process-wide SWAP-test functional store of the per-sample oracle:
/// `W` depends only on the register width and the noise model, so every
/// group and sample of the process shares one instance per key. The
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

/// Bytes the global SWAP-test image cache may retain: an image is
/// `4^n·m` reals — 18 KiB at n = 3, 4.1 MiB at n = 5 — so every width
/// up to 5 fits under many noise models, while an n = 6 image (65 MiB,
/// just over the bound) is rebuilt per form instead of pinned.
const SWAP_TEST_IMAGE_CACHE_BYTES: usize = 64 << 20;

/// The process-wide store of `W·F`, the SWAP-test functional applied to
/// the upper-triangle fold — the group-independent factor of every dense
/// readout form, in [`fold_image`]'s layout. Keyed like
/// [`SWAP_FUNCTIONAL_CACHE`] and recovering from poisoning the same way.
static SWAP_TEST_IMAGE_CACHE: ByteBounded<(usize, NoiseModel), Vec<f64>> = ByteBounded::new();

/// The globally cached `W·F` for `n`-qubit registers under `noise` (see
/// [`SWAP_TEST_IMAGE_CACHE`]): one [`SwapTestMpo`] sweep over the fold's
/// columns. The sweep is per-column and runs in fixed blocks, so racing
/// builders produce the same bits. The build runs outside the cache lock.
fn swap_test_image(n: usize, noise: &NoiseModel) -> Result<Arc<Vec<f64>>, QuorumError> {
    SWAP_TEST_IMAGE_CACHE.get_or_try_build(
        &(n, noise.clone()),
        SWAP_TEST_IMAGE_CACHE_BYTES,
        |image| std::mem::size_of_val(image.as_slice()),
        || {
            let mpo = SwapTestMpo::build(n, &cached_gate_noise(noise))
                .map_err(QuorumError::Simulation)?;
            let mut out = Vec::new();
            let mut bonds = MpoBonds::default();
            Ok::<_, QuorumError>(fold_image(1 << n, |panel, width| {
                out.clear();
                out.resize(panel.len(), C64::ZERO);
                mpo.apply_panel(panel, width, &mut bonds, &mut out);
                panel.copy_from_slice(&out);
            }))
        },
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

    /// Refills the panel from [`PREP_BLOCK`]-column blocks laid end to
    /// end, each a row-major `rows × width` panel, stitching their row
    /// segments into one row-major panel.
    fn fill_from_blocks(&mut self, rows: usize, blocks: &[f64]) {
        let cols = blocks.len() / rows;
        self.resize_zeroed(rows, cols);
        for (b, block) in blocks.chunks(PREP_BLOCK * rows).enumerate() {
            let width = block.len() / rows;
            for (i, segment) in block.chunks_exact(width).enumerate() {
                let start = i * cols + b * PREP_BLOCK;
                self.data[start..start + width].copy_from_slice(segment);
            }
        }
    }
}

/// The upper triangles of lockstep-prepared columns, stored column by
/// column: column `c`'s `m = 2^n(2^n+1)/2` coordinates `h = triu(ρ_in)`
/// sit at `c·m..(c+1)·m`, in row-major `(a, b)`, `a ≤ b` order. That is
/// all the dense readout forms read of a prepared state, a little over
/// half of its `4^n` entries. Filled by
/// [`DensityEngine::prepare_triangles`] and read by
/// [`DensityEngine::score_triangles`]; a panel refilled call after call
/// keeps its allocation.
#[derive(Debug, Default)]
pub struct TrianglePanel {
    coordinates: usize,
    data: Vec<f64>,
}

impl TrianglePanel {
    /// Number of prepared columns.
    pub fn cols(&self) -> usize {
        self.data.len().checked_div(self.coordinates).unwrap_or(0)
    }
}

/// Columns one lockstep preparation block evolves together; blocks are
/// the unit the preparation fans out over workers. Every lockstep kernel
/// is a per-column lane operation, so a column's bits depend neither on
/// its block nor on the other columns in it. Wider blocks were no
/// cheaper per column on the n = 3 serving panels, and at 32 two
/// participants share a 60-column panel of 30 groups × 2 rows.
const PREP_BLOCK: usize = 32;

/// What a lockstep preparation keeps of each block of prepared
/// `vec(ρ_in)` columns.
#[derive(Debug, Clone, Copy)]
enum Keep {
    /// Each column's `m` upper-triangle entries `(a, b)`, `a ≤ b`, as one
    /// contiguous run per column: all the dense readout forms read.
    Triangle,
    /// The whole block, row-major `4^n × width`: what the structured
    /// engine reads, stitched into a [`RealPanel`].
    Full,
}

impl Keep {
    /// Entries kept per column.
    fn run(self, dim: usize) -> usize {
        match self {
            Keep::Triangle => dim * (dim + 1) / 2,
            Keep::Full => dim * dim,
        }
    }
}

/// Copies the upper-triangle rows of a row-major `dim² × width` panel
/// (`row(i)` is entry `i` of every column) into column runs: coordinate
/// `k` of column `j` lands at `out[j·m + k]`.
fn gather_triangles<'a>(dim: usize, row: impl Fn(usize) -> &'a [f64], out: &mut [f64]) {
    let m = Keep::Triangle.run(dim);
    for (k, (a, b)) in upper_triangle(dim).enumerate() {
        for (j, &v) in row(a * dim + b).iter().enumerate() {
            out[j * m + k] = v;
        }
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

/// Everything one lockstep column block needs: the block's angle lanes,
/// one column's embedding buffers, the RY coefficient lanes and the
/// evolving row-major `4^n × width` block of a triangle preparation.
/// Held per thread, so resident pool workers
/// ([`qsim::parallel::WorkerPool`]) keep it warm across panels and a
/// steady-state preparation allocates nothing.
#[derive(Default)]
struct BlockScratch {
    /// Per-column angle vectors, angle-major (`num_angles × width`).
    thetas: Vec<f64>,
    values: Vec<f64>,
    amps: Vec<f64>,
    angles: Vec<f64>,
    coeffs: RyCoeffs,
    block: Vec<f64>,
}

/// The per-thread buffers of one-group density passes: the prepared
/// columns (upper triangles for the dense engine, full blocks and their
/// stitched panel for the structured one) and one column's packed
/// products `h_k·h_l`. After the first panel on a thread every buffer is
/// reused at capacity, so a steady-state scoring loop stops
/// heap-allocating per batch.
#[derive(Default)]
struct DensityScratch {
    triangles: TrianglePanel,
    blocks: Vec<f64>,
    packed: RealPanel,
    z: Vec<f64>,
}

thread_local! {
    static BLOCK_SCRATCH: RefCell<BlockScratch> = RefCell::default();
    static DENSITY_SCRATCH: RefCell<DensityScratch> = RefCell::default();
}

impl DensityEngine {
    /// Packs every sample's noisy prepared state into the columns of a
    /// real `4^n × S` panel — column `j` is `vec(ρ_in)` of sample `j` after
    /// the per-gate-noisy Möttönen preparation (one preparation serves as
    /// `ρ_B` and as register A's input alike, since Fig. 2 preps both
    /// identically) — by evolving the batch **in lockstep** through the
    /// shared [`PrepSkeleton`]:
    ///
    /// 1. each sample contributes only its angle vector
    ///    ([`PrepSkeleton::angles_for_into`]); every gate *position* is
    ///    shared, so one skeleton walk serves a whole column block;
    /// 2. a block starts as a real `4^n × width` panel ([`RealPanel`]) of
    ///    `vec(|0…0⟩⟨0…0|)` columns;
    ///    each skeleton rotation applies the per-column RY conjugation
    ///    ([`qsim::density::ry_conjugate_columns`] — the only
    ///    sample-dependent operation) and every shared operation — the
    ///    fused 1q noise channel after each rotation, the CX basis
    ///    permutation, the CX depolarizing + relaxation channels — hits
    ///    the **whole block at once** through the batched channel kernels
    ///    ([`GateNoise::apply_after_gate_columns`],
    ///    [`qsim::density::permute_cx_columns`]), whose sub-block lane
    ///    runs are contiguous across samples;
    /// 3. fixed-width column blocks evolve independently and are
    ///    distributed across workers — block boundaries never move with
    ///    the worker count, and every kernel is a per-column lane
    ///    operation, so results are bit-identical for every thread count
    ///    and every batch a sample shares.
    ///
    /// The per-element arithmetic of every lockstep kernel replicates the
    /// real plane of the per-sample walk term for term, so the packed
    /// result equals the real parts of
    /// [`SampleDensityEngine::prepare_batch`]'s complex panel (whose
    /// imaginary parts are all zero) to machine precision — with none of
    /// the per-sample circuit construction, lowering, or strided
    /// small-kernel dispatch, and with half the bytes per lane.
    ///
    /// Public as the batch half of the prep/score seam: the bench times
    /// the two stages separately through it. It runs the same
    /// preparation as [`DensityEngine::prepare_triangles`], keeping every
    /// entry of each column instead of its upper triangle.
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
        with_panel(normalized, |panel| {
            DENSITY_SCRATCH.with(|cell| {
                let blocks = &mut cell.borrow_mut().blocks;
                Self::prepare_full_into(group, panel, config, blocks, &mut packed)
            })
        })?;
        Ok(packed)
    }

    /// Prepares every (group, row) column of `panel` as one lockstep panel
    /// and keeps each column's upper triangle: column `g·S + j` of `out`
    /// is row `j` of the `S`-row `panel` projected through `groups[g]`'s
    /// feature selection, so each group's columns form one contiguous
    /// slice for [`DensityEngine::score_triangles`]. The Möttönen skeleton
    /// depends only on the register width and the fused channels only on
    /// the noise model, so only the RY angles differ between columns: the
    /// whole panel walks one skeleton in fixed 32-column blocks, fanned
    /// out over `config`'s threads. Every column's bits
    /// equal those of its row prepared alone under its group
    /// ([`DensityEngine::prepare_batch`]), whatever panel, block or
    /// worker it shares. This is how a server prepares a whole request
    /// once instead of one tiny panel per group; `out` keeps its
    /// allocation from call to call.
    ///
    /// # Errors
    ///
    /// Rejects non-noisy execution modes and groups of different register
    /// widths; propagates embedding and simulation failures (the
    /// lowest-indexed failing block's error).
    pub fn prepare_triangles(
        groups: &[EnsembleGroup],
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        out: &mut TrianglePanel,
    ) -> Result<(), QuorumError> {
        Self::prepare_triangles_with(groups, panel, config, config.effective_threads(), out)
    }

    /// [`DensityEngine::prepare_triangles`] on `threads` participants.
    fn prepare_triangles_with(
        groups: &[EnsembleGroup],
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        threads: usize,
        out: &mut TrianglePanel,
    ) -> Result<(), QuorumError> {
        out.coordinates = Self::prepare_columns(
            groups,
            panel,
            config,
            threads,
            Keep::Triangle,
            &mut out.data,
        )?;
        Ok(())
    }

    /// One group's full columns as a row-major panel, stitched from the
    /// prepared blocks in `blocks`: the preparation behind
    /// [`DensityEngine::prepare_batch`] and the structured engine.
    fn prepare_full_into(
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        blocks: &mut Vec<f64>,
        packed: &mut RealPanel,
    ) -> Result<(), QuorumError> {
        let dim2 = 1usize << (2 * group.ansatz().num_qubits());
        let threads = gemm_threads(config, dim2, panel.num_samples());
        Self::prepare_columns(
            std::slice::from_ref(group),
            panel,
            config,
            threads,
            Keep::Full,
            blocks,
        )?;
        packed.fill_from_blocks(dim2, blocks);
        Ok(())
    }

    /// The lockstep preparation, written once. Column `c = g·S + j` is row
    /// `j` of `panel` under `groups[g]`. Fixed [`PREP_BLOCK`]-column
    /// blocks evolve independently over `threads` participants, each
    /// writing its own range of `out` ([`try_for_each_chunk_mut`]); `keep`
    /// decides what of each block lands there. Every entry of `out` is
    /// overwritten, so it is resized but never cleared. Returns the
    /// entries kept per column.
    fn prepare_columns(
        groups: &[EnsembleGroup],
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        threads: usize,
        keep: Keep,
        out: &mut Vec<f64>,
    ) -> Result<usize, QuorumError> {
        ensure_noisy_mode(config)?;
        let noise = match &config.execution {
            ExecutionMode::Noisy { noise, .. } => noise,
            _ => unreachable!("ensure_noisy_mode admits only Noisy execution"),
        };
        let num_qubits = groups
            .first()
            .map_or(config.data_qubits, |g| g.ansatz().num_qubits());
        if groups.iter().any(|g| g.ansatz().num_qubits() != num_qubits) {
            return Err(QuorumError::InvalidConfig(
                "groups prepared in one panel must share a register width".into(),
            ));
        }
        let run = keep.run(1 << num_qubits);
        out.resize(groups.len() * panel.num_samples() * run, 0.0);
        if out.is_empty() {
            return Ok(run);
        }
        let skeleton = cached_prep_skeleton(num_qubits);
        let gate_noise = cached_gate_noise(noise);
        try_for_each_chunk_mut(out, PREP_BLOCK * run, threads, |b, chunk| {
            BLOCK_SCRATCH.with(|cell| {
                Self::prepare_block(
                    groups,
                    panel,
                    &skeleton,
                    &gate_noise,
                    keep,
                    b * PREP_BLOCK,
                    chunk,
                    &mut cell.borrow_mut(),
                )
            })
        })?;
        Ok(run)
    }

    /// Prepares the block of columns starting at `c0` (as many as
    /// `chunk` has room for) and writes what `keep` keeps of it into
    /// `chunk`: a full block is evolved in place there.
    #[allow(clippy::too_many_arguments)] // private worker body of prepare_columns
    fn prepare_block(
        groups: &[EnsembleGroup],
        panel: &SamplePanel<'_>,
        skeleton: &PrepSkeleton,
        gate_noise: &GateNoise,
        keep: Keep,
        c0: usize,
        chunk: &mut [f64],
        scratch: &mut BlockScratch,
    ) -> Result<(), QuorumError> {
        let num_qubits = skeleton.num_qubits();
        let dim = 1usize << num_qubits;
        let run = keep.run(dim);
        let width = chunk.len() / run;
        let samples = panel.num_samples();
        let BlockScratch {
            thetas,
            values,
            amps,
            angles,
            coeffs,
            block,
        } = scratch;
        // Angle-major: slot `a` of every column sits contiguously at
        // `thetas[a·width..(a+1)·width]`, one lane run per rotation.
        thetas.clear();
        thetas.resize(skeleton.num_angles() * width, 0.0);
        amps.resize(dim, 0.0);
        for j in 0..width {
            let c = c0 + j;
            groups[c / samples]
                .features()
                .project_into(panel.row(c % samples), values);
            crate::embed::amplitudes_with_overflow_into(values, num_qubits, amps)?;
            skeleton
                .angles_for_into(amps, angles)
                .map_err(QuorumError::Simulation)?;
            for (a, &theta) in angles.iter().enumerate() {
                thetas[a * width + j] = theta;
            }
        }
        match keep {
            Keep::Full => Self::evolve_block(skeleton, gate_noise, thetas, width, coeffs, chunk),
            Keep::Triangle => {
                block.resize(dim * dim * width, 0.0);
                Self::evolve_block(skeleton, gate_noise, thetas, width, coeffs, block)?;
                gather_triangles(dim, |i| &block[i * width..(i + 1) * width], chunk);
                Ok(())
            }
        }
    }

    /// Evolves one block of `width` columns, whose angle lanes `thetas`
    /// holds angle-major, through the whole skeleton into the row-major
    /// `4^n × width` panel `data`: per-column RY conjugations interleaved
    /// with the shared panel channel kernels.
    fn evolve_block(
        skeleton: &PrepSkeleton,
        gate_noise: &GateNoise,
        thetas: &[f64],
        width: usize,
        coeffs: &mut RyCoeffs,
        data: &mut [f64],
    ) -> Result<(), QuorumError> {
        let dim = 1usize << skeleton.num_qubits();
        // vec(|0…0⟩⟨0…0|): row-major index (0, 0) = row 0.
        data.fill(0.0);
        data[..width].fill(1.0);
        coeffs.cc.resize(width, 0.0);
        coeffs.cs.resize(width, 0.0);
        coeffs.ss.resize(width, 0.0);
        for step in skeleton.steps() {
            match *step {
                PrepStep::Ry {
                    target,
                    angle_index,
                } => {
                    let lane = &thetas[angle_index * width..(angle_index + 1) * width];
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
    /// level — the score half of the prep/score seam. Every column is
    /// `vec(ρ_in)` of a real symmetric state, so only its upper triangle
    /// is read: the triangles are gathered once and scored as
    /// [`DensityEngine::score_triangles`] scores them.
    ///
    /// # Errors
    ///
    /// Rejects panels whose row count is not `4^n`, non-noisy execution
    /// and bad reset counts; propagates simulation failures.
    pub fn score_prepared(
        group: &EnsembleGroup,
        packed: &RealPanel,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        let dim = 1usize << group.ansatz().num_qubits();
        if packed.rows() != dim * dim {
            return Err(QuorumError::Simulation(QsimError::DimensionMismatch {
                expected: dim * dim,
                actual: packed.rows(),
            }));
        }
        DENSITY_SCRATCH.with(|cell| {
            let DensityScratch { triangles, z, .. } = &mut *cell.borrow_mut();
            triangles.coordinates = Keep::Triangle.run(dim);
            triangles
                .data
                .resize(packed.cols() * triangles.coordinates, 0.0);
            gather_triangles(dim, |i| packed.row(i), &mut triangles.data);
            Self::score_triangles_with(group, triangles, 0..packed.cols(), config, levels, z)
        })
    }

    /// Scores the prepared columns `columns` of `triangles` (from
    /// [`DensityEngine::prepare_triangles`]) under `group` at every
    /// requested compression level. Per column, the products `h_k·h_l`
    /// are formed once and each level is one dot product against the
    /// group's cached [`ReadoutForm`]. Each column is scored on its own,
    /// in a fixed order, so its bits depend neither on the other columns
    /// nor on the thread count; sample `j` of the result is column
    /// `columns.start + j`, and `j` is the sample index shot sampling
    /// seeds its draw with.
    ///
    /// # Errors
    ///
    /// Rejects non-noisy execution, bad reset counts, triangles of
    /// another register width and column ranges outside `triangles`;
    /// propagates simulation failures.
    pub fn score_triangles(
        group: &EnsembleGroup,
        triangles: &TrianglePanel,
        columns: Range<usize>,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        DENSITY_SCRATCH.with(|cell| {
            let z = &mut cell.borrow_mut().z;
            Self::score_triangles_with(group, triangles, columns, config, levels, z)
        })
    }

    /// The body of [`DensityEngine::score_triangles`] with the products
    /// in the caller's reusable buffer `z`.
    fn score_triangles_with(
        group: &EnsembleGroup,
        triangles: &TrianglePanel,
        columns: Range<usize>,
        config: &QuorumConfig,
        levels: &[usize],
        z: &mut Vec<f64>,
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        let pass = NoisyPass::prepare(group, config, levels)?;
        let forms = levels
            .iter()
            .map(|&reset_count| group.readout_form(pass.noise, reset_count))
            .collect::<Result<Vec<_>, _>>()?;
        let m = Keep::Triangle.run(1 << group.ansatz().num_qubits());
        if triangles.coordinates != m {
            return Err(QuorumError::Simulation(QsimError::DimensionMismatch {
                expected: m,
                actual: triangles.coordinates,
            }));
        }
        if columns.start > columns.end || columns.end > triangles.cols() {
            return Err(QuorumError::InvalidData(format!(
                "columns {columns:?} lie outside the {} prepared columns",
                triangles.cols()
            )));
        }
        let h = &triangles.data[columns.start * m..columns.end * m];
        z.clear();
        z.resize(m * (m + 1) / 2, 0.0);
        let mut out: Vec<Vec<f64>> = levels
            .iter()
            .map(|_| Vec::with_capacity(columns.len()))
            .collect();
        for (j, h) in h.chunks_exact(m).enumerate() {
            qsim::kernel::outer_triangle_lanes(h, z);
            for ((deviations, form), &level) in out.iter_mut().zip(&forms).zip(levels) {
                let raw = qsim::kernel::dot_lanes(&form.packed, z);
                deviations.push(pass.finish(raw, config, group.index(), level, j));
            }
        }
        Ok(out)
    }
}

impl ScoringEngine for DensityEngine {
    fn name(&self) -> &'static str {
        "density"
    }

    /// The one-group case of [`DensityEngine::prepare_triangles`] and
    /// [`DensityEngine::score_triangles`], on the thread-local scratch.
    fn deviations_all_levels_panel(
        &self,
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
        levels: &[usize],
    ) -> Result<Vec<Vec<f64>>, QuorumError> {
        DENSITY_SCRATCH.with(|cell| {
            let DensityScratch { triangles, z, .. } = &mut *cell.borrow_mut();
            let samples = panel.num_samples();
            let dim2 = 1usize << (2 * group.ansatz().num_qubits());
            let threads = gemm_threads(config, dim2, samples);
            Self::prepare_triangles_with(
                std::slice::from_ref(group),
                panel,
                config,
                threads,
                triangles,
            )?;
            Self::score_triangles_with(group, triangles, 0..samples, config, levels, z)
        })
    }
}

/// Reusable per-worker scratch for one structured column block: the
/// gathered panel, the readout image `Y = W·P`, the per-level evolved
/// panel and the MPO sweep's bond panels.
#[derive(Default)]
struct StructuredScratch {
    panel: Vec<C64>,
    y: Vec<C64>,
    evolved: Vec<C64>,
    bonds: MpoBonds,
}

/// The structured analytic density noise engine: the same lockstep
/// `4^n × S` batch preparation as [`DensityEngine`], but nothing dense
/// after it — each level's bottlenecked segment runs as a cached
/// per-gate [`ChannelProgram`] over the panel
/// ([`EnsembleGroup::channel_program`]), and the SWAP-test readout is
/// folded into a bond-4 matrix-product sweep ([`SwapTestMpo`]). No
/// `16^n` object is ever built or applied: the per-(group, level) build
/// is an `O(ops)` lowering, where the dense engine walks the program over
/// `m = 2^n(2^n+1)/2` columns and contracts an `m × m` readout form, and
/// the apply costs `O(ops · 4^n · S)`. The warm dense readout forms still
/// score faster at `n = 5`, but the dense build dominates any pass that
/// is not amortised over many panels from there on
/// ([`STRUCTURED_AUTO_MIN_QUBITS`]), and the structured engine is the
/// only density path past the dense width cap. The dense engine stays
/// the small-n reference the structured path is compared against
/// (≤ 1e-9, `tests/` `engine_structured_properties`); both read the same
/// MPO, so the checks of the MPO itself are the per-sample and circuit
/// oracles ([`SampleDensityEngine`], [`CircuitEngine`]).
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
            mpo.apply_panel(&s.panel, width, &mut s.bonds, &mut s.y);
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
            let DensityScratch { blocks, packed, .. } = &mut *cell.borrow_mut();
            DensityEngine::prepare_full_into(group, panel, config, blocks, packed)?;
            Self::score_prepared(group, packed, config, levels)
        })
    }
}

/// The per-sample density oracle: the unreduced one-`4^n`-matvec-per-
/// (sample, level) path — `S_r·vec(ρ_in)` contracted against the
/// readout image `W·vec(ρ_in)`, with no realness assumption — and the
/// per-sample gate-walk state preparation, kept (and benchmarked) as the
/// reference the batched [`DensityEngine`]'s readout forms are pinned
/// against, the mixed-state analogue of [`AnalyticEngine`] vs
/// [`BatchedAnalyticEngine`]. Its factors are the dense ones: the
/// group's fused superoperators ([`EnsembleGroup::fused_noisy_superop`])
/// and the functional from the `2n + 1`-qubit Heisenberg walk, so it is
/// the only density engine whose readout does not depend on the
/// [`SwapTestMpo`]. [`resolve`] never picks it: tests reach it directly
/// or at detector level through
/// [`crate::detector::QuorumDetector::score_with`].
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

    fn deviations_all_levels_panel(
        &self,
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
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
            .map(|_| Vec::with_capacity(panel.num_samples()))
            .collect();
        let mut values = Vec::with_capacity(group.features().len());
        let mut amps = vec![0.0_f64; 1usize << n];
        for (i, row) in panel.rows().enumerate() {
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

    /// A full group pass over `ds` through `engine`.
    fn run_with(
        group: &EnsembleGroup,
        engine: &dyn ScoringEngine,
        ds: &Dataset,
        config: &QuorumConfig,
    ) -> Vec<f64> {
        with_panel(ds, |panel| group.run_with(engine, panel, config)).unwrap()
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

    /// `samples` rows of `features` values each, in the embedded range
    /// `[0, 1/features]` and spread so that no two rows coincide, flat.
    fn spread_rows(features: usize, samples: usize, salt: u64) -> Vec<f64> {
        let m = features as f64;
        (0..samples * features)
            .map(|t| ((t as f64 + salt as f64 * 0.13) * 0.7182).sin().abs() / m)
            .collect()
    }

    fn pure_group(config: &QuorumConfig, features: usize) -> EnsembleGroup {
        let plan = BucketPlan::from_target(64, 0.1, config.bucket_probability);
        EnsembleGroup::generate(0, config, features, &plan)
    }

    fn deviation_bits(levels: &[Vec<f64>]) -> Vec<Vec<u64>> {
        levels
            .iter()
            .map(|d| d.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// `Φ = E·Ψ` with every step one fused multiply–add in index order:
    /// the rounding of the lane kernel's FMA rung, written out on the
    /// complex block.
    fn fused_product(encoder: &CMatrix, psi: &CMatrix) -> CMatrix {
        let mut phi = CMatrix::zeros(encoder.rows(), psi.cols());
        for i in 0..encoder.rows() {
            for j in 0..psi.cols() {
                let (mut re, mut im) = (0.0_f64, 0.0_f64);
                for (k, e) in encoder.row(i).iter().enumerate() {
                    let b = psi[(k, j)];
                    re = e.re.mul_add(b.re, re);
                    re = e.im.mul_add(-b.im, re);
                    im = e.re.mul_add(b.im, im);
                    im = e.im.mul_add(b.re, im);
                }
                phi[(i, j)] = C64::new(re, im);
            }
        }
        phi
    }

    /// The staged pipeline the batched pass fuses into one lane kernel:
    /// every sample packed into a complex `Ψ`, `Φ = E·Ψ` through
    /// `product`, then the per-sample engine's interleaved branch loop
    /// over each column of `Φ`.
    fn staged_deviations(
        product: fn(&CMatrix, &CMatrix) -> CMatrix,
        group: &EnsembleGroup,
        panel: &SamplePanel<'_>,
        levels: &[usize],
    ) -> Vec<Vec<f64>> {
        let n = group.ansatz().num_qubits();
        let dim = 1usize << n;
        let mut psi = CMatrix::zeros(dim, panel.num_samples());
        for (col, row) in panel.rows().enumerate() {
            let values = group.features().project(row);
            let amps = crate::embed::amplitudes_with_overflow(&values, n).unwrap();
            let norm: f64 = amps.iter().map(|a| a * a).sum::<f64>().sqrt();
            for (i, &a) in amps.iter().enumerate() {
                psi[(i, col)] = C64::from_real(a / norm);
            }
        }
        let phi = product(group.fused_encoder().unwrap(), &psi);
        levels
            .iter()
            .map(|&reset_count| {
                let low_dim = 1usize << (n - reset_count);
                (0..panel.num_samples())
                    .map(|s| {
                        let col: Vec<C64> = (0..dim).map(|i| phi[(i, s)]).collect();
                        let mut trace = 0.0;
                        for block in col.chunks(low_dim) {
                            let weight: f64 = block.iter().map(|a| a.norm_sqr()).sum();
                            if weight <= BRANCH_PRUNE {
                                continue;
                            }
                            let overlap: C64 = col[..low_dim]
                                .iter()
                                .zip(block)
                                .map(|(a, b)| a.conj() * *b)
                                .sum();
                            trace += overlap.norm_sqr();
                        }
                        ((1.0 - trace) / 2.0).clamp(0.0, 0.5)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batched_pass_is_bit_identical_to_its_oracles() {
        // The dispatched lane kernel fuses its product steps where
        // `simd_active` holds; the portable body never does.
        let plain: fn(&CMatrix, &CMatrix) -> CMatrix = |e, psi| e.matmul(psi).unwrap();
        let dispatched = if qsim::kernel::simd_active() {
            fused_product
        } else {
            plain
        };
        for n in 2..=6 {
            let config = QuorumConfig::default()
                .with_data_qubits(n)
                .with_seed(40 + n as u64);
            let features = config.features_per_circuit();
            let group = pure_group(&config, features);
            let levels: Vec<usize> = (1..n).collect();
            for width in [1, 7, 8, 9, 33] {
                let flat = spread_rows(features, width, n as u64);
                let panel = SamplePanel::new(&flat, features);
                let label = format!("n = {n}, {width} samples");
                // The dispatched kernel against the staged pipeline that
                // rounds as its rung does.
                let batched = BatchedAnalyticEngine
                    .deviations_all_levels_panel(&group, &panel, &config, &levels)
                    .unwrap();
                let staged = staged_deviations(dispatched, &group, &panel, &levels);
                assert_eq!(deviation_bits(&batched), deviation_bits(&staged), "{label}");
                // The portable body, which hosts without AVX2 + FMA run,
                // against the plain product and the per-sample matvec
                // engine on every host.
                let portable = BatchedAnalyticEngine::pass(
                    &group,
                    &panel,
                    &config,
                    &levels,
                    qsim::kernel::encode_readout_lanes_portable,
                )
                .unwrap();
                let staged = staged_deviations(plain, &group, &panel, &levels);
                assert_eq!(
                    deviation_bits(&portable),
                    deviation_bits(&staged),
                    "{label}"
                );
                let analytic = AnalyticEngine
                    .deviations_all_levels_panel(&group, &panel, &config, &levels)
                    .unwrap();
                assert_eq!(
                    deviation_bits(&portable),
                    deviation_bits(&analytic),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn a_bad_row_in_a_late_lane_fails_with_the_embedding_error() {
        let config = QuorumConfig::default().with_seed(3);
        let features = config.features_per_circuit();
        let mut flat = spread_rows(features, 16, 1);
        // Row 14 (lane 6 of the second block) comes first; row 15 is bad too.
        flat[14 * features..15 * features].fill(-0.25);
        flat[15 * features..].fill(f64::NAN);
        let panel = SamplePanel::new(&flat, features);
        let group = pure_group(&config, features);
        let levels = config.effective_compression_levels();
        let err = BatchedAnalyticEngine
            .deviations_all_levels_panel(&group, &panel, &config, &levels)
            .unwrap_err();
        match &err {
            QuorumError::InvalidData(msg) => assert_eq!(
                msg,
                "feature value at position 0 is -0.25; normalised features must be finite and \
                 non-negative"
            ),
            other => panic!("expected InvalidData, got {other:?}"),
        }
        let oracle = AnalyticEngine
            .deviations_all_levels_panel(&group, &panel, &config, &levels)
            .unwrap_err();
        assert_eq!(err.to_string(), oracle.to_string());
    }

    #[test]
    fn fanned_out_single_group_pass_is_thread_count_invariant() {
        // n = 6 at 600 samples is past the threading threshold, so a
        // single-group pass spreads its 75 lane blocks over participants.
        let base = QuorumConfig::default()
            .with_data_qubits(6)
            .with_ensemble_groups(1)
            .with_seed(8);
        let features = base.features_per_circuit();
        let flat = spread_rows(features, 600, 2);
        let panel = SamplePanel::new(&flat, features);
        let group = pure_group(&base, features);
        let levels = base.effective_compression_levels();
        let runs: Vec<Vec<Vec<u64>>> = [1, 4]
            .into_iter()
            .map(|threads| {
                let config = base.clone().with_threads(threads);
                assert_eq!(gemm_threads(&config, 64, 600), threads);
                let deviations = BatchedAnalyticEngine
                    .deviations_all_levels_panel(&group, &panel, &config, &levels)
                    .unwrap();
                deviation_bits(&deviations)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    /// `sampled_deviation` as it was first written: a two-outcome
    /// `OutcomeDistribution` drawn through the shared cumulative sampler
    /// and read back as the marginal of bit 0.
    fn sampled_through_the_distribution(exact: f64, shots: u64, seed: u64) -> f64 {
        use rand::SeedableRng;
        let probs = std::collections::HashMap::from([(0u64, 1.0 - exact), (1u64, exact)]);
        let dist = qsim::simulator::OutcomeDistribution::from_probs(1, probs);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        dist.sample(shots, &mut rng).marginal_one(0)
    }

    #[test]
    fn sampled_deviation_matches_the_distribution_sampler_bit_for_bit() {
        let mut cases = Vec::new();
        // Edge probabilities at every shot count, 100 seeds each.
        for p in [
            0.0,
            0.5,
            1.0,
            0.25,
            f64::EPSILON,
            1.0 - f64::EPSILON,
            1e-300,
        ] {
            for shots in [1, 2, 7, 31, 1024, 4096] {
                cases.extend((0..100).map(|s| (p, shots, s)));
            }
        }
        // Spread probabilities, mostly at small shot counts.
        for i in 0..56_000u64 {
            let p = (i as f64 * 0.618_033_988_749_895).fract();
            let shots = match i % 100 {
                0 => 4096,
                1..=4 => 1024,
                k => [1, 7, 2, 31][k as usize % 4],
            };
            cases.push((p, shots, i));
        }
        assert!(cases.len() >= 60_000);
        for (p, shots, s) in cases {
            let seed = derive_seed(0x5A3F, s);
            assert_eq!(
                sampled_deviation(p, shots, seed).to_bits(),
                sampled_through_the_distribution(p, shots, seed).to_bits(),
                "p = {p}, {shots} shots, seed {seed}"
            );
        }
    }

    #[test]
    fn zero_width_datasets_are_invalid_data() {
        // A panel cannot represent zero-width rows: the Dataset entry
        // points answer with a typed error instead of reaching its assert.
        let ds = tiny_dataset();
        let config = QuorumConfig::default();
        let group = group_for(&config, &ds, 0);
        let no_features = Dataset::from_rows("no-features", vec![Vec::new(); 5], None).unwrap();
        assert!(matches!(
            BatchedAnalyticEngine.deviations(&group, &no_features, &config, 1),
            Err(QuorumError::InvalidData(_))
        ));
        assert!(matches!(
            crate::analysis::convergence_trace(&config, &no_features, &[1]),
            Err(QuorumError::InvalidData(_))
        ));
    }

    #[test]
    fn resolve_follows_configuration() {
        let exact = QuorumConfig::default();
        assert_eq!(resolve(&exact).name(), "batched");
        let sampled = exact
            .clone()
            .with_execution(ExecutionMode::Sampled { shots: 64 });
        assert_eq!(resolve(&sampled).name(), "batched");
        let noisy = |n| {
            QuorumConfig::default()
                .with_data_qubits(n)
                .with_execution(ExecutionMode::Noisy {
                    noise: qsim::NoiseModel::brisbane(),
                    shots: None,
                })
        };
        for (n, name) in [
            (3, "density"),
            (4, "density"),
            (5, "density-structured"),
            (10, "density-structured"),
        ] {
            assert_eq!(resolve(&noisy(n)).name(), name, "n = {n}");
        }
        // `prewarm` builds exactly what the resolved engine reads.
        let ds = tiny_dataset();
        for (config, forms, programs) in [(exact, 0, 0), (noisy(3), 1, 0), (noisy(5), 0, 1)] {
            let group = group_for(&config, &ds, 0);
            prewarm(&group, &config, 1).unwrap();
            assert_eq!(
                group.readout_form_builds(),
                forms,
                "{}",
                resolve(&config).name()
            );
            assert_eq!(group.channel_program_fusions(), programs);
        }
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
        run_with(&group, &DensityEngine, &ds, &config);
        assert_eq!(
            group.readout_form_builds(),
            levels.len(),
            "each compression level builds exactly once"
        );
        run_with(&group, &DensityEngine, &ds, &config);
        assert_eq!(group.readout_form_builds(), levels.len());
        assert_eq!(group.noisy_superop_fusions(), 0);
        // The builds walk programs they lower and drop, not cached ones.
        assert_eq!(group.channel_program_fusions(), 0);
        // A different noise model is a different channel: it builds anew.
        let scaled = noisy_config(qsim::NoiseModel::brisbane().scaled(0.5), None).with_seed(29);
        run_with(&group, &DensityEngine, &ds, &scaled);
        assert_eq!(group.readout_form_builds(), 2 * levels.len());
        // Clones start cold, like the encoder cache.
        let fresh = group.clone();
        assert_eq!(fresh.readout_form_builds(), 0);
        run_with(&fresh, &DensityEngine, &ds, &config);
        assert_eq!(fresh.readout_form_builds(), levels.len());
        // The per-sample oracle fuses through its own cache.
        run_with(&fresh, &SampleDensityEngine, &ds, &config);
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
    fn multi_group_triangles_match_each_row_prepared_alone() {
        // 3 groups × 11 rows: 33 columns over two prep blocks, group 2's
        // columns 22..33 straddling the boundary at 32. Every column's
        // triangle must equal its row prepared alone under its group, and
        // every group's slice must score like a one-group pass, at every
        // thread count.
        let ds = tiny_dataset();
        let levels = [1usize, 2];
        let groups: Vec<EnsembleGroup> = (0..3)
            .map(|g| group_for(&noisy_config(qsim::NoiseModel::brisbane(), None), &ds, g))
            .collect();
        let samples = ds.num_samples();
        for threads in [1usize, 2, 3] {
            let config = noisy_config(qsim::NoiseModel::brisbane(), None).with_threads(threads);
            let mut triangles = TrianglePanel::default();
            with_panel(&ds, |panel| {
                DensityEngine::prepare_triangles(&groups, panel, &config, &mut triangles)
            })
            .unwrap();
            assert_eq!(triangles.cols(), groups.len() * samples);
            assert_eq!(triangles.coordinates, 36);
            for (g, group) in groups.iter().enumerate() {
                for (j, row) in ds.rows().iter().enumerate() {
                    let one = Dataset::from_rows("one", vec![row.clone()], None).unwrap();
                    let alone = DensityEngine::prepare_batch(group, &one, &config).unwrap();
                    let want: Vec<u64> = upper_triangle(8)
                        .map(|(a, b)| alone.row(a * 8 + b)[0].to_bits())
                        .collect();
                    let c = g * samples + j;
                    let got: Vec<u64> = triangles.data[c * 36..(c + 1) * 36]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(got, want, "threads {threads} group {g} row {j}");
                }
                let sliced = DensityEngine::score_triangles(
                    group,
                    &triangles,
                    g * samples..(g + 1) * samples,
                    &config,
                    &levels,
                )
                .unwrap();
                let one_group = DensityEngine
                    .deviations_all_levels(group, &ds, &config, &levels)
                    .unwrap();
                assert_eq!(sliced, one_group, "threads {threads} group {g}");
            }
            let outside =
                DensityEngine::score_triangles(&groups[0], &triangles, 30..34, &config, &levels);
            assert!(matches!(outside, Err(QuorumError::InvalidData(_))));
        }
    }

    #[test]
    fn noisy_scoring_survives_poisoned_swap_test_image_cache() {
        // Resident-server regression: one scorer thread panicking while it
        // holds the global SWAP-test image cache must not wedge every later
        // request. The cache recovers the guard and keeps serving the same
        // write-once-valid entries.
        let ds = tiny_dataset();
        let config = noisy_config(qsim::NoiseModel::brisbane(), None).with_seed(31);
        let group = group_for(&config, &ds, 0);
        let before = run_with(&group, &DensityEngine, &ds, &config);
        SWAP_TEST_IMAGE_CACHE.poison_for_test();
        // A cold clone rebuilds its readout forms, reading W·F back
        // through the poisoned cache.
        let after = run_with(&group.clone(), &DensityEngine, &ds, &config);
        assert_eq!(before, after, "recovered cache must score identically");
    }

    /// The readout form the dense factors give: `S_r` from the group's
    /// fused superoperator and `W` from the `2n + 1`-qubit Heisenberg
    /// walk, both folded over the upper triangle and contracted in full
    /// complex arithmetic, packed like [`ReadoutForm`].
    fn dense_reference_form(superop: &CMatrix, w: &CMatrix, dim: usize) -> Vec<f64> {
        let fold = |mat: &CMatrix, (a, b): (usize, usize)| -> Vec<C64> {
            (0..dim * dim)
                .map(|i| {
                    let v = mat[(i, a * dim + b)];
                    if a == b {
                        v
                    } else {
                        v + mat[(i, b * dim + a)]
                    }
                })
                .collect()
        };
        let coords: Vec<(usize, usize)> = upper_triangle(dim).collect();
        let sf: Vec<Vec<C64>> = coords.iter().map(|&c| fold(superop, c)).collect();
        let wf: Vec<Vec<C64>> = coords.iter().map(|&c| fold(w, c)).collect();
        let g = |k: usize, l: usize| -> f64 {
            let z: C64 = sf[k].iter().zip(&wf[l]).map(|(x, y)| *x * *y).sum();
            z.re
        };
        let m = coords.len();
        let mut packed = Vec::with_capacity(m * (m + 1) / 2);
        for k in 0..m {
            packed.push(g(k, k));
            packed.extend((k + 1..m).map(|l| g(k, l) + g(l, k)));
        }
        packed
    }

    #[test]
    fn readout_forms_match_the_dense_superoperator_and_functional() {
        // The forms come from the channel program and the MPO image; the
        // dense superoperator and the 2n + 1-qubit functional are built
        // independently of both, so this pins the MPO as well. Three
        // groups per model below n = 4; at n = 4, where the dense
        // factors take seconds in a debug build, one group per model,
        // three across the models.
        for n in 2..=4 {
            let dim = 1usize << n;
            let models = [
                qsim::NoiseModel::ideal(),
                qsim::NoiseModel::brisbane(),
                qsim::NoiseModel::brisbane().scaled(2.0),
            ];
            for (model, noise) in models.into_iter().enumerate() {
                let config = noisy_config(noise.clone(), None).with_data_qubits(n);
                let w = build_swap_test_functional(n, &noise).unwrap();
                let plan = BucketPlan::from_target(20, 0.1, config.bucket_probability);
                let groups = if n < 4 { 0..3 } else { model..model + 1 };
                for index in groups {
                    let group = EnsembleGroup::generate(
                        index,
                        &config,
                        config.features_per_circuit(),
                        &plan,
                    );
                    for level in 1..n {
                        let form = group.readout_form(&noise, level).unwrap();
                        let superop = group.fused_noisy_superop(&noise, level).unwrap();
                        let reference = dense_reference_form(&superop, &w, dim);
                        assert_eq!(form.packed.len(), reference.len());
                        for (i, (f, r)) in form.packed.iter().zip(&reference).enumerate() {
                            assert!(
                                (f - r).abs() <= 1e-12,
                                "n {n} {noise:?} group {index} level {level} entry {i}: {f} vs {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn swap_test_image_is_real() {
        // The readout forms keep only Re(W·F), so W·F must be real up to
        // rounding: run the fold through the MPO sweep itself and bound
        // the imaginary residue at every width the dense engine serves,
        // from no noise to heavy noise. The ideal model's is exactly 0.
        let brisbane = qsim::NoiseModel::brisbane();
        for n in 2..=4 {
            for factor in [0.0, 1.0, 2.0, 100.0, 300.0] {
                let noise = if factor == 0.0 {
                    qsim::NoiseModel::ideal()
                } else {
                    brisbane.scaled(factor)
                };
                let mpo = SwapTestMpo::build(n, &cached_gate_noise(&noise)).unwrap();
                let (mut max_re, mut max_im) = (0.0_f64, 0.0_f64);
                let mut out = Vec::new();
                fold_image(1 << n, |panel, width| {
                    out.clear();
                    out.resize(panel.len(), C64::ZERO);
                    mpo.apply_panel(panel, width, &mut MpoBonds::default(), &mut out);
                    for z in &out {
                        max_re = max_re.max(z.re.abs());
                        max_im = max_im.max(z.im.abs());
                    }
                    panel.copy_from_slice(&out);
                });
                assert!(max_re > 0.1, "n {n} ×{factor}: image vanished ({max_re})");
                assert!(max_im <= 1e-15, "n {n} ×{factor}: max |Im| {max_im:e}");
                if factor == 0.0 {
                    assert_eq!(max_im, 0.0, "n {n}: the ideal image is exactly real");
                }
            }
        }
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
        run_with(&group, &StructuredDensityEngine, &ds, &config);
        assert_eq!(group.channel_program_fusions(), levels.len());
        run_with(&group, &StructuredDensityEngine, &ds, &config);
        assert_eq!(group.channel_program_fusions(), levels.len());
        let scaled = noisy_config(qsim::NoiseModel::brisbane().scaled(0.5), None).with_seed(29);
        run_with(&group, &StructuredDensityEngine, &ds, &scaled);
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
        // Same summation order per sample ⇒ the batched lane-block path
        // is bit-identical to the per-sample matvec path in Exact mode.
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
        run_with(&group, &BatchedAnalyticEngine, &ds, &config);
        assert_eq!(
            group.encoder_fusions(),
            1,
            "all compression levels must share one fused encoder"
        );
        // Further passes over the same group stay cached too.
        run_with(&group, &BatchedAnalyticEngine, &ds, &config);
        assert_eq!(group.encoder_fusions(), 1);
        // A clone starts cold and fuses for itself exactly once.
        let fresh = group.clone();
        assert_eq!(fresh.encoder_fusions(), 0);
        run_with(&fresh, &BatchedAnalyticEngine, &ds, &config);
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
