//! Execution backends: exact outcome distributions and shot sampling.
//!
//! Two backends implement [`Backend`]:
//!
//! * [`StatevectorBackend`] — evolves a **weighted set of pure-state
//!   branches**. Non-unitary resets/measures split a branch in two, so the
//!   final classical distribution is *exact* (no sampling noise), at a cost
//!   bounded by `2^(#non-unitary ops)` statevectors. This is the fast path
//!   for Quorum's noiseless experiments.
//! * [`DensityMatrixBackend`] — evolves the full density matrix with
//!   optional Kraus noise after every physical gate (circuits are lowered
//!   with [`crate::transpile::decompose_multiqubit`] first so that noise is
//!   charged per hardware gate). This is the paper's "noisy simulation"
//!   path and the exactness cross-check for the branching backend.

use crate::circuit::{Circuit, Operation};
use crate::density::{DensityMatrix, PhaseCovariantChannel};
use crate::error::QsimError;
use crate::noise::NoiseModel;
use crate::statevector::Statevector;
use crate::transpile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Exact probability distribution over classical-bit patterns.
///
/// Patterns are `u64` values where bit `k` is classical bit `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeDistribution {
    num_clbits: usize,
    probs: HashMap<u64, f64>,
}

impl OutcomeDistribution {
    /// Creates a distribution from raw `(pattern, probability)` pairs.
    pub fn from_probs(num_clbits: usize, probs: HashMap<u64, f64>) -> Self {
        OutcomeDistribution { num_clbits, probs }
    }

    /// Number of classical bits in each pattern.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Probability of an exact pattern.
    pub fn probability(&self, pattern: u64) -> f64 {
        *self.probs.get(&pattern).unwrap_or(&0.0)
    }

    /// Marginal probability that classical bit `clbit` reads 1.
    pub fn marginal_one(&self, clbit: usize) -> f64 {
        let mask = 1u64 << clbit;
        self.probs
            .iter()
            .filter(|(p, _)| *p & mask != 0)
            .map(|(_, w)| w)
            .sum()
    }

    /// All `(pattern, probability)` entries, sorted by pattern.
    pub fn entries(&self) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = self.probs.iter().map(|(&k, &v)| (k, v)).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }

    /// Total probability mass (should be 1 within numerical error).
    pub fn total(&self) -> f64 {
        self.probs.values().sum()
    }

    /// Draws `shots` samples.
    pub fn sample<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Counts {
        let entries = self.entries();
        let weights: Vec<f64> = entries.iter().map(|&(_, p)| p).collect();
        let map = crate::sampling::sample_counts_by_index(&weights, shots, rng)
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .map(|(idx, c)| (entries[idx].0, c))
            .collect();
        Counts {
            num_clbits: self.num_clbits,
            shots,
            map,
        }
    }

    /// Applies an independent symmetric bit-flip with probability `e` to
    /// every classical bit (readout confusion).
    pub fn with_readout_error(&self, e: f64) -> OutcomeDistribution {
        if e == 0.0 {
            return self.clone();
        }
        let mut out: HashMap<u64, f64> = HashMap::new();
        let k = self.num_clbits;
        for (&pattern, &w) in &self.probs {
            // Enumerate all flip masks; k is small (1–2 for Quorum/QNN).
            for flip in 0..(1u64 << k) {
                let flips = flip.count_ones() as i32;
                let weight = w * e.powi(flips) * (1.0 - e).powi(k as i32 - flips);
                *out.entry(pattern ^ flip).or_insert(0.0) += weight;
            }
        }
        OutcomeDistribution {
            num_clbits: k,
            probs: out,
        }
    }
}

/// Measurement counts from a sampled run.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    num_clbits: usize,
    shots: u64,
    map: HashMap<u64, u64>,
}

impl Counts {
    /// Number of classical bits per outcome.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Total shots taken.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// How many shots produced `pattern`.
    pub fn count(&self, pattern: u64) -> u64 {
        *self.map.get(&pattern).unwrap_or(&0)
    }

    /// Empirical probability of `pattern`.
    pub fn probability(&self, pattern: u64) -> f64 {
        self.count(pattern) as f64 / self.shots as f64
    }

    /// Empirical marginal probability that `clbit` reads 1.
    pub fn marginal_one(&self, clbit: usize) -> f64 {
        let mask = 1u64 << clbit;
        let ones: u64 = self
            .map
            .iter()
            .filter(|(p, _)| *p & mask != 0)
            .map(|(_, c)| c)
            .sum();
        ones as f64 / self.shots as f64
    }

    /// All `(pattern, count)` entries, sorted by pattern.
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.map.iter().map(|(&k, &v)| (k, v)).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }
}

/// A circuit-execution engine.
///
/// Implementations must be `Send + Sync` so ensembles can fan out across
/// threads (see [`crate::parallel`]).
pub trait Backend: Send + Sync {
    /// A short human-readable backend name.
    fn name(&self) -> &'static str;

    /// Computes the exact outcome distribution over the circuit's classical
    /// bits.
    ///
    /// # Errors
    ///
    /// Propagates circuit-validation errors and backend capability limits.
    fn probabilities(&self, circuit: &Circuit) -> Result<OutcomeDistribution, QsimError>;

    /// Samples `shots` measurement outcomes (deterministic in `seed`).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Backend::probabilities`].
    fn run(&self, circuit: &Circuit, shots: u64, seed: u64) -> Result<Counts, QsimError> {
        let dist = self.probabilities(circuit)?;
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(dist.sample(shots, &mut rng))
    }
}

/// Exact pure-state backend with weighted branching on non-unitary ops.
#[derive(Debug, Clone)]
pub struct StatevectorBackend {
    /// Branches with weight below this threshold are pruned.
    prune_threshold: f64,
    /// Hard cap on simultaneous branches (guards against pathological
    /// circuits with very many resets).
    max_branches: usize,
}

impl StatevectorBackend {
    /// Creates a backend with default pruning (`1e-14`) and branch cap
    /// (`4096`).
    pub fn new() -> Self {
        StatevectorBackend {
            prune_threshold: 1e-14,
            max_branches: 4096,
        }
    }

    /// Overrides the branch cap.
    pub fn with_max_branches(mut self, max: usize) -> Self {
        self.max_branches = max;
        self
    }
}

impl Default for StatevectorBackend {
    fn default() -> Self {
        StatevectorBackend::new()
    }
}

struct Branch {
    weight: f64,
    sv: Statevector,
    clbits: u64,
}

impl Backend for StatevectorBackend {
    fn name(&self) -> &'static str {
        "statevector-branching"
    }

    fn probabilities(&self, circuit: &Circuit) -> Result<OutcomeDistribution, QsimError> {
        let mut branches = vec![Branch {
            weight: 1.0,
            sv: Statevector::new(circuit.num_qubits()),
            clbits: 0,
        }];
        for instr in circuit.instructions() {
            match &instr.op {
                Operation::Gate(g) => {
                    for b in &mut branches {
                        b.sv.apply_gate(*g, &instr.qubits)?;
                    }
                }
                Operation::Barrier => {}
                Operation::Reset => {
                    let q = instr.qubits[0];
                    branches = self.split(branches, q, |sv, outcome| {
                        if outcome {
                            // Reset maps the |1⟩ branch back to |0⟩.
                            sv.apply_gate(crate::gate::Gate::X, &[q]).expect("valid");
                        }
                    })?;
                }
                Operation::Measure { clbit } => {
                    let q = instr.qubits[0];
                    let bit = 1u64 << *clbit;
                    branches = self.split_with_clbits(branches, q, bit)?;
                }
            }
            if branches.len() > self.max_branches {
                return Err(QsimError::Unsupported(format!(
                    "circuit needs more than {} branches",
                    self.max_branches
                )));
            }
        }
        let mut probs: HashMap<u64, f64> = HashMap::new();
        for b in branches {
            *probs.entry(b.clbits).or_insert(0.0) += b.weight;
        }
        Ok(OutcomeDistribution {
            num_clbits: circuit.num_clbits(),
            probs,
        })
    }
}

impl StatevectorBackend {
    /// Splits every branch on qubit `q`, applying `post(sv, outcome)` to
    /// each collapsed branch (used for reset's conditional X).
    fn split<F: Fn(&mut Statevector, bool)>(
        &self,
        branches: Vec<Branch>,
        q: usize,
        post: F,
    ) -> Result<Vec<Branch>, QsimError> {
        let mut out = Vec::with_capacity(branches.len() * 2);
        for b in branches {
            let p1 = b.sv.probability_one(q)?;
            for outcome in [false, true] {
                let p = if outcome { p1 } else { 1.0 - p1 };
                let weight = b.weight * p;
                if weight <= self.prune_threshold {
                    continue;
                }
                let mut sv = b.sv.clone();
                sv.collapse(q, outcome)?;
                post(&mut sv, outcome);
                out.push(Branch {
                    weight,
                    sv,
                    clbits: b.clbits,
                });
            }
        }
        Ok(out)
    }

    /// Splits every branch on qubit `q`, recording the outcome in the
    /// classical bit mask `bit`.
    fn split_with_clbits(
        &self,
        branches: Vec<Branch>,
        q: usize,
        bit: u64,
    ) -> Result<Vec<Branch>, QsimError> {
        let mut out = Vec::with_capacity(branches.len() * 2);
        for b in branches {
            let p1 = b.sv.probability_one(q)?;
            for outcome in [false, true] {
                let p = if outcome { p1 } else { 1.0 - p1 };
                let weight = b.weight * p;
                if weight <= self.prune_threshold {
                    continue;
                }
                let mut sv = b.sv.clone();
                sv.collapse(q, outcome)?;
                let clbits = if outcome {
                    b.clbits | bit
                } else {
                    b.clbits & !bit
                };
                out.push(Branch { weight, sv, clbits });
            }
        }
        Ok(out)
    }
}

/// The per-physical-gate noise channels of a [`NoiseModel`], fused into
/// single superoperators at construction time.
///
/// Shared by [`DensityMatrixBackend`] and `quorum_core`'s analytic density
/// engine so both charge *exactly* the same error after every lowered gate:
/// one fused 4×4 block operation after each 1-qubit gate, and the
/// closed-form two-qubit depolarizing plus per-qubit relaxation after each
/// CX — instead of up to eight Kraus terms per gate.
///
/// The adjoint channels are precomputed too, so observables can be pulled
/// *backwards* through a noisy gate sequence (Heisenberg picture) with the
/// same kernels, and so are the two forward channels' phase-covariant
/// block forms ([`PhaseCovariantChannel`]), which the lockstep noisy
/// preparation's step kernels charge on real panels.
#[derive(Debug, Clone, Default)]
pub struct GateNoise {
    /// Fused channel after every 1-qubit gate.
    superop_1q: Option<[[crate::complex::C64; 4]; 4]>,
    /// Adjoint of `superop_1q`.
    superop_1q_adj: Option<[[crate::complex::C64; 4]; 4]>,
    /// Depolarizing parameter applied after every CX (closed form; the
    /// channel is self-adjoint).
    depol_2q: f64,
    /// Fused per-qubit relaxation accrued over a 2-qubit gate's duration.
    superop_2q_relax: Option<[[crate::complex::C64; 4]; 4]>,
    /// Adjoint of `superop_2q_relax`.
    superop_2q_relax_adj: Option<[[crate::complex::C64; 4]; 4]>,
    /// Block form of `superop_1q`, for real vec(ρ) panels.
    block_1q: Option<PhaseCovariantChannel>,
    /// Block form of `superop_2q_relax`, for real vec(ρ) panels.
    block_2q_relax: Option<PhaseCovariantChannel>,
    /// Symmetric readout bit-flip probability.
    readout_error: f64,
}

/// The block form of a fused forward channel.
///
/// # Panics
///
/// Panics unless the channel is real and phase-covariant. Every channel
/// a [`NoiseModel`] builds (depolarizing, amplitude and phase damping) is
/// both, and so is any composition of them.
fn block_form(s: &[[crate::complex::C64; 4]; 4]) -> PhaseCovariantChannel {
    PhaseCovariantChannel::from_superop(s).expect("fused noise channel is not real phase-covariant")
}

impl GateNoise {
    /// Fuses the model's per-gate channel stacks into superoperators, and
    /// keeps the block forms of the two forward channels for real panels.
    ///
    /// # Panics
    ///
    /// Panics if a fused forward channel is not real phase-covariant,
    /// which no [`NoiseModel`] produces.
    pub fn from_model(noise: &NoiseModel) -> Self {
        use crate::density::{
            compose_superops, superop_adjoint_1q, superop_from_kraus, superop_to_array_1q,
        };
        let fuse = |channels: &[Vec<crate::matrix::CMatrix>]| {
            channels
                .iter()
                .map(|ch| superop_from_kraus(ch))
                .reduce(|acc, next| compose_superops(&acc, &next))
        };
        let superop_1q = fuse(&noise.channels_for_1q_gate()).map(|s| superop_to_array_1q(&s));
        let (_, per_q) = noise.channels_for_2q_gate();
        let superop_2q_relax = fuse(&per_q).map(|s| superop_to_array_1q(&s));
        GateNoise {
            superop_1q,
            superop_1q_adj: superop_1q.as_ref().map(superop_adjoint_1q),
            depol_2q: noise.error_2q,
            superop_2q_relax,
            superop_2q_relax_adj: superop_2q_relax.as_ref().map(superop_adjoint_1q),
            block_1q: superop_1q.as_ref().map(block_form),
            block_2q_relax: superop_2q_relax.as_ref().map(block_form),
            readout_error: noise.readout_error,
        }
    }

    /// The model's symmetric readout bit-flip probability.
    pub fn readout_error(&self) -> f64 {
        self.readout_error
    }

    /// The fused channel charged after every 1-qubit gate, if any.
    pub fn superop_1q(&self) -> Option<&[[crate::complex::C64; 4]; 4]> {
        self.superop_1q.as_ref()
    }

    /// The closed-form depolarizing parameter charged after every CX.
    pub fn depol_2q(&self) -> f64 {
        self.depol_2q
    }

    /// The fused per-qubit relaxation charged on each operand of a
    /// 2-qubit gate, if any.
    pub fn superop_2q_relax(&self) -> Option<&[[crate::complex::C64; 4]; 4]> {
        self.superop_2q_relax.as_ref()
    }

    /// [`GateNoise::superop_1q`] in block form, for real panels
    /// ([`crate::density::ry_step_columns`]).
    pub fn block_1q(&self) -> Option<&PhaseCovariantChannel> {
        self.block_1q.as_ref()
    }

    /// [`GateNoise::superop_2q_relax`] in block form, for real panels
    /// ([`crate::density::cx_step_columns`]).
    pub fn block_2q_relax(&self) -> Option<&PhaseCovariantChannel> {
        self.block_2q_relax.as_ref()
    }

    /// Applies the post-gate channel stack for a gate of the given arity on
    /// `qubits` — the Schrödinger-picture direction used when evolving
    /// states forward.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::Unsupported`] for arity > 2 (the circuit must
    /// be lowered with [`crate::transpile::decompose_multiqubit`] first)
    /// and propagates operand-validation errors.
    pub fn apply_after_gate(
        &self,
        rho: &mut DensityMatrix,
        gate_arity: usize,
        qubits: &[usize],
    ) -> Result<(), QsimError> {
        match gate_arity {
            1 => {
                if let Some(s) = &self.superop_1q {
                    rho.apply_superop_1q(qubits[0], s)?;
                }
            }
            2 => {
                if self.depol_2q > 0.0 {
                    rho.apply_depolarizing_2q(qubits[0], qubits[1], self.depol_2q)?;
                }
                if let Some(s) = &self.superop_2q_relax {
                    rho.apply_superop_1q(qubits[0], s)?;
                    rho.apply_superop_1q(qubits[1], s)?;
                }
            }
            _ => {
                return Err(QsimError::Unsupported(
                    "3-qubit gate survived lowering".into(),
                ))
            }
        }
        Ok(())
    }

    /// Applies the *adjoint* of the post-gate channel stack — the
    /// Heisenberg-picture direction used when pulling an observable
    /// backwards through a noisy gate. Channels are applied in reverse
    /// order with each one daggered (the two-qubit depolarizing channel is
    /// self-adjoint).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GateNoise::apply_after_gate`].
    pub fn apply_adjoint_after_gate(
        &self,
        obs: &mut DensityMatrix,
        gate_arity: usize,
        qubits: &[usize],
    ) -> Result<(), QsimError> {
        match gate_arity {
            1 => {
                if let Some(s) = &self.superop_1q_adj {
                    obs.apply_superop_1q(qubits[0], s)?;
                }
            }
            2 => {
                if let Some(s) = &self.superop_2q_relax_adj {
                    obs.apply_superop_1q(qubits[1], s)?;
                    obs.apply_superop_1q(qubits[0], s)?;
                }
                if self.depol_2q > 0.0 {
                    obs.apply_depolarizing_2q(qubits[0], qubits[1], self.depol_2q)?;
                }
            }
            _ => {
                return Err(QsimError::Unsupported(
                    "3-qubit gate survived lowering".into(),
                ))
            }
        }
        Ok(())
    }
}

/// Exact mixed-state backend with optional per-gate Kraus noise.
///
/// The per-gate channel stacks (depolarizing + relaxation) are fused into
/// single superoperators at construction time via [`GateNoise`], so the
/// noisy hot loop applies one fused block operation per gate instead of up
/// to eight Kraus terms.
#[derive(Debug, Clone, Default)]
pub struct DensityMatrixBackend {
    noise: Option<NoiseModel>,
    gate_noise: GateNoise,
}

impl DensityMatrixBackend {
    /// Creates a noiseless density-matrix backend.
    pub fn new() -> Self {
        DensityMatrixBackend::default()
    }

    /// Creates a backend that applies the given noise model after every
    /// physical gate (circuits are lowered to 1q+CX form first).
    pub fn with_noise(noise: NoiseModel) -> Self {
        let gate_noise = GateNoise::from_model(&noise);
        DensityMatrixBackend {
            noise: Some(noise),
            gate_noise,
        }
    }

    /// The configured noise model, if any.
    pub fn noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }
}

impl Backend for DensityMatrixBackend {
    fn name(&self) -> &'static str {
        "density-matrix"
    }

    fn probabilities(&self, circuit: &Circuit) -> Result<OutcomeDistribution, QsimError> {
        // With noise we must charge error per physical gate, so lower
        // multi-qubit gates to CX + 1q first.
        let lowered;
        let circ = if self.noise.is_some() {
            lowered = transpile::decompose_multiqubit(circuit);
            &lowered
        } else {
            circuit
        };

        let n = circ.num_qubits();
        let mut rho = DensityMatrix::new(n)?;
        // clbit -> qubit mapping established by measures; measures must be
        // terminal per qubit (checked below).
        let mut measured: Vec<Option<usize>> = vec![None; circ.num_clbits()];
        let mut measured_qubits: Vec<usize> = Vec::new();

        for instr in circ.instructions() {
            // No further operations allowed on already-measured qubits.
            if !matches!(instr.op, Operation::Barrier) {
                for &q in &instr.qubits {
                    if measured_qubits.contains(&q) {
                        return Err(QsimError::Unsupported(
                            "operation after measurement on the same qubit".into(),
                        ));
                    }
                }
            }
            match &instr.op {
                Operation::Gate(g) => {
                    rho.apply_gate(*g, &instr.qubits)?;
                    if self.noise.is_some() {
                        self.gate_noise.apply_after_gate(
                            &mut rho,
                            g.num_qubits(),
                            &instr.qubits,
                        )?;
                    }
                }
                Operation::Barrier => {}
                Operation::Reset => {
                    rho.reset(instr.qubits[0])?;
                }
                Operation::Measure { clbit } => {
                    let q = instr.qubits[0];
                    rho.dephase(q)?;
                    measured[*clbit] = Some(q);
                    measured_qubits.push(q);
                }
            }
        }

        // Read the joint distribution of measured qubits off the diagonal.
        let diag = rho.diagonal_probabilities();
        let mut probs: HashMap<u64, f64> = HashMap::new();
        for (i, &p) in diag.iter().enumerate() {
            if p <= 0.0 {
                continue;
            }
            let mut pattern = 0u64;
            for (clbit, assignment) in measured.iter().enumerate() {
                if let Some(q) = assignment {
                    if i >> q & 1 == 1 {
                        pattern |= 1 << clbit;
                    }
                }
            }
            *probs.entry(pattern).or_insert(0.0) += p;
        }
        let dist = OutcomeDistribution {
            num_clbits: circ.num_clbits(),
            probs,
        };
        Ok(match &self.noise {
            Some(nm) if nm.readout_error > 0.0 => dist.with_readout_error(nm.readout_error),
            _ => dist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    const TOL: f64 = 1e-10;

    fn bell_measured() -> Circuit {
        let mut qc = Circuit::with_clbits(2, 2);
        qc.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        qc
    }

    #[test]
    fn statevector_backend_bell_distribution() {
        let backend = StatevectorBackend::new();
        let dist = backend.probabilities(&bell_measured()).unwrap();
        assert!((dist.probability(0b00) - 0.5).abs() < TOL);
        assert!((dist.probability(0b11) - 0.5).abs() < TOL);
        assert!(dist.probability(0b01) < TOL);
        assert!((dist.total() - 1.0).abs() < TOL);
    }

    #[test]
    fn density_backend_matches_statevector_on_bell() {
        let sv = StatevectorBackend::new();
        let dm = DensityMatrixBackend::new();
        let circuit = bell_measured();
        let a = sv.probabilities(&circuit).unwrap();
        let b = dm.probabilities(&circuit).unwrap();
        for pattern in 0..4u64 {
            assert!((a.probability(pattern) - b.probability(pattern)).abs() < TOL);
        }
    }

    #[test]
    fn backends_agree_on_reset_circuit() {
        // H, entangle, reset, rotate, measure: exercises exact branching.
        let mut qc = Circuit::with_clbits(3, 1);
        qc.h(0)
            .cx(0, 1)
            .ry(0.7, 2)
            .cx(1, 2)
            .reset(1)
            .rx(0.4, 1)
            .cx(2, 1)
            .measure(1, 0);
        let a = StatevectorBackend::new().probabilities(&qc).unwrap();
        let b = DensityMatrixBackend::new().probabilities(&qc).unwrap();
        assert!(
            (a.marginal_one(0) - b.marginal_one(0)).abs() < TOL,
            "sv {} vs dm {}",
            a.marginal_one(0),
            b.marginal_one(0)
        );
    }

    #[test]
    fn reset_branching_is_exact() {
        // |+> reset-to-zero then H then measure: P(1) must be exactly 1/2.
        let mut qc = Circuit::with_clbits(1, 1);
        qc.h(0).reset(0).h(0).measure(0, 0);
        let dist = StatevectorBackend::new().probabilities(&qc).unwrap();
        assert!((dist.marginal_one(0) - 0.5).abs() < TOL);
    }

    #[test]
    fn mid_circuit_measure_branches() {
        // Measure in the middle, then keep evolving: deferred-measurement
        // equivalence says P(final) = Σ_branches.
        let mut qc = Circuit::with_clbits(2, 2);
        qc.h(0).measure(0, 0).h(0).measure(0, 1);
        let dist = StatevectorBackend::new().probabilities(&qc).unwrap();
        // After first measure each branch is a basis state; H gives 50/50.
        for pattern in 0..4u64 {
            assert!((dist.probability(pattern) - 0.25).abs() < TOL);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let backend = StatevectorBackend::new();
        let c1 = backend.run(&bell_measured(), 1000, 7).unwrap();
        let c2 = backend.run(&bell_measured(), 1000, 7).unwrap();
        assert_eq!(c1, c2);
        let c3 = backend.run(&bell_measured(), 1000, 8).unwrap();
        assert_ne!(c1.entries(), c3.entries());
    }

    #[test]
    fn sampled_counts_converge_to_distribution() {
        let backend = StatevectorBackend::new();
        let counts = backend.run(&bell_measured(), 40_000, 3).unwrap();
        assert_eq!(counts.shots(), 40_000);
        assert!((counts.probability(0b00) - 0.5).abs() < 0.02);
        assert!((counts.marginal_one(0) - 0.5).abs() < 0.02);
        assert_eq!(counts.count(0b01) + counts.count(0b10), 0);
    }

    #[test]
    fn noisy_backend_blurs_deterministic_outcome() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.x(0).measure(0, 0);
        let ideal = DensityMatrixBackend::new().probabilities(&qc).unwrap();
        assert!((ideal.marginal_one(0) - 1.0).abs() < TOL);
        let noisy = DensityMatrixBackend::with_noise(NoiseModel::brisbane())
            .probabilities(&qc)
            .unwrap();
        let p = noisy.marginal_one(0);
        assert!(p < 1.0 - 1e-3, "noise should reduce P(1), got {p}");
        assert!(p > 0.95, "Brisbane noise is mild, got {p}");
    }

    #[test]
    fn gate_noise_adjoint_satisfies_heisenberg_duality() {
        // Tr[N(ρ) X] == Tr[ρ N†(X)] for the full per-gate channel stacks,
        // both the 1-qubit stack and the CX stack (depolarizing + per-qubit
        // relaxation). This is the law the analytic density engine's
        // backward-evolved SWAP-test functional rests on.
        use crate::gate::Gate;
        let gate_noise = GateNoise::from_model(&NoiseModel::brisbane());
        let mut rho = DensityMatrix::new(3).unwrap();
        rho.apply_gate(Gate::RY(0.9), &[0]).unwrap();
        rho.apply_gate(Gate::CX, &[0, 1]).unwrap();
        rho.apply_gate(Gate::RX(0.4), &[2]).unwrap();
        let mut obs = DensityMatrix::new(3).unwrap();
        obs.apply_gate(Gate::RY(2.2), &[1]).unwrap();
        obs.apply_gate(Gate::CX, &[1, 2]).unwrap();
        for (arity, qubits) in [(1usize, vec![1usize]), (2, vec![0, 2])] {
            let mut forward = rho.clone();
            gate_noise
                .apply_after_gate(&mut forward, arity, &qubits)
                .unwrap();
            let mut backward = obs.clone();
            gate_noise
                .apply_adjoint_after_gate(&mut backward, arity, &qubits)
                .unwrap();
            let lhs = forward.overlap(&obs).unwrap();
            let rhs = rho.overlap(&backward).unwrap();
            assert!((lhs - rhs).abs() < 1e-12, "arity {arity}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn gate_noise_rejects_unlowered_gates() {
        let gate_noise = GateNoise::from_model(&NoiseModel::brisbane());
        let mut rho = DensityMatrix::new(3).unwrap();
        assert!(matches!(
            gate_noise.apply_after_gate(&mut rho, 3, &[0, 1, 2]),
            Err(QsimError::Unsupported(_))
        ));
        assert!(matches!(
            gate_noise.apply_adjoint_after_gate(&mut rho, 3, &[0, 1, 2]),
            Err(QsimError::Unsupported(_))
        ));
    }

    #[test]
    fn gate_noise_block_forms_are_the_fused_channels_nonzero_blocks() {
        // The real panels of the lockstep preparation are charged through
        // these block forms, so for every preset and scaled model each
        // block entry must be the complex array's real part exactly, every
        // entry outside the two blocks an exact zero, and a block form
        // present exactly when the complex channel is.
        let brisbane = NoiseModel::brisbane();
        let relaxation_only = NoiseModel {
            error_1q: 0.0,
            error_2q: 0.0,
            ..brisbane.clone()
        };
        let models = [
            NoiseModel::ideal(),
            brisbane.clone(),
            brisbane.scaled(0.3),
            brisbane.scaled(2.0),
            brisbane.scaled(10.0),
            relaxation_only,
        ];
        let population = |i: usize| i == 0 || i == 3;
        for model in models {
            let g = GateNoise::from_model(&model);
            for (complex, block) in [
                (g.superop_1q(), g.block_1q()),
                (g.superop_2q_relax(), g.block_2q_relax()),
            ] {
                assert_eq!(complex.is_some(), block.is_some(), "{model:?}");
                let (Some(c), Some(b)) = (complex, block) else {
                    continue;
                };
                for (i, row) in c.iter().enumerate() {
                    for (j, z) in row.iter().enumerate() {
                        assert_eq!(z.im, 0.0, "{model:?} ({i}, {j})");
                        let kept = match (population(i), population(j)) {
                            (true, true) => b.populations[i / 3][j / 3],
                            (false, false) => b.coherences[i - 1][j - 1],
                            _ => {
                                assert_eq!(z.re, 0.0, "{model:?} ({i}, {j})");
                                continue;
                            }
                        };
                        assert_eq!(kept.to_bits(), z.re.to_bits(), "{model:?} ({i}, {j})");
                    }
                }
            }
        }
        let g = GateNoise::from_model(&brisbane);
        assert!(g.block_1q().is_some() && g.block_2q_relax().is_some());
        assert!(GateNoise::from_model(&NoiseModel::ideal())
            .block_1q()
            .is_none());
    }

    #[test]
    fn block_form_rejects_channels_that_mix_populations_and_coherences() {
        // An RY rotation moves population into coherence, an RZ rotation
        // gives coherences imaginary factors: neither has a real
        // phase-covariant block form. Phase damping has one.
        let superop = |kraus: &[crate::matrix::CMatrix]| {
            crate::density::superop_to_array_1q(&crate::density::superop_from_kraus(kraus))
        };
        let unitary = |g: Gate| {
            let m = g.matrix_1q();
            superop(&[crate::matrix::CMatrix::from_rows(&[&m[0], &m[1]])])
        };
        assert!(PhaseCovariantChannel::from_superop(&unitary(Gate::RY(0.4))).is_none());
        assert!(PhaseCovariantChannel::from_superop(&unitary(Gate::RZ(0.4))).is_none());
        let mut leaky = superop(&crate::noise::phase_damping(0.2));
        assert!(PhaseCovariantChannel::from_superop(&leaky).is_some());
        leaky[1][3] = crate::complex::C64::from_real(1e-300);
        assert!(PhaseCovariantChannel::from_superop(&leaky).is_none());
    }

    #[test]
    fn noisy_backend_with_ideal_model_matches_noiseless() {
        let mut qc = Circuit::with_clbits(2, 1);
        qc.h(0).cx(0, 1).rx(0.3, 1).measure(1, 0);
        let a = DensityMatrixBackend::new().probabilities(&qc).unwrap();
        let b = DensityMatrixBackend::with_noise(NoiseModel::ideal())
            .probabilities(&qc)
            .unwrap();
        assert!((a.marginal_one(0) - b.marginal_one(0)).abs() < TOL);
    }

    #[test]
    fn density_backend_rejects_gate_after_measure() {
        let mut qc = Circuit::with_clbits(1, 1);
        qc.h(0).measure(0, 0).h(0);
        assert!(matches!(
            DensityMatrixBackend::new().probabilities(&qc),
            Err(QsimError::Unsupported(_))
        ));
    }

    #[test]
    fn readout_error_convolution() {
        let mut probs = HashMap::new();
        probs.insert(0b0u64, 1.0);
        let dist = OutcomeDistribution::from_probs(1, probs).with_readout_error(0.1);
        assert!((dist.probability(0b1) - 0.1).abs() < TOL);
        assert!((dist.probability(0b0) - 0.9).abs() < TOL);
        assert!((dist.total() - 1.0).abs() < TOL);
    }

    #[test]
    fn readout_error_two_bits() {
        let mut probs = HashMap::new();
        probs.insert(0b00u64, 1.0);
        let dist = OutcomeDistribution::from_probs(2, probs).with_readout_error(0.2);
        assert!((dist.probability(0b00) - 0.64).abs() < TOL);
        assert!((dist.probability(0b01) - 0.16).abs() < TOL);
        assert!((dist.probability(0b10) - 0.16).abs() < TOL);
        assert!((dist.probability(0b11) - 0.04).abs() < TOL);
    }

    #[test]
    fn branch_cap_is_enforced() {
        let backend = StatevectorBackend::new().with_max_branches(2);
        let mut qc = Circuit::with_clbits(3, 3);
        qc.h(0).h(1).h(2).measure(0, 0).measure(1, 1).measure(2, 2);
        assert!(matches!(
            backend.probabilities(&qc),
            Err(QsimError::Unsupported(_))
        ));
    }

    #[test]
    fn swap_test_identical_states_reads_zero() {
        // Canonical SWAP test: two identical |+> states => ancilla P(1)=0.
        let mut qc = Circuit::with_clbits(3, 1);
        qc.h(0); // ancilla will be qubit 2; data qubits 0,1
        qc.h(1);
        qc.h(2);
        qc.cswap(2, 0, 1);
        qc.h(2);
        qc.measure(2, 0);
        let dist = StatevectorBackend::new().probabilities(&qc).unwrap();
        assert!(dist.marginal_one(0) < TOL);
    }

    #[test]
    fn swap_test_orthogonal_states_reads_half() {
        // |0> vs |1>: overlap 0 => P(1) = (1 - 0)/2 = 1/2.
        let mut qc = Circuit::with_clbits(3, 1);
        qc.x(1);
        qc.h(2);
        qc.cswap(2, 0, 1);
        qc.h(2);
        qc.measure(2, 0);
        let dist = StatevectorBackend::new().probabilities(&qc).unwrap();
        assert!((dist.marginal_one(0) - 0.5).abs() < TOL);
        // And the density backend agrees.
        let dist2 = DensityMatrixBackend::new().probabilities(&qc).unwrap();
        assert!((dist2.marginal_one(0) - 0.5).abs() < TOL);
    }

    #[test]
    fn gate_marker_trait_objects() {
        // Backends must be usable as trait objects for the bench harness.
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(StatevectorBackend::new()),
            Box::new(DensityMatrixBackend::new()),
        ];
        for b in &backends {
            let dist = b.probabilities(&bell_measured()).unwrap();
            assert!((dist.total() - 1.0).abs() < TOL);
            assert!(!b.name().is_empty());
        }
    }

    #[test]
    fn unmeasured_circuit_yields_empty_pattern() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        let dist = StatevectorBackend::new().probabilities(&qc).unwrap();
        assert!((dist.probability(0) - 1.0).abs() < TOL);
    }

    #[allow(unused_imports)]
    use Gate as _GateUnused;
}
