//! Structured per-gate channel application over batched vec(ρ) panels.
//!
//! The dense noisy path fuses a whole lowered segment into one
//! `4^n × 4^n` superoperator — exact, but `O(16^n)` to build and store,
//! which walls the register width around n ≈ 5. This module keeps the
//! *structure* of the segment instead: a [`ChannelProgram`] is a flat IR
//! of local operations (fused 1q unitary-conjugation ⊕ noise steps, CX
//! permutations, 2q unitary conjugations, closed-form depolarizing,
//! reset and amplitude/phase-damping channels) that is lowered **once**
//! per (group, level) and then executed column-lockstep over the whole
//! batch's `4^n × S` panel with the [`crate::density`] /
//! [`crate::kernel`] lane kernels — `O(G · 4^n · S)` for `G` program
//! ops, never materialising a `16^n` object.
//!
//! The readout side gets the same treatment: [`SwapTestMpo`] is the
//! noisy SWAP-test functional `W` in matrix-product-operator form. The
//! pulled-back ancilla observable threads through the per-pair noisy
//! lowered CSWAP channels with bond dimension 4 (the ancilla's operator
//! space), so `Y = W · P` is computed as an `O(n · 4^n · S)` sweep —
//! the `16^n × 16^n`-entry `W` of the dense path is never built.
//!
//! Both feed both noisy engines of `quorum-core`: the structured engine
//! walks them over every prepared panel, and the dense engine builds
//! each readout form from one program walk and one MPO sweep over the
//! upper-triangle basis columns. The tests below pin programs against
//! the per-gate dense walk and the MPO against a forward `2n + 1`-qubit
//! simulation; the per-sample and circuit oracles of `quorum-core`,
//! which use neither, pin the engines built on them.

use crate::circuit::{Circuit, Operation};
use crate::complex::C64;
use crate::density::{
    apply_amplitude_damping_columns, apply_depolarizing_2q_columns, apply_phase_damping_columns,
    apply_reset_columns, apply_superop_1q_columns, apply_superop_2q_columns, permute_cx_columns,
    superop_from_kraus, superop_to_array_2q, DensityMatrix,
};
use crate::error::QsimError;
use crate::gate::Gate;
use crate::matrix::CMatrix;
use crate::simulator::GateNoise;
use crate::transpile;

/// One local operation of a [`ChannelProgram`], acting on every column
/// of a `4^n × S` vec(ρ) panel.
// The inline 4×4 in `Superop1q` dominates the enum size, but it is the
// common case on the hot path and programs hold O(gates) ops total —
// boxing it would trade a pointer chase per op for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelOp {
    /// A shared 4×4 superoperator on one qubit — a 1q unitary
    /// conjugation `U ⊗ Ū`, a fused noise channel, or any composition
    /// of the two.
    Superop1q {
        /// Operand qubit.
        qubit: usize,
        /// Row-major 4×4 superoperator over `(ρ00, ρ01, ρ10, ρ11)`.
        s: [[C64; 4]; 4],
    },
    /// The CX conjugation `ρ → CX ρ CX` — a pure row permutation of the
    /// panel, no arithmetic.
    PermuteCx {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// The closed-form two-qubit depolarizing channel.
    Depol2q {
        /// Most significant sub-index qubit.
        qa: usize,
        /// Least significant sub-index qubit.
        qb: usize,
        /// Kraus parameter in `[0, 15/16]`.
        p: f64,
    },
    /// A shared 16×16 superoperator on a qubit pair — a general 2q
    /// unitary conjugation `U ⊗ Ū` (non-CX gates surviving lowering) or
    /// an arbitrary fused 2q channel.
    Superop2q {
        /// Most significant sub-index qubit.
        qa: usize,
        /// Least significant sub-index qubit.
        qb: usize,
        /// Row-major 16×16 superoperator over the vectorised pair block.
        s: Box<[[C64; 16]; 16]>,
    },
    /// Exact reset of one qubit to `|0⟩` (Kraus `{|0⟩⟨0|, |0⟩⟨1|}`).
    Reset {
        /// Operand qubit.
        qubit: usize,
    },
    /// The amplitude-damping channel with parameter `gamma`.
    AmplitudeDamping {
        /// Operand qubit.
        qubit: usize,
        /// Damping parameter in `[0, 1]`.
        gamma: f64,
    },
    /// The phase-damping (dephasing) channel with parameter `lambda`;
    /// `lambda = 1` is a full computational-basis dephase.
    PhaseDamping {
        /// Operand qubit.
        qubit: usize,
        /// Damping parameter in `[0, 1]`.
        lambda: f64,
    },
}

impl ChannelOp {
    /// The qubits this op touches (padded with `usize::MAX`).
    fn operands(&self) -> (usize, usize) {
        match self {
            ChannelOp::Superop1q { qubit, .. }
            | ChannelOp::Reset { qubit }
            | ChannelOp::AmplitudeDamping { qubit, .. }
            | ChannelOp::PhaseDamping { qubit, .. } => (*qubit, usize::MAX),
            ChannelOp::PermuteCx { control, target } => (*control, *target),
            ChannelOp::Depol2q { qa, qb, .. } | ChannelOp::Superop2q { qa, qb, .. } => (*qa, *qb),
        }
    }
}

/// The 1q unitary-conjugation superoperator `U ⊗ Ū`:
/// `s[(i·2+k), (j·2+l)] = u[i][j] · conj(u[k][l])` — exactly the fused
/// fast path of [`DensityMatrix::apply_gate`].
fn conj_superop_1q(u: &[[C64; 2]; 2]) -> [[C64; 4]; 4] {
    let mut s = [[C64::ZERO; 4]; 4];
    for i in 0..2 {
        for j in 0..2 {
            for k in 0..2 {
                for l in 0..2 {
                    s[i * 2 + k][j * 2 + l] = u[i][j] * u[k][l].conj();
                }
            }
        }
    }
    s
}

/// Composes fixed-size 1q superoperators so `first` acts before
/// `second` (matrix product `second · first`).
fn compose_1q_arrays(first: &[[C64; 4]; 4], second: &[[C64; 4]; 4]) -> [[C64; 4]; 4] {
    let mut out = [[C64::ZERO; 4]; 4];
    for (i, orow) in out.iter_mut().enumerate() {
        for (j, o) in orow.iter_mut().enumerate() {
            let mut acc = C64::ZERO;
            for k in 0..4 {
                acc += second[i][k] * first[k][j];
            }
            *o = acc;
        }
    }
    out
}

/// A lowered noisy circuit segment as a reusable list of local channel
/// operations over a `4^n × S` vec(ρ) panel.
///
/// Built once from a lowered [`Circuit`] plus a [`GateNoise`]
/// ([`ChannelProgram::from_lowered`]): every 1q gate's conjugation is
/// fused with its post-gate noise channel into a single 4×4 step, and
/// *runs* of 1q steps on the same qubit (e.g. an RX·RZ ansatz column,
/// or a CX's relaxation flowing into the next rotation) are composed
/// into one — operations on disjoint qubits commute exactly, so the
/// fusion only reassociates floating-point products. Execution
/// ([`ChannelProgram::apply_panel`]) walks the ops with the lockstep
/// column kernels: `O(ops · 4^n · S)` total, no `16^n` object anywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelProgram {
    num_qubits: usize,
    ops: Vec<ChannelOp>,
}

impl ChannelProgram {
    /// Lowers a circuit segment (already taken through
    /// [`transpile::decompose_multiqubit`]) and a per-gate noise model
    /// into a channel program, fusing 1q gate conjugations with their
    /// noise and composing same-qubit 1q runs.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::Unsupported`] for gates of arity > 2 (lower
    /// first) and for measurements (a channel program is trace
    /// preserving; measurement is the caller's job).
    pub fn from_lowered(circuit: &Circuit, noise: &GateNoise) -> Result<Self, QsimError> {
        let n = circuit.num_qubits();
        let mut ops: Vec<ChannelOp> = Vec::new();
        // Per qubit: index of a trailing Superop1q that later same-qubit
        // 1q steps may fuse into. Invalidated by any other op on the
        // qubit; ops on *other* qubits commute exactly, so they do not.
        let mut tail_1q: Vec<Option<usize>> = vec![None; n];

        fn push_1q(
            ops: &mut Vec<ChannelOp>,
            tail_1q: &mut [Option<usize>],
            q: usize,
            s: [[C64; 4]; 4],
        ) {
            if let Some(i) = tail_1q[q] {
                if let ChannelOp::Superop1q { s: prev, .. } = &mut ops[i] {
                    *prev = compose_1q_arrays(prev, &s);
                    return;
                }
            }
            tail_1q[q] = Some(ops.len());
            ops.push(ChannelOp::Superop1q { qubit: q, s });
        }

        for instr in circuit.instructions() {
            match &instr.op {
                Operation::Gate(g) => match g.num_qubits() {
                    1 => {
                        let q = instr.qubits[0];
                        let mut s = conj_superop_1q(&g.matrix_1q());
                        if let Some(ns) = noise.superop_1q() {
                            s = compose_1q_arrays(&s, ns);
                        }
                        push_1q(&mut ops, &mut tail_1q, q, s);
                    }
                    2 => {
                        let (a, b) = (instr.qubits[0], instr.qubits[1]);
                        tail_1q[a] = None;
                        tail_1q[b] = None;
                        if matches!(g, Gate::CX) {
                            ops.push(ChannelOp::PermuteCx {
                                control: a,
                                target: b,
                            });
                        } else {
                            let s = superop_from_kraus(&[g.matrix()]);
                            ops.push(ChannelOp::Superop2q {
                                qa: a,
                                qb: b,
                                s: superop_to_array_2q(&s),
                            });
                        }
                        if noise.depol_2q() > 0.0 {
                            ops.push(ChannelOp::Depol2q {
                                qa: a,
                                qb: b,
                                p: noise.depol_2q(),
                            });
                        }
                        if let Some(r) = noise.superop_2q_relax() {
                            push_1q(&mut ops, &mut tail_1q, a, *r);
                            push_1q(&mut ops, &mut tail_1q, b, *r);
                        }
                    }
                    _ => {
                        return Err(QsimError::Unsupported(
                            "3-qubit gate survived lowering".into(),
                        ))
                    }
                },
                Operation::Reset => {
                    let q = instr.qubits[0];
                    tail_1q[q] = None;
                    ops.push(ChannelOp::Reset { qubit: q });
                }
                Operation::Barrier => {}
                _ => {
                    return Err(QsimError::Unsupported(
                        "measurement inside a channel program".into(),
                    ))
                }
            }
        }
        Ok(ChannelProgram { num_qubits: n, ops })
    }

    /// Wraps an explicit op list as a program over `num_qubits` qubits.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] /
    /// [`QsimError::DuplicateQubit`] for malformed operands.
    pub fn from_ops(num_qubits: usize, ops: Vec<ChannelOp>) -> Result<Self, QsimError> {
        for op in &ops {
            let (a, b) = op.operands();
            if a >= num_qubits {
                return Err(QsimError::QubitOutOfRange {
                    qubit: a,
                    num_qubits,
                });
            }
            if b != usize::MAX {
                if b >= num_qubits {
                    return Err(QsimError::QubitOutOfRange {
                        qubit: b,
                        num_qubits,
                    });
                }
                if a == b {
                    return Err(QsimError::DuplicateQubit { qubit: a });
                }
            }
        }
        Ok(ChannelProgram { num_qubits, ops })
    }

    /// Register width the program acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The lowered op list, in application order.
    pub fn ops(&self) -> &[ChannelOp] {
        &self.ops
    }

    /// Approximate heap + inline footprint, for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        let boxed: usize = self
            .ops
            .iter()
            .map(|op| match op {
                ChannelOp::Superop2q { .. } => std::mem::size_of::<[[C64; 16]; 16]>(),
                _ => 0,
            })
            .sum();
        std::mem::size_of::<Self>() + self.ops.capacity() * std::mem::size_of::<ChannelOp>() + boxed
    }

    /// Executes the program on **every column** of a `4^n × samples`
    /// vec(ρ) panel through the lockstep column kernels.
    ///
    /// # Panics
    ///
    /// Panics when the panel shape does not match the program width
    /// (the column kernels' contract).
    pub fn apply_panel(&self, data: &mut [C64], samples: usize) {
        let dim = 1usize << self.num_qubits;
        assert_eq!(data.len(), dim * dim * samples, "panel shape mismatch");
        for op in &self.ops {
            match op {
                ChannelOp::Superop1q { qubit, s } => {
                    apply_superop_1q_columns(data, dim, samples, *qubit, s);
                }
                ChannelOp::PermuteCx { control, target } => {
                    permute_cx_columns(data, dim, samples, *control, *target);
                }
                ChannelOp::Depol2q { qa, qb, p } => {
                    apply_depolarizing_2q_columns(data, dim, samples, *qa, *qb, *p);
                }
                ChannelOp::Superop2q { qa, qb, s } => {
                    apply_superop_2q_columns(data, dim, samples, *qa, *qb, s);
                }
                ChannelOp::Reset { qubit } => {
                    apply_reset_columns(data, dim, samples, *qubit);
                }
                ChannelOp::AmplitudeDamping { qubit, gamma } => {
                    apply_amplitude_damping_columns(data, dim, samples, *qubit, *gamma);
                }
                ChannelOp::PhaseDamping { qubit, lambda } => {
                    apply_phase_damping_columns(data, dim, samples, *qubit, *lambda);
                }
            }
        }
    }
}

/// The noisy SWAP-test readout functional in matrix-product-operator
/// form: computes `Y = W · P` column-lockstep in `O(n · 4^n · S)`
/// without materialising the `4^n × 4^n` functional `W`.
///
/// Derivation. The POVM element `Π₁ = |1⟩⟨1|_anc ⊗ I` is pulled
/// backwards through the lowered noisy network
/// `H(anc) · ∏_q CSWAP(anc, q, n+q) · H(anc)`. Decomposed over the
/// ancilla's operator basis `E_μ = |b⟩⟨b'|` (μ = 2b + b', the **bond**,
/// dimension 4), the observable after the final `H` is
/// `Σ_μ h_μ · E_μ ⊗ I`. Each pulled-back CSWAP segment acts on
/// `(anc, q, n+q)` only and always meets the identity on its pair, so
/// its entire action is the pair-independent tensor
/// `𝒟†(E_μ ⊗ I₄) = Σ_ν E_ν ⊗ N_{νμ}` — sixteen 4×4 pair operators
/// computed **numerically** from one 3-qubit adjoint walk with the
/// dense kernels. The first `H` plus the ancilla's `⟨0|·|0⟩`
/// restriction close the chain with the boundary `β_μ`. Contracting
/// with `vec(ρ_B)` one qubit pair at a time is then a bond-mixed 16×16
/// lane sweep over the panel ([`crate::kernel::superop16_lanes`]).
#[derive(Debug, Clone)]
pub struct SwapTestMpo {
    num_qubits: usize,
    /// Bond ⊗ field transfer matrix: `m16[(ν·4+α)][(μ·4+β)]` maps the
    /// B-side vec field `β = (v_b·2 + u_b)` of one qubit pair to the
    /// A-side vec field `α = (v_a·2 + u_a)` while mixing the ancilla
    /// bond `μ → ν`.
    m16: Box<[[C64; 16]; 16]>,
    /// Boundary at the last-`H` end of the chain.
    h: [C64; 4],
    /// Boundary at the first-`H` + ancilla-restriction end.
    beta: [C64; 4],
}

impl SwapTestMpo {
    /// Builds the MPO for `num_qubits`-qubit registers under `noise` —
    /// three tiny dense pull-backs (1, 1 and 3 qubits), independent of
    /// the register width.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the constant-size pull-backs.
    pub fn build(num_qubits: usize, noise: &GateNoise) -> Result<Self, QsimError> {
        assert!(num_qubits >= 1, "register width must be at least 1");

        // Pulls a 1-qubit observable back through one noisy H.
        let pull_h = |entries: [[C64; 2]; 2]| -> Result<DensityMatrix, QsimError> {
            let m = CMatrix::from_rows(&[
                &[entries[0][0], entries[0][1]],
                &[entries[1][0], entries[1][1]],
            ]);
            let mut obs = DensityMatrix::from_cmatrix(&m)?;
            noise.apply_adjoint_after_gate(&mut obs, 1, &[0])?;
            obs.apply_gate(Gate::H, &[0])?;
            Ok(obs)
        };

        // h: Π₁ = |1⟩⟨1| through the network's final H (adjoint).
        let mut h = [C64::ZERO; 4];
        let pulled = pull_h([[C64::ZERO, C64::ZERO], [C64::ZERO, C64::ONE]])?;
        h.copy_from_slice(&pulled.as_slice()[..4]);

        // β: each bond basis element through the network's first H
        // (adjoint), restricted to the ancilla's initial |0⟩.
        let mut beta = [C64::ZERO; 4];
        for (mu, slot) in beta.iter_mut().enumerate() {
            let mut e = [[C64::ZERO; 2]; 2];
            e[mu >> 1][mu & 1] = C64::ONE;
            *slot = pull_h(e)?.as_slice()[0];
        }

        // N: one noisy lowered CSWAP's adjoint action on E_μ ⊗ I₄ in the
        // 3-qubit model (anc = qubit 2, pair = (A = qubit 0, B = qubit 1),
        // operand order matching `cswap(ancilla, q, n + q)`).
        let mut cswap = Circuit::new(3);
        cswap.cswap(2, 0, 1);
        let lowered = transpile::decompose_multiqubit(&cswap);
        let mut m16 = Box::new([[C64::ZERO; 16]; 16]);
        for mu in 0..4 {
            let mut op = CMatrix::zeros(8, 8);
            for p in 0..4 {
                op[((mu >> 1) * 4 + p, (mu & 1) * 4 + p)] = C64::ONE;
            }
            let mut obs = DensityMatrix::from_cmatrix(&op)?;
            for instr in lowered.instructions().iter().rev() {
                match &instr.op {
                    Operation::Gate(g) => {
                        noise.apply_adjoint_after_gate(&mut obs, g.num_qubits(), &instr.qubits)?;
                        obs.apply_gate(g.inverse(), &instr.qubits)?;
                    }
                    Operation::Barrier => {}
                    _ => {
                        return Err(QsimError::Unsupported(
                            "the SWAP-test network must be unitary".into(),
                        ))
                    }
                }
            }
            // Decompose over the ancilla bond and reindex the pair
            // operator N_{νμ}[(u_b·2+u_a), (v_b·2+v_a)] into the
            // vec-field transfer K_{νμ}[α = v_a·2+u_a][β = v_b·2+u_b].
            let data = obs.as_slice();
            for nu in 0..4 {
                let (row_anc, col_anc) = (nu >> 1, nu & 1);
                for alpha in 0..4 {
                    let (va, ua) = (alpha >> 1, alpha & 1);
                    for betaf in 0..4 {
                        let (vb, ub) = (betaf >> 1, betaf & 1);
                        let p_r = ub * 2 + ua;
                        let p_c = vb * 2 + va;
                        m16[nu * 4 + alpha][mu * 4 + betaf] =
                            data[(row_anc * 4 + p_r) * 8 + (col_anc * 4 + p_c)];
                    }
                }
            }
        }

        Ok(SwapTestMpo {
            num_qubits,
            m16,
            h,
            beta,
        })
    }

    /// Register width per side of the SWAP test.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Computes `out = W · panel` for a `4^n × samples` vec(ρ_B) panel:
    /// initialise four bond panels `X_μ = h_μ · P`, thread the 16×16
    /// bond ⊗ field transfer through each qubit pair's vec-index field
    /// (bits `q` and `n+q`), then contract the bond against `β`. The bond
    /// panels live in the caller's `bonds`, overwritten whole, so a
    /// caller sweeping block after block reuses one set.
    ///
    /// # Panics
    ///
    /// Panics when `panel`/`out` are not `4^n · samples` long.
    pub fn apply_panel(
        &self,
        panel: &[C64],
        samples: usize,
        bonds: &mut MpoBonds,
        out: &mut [C64],
    ) {
        let n = self.num_qubits;
        let dim2 = 1usize << (2 * n);
        assert_eq!(panel.len(), dim2 * samples, "panel shape mismatch");
        assert_eq!(out.len(), dim2 * samples, "output shape mismatch");
        if samples == 0 {
            return;
        }
        for (bond, &hm) in bonds.panels.iter_mut().zip(&self.h) {
            bond.clear();
            bond.extend(panel.iter().map(|&x| x * hm));
        }
        let bonds = &mut bonds.panels;
        // Bond order: the chain runs h → pair n−1 → … → pair 0 → β
        // (the pull-back meets pair n−1 first).
        for q in (0..n).rev() {
            let ml = 1usize << q;
            let mh = 1usize << (n + q);
            let both = ml | mh;
            let [b0, b1, b2, b3] = &mut *bonds;
            for base in 0..dim2 {
                if base & both != 0 {
                    continue;
                }
                let [r00, r01, r02, r03] = field_rows_mut(b0, samples, base, ml, mh);
                let [r10, r11, r12, r13] = field_rows_mut(b1, samples, base, ml, mh);
                let [r20, r21, r22, r23] = field_rows_mut(b2, samples, base, ml, mh);
                let [r30, r31, r32, r33] = field_rows_mut(b3, samples, base, ml, mh);
                let mut rows: [&mut [C64]; 16] = [
                    r00, r01, r02, r03, r10, r11, r12, r13, r20, r21, r22, r23, r30, r31, r32, r33,
                ];
                crate::kernel::superop16_lanes(&mut rows, &self.m16);
            }
        }
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.beta[0] * bonds[0][i]
                + self.beta[1] * bonds[1][i]
                + self.beta[2] * bonds[2][i]
                + self.beta[3] * bonds[3][i];
        }
    }
}

/// The four bond panels of a [`SwapTestMpo::apply_panel`] sweep, each
/// `4^n × samples` complex numbers. The caller keeps them, so a sweep
/// over block after block allocates them once instead of per block.
#[derive(Debug, Default)]
pub struct MpoBonds {
    panels: [Vec<C64>; 4],
}

/// Borrows the four lane runs of one qubit-pair vec-index field
/// (`base`, `base|ml`, `base|mh`, `base|ml|mh`, strictly ascending)
/// from a bond panel.
fn field_rows_mut(
    buf: &mut [C64],
    samples: usize,
    base: usize,
    ml: usize,
    mh: usize,
) -> [&mut [C64]; 4] {
    let i0 = base * samples;
    let i1 = (base | ml) * samples;
    let i2 = (base | mh) * samples;
    let i3 = (base | ml | mh) * samples;
    let (h0, rest) = buf.split_at_mut(i1);
    let (h1, rest1) = rest.split_at_mut(i2 - i1);
    let (h2, rest2) = rest1.split_at_mut(i3 - i2);
    [
        &mut h0[i0..i0 + samples],
        &mut h1[..samples],
        &mut h2[..samples],
        &mut rest2[..samples],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;

    const TOL: f64 = 1e-12;

    /// Deterministic trace-1 PSD matrix (a valid mixed state).
    fn test_state(num_qubits: usize, salt: u64) -> CMatrix {
        let dim = 1usize << num_qubits;
        let mut a = CMatrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                let t = (i * dim + j) as f64 + salt as f64 * 0.61;
                a[(i, j)] = C64::new((t * 0.917).sin(), (t * 1.271).cos());
            }
        }
        let mut rho = &a.dagger() * &a;
        let tr: f64 = (0..dim).map(|i| rho[(i, i)].re).sum();
        for i in 0..dim {
            for j in 0..dim {
                rho[(i, j)] = rho[(i, j)].scale(1.0 / tr);
            }
        }
        rho
    }

    /// A lowered noisy autoencoder-like segment for tests.
    fn test_segment(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.rx(0.3 + 0.2 * q as f64, q);
            c.rz(-0.7 + 0.1 * q as f64, q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.reset(n - 1);
        for q in 0..n {
            c.ry(0.9 - 0.3 * q as f64, q);
        }
        transpile::decompose_multiqubit(&c)
    }

    /// Walks the segment per-sample with the dense kernels (the oracle
    /// the program must match).
    fn evolve_dense(rho: &mut DensityMatrix, circ: &Circuit, noise: &GateNoise) {
        for instr in circ.instructions() {
            match &instr.op {
                Operation::Gate(g) => {
                    rho.apply_gate(*g, &instr.qubits).unwrap();
                    noise
                        .apply_after_gate(rho, g.num_qubits(), &instr.qubits)
                        .unwrap();
                }
                Operation::Reset => rho.reset(instr.qubits[0]).unwrap(),
                Operation::Barrier => {}
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn program_matches_dense_walk_under_noise() {
        for n in [2usize, 3] {
            for noise_model in [None, Some(NoiseModel::brisbane())] {
                let gate_noise = noise_model
                    .as_ref()
                    .map(GateNoise::from_model)
                    .unwrap_or_default();
                let circ = test_segment(n);
                let program = ChannelProgram::from_lowered(&circ, &gate_noise).unwrap();
                assert!(!program.ops().is_empty());

                let samples = 3;
                let dim = 1usize << n;
                let states: Vec<CMatrix> = (0..samples).map(|j| test_state(n, j as u64)).collect();
                let mut panel = vec![C64::ZERO; dim * dim * samples];
                for (j, s) in states.iter().enumerate() {
                    for r in 0..dim {
                        for c in 0..dim {
                            panel[(r * dim + c) * samples + j] = s[(r, c)];
                        }
                    }
                }
                program.apply_panel(&mut panel, samples);

                for (j, s) in states.iter().enumerate() {
                    let mut rho = DensityMatrix::from_cmatrix(s).unwrap();
                    evolve_dense(&mut rho, &circ, &gate_noise);
                    let expect = rho.as_slice();
                    let mut trace = C64::ZERO;
                    for r in 0..dim {
                        trace += panel[(r * dim + r) * samples + j];
                    }
                    assert!(
                        (trace.re - 1.0).abs() < 1e-10 && trace.im.abs() < 1e-10,
                        "program is not trace preserving: {trace}"
                    );
                    for idx in 0..dim * dim {
                        let got = panel[idx * samples + j];
                        assert!(
                            got.approx_eq(expect[idx], 1e-10),
                            "n={n} sample {j} entry {idx}: {got} vs {}",
                            expect[idx]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn same_qubit_runs_fuse_into_single_superops() {
        let gate_noise = GateNoise::from_model(&NoiseModel::brisbane());
        let mut c = Circuit::new(2);
        c.rx(0.4, 0);
        c.rz(0.3, 0); // fuses with the RX step
        c.ry(0.2, 1);
        c.cx(0, 1);
        c.rx(0.9, 1); // fuses with CX relaxation on qubit 1
        let program = ChannelProgram::from_lowered(&c, &gate_noise).unwrap();
        let superop_1q = program
            .ops()
            .iter()
            .filter(|op| matches!(op, ChannelOp::Superop1q { .. }))
            .count();
        // One fused step for qubit 0's run, one for qubit 1's pre-CX RY,
        // one for CX relax(0), one for CX relax(1) ⊕ RX.
        assert_eq!(superop_1q, 4);
        assert!(program
            .ops()
            .iter()
            .any(|op| matches!(op, ChannelOp::PermuteCx { .. })));
        assert!(program
            .ops()
            .iter()
            .any(|op| matches!(op, ChannelOp::Depol2q { .. })));
    }

    #[test]
    fn explicit_damping_ops_preserve_trace_and_match_kraus() {
        let n = 2;
        let dim = 1usize << n;
        let program = ChannelProgram::from_ops(
            n,
            vec![
                ChannelOp::AmplitudeDamping {
                    qubit: 0,
                    gamma: 0.23,
                },
                ChannelOp::PhaseDamping {
                    qubit: 1,
                    lambda: 0.41,
                },
                ChannelOp::Reset { qubit: 0 },
            ],
        )
        .unwrap();
        let state = test_state(n, 7);
        let mut panel = vec![C64::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                panel[r * dim + c] = state[(r, c)];
            }
        }
        program.apply_panel(&mut panel, 1);

        let mut rho = DensityMatrix::from_cmatrix(&state).unwrap();
        rho.apply_kraus(&crate::noise::amplitude_damping(0.23), &[0])
            .unwrap();
        rho.apply_kraus(&crate::noise::phase_damping(0.41), &[1])
            .unwrap();
        rho.reset(0).unwrap();
        let expect = rho.as_slice();
        for idx in 0..dim * dim {
            assert!(
                panel[idx].approx_eq(expect[idx], TOL),
                "entry {idx}: {} vs {}",
                panel[idx],
                expect[idx]
            );
        }
        let trace: C64 = (0..dim).map(|r| panel[r * dim + r]).sum();
        assert!((trace.re - 1.0).abs() < TOL && trace.im.abs() < TOL);
    }

    #[test]
    fn from_ops_validates_operands() {
        assert!(matches!(
            ChannelProgram::from_ops(2, vec![ChannelOp::Reset { qubit: 2 }]),
            Err(QsimError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            ChannelProgram::from_ops(
                2,
                vec![ChannelOp::Depol2q {
                    qa: 1,
                    qb: 1,
                    p: 0.1
                }]
            ),
            Err(QsimError::DuplicateQubit { .. })
        ));
    }

    #[test]
    fn from_lowered_rejects_unlowered_and_measured_circuits() {
        let noise = GateNoise::default();
        let mut c = Circuit::new(3);
        c.cswap(0, 1, 2);
        assert!(matches!(
            ChannelProgram::from_lowered(&c, &noise),
            Err(QsimError::Unsupported(_))
        ));
        let mut c = Circuit::with_clbits(1, 1);
        c.measure(0, 0);
        assert!(matches!(
            ChannelProgram::from_lowered(&c, &noise),
            Err(QsimError::Unsupported(_))
        ));
    }

    /// Forward-simulates the noisy lowered SWAP-test network on
    /// `|0⟩⟨0|_anc ⊗ ρ_B ⊗ ρ_A` and returns P(ancilla = 1) — the
    /// ground truth both the dense functional and the MPO must yield.
    fn swap_test_forward(n: usize, rho_a: &CMatrix, rho_b: &CMatrix, noise: &GateNoise) -> f64 {
        let ancilla = 2 * n;
        let sub = 1usize << n;
        let dim = 1usize << (2 * n + 1);
        let mut full = CMatrix::zeros(dim, dim);
        for ra in 0..sub {
            for ca in 0..sub {
                for rb in 0..sub {
                    for cb in 0..sub {
                        full[(rb * sub + ra, cb * sub + ca)] = rho_a[(ra, ca)] * rho_b[(rb, cb)];
                    }
                }
            }
        }
        let mut rho = DensityMatrix::from_cmatrix(&full).unwrap();
        let mut circ = Circuit::new(2 * n + 1);
        circ.h(ancilla);
        for q in 0..n {
            circ.cswap(ancilla, q, n + q);
        }
        circ.h(ancilla);
        let lowered = transpile::decompose_multiqubit(&circ);
        for instr in lowered.instructions() {
            if let Operation::Gate(g) = &instr.op {
                rho.apply_gate(*g, &instr.qubits).unwrap();
                noise
                    .apply_after_gate(&mut rho, g.num_qubits(), &instr.qubits)
                    .unwrap();
            }
        }
        rho.probability_one(ancilla).unwrap()
    }

    #[test]
    fn mpo_readout_matches_forward_simulation() {
        for n in [1usize, 2] {
            for noise_model in [None, Some(NoiseModel::brisbane())] {
                let gate_noise = noise_model
                    .as_ref()
                    .map(GateNoise::from_model)
                    .unwrap_or_default();
                let mpo = SwapTestMpo::build(n, &gate_noise).unwrap();
                let sub = 1usize << n;
                let dim2 = sub * sub;
                let rho_a = test_state(n, 3);
                let rho_b = test_state(n, 11);

                let vec_b: Vec<C64> = (0..sub)
                    .flat_map(|v| (0..sub).map(move |u| (v, u)))
                    .map(|(v, u)| rho_b[(v, u)])
                    .collect();
                let mut y = vec![C64::ZERO; dim2];
                mpo.apply_panel(&vec_b, 1, &mut MpoBonds::default(), &mut y);
                let mut raw = C64::ZERO;
                for va in 0..sub {
                    for ua in 0..sub {
                        raw += rho_a[(va, ua)] * y[va * sub + ua];
                    }
                }

                let expect = swap_test_forward(n, &rho_a, &rho_b, &gate_noise);
                assert!(
                    (raw.re - expect).abs() < 1e-9 && raw.im.abs() < 1e-9,
                    "n={n}: MPO readout {raw} vs forward {expect}"
                );
            }
        }
    }

    #[test]
    fn mpo_sweep_through_reused_dirty_bonds_matches_a_fresh_sweep() {
        let gate_noise = GateNoise::from_model(&NoiseModel::brisbane());
        let n = 2;
        let dim2 = 1usize << (2 * n);
        let mpo = SwapTestMpo::build(n, &gate_noise).unwrap();
        let panel = |samples: usize, salt: f64| -> Vec<C64> {
            (0..dim2 * samples)
                .map(|i| C64::new((i as f64 * 0.37 + salt).sin(), (i as f64 * 0.11).cos()))
                .collect()
        };
        // One set of bonds carried through sweeps of shrinking, growing
        // and equal widths, each leaving the previous sweep's values
        // behind: every output must equal a sweep through fresh bonds.
        let mut bonds = MpoBonds::default();
        for (samples, salt) in [(5usize, 0.0), (2, 1.3), (7, 2.9), (7, 0.4), (1, 5.1)] {
            let p = panel(samples, salt);
            let mut fresh = vec![C64::ZERO; dim2 * samples];
            mpo.apply_panel(&p, samples, &mut MpoBonds::default(), &mut fresh);
            let mut reused = vec![C64::new(9.0, -9.0); dim2 * samples];
            mpo.apply_panel(&p, samples, &mut bonds, &mut reused);
            let bits = |v: &[C64]| -> Vec<(u64, u64)> {
                v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
            };
            assert_eq!(bits(&reused), bits(&fresh), "{samples} samples");
        }
    }
}
