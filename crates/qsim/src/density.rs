//! Mixed-state simulation: a `2^n × 2^n` density matrix with gate and
//! Kraus-channel kernels.
//!
//! This backend exists for two reasons:
//!
//! 1. **Noise.** The paper's Fig. 9 "Noisy" series models IBM Brisbane;
//!    Kraus channels (depolarizing, thermal relaxation, readout) require
//!    mixed states.
//! 2. **Ground truth.** A density matrix handles Quorum's mid-circuit resets
//!    exactly, so it cross-validates the branching statevector backend
//!    (see the `backend_agreement` integration tests).
//!
//! Bit convention matches [`crate::statevector`]: qubit `k` is bit `k` of
//! the row/column index.

use crate::complex::C64;
use crate::error::QsimError;
use crate::gate::Gate;
use crate::kernel::LaneScalar;
use crate::matrix::CMatrix;
use crate::statevector::Statevector;

/// A mixed quantum state over `num_qubits` qubits.
///
/// # Examples
///
/// ```
/// use qsim::density::DensityMatrix;
/// use qsim::gate::Gate;
///
/// let mut rho = DensityMatrix::new(1).unwrap();
/// rho.apply_gate(Gate::H, &[0]).unwrap();
/// assert!((rho.purity() - 1.0).abs() < 1e-12);
/// rho.reset(0).unwrap(); // non-unitary but exact
/// assert!((rho.probability_one(0).unwrap()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    dim: usize,
    /// Row-major `dim × dim` matrix.
    data: Vec<C64>,
}

/// Memory budget for a single dense density matrix (or operator evolved
/// through its kernels): 2 GiB. A `n`-qubit matrix stores `4^n` complex
/// entries of 16 bytes each, so the widest admissible register is
/// [`max_density_qubits`] — the cap is *derived* from this budget rather
/// than hard-coded, and exceeding it is a recoverable
/// [`QsimError::ExceedsMemoryBudget`], not a panic.
pub const DENSITY_MEMORY_BUDGET_BYTES: usize = 2 << 30;

/// The widest register whose dense density matrix fits
/// [`DENSITY_MEMORY_BUDGET_BYTES`]: the largest `n` with
/// `16 · 4^n ≤ budget` (16 bytes per `C64` entry).
pub const fn max_density_qubits() -> usize {
    let mut n = 0;
    // 4^(n+1) entries × 16 bytes, guarded against shift overflow.
    while 4 * (n + 1) < usize::BITS as usize
        && (core::mem::size_of::<C64>() << (2 * (n + 1))) <= DENSITY_MEMORY_BUDGET_BYTES
    {
        n += 1;
    }
    n
}

// The budget must reproduce the simulator's historical 13-qubit ceiling —
// the swap-test observable build relies on `2n+1 ≤ 13` staying legal for
// the dense small-n oracle.
const _: () = assert!(max_density_qubits() == 13);

impl DensityMatrix {
    /// Creates `|0…0⟩⟨0…0|`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::ExceedsMemoryBudget`] when the `4^n` dense
    /// storage would not fit [`DENSITY_MEMORY_BUDGET_BYTES`].
    pub fn new(num_qubits: usize) -> Result<Self, QsimError> {
        if num_qubits > max_density_qubits() {
            return Err(QsimError::ExceedsMemoryBudget {
                num_qubits,
                max_qubits: max_density_qubits(),
            });
        }
        let dim = 1usize << num_qubits;
        let mut data = vec![C64::ZERO; dim * dim];
        data[0] = C64::ONE;
        Ok(DensityMatrix {
            num_qubits,
            dim,
            data,
        })
    }

    /// Wraps an arbitrary square matrix over a power-of-two dimension as a
    /// `DensityMatrix`, so the gate/Kraus/superoperator kernels can evolve
    /// it. Every kernel is a *linear* map on the matrix entries, so this is
    /// also the door to operator algebra beyond states: evolving the
    /// matrix-unit basis `E_ij` column-by-column yields a channel's
    /// superoperator, and evolving a POVM element backwards (adjoint
    /// kernels) yields Heisenberg-picture observables. Neither use is a
    /// valid quantum state, and no positivity or trace check is applied.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] for a non-square matrix,
    /// [`QsimError::Unsupported`] for a dimension that is not a power of
    /// two, and [`QsimError::ExceedsMemoryBudget`] past the
    /// budget-derived [`max_density_qubits`] limit.
    pub fn from_cmatrix(m: &CMatrix) -> Result<Self, QsimError> {
        let dim = m.rows();
        if m.cols() != dim {
            return Err(QsimError::DimensionMismatch {
                expected: dim,
                actual: m.cols(),
            });
        }
        if !dim.is_power_of_two() {
            return Err(QsimError::Unsupported(format!(
                "operator dimension {dim} must be a power of two"
            )));
        }
        if dim > (1 << max_density_qubits()) {
            return Err(QsimError::ExceedsMemoryBudget {
                num_qubits: dim.trailing_zeros() as usize,
                max_qubits: max_density_qubits(),
            });
        }
        let num_qubits = dim.trailing_zeros() as usize;
        let mut data = vec![C64::ZERO; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                data[i * dim + j] = m[(i, j)];
            }
        }
        Ok(DensityMatrix {
            num_qubits,
            dim,
            data,
        })
    }

    /// The raw row-major entries — equivalently `vec(ρ)` in the row-major
    /// vectorisation convention used by [`superop_from_kraus`].
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Builds the pure-state density matrix `|ψ⟩⟨ψ|`.
    pub fn from_statevector(sv: &Statevector) -> Self {
        let dim = sv.dim();
        let amps = sv.amplitudes();
        let mut data = vec![C64::ZERO; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                data[i * dim + j] = amps[i] * amps[j].conj();
            }
        }
        DensityMatrix {
            num_qubits: sv.num_qubits(),
            dim,
            data,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Hilbert-space dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> C64 {
        self.data[i * self.dim + j]
    }

    /// Trace of the density matrix (1 for a valid state).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|i| self.at(i, i).re).sum()
    }

    /// Purity `Tr(ρ²)`; 1 for pure states, `1/2^n` for the maximally mixed
    /// state.
    pub fn purity(&self) -> f64 {
        // Tr(ρ²) = Σ_ij ρ_ij ρ_ji = Σ_ij |ρ_ij|² for Hermitian ρ.
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// The basis-state probabilities (the real diagonal).
    pub fn diagonal_probabilities(&self) -> Vec<f64> {
        (0..self.dim).map(|i| self.at(i, i).re.max(0.0)).collect()
    }

    /// Probability that qubit `q` reads `|1⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for a bad operand.
    pub fn probability_one(&self, q: usize) -> Result<f64, QsimError> {
        if q >= self.num_qubits {
            return Err(QsimError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.num_qubits,
            });
        }
        let mask = 1usize << q;
        Ok((0..self.dim)
            .filter(|i| i & mask != 0)
            .map(|i| self.at(i, i).re)
            .sum())
    }

    fn check_qubits(&self, qubits: &[usize]) -> Result<(), QsimError> {
        for (i, &q) in qubits.iter().enumerate() {
            if q >= self.num_qubits {
                return Err(QsimError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
            if qubits[..i].contains(&q) {
                return Err(QsimError::DuplicateQubit { qubit: q });
            }
        }
        Ok(())
    }

    /// Applies a unitary gate: `ρ → U ρ U†`.
    ///
    /// # Errors
    ///
    /// Returns an operand-validation error (see
    /// [`Statevector::apply_gate`](crate::statevector::Statevector::apply_gate)).
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) -> Result<(), QsimError> {
        self.check_qubits(qubits)?;
        if qubits.len() != gate.num_qubits() {
            return Err(QsimError::DimensionMismatch {
                expected: gate.num_qubits(),
                actual: qubits.len(),
            });
        }
        // Fast paths for the two gate classes that dominate lowered
        // circuits: single-qubit unitaries (fused 4×4 superoperator) and
        // CX (a pure index permutation).
        if gate.num_qubits() == 1 {
            let u = gate.matrix_1q();
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
            return self.apply_superop_1q(qubits[0], &s);
        }
        if gate == Gate::CX {
            self.permute_cx(qubits[0], qubits[1]);
            return Ok(());
        }
        let m = gate.matrix();
        self.apply_unitary_small(&m, qubits);
        Ok(())
    }

    /// `ρ → CX ρ CX` as a row/column permutation (CX is self-inverse).
    fn permute_cx(&mut self, control: usize, target: usize) {
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        let dim = self.dim;
        // Swap row pairs (i, i ^ tmask) for rows with the control bit set.
        for i in 0..dim {
            if i & cmask != 0 && i & tmask == 0 {
                let j = i | tmask;
                for col in 0..dim {
                    self.data.swap(i * dim + col, j * dim + col);
                }
            }
        }
        // Swap column pairs likewise.
        for row in 0..dim {
            let base = row * dim;
            for i in 0..dim {
                if i & cmask != 0 && i & tmask == 0 {
                    self.data.swap(base + i, base + (i | tmask));
                }
            }
        }
    }

    /// Applies an arbitrary small unitary (2, 4 or 8 dimensional) given as a
    /// dense matrix over the listed qubits (first operand = most significant
    /// sub-index bit). Exposed for the transpiler's equivalence tests.
    pub fn apply_unitary_small(&mut self, m: &CMatrix, qubits: &[usize]) {
        self.left_mul_small(m, qubits);
        self.right_mul_dagger_small(m, qubits);
    }

    /// Applies a Kraus channel `ρ → Σ_m K_m ρ K_m†` over the listed qubits.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if a Kraus operator's
    /// dimension does not match `2^{qubits.len()}`.
    pub fn apply_kraus(&mut self, kraus: &[CMatrix], qubits: &[usize]) -> Result<(), QsimError> {
        self.check_qubits(qubits)?;
        let k = 1usize << qubits.len();
        for op in kraus {
            if op.rows() != k || op.cols() != k {
                return Err(QsimError::DimensionMismatch {
                    expected: k,
                    actual: op.rows(),
                });
            }
        }
        let mut acc = vec![C64::ZERO; self.data.len()];
        let original = self.data.clone();
        for op in kraus {
            self.data.copy_from_slice(&original);
            self.left_mul_small(op, qubits);
            self.right_mul_dagger_small(op, qubits);
            for (a, &b) in acc.iter_mut().zip(&self.data) {
                *a += b;
            }
        }
        self.data = acc;
        Ok(())
    }

    /// Exact reset of qubit `q` to `|0⟩` via the Kraus pair
    /// `{|0⟩⟨0|, |0⟩⟨1|}`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for a bad operand.
    pub fn reset(&mut self, q: usize) -> Result<(), QsimError> {
        let k0 = CMatrix::from_rows(&[&[C64::ONE, C64::ZERO], &[C64::ZERO, C64::ZERO]]);
        let k1 = CMatrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ZERO, C64::ZERO]]);
        self.apply_kraus(&[k0, k1], &[q])
    }

    /// Dephases qubit `q` in the computational basis (projective measurement
    /// whose outcome is discarded into the classical record). Used to model
    /// mid-circuit measurement exactly.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for a bad operand.
    pub fn dephase(&mut self, q: usize) -> Result<(), QsimError> {
        let p0 = CMatrix::from_rows(&[&[C64::ONE, C64::ZERO], &[C64::ZERO, C64::ZERO]]);
        let p1 = CMatrix::from_rows(&[&[C64::ZERO, C64::ZERO], &[C64::ZERO, C64::ONE]]);
        self.apply_kraus(&[p0, p1], &[q])
    }

    /// `A = M · ρ` where `M` acts on the sub-space of `qubits`.
    fn left_mul_small(&mut self, m: &CMatrix, qubits: &[usize]) {
        let k = qubits.len();
        let sub_dim = 1usize << k;
        let dim = self.dim;
        // Enumerate row groups: rows that differ only in the operand bits.
        let mut scratch = vec![C64::ZERO; sub_dim];
        let masks: Vec<usize> = qubits.iter().map(|&q| 1usize << q).collect();
        let all_mask: usize = masks.iter().sum();
        for col in 0..dim {
            for base in 0..dim {
                if base & all_mask != 0 {
                    continue;
                }
                // Gather, transform, scatter the sub_dim rows of this group.
                for (s, slot) in scratch.iter_mut().enumerate() {
                    let row = expand_index(base, s, &masks, k);
                    *slot = self.data[row * dim + col];
                }
                for s_out in 0..sub_dim {
                    let mut acc = C64::ZERO;
                    for s_in in 0..sub_dim {
                        acc += m[(s_out, s_in)] * scratch[s_in];
                    }
                    let row = expand_index(base, s_out, &masks, k);
                    self.data[row * dim + col] = acc;
                }
            }
        }
    }

    /// `A = ρ · M†` where `M` acts on the sub-space of `qubits`.
    fn right_mul_dagger_small(&mut self, m: &CMatrix, qubits: &[usize]) {
        let k = qubits.len();
        let sub_dim = 1usize << k;
        let dim = self.dim;
        let mut scratch = vec![C64::ZERO; sub_dim];
        let masks: Vec<usize> = qubits.iter().map(|&q| 1usize << q).collect();
        let all_mask: usize = masks.iter().sum();
        for row in 0..dim {
            for base in 0..dim {
                if base & all_mask != 0 {
                    continue;
                }
                for (s, slot) in scratch.iter_mut().enumerate() {
                    let col = expand_index(base, s, &masks, k);
                    *slot = self.data[row * dim + col];
                }
                for s_out in 0..sub_dim {
                    // (ρ M†)[row, col_out] = Σ_in ρ[row, col_in] · conj(M[col_out, col_in])
                    let mut acc = C64::ZERO;
                    for s_in in 0..sub_dim {
                        acc += scratch[s_in] * m[(s_out, s_in)].conj();
                    }
                    let col = expand_index(base, s_out, &masks, k);
                    self.data[row * dim + col] = acc;
                }
            }
        }
    }

    /// Applies a precomputed single-qubit superoperator to qubit `q`.
    ///
    /// `s` is the 4×4 row-major matrix acting on the vectorised 2×2 block
    /// `[ρ00, ρ01, ρ10, ρ11]` (row bit first). Built from Kraus operators
    /// with [`superop_from_kraus`]; composing a gate's full channel stack
    /// into one superoperator makes the noisy backend ~8× faster than
    /// repeated [`DensityMatrix::apply_kraus`] calls.
    ///
    /// The stride-paired updates run in lane form: for each row pair the
    /// four matrix sub-blocks are contiguous column runs of length
    /// `2^q`, so the 4×4 map applies elementwise across four zipped
    /// slices — bounds-check-free loops the compiler autovectorises,
    /// with per-element operations identical to the indexed original.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for a bad operand.
    pub fn apply_superop_1q(&mut self, q: usize, s: &[[C64; 4]; 4]) -> Result<(), QsimError> {
        self.check_qubits(&[q])?;
        let stride = 1usize << q;
        let dim = self.dim;
        let mut rbase = 0;
        while rbase < dim {
            for r0 in rbase..rbase + stride {
                let r1 = r0 + stride;
                // Rows r0 < r1: split the storage so both are borrowed at
                // once, then walk their paired column runs.
                let (head, tail) = self.data.split_at_mut(r1 * dim);
                let row0 = &mut head[r0 * dim..r0 * dim + dim];
                let row1 = &mut tail[..dim];
                let mut cbase = 0;
                while cbase < dim {
                    let (r0lo, r0hi) = row0[cbase..cbase + (stride << 1)].split_at_mut(stride);
                    let (r1lo, r1hi) = row1[cbase..cbase + (stride << 1)].split_at_mut(stride);
                    for (((v0, v1), v2), v3) in r0lo
                        .iter_mut()
                        .zip(r0hi.iter_mut())
                        .zip(r1lo.iter_mut())
                        .zip(r1hi.iter_mut())
                    {
                        let v = [*v0, *v1, *v2, *v3];
                        let mut out = [C64::ZERO; 4];
                        for (i, o) in out.iter_mut().enumerate() {
                            let row = &s[i];
                            *o = row[0] * v[0] + row[1] * v[1] + row[2] * v[2] + row[3] * v[3];
                        }
                        *v0 = out[0];
                        *v1 = out[1];
                        *v2 = out[2];
                        *v3 = out[3];
                    }
                    cbase += stride << 1;
                }
            }
            rbase += stride << 1;
        }
        Ok(())
    }

    /// Applies a precomputed two-qubit superoperator to `(qa, qb)` (`qa`
    /// is the most significant sub-index bit). `s` is 16×16 row-major over
    /// the vectorised 4×4 block.
    ///
    /// # Errors
    ///
    /// Returns an operand-validation error for bad qubit indices or a
    /// dimension error if `s` is not 16×16.
    pub fn apply_superop_2q(&mut self, qa: usize, qb: usize, s: &CMatrix) -> Result<(), QsimError> {
        self.check_qubits(&[qa, qb])?;
        if s.rows() != 16 || s.cols() != 16 {
            return Err(QsimError::DimensionMismatch {
                expected: 16,
                actual: s.rows(),
            });
        }
        let ma = 1usize << qa;
        let mb = 1usize << qb;
        let both = ma | mb;
        let dim = self.dim;
        // Row/column sub-index expansion: sub 0..4, bit1 = qa, bit0 = qb.
        let expand = |base: usize, sub: usize| -> usize {
            let mut idx = base;
            if sub & 2 != 0 {
                idx |= ma;
            }
            if sub & 1 != 0 {
                idx |= mb;
            }
            idx
        };
        let mut v = [C64::ZERO; 16];
        for r_base in 0..dim {
            if r_base & both != 0 {
                continue;
            }
            for c_base in 0..dim {
                if c_base & both != 0 {
                    continue;
                }
                for rs in 0..4 {
                    let row = expand(r_base, rs);
                    for cs in 0..4 {
                        v[rs * 4 + cs] = self.data[row * dim + expand(c_base, cs)];
                    }
                }
                for rs in 0..4 {
                    let row = expand(r_base, rs);
                    for cs in 0..4 {
                        let i = rs * 4 + cs;
                        let mut acc = C64::ZERO;
                        for (j, &vj) in v.iter().enumerate() {
                            acc += s[(i, j)] * vj;
                        }
                        self.data[row * dim + expand(c_base, cs)] = acc;
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies the two-qubit depolarizing channel with Kraus parameter `p`
    /// directly via its closed form
    /// `ρ → (1−λ)ρ + λ (I/4) ⊗ Tr_{ab}(ρ)` with `λ = 16p/15` — equivalent
    /// to the 16-operator Kraus set of
    /// [`crate::noise::depolarizing_2q`] but ~15× cheaper.
    ///
    /// # Errors
    ///
    /// Returns an operand-validation error or
    /// [`QsimError::InvalidProbability`] if `p` is outside `[0, 15/16]`.
    pub fn apply_depolarizing_2q(&mut self, qa: usize, qb: usize, p: f64) -> Result<(), QsimError> {
        self.check_qubits(&[qa, qb])?;
        let lambda = 16.0 * p / 15.0;
        if !(0.0..=1.0).contains(&lambda) {
            return Err(QsimError::InvalidProbability { value: p });
        }
        let ma = 1usize << qa;
        let mb = 1usize << qb;
        let both = ma | mb;
        let dim = self.dim;
        let keep = 1.0 - lambda;
        let expand = |base: usize, sub: usize| -> usize {
            let mut idx = base;
            if sub & 2 != 0 {
                idx |= ma;
            }
            if sub & 1 != 0 {
                idx |= mb;
            }
            idx
        };
        for r_base in 0..dim {
            if r_base & both != 0 {
                continue;
            }
            for c_base in 0..dim {
                if c_base & both != 0 {
                    continue;
                }
                // Block trace over the two-qubit subsystem.
                let mut t = C64::ZERO;
                for s in 0..4 {
                    t += self.data[expand(r_base, s) * dim + expand(c_base, s)];
                }
                let mixed = t.scale(lambda / 4.0);
                for rs in 0..4 {
                    let row = expand(r_base, rs) * dim;
                    for cs in 0..4 {
                        let idx = row + expand(c_base, cs);
                        let mut v = self.data[idx].scale(keep);
                        if rs == cs {
                            v += mixed;
                        }
                        self.data[idx] = v;
                    }
                }
            }
        }
        Ok(())
    }

    /// Traces out every qubit *not* listed in `keep`, returning the reduced
    /// density matrix over `keep` (in the given order: first listed qubit
    /// becomes the most significant bit of the reduced index).
    ///
    /// # Errors
    ///
    /// Returns an operand-validation error for bad qubit indices.
    pub fn partial_trace(&self, keep: &[usize]) -> Result<DensityMatrix, QsimError> {
        self.check_qubits(keep)?;
        let k = keep.len();
        let sub_dim = 1usize << k;
        let masks: Vec<usize> = keep.iter().map(|&q| 1usize << q).collect();
        let all_mask: usize = masks.iter().sum();
        let mut out = vec![C64::ZERO; sub_dim * sub_dim];
        for i in 0..self.dim {
            let si = compress_index(i, &masks, k);
            let rest_i = i & !all_mask;
            for j in 0..self.dim {
                if (j & !all_mask) != rest_i {
                    continue;
                }
                let sj = compress_index(j, &masks, k);
                out[si * sub_dim + sj] += self.at(i, j);
            }
        }
        Ok(DensityMatrix {
            num_qubits: k,
            dim: sub_dim,
            data: out,
        })
    }

    /// Returns the full matrix as a [`CMatrix`] (for tests/diagnostics).
    pub fn to_cmatrix(&self) -> CMatrix {
        let mut m = CMatrix::zeros(self.dim, self.dim);
        for i in 0..self.dim {
            for j in 0..self.dim {
                m[(i, j)] = self.at(i, j);
            }
        }
        m
    }

    /// Hilbert–Schmidt overlap `Tr(ρ σ)`, the mixed-state generalisation of
    /// fidelity used by the SWAP test.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if widths differ.
    pub fn overlap(&self, other: &DensityMatrix) -> Result<f64, QsimError> {
        if self.dim != other.dim {
            return Err(QsimError::DimensionMismatch {
                expected: self.dim,
                actual: other.dim,
            });
        }
        // Tr(ρσ) = Σ_ij ρ_ij σ_ji; both Hermitian so the result is real.
        let mut acc = C64::ZERO;
        for i in 0..self.dim {
            for j in 0..self.dim {
                acc += self.at(i, j) * other.at(j, i);
            }
        }
        Ok(acc.re)
    }
}

/// Applies a per-column RY conjugation `ρ_j → RY(θ_j) ρ_j RY(θ_j)†` on
/// one qubit of a **real batched vec(ρ) panel**: `data` is the row-major
/// `dim² × samples` matrix whose column `j` is the row-major vectorisation
/// of sample `j`'s real `dim × dim` density matrix, and `cc`/`cs`/`ss`
/// hold the per-sample coefficients `cos²(θ_j/2)`, `cos(θ_j/2)·sin(θ_j/2)`,
/// `sin²(θ_j/2)`.
///
/// This is the only sample-dependent operation in the lockstep noisy
/// state preparation: everything else in the Möttönen skeleton is shared
/// across the batch and applied to the whole panel. For each (row-pair,
/// column-pair) sub-block of ρ the four affected vec rows are
/// *contiguous sample-lane runs* of the panel, so the real 4×4 rotation
/// superoperator applies across all samples at once through
/// [`crate::kernel::ry_conj_lanes`] (runtime-AVX-recompiled); per lane the
/// arithmetic matches the real plane of [`DensityMatrix::apply_gate`]'s
/// fused superoperator term for term. The preparation is this kernel's
/// only caller, and its panels are real, so it takes `f64` lanes only.
///
/// # Panics
///
/// Panics when `data.len() != dim² · samples`, `dim` is not a power of
/// two, `qubit` is out of range, or a coefficient slice is not
/// `samples` long.
pub fn ry_conjugate_columns(
    data: &mut [f64],
    dim: usize,
    samples: usize,
    qubit: usize,
    cc: &[f64],
    cs: &[f64],
    ss: &[f64],
) {
    assert!(dim.is_power_of_two(), "ρ dimension must be a power of two");
    assert!(1usize << qubit < dim, "qubit out of range");
    assert_eq!(data.len(), dim * dim * samples, "panel shape mismatch");
    assert_eq!(cc.len(), samples, "coefficient lanes mismatch");
    assert_eq!(cs.len(), samples, "coefficient lanes mismatch");
    assert_eq!(ss.len(), samples, "coefficient lanes mismatch");
    if samples == 0 {
        return;
    }
    let mask = 1usize << qubit;
    for r0 in (0..dim).filter(|r| r & mask == 0) {
        for c0 in (0..dim).filter(|c| c & mask == 0) {
            let (v0, v1, v2, v3) = sub_block_rows_mut(data, dim, samples, mask, r0, c0);
            crate::kernel::ry_conj_lanes(v0, v1, v2, v3, cc, cs, ss);
        }
    }
}

/// Borrows the four vec rows of one single-qubit sub-block of a
/// `dim² × samples` vec(ρ) panel — `(ρ00, ρ01, ρ10, ρ11)` for the
/// `(r0, c0)` base indices and the qubit's bit `mask` — as disjoint
/// mutable lane runs (the vec rows are strictly ascending, so the panel
/// splits cleanly).
#[allow(clippy::type_complexity)] // four borrows of one panel, nothing more
fn sub_block_rows_mut<T>(
    data: &mut [T],
    dim: usize,
    samples: usize,
    mask: usize,
    r0: usize,
    c0: usize,
) -> (&mut [T], &mut [T], &mut [T], &mut [T]) {
    let i00 = (r0 * dim + c0) * samples;
    let i01 = (r0 * dim + c0 + mask) * samples;
    let i10 = ((r0 + mask) * dim + c0) * samples;
    let i11 = ((r0 + mask) * dim + c0 + mask) * samples;
    let (head0, rest) = data.split_at_mut(i01);
    let (head1, rest1) = rest.split_at_mut(i10 - i01);
    let (head2, rest2) = rest1.split_at_mut(i11 - i10);
    (
        &mut head0[i00..i00 + samples],
        &mut head1[..samples],
        &mut head2[..samples],
        &mut rest2[..samples],
    )
}

/// Applies a shared single-qubit superoperator (e.g. a fused noise
/// channel) to `qubit` of **every column** of a `dim² × samples` vec(ρ)
/// panel: the lockstep analogue of
/// [`DensityMatrix::apply_superop_1q`], with identical per-element term
/// order — the whole batch pays one pass of contiguous lane sweeps
/// ([`crate::kernel::superop4_lanes`]) instead of `S` strided per-sample
/// applications. Generic over the lane scalar: the noisy preparation
/// runs it on a real panel with a real channel, the structured engine's
/// channel programs on a complex one.
///
/// # Panics
///
/// Same contract as [`ry_conjugate_columns`].
pub fn apply_superop_1q_columns<T: LaneScalar>(
    data: &mut [T],
    dim: usize,
    samples: usize,
    qubit: usize,
    s: &[[T; 4]; 4],
) {
    assert!(dim.is_power_of_two(), "ρ dimension must be a power of two");
    assert!(1usize << qubit < dim, "qubit out of range");
    assert_eq!(data.len(), dim * dim * samples, "panel shape mismatch");
    if samples == 0 {
        return;
    }
    let mask = 1usize << qubit;
    for r0 in (0..dim).filter(|r| r & mask == 0) {
        for c0 in (0..dim).filter(|c| c & mask == 0) {
            let (v0, v1, v2, v3) = sub_block_rows_mut(data, dim, samples, mask, r0, c0);
            crate::kernel::superop4_lanes(v0, v1, v2, v3, s);
        }
    }
}

/// Applies the CX conjugation `ρ_j → CX ρ_j CX` to **every column** of a
/// `dim² × samples` vec(ρ) panel. CX is a basis permutation, so on vec
/// indices this is a pure involution of panel rows — `(r, c) ↦
/// (cx(r), cx(c))` with `cx` flipping the target bit where the control
/// bit is set — executed as whole-lane row swaps with no arithmetic at
/// all (exactly [`DensityMatrix::apply_gate`]'s CX fast path, batched),
/// for either lane scalar.
///
/// # Panics
///
/// Panics on a malformed panel shape or out-of-range/duplicate qubits.
pub fn permute_cx_columns<T>(
    data: &mut [T],
    dim: usize,
    samples: usize,
    control: usize,
    target: usize,
) {
    assert!(dim.is_power_of_two(), "ρ dimension must be a power of two");
    assert!(1usize << control < dim, "control out of range");
    assert!(1usize << target < dim, "target out of range");
    assert_ne!(control, target, "operands must differ");
    assert_eq!(data.len(), dim * dim * samples, "panel shape mismatch");
    if samples == 0 {
        return;
    }
    let cmask = 1usize << control;
    let tmask = 1usize << target;
    let cx = |i: usize| if i & cmask != 0 { i ^ tmask } else { i };
    for r in 0..dim {
        for c in 0..dim {
            let from = r * dim + c;
            let to = cx(r) * dim + cx(c);
            if to > from {
                let (head, tail) = data.split_at_mut(to * samples);
                head[from * samples..from * samples + samples]
                    .swap_with_slice(&mut tail[..samples]);
            }
        }
    }
}

/// Lanes per block-trace chunk in [`apply_depolarizing_2q_columns`]: the
/// traces of one sub-block live in a stack array of this many lanes, so
/// the kernel never allocates, and a
/// [`crate::matrix::GEMM_COL_BLOCK`]-wide panel block fits one chunk.
const DEPOL_TRACE_LANES: usize = crate::matrix::GEMM_COL_BLOCK;

/// Applies the closed-form two-qubit depolarizing channel to `(qa, qb)`
/// of **every column** of a `dim² × samples` vec(ρ) panel — the lockstep
/// analogue of [`DensityMatrix::apply_depolarizing_2q`], per-element
/// expressions replicated exactly, for either lane scalar. Each
/// sub-block's lane-wise traces are accumulated in a fixed-size stack
/// chunk, so the kernel allocates nothing. Dispatched through the
/// runtime AVX recompilation ladder of [`crate::kernel`]'s lane kernels.
///
/// # Panics
///
/// Panics on a malformed panel shape, bad operands, or `p` outside
/// `[0, 15/16]`.
pub fn apply_depolarizing_2q_columns<T: LaneScalar>(
    data: &mut [T],
    dim: usize,
    samples: usize,
    qa: usize,
    qb: usize,
    p: f64,
) {
    assert!(dim.is_power_of_two(), "ρ dimension must be a power of two");
    assert!(1usize << qa < dim, "qubit out of range");
    assert!(1usize << qb < dim, "qubit out of range");
    assert_ne!(qa, qb, "operands must differ");
    assert_eq!(data.len(), dim * dim * samples, "panel shape mismatch");
    let lambda = 16.0 * p / 15.0;
    assert!((0.0..=1.0).contains(&lambda), "invalid probability {p}");
    if samples == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::avx512_autovec_active() {
        // SAFETY: `avx512_autovec_active` verified AVX-512 at runtime, the
        // only requirement of the safe `#[target_feature]` rung.
        unsafe {
            depol2q_columns_avx512(data, dim, samples, qa, qb, lambda);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::avx_autovec_active() {
        // SAFETY: `avx_autovec_active` verified AVX at runtime, the only
        // requirement of the safe `#[target_feature]` rung.
        unsafe {
            depol2q_columns_avx(data, dim, samples, qa, qb, lambda);
        }
        return;
    }
    depol2q_columns_body(data, dim, samples, qa, qb, lambda);
}

/// [`apply_depolarizing_2q_columns`]'s body recompiled with 512-bit
/// AVX-512 vectors enabled — identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
fn depol2q_columns_avx512<T: LaneScalar>(
    data: &mut [T],
    dim: usize,
    samples: usize,
    qa: usize,
    qb: usize,
    lambda: f64,
) {
    depol2q_columns_body(data, dim, samples, qa, qb, lambda);
}

/// [`apply_depolarizing_2q_columns`]'s body recompiled with 256-bit AVX
/// vectors enabled — identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn depol2q_columns_avx<T: LaneScalar>(
    data: &mut [T],
    dim: usize,
    samples: usize,
    qa: usize,
    qb: usize,
    lambda: f64,
) {
    depol2q_columns_body(data, dim, samples, qa, qb, lambda);
}

#[inline(always)]
fn depol2q_columns_body<T: LaneScalar>(
    data: &mut [T],
    dim: usize,
    samples: usize,
    qa: usize,
    qb: usize,
    lambda: f64,
) {
    let ma = 1usize << qa;
    let mb = 1usize << qb;
    let both = ma | mb;
    let keep = 1.0 - lambda;
    let quarter = lambda / 4.0;
    // Row/column sub-index expansion: sub 0..4, bit1 = qa, bit0 = qb.
    let expand = |base: usize, sub: usize| -> usize {
        let mut idx = base;
        if sub & 2 != 0 {
            idx |= ma;
        }
        if sub & 1 != 0 {
            idx |= mb;
        }
        idx
    };
    let mut trace = [T::ZERO; DEPOL_TRACE_LANES];
    for r_base in 0..dim {
        if r_base & both != 0 {
            continue;
        }
        for c_base in 0..dim {
            if c_base & both != 0 {
                continue;
            }
            // Lanes are independent, so chunking them leaves every lane's
            // arithmetic as it was.
            for l0 in (0..samples).step_by(DEPOL_TRACE_LANES) {
                let width = (samples - l0).min(DEPOL_TRACE_LANES);
                let mixed = &mut trace[..width];
                // Block trace over the two-qubit subsystem, lane-wise, in
                // the per-sample kernel's s = 0..4 accumulation order.
                mixed.fill(T::ZERO);
                for s in 0..4 {
                    let row = (expand(r_base, s) * dim + expand(c_base, s)) * samples + l0;
                    for (m, &v) in mixed.iter_mut().zip(&data[row..row + width]) {
                        *m += v;
                    }
                }
                for m in mixed.iter_mut() {
                    *m = *m * quarter;
                }
                for rs in 0..4 {
                    let row = expand(r_base, rs) * dim;
                    for cs in 0..4 {
                        let idx = (row + expand(c_base, cs)) * samples + l0;
                        let lanes = &mut data[idx..idx + width];
                        if rs == cs {
                            for (v, &m) in lanes.iter_mut().zip(mixed.iter()) {
                                *v = *v * keep + m;
                            }
                        } else {
                            for v in lanes.iter_mut() {
                                *v = *v * keep;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Borrows `N` pairwise-distinct vec rows of a `dim² × samples` panel as
/// disjoint mutable lane runs, in the caller's slot order. The rows are
/// sorted internally and the panel split sequentially, so arbitrary
/// (e.g. non-monotone two-qubit sub-block) row orders are supported.
fn disjoint_rows_mut<'a, const N: usize>(
    data: &'a mut [crate::complex::C64],
    samples: usize,
    rows: &[usize; N],
) -> [&'a mut [crate::complex::C64]; N] {
    let mut order: [usize; N] = core::array::from_fn(|i| i);
    order.sort_unstable_by_key(|&slot| rows[slot]);
    let mut out: [Option<&mut [crate::complex::C64]>; N] = core::array::from_fn(|_| None);
    let mut rest = data;
    let mut consumed = 0usize;
    for &slot in &order {
        let start = rows[slot] * samples;
        let (head, tail) = core::mem::take(&mut rest).split_at_mut(start - consumed + samples);
        let head_len = head.len();
        out[slot] = Some(&mut head[head_len - samples..]);
        consumed = start + samples;
        rest = tail;
    }
    out.map(|o| o.expect("row indices must be pairwise distinct"))
}

/// Applies a shared two-qubit superoperator (16×16 row-major over the
/// vectorised 4×4 sub-block, `qa` the most significant sub-index bit) to
/// `(qa, qb)` of **every column** of a `dim² × samples` vec(ρ) panel —
/// the lockstep analogue of [`DensityMatrix::apply_superop_2q`], with the
/// same gather → mat-vec → scatter term order per lane
/// ([`crate::kernel::superop16_lanes`], runtime-AVX-recompiled).
///
/// # Panics
///
/// Panics on a malformed panel shape or out-of-range/duplicate qubits.
pub fn apply_superop_2q_columns(
    data: &mut [crate::complex::C64],
    dim: usize,
    samples: usize,
    qa: usize,
    qb: usize,
    s: &[[crate::complex::C64; 16]; 16],
) {
    assert!(dim.is_power_of_two(), "ρ dimension must be a power of two");
    assert!(1usize << qa < dim, "qubit out of range");
    assert!(1usize << qb < dim, "qubit out of range");
    assert_ne!(qa, qb, "operands must differ");
    assert_eq!(data.len(), dim * dim * samples, "panel shape mismatch");
    if samples == 0 {
        return;
    }
    let ma = 1usize << qa;
    let mb = 1usize << qb;
    let both = ma | mb;
    // Row/column sub-index expansion: sub 0..4, bit1 = qa, bit0 = qb.
    let expand = |base: usize, sub: usize| -> usize {
        let mut idx = base;
        if sub & 2 != 0 {
            idx |= ma;
        }
        if sub & 1 != 0 {
            idx |= mb;
        }
        idx
    };
    for r_base in 0..dim {
        if r_base & both != 0 {
            continue;
        }
        for c_base in 0..dim {
            if c_base & both != 0 {
                continue;
            }
            let mut vec_rows = [0usize; 16];
            for rs in 0..4 {
                let row = expand(r_base, rs) * dim;
                for cs in 0..4 {
                    vec_rows[rs * 4 + cs] = row + expand(c_base, cs);
                }
            }
            let mut lanes = disjoint_rows_mut(data, samples, &vec_rows);
            crate::kernel::superop16_lanes(&mut lanes, s);
        }
    }
}

/// Resets `qubit` to `|0⟩` in **every column** of a `dim² × samples`
/// vec(ρ) panel — the lockstep analogue of [`DensityMatrix::reset`]'s
/// Kraus pair `{|0⟩⟨0|, |0⟩⟨1|}`, charged in closed form
/// (`ρ00 ← ρ00 + ρ11`, other sub-block entries zeroed) through
/// [`crate::kernel::reset_lanes`].
///
/// # Panics
///
/// Same contract as [`ry_conjugate_columns`].
pub fn apply_reset_columns(
    data: &mut [crate::complex::C64],
    dim: usize,
    samples: usize,
    qubit: usize,
) {
    assert!(dim.is_power_of_two(), "ρ dimension must be a power of two");
    assert!(1usize << qubit < dim, "qubit out of range");
    assert_eq!(data.len(), dim * dim * samples, "panel shape mismatch");
    if samples == 0 {
        return;
    }
    let mask = 1usize << qubit;
    for r0 in (0..dim).filter(|r| r & mask == 0) {
        for c0 in (0..dim).filter(|c| c & mask == 0) {
            let (v0, v1, v2, v3) = sub_block_rows_mut(data, dim, samples, mask, r0, c0);
            crate::kernel::reset_lanes(v0, v1, v2, v3);
        }
    }
}

/// Applies the amplitude-damping channel with parameter `gamma` to
/// `qubit` of **every column** of a `dim² × samples` vec(ρ) panel — the
/// lockstep closed form of [`crate::noise::amplitude_damping`]'s Kraus
/// pair, charged through [`crate::kernel::amp_damp_lanes`].
///
/// # Panics
///
/// Panics on a malformed panel shape, a bad operand, or `gamma` outside
/// `[0, 1]`.
pub fn apply_amplitude_damping_columns(
    data: &mut [crate::complex::C64],
    dim: usize,
    samples: usize,
    qubit: usize,
    gamma: f64,
) {
    assert!(dim.is_power_of_two(), "ρ dimension must be a power of two");
    assert!(1usize << qubit < dim, "qubit out of range");
    assert_eq!(data.len(), dim * dim * samples, "panel shape mismatch");
    assert!((0.0..=1.0).contains(&gamma), "invalid probability {gamma}");
    if samples == 0 {
        return;
    }
    let damp = (1.0 - gamma).sqrt();
    let mask = 1usize << qubit;
    for r0 in (0..dim).filter(|r| r & mask == 0) {
        for c0 in (0..dim).filter(|c| c & mask == 0) {
            let (v0, v1, v2, v3) = sub_block_rows_mut(data, dim, samples, mask, r0, c0);
            crate::kernel::amp_damp_lanes(v0, v1, v2, v3, gamma, damp);
        }
    }
}

/// Applies the phase-damping channel with parameter `lambda` to `qubit`
/// of **every column** of a `dim² × samples` vec(ρ) panel — the lockstep
/// closed form of [`crate::noise::phase_damping`]'s Kraus pair: only the
/// two coherence rows of each sub-block shrink (by `√(1−λ)`), the
/// populations are untouched ([`crate::kernel::phase_damp_lanes`]).
///
/// # Panics
///
/// Panics on a malformed panel shape, a bad operand, or `lambda` outside
/// `[0, 1]`.
pub fn apply_phase_damping_columns(
    data: &mut [crate::complex::C64],
    dim: usize,
    samples: usize,
    qubit: usize,
    lambda: f64,
) {
    assert!(dim.is_power_of_two(), "ρ dimension must be a power of two");
    assert!(1usize << qubit < dim, "qubit out of range");
    assert_eq!(data.len(), dim * dim * samples, "panel shape mismatch");
    assert!(
        (0.0..=1.0).contains(&lambda),
        "invalid probability {lambda}"
    );
    if samples == 0 {
        return;
    }
    let damp = (1.0 - lambda).sqrt();
    let mask = 1usize << qubit;
    for r0 in (0..dim).filter(|r| r & mask == 0) {
        for c0 in (0..dim).filter(|c| c & mask == 0) {
            let (_, v1, v2, _) = sub_block_rows_mut(data, dim, samples, mask, r0, c0);
            crate::kernel::phase_damp_lanes(v1, v2, damp);
        }
    }
}

/// Builds the superoperator matrix `S = Σ_m K_m ⊗ conj(K_m)` of a Kraus
/// channel, acting on row-major vectorised blocks: for `d`-dimensional
/// Kraus operators the result is `d² × d²` with
/// `S[(i·d+k), (j·d+l)] = Σ_m K_m[i,j] · conj(K_m[k,l])`.
///
/// # Panics
///
/// Panics if the Kraus list is empty or operators are non-square/unequal
/// in size.
pub fn superop_from_kraus(kraus: &[CMatrix]) -> CMatrix {
    assert!(!kraus.is_empty(), "empty Kraus set");
    let d = kraus[0].rows();
    for k in kraus {
        assert_eq!(k.rows(), d, "inconsistent Kraus dimensions");
        assert_eq!(k.cols(), d, "non-square Kraus operator");
    }
    let mut s = CMatrix::zeros(d * d, d * d);
    for k in kraus {
        for i in 0..d {
            for j in 0..d {
                let kij = k[(i, j)];
                if kij == C64::ZERO {
                    continue;
                }
                for kk in 0..d {
                    for l in 0..d {
                        s[(i * d + kk, j * d + l)] += kij * k[(kk, l)].conj();
                    }
                }
            }
        }
    }
    s
}

/// Composes superoperators so that `first` acts before `second`
/// (matrix product `second · first`).
pub fn compose_superops(first: &CMatrix, second: &CMatrix) -> CMatrix {
    second * first
}

/// Converts a 4×4 [`CMatrix`] superoperator into the fixed-size array
/// [`DensityMatrix::apply_superop_1q`] consumes.
///
/// # Panics
///
/// Panics unless the matrix is 4×4.
pub fn superop_to_array_1q(s: &CMatrix) -> [[C64; 4]; 4] {
    assert_eq!((s.rows(), s.cols()), (4, 4), "superoperator must be 4×4");
    let mut out = [[C64::ZERO; 4]; 4];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = s[(i, j)];
        }
    }
    out
}

/// Converts a 16×16 [`CMatrix`] superoperator into the boxed fixed-size
/// array [`apply_superop_2q_columns`] consumes.
///
/// # Panics
///
/// Panics unless the matrix is 16×16.
pub fn superop_to_array_2q(s: &CMatrix) -> Box<[[C64; 16]; 16]> {
    assert_eq!(
        (s.rows(), s.cols()),
        (16, 16),
        "superoperator must be 16×16"
    );
    let mut out = Box::new([[C64::ZERO; 16]; 16]);
    for (i, row) in out.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = s[(i, j)];
        }
    }
    out
}

/// The adjoint (Heisenberg-picture) superoperator of a fused single-qubit
/// channel: for `S = Σ_m K_m ⊗ conj(K_m)` the adjoint channel
/// `X → Σ_m K_m† X K_m` has superoperator `S†`. Feeding the result to
/// [`DensityMatrix::apply_superop_1q`] pulls an observable backwards
/// through the channel.
pub fn superop_adjoint_1q(s: &[[C64; 4]; 4]) -> [[C64; 4]; 4] {
    let mut out = [[C64::ZERO; 4]; 4];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = s[j][i].conj();
        }
    }
    out
}

/// Inserts the bits of `sub` (width `k`) into `base` at the positions given
/// by `masks` (masks[0] = most significant sub bit).
#[inline]
fn expand_index(base: usize, sub: usize, masks: &[usize], k: usize) -> usize {
    let mut idx = base;
    for (pos, &mask) in masks.iter().enumerate() {
        if sub >> (k - 1 - pos) & 1 == 1 {
            idx |= mask;
        }
    }
    idx
}

/// Extracts the sub-index bits of `idx` at `masks` positions.
#[inline]
fn compress_index(idx: usize, masks: &[usize], k: usize) -> usize {
    let mut sub = 0usize;
    for (pos, &mask) in masks.iter().enumerate() {
        if idx & mask != 0 {
            sub |= 1 << (k - 1 - pos);
        }
    }
    sub
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-10;

    #[test]
    fn fresh_state_is_pure_zero() {
        let rho = DensityMatrix::new(2).unwrap();
        assert!((rho.trace() - 1.0).abs() < TOL);
        assert!((rho.purity() - 1.0).abs() < TOL);
        assert!((rho.diagonal_probabilities()[0] - 1.0).abs() < TOL);
    }

    #[test]
    fn gate_evolution_matches_statevector() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut sv = Statevector::new(3);
        let mut rho = DensityMatrix::new(3).unwrap();
        for _ in 0..30 {
            let q = rng.gen_range(0..3);
            let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let choice = rng.gen_range(0..6);
            let (gate, qubits): (Gate, Vec<usize>) = match choice {
                0 => (Gate::RX(theta), vec![q]),
                1 => (Gate::RY(theta), vec![q]),
                2 => (Gate::RZ(theta), vec![q]),
                3 => (Gate::H, vec![q]),
                4 => {
                    let t = (q + 1) % 3;
                    (Gate::CX, vec![q, t])
                }
                _ => {
                    let t = (q + 1) % 3;
                    let u = (q + 2) % 3;
                    (Gate::CSwap, vec![q, t, u])
                }
            };
            sv.apply_gate(gate, &qubits).unwrap();
            rho.apply_gate(gate, &qubits).unwrap();
        }
        let expected = DensityMatrix::from_statevector(&sv);
        assert!(rho.to_cmatrix().approx_eq(&expected.to_cmatrix(), 1e-9));
    }

    #[test]
    fn reset_produces_exact_mixture_marginal() {
        // H then reset: ρ = |0><0| on that qubit, trace preserved.
        let mut rho = DensityMatrix::new(1).unwrap();
        rho.apply_gate(Gate::H, &[0]).unwrap();
        rho.reset(0).unwrap();
        assert!((rho.trace() - 1.0).abs() < TOL);
        assert!(rho.probability_one(0).unwrap().abs() < TOL);
    }

    #[test]
    fn reset_of_entangled_qubit_leaves_partner_mixed() {
        // Bell state; resetting qubit 0 leaves qubit 1 maximally mixed.
        let mut rho = DensityMatrix::new(2).unwrap();
        rho.apply_gate(Gate::H, &[0]).unwrap();
        rho.apply_gate(Gate::CX, &[0, 1]).unwrap();
        rho.reset(0).unwrap();
        assert!((rho.trace() - 1.0).abs() < TOL);
        assert!((rho.probability_one(1).unwrap() - 0.5).abs() < TOL);
        // Purity of the 2-qubit state: qubit0 pure ⊗ qubit1 mixed = 1/2.
        assert!((rho.purity() - 0.5).abs() < TOL);
    }

    #[test]
    fn dephase_kills_coherences() {
        let mut rho = DensityMatrix::new(1).unwrap();
        rho.apply_gate(Gate::H, &[0]).unwrap();
        assert!(rho.at(0, 1).abs() > 0.4);
        rho.dephase(0).unwrap();
        assert!(rho.at(0, 1).abs() < TOL);
        assert!((rho.probability_one(0).unwrap() - 0.5).abs() < TOL);
    }

    #[test]
    fn kraus_identity_channel_is_noop() {
        let mut rho = DensityMatrix::new(2).unwrap();
        rho.apply_gate(Gate::H, &[0]).unwrap();
        rho.apply_gate(Gate::CX, &[0, 1]).unwrap();
        let before = rho.clone();
        rho.apply_kraus(&[CMatrix::identity(2)], &[1]).unwrap();
        assert!(rho.to_cmatrix().approx_eq(&before.to_cmatrix(), TOL));
    }

    #[test]
    fn kraus_dimension_validation() {
        let mut rho = DensityMatrix::new(2).unwrap();
        let err = rho.apply_kraus(&[CMatrix::identity(4)], &[0]).unwrap_err();
        assert!(matches!(err, QsimError::DimensionMismatch { .. }));
    }

    #[test]
    fn two_qubit_kraus_depolarizes_to_mixed() {
        // Full 2q depolarizing: ρ → I/4 via 16 Pauli Kraus ops with p=1.
        let paulis = [Gate::I, Gate::X, Gate::Y, Gate::Z];
        let mut kraus = Vec::new();
        for a in paulis {
            for b in paulis {
                kraus.push(a.matrix().kron(&b.matrix()).scaled(C64::from_real(0.25)));
            }
        }
        let mut rho = DensityMatrix::new(2).unwrap();
        rho.apply_gate(Gate::H, &[0]).unwrap();
        rho.apply_gate(Gate::CX, &[0, 1]).unwrap();
        rho.apply_kraus(&kraus, &[0, 1]).unwrap();
        assert!((rho.trace() - 1.0).abs() < TOL);
        assert!((rho.purity() - 0.25).abs() < TOL);
    }

    #[test]
    fn partial_trace_of_bell_state_is_maximally_mixed() {
        let mut rho = DensityMatrix::new(2).unwrap();
        rho.apply_gate(Gate::H, &[0]).unwrap();
        rho.apply_gate(Gate::CX, &[0, 1]).unwrap();
        let reduced = rho.partial_trace(&[1]).unwrap();
        assert_eq!(reduced.num_qubits(), 1);
        assert!((reduced.at(0, 0).re - 0.5).abs() < TOL);
        assert!((reduced.at(1, 1).re - 0.5).abs() < TOL);
        assert!(reduced.at(0, 1).abs() < TOL);
    }

    #[test]
    fn partial_trace_of_product_state_is_factor() {
        let mut rho = DensityMatrix::new(2).unwrap();
        rho.apply_gate(Gate::X, &[1]).unwrap();
        rho.apply_gate(Gate::H, &[0]).unwrap();
        let reduced = rho.partial_trace(&[0]).unwrap();
        assert!((reduced.at(0, 0).re - 0.5).abs() < TOL);
        assert!((reduced.at(0, 1).re - 0.5).abs() < TOL);
    }

    #[test]
    fn overlap_generalises_fidelity() {
        let mut a = Statevector::new(1);
        a.apply_gate(Gate::H, &[0]).unwrap();
        let b = Statevector::new(1);
        let ra = DensityMatrix::from_statevector(&a);
        let rb = DensityMatrix::from_statevector(&b);
        assert!((ra.overlap(&rb).unwrap() - 0.5).abs() < TOL);
        assert!((ra.overlap(&ra).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn probability_one_checks_range() {
        let rho = DensityMatrix::new(2).unwrap();
        assert!(rho.probability_one(5).is_err());
    }

    fn random_mixed_state(seed: u64) -> DensityMatrix {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rho = DensityMatrix::new(3).unwrap();
        for _ in 0..12 {
            let q = rng.gen_range(0..3);
            rho.apply_gate(Gate::RY(rng.gen_range(0.0..std::f64::consts::TAU)), &[q])
                .unwrap();
            rho.apply_gate(Gate::CX, &[q, (q + 1) % 3]).unwrap();
        }
        rho.apply_kraus(&crate::noise::depolarizing_1q(0.2), &[1])
            .unwrap();
        rho
    }

    #[test]
    fn ry_conjugate_columns_matches_per_sample_gate_application() {
        // A real panel of random mixed states (RY, CX and depolarizing
        // keep them real), one per column, conjugated in lockstep —
        // against DensityMatrix::apply_gate per sample. The lane kernel
        // reproduces the fused superoperator's real-plane arithmetic, so
        // the agreement is exact up to zero signs.
        let samples = 5;
        let n = 3;
        let dim = 1usize << n;
        let states: Vec<DensityMatrix> = (0..samples)
            .map(|j| random_mixed_state(600 + j as u64))
            .collect();
        for qubit in 0..n {
            let thetas: Vec<f64> = (0..samples).map(|j| 0.7 * j as f64 - 1.3).collect();
            let mut panel = vec![0.0; dim * dim * samples];
            for (j, rho) in states.iter().enumerate() {
                for (i, &v) in rho.as_slice().iter().enumerate() {
                    assert_eq!(v.im, 0.0, "sample {j} row {i} is not real");
                    panel[i * samples + j] = v.re;
                }
            }
            let (mut cc, mut cs, mut ss) =
                (vec![0.0; samples], vec![0.0; samples], vec![0.0; samples]);
            for j in 0..samples {
                let half = thetas[j] / 2.0;
                let (c, s) = (half.cos(), half.sin());
                cc[j] = c * c;
                cs[j] = c * s;
                ss[j] = s * s;
            }
            ry_conjugate_columns(&mut panel, dim, samples, qubit, &cc, &cs, &ss);
            for (j, rho) in states.iter().enumerate() {
                let mut expected = rho.clone();
                expected
                    .apply_gate(crate::gate::Gate::RY(thetas[j]), &[qubit])
                    .unwrap();
                for (i, &want) in expected.as_slice().iter().enumerate() {
                    let got = panel[i * samples + j];
                    assert!(
                        (got - want.re).abs() <= 1e-14 && want.im == 0.0,
                        "qubit {qubit} sample {j} row {i}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// A deterministic real panel with no exact zeros, so bitwise
    /// comparisons also pin the signs.
    fn real_panel(len: usize, salt: u64) -> Vec<f64> {
        (0..len)
            .map(|i| 0.05 + ((i as f64 + salt as f64 * 0.61) * 0.7311).sin())
            .collect()
    }

    #[test]
    fn generic_column_kernels_agree_bitwise_across_lane_scalars() {
        // Every generic column kernel, instantiated for f64 and for C64 on
        // the same real panel with a real channel: the f64 output must be
        // the C64 output's real part bit for bit. Lane widths straddle
        // the vector widths so every remainder path runs.
        let n = 3;
        let dim = 1usize << n;
        let gate_noise = crate::simulator::GateNoise::from_model(
            &crate::noise::NoiseModel::brisbane().scaled(2.0),
        );
        let channel = *gate_noise.superop_1q().expect("brisbane has a 1q channel");
        let relax = *gate_noise
            .superop_2q_relax()
            .expect("brisbane has a relaxation channel");
        let random_real: [[C64; 4]; 4] = core::array::from_fn(|i| {
            core::array::from_fn(|j| C64::from_real(((i * 4 + j) as f64 * 0.83).cos()))
        });
        for samples in [1usize, 2, 3, 8, 33] {
            for (case, s) in [channel, relax, random_real].iter().enumerate() {
                let s_real = s.map(|row| row.map(|z| z.re));
                for qubit in 0..n {
                    let mut real = real_panel(dim * dim * samples, (case * 7 + qubit) as u64);
                    let mut complex: Vec<C64> = real.iter().map(|&v| C64::from_real(v)).collect();
                    apply_superop_1q_columns(&mut real, dim, samples, qubit, &s_real);
                    apply_superop_1q_columns(&mut complex, dim, samples, qubit, s);
                    for (i, (x, z)) in real.iter().zip(&complex).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            z.re.to_bits(),
                            "superop S={samples} case {case} qubit {qubit} entry {i}"
                        );
                    }
                }
            }
            for (qa, qb) in [(0usize, 1usize), (2, 0), (1, 2)] {
                let mut real = real_panel(dim * dim * samples, (qa * 3 + qb) as u64);
                let mut complex: Vec<C64> = real.iter().map(|&v| C64::from_real(v)).collect();
                permute_cx_columns(&mut real, dim, samples, qa, qb);
                permute_cx_columns(&mut complex, dim, samples, qa, qb);
                apply_depolarizing_2q_columns(&mut real, dim, samples, qa, qb, 0.07);
                apply_depolarizing_2q_columns(&mut complex, dim, samples, qa, qb, 0.07);
                for (i, (x, z)) in real.iter().zip(&complex).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        z.re.to_bits(),
                        "cx + depolarizing S={samples} ({qa}, {qb}) entry {i}"
                    );
                    assert_eq!(z.im, 0.0);
                }
            }
        }
    }

    #[test]
    fn depolarizing_columns_match_per_sample_past_one_trace_chunk() {
        // Wider than one stack chunk of block traces: every column still
        // equals the per-sample closed form.
        let samples = DEPOL_TRACE_LANES + 5;
        let dim = 8;
        let states: Vec<DensityMatrix> = (0..samples)
            .map(|j| random_mixed_state(900 + j as u64))
            .collect();
        let mut panel = vec![C64::ZERO; dim * dim * samples];
        for (j, rho) in states.iter().enumerate() {
            for (i, &v) in rho.as_slice().iter().enumerate() {
                panel[i * samples + j] = v;
            }
        }
        apply_depolarizing_2q_columns(&mut panel, dim, samples, 2, 0, 0.08);
        for (j, rho) in states.iter().enumerate() {
            let mut expected = rho.clone();
            expected.apply_depolarizing_2q(2, 0, 0.08).unwrap();
            for (i, &want) in expected.as_slice().iter().enumerate() {
                assert_eq!(panel[i * samples + j], want, "sample {j} row {i}");
            }
        }
    }

    #[test]
    fn superop_1q_matches_kraus_application() {
        let kraus = crate::noise::amplitude_damping(0.3);
        let s = superop_to_array_1q(&superop_from_kraus(&kraus));
        for seed in 0..3 {
            let mut a = random_mixed_state(seed);
            let mut b = a.clone();
            a.apply_kraus(&kraus, &[2]).unwrap();
            b.apply_superop_1q(2, &s).unwrap();
            assert!(a.to_cmatrix().approx_eq(&b.to_cmatrix(), 1e-10));
        }
    }

    #[test]
    fn superop_composition_matches_sequential_channels() {
        let depol = crate::noise::depolarizing_1q(0.05);
        let damp = crate::noise::amplitude_damping(0.2);
        let s_first = superop_from_kraus(&depol);
        let s_second = superop_from_kraus(&damp);
        let combined = superop_to_array_1q(&compose_superops(&s_first, &s_second));
        let mut a = random_mixed_state(7);
        let mut b = a.clone();
        a.apply_kraus(&depol, &[0]).unwrap();
        a.apply_kraus(&damp, &[0]).unwrap();
        b.apply_superop_1q(0, &combined).unwrap();
        assert!(a.to_cmatrix().approx_eq(&b.to_cmatrix(), 1e-10));
    }

    #[test]
    fn superop_2q_matches_kraus_application() {
        let kraus = crate::noise::depolarizing_2q(0.1);
        let s = superop_from_kraus(&kraus);
        assert_eq!(s.rows(), 16);
        for seed in 0..3 {
            let mut a = random_mixed_state(100 + seed);
            let mut b = a.clone();
            a.apply_kraus(&kraus, &[0, 2]).unwrap();
            b.apply_superop_2q(0, 2, &s).unwrap();
            assert!(a.to_cmatrix().approx_eq(&b.to_cmatrix(), 1e-10));
        }
    }

    #[test]
    fn identity_superop_is_noop() {
        let id = superop_from_kraus(&[CMatrix::identity(2)]);
        let s = superop_to_array_1q(&id);
        let mut rho = random_mixed_state(3);
        let before = rho.clone();
        rho.apply_superop_1q(1, &s).unwrap();
        assert!(rho.to_cmatrix().approx_eq(&before.to_cmatrix(), 1e-12));
    }

    #[test]
    fn closed_form_depolarizing_2q_matches_kraus() {
        let p = 0.08;
        let kraus = crate::noise::depolarizing_2q(p);
        for seed in 0..3 {
            let mut a = random_mixed_state(50 + seed);
            let mut b = a.clone();
            a.apply_kraus(&kraus, &[2, 0]).unwrap();
            b.apply_depolarizing_2q(2, 0, p).unwrap();
            assert!(
                a.to_cmatrix().approx_eq(&b.to_cmatrix(), 1e-10),
                "closed form diverges from Kraus (seed {seed})"
            );
        }
    }

    #[test]
    fn closed_form_depolarizing_validates() {
        let mut rho = DensityMatrix::new(2).unwrap();
        assert!(rho.apply_depolarizing_2q(0, 1, 1.0).is_err());
        assert!(rho.apply_depolarizing_2q(0, 1, -0.1).is_err());
        assert!(rho.apply_depolarizing_2q(0, 1, 0.0).is_ok());
    }

    #[test]
    fn superop_validation() {
        let mut rho = DensityMatrix::new(2).unwrap();
        let s4 = CMatrix::identity(4);
        assert!(rho.apply_superop_2q(0, 1, &s4).is_err()); // wrong dim
        let s16 = CMatrix::identity(16);
        assert!(rho.apply_superop_2q(0, 5, &s16).is_err()); // bad qubit
    }

    #[test]
    fn from_statevector_is_pure_with_unit_trace() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..4 {
            let mut sv = Statevector::new(3);
            for q in 0..3 {
                sv.apply_gate(Gate::RY(rng.gen_range(0.0..std::f64::consts::TAU)), &[q])
                    .unwrap();
            }
            sv.apply_gate(Gate::CX, &[0, 2]).unwrap();
            let rho = DensityMatrix::from_statevector(&sv);
            assert!((rho.trace() - 1.0).abs() < TOL);
            assert!((rho.purity() - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn kraus_channels_preserve_trace_on_mixed_states() {
        let channels: Vec<(Vec<CMatrix>, Vec<usize>)> = vec![
            (crate::noise::depolarizing_1q(0.13), vec![0]),
            (crate::noise::amplitude_damping(0.4), vec![1]),
            (crate::noise::phase_damping(0.27), vec![2]),
            (crate::noise::depolarizing_2q(0.08), vec![0, 2]),
        ];
        for seed in 0..3 {
            for (kraus, qubits) in &channels {
                let mut rho = random_mixed_state(300 + seed);
                let before = rho.trace();
                rho.apply_kraus(kraus, qubits).unwrap();
                assert!((rho.trace() - before).abs() < TOL);
            }
        }
    }

    #[test]
    fn unital_kraus_channels_never_raise_purity() {
        // Unital channels (those fixing the identity) are purity
        // non-increasing. Amplitude damping is deliberately absent: it is
        // non-unital and *can* purify (it pumps any state toward |0⟩).
        let channels: Vec<(Vec<CMatrix>, Vec<usize>)> = vec![
            (crate::noise::depolarizing_1q(0.2), vec![1]),
            (crate::noise::phase_damping(0.5), vec![0]),
            (crate::noise::depolarizing_2q(0.15), vec![2, 1]),
        ];
        for seed in 0..4 {
            for (kraus, qubits) in &channels {
                let mut rho = random_mixed_state(400 + seed);
                let before = rho.purity();
                rho.apply_kraus(kraus, qubits).unwrap();
                assert!(
                    rho.purity() <= before + TOL,
                    "unital channel raised purity: {} -> {}",
                    before,
                    rho.purity()
                );
            }
        }
    }

    #[test]
    fn amplitude_damping_purifies_the_maximally_mixed_state() {
        // The non-unital counterexample that keeps the test above honest.
        let mut rho = DensityMatrix::new(1).unwrap();
        rho.apply_kraus(&crate::noise::depolarizing_1q(0.75), &[0])
            .unwrap();
        assert!((rho.purity() - 0.5).abs() < TOL);
        rho.apply_kraus(&crate::noise::amplitude_damping(1.0), &[0])
            .unwrap();
        assert!((rho.purity() - 1.0).abs() < TOL);
        assert!((rho.trace() - 1.0).abs() < TOL);
    }

    #[test]
    fn partial_trace_and_overlap_match_statevector_inner_product() {
        // On pure product states Tr(ρ_A σ_A) after tracing out B equals the
        // statevector overlap |⟨a|a'⟩|² of the kept factors.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for _ in 0..4 {
            let (ta, tb) = (
                rng.gen_range(0.0..std::f64::consts::TAU),
                rng.gen_range(0.0..std::f64::consts::TAU),
            );
            // |ψ⟩ = RY(ta)|0⟩ ⊗ junk on qubit 1, |φ⟩ likewise with tb.
            let mut psi = DensityMatrix::new(2).unwrap();
            psi.apply_gate(Gate::RY(ta), &[0]).unwrap();
            psi.apply_gate(Gate::RY(1.3), &[1]).unwrap();
            let mut phi = DensityMatrix::new(2).unwrap();
            phi.apply_gate(Gate::RY(tb), &[0]).unwrap();
            phi.apply_gate(Gate::RX(0.4), &[1]).unwrap();
            let ra = psi.partial_trace(&[0]).unwrap();
            let rb = phi.partial_trace(&[0]).unwrap();
            // Statevector reference for the kept factor.
            let mut a = Statevector::new(1);
            a.apply_gate(Gate::RY(ta), &[0]).unwrap();
            let mut b = Statevector::new(1);
            b.apply_gate(Gate::RY(tb), &[0]).unwrap();
            let inner: C64 = a
                .amplitudes()
                .iter()
                .zip(b.amplitudes())
                .map(|(x, y)| x.conj() * *y)
                .sum();
            assert!((ra.overlap(&rb).unwrap() - inner.norm_sqr()).abs() < TOL);
        }
    }

    #[test]
    fn superop_composition_law_over_three_channels() {
        // S(C3 ∘ C2 ∘ C1) = S3 · S2 · S1, checked against sequential Kraus
        // application on a random mixed state.
        let c1 = crate::noise::depolarizing_1q(0.1);
        let c2 = crate::noise::phase_damping(0.35);
        let c3 = crate::noise::amplitude_damping(0.2);
        let fused = compose_superops(
            &compose_superops(&superop_from_kraus(&c1), &superop_from_kraus(&c2)),
            &superop_from_kraus(&c3),
        );
        let s = superop_to_array_1q(&fused);
        let mut a = random_mixed_state(11);
        let mut b = a.clone();
        a.apply_kraus(&c1, &[2]).unwrap();
        a.apply_kraus(&c2, &[2]).unwrap();
        a.apply_kraus(&c3, &[2]).unwrap();
        b.apply_superop_1q(2, &s).unwrap();
        assert!(a.to_cmatrix().approx_eq(&b.to_cmatrix(), 1e-10));
    }

    #[test]
    fn superop_adjoint_satisfies_heisenberg_duality() {
        // Tr[C(ρ) · X] == Tr[ρ · C†(X)] for a fused non-unital channel.
        let channel = {
            let depol = superop_from_kraus(&crate::noise::depolarizing_1q(0.07));
            let damp = superop_from_kraus(&crate::noise::amplitude_damping(0.3));
            superop_to_array_1q(&compose_superops(&depol, &damp))
        };
        let adjoint = superop_adjoint_1q(&channel);
        let rho = random_mixed_state(5);
        // A non-trivial Hermitian observable: another mixed state works.
        let obs = random_mixed_state(6);
        let mut forward = rho.clone();
        forward.apply_superop_1q(1, &channel).unwrap();
        let mut backward = obs.clone();
        backward.apply_superop_1q(1, &adjoint).unwrap();
        let lhs = forward.overlap(&obs).unwrap();
        let rhs = rho.overlap(&backward).unwrap();
        assert!((lhs - rhs).abs() < 1e-10, "duality broken: {lhs} vs {rhs}");
    }

    #[test]
    fn from_cmatrix_round_trips_and_validates() {
        let rho = random_mixed_state(9);
        let round = DensityMatrix::from_cmatrix(&rho.to_cmatrix()).unwrap();
        assert_eq!(round, rho);
        assert_eq!(round.num_qubits(), 3);
        // Non-square and non-power-of-two dimensions are rejected.
        assert!(DensityMatrix::from_cmatrix(&CMatrix::zeros(4, 2)).is_err());
        assert!(DensityMatrix::from_cmatrix(&CMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn from_cmatrix_entries_evolve_linearly() {
        // Evolving matrix units through a channel and summing reproduces
        // the evolved sum — the linearity that superoperator extraction
        // relies on.
        let kraus = crate::noise::amplitude_damping(0.45);
        let rho = random_mixed_state(14);
        let mut direct = rho.clone();
        direct.apply_kraus(&kraus, &[0]).unwrap();
        let dim = rho.dim();
        let mut acc = CMatrix::zeros(dim, dim);
        let full = rho.to_cmatrix();
        for i in 0..dim {
            for j in 0..dim {
                let mut unit = CMatrix::zeros(dim, dim);
                unit[(i, j)] = C64::ONE;
                let mut e = DensityMatrix::from_cmatrix(&unit).unwrap();
                e.apply_kraus(&kraus, &[0]).unwrap();
                let evolved = e.to_cmatrix();
                for r in 0..dim {
                    for c in 0..dim {
                        acc[(r, c)] += full[(i, j)] * evolved[(r, c)];
                    }
                }
            }
        }
        assert!(acc.approx_eq(&direct.to_cmatrix(), 1e-10));
    }
}
