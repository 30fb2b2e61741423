//! Pure-state simulation: a `2^n`-amplitude statevector with specialised
//! gate kernels.
//!
//! Bit convention matches Qiskit: **qubit `k` is bit `k` (LSB = qubit 0)** of
//! the basis-state index. `Statevector` itself only implements *unitary*
//! evolution plus projective collapse; exact handling of non-unitary resets
//! and measurements (via weighted branching) lives in
//! [`crate::simulator::StatevectorBackend`].

use crate::complex::C64;
use crate::error::QsimError;
use crate::gate::Gate;
use rand::Rng;

/// A pure quantum state over `num_qubits` qubits.
///
/// # Examples
///
/// ```
/// use qsim::statevector::Statevector;
/// use qsim::gate::Gate;
///
/// let mut sv = Statevector::new(2);
/// sv.apply_gate(Gate::H, &[0]).unwrap();
/// sv.apply_gate(Gate::CX, &[0, 1]).unwrap();
/// // Bell state: P(|00>) = P(|11>) = 1/2.
/// let p = sv.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// assert!((p[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Statevector {
    num_qubits: usize,
    amps: Vec<C64>,
}

impl Statevector {
    /// Creates the all-zeros state `|0…0⟩`.
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits <= 28, "statevector would exceed memory");
        let mut amps = vec![C64::ZERO; 1 << num_qubits];
        amps[0] = C64::ONE;
        Statevector { num_qubits, amps }
    }

    /// Creates a state from explicit amplitudes.
    ///
    /// # Errors
    ///
    /// * [`QsimError::DimensionMismatch`] if `amps.len()` is not a power of
    ///   two.
    /// * [`QsimError::NotNormalized`] if the squared norm differs from 1 by
    ///   more than `1e-8`.
    pub fn from_amplitudes(amps: Vec<C64>) -> Result<Self, QsimError> {
        let n = amps.len();
        if n == 0 || n & (n - 1) != 0 {
            return Err(QsimError::DimensionMismatch {
                expected: n.next_power_of_two().max(1),
                actual: n,
            });
        }
        let norm_sqr: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if (norm_sqr - 1.0).abs() > 1e-8 {
            return Err(QsimError::NotNormalized { norm_sqr });
        }
        Ok(Statevector {
            num_qubits: n.trailing_zeros() as usize,
            amps,
        })
    }

    /// Creates a state from non-negative real amplitudes, normalising if the
    /// norm deviates slightly from one (amplitude-embedding helper).
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidAmplitude`] on negative or non-finite
    /// entries, [`QsimError::DimensionMismatch`] on non-power-of-two length,
    /// or [`QsimError::NotNormalized`] if the norm is zero.
    pub fn from_real_amplitudes(values: &[f64]) -> Result<Self, QsimError> {
        let n = values.len();
        if n == 0 || n & (n - 1) != 0 {
            return Err(QsimError::DimensionMismatch {
                expected: n.next_power_of_two().max(1),
                actual: n,
            });
        }
        for (i, &v) in values.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(QsimError::InvalidAmplitude { index: i });
            }
        }
        let norm_sqr: f64 = values.iter().map(|v| v * v).sum();
        if norm_sqr <= 0.0 {
            return Err(QsimError::NotNormalized { norm_sqr });
        }
        let scale = norm_sqr.sqrt().recip();
        Ok(Statevector {
            num_qubits: n.trailing_zeros() as usize,
            amps: values.iter().map(|&v| C64::from_real(v * scale)).collect(),
        })
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Hilbert-space dimension `2^n`.
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Immutable view of the amplitudes, indexed by basis state.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// The amplitude of basis state `index`.
    pub fn amplitude(&self, index: usize) -> C64 {
        self.amps[index]
    }

    /// Squared norm of the state (should be 1 for normalised states).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
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

    /// Applies a gate to the given qubit operands (order matters for
    /// controlled gates: `[control, target]`).
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`], [`QsimError::DuplicateQubit`]
    /// or [`QsimError::DimensionMismatch`] for invalid operands.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) -> Result<(), QsimError> {
        self.check_qubits(qubits)?;
        if qubits.len() != gate.num_qubits() {
            return Err(QsimError::DimensionMismatch {
                expected: gate.num_qubits(),
                actual: qubits.len(),
            });
        }
        match gate {
            Gate::I => {}
            Gate::X => self.kernel_x(qubits[0]),
            Gate::Z => self.kernel_phase_flip(qubits[0], -C64::ONE),
            Gate::S => self.kernel_phase_flip(qubits[0], C64::I),
            Gate::Sdg => self.kernel_phase_flip(qubits[0], -C64::I),
            Gate::T => self.kernel_phase_flip(qubits[0], C64::cis(std::f64::consts::FRAC_PI_4)),
            Gate::Tdg => self.kernel_phase_flip(qubits[0], C64::cis(-std::f64::consts::FRAC_PI_4)),
            Gate::Phase(t) => self.kernel_phase_flip(qubits[0], C64::cis(t)),
            Gate::RZ(t) => self.kernel_rz(qubits[0], t),
            g if g.num_qubits() == 1 => {
                let m = g.matrix_1q();
                self.kernel_1q(qubits[0], &m);
            }
            Gate::CX => self.kernel_cx(qubits[0], qubits[1]),
            Gate::CZ => self.kernel_controlled_phase(qubits[0], qubits[1], -C64::ONE),
            Gate::CPhase(t) => self.kernel_controlled_phase(qubits[0], qubits[1], C64::cis(t)),
            Gate::CRZ(t) => self.kernel_crz(qubits[0], qubits[1], t),
            Gate::Swap => self.kernel_swap(qubits[0], qubits[1]),
            Gate::CCX => self.kernel_ccx(qubits[0], qubits[1], qubits[2]),
            Gate::CSwap => self.kernel_cswap(qubits[0], qubits[1], qubits[2]),
            _ => unreachable!("gate dispatch is exhaustive"),
        }
        Ok(())
    }

    /// Stride-paired single-qubit update in lane form: each `2·stride`
    /// block splits into two contiguous halves (`q` bit clear / set), and
    /// the 2×2 matrix is applied elementwise across the paired lanes — a
    /// bounds-check-free zip that stable rustc autovectorises. The
    /// per-element operations match the previous indexed loop exactly, so
    /// the restructure is bit-identical.
    #[inline]
    fn kernel_1q(&mut self, q: usize, m: &[[C64; 2]; 2]) {
        let stride = 1usize << q;
        let [[m00, m01], [m10, m11]] = *m;
        for block in self.amps.chunks_exact_mut(stride << 1) {
            let (lo, hi) = block.split_at_mut(stride);
            for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
                let (x0, x1) = (*a0, *a1);
                *a0 = m00 * x0 + m01 * x1;
                *a1 = m10 * x0 + m11 * x1;
            }
        }
    }

    #[inline]
    fn kernel_x(&mut self, q: usize) {
        let stride = 1usize << q;
        for block in self.amps.chunks_exact_mut(stride << 1) {
            let (lo, hi) = block.split_at_mut(stride);
            lo.swap_with_slice(hi);
        }
    }

    /// Multiplies amplitudes whose `q` bit is 1 by `factor` — the set-bit
    /// half of each block is one contiguous lane run.
    #[inline]
    fn kernel_phase_flip(&mut self, q: usize, factor: C64) {
        let stride = 1usize << q;
        for block in self.amps.chunks_exact_mut(stride << 1) {
            for a in &mut block[stride..] {
                *a *= factor;
            }
        }
    }

    #[inline]
    fn kernel_rz(&mut self, q: usize, theta: f64) {
        let stride = 1usize << q;
        let minus = C64::cis(-theta / 2.0);
        let plus = C64::cis(theta / 2.0);
        for block in self.amps.chunks_exact_mut(stride << 1) {
            let (lo, hi) = block.split_at_mut(stride);
            for a in lo {
                *a *= minus;
            }
            for a in hi {
                *a *= plus;
            }
        }
    }

    /// Visits every basis index whose `m1` and `m2` bits are both clear,
    /// in ascending order — the base-index enumeration shared by the
    /// two-qubit kernels, restructured from a full-register scan with bit
    /// tests into three nested stride loops over contiguous runs.
    #[inline]
    fn for_each_clear2(dim: usize, m1: usize, m2: usize, mut f: impl FnMut(usize)) {
        let (small, big) = if m1 < m2 { (m1, m2) } else { (m2, m1) };
        let mut hi = 0;
        while hi < dim {
            let mut mid = hi;
            while mid < hi + big {
                for base in mid..mid + small {
                    f(base);
                }
                mid += small << 1;
            }
            hi += big << 1;
        }
    }

    #[inline]
    fn kernel_cx(&mut self, control: usize, target: usize) {
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        let dim = self.amps.len();
        let amps = &mut self.amps;
        Self::for_each_clear2(dim, cmask, tmask, |base| {
            amps.swap(base | cmask, base | cmask | tmask);
        });
    }

    #[inline]
    fn kernel_controlled_phase(&mut self, a: usize, b: usize, factor: C64) {
        let amask = 1usize << a;
        let bmask = 1usize << b;
        let dim = self.amps.len();
        let amps = &mut self.amps;
        Self::for_each_clear2(dim, amask, bmask, |base| {
            amps[base | amask | bmask] *= factor;
        });
    }

    #[inline]
    fn kernel_crz(&mut self, control: usize, target: usize, theta: f64) {
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        let minus = C64::cis(-theta / 2.0);
        let plus = C64::cis(theta / 2.0);
        let dim = self.amps.len();
        let amps = &mut self.amps;
        Self::for_each_clear2(dim, cmask, tmask, |base| {
            amps[base | cmask] *= minus;
            amps[base | cmask | tmask] *= plus;
        });
    }

    #[inline]
    fn kernel_swap(&mut self, a: usize, b: usize) {
        let amask = 1usize << a;
        let bmask = 1usize << b;
        let dim = self.amps.len();
        let amps = &mut self.amps;
        Self::for_each_clear2(dim, amask, bmask, |base| {
            amps.swap(base | amask, base | bmask);
        });
    }

    #[inline]
    fn kernel_ccx(&mut self, c1: usize, c2: usize, t: usize) {
        let cmask = (1usize << c1) | (1usize << c2);
        let tmask = 1usize << t;
        for i in 0..self.amps.len() {
            if i & cmask == cmask && i & tmask == 0 {
                self.amps.swap(i, i | tmask);
            }
        }
    }

    #[inline]
    fn kernel_cswap(&mut self, c: usize, a: usize, b: usize) {
        let cmask = 1usize << c;
        let amask = 1usize << a;
        let bmask = 1usize << b;
        for i in 0..self.amps.len() {
            if i & cmask != 0 && i & amask != 0 && i & bmask == 0 {
                self.amps.swap(i, i ^ amask ^ bmask);
            }
        }
    }

    /// Applies a dense `2^n × 2^n` unitary to the whole register as one
    /// matrix–vector product.
    ///
    /// Combined with [`crate::circuit::Circuit::to_unitary`] this fuses a
    /// fixed subcircuit into a single operation: one cached matrix applied
    /// per state instead of replaying a gate list.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if `u` is not
    /// `dim() × dim()`.
    pub fn apply_unitary(&mut self, u: &crate::matrix::CMatrix) -> Result<(), QsimError> {
        if u.rows() != self.dim() || u.cols() != self.dim() {
            // Report whichever dimension is off (rows first if both are).
            let actual = if u.rows() != self.dim() {
                u.rows()
            } else {
                u.cols()
            };
            return Err(QsimError::DimensionMismatch {
                expected: self.dim(),
                actual,
            });
        }
        self.amps = u.mul_vec(&self.amps);
        Ok(())
    }

    /// Probability of measuring qubit `q` as `|1⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for a bad operand.
    pub fn probability_one(&self, q: usize) -> Result<f64, QsimError> {
        self.check_qubits(&[q])?;
        let mask = 1usize << q;
        Ok(self
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum())
    }

    /// `⟨Z⟩` on qubit `q`: `P(0) − P(1)`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for a bad operand.
    pub fn expectation_z(&self, q: usize) -> Result<f64, QsimError> {
        let p1 = self.probability_one(q)?;
        Ok(1.0 - 2.0 * p1)
    }

    /// Projects qubit `q` onto `outcome` and renormalises, returning the
    /// probability the projection had.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for a bad operand, or
    /// [`QsimError::InvalidProbability`] when the requested outcome has
    /// (numerically) zero probability.
    pub fn collapse(&mut self, q: usize, outcome: bool) -> Result<f64, QsimError> {
        let p1 = self.probability_one(q)?;
        let p = if outcome { p1 } else { 1.0 - p1 };
        if p <= 1e-15 {
            return Err(QsimError::InvalidProbability { value: p });
        }
        let mask = 1usize << q;
        let scale = p.sqrt().recip();
        for (i, a) in self.amps.iter_mut().enumerate() {
            let matches = (i & mask != 0) == outcome;
            *a = if matches { a.scale(scale) } else { C64::ZERO };
        }
        Ok(p)
    }

    /// Measures qubit `q`, sampling the outcome with `rng`, collapsing the
    /// state, and returning the observed bit.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for a bad operand.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Result<bool, QsimError> {
        let p1 = self.probability_one(q)?;
        let outcome = rng.gen::<f64>() < p1;
        // The sampled branch always has positive probability.
        self.collapse(q, outcome)?;
        Ok(outcome)
    }

    /// Resets qubit `q` to `|0⟩` *stochastically* (measure, then flip if the
    /// outcome was 1). For exact reset handling use the branching backend.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for a bad operand.
    pub fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Result<(), QsimError> {
        if self.measure(q, rng)? {
            self.kernel_x(q);
        }
        Ok(())
    }

    /// Full probability distribution over basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Draws `shots` samples of the full register.
    pub fn sample_counts<R: Rng + ?Sized>(
        &self,
        shots: u64,
        rng: &mut R,
    ) -> std::collections::HashMap<u64, u64> {
        let probs = self.probabilities();
        crate::sampling::sample_counts_by_index(&probs, shots, rng)
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .map(|(idx, c)| (idx as u64, c))
            .collect()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if widths differ.
    pub fn inner_product(&self, other: &Statevector) -> Result<C64, QsimError> {
        if self.num_qubits != other.num_qubits {
            return Err(QsimError::DimensionMismatch {
                expected: self.dim(),
                actual: other.dim(),
            });
        }
        Ok(self
            .amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum())
    }

    /// Fidelity `|⟨self|other⟩|²`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if widths differ.
    pub fn fidelity(&self, other: &Statevector) -> Result<f64, QsimError> {
        Ok(self.inner_product(other)?.norm_sqr())
    }

    /// Tensor product `self ⊗ other`; `other`'s qubits become the low bits.
    pub fn tensor(&self, other: &Statevector) -> Statevector {
        let mut amps = vec![C64::ZERO; self.dim() * other.dim()];
        for (i, &a) in self.amps.iter().enumerate() {
            if a == C64::ZERO {
                continue;
            }
            for (j, &b) in other.amps.iter().enumerate() {
                amps[(i << other.num_qubits) | j] = a * b;
            }
        }
        Statevector {
            num_qubits: self.num_qubits + other.num_qubits,
            amps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    const TOL: f64 = 1e-12;

    #[test]
    fn new_state_is_all_zeros() {
        let sv = Statevector::new(3);
        assert_eq!(sv.dim(), 8);
        assert!(sv.amplitude(0).approx_eq(C64::ONE, TOL));
        assert!((sv.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn x_flips_qubit() {
        let mut sv = Statevector::new(2);
        sv.apply_gate(Gate::X, &[1]).unwrap();
        // |10> = index 2
        assert!(sv.amplitude(2).approx_eq(C64::ONE, TOL));
    }

    #[test]
    fn h_creates_uniform_superposition() {
        let mut sv = Statevector::new(1);
        sv.apply_gate(Gate::H, &[0]).unwrap();
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!(sv.amplitude(0).approx_eq(C64::from_real(s), TOL));
        assert!(sv.amplitude(1).approx_eq(C64::from_real(s), TOL));
    }

    #[test]
    fn bell_state_probabilities() {
        let mut sv = Statevector::new(2);
        sv.apply_gate(Gate::H, &[0]).unwrap();
        sv.apply_gate(Gate::CX, &[0, 1]).unwrap();
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < TOL);
        assert!((p[1]).abs() < TOL);
        assert!((p[2]).abs() < TOL);
        assert!((p[3] - 0.5).abs() < TOL);
    }

    #[test]
    fn cx_control_order_matters() {
        // X on qubit 1, then CX with control=1 flips target 0.
        let mut sv = Statevector::new(2);
        sv.apply_gate(Gate::X, &[1]).unwrap();
        sv.apply_gate(Gate::CX, &[1, 0]).unwrap();
        // |11> = index 3
        assert!(sv.amplitude(3).approx_eq(C64::ONE, TOL));
        // Whereas control=0 (still |0⟩ before X... fresh state) does nothing.
        let mut sv2 = Statevector::new(2);
        sv2.apply_gate(Gate::X, &[1]).unwrap();
        sv2.apply_gate(Gate::CX, &[0, 1]).unwrap();
        assert!(sv2.amplitude(2).approx_eq(C64::ONE, TOL));
    }

    #[test]
    fn specialised_kernels_match_dense_matrices() {
        // Apply each gate via kernel and via dense matrix on a random state;
        // results must agree.
        use crate::matrix::CMatrix;
        let mut rng = StdRng::seed_from_u64(7);
        let gates: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::X, vec![1]),
            (Gate::Z, vec![0]),
            (Gate::S, vec![2]),
            (Gate::T, vec![1]),
            (Gate::Phase(0.7), vec![0]),
            (Gate::RZ(1.3), vec![2]),
            (Gate::RX(0.5), vec![1]),
            (Gate::RY(2.1), vec![0]),
            (Gate::H, vec![2]),
            (Gate::CX, vec![0, 2]),
            (Gate::CZ, vec![1, 2]),
            (Gate::CPhase(0.9), vec![2, 0]),
            (Gate::CRZ(1.1), vec![0, 1]),
            (Gate::Swap, vec![0, 2]),
            (Gate::CCX, vec![2, 0, 1]),
            (Gate::CSwap, vec![1, 2, 0]),
        ];
        for (gate, qubits) in gates {
            // Random normalised 3-qubit state.
            let mut raw: Vec<C64> = (0..8)
                .map(|_| C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            let norm: f64 = raw.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
            for a in &mut raw {
                *a = a.scale(1.0 / norm);
            }
            let sv0 = Statevector::from_amplitudes(raw.clone()).unwrap();

            // Kernel path.
            let mut sv_kernel = sv0.clone();
            sv_kernel.apply_gate(gate, &qubits).unwrap();

            // Dense path: build the full 8x8 unitary by embedding.
            let g = gate.matrix();
            let dim = 8usize;
            let mut full = CMatrix::zeros(dim, dim);
            for col in 0..dim {
                // Basis vector |col>, extract the bits of the operand qubits
                // (first operand = most significant in the gate matrix).
                let k = qubits.len();
                let mut sub_in = 0usize;
                for (pos, &q) in qubits.iter().enumerate() {
                    if col >> q & 1 == 1 {
                        sub_in |= 1 << (k - 1 - pos);
                    }
                }
                for sub_out in 0..(1 << k) {
                    let amp = g[(sub_out, sub_in)];
                    if amp == C64::ZERO {
                        continue;
                    }
                    let mut row = col;
                    for (pos, &q) in qubits.iter().enumerate() {
                        let bit = sub_out >> (k - 1 - pos) & 1;
                        row = (row & !(1 << q)) | (bit << q);
                    }
                    full[(row, col)] += amp;
                }
            }
            let dense = full.mul_vec(sv0.amplitudes());
            for (i, (&a, &b)) in sv_kernel.amplitudes().iter().zip(&dense).enumerate() {
                assert!(
                    a.approx_eq(b, 1e-10),
                    "gate {gate:?} on {qubits:?} mismatch at index {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn rotation_composition() {
        // RX(a) then RX(b) equals RX(a+b).
        let mut sv1 = Statevector::new(1);
        sv1.apply_gate(Gate::RX(0.4), &[0]).unwrap();
        sv1.apply_gate(Gate::RX(0.9), &[0]).unwrap();
        let mut sv2 = Statevector::new(1);
        sv2.apply_gate(Gate::RX(1.3), &[0]).unwrap();
        assert!((sv1.fidelity(&sv2).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn probability_one_and_expectation_z() {
        let mut sv = Statevector::new(1);
        sv.apply_gate(Gate::RY(PI / 3.0), &[0]).unwrap();
        // P(1) = sin^2(π/6) = 1/4.
        assert!((sv.probability_one(0).unwrap() - 0.25).abs() < TOL);
        assert!((sv.expectation_z(0).unwrap() - 0.5).abs() < TOL);
    }

    #[test]
    fn collapse_renormalises() {
        let mut sv = Statevector::new(2);
        sv.apply_gate(Gate::H, &[0]).unwrap();
        sv.apply_gate(Gate::CX, &[0, 1]).unwrap();
        let p = sv.collapse(0, true).unwrap();
        assert!((p - 0.5).abs() < TOL);
        // Collapsed Bell state is |11>.
        assert!(sv.amplitude(3).approx_eq(C64::ONE, TOL));
        assert!((sv.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn collapse_to_impossible_outcome_errors() {
        let mut sv = Statevector::new(1);
        assert!(matches!(
            sv.collapse(0, true),
            Err(QsimError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn measure_is_deterministic_on_basis_states() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sv = Statevector::new(2);
        sv.apply_gate(Gate::X, &[1]).unwrap();
        assert!(!sv.measure(0, &mut rng).unwrap());
        assert!(sv.measure(1, &mut rng).unwrap());
    }

    #[test]
    fn reset_always_yields_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let mut sv = Statevector::new(1);
            sv.apply_gate(Gate::H, &[0]).unwrap();
            sv.reset(0, &mut rng).unwrap();
            assert!((sv.probability_one(0).unwrap()).abs() < TOL);
        }
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sv = Statevector::new(1);
        sv.apply_gate(Gate::RY(PI / 3.0), &[0]).unwrap();
        let counts = sv.sample_counts(20_000, &mut rng);
        let ones = *counts.get(&1).unwrap_or(&0) as f64 / 20_000.0;
        assert!((ones - 0.25).abs() < 0.02, "sampled {ones}");
    }

    #[test]
    fn inner_product_and_fidelity() {
        let mut a = Statevector::new(1);
        a.apply_gate(Gate::H, &[0]).unwrap();
        let b = Statevector::new(1);
        let ip = a.inner_product(&b).unwrap();
        assert!((ip.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
        assert!((a.fidelity(&b).unwrap() - 0.5).abs() < TOL);
        assert!((a.fidelity(&a).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn tensor_product_layout() {
        // |1> ⊗ |0> puts the high qubit from `self`.
        let mut one = Statevector::new(1);
        one.apply_gate(Gate::X, &[0]).unwrap();
        let zero = Statevector::new(1);
        let t = one.tensor(&zero);
        // self=|1> becomes bit 1 => index 2.
        assert!(t.amplitude(2).approx_eq(C64::ONE, TOL));
    }

    #[test]
    fn apply_unitary_matches_gate_application() {
        use crate::circuit::Circuit;
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).rz(0.4, 1);
        let u = qc.to_unitary().unwrap();

        let mut via_matrix = Statevector::new(2);
        via_matrix.apply_unitary(&u).unwrap();
        let mut via_gates = Statevector::new(2);
        via_gates.apply_gate(Gate::H, &[0]).unwrap();
        via_gates.apply_gate(Gate::CX, &[0, 1]).unwrap();
        via_gates.apply_gate(Gate::RZ(0.4), &[1]).unwrap();
        assert!((via_matrix.fidelity(&via_gates).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_unitary_rejects_wrong_dimensions() {
        use crate::matrix::CMatrix;
        let mut sv = Statevector::new(2);
        let err = sv.apply_unitary(&CMatrix::zeros(2, 2)).unwrap_err();
        assert!(matches!(
            err,
            QsimError::DimensionMismatch {
                expected: 4,
                actual: 2
            }
        ));
        // A non-square matrix with matching rows reports the bad columns.
        let err = sv.apply_unitary(&CMatrix::zeros(4, 2)).unwrap_err();
        assert!(matches!(
            err,
            QsimError::DimensionMismatch {
                expected: 4,
                actual: 2
            }
        ));
    }

    #[test]
    fn from_amplitudes_validation() {
        assert!(Statevector::from_amplitudes(vec![C64::ONE; 3]).is_err());
        assert!(Statevector::from_amplitudes(vec![C64::ONE, C64::ONE]).is_err());
        assert!(Statevector::from_amplitudes(vec![C64::ONE, C64::ZERO]).is_ok());
    }

    #[test]
    fn from_real_amplitudes_normalises_and_validates() {
        let sv = Statevector::from_real_amplitudes(&[3.0, 4.0]).unwrap();
        assert!((sv.amplitude(0).re - 0.6).abs() < TOL);
        assert!((sv.amplitude(1).re - 0.8).abs() < TOL);
        assert!(Statevector::from_real_amplitudes(&[-1.0, 0.0]).is_err());
        assert!(Statevector::from_real_amplitudes(&[0.0, 0.0]).is_err());
        assert!(Statevector::from_real_amplitudes(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn gate_errors_on_bad_operands() {
        let mut sv = Statevector::new(2);
        assert!(sv.apply_gate(Gate::H, &[4]).is_err());
        assert!(sv.apply_gate(Gate::CX, &[0, 0]).is_err());
        assert!(sv.apply_gate(Gate::CX, &[0]).is_err());
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sv = Statevector::new(4);
        for _ in 0..100 {
            let q = rng.gen_range(0..4);
            let theta = rng.gen_range(0.0..2.0 * PI);
            match rng.gen_range(0..5) {
                0 => sv.apply_gate(Gate::RX(theta), &[q]).unwrap(),
                1 => sv.apply_gate(Gate::RY(theta), &[q]).unwrap(),
                2 => sv.apply_gate(Gate::RZ(theta), &[q]).unwrap(),
                3 => sv.apply_gate(Gate::H, &[q]).unwrap(),
                _ => {
                    let mut t = rng.gen_range(0..4);
                    if t == q {
                        t = (t + 1) % 4;
                    }
                    sv.apply_gate(Gate::CX, &[q, t]).unwrap();
                }
            }
            assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
        }
    }
}
