//! Amplitude-encoding state preparation.
//!
//! Quorum amplitude-encodes each data sample (paper §IV-B). For a
//! non-negative real target vector this is a pure rotation-tree problem:
//! the Möttönen-style construction emits one uniformly-controlled RY
//! multiplexor per tree level, each decomposed recursively into plain RY
//! and CX gates. An `n`-qubit preparation uses `2^n − 1` RY rotations and
//! `2^{n+1} − 2n − 2` CX gates.
//!
//! The construction factors into a **sample-independent skeleton** and a
//! **per-sample angle vector**: the RY/CX tree of [`PrepSkeleton`] depends
//! only on the qubit count, while the data enter solely through the RY
//! rotation angles. No gate is ever pruned on an angle condition —
//! zero-angle rotations are emitted as `RY(0)` — so every sample of a
//! batch walks the *identical* gate sequence. That invariant is what lets
//! the noisy scoring engine evolve a whole block of density matrices in
//! lockstep (one sweep over the block per skeleton position, in which
//! only the RY rotation's coefficients vary per sample), and it keeps
//! per-gate noise accounting independent of the data. The angles of such
//! a block come from one lane-major amplitude block
//! ([`PrepSkeleton::angles_for_lanes`]), every step but `atan2` running
//! across the samples at once; [`PrepSkeleton::angles_for_into`] is its
//! one-sample case. [`prepare_real_amplitudes`] is the skeleton
//! instantiated with one sample's angles.

use crate::circuit::Circuit;
use crate::error::QsimError;
use std::ops::Range;

/// Samples per stack chunk of [`PrepSkeleton::angles_for_lanes`]: one
/// 512-bit vector of `f64`.
const ANGLE_LANES: usize = 8;

/// Builds a circuit over `num_qubits` qubits that maps `|0…0⟩` to
/// `Σ_i a_i |i⟩` for the given non-negative real amplitudes (length
/// `2^num_qubits`, automatically normalised).
///
/// # Errors
///
/// * [`QsimError::DimensionMismatch`] if `amplitudes.len() != 2^num_qubits`.
/// * [`QsimError::InvalidAmplitude`] on negative or non-finite entries.
/// * [`QsimError::NotNormalized`] if all amplitudes are zero.
///
/// # Examples
///
/// ```
/// use qsim::stateprep::prepare_real_amplitudes;
/// use qsim::statevector::Statevector;
/// use qsim::circuit::Operation;
///
/// let amps = [0.5, 0.5, 0.5, 0.5];
/// let circ = prepare_real_amplitudes(2, &amps).unwrap();
/// let mut sv = Statevector::new(2);
/// for instr in circ.instructions() {
///     if let Operation::Gate(g) = &instr.op {
///         sv.apply_gate(*g, &instr.qubits).unwrap();
///     }
/// }
/// assert!((sv.amplitude(3).re - 0.5).abs() < 1e-10);
/// ```
pub fn prepare_real_amplitudes(
    num_qubits: usize,
    amplitudes: &[f64],
) -> Result<Circuit, QsimError> {
    let skeleton = PrepSkeleton::new(num_qubits);
    let angles = skeleton.angles_for(amplitudes)?;
    Ok(skeleton.to_circuit(&angles))
}

/// One gate position of the sample-independent Möttönen skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepStep {
    /// `RY(angles[angle_index])` on `target` — the only sample-dependent
    /// operation in the whole preparation.
    Ry {
        /// The rotated qubit.
        target: usize,
        /// Index into the skeleton's per-sample angle vector.
        angle_index: usize,
    },
    /// `CX(control, target)` — identical for every sample.
    Cx {
        /// The control qubit.
        control: usize,
        /// The target qubit.
        target: usize,
    },
}

/// The sample-independent gate skeleton of an `n`-qubit real-amplitude
/// preparation: the RY/CX tree of the recursive multiplexor decomposition
/// with **no angle-dependent pruning**. Gate positions are a function of
/// the qubit count alone; the per-sample data enter only through the
/// [`PrepSkeleton::angles_for`] vector consumed by the `angle_index` of
/// each [`PrepStep::Ry`].
///
/// # Examples
///
/// ```
/// use qsim::stateprep::PrepSkeleton;
///
/// let skeleton = PrepSkeleton::new(3);
/// assert_eq!(skeleton.num_angles(), 7); // 2^3 − 1 rotations
/// let a = skeleton.angles_for(&[1.0; 8]).unwrap();
/// let b = skeleton.angles_for(&[0.9, 0.1, 0.0, 0.4, 0.2, 0.2, 0.1, 0.3]).unwrap();
/// assert_eq!(a.len(), b.len()); // same positions, different angles
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepSkeleton {
    num_qubits: usize,
    steps: Vec<PrepStep>,
    num_angles: usize,
}

impl PrepSkeleton {
    /// Builds the skeleton for `num_qubits` qubits: level `k` splits on
    /// qubit `n − 1 − k`, controlled by the `k` more significant qubits,
    /// and each multiplexor unrolls recursively into `2^k` RY rotations
    /// interleaved with CX gates — every position emitted unconditionally.
    pub fn new(num_qubits: usize) -> Self {
        let mut steps = Vec::new();
        let mut num_angles = 0usize;
        for k in 0..num_qubits {
            let target = num_qubits - 1 - k;
            // Controls in LSB-first pattern order: pattern bit j
            // corresponds to qubit (target+1+j).
            let controls: Vec<usize> = (0..k).map(|j| target + 1 + j).collect();
            Self::emit_ucry_skeleton(&mut steps, &mut num_angles, 1usize << k, &controls, target);
        }
        PrepSkeleton {
            num_qubits,
            steps,
            num_angles,
        }
    }

    /// The recursive multiplexor skeleton: a k-control multiplexor is two
    /// (k−1)-control multiplexors sandwiched between CX gates — emitted
    /// for every pattern count, with no degenerate-angle collapse.
    fn emit_ucry_skeleton(
        steps: &mut Vec<PrepStep>,
        next_angle: &mut usize,
        patterns: usize,
        controls: &[usize],
        target: usize,
    ) {
        debug_assert_eq!(patterns, 1 << controls.len());
        if controls.is_empty() {
            steps.push(PrepStep::Ry {
                target,
                angle_index: *next_angle,
            });
            *next_angle += 1;
            return;
        }
        let k = controls.len();
        let msb_control = controls[k - 1];
        let inner = &controls[..k - 1];
        Self::emit_ucry_skeleton(steps, next_angle, patterns / 2, inner, target);
        steps.push(PrepStep::Cx {
            control: msb_control,
            target,
        });
        Self::emit_ucry_skeleton(steps, next_angle, patterns / 2, inner, target);
        steps.push(PrepStep::Cx {
            control: msb_control,
            target,
        });
    }

    /// The register width the skeleton prepares.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gate positions, in emission order.
    pub fn steps(&self) -> &[PrepStep] {
        &self.steps
    }

    /// The length of every per-sample angle vector: `2^n − 1`.
    pub fn num_angles(&self) -> usize {
        self.num_angles
    }

    /// Computes one sample's angle vector, in the skeleton's
    /// `angle_index` order, into a caller-owned buffer (cleared first) —
    /// the one-sample case of [`PrepSkeleton::angles_for_lanes`], so it
    /// gives the same bits as every lane of a block. It allocates nothing
    /// once `out` has room for [`PrepSkeleton::num_angles`] entries.
    ///
    /// # Errors
    ///
    /// * [`QsimError::DimensionMismatch`] if
    ///   `amplitudes.len() != 2^num_qubits`.
    /// * [`QsimError::InvalidAmplitude`] on negative or non-finite entries.
    /// * [`QsimError::NotNormalized`] if all amplitudes are zero.
    pub fn angles_for_into(&self, amplitudes: &[f64], out: &mut Vec<f64>) -> Result<(), QsimError> {
        out.clear();
        out.resize(self.num_angles, 0.0);
        self.angles_for_lanes(amplitudes, 1, out)
    }

    /// [`PrepSkeleton::angles_for_into`] returning a fresh vector.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PrepSkeleton::angles_for_into`].
    pub fn angles_for(&self, amplitudes: &[f64]) -> Result<Vec<f64>, QsimError> {
        let mut out = Vec::new();
        self.angles_for_into(amplitudes, &mut out)?;
        Ok(out)
    }

    /// Computes the angle vectors of `width` samples at once: column `j`
    /// of the lane-major `2^n × width` block `amplitudes` (amplitude `i`
    /// at `i·width + j`) yields angle `a` at `out[a·width + j]`, the
    /// angle-major layout a lockstep walk reads one rotation's lanes from.
    ///
    /// Per sample the arithmetic is the textbook one: each level `k`
    /// splits the normalised probabilities `a_i²/Σa²` on qubit
    /// `n − 1 − k`, sums each pattern's two halves over the remaining low
    /// bits in index order, emits `2·atan2(√p1, √p0)`, and resolves the
    /// level's raw angles in place into the half-sum (`beta`) and
    /// half-difference (`gamma`) multiplexors that the skeleton plays
    /// beta-first. Each of those steps runs across up to eight samples at
    /// once on stack lanes, with only `atan2` called per sample, so every
    /// lane gives the bits of its sample computed alone. It allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// The first failing sample's error, as
    /// [`PrepSkeleton::angles_for_into`] returns it for that sample alone
    /// ([`QsimError::InvalidAmplitude`] names the index within the
    /// sample), or [`QsimError::DimensionMismatch`] if
    /// `amplitudes.len() != 2^n · width`. On an error `out` holds no
    /// complete angle block.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != num_angles · width`.
    pub fn angles_for_lanes(
        &self,
        amplitudes: &[f64],
        width: usize,
        out: &mut [f64],
    ) -> Result<(), QsimError> {
        let n = self.num_qubits;
        let dim = 1usize << n;
        if amplitudes.len() != dim * width {
            return Err(QsimError::DimensionMismatch {
                expected: dim * width,
                actual: amplitudes.len(),
            });
        }
        assert_eq!(
            out.len(),
            self.num_angles * width,
            "angle block shape mismatch"
        );
        for l0 in (0..width).step_by(ANGLE_LANES) {
            let w = (width - l0).min(ANGLE_LANES);
            // Amplitude `i` of the chunk's samples.
            let amps = |i: usize| &amplitudes[i * width + l0..][..w];
            let mut norm_sqr = [0.0; ANGLE_LANES];
            for i in 0..dim {
                for (s, &a) in norm_sqr.iter_mut().zip(amps(i)) {
                    *s += a * a;
                }
            }
            let invalid = |a: f64| !a.is_finite() || a < 0.0;
            if (0..dim).any(|i| amps(i).iter().any(|&a| invalid(a)))
                || norm_sqr[..w].iter().any(|&s| s <= 0.0)
            {
                // Name the first failing sample's error, checked in the
                // order one sample alone is.
                for (l, &norm_sqr) in norm_sqr[..w].iter().enumerate() {
                    if let Some(index) = (0..dim).position(|i| invalid(amps(i)[l])) {
                        return Err(QsimError::InvalidAmplitude { index });
                    }
                    if norm_sqr <= 0.0 {
                        return Err(QsimError::NotNormalized { norm_sqr });
                    }
                }
            }
            let lanes = l0..l0 + w;
            let mut row = 0;
            for k in 0..n {
                let start = row;
                let low_bits = n - 1 - k;
                for s in 0..1usize << k {
                    // P(prefix s, next bit b) summed over the remaining
                    // low bits, each probability evaluated where it is
                    // read.
                    let mut p0 = [0.0; ANGLE_LANES];
                    let mut p1 = [0.0; ANGLE_LANES];
                    for rest in 0..1usize << low_bits {
                        let base = (s << (low_bits + 1)) | rest;
                        let (a0, a1) = (amps(base), amps(base | (1 << low_bits)));
                        for l in 0..w {
                            p0[l] += a0[l] * a0[l] / norm_sqr[l];
                            p1[l] += a1[l] * a1[l] / norm_sqr[l];
                        }
                    }
                    for (p0, p1) in p0.iter_mut().zip(p1.iter_mut()) {
                        (*p0, *p1) = (p0.sqrt(), p1.sqrt());
                    }
                    let angles = &mut out[row * width..][lanes.clone()];
                    for ((theta, &r0), &r1) in angles.iter_mut().zip(&p0).zip(&p1) {
                        *theta = 2.0 * r1.atan2(r0);
                    }
                    row += 1;
                }
                Self::resolve_ucry_lanes(out, width, start..row, lanes.clone());
            }
            debug_assert_eq!(row, self.num_angles);
        }
        Ok(())
    }

    /// Resolves one multiplexor's raw pattern angles — rows `rows` of the
    /// angle-major block `out`, on the samples `lanes` — in place into
    /// the rotation angles actually emitted, in
    /// [`PrepSkeleton::emit_ucry_skeleton`]'s beta-first depth-first
    /// order: a k-control multiplexor splits into the half-sum (`beta`)
    /// and half-difference (`gamma`) multiplexors that play between its
    /// CX gates, which take the first and second half of the rows.
    fn resolve_ucry_lanes(out: &mut [f64], width: usize, rows: Range<usize>, lanes: Range<usize>) {
        let half = rows.len() / 2;
        if half == 0 {
            return;
        }
        for b in rows.start..rows.start + half {
            let (head, tail) = out.split_at_mut((b + half) * width);
            let beta = &mut head[b * width..][lanes.clone()];
            let gamma = &mut tail[lanes.clone()];
            for (b, g) in beta.iter_mut().zip(gamma.iter_mut()) {
                let (lo, hi) = (*b, *g);
                *b = (lo + hi) / 2.0;
                *g = (lo - hi) / 2.0;
            }
        }
        Self::resolve_ucry_lanes(out, width, rows.start..rows.start + half, lanes.clone());
        Self::resolve_ucry_lanes(out, width, rows.start + half..rows.end, lanes);
    }

    /// Instantiates the skeleton with one sample's angle vector. Every
    /// position is emitted — including exact `RY(0)` rotations — so the
    /// returned circuit's gate sequence is identical across samples.
    ///
    /// # Panics
    ///
    /// Panics if `angles.len() != self.num_angles()`.
    pub fn to_circuit(&self, angles: &[f64]) -> Circuit {
        assert_eq!(
            angles.len(),
            self.num_angles,
            "angle vector must match the skeleton"
        );
        let mut circ = Circuit::new(self.num_qubits);
        for step in &self.steps {
            match *step {
                PrepStep::Ry {
                    target,
                    angle_index,
                } => {
                    circ.ry(angles[angle_index], target);
                }
                PrepStep::Cx { control, target } => {
                    circ.cx(control, target);
                }
            }
        }
        circ
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Operation;
    use crate::statevector::Statevector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run(circ: &Circuit) -> Statevector {
        let mut sv = Statevector::new(circ.num_qubits());
        for instr in circ.instructions() {
            if let Operation::Gate(g) = &instr.op {
                sv.apply_gate(*g, &instr.qubits).unwrap();
            }
        }
        sv
    }

    fn assert_prepares(num_qubits: usize, amps: &[f64]) {
        let circ = prepare_real_amplitudes(num_qubits, amps).unwrap();
        let sv = run(&circ);
        let norm: f64 = amps.iter().map(|a| a * a).sum::<f64>().sqrt();
        for (i, &a) in amps.iter().enumerate() {
            let expected = a / norm;
            let got = sv.amplitude(i);
            assert!(
                (got.re - expected).abs() < 1e-10 && got.im.abs() < 1e-10,
                "index {i}: expected {expected}, got {got} (n={num_qubits})"
            );
        }
    }

    #[test]
    fn prepares_basis_states() {
        for i in 0..8 {
            let mut amps = [0.0; 8];
            amps[i] = 1.0;
            assert_prepares(3, &amps);
        }
    }

    #[test]
    fn prepares_uniform_superposition() {
        assert_prepares(2, &[0.5; 4]);
        assert_prepares(3, &[1.0; 8]);
    }

    #[test]
    fn prepares_bell_like_state() {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert_prepares(2, &[s, 0.0, 0.0, s]);
    }

    #[test]
    fn prepares_random_vectors() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in 1..=5usize {
            for _ in 0..10 {
                let amps: Vec<f64> = (0..(1 << n)).map(|_| rng.gen::<f64>()).collect();
                assert_prepares(n, &amps);
            }
        }
    }

    #[test]
    fn prepares_sparse_vectors() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let mut amps: Vec<f64> = vec![0.0; 16];
            for _ in 0..3 {
                let idx: usize = rng.gen_range(0..16);
                amps[idx] = rng.gen::<f64>() + 0.01;
            }
            assert_prepares(4, &amps);
        }
    }

    #[test]
    fn normalises_unnormalised_input() {
        let circ = prepare_real_amplitudes(1, &[3.0, 4.0]).unwrap();
        let sv = run(&circ);
        assert!((sv.amplitude(0).re - 0.6).abs() < 1e-10);
        assert!((sv.amplitude(1).re - 0.8).abs() < 1e-10);
    }

    #[test]
    fn gate_count_is_fixed_by_the_skeleton() {
        // Exactly 2^n − 1 RY rotations and 2^{n+1} − 2n − 2 CX gates —
        // never fewer: degenerate angles emit RY(0) instead of pruning, so
        // the gate sequence is sample-independent.
        let count = |circ: &Circuit, name: &str| {
            circ.count_ops()
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        for n in 1..=4usize {
            let amps: Vec<f64> = (1..=(1 << n)).map(|x| x as f64).collect();
            let circ = prepare_real_amplitudes(n, &amps).unwrap();
            assert_eq!(count(&circ, "ry"), (1 << n) - 1, "n={n}");
            assert_eq!(count(&circ, "cx"), (2 << n) - 2 * n - 2, "n={n}");
            // A fully degenerate input (basis state) keeps the same shape.
            let mut basis = vec![0.0; 1 << n];
            basis[0] = 1.0;
            let degenerate = prepare_real_amplitudes(n, &basis).unwrap();
            assert_eq!(count(&degenerate, "ry"), (1 << n) - 1, "n={n}");
            assert_eq!(count(&degenerate, "cx"), (2 << n) - 2 * n - 2, "n={n}");
        }
    }

    /// The skeleton-stability pin: gate positions (op kind and operand
    /// qubits, in order) are identical across random angle vectors — only
    /// the RY angles differ.
    #[test]
    fn skeleton_positions_are_identical_across_random_angle_vectors() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in 1..=4usize {
            let skeleton = PrepSkeleton::new(n);
            assert_eq!(skeleton.num_angles(), (1 << n) - 1);
            let reference: Vec<(String, Vec<usize>)> =
                prepare_real_amplitudes(n, &vec![1.0; 1 << n])
                    .unwrap()
                    .instructions()
                    .iter()
                    .map(|instr| (format!("{:?}", instr.op), instr.qubits.clone()))
                    .collect();
            for _ in 0..16 {
                let amps: Vec<f64> = (0..(1 << n))
                    .map(|_| {
                        // Mix in hard zeros so degenerate multiplexors are
                        // exercised — the pruning trap this test pins shut.
                        if rng.gen::<f64>() < 0.4 {
                            0.0
                        } else {
                            rng.gen::<f64>()
                        }
                    })
                    .collect();
                if amps.iter().all(|&a| a == 0.0) {
                    continue;
                }
                let circ = prepare_real_amplitudes(n, &amps).unwrap();
                let shape: Vec<(String, Vec<usize>)> = circ
                    .instructions()
                    .iter()
                    .map(|instr| (format!("{:?}", instr.op), instr.qubits.clone()))
                    .collect();
                assert_eq!(shape.len(), reference.len(), "n={n}");
                for (got, want) in shape.iter().zip(&reference) {
                    // RY angles differ by design; positions must not.
                    let gate_kind = |s: &str| s.split('(').next().unwrap().to_string();
                    assert_eq!(gate_kind(&got.0), gate_kind(&want.0), "n={n}");
                    assert_eq!(got.1, want.1, "n={n}");
                }
            }
        }
    }

    #[test]
    fn skeleton_circuit_round_trips_through_angles() {
        let mut rng = StdRng::seed_from_u64(57);
        for n in 1..=4usize {
            let skeleton = PrepSkeleton::new(n);
            let amps: Vec<f64> = (0..(1 << n)).map(|_| rng.gen::<f64>() + 0.01).collect();
            let angles = skeleton.angles_for(&amps).unwrap();
            assert_eq!(angles.len(), skeleton.num_angles());
            let direct = prepare_real_amplitudes(n, &amps).unwrap();
            let via_skeleton = skeleton.to_circuit(&angles);
            assert_eq!(direct.len(), via_skeleton.len());
            // And the instantiated skeleton still prepares the state.
            let sv = run(&via_skeleton);
            let norm: f64 = amps.iter().map(|a| a * a).sum::<f64>().sqrt();
            for (i, &a) in amps.iter().enumerate() {
                assert!((sv.amplitude(i).re - a / norm).abs() < 1e-10);
            }
        }
    }

    /// The angle computation as it was written with a probability buffer,
    /// a buffer per level and a beta/gamma pair per split — the
    /// arithmetic the in-place form must reproduce bit for bit.
    fn allocating_angles(num_qubits: usize, amplitudes: &[f64]) -> Vec<f64> {
        fn resolve(raw: &[f64], out: &mut Vec<f64>) {
            if raw.len() == 1 {
                out.push(raw[0]);
                return;
            }
            let half = raw.len() / 2;
            let beta: Vec<f64> = (0..half).map(|j| (raw[j] + raw[j + half]) / 2.0).collect();
            let gamma: Vec<f64> = (0..half).map(|j| (raw[j] - raw[j + half]) / 2.0).collect();
            resolve(&beta, out);
            resolve(&gamma, out);
        }
        let norm_sqr: f64 = amplitudes.iter().map(|a| a * a).sum();
        let probs: Vec<f64> = amplitudes.iter().map(|a| a * a / norm_sqr).collect();
        let mut out = Vec::new();
        for k in 0..num_qubits {
            let low_bits = num_qubits - 1 - k;
            let raw: Vec<f64> = (0..1usize << k)
                .map(|s| {
                    let (mut p0, mut p1) = (0.0, 0.0);
                    for rest in 0..(1usize << low_bits) {
                        let base = (s << (low_bits + 1)) | rest;
                        p0 += probs[base];
                        p1 += probs[base | (1 << low_bits)];
                    }
                    2.0 * f64::sqrt(p1).atan2(f64::sqrt(p0))
                })
                .collect();
            resolve(&raw, &mut out);
        }
        out
    }

    #[test]
    fn in_place_angles_are_bit_identical_to_the_allocating_form() {
        let mut rng = StdRng::seed_from_u64(73);
        let mut out = Vec::new();
        for n in 1..=6usize {
            let skeleton = PrepSkeleton::new(n);
            for _ in 0..12 {
                let amps: Vec<f64> = (0..(1 << n))
                    .map(|_| {
                        if rng.gen::<f64>() < 0.3 {
                            0.0
                        } else {
                            rng.gen::<f64>()
                        }
                    })
                    .collect();
                if amps.iter().all(|&a| a == 0.0) {
                    continue;
                }
                skeleton.angles_for_into(&amps, &mut out).unwrap();
                let want = allocating_angles(n, &amps);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&want), "n={n}");
            }
        }
    }

    /// One test column of `2^n` amplitudes, of the kind `j mod 5`:
    /// random with hard zeros, one-hot, uniform, zero upper half (so at
    /// n ≥ 2 a pattern has `p0 = p1 = 0`), and dense unnormalised.
    fn angle_test_column(n: usize, j: usize, rng: &mut StdRng) -> Vec<f64> {
        let dim = 1usize << n;
        let mut col: Vec<f64> = match j % 5 {
            0 => (0..dim)
                .map(|_| {
                    if rng.gen::<f64>() < 0.3 {
                        0.0
                    } else {
                        rng.gen::<f64>()
                    }
                })
                .collect(),
            1 => (0..dim)
                .map(|i| {
                    if i == j % dim {
                        rng.gen::<f64>() + 0.1
                    } else {
                        0.0
                    }
                })
                .collect(),
            2 => vec![0.3; dim],
            3 => (0..dim)
                .map(|i| if i < dim / 2 { rng.gen::<f64>() } else { 0.0 })
                .collect(),
            _ => (0..dim).map(|_| 37.0 * (rng.gen::<f64>() + 0.01)).collect(),
        };
        if col.iter().all(|&a| a == 0.0) {
            col[0] = 0.5;
        }
        col
    }

    /// `columns` as one lane-major block: amplitude `i` of column `j` at
    /// `i·width + j`.
    fn lane_major(columns: &[Vec<f64>]) -> Vec<f64> {
        let width = columns.len();
        let mut block = vec![0.0; columns.first().map_or(0, Vec::len) * width];
        for (j, col) in columns.iter().enumerate() {
            for (i, &a) in col.iter().enumerate() {
                block[i * width + j] = a;
            }
        }
        block
    }

    #[test]
    fn block_angles_match_the_per_column_loop_in_every_lane() {
        let mut rng = StdRng::seed_from_u64(89);
        for n in 1..=5usize {
            let skeleton = PrepSkeleton::new(n);
            for width in 1..=33usize {
                let columns: Vec<Vec<f64>> = (0..width)
                    .map(|j| angle_test_column(n, j, &mut rng))
                    .collect();
                let mut out = vec![f64::NAN; skeleton.num_angles() * width];
                skeleton
                    .angles_for_lanes(&lane_major(&columns), width, &mut out)
                    .unwrap();
                for (j, col) in columns.iter().enumerate() {
                    for (a, want) in allocating_angles(n, col).iter().enumerate() {
                        let got = out[a * width + j];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "n={n} width={width} lane {j} angle {a}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_angles_name_the_first_failing_sample_error() {
        let skeleton = PrepSkeleton::new(2);
        let good = vec![0.1, 0.2, 0.3, 0.4];
        let bad = [
            vec![0.1, -0.5, 0.0, 0.2],
            vec![f64::NAN, 0.2, 0.0, 0.1],
            vec![0.1, 0.2, f64::INFINITY, 0.1],
            vec![0.0; 4],
        ];
        for width in [1usize, 5, 9, 17] {
            let mut out = vec![0.0; skeleton.num_angles() * width];
            for (first, first_bad) in bad.iter().enumerate() {
                for lane in 0..width {
                    // `first_bad` at `lane`, the next bad kind on every
                    // later lane: the error is `lane`'s alone.
                    let columns: Vec<Vec<f64>> = (0..width)
                        .map(|j| match j.cmp(&lane) {
                            std::cmp::Ordering::Less => good.clone(),
                            std::cmp::Ordering::Equal => first_bad.clone(),
                            std::cmp::Ordering::Greater => bad[(first + 1) % bad.len()].clone(),
                        })
                        .collect();
                    let got = skeleton.angles_for_lanes(&lane_major(&columns), width, &mut out);
                    assert_eq!(got, Err(skeleton.angles_for(first_bad).unwrap_err()));
                }
            }
            assert_eq!(
                skeleton.angles_for_lanes(&[0.5; 7], width, &mut out),
                Err(QsimError::DimensionMismatch {
                    expected: 4 * width,
                    actual: 7
                })
            );
        }
    }

    #[test]
    fn skeleton_validates_like_prepare() {
        let skeleton = PrepSkeleton::new(2);
        assert!(matches!(
            skeleton.angles_for(&[1.0, 0.0]),
            Err(QsimError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            skeleton.angles_for(&[1.0, -0.5, 0.0, 0.0]),
            Err(QsimError::InvalidAmplitude { index: 1 })
        ));
        assert!(matches!(
            skeleton.angles_for(&[0.0; 4]),
            Err(QsimError::NotNormalized { .. })
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            prepare_real_amplitudes(2, &[1.0, 0.0]),
            Err(QsimError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            prepare_real_amplitudes(1, &[1.0, -0.5]),
            Err(QsimError::InvalidAmplitude { index: 1 })
        ));
        assert!(matches!(
            prepare_real_amplitudes(1, &[0.0, 0.0]),
            Err(QsimError::NotNormalized { .. })
        ));
        assert!(matches!(
            prepare_real_amplitudes(1, &[f64::NAN, 1.0]),
            Err(QsimError::InvalidAmplitude { index: 0 })
        ));
    }

    #[test]
    fn zero_qubit_edge_case() {
        // A single amplitude over zero qubits: the empty circuit.
        let circ = prepare_real_amplitudes(0, &[1.0]).unwrap();
        assert!(circ.is_empty());
    }
}
