//! Noise channels and the Brisbane-like hardware noise model.
//!
//! The paper's noisy simulations "model … IBM's Brisbane quantum computer"
//! using its published median properties. We reproduce the same channel
//! structure:
//!
//! * **depolarizing** error per gate (1-qubit and 2-qubit rates),
//! * **thermal relaxation** (amplitude damping from T1, pure dephasing from
//!   T2) accrued over each gate's duration,
//! * a symmetric **readout** bit-flip applied to measurement outcomes.

use crate::complex::C64;
use crate::error::QsimError;
use crate::gate::Gate;
use crate::matrix::CMatrix;

/// Builds the single-qubit depolarizing channel with error parameter `p`:
/// `ρ → (1−p)ρ + p/3 (XρX + YρY + ZρZ)`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn depolarizing_1q(p: f64) -> Vec<CMatrix> {
    assert!((0.0..=1.0).contains(&p), "depolarizing parameter in [0,1]");
    let k0 = Gate::I.matrix().scaled(C64::from_real((1.0 - p).sqrt()));
    let w = C64::from_real((p / 3.0).sqrt());
    vec![
        k0,
        Gate::X.matrix().scaled(w),
        Gate::Y.matrix().scaled(w),
        Gate::Z.matrix().scaled(w),
    ]
}

/// Builds the two-qubit depolarizing channel with error parameter `p`:
/// the identity with weight `1−p` plus the 15 non-identity Pauli pairs each
/// with weight `p/15`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn depolarizing_2q(p: f64) -> Vec<CMatrix> {
    assert!((0.0..=1.0).contains(&p), "depolarizing parameter in [0,1]");
    let paulis = [Gate::I, Gate::X, Gate::Y, Gate::Z];
    let mut kraus = Vec::with_capacity(16);
    for (ai, a) in paulis.iter().enumerate() {
        for (bi, b) in paulis.iter().enumerate() {
            let weight = if ai == 0 && bi == 0 {
                (1.0 - p).sqrt()
            } else {
                (p / 15.0).sqrt()
            };
            kraus.push(a.matrix().kron(&b.matrix()).scaled(C64::from_real(weight)));
        }
    }
    kraus
}

/// Builds the amplitude-damping channel with decay probability `gamma`.
///
/// # Panics
///
/// Panics if `gamma` is outside `[0, 1]`.
pub fn amplitude_damping(gamma: f64) -> Vec<CMatrix> {
    assert!((0.0..=1.0).contains(&gamma), "gamma in [0,1]");
    let k0 = CMatrix::from_rows(&[
        &[C64::ONE, C64::ZERO],
        &[C64::ZERO, C64::from_real((1.0 - gamma).sqrt())],
    ]);
    let k1 = CMatrix::from_rows(&[
        &[C64::ZERO, C64::from_real(gamma.sqrt())],
        &[C64::ZERO, C64::ZERO],
    ]);
    vec![k0, k1]
}

/// Builds the phase-damping channel with dephasing probability `lambda`.
///
/// # Panics
///
/// Panics if `lambda` is outside `[0, 1]`.
pub fn phase_damping(lambda: f64) -> Vec<CMatrix> {
    assert!((0.0..=1.0).contains(&lambda), "lambda in [0,1]");
    let k0 = CMatrix::from_rows(&[
        &[C64::ONE, C64::ZERO],
        &[C64::ZERO, C64::from_real((1.0 - lambda).sqrt())],
    ]);
    let k1 = CMatrix::from_rows(&[
        &[C64::ZERO, C64::ZERO],
        &[C64::ZERO, C64::from_real(lambda.sqrt())],
    ]);
    vec![k0, k1]
}

/// Verifies the completeness relation `Σ K†K = I` within `tol`.
pub fn is_trace_preserving(kraus: &[CMatrix], tol: f64) -> bool {
    if kraus.is_empty() {
        return false;
    }
    let dim = kraus[0].rows();
    let mut sum = CMatrix::zeros(dim, dim);
    for k in kraus {
        sum = &sum + &(&k.dagger() * k);
    }
    sum.approx_eq(&CMatrix::identity(dim), tol)
}

/// A hardware noise model in the style of IBM backend calibration data.
///
/// All times are in **seconds**; error rates are probabilities.
///
/// # Examples
///
/// ```
/// use qsim::noise::NoiseModel;
///
/// let nm = NoiseModel::brisbane();
/// assert!(nm.readout_error > 0.0);
/// let channels = nm.channels_for_1q_gate();
/// assert!(!channels.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Median T1 relaxation time.
    pub t1: f64,
    /// Median T2 dephasing time.
    pub t2: f64,
    /// Depolarizing error per single-qubit gate.
    pub error_1q: f64,
    /// Depolarizing error per two-qubit gate.
    pub error_2q: f64,
    /// Duration of a single-qubit gate.
    pub gate_time_1q: f64,
    /// Duration of a two-qubit gate.
    pub gate_time_2q: f64,
    /// Symmetric readout bit-flip probability.
    pub readout_error: f64,
}

impl NoiseModel {
    /// The paper's IBM-Brisbane median properties (§V, Experimental Setup):
    /// T1 = 230.42 µs, T2 = 143.41 µs, SX error 2.274×10⁻⁴, two-qubit error
    /// 2.903×10⁻³, readout error 1.38×10⁻². Gate durations use Brisbane's
    /// published 60 ns (SX) and 660 ns (ECR).
    pub fn brisbane() -> Self {
        NoiseModel {
            t1: 230.42e-6,
            t2: 143.41e-6,
            error_1q: 2.274e-4,
            error_2q: 2.903e-3,
            gate_time_1q: 60e-9,
            gate_time_2q: 660e-9,
            readout_error: 1.38e-2,
        }
    }

    /// A noiseless model (identity channels everywhere), useful for
    /// verifying that the noisy code path reduces to the ideal one.
    pub fn ideal() -> Self {
        NoiseModel {
            t1: f64::INFINITY,
            t2: f64::INFINITY,
            error_1q: 0.0,
            error_2q: 0.0,
            gate_time_1q: 0.0,
            gate_time_2q: 0.0,
            readout_error: 0.0,
        }
    }

    /// Returns a copy with every error source scaled by `factor`
    /// (times divided, rates multiplied). Used for noise-sensitivity
    /// ablations.
    ///
    /// # Panics
    ///
    /// Panics if scaled error rates leave `[0, 1]`.
    pub fn scaled(&self, factor: f64) -> Self {
        let nm = NoiseModel {
            t1: self.t1 / factor,
            t2: self.t2 / factor,
            error_1q: self.error_1q * factor,
            error_2q: self.error_2q * factor,
            gate_time_1q: self.gate_time_1q,
            gate_time_2q: self.gate_time_2q,
            readout_error: (self.readout_error * factor).min(0.5),
        };
        assert!(nm.error_1q <= 1.0 && nm.error_2q <= 1.0);
        nm
    }

    /// Checks every parameter against the range the channel builders
    /// assume: `t1` and `t2` positive (infinite means no relaxation, as in
    /// [`NoiseModel::ideal`]), gate times finite and non-negative, and the
    /// three error rates probabilities. NaN fails every check. A model
    /// that passes builds its channels without panicking.
    ///
    /// # Errors
    ///
    /// [`QsimError::InvalidNoiseParameter`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), QsimError> {
        let check = |field, value: f64, ok: bool, expected| {
            if ok {
                Ok(())
            } else {
                Err(QsimError::InvalidNoiseParameter {
                    field,
                    value,
                    expected,
                })
            }
        };
        let positive = "positive (infinity allowed)";
        check("t1", self.t1, self.t1 > 0.0, positive)?;
        check("t2", self.t2, self.t2 > 0.0, positive)?;
        let time = "finite and non-negative";
        for (field, value) in [
            ("gate_time_1q", self.gate_time_1q),
            ("gate_time_2q", self.gate_time_2q),
        ] {
            check(field, value, value.is_finite() && value >= 0.0, time)?;
        }
        for (field, value) in [
            ("error_1q", self.error_1q),
            ("error_2q", self.error_2q),
            ("readout_error", self.readout_error),
        ] {
            check(field, value, (0.0..=1.0).contains(&value), "in [0, 1]")?;
        }
        Ok(())
    }

    /// Amplitude-damping probability accrued over `duration`.
    fn gamma(&self, duration: f64) -> f64 {
        if self.t1.is_infinite() || duration == 0.0 {
            0.0
        } else {
            1.0 - (-duration / self.t1).exp()
        }
    }

    /// Pure-dephasing probability accrued over `duration`, derived from
    /// `1/Tφ = 1/T2 − 1/(2 T1)`.
    fn lambda(&self, duration: f64) -> f64 {
        if self.t2.is_infinite() || duration == 0.0 {
            return 0.0;
        }
        let inv_tphi = 1.0 / self.t2 - 1.0 / (2.0 * self.t1);
        // NaN only when both times are so small that their inverses
        // overflow: charge no extra dephasing rather than build a NaN
        // channel (amplitude damping over any normal gate time is then
        // total anyway).
        if inv_tphi.is_nan() || inv_tphi <= 0.0 {
            0.0
        } else {
            1.0 - (-duration * inv_tphi).exp()
        }
    }

    /// Per-qubit relaxation channels (amplitude then phase damping) for a
    /// gate of the given duration. Empty when the model is ideal.
    pub fn relaxation_channels(&self, duration: f64) -> Vec<Vec<CMatrix>> {
        let mut out = Vec::new();
        let g = self.gamma(duration);
        if g > 0.0 {
            out.push(amplitude_damping(g));
        }
        let l = self.lambda(duration);
        if l > 0.0 {
            out.push(phase_damping(l));
        }
        out
    }

    /// The 1-qubit channels to apply after each single-qubit gate:
    /// depolarizing (if any) followed by thermal relaxation.
    pub fn channels_for_1q_gate(&self) -> Vec<Vec<CMatrix>> {
        let mut out = Vec::new();
        if self.error_1q > 0.0 {
            out.push(depolarizing_1q(self.error_1q));
        }
        out.extend(self.relaxation_channels(self.gate_time_1q));
        out
    }

    /// The channels to apply after each two-qubit gate: one 2-qubit
    /// depolarizing channel plus per-qubit relaxation (returned separately:
    /// `(two_qubit_channels, per_qubit_channels)`).
    pub fn channels_for_2q_gate(&self) -> (Vec<Vec<CMatrix>>, Vec<Vec<CMatrix>>) {
        let mut two = Vec::new();
        if self.error_2q > 0.0 {
            two.push(depolarizing_2q(self.error_2q));
        }
        (two, self.relaxation_channels(self.gate_time_2q))
    }

    /// Applies the symmetric readout confusion matrix to an ideal
    /// probability of reading `1`.
    pub fn apply_readout(&self, p_one: f64) -> f64 {
        let e = self.readout_error;
        p_one * (1.0 - e) + (1.0 - p_one) * e
    }

    /// Whether this model introduces any error at all.
    pub fn is_ideal(&self) -> bool {
        self.error_1q == 0.0
            && self.error_2q == 0.0
            && self.readout_error == 0.0
            && (self.t1.is_infinite() || self.gate_time_1q == 0.0 && self.gate_time_2q == 0.0)
    }
}

impl Default for NoiseModel {
    /// Defaults to the Brisbane-like preset used throughout the paper.
    fn default() -> Self {
        NoiseModel::brisbane()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::DensityMatrix;

    const TOL: f64 = 1e-10;

    #[test]
    fn all_channels_are_trace_preserving() {
        assert!(is_trace_preserving(&depolarizing_1q(0.01), TOL));
        assert!(is_trace_preserving(&depolarizing_1q(0.0), TOL));
        assert!(is_trace_preserving(&depolarizing_1q(1.0), TOL));
        assert!(is_trace_preserving(&depolarizing_2q(0.05), TOL));
        assert!(is_trace_preserving(&amplitude_damping(0.3), TOL));
        assert!(is_trace_preserving(&phase_damping(0.7), TOL));
    }

    #[test]
    fn primitive_channels_are_cptp_across_parameter_sweeps() {
        // The completeness relation Σ K†K = I must hold for every channel
        // constructor over its whole parameter range.
        for p in [0.0, 1e-6, 0.01, 0.25, 0.5, 0.75, 1.0] {
            assert!(is_trace_preserving(&depolarizing_1q(p), TOL), "d1q({p})");
            assert!(is_trace_preserving(&depolarizing_2q(p), TOL), "d2q({p})");
            assert!(is_trace_preserving(&amplitude_damping(p), TOL), "amp({p})");
            assert!(is_trace_preserving(&phase_damping(p), TOL), "phase({p})");
        }
    }

    #[test]
    fn model_channel_stacks_are_cptp_for_all_presets_and_scales() {
        // Every channel any NoiseModel hands the simulator — 1q gate stack,
        // 2q gate stack, raw relaxation — is CPTP, for the ideal and
        // Brisbane presets and for Brisbane scaled by {0, 0.5, 1, 2}.
        let mut models = vec![NoiseModel::ideal(), NoiseModel::brisbane()];
        for factor in [0.0, 0.5, 1.0, 2.0] {
            models.push(NoiseModel::brisbane().scaled(factor));
        }
        for (i, nm) in models.iter().enumerate() {
            for ch in nm.channels_for_1q_gate() {
                assert!(is_trace_preserving(&ch, TOL), "model {i}: 1q stack");
            }
            let (two, per_q) = nm.channels_for_2q_gate();
            for ch in two {
                assert!(is_trace_preserving(&ch, TOL), "model {i}: 2q depol");
            }
            for ch in per_q {
                assert!(is_trace_preserving(&ch, TOL), "model {i}: 2q relax");
            }
            for duration in [nm.gate_time_1q, nm.gate_time_2q, 1e-6] {
                for ch in nm.relaxation_channels(duration) {
                    assert!(
                        is_trace_preserving(&ch, TOL),
                        "model {i}: relaxation over {duration}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_scaled_model_is_ideal() {
        let nm = NoiseModel::brisbane().scaled(0.0);
        assert!(nm.is_ideal());
        assert!(nm.channels_for_1q_gate().is_empty());
        assert_eq!(nm.apply_readout(0.42), 0.42);
    }

    #[test]
    fn depolarizing_full_strength_mixes_completely() {
        let mut rho = DensityMatrix::new(1).unwrap();
        // p = 3/4 gives the maximally mixed state in this convention:
        // (1-3/4)ρ + (1/4)(XρX+YρY+ZρZ) = I/2 for any pure ρ.
        rho.apply_kraus(&depolarizing_1q(0.75), &[0]).unwrap();
        assert!((rho.purity() - 0.5).abs() < TOL);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let mut rho = DensityMatrix::new(1).unwrap();
        rho.apply_gate(Gate::X, &[0]).unwrap();
        rho.apply_kraus(&amplitude_damping(0.25), &[0]).unwrap();
        assert!((rho.probability_one(0).unwrap() - 0.75).abs() < TOL);
    }

    #[test]
    fn phase_damping_preserves_populations() {
        let mut rho = DensityMatrix::new(1).unwrap();
        rho.apply_gate(Gate::RY(0.9), &[0]).unwrap();
        let p_before = rho.probability_one(0).unwrap();
        rho.apply_kraus(&phase_damping(0.5), &[0]).unwrap();
        assert!((rho.probability_one(0).unwrap() - p_before).abs() < TOL);
        assert!(rho.purity() < 1.0 - 1e-6);
    }

    #[test]
    fn brisbane_parameters_match_paper() {
        let nm = NoiseModel::brisbane();
        assert!((nm.t1 - 230.42e-6).abs() < 1e-12);
        assert!((nm.t2 - 143.41e-6).abs() < 1e-12);
        assert!((nm.error_1q - 2.274e-4).abs() < 1e-12);
        assert!((nm.error_2q - 2.903e-3).abs() < 1e-12);
        assert!((nm.readout_error - 1.38e-2).abs() < 1e-12);
    }

    #[test]
    fn ideal_model_is_noiseless() {
        let nm = NoiseModel::ideal();
        assert!(nm.is_ideal());
        assert!(nm.channels_for_1q_gate().is_empty());
        let (two, per_q) = nm.channels_for_2q_gate();
        assert!(two.is_empty());
        assert!(per_q.is_empty());
        assert_eq!(nm.apply_readout(0.3), 0.3);
    }

    #[test]
    fn brisbane_is_not_ideal_and_channels_exist() {
        let nm = NoiseModel::brisbane();
        assert!(!nm.is_ideal());
        assert_eq!(nm.channels_for_1q_gate().len(), 3); // depol + amp + phase
        let (two, per_q) = nm.channels_for_2q_gate();
        assert_eq!(two.len(), 1);
        assert_eq!(per_q.len(), 2);
        for ch in nm.channels_for_1q_gate() {
            assert!(is_trace_preserving(&ch, TOL));
        }
    }

    #[test]
    fn readout_confusion_is_symmetric_and_bounded() {
        let nm = NoiseModel::brisbane();
        let p = nm.apply_readout(0.0);
        assert!((p - nm.readout_error).abs() < TOL);
        let p = nm.apply_readout(1.0);
        assert!((p - (1.0 - nm.readout_error)).abs() < TOL);
        let p = nm.apply_readout(0.5);
        assert!((p - 0.5).abs() < TOL);
    }

    #[test]
    fn scaled_model_amplifies_error() {
        let nm = NoiseModel::brisbane().scaled(2.0);
        assert!((nm.error_1q - 2.0 * 2.274e-4).abs() < 1e-12);
        assert!(nm.t1 < NoiseModel::brisbane().t1);
    }

    #[test]
    fn presets_validate_and_out_of_range_models_do_not() {
        let mut models = vec![NoiseModel::ideal(), NoiseModel::brisbane()];
        for factor in [0.0, 0.5, 1.0, 4.0, 16.0] {
            models.push(NoiseModel::brisbane().scaled(factor));
        }
        for nm in &models {
            nm.validate().unwrap();
        }
        let bad = NoiseModel {
            error_2q: f64::NAN,
            ..NoiseModel::brisbane()
        };
        match bad.validate() {
            Err(QsimError::InvalidNoiseParameter { field, .. }) => assert_eq!(field, "error_2q"),
            other => panic!("NaN error_2q validated: {other:?}"),
        }
        // Times whose inverses both overflow still build every channel.
        let tiny = NoiseModel {
            t1: f64::from_bits(1),
            t2: f64::from_bits(1),
            ..NoiseModel::brisbane()
        };
        tiny.validate().unwrap();
        assert_eq!(tiny.lambda(tiny.gate_time_1q), 0.0);
        for ch in tiny.channels_for_1q_gate() {
            assert!(is_trace_preserving(&ch, TOL));
        }
    }

    #[test]
    fn relaxation_probabilities_grow_with_duration() {
        let nm = NoiseModel::brisbane();
        assert!(nm.gamma(660e-9) > nm.gamma(60e-9));
        assert!(nm.lambda(660e-9) > nm.lambda(60e-9));
        assert_eq!(nm.gamma(0.0), 0.0);
    }

    use crate::gate::Gate;
}
