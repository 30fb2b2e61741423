//! Property-based tests of the quantum substrate, centred on the SWAP test
//! identity Quorum's scoring rests on: `P(ancilla = 1) = (1 − |⟨a|b⟩|²)/2`
//! for pure states.

use proptest::prelude::*;
use quorum::sim::circuit::{Circuit, Operation};
use quorum::sim::simulator::{Backend, StatevectorBackend};
use quorum::sim::stateprep::prepare_real_amplitudes;
use quorum::sim::statevector::Statevector;

/// Strategy: a non-degenerate vector of 8 non-negative amplitudes.
fn amplitude_vector() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 8).prop_filter("non-zero norm", |v| {
        v.iter().map(|x| x * x).sum::<f64>() > 1e-3
    })
}

fn run_unitary(circ: &Circuit, sv: &mut Statevector) {
    for instr in circ.instructions() {
        if let Operation::Gate(g) = &instr.op {
            sv.apply_gate(*g, &instr.qubits).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// State preparation reproduces arbitrary non-negative amplitude
    /// vectors exactly (after normalisation).
    #[test]
    fn stateprep_roundtrips(amps in amplitude_vector()) {
        let circ = prepare_real_amplitudes(3, &amps).unwrap();
        let mut sv = Statevector::new(3);
        run_unitary(&circ, &mut sv);
        let norm: f64 = amps.iter().map(|a| a * a).sum::<f64>().sqrt();
        for (i, &a) in amps.iter().enumerate() {
            let got = sv.amplitude(i);
            prop_assert!((got.re - a / norm).abs() < 1e-9, "index {}: {} vs {}", i, got.re, a / norm);
            prop_assert!(got.im.abs() < 1e-9);
        }
    }

    /// The SWAP test measures exactly (1 − |⟨a|b⟩|²)/2 for pure states.
    #[test]
    fn swap_test_measures_overlap(a in amplitude_vector(), b in amplitude_vector()) {
        // Prepare |a> on qubits 0..3 and |b> on 3..6, ancilla 6.
        let prep_a = prepare_real_amplitudes(3, &a).unwrap();
        let prep_b = prepare_real_amplitudes(3, &b).unwrap();
        let mut qc = Circuit::with_clbits(7, 1);
        qc.compose(&prep_a, 0).unwrap();
        qc.compose(&prep_b, 3).unwrap();
        qc.h(6);
        for q in 0..3 {
            qc.cswap(6, q, q + 3);
        }
        qc.h(6);
        qc.measure(6, 0);
        let p1 = StatevectorBackend::new().probabilities(&qc).unwrap().marginal_one(0);

        // Classical expectation.
        let sa = Statevector::from_real_amplitudes(&a).unwrap();
        let sb = Statevector::from_real_amplitudes(&b).unwrap();
        let overlap = sa.fidelity(&sb).unwrap();
        let expected = (1.0 - overlap) / 2.0;
        prop_assert!((p1 - expected).abs() < 1e-9, "P(1)={} expected {}", p1, expected);
    }

    /// Unitary evolution preserves the norm; inverse circuits undo it.
    #[test]
    fn random_rotation_circuits_invert(
        angles in proptest::collection::vec(0.0f64..std::f64::consts::TAU, 12)
    ) {
        let mut qc = Circuit::new(3);
        for (i, &theta) in angles.iter().enumerate() {
            let q = i % 3;
            match i % 4 {
                0 => { qc.rx(theta, q); }
                1 => { qc.ry(theta, q); }
                2 => { qc.rz(theta, q); }
                _ => { qc.cx(q, (q + 1) % 3); }
            }
        }
        let inv = qc.inverse().unwrap();
        let mut sv = Statevector::new(3);
        sv.apply_gate(quorum::sim::Gate::H, &[0]).unwrap();
        sv.apply_gate(quorum::sim::Gate::CX, &[0, 2]).unwrap();
        let original = sv.clone();
        run_unitary(&qc, &mut sv);
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
        run_unitary(&inv, &mut sv);
        prop_assert!((sv.fidelity(&original).unwrap() - 1.0).abs() < 1e-9);
    }

    /// Lowering multi-qubit gates to `{CX, 1-qubit}` — the lowering the
    /// noisy engines charge noise on — preserves measured distributions.
    #[test]
    fn transpile_preserves_distribution(
        angles in proptest::collection::vec(0.0f64..std::f64::consts::TAU, 6)
    ) {
        use quorum::sim::transpile::decompose_multiqubit;
        let mut qc = Circuit::with_clbits(3, 1);
        qc.ry(angles[0], 0).rx(angles[1], 1).h(2);
        qc.cswap(2, 0, 1);
        qc.rz(angles[2], 0).ry(angles[3], 1);
        qc.cz(0, 2);
        qc.rx(angles[4], 2).p(angles[5], 0);
        qc.measure(2, 0);
        let lowered = decompose_multiqubit(&qc);
        let backend = StatevectorBackend::new();
        let a = backend.probabilities(&qc).unwrap().marginal_one(0);
        let b = backend.probabilities(&lowered).unwrap().marginal_one(0);
        prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
    }
}
