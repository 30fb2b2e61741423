//! Circuit lowering for the noise path.
//!
//! Error accumulates per *physical* gate, so the noisy engines and the
//! density-matrix backend charge noise on a lowered circuit:
//! [`decompose_multiqubit`] rewrites CSWAP/CCX/SWAP/CZ/CRZ/CPhase into
//! `{CX, 1-qubit}` gates and leaves every other instruction as it is.
//! Each 1-qubit gate is then charged as one physical gate; there is no
//! further lowering to a hardware-native basis.
//!
//! The pass preserves the circuit's unitary action up to global phase
//! (verified by property tests).

use crate::circuit::{Circuit, Instruction, Operation};
use crate::gate::Gate;

/// Decomposes every gate acting on 3 qubits, plus SWAP/CZ/CRZ/CPhase, into
/// CX and single-qubit gates. The output contains only 1-qubit gates, CX,
/// resets, measures and barriers.
pub fn decompose_multiqubit(circ: &Circuit) -> Circuit {
    let mut out = Circuit::with_clbits(circ.num_qubits(), circ.num_clbits());
    for instr in circ.instructions() {
        match &instr.op {
            Operation::Gate(g) => emit_decomposed(&mut out, *g, &instr.qubits),
            _ => {
                out.push(instr.clone()).expect("same width");
            }
        }
    }
    out
}

fn emit_decomposed(out: &mut Circuit, gate: Gate, q: &[usize]) {
    match gate {
        Gate::Swap => {
            out.cx(q[0], q[1]).cx(q[1], q[0]).cx(q[0], q[1]);
        }
        Gate::CZ => {
            out.h(q[1]).cx(q[0], q[1]).h(q[1]);
        }
        Gate::CRZ(t) => {
            out.rz(t / 2.0, q[1])
                .cx(q[0], q[1])
                .rz(-t / 2.0, q[1])
                .cx(q[0], q[1]);
        }
        Gate::CPhase(t) => {
            out.p(t / 2.0, q[0])
                .cx(q[0], q[1])
                .p(-t / 2.0, q[1])
                .cx(q[0], q[1])
                .p(t / 2.0, q[1]);
        }
        Gate::CCX => emit_toffoli(out, q[0], q[1], q[2]),
        Gate::CSwap => {
            // CSWAP(c, a, b) = CX(b,a) · CCX(c,a,b) · CX(b,a)
            out.cx(q[2], q[1]);
            emit_toffoli(out, q[0], q[1], q[2]);
            out.cx(q[2], q[1]);
        }
        g => {
            out.push(Instruction::gate(g, q.to_vec()))
                .expect("validated upstream");
        }
    }
}

/// The textbook 6-CX Toffoli decomposition (Nielsen & Chuang Fig. 4.9).
fn emit_toffoli(out: &mut Circuit, a: usize, b: usize, c: usize) {
    out.h(c)
        .cx(b, c)
        .tdg(c)
        .cx(a, c)
        .t(c)
        .cx(b, c)
        .tdg(c)
        .cx(a, c)
        .t(b)
        .t(c)
        .h(c)
        .cx(a, b)
        .t(a)
        .tdg(b)
        .cx(a, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;
    use crate::statevector::Statevector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Runs both circuits on a batch of random states and checks the final
    /// states agree up to a single global phase per circuit pair.
    fn assert_equivalent_up_to_phase(a: &Circuit, b: &Circuit, n: usize) {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..8 {
            let mut raw: Vec<C64> = (0..(1 << n))
                .map(|_| C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            let norm: f64 = raw.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            for z in &mut raw {
                *z = z.scale(1.0 / norm);
            }
            let mut sa = Statevector::from_amplitudes(raw.clone()).unwrap();
            let mut sb = Statevector::from_amplitudes(raw).unwrap();
            for instr in a.instructions() {
                if let Operation::Gate(g) = &instr.op {
                    sa.apply_gate(*g, &instr.qubits).unwrap();
                }
            }
            for instr in b.instructions() {
                if let Operation::Gate(g) = &instr.op {
                    sb.apply_gate(*g, &instr.qubits).unwrap();
                }
            }
            let fidelity = sa.fidelity(&sb).unwrap();
            assert!(
                (fidelity - 1.0).abs() < 1e-9,
                "circuits differ: fidelity {fidelity}"
            );
        }
    }

    #[test]
    fn multiqubit_lowering_preserves_the_prep_skeleton() {
        // The noisy engines charge per-gate error on the lowered circuit,
        // and the lockstep batched prep walks the skeleton directly — the
        // two agree only because `decompose_multiqubit` is the identity on
        // the skeleton's {RY, CX} gate set: same ops, same operands, same
        // order, for any angle vector (including exact zeros).
        use crate::stateprep::prepare_real_amplitudes;
        let mut rng = StdRng::seed_from_u64(71);
        for n in 1..=4usize {
            for _ in 0..4 {
                let amps: Vec<f64> = (0..(1 << n))
                    .map(|_| {
                        if rng.gen::<f64>() < 0.3 {
                            0.0
                        } else {
                            rng.gen()
                        }
                    })
                    .collect();
                if amps.iter().all(|&a| a == 0.0) {
                    continue;
                }
                let prep = prepare_real_amplitudes(n, &amps).unwrap();
                let lowered = decompose_multiqubit(&prep);
                assert_eq!(lowered.len(), prep.len(), "n={n}");
                for (a, b) in prep.instructions().iter().zip(lowered.instructions()) {
                    assert_eq!(a.qubits, b.qubits, "n={n}");
                    match (&a.op, &b.op) {
                        (Operation::Gate(ga), Operation::Gate(gb)) => assert_eq!(ga, gb),
                        _ => panic!("non-gate op in a prep circuit"),
                    }
                }
            }
        }
    }

    #[test]
    fn toffoli_decomposition_is_exact() {
        let mut ideal = Circuit::new(3);
        ideal.ccx(0, 1, 2);
        let lowered = decompose_multiqubit(&ideal);
        assert!(lowered
            .count_ops()
            .iter()
            .all(|(name, _)| ["cx", "h", "t", "tdg"].contains(&name.as_str())));
        assert_eq!(
            lowered
                .count_ops()
                .iter()
                .find(|(n, _)| n == "cx")
                .unwrap()
                .1,
            6
        );
        assert_equivalent_up_to_phase(&ideal, &lowered, 3);
    }

    #[test]
    fn cswap_decomposition_is_exact() {
        let mut ideal = Circuit::new(3);
        ideal.cswap(2, 0, 1);
        let lowered = decompose_multiqubit(&ideal);
        assert_eq!(lowered.count_multi_qubit_gates(), 8); // 6 (toffoli) + 2
        assert_equivalent_up_to_phase(&ideal, &lowered, 3);
    }

    #[test]
    fn swap_cz_crz_cp_decompositions_are_exact() {
        for build in [
            |c: &mut Circuit| {
                c.swap(0, 1);
            },
            |c: &mut Circuit| {
                c.cz(0, 1);
            },
            |c: &mut Circuit| {
                c.crz(0.87, 1, 0);
            },
            |c: &mut Circuit| {
                c.cp(-1.4, 0, 1);
            },
        ] {
            let mut ideal = Circuit::new(2);
            build(&mut ideal);
            let lowered = decompose_multiqubit(&ideal);
            for instr in lowered.instructions() {
                if let Operation::Gate(g) = &instr.op {
                    assert!(g.num_qubits() == 1 || *g == Gate::CX);
                }
            }
            assert_equivalent_up_to_phase(&ideal, &lowered, 2);
        }
    }

    #[test]
    fn measures_and_resets_survive_lowering() {
        let mut circ = Circuit::with_clbits(3, 1);
        circ.h(0).reset(1).cswap(0, 1, 2).measure(0, 0);
        let lowered = decompose_multiqubit(&circ);
        assert!(lowered.has_nonunitary_ops());
        assert_eq!(lowered.measured_clbits(), vec![0]);
    }
}
