//! Microbenchmarks of the simulation substrate: statevector gate kernels,
//! state preparation, transpilation, and the SWAP-test circuit.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qsim::circuit::Circuit;
use qsim::gate::Gate;
use qsim::simulator::{Backend, StatevectorBackend};
use qsim::stateprep::prepare_real_amplitudes;
use qsim::statevector::Statevector;
use qsim::transpile;

fn bench_gate_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_gates");
    for &n in &[7usize, 10, 14] {
        group.bench_with_input(BenchmarkId::new("h_all_qubits", n), &n, |b, &n| {
            let mut sv = Statevector::new(n);
            b.iter(|| {
                for q in 0..n {
                    sv.apply_gate(Gate::H, &[q]).unwrap();
                }
                black_box(sv.amplitude(0))
            });
        });
        group.bench_with_input(BenchmarkId::new("cx_chain", n), &n, |b, &n| {
            let mut sv = Statevector::new(n);
            sv.apply_gate(Gate::H, &[0]).unwrap();
            b.iter(|| {
                for q in 0..n - 1 {
                    sv.apply_gate(Gate::CX, &[q, q + 1]).unwrap();
                }
                black_box(sv.amplitude(0))
            });
        });
        group.bench_with_input(BenchmarkId::new("rz_all_qubits", n), &n, |b, &n| {
            let mut sv = Statevector::new(n);
            b.iter(|| {
                for q in 0..n {
                    sv.apply_gate(Gate::RZ(0.31), &[q]).unwrap();
                }
                black_box(sv.amplitude(0))
            });
        });
    }
    group.finish();
}

fn bench_state_prep(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_preparation");
    for &n in &[3usize, 5, 7] {
        let amps: Vec<f64> = (0..(1 << n)).map(|i| (i + 1) as f64).collect();
        group.bench_with_input(BenchmarkId::new("moettoenen_build", n), &n, |b, _| {
            b.iter(|| black_box(prepare_real_amplitudes(n, &amps).unwrap()));
        });
    }
    group.finish();
}

fn bench_transpile(c: &mut Criterion) {
    let mut qc = Circuit::new(7);
    for q in 0..3 {
        qc.ry(0.3 + q as f64, q);
    }
    qc.cswap(6, 0, 3).cswap(6, 1, 4).cswap(6, 2, 5);
    c.bench_function("transpile_decompose_swap_test", |b| {
        b.iter(|| black_box(transpile::decompose_multiqubit(&qc)))
    });
}

fn bench_swap_test(c: &mut Criterion) {
    let mut qc = Circuit::with_clbits(7, 1);
    qc.ry(0.4, 0).ry(0.9, 3).h(6);
    for q in 0..3 {
        qc.cswap(6, q, q + 3);
    }
    qc.h(6).measure(6, 0);
    let backend = StatevectorBackend::new();
    c.bench_function("swap_test_7q_exact", |b| {
        b.iter(|| black_box(backend.probabilities(&qc).unwrap().marginal_one(0)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gate_kernels, bench_state_prep, bench_transpile, bench_swap_test
}
criterion_main!(benches);
