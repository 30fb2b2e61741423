//! Which scoring engine runs: the configuration alone picks it
//! (`engine::resolve`), from the execution mode and the register width.
//! Every engine also stays callable through
//! `QuorumDetector::score_with` — here, the batched engine against the
//! paper-literal circuit oracle.
//!
//! ```text
//! cargo run --release --example engine_selection
//! ```

use quorum::core::config::STRUCTURED_AUTO_MIN_QUBITS;
use quorum::core::engine::{resolve, BatchedAnalyticEngine, CircuitEngine, ScoringEngine};
use quorum::core::{ExecutionMode, QuorumConfig, QuorumDetector};
use quorum::data::Dataset;
use quorum::sim::NoiseModel;
use std::time::Instant;

fn main() {
    // 40 correlated readings plus two corrupted ones.
    let mut rows: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let t = i as f64 * 0.02;
            vec![
                5.0 + t,
                3.0 - t,
                4.0 + 0.5 * t,
                2.0,
                6.0 - 0.3 * t,
                3.5,
                2.8,
            ]
        })
        .collect();
    rows.push(vec![0.3, 9.4, 0.2, 9.8, 0.1, 9.9, 0.4]);
    rows.push(vec![9.7, 0.2, 9.9, 0.3, 9.6, 0.1, 9.8]);
    let data = Dataset::from_rows("engine-demo", rows, None).unwrap();

    let base = QuorumConfig::default()
        .with_ensemble_groups(20)
        .with_anomaly_rate_estimate(0.05)
        .with_seed(7);

    // The engine each execution mode and width resolves to.
    let modes = [
        ("Exact", ExecutionMode::Exact),
        ("Sampled", ExecutionMode::Sampled { shots: 4096 }),
        (
            "Noisy",
            ExecutionMode::Noisy {
                noise: NoiseModel::brisbane(),
                shots: None,
            },
        ),
    ];
    for (label, mode) in modes {
        for n in [3, STRUCTURED_AUTO_MIN_QUBITS] {
            let config = base
                .clone()
                .with_data_qubits(n)
                .with_execution(mode.clone());
            println!("{label:>7} at n = {n}: {}", resolve(&config).name());
        }
    }

    // The same pipeline through the batched engine and the circuit
    // oracle: the same scores, very different wall time.
    let detector = QuorumDetector::new(base.clone()).unwrap();
    let engines: [&dyn ScoringEngine; 2] = [&BatchedAnalyticEngine, &CircuitEngine];
    println!();
    let reports = engines.map(|engine| {
        let start = Instant::now();
        let report = detector.score_with(engine, &data).unwrap();
        println!(
            "{:>8}: top-2 = {:?}  in {:.2?}",
            engine.name(),
            &report.ranking()[..2],
            start.elapsed()
        );
        report
    });
    let gap = reports[0]
        .scores()
        .iter()
        .zip(reports[1].scores())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("largest score gap, batched vs circuit: {gap:.1e}");
    assert!(gap < 1e-9, "batched and circuit scores diverged");

    // The noisy pipeline end to end, through the engine it resolves to.
    let noisy = base.with_execution(ExecutionMode::Noisy {
        noise: NoiseModel::brisbane(),
        shots: None,
    });
    let detector = QuorumDetector::new(noisy.clone()).unwrap();
    let start = Instant::now();
    let report = detector.score(&data).unwrap();
    println!(
        "Noisy scoring ({} engine): top-2 = {:?}  in {:.2?}",
        resolve(&noisy).name(),
        &report.ranking()[..2],
        start.elapsed()
    );
}
