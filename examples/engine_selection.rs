//! Choosing a scoring engine: `Auto` (default), or one of the four forced
//! kinds `Batched`, `Density`, `DensityStructured` and `Circuit` — and
//! what each buys you.
//!
//! ```text
//! cargo run --release --example engine_selection
//! ```

use quorum::core::{EngineKind, ExecutionMode, QuorumConfig, QuorumDetector};
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

    // The same pipeline through each engine: identical scores, very
    // different wall time.
    for kind in [EngineKind::Batched, EngineKind::Circuit] {
        let detector = QuorumDetector::new(base.clone().with_engine(kind)).unwrap();
        let start = Instant::now();
        let report = detector.score(&data).unwrap();
        println!(
            "{kind:>10?}: top-2 = {:?}  in {:.2?}",
            &report.ranking()[..2],
            start.elapsed()
        );
    }

    // `Auto` resolves per execution mode: batched analytic when noiseless …
    println!(
        "\nAuto + Exact  resolves to: {:?}",
        base.clone().effective_engine()
    );
    // … and the analytic density engine when a noise model is attached
    // (the paper-literal circuit engine stays available as the oracle).
    let noisy = base.clone().with_execution(ExecutionMode::Noisy {
        noise: NoiseModel::brisbane(),
        shots: None,
    });
    println!("Auto + Noisy  resolves to: {:?}", noisy.effective_engine());

    // The noisy pipeline end to end, through the density engine.
    let detector = QuorumDetector::new(noisy).unwrap();
    let start = Instant::now();
    let report = detector.score(&data).unwrap();
    println!(
        "Noisy scoring (density engine): top-2 = {:?}  in {:.2?}",
        &report.ranking()[..2],
        start.elapsed()
    );

    // Forcing the pure-state batched engine under noise is rejected up
    // front.
    let invalid = base
        .with_engine(EngineKind::Batched)
        .with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: None,
        });
    match QuorumDetector::new(invalid) {
        Err(e) => println!("Batched + Noisy is rejected: {e}"),
        Ok(_) => unreachable!("validation must reject this combination"),
    }
}
