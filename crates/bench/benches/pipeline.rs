//! End-to-end pipeline benchmarks: one ensemble group, the full detector,
//! and scaling in the number of ensemble groups.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qdata::{synth, SamplePanel};
use quorum_core::bucket::BucketPlan;
use quorum_core::ensemble::EnsembleGroup;
use quorum_core::{QuorumConfig, QuorumDetector};

fn small_dataset() -> qdata::Dataset {
    // A 64-sample slice of the power-plant generator keeps the benchmark
    // fast while exercising the real pipeline.
    let full = synth::power_plant(5);
    let rows: Vec<Vec<f64>> = full.rows()[..64].to_vec();
    qdata::Dataset::from_rows("pp-64", rows, None).unwrap()
}

fn bench_single_group(c: &mut Criterion) {
    let ds = small_dataset();
    let config = QuorumConfig::default()
        .with_ensemble_groups(1)
        .with_anomaly_rate_estimate(0.05)
        .with_seed(3);
    let plan = BucketPlan::from_target(ds.num_samples(), 0.05, 0.75);
    let normalized = qdata::preprocess::RangeNormalizer::fit_transform(&ds);
    let flat = normalized.rows().concat();
    let panel = SamplePanel::new(&flat, normalized.num_features());
    c.bench_function("ensemble_group_64samples_2levels", |b| {
        let group = EnsembleGroup::generate(0, &config, ds.num_features(), &plan);
        let engine = quorum_core::engine::resolve(&config);
        b.iter(|| black_box(group.run_with(engine, &panel, &config).unwrap()))
    });
}

fn bench_detector_scaling(c: &mut Criterion) {
    let ds = small_dataset();
    let mut group = c.benchmark_group("detector_groups_scaling");
    group.sample_size(10);
    for &groups in &[1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(groups), &groups, |b, &g| {
            let detector = QuorumDetector::new(
                QuorumConfig::default()
                    .with_ensemble_groups(g)
                    .with_anomaly_rate_estimate(0.05)
                    .with_threads(1)
                    .with_seed(1),
            )
            .unwrap();
            b.iter(|| black_box(detector.score(&ds).unwrap()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_single_group, bench_detector_scaling
}
criterion_main!(benches);
