//! Head-to-head of the scoring engines on the flagship pipeline
//! configuration (n = 3 data qubits, 30 ensemble groups): the batched
//! GEMM engine vs the per-sample analytic engine vs the paper-literal
//! circuit engine — plus a noisy column pitting the batched density
//! engine against the noisy circuit simulation and against its own
//! per-sample oracle, and a raw GEMM-kernel column pitting the
//! runtime-dispatched kernel against the scalar oracle — with direct
//! speedup reports. Acceptance bars on this configuration: batched ≥ 2×
//! the per-sample analytic engine, analytic ≥ 5× the circuit engine,
//! density ≥ 5× the noisy circuit engine, the fully-batched noisy path
//! (lockstep prep + batched score) ≥ 1.7× the per-sample oracle with the
//! lockstep prep stage alone ≥ 1.3× the per-sample gate walk, and (when
//! the CPU runs the AVX2/FMA tile) the dispatched GEMM ≥ 2× the scalar
//! kernel.
//! The noisy column is split into explicit `noisy_prep_ns_per_sample` and
//! `noisy_score_ns_per_sample` metrics via the engine's public prep/score
//! seam. A wide-register noisy column pits the structured per-gate
//! channel engine against the dense readout-form engine at n = 5 — warm,
//! the dense engine must win; cold, the structured engine's first pass
//! must be ≥ 10× cheaper, since the dense one builds an `m × m` readout
//! form per level (`m = 2^n(2^n+1)/2`) — and tracks the structured engine
//! alone at n = 6 (`structured_noisy_ns_per_sample`), a width the dense
//! path cannot practically reach. A crossover column times both noisy
//! engines at n = 3 and 4, where Noisy runs use the dense one, and
//! records informational ratios. A serving column streams the flagship
//! noisy workload through a frozen detector at coalescing batch sizes
//! 1/8/32 and requires the per-sample cost to fall as panels grow — the
//! win the cross-request batcher delivers to a long-lived server.
//!
//! Every reported number also lands in `BENCH_engines.json` (per-engine
//! ns/sample, kernel GFLOP/s, speedup ratios) so the perf trajectory is
//! machine-readable across PRs; override the path with the
//! `QUORUM_BENCH_JSON` env var. A missed speed bar does not stop the run:
//! it is recorded ([`expect_speed`]), the JSON is written with every
//! column, and only then does the bench fail, listing every miss. The
//! two correctness checks (dense/structured agreement at n = 5, n = 6
//! probabilities) still fail at once.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qdata::Dataset;
use qsim::matrix::CMatrix;
use qsim::{NoiseModel, C64};
use quorum_bench::table1_specs;
use quorum_core::bucket::BucketPlan;
use quorum_core::engine::{
    AnalyticEngine, BatchedAnalyticEngine, CircuitEngine, DensityEngine, SampleDensityEngine,
    ScoringEngine, StructuredDensityEngine,
};
use quorum_core::ensemble::EnsembleGroup;
use quorum_core::{ExecutionMode, QuorumConfig, QuorumDetector};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const FLAGSHIP_GROUPS: usize = 30;
const FLAGSHIP_SAMPLES: usize = 96;
/// The noisy circuit oracle pays for a 7-qubit density simulation per
/// sample, so its column runs on a shorter slice of the same dataset.
const NOISY_SAMPLES: usize = 24;

/// Collected metrics for `BENCH_engines.json`, in insertion order.
static METRICS: Mutex<Vec<(&'static str, f64)>> = Mutex::new(Vec::new());

/// Speed bars missed so far, reported once the JSON is written.
static MISSES: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn record(key: &'static str, value: f64) {
    METRICS.lock().expect("metrics registry").push((key, value));
}

/// Checks one speed bar. A miss is printed and recorded instead of
/// panicking, so the remaining columns still run and land in
/// `BENCH_engines.json`; [`emit_bench_json`] then fails the bench with
/// every recorded miss.
fn expect_speed(met: bool, miss: String) {
    if !met {
        println!("speed_bar_missed                                         {miss}");
        MISSES.lock().expect("misses registry").push(miss);
    }
}

fn truncate(ds: &Dataset, n: usize) -> Dataset {
    let rows = ds.rows()[..n].to_vec();
    let labels = ds.labels().map(|l| l[..n].to_vec());
    Dataset::from_rows(ds.name(), rows, labels).unwrap()
}

fn flagship_config() -> QuorumConfig {
    let spec = &table1_specs()[0];
    QuorumConfig::default()
        .with_ensemble_groups(FLAGSHIP_GROUPS)
        .with_bucket_probability(spec.bucket_probability)
        .with_anomaly_rate_estimate(spec.anomaly_rate())
        .with_threads(1)
        .with_seed(42)
}

/// The flagship engines, timed through the whole detector with
/// [`QuorumDetector::score_with`]: the per-sample analytic engine is a
/// test oracle no configuration selects.
const FLAGSHIP_ENGINES: [(&str, &dyn ScoringEngine); 3] = [
    ("batched", &BatchedAnalyticEngine),
    ("analytic", &AnalyticEngine),
    ("circuit", &CircuitEngine),
];

fn flagship_dataset() -> Dataset {
    truncate(&table1_specs()[0].load(42), FLAGSHIP_SAMPLES)
}

fn bench_engines(c: &mut Criterion) {
    let ds = flagship_dataset();
    let mut group = c.benchmark_group("engine_flagship_n3_30groups");
    group.sample_size(10);
    let detector = QuorumDetector::new(flagship_config()).unwrap();
    for (label, engine) in FLAGSHIP_ENGINES {
        group.bench_with_input(BenchmarkId::from_parameter(label), &ds, |b, ds| {
            b.iter(|| black_box(detector.score_with(engine, ds).unwrap()))
        });
    }
    group.finish();
}

/// Best-of-nine full-pipeline wall time through one engine (two warmups,
/// minimum of nine timed runs — the sub-millisecond engines need the
/// extra repetitions to shake off scheduling noise).
fn time_engine(ds: &Dataset, engine: &dyn ScoringEngine) -> Duration {
    let detector = QuorumDetector::new(flagship_config()).unwrap();
    for _ in 0..2 {
        black_box(detector.score_with(engine, ds).unwrap());
    }
    (0..9)
        .map(|_| {
            let start = Instant::now();
            black_box(detector.score_with(engine, ds).unwrap());
            start.elapsed()
        })
        .min()
        .unwrap()
}

fn ns_per_sample(d: Duration, samples: usize) -> f64 {
    d.as_nanos() as f64 / samples as f64
}

/// Times the three engines directly and prints the speedup ratios the
/// acceptance criteria ask for.
fn report_speedup(_c: &mut Criterion) {
    let ds = flagship_dataset();
    let [batched, analytic, circuit] = FLAGSHIP_ENGINES.map(|(_, engine)| time_engine(&ds, engine));
    record(
        "batched_ns_per_sample",
        ns_per_sample(batched, FLAGSHIP_SAMPLES),
    );
    record(
        "analytic_ns_per_sample",
        ns_per_sample(analytic, FLAGSHIP_SAMPLES),
    );
    record(
        "circuit_ns_per_sample",
        ns_per_sample(circuit, FLAGSHIP_SAMPLES),
    );

    let batched_vs_analytic = analytic.as_secs_f64() / batched.as_secs_f64();
    let analytic_vs_circuit = circuit.as_secs_f64() / analytic.as_secs_f64();
    let batched_vs_circuit = circuit.as_secs_f64() / batched.as_secs_f64();
    record("batched_vs_analytic_speedup", batched_vs_analytic);
    record("analytic_vs_circuit_speedup", analytic_vs_circuit);
    record("batched_vs_circuit_speedup", batched_vs_circuit);
    println!(
        "engine_flagship_speedup                                  batched {batched:.2?} vs analytic {analytic:.2?} vs circuit {circuit:.2?}"
    );
    println!(
        "engine_flagship_speedup_ratios                           batched/analytic x{batched_vs_analytic:.1}  analytic/circuit x{analytic_vs_circuit:.1}  batched/circuit x{batched_vs_circuit:.1}"
    );
    expect_speed(
        batched_vs_analytic >= 2.0,
        format!("batched engine must be ≥2× the per-sample analytic engine on the flagship config, got ×{batched_vs_analytic:.2}"),
    );
    expect_speed(
        analytic_vs_circuit >= 5.0,
        format!("analytic engine must be ≥5× faster than the circuit engine on the flagship config, got ×{analytic_vs_circuit:.1}"),
    );
}

fn noisy_flagship_config() -> QuorumConfig {
    flagship_config().with_execution(ExecutionMode::Noisy {
        noise: NoiseModel::brisbane(),
        shots: None,
    })
}

/// Best-of-`runs` noisy full-pipeline wall time through one engine with
/// [`QuorumDetector::score_with`] (one warmup — the noisy circuit oracle
/// is far too slow for the nine-run protocol the sub-millisecond engines
/// use).
fn time_noisy_engine(
    config: QuorumConfig,
    ds: &Dataset,
    engine: &dyn ScoringEngine,
    runs: usize,
) -> Duration {
    let detector = QuorumDetector::new(config).unwrap();
    black_box(detector.score_with(engine, ds).unwrap());
    best_of(runs, || detector.score_with(engine, ds).unwrap())
}

/// The noisy column: the batched analytic density engine vs the
/// paper-literal noisy circuit simulation on the flagship n=3/30-group
/// configuration.
fn report_noisy_speedup(_c: &mut Criterion) {
    let ds = truncate(&table1_specs()[0].load(42), NOISY_SAMPLES);
    let density = time_noisy_engine(noisy_flagship_config(), &ds, &DensityEngine, 5);
    let circuit = time_noisy_engine(noisy_flagship_config(), &ds, &CircuitEngine, 2);
    record(
        "density_ns_per_sample",
        ns_per_sample(density, NOISY_SAMPLES),
    );
    record(
        "noisy_circuit_ns_per_sample",
        ns_per_sample(circuit, NOISY_SAMPLES),
    );
    let density_vs_circuit = circuit.as_secs_f64() / density.as_secs_f64();
    record("density_vs_circuit_speedup", density_vs_circuit);
    println!(
        "engine_flagship_noisy_speedup                            density {density:.2?} vs circuit {circuit:.2?}"
    );
    println!(
        "engine_flagship_noisy_speedup_ratio                      density/circuit x{density_vs_circuit:.1}"
    );
    expect_speed(
        density_vs_circuit >= 5.0,
        format!("density engine must be ≥5× the noisy circuit engine on the flagship config, got ×{density_vs_circuit:.1}"),
    );
}

/// Best-of-`runs` over one closure.
fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .min()
        .unwrap()
}

/// The fully-batched noisy path (lockstep prep + readout-form scoring)
/// against the per-sample path, on isolated scoring: one flagship group,
/// caches (readout forms, the oracle's superoperators and functional)
/// pre-warmed, a full 96-sample two-level deviation sweep per run — so
/// the ratios measure exactly what the batching changed, not the shared
/// fusion cost.
/// The prep and score stages are also timed through the public
/// [`DensityEngine::prepare_batch`] / [`DensityEngine::score_prepared`]
/// seam, so `BENCH_engines.json` carries explicit
/// `noisy_prep_ns_per_sample` and `noisy_score_ns_per_sample` columns
/// instead of a single prep-inclusive number.
///
/// Calibration note: both paths execute the same channel arithmetic
/// (identical per-gate flop counts), so the lockstep win comes from
/// removing per-sample circuit construction/lowering and from
/// lane-contiguous kernels — measured ×~1.7 on prep and ×~2 end-to-end on
/// this shape (`4³` superoperators, 96-sample batches), not an
/// order-of-magnitude algorithmic gap. The speed bars below pin those
/// levels with headroom for runner noise.
fn report_density_batch_speedup(_c: &mut Criterion) {
    let config = noisy_flagship_config().with_ensemble_groups(1);
    // Feed the engines exactly what the production pipeline feeds them.
    let ds = quorum_core::detector::normalize_for_scoring(&config, &flagship_dataset());
    let levels = config.effective_compression_levels();
    let plan = BucketPlan::from_target(ds.num_samples(), 0.1, config.bucket_probability);
    let group = EnsembleGroup::generate(0, &config, ds.num_features(), &plan);

    // Warm every shared cache; both paths then score from identical state.
    let packed = DensityEngine::prepare_batch(&group, &ds, &config).unwrap();
    DensityEngine
        .deviations_all_levels(&group, &ds, &config, &levels)
        .unwrap();
    SampleDensityEngine
        .deviations_all_levels(&group, &ds, &config, &levels)
        .unwrap();

    // Stage split: lockstep prep alone, scoring alone (on a pre-built
    // panel), and the per-sample gate-walk prep it replaced.
    let prep = best_of(9, || {
        DensityEngine::prepare_batch(&group, &ds, &config).unwrap()
    });
    let score = best_of(9, || {
        DensityEngine::score_prepared(&group, &packed, &config, &levels).unwrap()
    });
    let prep_per_sample = best_of(5, || {
        SampleDensityEngine::prepare_batch(&group, &ds, &config).unwrap()
    });
    record(
        "noisy_prep_ns_per_sample",
        ns_per_sample(prep, FLAGSHIP_SAMPLES),
    );
    record(
        "noisy_score_ns_per_sample",
        ns_per_sample(score, FLAGSHIP_SAMPLES),
    );
    record(
        "noisy_prep_per_sample_walk_ns_per_sample",
        ns_per_sample(prep_per_sample, FLAGSHIP_SAMPLES),
    );
    let prep_speedup = prep_per_sample.as_secs_f64() / prep.as_secs_f64();
    record("noisy_prep_lockstep_vs_per_sample_speedup", prep_speedup);
    println!(
        "noisy_stage_split                                        prep {prep:.2?} + score {score:.2?} (per-sample prep {prep_per_sample:.2?}, lockstep x{prep_speedup:.1})"
    );

    let batched = best_of(9, || {
        DensityEngine
            .deviations_all_levels(&group, &ds, &config, &levels)
            .unwrap()
    });
    let per_sample = best_of(5, || {
        SampleDensityEngine
            .deviations_all_levels(&group, &ds, &config, &levels)
            .unwrap()
    });
    record(
        "density_batched_ns_per_sample",
        ns_per_sample(batched, FLAGSHIP_SAMPLES),
    );
    record(
        "density_per_sample_ns_per_sample",
        ns_per_sample(per_sample, FLAGSHIP_SAMPLES),
    );
    let speedup = per_sample.as_secs_f64() / batched.as_secs_f64();
    record("density_batched_vs_per_sample_speedup", speedup);
    println!(
        "density_batch_speedup                                    batched {batched:.2?} vs per-sample {per_sample:.2?}"
    );
    println!(
        "density_batch_speedup_ratio                              batched/per-sample x{speedup:.2}"
    );
    expect_speed(
        speedup >= 1.7,
        format!(
            "end-to-end noisy scoring (lockstep prep + batched score) must be ≥1.7× the \
             per-sample path on the flagship config, got ×{speedup:.2}"
        ),
    );
    expect_speed(
        prep_speedup >= 1.3,
        format!(
            "lockstep prep must be ≥1.3× the per-sample gate-walk prep on the flagship \
             config, got ×{prep_speedup:.2}"
        ),
    );
}

/// Data qubits for the wide-register head-to-head: the width where
/// Noisy runs switch to the structured engine, because the dense engine's
/// cold readout-form build outweighs its faster warm scoring there.
const WIDE_DENSE_QUBITS: usize = 5;
/// Data qubits for the structured-only column — past the dense engine's
/// width cap on practicality (its n = 6 readout form is ~17 MB per level,
/// contracted from 2,080 fold columns of 8,192 reals each, over ten
/// seconds per level), so the structured engine runs alone and its
/// absolute time is the tracked metric.
const WIDE_STRUCTURED_QUBITS: usize = 6;
/// Wide-register columns run on a short batch, like the noisy oracle.
const WIDE_SAMPLES: usize = 24;

/// Synthetic normalized dataset for the wide-register columns — the
/// Table 1 sets carry too few features for n ≥ 5 registers.
fn wide_dataset(features: usize, samples: usize) -> Dataset {
    let m = features as f64;
    let rows: Vec<Vec<f64>> = (0..samples)
        .map(|i| {
            (0..features)
                .map(|j| {
                    let t = (i * features + j) as f64;
                    (t * 0.6173).sin().abs() / m
                })
                .collect()
        })
        .collect();
    Dataset::from_rows("wide-noisy", rows, None).unwrap()
}

fn wide_noisy_config(data_qubits: usize) -> QuorumConfig {
    QuorumConfig::default()
        .with_data_qubits(data_qubits)
        .with_ensemble_groups(1)
        .with_threads(1)
        .with_seed(42)
        .with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: None,
        })
}

/// The wide-register noisy column: structured per-gate channel scoring
/// vs the dense readout-form engine at n = 5, cold (a fresh group's
/// first pass) and warm, plus the structured engine alone at n = 6, a
/// width the dense path cannot practically reach. Warm, the dense engine
/// wins: its per-(sample, level) cost is one dot product against a
/// cached form. Cold, it builds one form per level — a channel-program
/// walk over the fold's `m = 528` columns and an `m × m` contraction —
/// where the structured engine only lowers the program, which is why
/// Noisy runs switch to the structured engine at
/// `STRUCTURED_AUTO_MIN_QUBITS = 5`.
/// Both engines share the identical lockstep batch preparation.
fn report_structured_noisy(_c: &mut Criterion) {
    let levels = vec![1usize, 2];

    // n = 5 head-to-head.
    let config = wide_noisy_config(WIDE_DENSE_QUBITS);
    let raw = wide_dataset(config.features_per_circuit(), WIDE_SAMPLES);
    let ds = quorum_core::detector::normalize_for_scoring(&config, &raw);
    let plan = BucketPlan::from_target(ds.num_samples(), 0.1, config.bucket_probability);
    // One pass of each engine over another group first builds what every
    // group in the process shares (the SWAP-test image `W·F` the dense
    // forms read, the prep skeleton, the fused gate channels), so the
    // cold timings below charge each engine only its own per-group builds.
    let warmup = EnsembleGroup::generate(1, &config, ds.num_features(), &plan);
    DensityEngine
        .deviations_all_levels(&warmup, &ds, &config, &levels)
        .unwrap();
    StructuredDensityEngine
        .deviations_all_levels(&warmup, &ds, &config, &levels)
        .unwrap();
    let group = EnsembleGroup::generate(0, &config, ds.num_features(), &plan);
    let start = Instant::now();
    let dense_devs = DensityEngine
        .deviations_all_levels(&group, &ds, &config, &levels)
        .unwrap();
    let dense_cold = start.elapsed();
    let start = Instant::now();
    let structured_devs = StructuredDensityEngine
        .deviations_all_levels(&group, &ds, &config, &levels)
        .unwrap();
    let structured_cold = start.elapsed();
    for (d, s) in dense_devs
        .iter()
        .flatten()
        .zip(structured_devs.iter().flatten())
    {
        assert!(
            (d - s).abs() <= 1e-9,
            "structured and dense engines diverged at n={WIDE_DENSE_QUBITS}: {d} vs {s}"
        );
    }
    let dense = best_of(3, || {
        DensityEngine
            .deviations_all_levels(&group, &ds, &config, &levels)
            .unwrap()
    });
    let structured = best_of(3, || {
        StructuredDensityEngine
            .deviations_all_levels(&group, &ds, &config, &levels)
            .unwrap()
    });
    record("dense_n5_ns_per_sample", ns_per_sample(dense, WIDE_SAMPLES));
    record(
        "structured_n5_ns_per_sample",
        ns_per_sample(structured, WIDE_SAMPLES),
    );
    // Informational (no `_speedup` suffix): both absolute columns above
    // are guarded on their own.
    let ratio = dense.as_secs_f64() / structured.as_secs_f64();
    record("structured_over_dense_n5_ratio", ratio);
    record("dense_n5_cold_pass_ms", dense_cold.as_secs_f64() * 1e3);
    record(
        "structured_n5_cold_pass_ms",
        structured_cold.as_secs_f64() * 1e3,
    );
    let cold_speedup = dense_cold.as_secs_f64() / structured_cold.as_secs_f64();
    println!(
        "structured_noisy_n5                                      warm: structured {structured:.2?} vs dense {dense:.2?} (x{ratio:.2})"
    );
    println!(
        "structured_noisy_n5_cold                                 cold: structured {structured_cold:.2?} vs dense {dense_cold:.2?} (x{cold_speedup:.1})"
    );
    expect_speed(
        ratio < 1.0,
        format!(
            "with warm readout forms the dense engine should beat the structured engine at \
             n={WIDE_DENSE_QUBITS}, got structured/dense ×{ratio:.2}"
        ),
    );
    expect_speed(
        cold_speedup >= 10.0,
        format!(
            "a cold dense pass at n={WIDE_DENSE_QUBITS} walks a channel program over 528 fold \
             columns and contracts a 528 × 528 readout form per level, so the structured \
             engine's first pass should be ≥10× cheaper, got ×{cold_speedup:.1}"
        ),
    );

    // n = 6, structured only — the width the 16^n wall used to fence off.
    let config6 = wide_noisy_config(WIDE_STRUCTURED_QUBITS);
    let raw6 = wide_dataset(config6.features_per_circuit(), WIDE_SAMPLES);
    let ds6 = quorum_core::detector::normalize_for_scoring(&config6, &raw6);
    let plan6 = BucketPlan::from_target(ds6.num_samples(), 0.1, config6.bucket_probability);
    let group6 = EnsembleGroup::generate(0, &config6, ds6.num_features(), &plan6);
    let devs6 = StructuredDensityEngine
        .deviations_all_levels(&group6, &ds6, &config6, &levels)
        .unwrap();
    assert!(
        devs6.iter().flatten().all(|d| (0.0..=1.0).contains(d)),
        "n={WIDE_STRUCTURED_QUBITS} structured deviations must be probabilities"
    );
    let structured6 = best_of(3, || {
        StructuredDensityEngine
            .deviations_all_levels(&group6, &ds6, &config6, &levels)
            .unwrap()
    });
    record(
        "structured_noisy_ns_per_sample",
        ns_per_sample(structured6, WIDE_SAMPLES),
    );
    println!(
        "structured_noisy_n6                                      structured {structured6:.2?} ({WIDE_SAMPLES} samples, {} levels)",
        levels.len()
    );
}

/// The widths below `STRUCTURED_AUTO_MIN_QUBITS`, where Noisy runs score
/// on the dense engine, with the informational keys their crossover
/// column records.
const CROSSOVER: [(usize, &str, &str); 2] = [
    (
        3,
        "structured_over_dense_n3_ratio",
        "structured_over_dense_n3_detector_ratio",
    ),
    (
        4,
        "structured_over_dense_n4_ratio",
        "structured_over_dense_n4_detector_ratio",
    ),
];

/// The dense/structured crossover below `STRUCTURED_AUTO_MIN_QUBITS`, the
/// only thing that chooses between the two noisy engines. Both ratios are
/// dense time over structured time, like the n = 5 column's, and neither
/// is guarded. `…_ratio` times one resident flagship group with warm
/// caches, which is what a frozen server pays per panel.
/// `…_detector_ratio` times whole passes through
/// [`QuorumDetector::score_with`], which draws fresh groups every pass,
/// so the dense engine rebuilds its readout forms each time — what a
/// one-shot detector pays.
fn report_noisy_crossover(_c: &mut Criterion) {
    let ds = truncate(&table1_specs()[0].load(42), NOISY_SAMPLES);
    let engines: [&dyn ScoringEngine; 2] = [&DensityEngine, &StructuredDensityEngine];
    for (n, warm_key, detector_key) in CROSSOVER {
        let config = noisy_flagship_config()
            .with_data_qubits(n)
            .with_ensemble_groups(1);
        let normalized = quorum_core::detector::normalize_for_scoring(&config, &ds);
        let levels = config.effective_compression_levels();
        let plan =
            BucketPlan::from_target(normalized.num_samples(), 0.1, config.bucket_probability);
        let group = EnsembleGroup::generate(0, &config, normalized.num_features(), &plan);
        let [dense, structured] = engines.map(|engine| {
            let pass = || {
                engine
                    .deviations_all_levels(&group, &normalized, &config, &levels)
                    .unwrap()
            };
            pass();
            best_of(5, pass)
        });
        let [dense_pass, structured_pass] =
            engines.map(|engine| time_noisy_engine(config.clone(), &ds, engine, 3));
        let warm = dense.as_secs_f64() / structured.as_secs_f64();
        let detector = dense_pass.as_secs_f64() / structured_pass.as_secs_f64();
        record(warm_key, warm);
        record(detector_key, detector);
        println!(
            "noisy_crossover_n{n}                                       warm: structured {structured:.2?} vs dense {dense:.2?} (x{warm:.2}); detector: structured {structured_pass:.2?} vs dense {dense_pass:.2?} (x{detector:.2})"
        );
    }
}

/// Deterministic dense test matrix for the raw kernel column.
fn dense(rows: usize, cols: usize, salt: u64) -> CMatrix {
    let mut m = CMatrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let t = (i * cols + j) as f64 + salt as f64 * 0.37;
            m[(i, j)] = C64::new((t * 0.7311).sin(), (t * 1.1931).cos());
        }
    }
    m
}

/// Times one GEMM closure: repeats it enough to clear timer noise and
/// returns the best per-product time.
fn time_gemm(reps: usize, mut f: impl FnMut() -> CMatrix) -> Duration {
    black_box(f());
    (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            start.elapsed() / reps as u32
        })
        .min()
        .unwrap()
}

/// The raw GEMM-kernel column on two flagship shapes: the `4³ × 4³`
/// fused-superoperator product over a 96-sample batch (the dense noisy
/// engine now scores through readout forms instead) and the `2³ × 2³`
/// encoder product (the batched pure-state engine now runs the
/// real-amplitude lane kernel `qsim::kernel::encode_readout_lanes`
/// instead), dispatched kernel vs scalar oracle, with GFLOP/s
/// throughputs (8 real flops per complex multiply–add). No production
/// scoring path runs either product.
fn report_gemm_kernel(_c: &mut Criterion) {
    let fma_tile = qsim::kernel::simd_active();
    record("simd_active", if fma_tile { 1.0 } else { 0.0 });

    // Flagship density GEMM: 64×64 · 64×96.
    let a = dense(64, 64, 1);
    let b = dense(64, 96, 2);
    let scalar = time_gemm(200, || a.matmul_scalar(&b).unwrap());
    let dispatch = time_gemm(200, || a.matmul(&b).unwrap());
    let flops = 8.0 * 64.0 * 64.0 * 96.0;
    let scalar_gflops = flops / scalar.as_secs_f64() / 1e9;
    let dispatch_gflops = flops / dispatch.as_secs_f64() / 1e9;
    let speedup = scalar.as_secs_f64() / dispatch.as_secs_f64();
    record("gemm_scalar_gflops", scalar_gflops);
    record("gemm_simd_gflops", dispatch_gflops);
    record("gemm_simd_vs_scalar_speedup", speedup);
    println!(
        "gemm_kernel_flagship_64x64x96                            scalar {scalar_gflops:.2} GFLOP/s vs dispatch {dispatch_gflops:.2} GFLOP/s (x{speedup:.2})"
    );

    // Flagship encoder GEMM: 8×8 · 8×96 (reported, not asserted — the
    // shape is too small for lane parallelism to dominate fixed costs).
    let ae = dense(8, 8, 3);
    let be = dense(8, 96, 4);
    let scalar_e = time_gemm(2000, || ae.matmul_scalar(&be).unwrap());
    let dispatch_e = time_gemm(2000, || ae.matmul(&be).unwrap());
    let encoder_speedup = scalar_e.as_secs_f64() / dispatch_e.as_secs_f64();
    record("gemm_encoder_simd_vs_scalar_speedup", encoder_speedup);
    println!(
        "gemm_kernel_flagship_8x8x96                              scalar {scalar_e:.2?} vs dispatch {dispatch_e:.2?} (x{encoder_speedup:.2})"
    );

    if fma_tile {
        expect_speed(
            speedup >= 2.0,
            format!("the SIMD GEMM kernel must be ≥2× the scalar oracle on the flagship 64×64·64×96 product, got ×{speedup:.2}"),
        );
    } else {
        println!(
            "gemm_kernel_simd_assert                                  skipped (SIMD kernel inactive: this CPU lacks AVX2 + FMA, so the portable tile runs)"
        );
    }
}

/// Coalescing batch sizes for the serving-throughput column.
const SERVE_BATCHES: [usize; 3] = [1, 8, 32];
/// Groups for the serving column — enough work per panel for the batched
/// engine seams to matter, small enough for a best-of protocol.
const SERVE_GROUPS: usize = 8;

/// The serving-throughput column: sustained streamed scoring through a
/// frozen noisy detector at coalescing batch sizes 1, 8 and 32. The
/// per-sample cost must fall as the coalescing window admits bigger
/// panels — that drop is exactly what the cross-request batcher buys a
/// long-lived server, since every panel runs once through the batched
/// `prepare_batch`/`score_prepared` and `deviations_all_levels` seams
/// instead of per-sample. Scores are batch-invariant (pinned by the
/// serve crate's tests), so the sizes here only move throughput.
fn report_serve_throughput(_c: &mut Criterion) {
    let config = noisy_flagship_config().with_ensemble_groups(SERVE_GROUPS);
    let ds = flagship_dataset();
    let frozen = quorum_serve::FrozenDetector::freeze(config, &ds).unwrap();
    let rows = ds.strip_labels().rows().to_vec();

    let mut per_sample_ns = Vec::new();
    for &batch in &SERVE_BATCHES {
        // Warm up, then best-of-5 sweeps of the whole stream in
        // `batch`-sized coalesced panels with stable running ids.
        let sweep = |rows: &[Vec<f64>]| {
            let mut next_id = 0u64;
            for chunk in rows.chunks(batch) {
                black_box(frozen.score_samples(chunk, next_id).unwrap());
                next_id += chunk.len() as u64;
            }
        };
        sweep(&rows);
        let elapsed = best_of(5, || sweep(&rows));
        let ns = ns_per_sample(elapsed, rows.len());
        per_sample_ns.push(ns);
        let throughput = rows.len() as f64 / elapsed.as_secs_f64();
        match batch {
            1 => record("serve_batch1_ns_per_sample", ns),
            8 => record("serve_batch8_ns_per_sample", ns),
            _ => {
                record("serve_batch32_ns_per_sample", ns);
                record("serve_batch32_samples_per_sec", throughput);
            }
        }
        println!(
            "serve_throughput_batch{batch:<2}                                   {ns:.0} ns/sample ({throughput:.0} samples/s)"
        );
    }
    let coalescing_gain = per_sample_ns[0] / per_sample_ns[2];
    record(
        "serve_coalescing_batch32_vs_batch1_speedup",
        coalescing_gain,
    );
    println!(
        "serve_throughput_coalescing_gain                         batch32/batch1 x{coalescing_gain:.2}"
    );
    expect_speed(
        per_sample_ns[2] < per_sample_ns[1] && per_sample_ns[1] < per_sample_ns[0],
        format!(
            "per-sample cost must fall as the coalescing batch grows, got {per_sample_ns:?} ns"
        ),
    );

    // Pooled steady state: one warm batch-32 panel scored repeatedly.
    // After warm-up the thread-local panel, density scratch and GEMM
    // buffers are all resident (pinned by the serve crate's
    // alloc-discipline test), so this column isolates the zero-copy
    // request path the server runs per coalesced panel — no per-sweep
    // chunking or tail batches.
    let batch: Vec<Vec<f64>> = rows.iter().take(32).cloned().collect();
    frozen.score_samples(&batch, 0).unwrap();
    const POOLED_REPS: usize = 8;
    let elapsed = best_of(5, || {
        for _ in 0..POOLED_REPS {
            black_box(frozen.score_samples(&batch, 0).unwrap());
        }
    });
    let pooled_ns = ns_per_sample(elapsed, batch.len() * POOLED_REPS);
    let pooled_throughput = (batch.len() * POOLED_REPS) as f64 / elapsed.as_secs_f64();
    record("serve_pooled_batch32_ns_per_sample", pooled_ns);
    record("serve_pooled_batch32_samples_per_sec", pooled_throughput);
    let pooled_gain = per_sample_ns[0] / pooled_ns;
    record("serve_pooled_vs_batch1_speedup", pooled_gain);
    println!(
        "serve_pooled_batch32                                     {pooled_ns:.0} ns/sample ({pooled_throughput:.0} samples/s, x{pooled_gain:.2} vs batch1)"
    );
}

/// Writes every recorded metric to `BENCH_engines.json` (override the
/// path with `QUORUM_BENCH_JSON`) so CI and future PRs can track the
/// perf trajectory without scraping bench stdout, then fails the bench
/// if any speed bar was missed.
fn emit_bench_json(_c: &mut Criterion) {
    let path =
        std::env::var("QUORUM_BENCH_JSON").unwrap_or_else(|_| "BENCH_engines.json".to_string());
    let metrics = METRICS.lock().expect("metrics registry");
    let mut json = String::from("{\n");
    json.push_str("  \"config\": {\n");
    json.push_str(&format!(
        "    \"data_qubits\": 3,\n    \"ensemble_groups\": {FLAGSHIP_GROUPS},\n"
    ));
    json.push_str(&format!(
        "    \"samples\": {FLAGSHIP_SAMPLES},\n    \"noisy_samples\": {NOISY_SAMPLES}\n  }},\n"
    ));
    json.push_str("  \"metrics\": {\n");
    for (idx, (key, value)) in metrics.iter().enumerate() {
        let sep = if idx + 1 == metrics.len() { "" } else { "," };
        json.push_str(&format!("    \"{key}\": {value:.3}{sep}\n"));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&path, &json).expect("write bench JSON");
    println!("bench_json                                               wrote {path}");
    let misses = MISSES.lock().expect("misses registry");
    assert!(
        misses.is_empty(),
        "{} speed bar(s) missed:\n{}",
        misses.len(),
        misses.join("\n")
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engines, report_speedup, report_noisy_speedup,
        report_density_batch_speedup, report_structured_noisy, report_noisy_crossover,
        report_gemm_kernel, report_serve_throughput, emit_bench_json
}
criterion_main!(benches);
