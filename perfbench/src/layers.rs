//! Per-layer probes for the traced run.
//!
//! Each probe replays the workloads' inputs one layer down, through that
//! layer's public functions, and records a span around every call. Self
//! times are span durations minus the part their child spans cover. The
//! probes use only the seed's inputs, so every traced run reports the same
//! set of layer metrics whichever workload it traces.

use crate::report::{Metrics, Outcome};
use crate::trace::{coverage_by_name, durations_ns, Tracer};
use crate::workloads::{table1_config, Case, Rpc, Serving, SetupPhases, PANEL_ROWS, RPC_CLIENTS};
use qdata::Dataset;
use qmetrics::stats;
use qsim::matrix::CMatrix;
use qsim::parallel::{map_indexed, WorkerPool};
use qsim::C64;
use quorum_core::bucket::BucketPlan;
use quorum_core::detector::normalize_for_scoring;
use quorum_core::ensemble::EnsembleGroup;
use quorum_core::{BatchedAnalyticEngine, DensityEngine, ExecutionMode, ScoringEngine};
use quorum_serve::{BatchScorer, CoalescePolicy, FrozenArtifact};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Real floating-point operations of one complex `m×k · k×n` product.
fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    8.0 * (m * k * n) as f64
}

/// GEMM flops per scored sample of the batched analytic engine: one
/// `2^n × 2^n` encoder product per group.
pub fn exact_flops_per_sample(groups: usize, dim: usize) -> f64 {
    groups as f64 * gemm_flops(dim, dim, 1)
}

/// GEMM flops per scored sample of the dense noisy engine: per group the
/// readout image `W·P` plus one superoperator product per level, each
/// `4^n × 4^n · 4^n × S`.
pub fn noisy_flops_per_sample(groups: usize, dim: usize, levels: usize) -> f64 {
    let d2 = dim * dim;
    groups as f64 * (1 + levels) as f64 * gemm_flops(d2, d2, 1)
}

pub struct Inputs<'a> {
    pub seed: u64,
    pub cases: &'a [Case],
    pub serving: &'a Serving,
    pub phases: &'a [SetupPhases],
    pub tracer: &'a Tracer,
    /// Time each short probe runs for.
    pub budget: Duration,
    /// Time the loopback server probe runs for.
    pub server_budget: Duration,
}

/// Iterations after which a probe stops even inside its budget; keeps the
/// span store and the trace file small for sub-microsecond probes.
const MAX_ITERS: u64 = 20_000;

/// Runs `f` repeatedly for `budget`: at least once, at most `MAX_ITERS`
/// times.
fn repeat_for(budget: Duration, mut f: impl FnMut(u64)) {
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || (i < MAX_ITERS && start.elapsed() < budget) {
        f(i);
        i += 1;
    }
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Runs every probe, pushing its metrics; answers the probes check (replayed
/// scores against the program's own) count into `outcome`.
pub fn measure(inp: &Inputs<'_>, metrics: &mut Metrics, outcome: &mut Outcome) {
    kernel(inp, metrics);
    parallel(inp, metrics);
    detector_replay(inp, metrics, outcome);
    let panel_s2 = frozen_panels(inp, metrics, outcome);
    artifact(inp, metrics);
    serving_path(inp, metrics, outcome, panel_s2);
}

fn kernel(inp: &Inputs<'_>, metrics: &mut Metrics) {
    let tr = inp.tracer;
    // 8×8 · 8×S at the offline panel widths (the Table I sample counts).
    let spec = &inp.cases[0].spec;
    let config = table1_config(spec, inp.seed);
    let plan = BucketPlan::from_target(
        inp.cases[0].data.num_samples(),
        spec.anomaly_rate(),
        spec.bucket_probability,
    );
    let group = EnsembleGroup::generate(0, &config, inp.cases[0].data.num_features(), &plan);
    let encoder = group.fused_encoder().expect("fuse encoder").clone();
    let dim = encoder.rows();
    let panels: Vec<CMatrix> = inp
        .cases
        .iter()
        .map(|c| filled(dim, c.data.num_samples()))
        .collect();
    let mut flops = 0.0;
    repeat_for(inp.budget, |op| {
        for psi in &panels {
            tr.span("qsim.kernel.gemm_8x8", None, op, |_| {
                black_box(encoder.matmul_threaded(black_box(psi), 1).expect("gemm"))
            });
            flops += gemm_flops(dim, dim, psi.cols());
        }
    });
    let d = durations_ns(&tr.spans(), "qsim.kernel.gemm_8x8");
    metrics.push(
        "qsim.kernel.gemm_gflops_8x8",
        flops / sum(&d),
        "GFLOP/s",
        d.len(),
    );

    // 64×64 · 64×32: one noisy superoperator over one stream panel.
    let frozen = &inp.serving.frozen;
    let noise = noise_of(frozen.config());
    let superop = frozen.groups()[0]
        .fused_noisy_superop(&noise, 1)
        .expect("fused superoperator");
    let d2 = superop.rows();
    let rhs = filled(d2, PANEL_ROWS);
    let mut out = CMatrix::zeros(0, 0);
    let mut flops = 0.0;
    repeat_for(inp.budget, |op| {
        tr.span("qsim.kernel.gemm_64x64", None, op, |_| {
            superop
                .matmul_threaded_into(black_box(&rhs), 1, &mut out)
                .expect("gemm");
            black_box(&out);
        });
        flops += gemm_flops(d2, d2, PANEL_ROWS);
    });
    let spans = tr.spans();
    let d = durations_ns(&spans, "qsim.kernel.gemm_64x64");
    metrics.push(
        "qsim.kernel.gemm_gflops_64x64",
        flops / sum(&d),
        "GFLOP/s",
        d.len(),
    );
}

/// A `rows × cols` matrix of deterministic non-zero entries.
fn filled(rows: usize, cols: usize) -> CMatrix {
    let mut m = CMatrix::zeros(rows, cols);
    for (i, z) in m.as_mut_slice().iter_mut().enumerate() {
        let x = i as f64;
        *z = C64::new((0.37 * x).sin(), (0.11 * x).cos());
    }
    m
}

fn noise_of(config: &quorum_core::QuorumConfig) -> qsim::NoiseModel {
    match &config.execution {
        ExecutionMode::Noisy { noise, .. } => noise.clone(),
        _ => unreachable!("the serving detector runs Noisy"),
    }
}

fn parallel(inp: &Inputs<'_>, metrics: &mut Metrics) {
    let tr = inp.tracer;
    let groups = inp.serving.frozen.groups().len();
    let threads = inp.serving.frozen.config().effective_threads();
    repeat_for(inp.budget, |op| {
        tr.span("qsim.parallel.dispatch", None, op, |_| {
            black_box(map_indexed(groups, threads, black_box))
        });
    });
    let d = durations_ns(&tr.spans(), "qsim.parallel.dispatch");
    metrics.push(
        "qsim.parallel.dispatch_us",
        stats::median(&d) / 1e3,
        "us",
        d.len(),
    );
    metrics.push(
        "qsim.parallel.workers",
        WorkerPool::global().workers() as f64,
        "count",
        1,
    );
}

/// Replays `QuorumDetector::score` one layer down, one group at a time:
/// normalisation, bucket plan, then per group `EnsembleGroup::generate` +
/// `fused_encoder` (span) and the batched analytic engine (span), and the
/// bucket z-scores and the sum. The replayed totals must equal the
/// detector's scores bit for bit.
fn detector_replay(inp: &Inputs<'_>, metrics: &mut Metrics, outcome: &mut Outcome) {
    let tr = inp.tracer;
    let engine = BatchedAnalyticEngine;
    let expected: Vec<Option<Vec<f64>>> = inp
        .cases
        .iter()
        .map(|case| {
            quorum_core::QuorumDetector::new(table1_config(&case.spec, inp.seed))
                .and_then(|d| d.score(&case.data))
                .ok()
                .map(|r| r.scores().to_vec())
        })
        .collect();
    let mut sample_levels = 0.0;
    repeat_for(inp.budget, |round| {
        for (k, case) in inp.cases.iter().enumerate() {
            let config = table1_config(&case.spec, inp.seed);
            let levels = config.effective_compression_levels();
            let op = round * inp.cases.len() as u64 + k as u64;
            let totals = tr.span("core.detector.pass", None, op, |pass| {
                let normalized = normalize_for_scoring(&config, &case.data);
                let plan = BucketPlan::from_target(
                    normalized.num_samples(),
                    config.anomaly_rate_estimate.unwrap_or(0.05),
                    config.bucket_probability,
                );
                let mut totals = vec![0.0; normalized.num_samples()];
                let mut values = Vec::new();
                for g in 0..config.ensemble_groups {
                    let group = tr.span("core.ensemble.generate", Some(pass), op, |_| {
                        let group =
                            EnsembleGroup::generate(g, &config, normalized.num_features(), &plan);
                        group.fused_encoder().expect("fuse encoder");
                        group
                    });
                    let per_level = tr.span("core.engine.exact", Some(pass), op, |_| {
                        engine.deviations_all_levels(&group, &normalized, &config, &levels)
                    });
                    let Ok(per_level) = per_level else {
                        return None;
                    };
                    let mut partial = vec![0.0; totals.len()];
                    for deviations in &per_level {
                        for bucket in group.buckets() {
                            values.clear();
                            values.extend(bucket.iter().map(|&i| deviations[i]));
                            let mu = stats::mean(&values);
                            let sigma = stats::population_std(&values);
                            for &i in bucket {
                                partial[i] += stats::zscore(deviations[i], mu, sigma).abs();
                            }
                        }
                    }
                    for (t, p) in totals.iter_mut().zip(partial) {
                        *t += p;
                    }
                }
                Some(totals)
            });
            sample_levels +=
                (case.data.num_samples() * levels.len() * config.ensemble_groups) as f64;
            outcome.record(match (&totals, &expected[k]) {
                (Some(t), Some(e)) => {
                    t.len() == e.len() && t.iter().zip(e).all(|(a, b)| a.to_bits() == b.to_bits())
                }
                _ => false,
            });
        }
    });
    let spans = tr.spans();
    let generate = durations_ns(&spans, "core.ensemble.generate");
    metrics.push(
        "core.ensemble.generate_us_per_group",
        stats::median(&generate) / 1e3,
        "us",
        generate.len(),
    );
    let exact = durations_ns(&spans, "core.engine.exact");
    metrics.push(
        "core.engine.exact_ns_per_sample_level",
        sum(&exact) / sample_levels,
        "ns",
        exact.len(),
    );
    // Per dataset, the median self time over rounds; then the mean over
    // the four datasets.
    let passes = coverage_by_name(&spans, "core.detector.pass");
    let per_case: Vec<f64> = (0..inp.cases.len())
        .map(|k| {
            let selfs: Vec<f64> = passes
                .iter()
                .skip(k)
                .step_by(inp.cases.len())
                .map(|(d, c)| d - c)
                .collect();
            stats::median(&selfs)
        })
        .collect();
    metrics.push(
        "core.detector.self_us_per_pass",
        sum(&per_case) / per_case.len() as f64 / 1e3,
        "us",
        passes.len(),
    );
}

/// Static span names per panel width.
struct PanelNames {
    panel: &'static str,
    replay: &'static str,
    prep: &'static str,
    apply: &'static str,
    suffix: &'static str,
}

const PANEL_WIDTHS: [(usize, PanelNames); 2] = [
    (
        PANEL_ROWS,
        PanelNames {
            panel: "serve.frozen.panel.s32",
            replay: "serve.frozen.replay.s32",
            prep: "core.engine.noisy_prep.s32",
            apply: "core.engine.noisy_apply.s32",
            suffix: "s32",
        },
    ),
    (
        RPC_CLIENTS,
        PanelNames {
            panel: "serve.frozen.panel.s2",
            replay: "serve.frozen.replay.s2",
            prep: "core.engine.noisy_prep.s2",
            apply: "core.engine.noisy_apply.s2",
            suffix: "s2",
        },
    ),
];

/// Times `FrozenDetector::score_samples` on 32- and 2-row panels, and
/// replays each panel one layer down: the frozen normaliser, then per group
/// (fanned out with `map_indexed`, as `score_samples` does)
/// `DensityEngine::prepare_batch` and `score_prepared` in their own spans,
/// then the frozen z-scores. The replay must reproduce the panel's scores
/// bit for bit. Returns the 2-row panel's median time in microseconds.
fn frozen_panels(inp: &Inputs<'_>, metrics: &mut Metrics, outcome: &mut Outcome) -> f64 {
    let tr = inp.tracer;
    let serving = inp.serving;
    let frozen = &serving.frozen;
    let artifact: FrozenArtifact = frozen.to_artifact().expect("artifact");
    let config = frozen.config();
    let levels = config.effective_compression_levels();
    let threads = config.effective_threads();
    let groups = frozen.groups();
    let mut panel_s2_us = f64::NAN;
    for (width, names) in &PANEL_WIDTHS {
        repeat_for(inp.budget, |op| {
            let first = op as usize * width % serving.rows.len();
            let panel = serving.panel(first, *width);
            let id = op * *width as u64;
            let scores = tr.span(names.panel, None, op, |_| frozen.score_samples(&panel, id));
            let replayed = tr.span(names.replay, None, op, |replay| {
                let raw = Dataset::from_rows("panel", panel.clone(), None).ok()?;
                let normalized = artifact.normalizer.apply(&raw);
                let partials = map_indexed(groups.len(), threads, |g| {
                    let packed = tr.span(names.prep, Some(replay), op, |_| {
                        DensityEngine::prepare_batch(&groups[g], &normalized, config)
                    })?;
                    tr.span(names.apply, Some(replay), op, |_| {
                        DensityEngine::score_prepared(&groups[g], &packed, config, &levels)
                    })
                });
                let mut totals = vec![0.0; *width];
                for (g, per_level) in partials.into_iter().enumerate() {
                    let per_level = per_level.ok()?;
                    let mut partial = vec![0.0; *width];
                    for (deviations, s) in per_level.iter().zip(&artifact.stats[g]) {
                        for (p, &d) in partial.iter_mut().zip(deviations) {
                            *p += stats::zscore(d, s.mean, s.std).abs();
                        }
                    }
                    for (t, p) in totals.iter_mut().zip(partial) {
                        *t += p;
                    }
                }
                Some(totals)
            });
            let ok = match (&scores, &replayed) {
                (Ok(s), Some(r)) => {
                    s.iter().zip(r).all(|(a, b)| a.to_bits() == b.to_bits())
                        && s.iter().enumerate().all(|(j, v)| {
                            v.to_bits()
                                == serving.reference[(first + j) % serving.rows.len()].to_bits()
                        })
                }
                _ => false,
            };
            outcome.record(ok);
        });
        let spans = tr.spans();
        let panel = durations_ns(&spans, names.panel);
        let coverage: Vec<f64> = coverage_by_name(&spans, names.replay)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        let per_sample = |name: &str| {
            let d = durations_ns(&spans, name);
            sum(&d) / (d.len() * width) as f64
        };
        let panel_us = stats::median(&panel) / 1e3;
        metrics.push(
            format!("core.engine.noisy_prep_ns_per_sample.{}", names.suffix),
            per_sample(names.prep),
            "ns",
            panel.len() * groups.len(),
        );
        metrics.push(
            format!("core.engine.noisy_apply_ns_per_sample.{}", names.suffix),
            per_sample(names.apply),
            "ns",
            panel.len() * groups.len(),
        );
        metrics.push(
            format!("serve.frozen.panel_us.{}", names.suffix),
            panel_us,
            "us",
            panel.len(),
        );
        metrics.push(
            format!("serve.frozen.self_us.{}", names.suffix),
            panel_us - stats::median(&coverage) / 1e3,
            "us",
            panel.len(),
        );
        if *width == RPC_CLIENTS {
            panel_s2_us = panel_us;
        }
    }
    panel_s2_us
}

fn artifact(inp: &Inputs<'_>, metrics: &mut Metrics) {
    let n = inp.phases.len();
    let freeze: Vec<f64> = inp.phases.iter().map(|p| p.freeze_s).collect();
    let thaw: Vec<f64> = inp.phases.iter().map(|p| p.thaw_s).collect();
    metrics.push("serve.artifact.freeze_s", stats::median(&freeze), "s", n);
    metrics.push("serve.artifact.thaw_s", stats::median(&thaw), "s", n);
    metrics.push(
        "serve.artifact.bytes",
        inp.phases[0].bytes as f64,
        "bytes",
        n,
    );
}

/// The batcher in process (`BatchHandle::score` from two closed-loop
/// threads), then the whole loopback server (`ScoreClient::score` from two
/// connections). Differences of medians split the request round trip into
/// the frozen panel, the batcher's wait and the server's own work.
fn serving_path(inp: &Inputs<'_>, metrics: &mut Metrics, outcome: &mut Outcome, panel_s2_us: f64) {
    let tr = inp.tracer;
    let serving = inp.serving;
    let n = serving.rows.len();
    let batcher = BatchScorer::start(Arc::clone(&serving.frozen), CoalescePolicy::default())
        .expect("start batcher");
    let start = Instant::now();
    let outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..RPC_CLIENTS)
            .map(|c| {
                let handle = batcher.handle();
                s.spawn(move || {
                    let mut o = Outcome::default();
                    let mut i = c;
                    while start.elapsed() < inp.budget {
                        let row = serving.rows[i % n].clone();
                        let score =
                            tr.span("serve.batch.request", None, i as u64, |_| handle.score(row));
                        o.record(
                            score.is_ok_and(|v| v.to_bits() == serving.reference[i % n].to_bits()),
                        );
                        i += RPC_CLIENTS;
                    }
                    o
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("batch client panicked"))
            .collect()
    });
    outcomes.into_iter().for_each(|o| outcome.merge(o));
    let batch_shed = batcher.shed_total();
    drop(batcher);
    let rtt = durations_ns(&tr.spans(), "serve.batch.request");
    let rtt_us = stats::median(&rtt) / 1e3;
    metrics.push("serve.batch.rtt_us", rtt_us, "us", rtt.len());
    metrics.push(
        "serve.batch.window_wait_us",
        rtt_us - panel_s2_us,
        "us",
        rtt.len(),
    );

    let mut rpc = Rpc::start(&serving.frozen).expect("loopback server");
    let timed = rpc.run(serving, inp.server_budget, Some(tr));
    outcome.merge(timed.outcome);
    let rows_per_panel =
        rpc.server.samples_scored() as f64 / rpc.server.batches_dispatched().max(1) as f64;
    let shed = rpc.server.shed_total() + batch_shed;
    let open_after = rpc.disconnect();
    drop(rpc);
    let requests = timed.ops();
    metrics.push(
        "serve.batch.rows_per_panel",
        rows_per_panel,
        "rows",
        requests,
    );
    metrics.push(
        "serve.batch.shed_total",
        shed as f64,
        "count",
        requests + rtt.len(),
    );
    metrics.push(
        "serve.server.self_us",
        timed.latency_us(0.5) - rtt_us,
        "us",
        requests,
    );
    metrics.push(
        "serve.server.rtt_p99_us",
        timed.latency_us(0.99),
        "us",
        requests,
    );
    metrics.push(
        "serve.server.rtt_p999_us",
        timed.latency_us(0.999),
        "us",
        requests,
    );
    metrics.push(
        "serve.server.open_connections_after",
        open_after as f64,
        "count",
        1,
    );
}
