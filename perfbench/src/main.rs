//! The repository benchmark. One run sets up one workload from its seed,
//! measures it for `--seconds`, checks every answer, and prints its
//! metrics; the last line of standard output is the JSON result.
//!
//! ```text
//! perfbench --workload <offline_table1|stream_noisy32|rpc_noisy2>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the
//! workload's loop untraced and traced (their difference is the tracing
//! overhead), then replays the seed's inputs one layer down and reports the
//! per-layer metrics; its spans are written to `perfbench/results/`.

mod layers;
mod report;
mod trace;
mod workloads;

use qmetrics::stats::median;
use quorum_serve::FrozenDetector;
use report::{peak_rss_mib, Metrics, Outcome, RunResult};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{
    freeze_detector, serve_config, table1_cases, Case, Offline, Rpc, Serving, SetupPhases, Timed,
    F1_DRAWS, SERVE_GROUPS, TABLE1_GROUPS,
};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    OfflineTable1,
    StreamNoisy32,
    RpcNoisy2,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::OfflineTable1,
        Workload::StreamNoisy32,
        Workload::RpcNoisy2,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::OfflineTable1 => "offline_table1",
            Workload::StreamNoisy32 => "stream_noisy32",
            Workload::RpcNoisy2 => "rpc_noisy2",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <offline_table1|stream_noisy32|rpc_noisy2> \
                     --seed <n> --seconds <1..=60> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?).filter(|s| (1..=60).contains(s)),
            "--trace" => trace = Some(number()?).filter(|t| *t <= 1).map(|t| t == 1),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be 1..=60")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

/// Closed-loop operations run (and checked) before timing starts, so pool
/// threads, scratch buffers and caches are warm.
const WARMUP: Duration = Duration::from_millis(500);

/// Alternating untraced/traced slices of the traced run's workload loop.
const TRACE_SLICES: usize = 8;

/// A workload after set-up, ready to run its timed loop.
enum Prepared {
    Offline(Offline),
    Stream(Serving),
    Rpc(Serving, Rpc),
}

impl Prepared {
    fn run(&mut self, duration: Duration, tracer: Option<&Tracer>) -> Timed {
        match self {
            Prepared::Offline(o) => o.run(duration, tracer),
            Prepared::Stream(s) => s.run_stream(duration, tracer),
            Prepared::Rpc(s, rpc) => rpc.run(s, duration, tracer),
        }
    }

    fn f1_mean(&self) -> f64 {
        match self {
            Prepared::Offline(o) => o.f1_mean(),
            Prepared::Stream(s) | Prepared::Rpc(s, _) => s.f1,
        }
    }
}

struct Setup {
    prepared: Prepared,
    /// Wall time of each set-up repetition.
    setup_s: Vec<f64>,
    /// Phase times of each frozen-detector set-up (serving workloads).
    phases: Vec<SetupPhases>,
    /// Checks made during set-up and warm-up.
    checks: Outcome,
}

/// Set-up repetitions timed before the timed loop, and as many again after
/// it. The reported median then spans two moments of the run, so a host
/// that is briefly slow at one of them does not decide it. Offline set-up
/// (synthesis only) takes milliseconds, so it is repeated more often.
fn setup_repeats(workload: Workload) -> usize {
    match workload {
        Workload::OfflineTable1 => 10,
        Workload::StreamNoisy32 | Workload::RpcNoisy2 => 4,
    }
}

/// One set-up of a workload before its reference answers are computed.
enum Fresh {
    Offline(Vec<Case>),
    Serving(Arc<FrozenDetector>, Vec<Vec<f64>>, Vec<bool>, Option<Rpc>),
}

/// Sets `workload` up `setup_repeats` times, recording each repetition's
/// wall time (and the frozen detector's phase times), and returns the last.
fn timed_setups(
    workload: Workload,
    seed: u64,
    setup_s: &mut Vec<f64>,
    phases: &mut Vec<SetupPhases>,
) -> Fresh {
    let mut last = None;
    for _ in 0..setup_repeats(workload) {
        // The previous repetition (for RPC its server) is torn down untimed.
        drop(last.take());
        let t = Instant::now();
        let fresh = match workload {
            Workload::OfflineTable1 => Fresh::Offline(table1_cases(seed)),
            Workload::StreamNoisy32 | Workload::RpcNoisy2 => {
                let (frozen, rows, labels, ph) = freeze_detector(seed);
                let frozen = Arc::new(frozen);
                let rpc = (workload == Workload::RpcNoisy2)
                    .then(|| Rpc::start(&frozen).expect("bind loopback server and connect"));
                phases.push(ph);
                Fresh::Serving(frozen, rows, labels, rpc)
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some(fresh);
    }
    last.expect("at least one set-up repetition")
}

/// Sets the workload up (timed, repeated), computes its reference answers
/// and warms it up.
fn setup(workload: Workload, seed: u64) -> Setup {
    let mut setup_s = Vec::new();
    let mut phases = Vec::new();
    let mut prepared = match timed_setups(workload, seed, &mut setup_s, &mut phases) {
        Fresh::Offline(cases) => Prepared::Offline(Offline::new(cases, seed)),
        Fresh::Serving(frozen, rows, labels, None) => {
            Prepared::Stream(Serving::new(frozen, rows, labels, seed))
        }
        Fresh::Serving(frozen, rows, labels, Some(rpc)) => {
            Prepared::Rpc(Serving::new(frozen, rows, labels, seed), rpc)
        }
    };
    let mut checks = match &prepared {
        Prepared::Offline(o) => o.checks,
        Prepared::Stream(s) | Prepared::Rpc(s, _) => s.checks,
    };
    if workload != Workload::OfflineTable1 {
        // The offline reference passes already warmed everything up.
        checks.merge(prepared.run(WARMUP, None).outcome);
    }
    Setup {
        prepared,
        setup_s,
        phases,
        checks,
    }
}

fn run_end_to_end(args: &Args, metrics: &mut Metrics) -> Outcome {
    let mut setup = setup(args.workload, args.seed);
    let timed = setup.prepared.run(Duration::from_secs(args.seconds), None);
    // Read before the second round of set-ups adds its own allocations.
    let peak_rss = peak_rss_mib();
    timed_setups(
        args.workload,
        args.seed,
        &mut setup.setup_s,
        &mut setup.phases,
    );
    let mut outcome = setup.checks;
    outcome.merge(timed.outcome);

    if let Prepared::Offline(o) = &setup.prepared {
        for (case, f1) in o.cases.iter().zip(&o.f1) {
            println!(
                "f1 {:<14} {f1:.4} (mean of {F1_DRAWS} draws)",
                case.spec.name
            );
        }
    }
    let ops = timed.ops();
    metrics.push("samples_per_s", timed.samples_per_s(), "1/s", ops);
    metrics.push("latency_p50_us", timed.latency_us(0.5), "us", ops);
    metrics.push("latency_p90_us", timed.latency_us(0.9), "us", ops);
    metrics.push(
        "ok_ratio",
        1.0 - outcome.error_rate(),
        "ratio",
        outcome.attempted as usize,
    );
    metrics.push("setup_s", median(&setup.setup_s), "s", setup.setup_s.len());
    metrics.push("peak_rss_mib", peak_rss, "MiB", 1);
    metrics.push("f1_mean", setup.prepared.f1_mean(), "ratio", 1);
    outcome
}

fn run_traced(args: &Args, metrics: &mut Metrics) -> Outcome {
    let tracer = Tracer::new();
    let seconds = args.seconds as f64;
    let mut setup = setup(args.workload, args.seed);
    let mut outcome = setup.checks;

    // The workload's own loop for half the run, alternating untraced and
    // traced slices so drift over the run does not read as overhead.
    let slice = Duration::from_secs_f64(seconds / 2.0 / TRACE_SLICES as f64);
    let mut untraced = Timed::default();
    let mut traced = Timed::default();
    for i in 0..TRACE_SLICES {
        if i % 2 == 0 {
            untraced.absorb(setup.prepared.run(slice, None));
        } else {
            traced.absorb(setup.prepared.run(slice, Some(&tracer)));
        }
    }
    outcome.merge(untraced.outcome);
    outcome.merge(traced.outcome);
    metrics.push(
        "trace.overhead_p50_us",
        traced.latency_us(0.5) - untraced.latency_us(0.5),
        "us",
        traced.ops(),
    );

    // The layer probes need both the Table I datasets and the frozen
    // detector, whichever workload is traced.
    let config = serve_config(args.seed);
    let dim = 1usize << config.data_qubits;
    let levels = config.effective_compression_levels().len();
    let mut phases = setup.phases.clone();
    let (own_cases, own_serving);
    let (cases, serving, flops) = match &setup.prepared {
        Prepared::Offline(o) => {
            let Fresh::Serving(frozen, rows, labels, _) = timed_setups(
                Workload::StreamNoisy32,
                args.seed,
                &mut Vec::new(),
                &mut phases,
            ) else {
                unreachable!("a serving workload sets up a frozen detector")
            };
            own_serving = Serving::new(frozen, rows, labels, args.seed);
            outcome.merge(own_serving.checks);
            let flops = layers::exact_flops_per_sample(TABLE1_GROUPS, dim);
            (&o.cases[..], &own_serving, flops)
        }
        Prepared::Stream(s) | Prepared::Rpc(s, _) => {
            own_cases = table1_cases(args.seed);
            let flops = layers::noisy_flops_per_sample(SERVE_GROUPS, dim, levels);
            (&own_cases[..], s, flops)
        }
    };
    metrics.push("qsim.kernel.flops_per_sample", flops, "flop", 1);
    let inputs = layers::Inputs {
        seed: args.seed,
        cases,
        serving,
        phases: &phases,
        tracer: &tracer,
        budget: Duration::from_secs_f64(seconds * 0.04),
        server_budget: Duration::from_secs_f64(seconds * 0.2),
    };
    layers::measure(&inputs, metrics, &mut outcome);

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
    match tracer.write_jsonl(&path) {
        Ok(n) => println!("trace: {n} spans written to {}", path.display()),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::default();
    let outcome = if args.trace {
        run_traced(&args, &mut metrics)
    } else {
        run_end_to_end(&args, &mut metrics)
    };
    let result = RunResult {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        outcome,
        metrics: &metrics,
    };
    println!(
        "{} seed={} seconds={} trace={}: {} of {} operations failed (error_rate {})",
        result.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.failed,
        outcome.attempted,
        outcome.error_rate()
    );
    for m in &metrics.0 {
        println!(
            "  {:<42} {:>16.4} {:<8} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", result.record_line());
    println!("{}", result.result_line());
    ExitCode::SUCCESS
}
