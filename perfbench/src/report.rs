//! Sample statistics, host facts and the two JSON lines every run prints.

use std::fmt::Write as _;
use std::time::Duration;

/// One reported metric: its value, unit and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Collects metrics in the order they are produced.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }
}

/// Counts of attempted operations and of the ones that failed: a typed
/// error, a transport error or an answer that differs from the reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Facts about the host and build that every result carries; results whose
/// facts differ are not comparable (`compare.py` refuses them).
pub fn host_facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc", nproc.to_string()),
        ("simd_active", qsim::kernel::simd_active().to_string()),
        (
            "pool_workers",
            qsim::parallel::WorkerPool::global().workers().to_string(),
        ),
        ("profile", profile.to_string()),
        ("commit", commit()),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What one run measured and under which conditions.
pub struct RunResult<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub outcome: Outcome,
    pub metrics: &'a Metrics,
}

impl RunResult<'_> {
    pub fn correct(&self) -> bool {
        self.outcome.attempted > 0
            && self.outcome.failed == 0
            && self.metrics.0.iter().all(|m| m.value.is_finite())
    }

    /// The full record: host facts, seed, error rate and per-metric sample
    /// counts. `compare.py` reads these lines.
    pub fn record_line(&self) -> String {
        let host: Vec<String> = host_facts()
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit),
                    m.samples
                )
            })
            .collect();
        format!(
            "{{\"perfbench_record\": 1, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"host\": {{{}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {}, \
             \"metrics\": {{{}}}}}",
            json_string(self.workload),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            host.join(", "),
            self.correct(),
            self.outcome.attempted,
            self.outcome.failed,
            json_number(self.outcome.error_rate()),
            metrics.join(", ")
        )
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (value and unit per metric).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        // A run that attempted nothing reports one failed attempt.
        let (attempted, failed) = match self.outcome.attempted {
            0 => (1, 1),
            n => (n, self.outcome.failed),
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            attempted,
            failed,
            metrics.join(", ")
        )
    }
}
