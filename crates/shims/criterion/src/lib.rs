//! Offline stand-in for the `criterion` benchmarking crate.
//!
//! The build environment has no crates.io access, so this crate implements
//! the subset of Criterion's API the workspace benches use —
//! [`Criterion`], benchmark groups, [`BenchmarkId`], `b.iter(..)`,
//! [`black_box`] and the `criterion_group!`/`criterion_main!` macros —
//! backed by a simple wall-clock timer. Numbers are printed as
//! `name ... time: [median] (n samples)`; there is no statistical
//! regression analysis, but medians over auto-sized batches are stable
//! enough for the ≥5× comparisons this workspace cares about.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimiser from deleting benched
/// work.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{function_name}/{parameter}"))
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Per-iteration timer handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    /// Median per-iteration time of the last `iter` call.
    last_median: Duration,
}

impl Bencher {
    /// Times `f`, auto-sizing batches so each sample lasts ≥ ~5 ms, and
    /// records the median per-iteration time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and batch sizing.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let target = Duration::from_millis(5);
        let batch = (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;

        let mut per_iter: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            per_iter.push(start.elapsed() / batch as u32);
        }
        per_iter.sort_unstable();
        self.last_median = per_iter[per_iter.len() / 2];
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _criterion: self,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let sample_size = self.sample_size;
        run_one(&id.into().0, sample_size, f);
        self
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs a benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into().0);
        run_one(&label, self.sample_size, f);
        self
    }

    /// Runs a benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.0);
        run_one(&label, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (report flushing is a no-op here).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, samples: usize, mut f: F) {
    let mut bencher = Bencher {
        samples,
        last_median: Duration::ZERO,
    };
    f(&mut bencher);
    println!(
        "{label:<56} time: [{}] ({samples} samples)",
        format_duration(bencher.last_median)
    );
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default().sample_size(3);
        let mut runs = 0usize;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        assert!(runs > 0);
    }

    #[test]
    fn groups_run_inputs() {
        let mut c = Criterion::default().sample_size(2);
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        let mut total = 0u64;
        group.bench_with_input(BenchmarkId::new("sum", 4), &4u64, |b, &n| {
            b.iter(|| {
                total += n;
                black_box(total)
            })
        });
        group.finish();
        assert!(total > 0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12 ns");
        assert!(format_duration(Duration::from_micros(12)).contains("µs"));
        assert!(format_duration(Duration::from_millis(12)).contains("ms"));
        assert!(format_duration(Duration::from_secs(2)).contains("s"));
    }
}
