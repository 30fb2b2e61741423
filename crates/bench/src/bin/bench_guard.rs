//! Bench-regression guard: compares a freshly emitted `BENCH_engines.json`
//! against the committed `BENCH_baseline.json` and fails (exit code 1)
//! when any tracked metric regresses by more than 25%. Guarding is
//! direction-aware: `*_ns_per_sample` metrics regress when they RISE,
//! `*_speedup` ratios regress when they DROP — a collapsing speedup
//! (e.g. SIMD silently falling back to scalar, or coalesced serving
//! sliding back toward its batch-1 cost) now fails even when the
//! absolute wall times stay inside their own 25% band.
//!
//! Usage: `bench_guard <baseline.json> <current.json>`
//!
//! GFLOP/s and samples/sec columns move with the host and remain
//! informational. Metric-set mismatches are reported as actionable
//! diffs: a guarded metric that is in the baseline but MISSING from the
//! fresh run is a hard failure (a bench column silently disappeared —
//! either restore it or delete the stale key from `BENCH_baseline.json`
//! in the same PR), while a metric that is new in the fresh run is only
//! a note reminding you to fold it into the baseline. The parser reads
//! exactly the flat `"key": value` lines `engine_comparison.rs` emits —
//! no JSON dependency needed offline.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Regressions beyond this factor fail the job: generous enough to absorb
/// normal runner jitter on the best-of-N protocol, tight enough to catch a
/// real algorithmic slip. Lower-is-better metrics fail above this ratio;
/// higher-is-better metrics fail below its reciprocal.
const MAX_REGRESSION: f64 = 1.25;

/// Which way a guarded metric is allowed to move.
#[derive(Clone, Copy, PartialEq)]
enum Direction {
    /// `*_ns_per_sample`: regression when the value RISES.
    LowerIsBetter,
    /// `*_speedup`: regression when the value DROPS.
    HigherIsBetter,
}

/// Classifies a metric key into its guarded direction, or `None` for
/// informational columns (GFLOP/s, samples/sec, flags).
fn guarded_direction(key: &str) -> Option<Direction> {
    if key.ends_with("_ns_per_sample") {
        Some(Direction::LowerIsBetter)
    } else if key.ends_with("_speedup") {
        Some(Direction::HigherIsBetter)
    } else {
        None
    }
}

/// Extracts the flat `"key": value` metric pairs from the bench JSON's
/// `metrics` object (the exact format `emit_bench_json` writes).
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut in_metrics = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("\"metrics\"") {
            in_metrics = true;
            continue;
        }
        if !in_metrics {
            continue;
        }
        if line.starts_with('}') {
            break;
        }
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim().trim_end_matches(',');
        if let Ok(v) = value.parse::<f64>() {
            out.insert(key, v);
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: bench_guard <baseline.json> <current.json>");
        return ExitCode::from(2);
    }
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    let baseline = parse_metrics(&read(&args[1]));
    let current = parse_metrics(&read(&args[2]));
    if baseline.is_empty() || current.is_empty() {
        eprintln!(
            "no metrics parsed (baseline: {}, current: {})",
            baseline.len(),
            current.len()
        );
        return ExitCode::from(2);
    }

    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    println!(
        "{:<44} {:>14} {:>14} {:>8}",
        "metric", "baseline", "current", "ratio"
    );
    for (key, &base) in baseline.iter() {
        let Some(direction) = guarded_direction(key) else {
            continue;
        };
        let Some(&now) = current.get(key) else {
            println!(
                "{key:<44} {base:>14.3} {:>14} {:>8}  MISSING",
                "absent", "-"
            );
            missing.push(key.clone());
            continue;
        };
        let ratio = now / base;
        let regressed = match direction {
            Direction::LowerIsBetter => ratio > MAX_REGRESSION,
            Direction::HigherIsBetter => ratio < 1.0 / MAX_REGRESSION,
        };
        let flag = if regressed { "  REGRESSED" } else { "" };
        println!("{key:<44} {base:>14.3} {now:>14.3} {ratio:>8.2}{flag}");
        if regressed {
            regressions.push((key.clone(), ratio));
        }
    }
    let new_keys: Vec<&String> = current
        .keys()
        .filter(|k| guarded_direction(k).is_some() && !baseline.contains_key(*k))
        .collect();
    for key in &new_keys {
        println!("{key:<44} {:>14} {:>14} {:>8}", "-", "new", "-");
    }
    if !new_keys.is_empty() {
        println!(
            "\nnote: {} new metric(s) not yet in the baseline — fold them into \
             BENCH_baseline.json so future regressions are caught:",
            new_keys.len()
        );
        for key in &new_keys {
            println!("  + {key}: {:.3}", current[*key]);
        }
    }

    if regressions.is_empty() && missing.is_empty() {
        println!(
            "\nbench guard: all tracked ns/sample and speedup metrics within \
             {MAX_REGRESSION}x of baseline (speedups guarded against drops)"
        );
        ExitCode::SUCCESS
    } else {
        if !regressions.is_empty() {
            eprintln!(
                "\nbench guard: {} metric(s) regressed more than {:.0}% against \
                 BENCH_baseline.json:",
                regressions.len(),
                (MAX_REGRESSION - 1.0) * 100.0
            );
            for (key, ratio) in &regressions {
                eprintln!("  {key}: x{ratio:.2}");
            }
            eprintln!("(refresh the baseline intentionally if this slowdown is accepted)");
        }
        if !missing.is_empty() {
            eprintln!(
                "\nbench guard: {} baseline metric(s) missing from the fresh bench output:",
                missing.len()
            );
            for key in &missing {
                eprintln!("  - {key}");
            }
            eprintln!(
                "(a bench column disappeared — restore it in engine_comparison.rs, or if the \
                 removal is intentional, delete the stale key from BENCH_baseline.json)"
            );
        }
        ExitCode::FAILURE
    }
}
