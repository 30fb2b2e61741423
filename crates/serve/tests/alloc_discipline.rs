//! Allocation discipline for the pooled serving hot path.
//!
//! Wraps the system allocator in a counter and asserts that steady-state
//! [`FrozenDetector::score_samples`] — after a warm-up that sizes the
//! thread-local panel, prepared triangles, lane blocks and scratch
//! buffers — performs **zero** heap allocations of 1 KiB or more, on
//! 32-row, 2-row and block-straddling panels, for frozen Noisy, Exact
//! and Sampled detectors. Small per-call vectors (the per-sample score
//! totals and per-level deviations, 256 B at batch 32) stay under the
//! threshold by design; anything panel- or matrix-shaped that slips back
//! onto the allocator trips the counter.
//!
//! This test owns its binary so no sibling test's allocations can leak
//! into the tracked window.

use qdata::Dataset;
use qsim::NoiseModel;
use quorum_core::config::ExecutionMode;
use quorum_core::QuorumConfig;
use quorum_serve::FrozenDetector;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Allocations at or above this size are counted while tracking is on.
/// Per-panel buffers reach it at batch 32 (the normalised panel, the
/// prepared triangles, a complex `2^n × S` matrix); legitimate per-call
/// vectors at batch 32 stay below it.
const LARGE: usize = 1024;

static TRACKING: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter is a pure
// observer with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE && TRACKING.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE && TRACKING.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE && TRACKING.load(Ordering::Relaxed) {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Deterministic reference dataset (same shape as the serving suite).
fn reference() -> Dataset {
    let rows: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            (0..7)
                .map(|j| {
                    let x = (i * 7 + j) as f64;
                    (x * 0.37).sin() * (1.0 + 0.1 * j as f64) + 0.01 * x
                })
                .collect()
        })
        .collect();
    Dataset::from_rows("alloc-ref", rows, None).unwrap()
}

/// `count` streamed rows distinct from the reference set.
fn stream_rows(count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..7)
                .map(|j| ((i * 13 + j * 5) as f64 * 0.23).cos() * 0.8 + 0.05 * j as f64)
                .collect()
        })
        .collect()
}

/// The flagship serving configuration under `execution`: four groups
/// at n = 3, single-threaded (the serving sweet spot on one core).
fn serving_config(execution: ExecutionMode) -> QuorumConfig {
    QuorumConfig::default()
        .with_data_qubits(3)
        .with_ensemble_groups(4)
        .with_ansatz_layers(2)
        .with_threads(1)
        .with_seed(0x5EEF_1E55)
        .with_execution(execution)
}

/// Scores `rows` until the pooled buffers are warm, then counts large
/// allocations over five more steady-state panels.
fn large_allocations_in_steady_state(frozen: &FrozenDetector, rows: &[Vec<f64>]) -> usize {
    // Warm-up: size the pooled panel, the prepared triangles, the
    // thread-local block and density scratch, and every noise/skeleton
    // cache. Three rounds so second-order lazy-init settles.
    let warm = frozen.score_samples(rows, 0).unwrap();
    for i in 1..3u64 {
        let again = frozen.score_samples(rows, 0).unwrap();
        assert_eq!(warm, again, "warm-up round {i} must be bit-identical");
    }

    LARGE_ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        let scores = frozen.score_samples(rows, 0).unwrap();
        assert_eq!(scores, warm, "steady-state scores must stay bit-identical");
    }
    TRACKING.store(false, Ordering::SeqCst);
    LARGE_ALLOCS.load(Ordering::SeqCst)
}

/// One test for every detector and panel shape, so no sibling test runs
/// inside a tracked window. Detectors: Noisy Brisbane (the dense engine's
/// shared prep stage), Exact and Sampled at 1,024 shots (the batched
/// analytic engine's lane blocks, plus one shot draw per deviation).
/// Panels: batch 32; the two-row panels an RPC server mostly sees; and
/// 9 rows, whose 4 × 9 (group, row) columns span two of the dense
/// engine's 32-column prep blocks, with group 3's columns 27..36
/// straddling the boundary, and whose rows fill one 8-lane block and
/// one lane of a second.
#[test]
fn steady_state_score_samples_makes_no_large_allocations() {
    let executions = [
        (
            "noisy",
            ExecutionMode::Noisy {
                noise: NoiseModel::brisbane(),
                shots: None,
            },
        ),
        ("exact", ExecutionMode::Exact),
        ("sampled", ExecutionMode::Sampled { shots: 1024 }),
    ];
    for (name, execution) in executions {
        let frozen = FrozenDetector::freeze(serving_config(execution), &reference()).unwrap();
        for rows in [32, 2, 9] {
            let count = large_allocations_in_steady_state(&frozen, &stream_rows(rows));
            assert_eq!(
                count, 0,
                "steady-state score_samples of the {name} detector on {rows}-row panels \
                 performed {count} allocation(s) of >= {LARGE} bytes; the pooled request path \
                 must not touch the allocator for panel- or matrix-sized buffers after warm-up"
            );
        }
    }
}
