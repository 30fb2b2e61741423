//! The TCP request path never sizes a buffer by a client's declared
//! feature count.
//!
//! A request declaring 2^20 features against a 7-feature detector is a
//! well-framed width mismatch: the server must drain its 8 MiB payload
//! through a fixed-size buffer, answer the width error and keep the
//! connection usable. A counting global allocator pins that no single
//! allocation of 1 MiB or more happens while that request and a valid
//! follow-up are served.
//!
//! This test owns its binary so no sibling test's allocations can leak
//! into the tracked window.

use qdata::Dataset;
use quorum_core::QuorumConfig;
use quorum_serve::{CoalescePolicy, FrozenDetector, QuorumServer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Allocations at or above this size are counted while tracking is on.
const LARGE: usize = 1 << 20;

/// The declared feature count of the oversized request: the largest the
/// server accepts as well-framed.
const DECLARED: u32 = 1 << 20;

static TRACKING: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

fn observe(size: usize) {
    if size >= LARGE && TRACKING.load(Ordering::Relaxed) {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`; the counter is a pure
// observer with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        observe(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        observe(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        observe(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Deterministic 12×7 reference dataset (same shape as the serving suite).
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
    Dataset::from_rows("buffers-ref", rows, None).unwrap()
}

/// Sends one score request for `row` and returns the raw response: the
/// status byte and its payload bytes.
fn request(stream: &mut TcpStream, row: &[f64]) -> (u8, Vec<u8>) {
    let mut frame = (row.len() as u32).to_le_bytes().to_vec();
    for v in row {
        frame.extend_from_slice(&v.to_le_bytes());
    }
    stream.write_all(&frame).unwrap();
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut status = [0u8; 1];
    stream.read_exact(&mut status).unwrap();
    let payload = if status[0] == 0 {
        let mut score = [0u8; 8];
        stream.read_exact(&mut score).unwrap();
        score.to_vec()
    } else {
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).unwrap();
        let mut message = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut message).unwrap();
        message
    };
    (status[0], payload)
}

#[test]
fn width_mismatch_is_drained_without_a_declared_size_allocation() {
    let config = QuorumConfig::default()
        .with_ensemble_groups(4)
        .with_threads(1)
        .with_seed(0x5EEF_1E55);
    let frozen = Arc::new(FrozenDetector::freeze(config, &reference()).unwrap());
    let row: Vec<f64> = (0..7).map(|j| 0.3 + 0.1 * j as f64).collect();
    let direct = frozen.score_samples(std::slice::from_ref(&row), 0).unwrap()[0];
    let mut server = QuorumServer::bind(
        "127.0.0.1:0",
        Arc::clone(&frozen),
        CoalescePolicy::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // Warm the connection's handler, the batcher and the scoring pool.
    let (status, _) = request(&mut stream, &row);
    assert_eq!(status, 0);
    let zeros = vec![0u8; 64 << 10];

    LARGE_ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    stream.write_all(&DECLARED.to_le_bytes()).unwrap();
    let mut remaining = DECLARED as usize * 8;
    while remaining > 0 {
        let chunk = remaining.min(zeros.len());
        stream.write_all(&zeros[..chunk]).unwrap();
        remaining -= chunk;
    }
    let (mismatch_status, message) = read_response(&mut stream);
    let (status, score) = request(&mut stream, &row);
    TRACKING.store(false, Ordering::SeqCst);

    assert_eq!(mismatch_status, 1, "a width mismatch is an error frame");
    let message = String::from_utf8(message).unwrap();
    assert!(
        message.contains(&format!("expected 7 features, got {DECLARED}")),
        "{message}"
    );
    assert_eq!(status, 0, "the connection stays usable after the error");
    let served = f64::from_le_bytes(score.try_into().unwrap());
    assert_eq!(served.to_bits(), direct.to_bits());
    let count = LARGE_ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "serving the mismatched request made {count} allocation(s) of >= {LARGE} bytes"
    );
    server.shutdown();
}
