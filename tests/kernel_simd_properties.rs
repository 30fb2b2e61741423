//! Property pins for the split-complex GEMM kernel layer: the dispatching
//! kernel (the AVX2/FMA tile where the CPU has it, else the portable
//! autovectorised SoA body) against the bit-exact scalar oracle on
//! [`CMatrix::matmul_scalar`], across non-square, odd and remainder-lane
//! shapes, ragged panels, structural zeros and thread counts, plus the
//! column independence a served score relies on.
//!
//! The fast blocks run on every `cargo test`; the `#[ignore]`d block is
//! the exhaustive suite CI executes with `cargo test -- --ignored` and a
//! bumped `PROPTEST_CASES`. The portable body is also pinned bit for bit
//! by `qsim`'s kernel unit tests, which call it directly.

use proptest::prelude::*;
use quorum::sim::complex::C64;
use quorum::sim::matrix::{CMatrix, GEMM_COL_BLOCK};

/// Pseudo-random but deterministic dense matrix.
fn dense(rows: usize, cols: usize, salt: u64) -> CMatrix {
    let mut m = CMatrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let t = (i * cols + j) as f64 + salt as f64 * 0.377;
            m[(i, j)] = C64::new((t * 0.7311).sin(), (t * 1.1931).cos());
        }
    }
    m
}

/// Like [`dense`], with a deterministic sprinkle of structural zeros so
/// the oracle's sparse-term skip and the branchless kernels disagree on
/// nothing but the sign of zero.
fn sparse(rows: usize, cols: usize, salt: u64) -> CMatrix {
    let mut m = dense(rows, cols, salt);
    for i in 0..rows {
        for j in 0..cols {
            if (i * 7 + j * 3 + salt as usize).is_multiple_of(5) {
                m[(i, j)] = C64::ZERO;
            }
        }
    }
    m
}

fn check_against_oracle(a: &CMatrix, b: &CMatrix) {
    let oracle = a.matmul_scalar(b).unwrap();
    let fast = a.matmul(b).unwrap();
    assert_eq!((fast.rows(), fast.cols()), (oracle.rows(), oracle.cols()));
    for (i, (f, o)) in fast.as_slice().iter().zip(oracle.as_slice()).enumerate() {
        assert!(
            f.approx_eq(*o, 1e-12),
            "{}x{}·{}x{} entry {i}: dispatched {f} vs oracle {o}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
    }
    // Thread-count invariance is bit-for-bit: panels are position-fixed
    // and every panel runs the same kernel.
    for threads in [2usize, 4] {
        let threaded = a.matmul_threaded(b, threads).unwrap();
        assert_eq!(fast.as_slice(), threaded.as_slice(), "threads {threads}");
    }
    // Column independence is bit-for-bit: a column multiplied alone runs
    // the column remainder, which replays the vector lanes' operation
    // sequence, so a served score equals its row scored alone.
    let bits = |z: C64| (z.re.to_bits(), z.im.to_bits());
    for j in 0..b.cols() {
        let column = CMatrix::from_columns(&[b.column(j)]);
        let alone = a.matmul(&column).unwrap();
        for i in 0..a.rows() {
            assert_eq!(
                bits(alone[(i, 0)]),
                bits(fast[(i, j)]),
                "{}x{}·{}x{} entry ({i}, {j}): alone vs in the wide product",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes straddling the 4-row/4-lane register tiles and the
    /// panel boundary, dense and zero-sprinkled alike.
    #[test]
    fn dispatched_gemm_matches_scalar_oracle(
        rows in 1usize..24,
        inner in 1usize..24,
        cols in 1usize..90,
        salt in 0u64..10_000,
    ) {
        check_against_oracle(&dense(rows, inner, salt), &dense(inner, cols, salt + 1));
        check_against_oracle(&sparse(rows, inner, salt + 2), &sparse(inner, cols, salt + 3));
    }

    /// Unitary-shaped products (the batched engines' shapes): a square
    /// power-of-two operator times a wide batch.
    #[test]
    fn dispatched_gemm_matches_oracle_on_engine_shapes(
        log_dim in 1u32..7,
        batch in 1usize..100,
        salt in 0u64..10_000,
    ) {
        let dim = 1usize << log_dim;
        check_against_oracle(&dense(dim, dim, salt), &dense(dim, batch, salt + 1));
    }
}

#[test]
fn panel_boundary_shapes_are_exact() {
    // Widths around GEMM_COL_BLOCK exercise full panels, ragged tails and
    // the single-panel sequential fast path.
    for cols in [
        GEMM_COL_BLOCK - 1,
        GEMM_COL_BLOCK,
        GEMM_COL_BLOCK + 1,
        2 * GEMM_COL_BLOCK + 3,
    ] {
        check_against_oracle(&dense(16, 16, 5), &dense(16, cols, 6));
    }
}

#[test]
fn identity_and_zero_operands() {
    let m = dense(8, 40, 9);
    let id = CMatrix::identity(8);
    let through = id.matmul(&m).unwrap();
    assert!(through.approx_eq(&m, 1e-12));
    let z = CMatrix::zeros(8, 8);
    let zero = z.matmul(&m).unwrap();
    assert!(zero.approx_eq(&CMatrix::zeros(8, 40), 1e-12));
}

proptest! {
    // Source default of 256 cases, overridable via PROPTEST_CASES (CI
    // bumps it only for the --ignored job).
    #![proptest_config(ProptestConfig::default())]

    /// Exhaustive kernel-equivalence sweep — cheap per case, so it can
    /// afford hundreds of cases in the ignored CI job.
    #[test]
    #[ignore = "slow exhaustive suite; run with `cargo test -- --ignored`"]
    fn exhaustive_dispatched_gemm_matches_scalar_oracle(
        rows in 1usize..40,
        inner in 1usize..40,
        cols in 1usize..130,
        salt in 0u64..1_000_000,
    ) {
        check_against_oracle(&dense(rows, inner, salt), &dense(inner, cols, salt + 1));
        check_against_oracle(&sparse(rows, inner, salt + 2), &sparse(inner, cols, salt + 3));
    }
}
