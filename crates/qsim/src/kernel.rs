//! Split-complex SIMD micro-kernels behind the GEMM seam.
//!
//! [`CMatrix::matmul_threaded`](crate::matrix::CMatrix::matmul_threaded)
//! computes its output in independent column panels; this module owns the
//! panel kernel. Three implementations share one contract (the row-major
//! `a_rows × width` block of `A·B` covering output columns `c0..c1`):
//!
//! 1. **Scalar oracle** ([`mul_panel_scalar`]): the original interleaved
//!    `C64` i–k–j loop. Slowest, but the bit-exact reference every other
//!    kernel is pinned against.
//! 2. **Split-complex SoA** ([`mul_panel`], default): the `rhs` panel is
//!    repacked once into separate re/im `f64` slices, and the output is
//!    produced in register tiles — 4 rows × 4 column lanes with the `k`
//!    reduction innermost, so the 32 partial sums live in registers for
//!    the whole reduction instead of streaming through memory per `k`.
//!    The lane loops are pure branchless unrolled `f64` arithmetic that
//!    stable rustc autovectorises; because the default x86-64 target
//!    baseline stops at 128-bit SSE2, the same safe body is *also*
//!    compiled under `#[target_feature(enable = "avx")]` and dispatched
//!    at runtime, giving full 256-bit lanes on any AVX machine with no
//!    cargo feature and no behaviour change. Each output element
//!    accumulates the exact expression the scalar oracle evaluates
//!    (`re += ar·br − ai·bi; im += ar·bi + ai·br`) in the same `k` order;
//!    the only divergence is that the oracle's sparse-term skip is traded
//!    for multiplying exact `±0`s through (branches would defeat
//!    vectorisation), which can flip the sign of a zero but never a
//!    value — so without the `simd` feature the results equal the
//!    oracle's, bitwise except for zero signs.
//! 3. **AVX2/FMA** (`--features simd`, x86-64 only): the same tiling
//!    driven by explicit 256-bit `core::arch` FMA intrinsics. Selected
//!    *at runtime* via `is_x86_feature_detected!` — a `simd` build still
//!    runs correctly (through kernel 2) on hardware without AVX2. FMA
//!    contracts the multiply–add rounding step, so this path is not
//!    bit-identical to the oracle; property suites pin it to ≤ 1e-12.
//!
//! The repack buffers live in a [`PanelScratch`] owned by the caller:
//! `matmul_threaded` hands each worker thread one scratch for its whole
//! panel stream (via [`crate::parallel::map_indexed_with`]), and the
//! sequential path reuses a thread-local scratch across calls, so repeated
//! GEMMs on a fixed configuration stop reallocating per panel.

use crate::complex::C64;

/// Output rows per register tile: four rows' accumulators (4 × 4 lanes ×
/// re/im = 8 vectors) plus the broadcast multiplicands fit the 16-register
/// AVX2 file, and every extra row in the tile divides the `rhs`-panel
/// read traffic by one more.
const TILE_ROWS: usize = 4;

/// Output column lanes per register tile: one 256-bit vector of `f64`.
/// [`crate::matrix::GEMM_COL_BLOCK`] must stay a multiple of this so
/// threaded panels and the sequential full-width panel put the same
/// columns in lane tiles vs the scalar remainder (statically asserted
/// there) — otherwise FMA builds would lose bit-for-bit thread-count
/// determinism.
pub(crate) const LANES: usize = 4;

/// Elements (per re/im buffer) the long-lived sequential scratch may
/// retain between GEMMs: 512 Ki doubles — 4 MiB each — covers every
/// supported shape except the `n = 6` density extreme (`4096 × S`
/// batches), which pays a realloc per pass instead of pinning
/// batch-sized buffers on the thread forever (the same trade the noisy
/// superoperator cache makes). Per-call worker scratches die with their
/// threads and are never trimmed.
pub(crate) const SCRATCH_RETAIN_ELEMS: usize = 1 << 19;

/// Reusable split-complex workspace for the panel kernels: the repacked
/// re/im copies of one `rhs` panel. Buffers only ever grow, so a scratch
/// reused across same-shape GEMMs allocates once.
#[derive(Debug, Default)]
pub struct PanelScratch {
    /// Real parts of the current `rhs` panel, `k`-major (`a_cols × width`).
    b_re: Vec<f64>,
    /// Imaginary parts of the current `rhs` panel, same layout.
    b_im: Vec<f64>,
}

impl PanelScratch {
    /// Creates an empty scratch; buffers are sized lazily by the kernels.
    pub fn new() -> Self {
        PanelScratch::default()
    }

    /// Releases oversized repack buffers (beyond
    /// [`SCRATCH_RETAIN_ELEMS`]) so a long-lived scratch — the
    /// sequential path's thread-local — never pins an extreme-shape
    /// allocation past the GEMM that needed it.
    pub(crate) fn trim(&mut self) {
        if self.b_re.capacity() > SCRATCH_RETAIN_ELEMS {
            self.b_re = Vec::new();
            self.b_im = Vec::new();
        }
    }
}

/// Returns `true` when the explicit AVX2/FMA kernel is both compiled in
/// (`--features simd` on x86-64) and supported by the running CPU. The
/// single runtime-dispatch predicate for every SIMD path in the crate.
#[inline]
pub fn simd_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// The scalar oracle: interleaved-`C64` i–k–j panel kernel (the PR 2
/// kernel, verbatim). Kept as the bit-exact reference for the SoA and
/// AVX2 kernels and as the baseline the SIMD speedup is measured against.
#[allow(clippy::too_many_arguments)] // flat BLAS-style kernel signature
pub fn mul_panel_scalar(
    a: &[C64],
    a_rows: usize,
    a_cols: usize,
    b: &[C64],
    b_cols: usize,
    c0: usize,
    c1: usize,
) -> Vec<C64> {
    let width = c1 - c0;
    let mut panel = vec![C64::ZERO; a_rows * width];
    for i in 0..a_rows {
        let a_row = &a[i * a_cols..(i + 1) * a_cols];
        let out_row = &mut panel[i * width..(i + 1) * width];
        for (k, &av) in a_row.iter().enumerate() {
            if av == C64::ZERO {
                continue;
            }
            let b_row = &b[k * b_cols + c0..k * b_cols + c1];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    panel
}

/// Returns `true` when the AVX-recompiled autovec kernels are usable: the
/// same safe Rust bodies compiled with 256-bit vectors enabled,
/// dispatched at runtime, available on any x86-64 build (no cargo feature
/// needed). Shared by this module's SoA tiles and the density-matrix
/// lane kernels.
#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))] // callers are x86-64-gated
pub(crate) fn avx_autovec_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Returns `true` when the 512-bit recompilation rung is usable: the same
/// safe Rust bodies compiled with AVX-512 (F + VL + DQ) enabled. One more
/// step on the same ladder as [`avx_autovec_active`] — no intrinsics, no
/// contraction, so results stay identical to the baseline bodies; only the
/// vector width doubles. Cached after the first probe (the lane kernels
/// sit inside per-gate loops, unlike the per-panel GEMM dispatch).
#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))] // callers are x86-64-gated
pub(crate) fn avx512_autovec_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ACTIVE: OnceLock<bool> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512dq")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The dispatching split-complex panel kernel: repacks the `rhs` panel
/// into SoA slices once, then produces the output in register tiles —
/// through the AVX2/FMA intrinsics when [`simd_active`], else the
/// autovectorised SoA body recompiled for 256-bit AVX when the CPU has it
/// (still value-identical to [`mul_panel_scalar`]; see the module docs
/// for the exact equality contract), else the baseline-target SoA body.
#[allow(clippy::too_many_arguments)] // flat BLAS-style kernel signature
pub fn mul_panel(
    a: &[C64],
    a_rows: usize,
    a_cols: usize,
    b: &[C64],
    b_cols: usize,
    c0: usize,
    c1: usize,
    scratch: &mut PanelScratch,
) -> Vec<C64> {
    let mut panel = Vec::new();
    mul_panel_into(a, a_rows, a_cols, b, b_cols, c0, c1, scratch, &mut panel);
    panel
}

/// [`mul_panel`] writing into a caller-owned output vector — the
/// allocation-free seam for steady-state scoring loops that run the same
/// GEMM shape every batch. `panel` is cleared and refilled; its capacity
/// is reused across calls. Values are identical to [`mul_panel`]'s: the
/// output buffer never feeds back into the product.
#[allow(clippy::too_many_arguments)] // flat BLAS-style kernel signature
pub fn mul_panel_into(
    a: &[C64],
    a_rows: usize,
    a_cols: usize,
    b: &[C64],
    b_cols: usize,
    c0: usize,
    c1: usize,
    scratch: &mut PanelScratch,
    panel: &mut Vec<C64>,
) {
    let width = c1 - c0;
    repack_panel(b, b_cols, c0, c1, a_cols, scratch);
    panel.clear();
    panel.resize(a_rows * width, C64::ZERO);
    // Only referenced from the x86-64 dispatch arms below.
    #[cfg(target_arch = "x86_64")]
    let avx_autovec = avx_autovec_active();
    #[cfg(target_arch = "x86_64")]
    let avx512_autovec = avx512_autovec_active();
    let mut i = 0;
    while i + TILE_ROWS <= a_rows {
        let a_rows_slice = &a[i * a_cols..(i + TILE_ROWS) * a_cols];
        let out = &mut panel[i * width..(i + TILE_ROWS) * width];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if simd_active() {
            // SAFETY: `simd_active` verified AVX2 + FMA at runtime; both
            // slices are cut to the tile shape above and `repack_panel`
            // sized `scratch` to `a_cols × width` for this panel.
            unsafe {
                tile_rows_avx2(a_rows_slice, a_cols, width, scratch, out);
            }
            i += TILE_ROWS;
            continue;
        }
        #[cfg(target_arch = "x86_64")]
        if avx512_autovec {
            // SAFETY: `avx512_autovec` verified AVX-512 at runtime; the
            // function body is the same safe Rust as `tile_rows_soa`.
            unsafe {
                tile_rows_soa_avx512(a_rows_slice, a_cols, width, scratch, out);
            }
            i += TILE_ROWS;
            continue;
        }
        #[cfg(target_arch = "x86_64")]
        if avx_autovec {
            // SAFETY: `avx_autovec` verified AVX at runtime; the function
            // body is the same safe Rust as `tile_rows_soa`.
            unsafe {
                tile_rows_soa_avx(a_rows_slice, a_cols, width, scratch, out);
            }
            i += TILE_ROWS;
            continue;
        }
        tile_rows_soa(a_rows_slice, a_cols, width, scratch, out);
        i += TILE_ROWS;
    }
    while i < a_rows {
        let a_row = &a[i * a_cols..(i + 1) * a_cols];
        let out = &mut panel[i * width..(i + 1) * width];
        #[cfg(target_arch = "x86_64")]
        if avx512_autovec {
            // SAFETY: as above.
            unsafe {
                single_row_avx512(a_row, a_cols, width, scratch, out);
            }
            i += 1;
            continue;
        }
        #[cfg(target_arch = "x86_64")]
        if avx_autovec {
            // SAFETY: as above.
            unsafe {
                single_row_avx(a_row, a_cols, width, scratch, out);
            }
            i += 1;
            continue;
        }
        single_row(a_row, a_cols, width, scratch, out);
        i += 1;
    }
}

/// Copies the `rhs` panel (`a_cols` rows × columns `c0..c1`) into the
/// scratch's split re/im slices, `k`-major so each inner sweep is one
/// contiguous stream per array.
fn repack_panel(
    b: &[C64],
    b_cols: usize,
    c0: usize,
    c1: usize,
    a_cols: usize,
    scratch: &mut PanelScratch,
) {
    let width = c1 - c0;
    scratch.b_re.resize(a_cols * width, 0.0);
    scratch.b_im.resize(a_cols * width, 0.0);
    for k in 0..a_cols {
        let row = &b[k * b_cols + c0..k * b_cols + c1];
        let re = &mut scratch.b_re[k * width..(k + 1) * width];
        let im = &mut scratch.b_im[k * width..(k + 1) * width];
        for ((r, i), &z) in re.iter_mut().zip(im.iter_mut()).zip(row) {
            *r = z.re;
            *i = z.im;
        }
    }
}

/// One 4-wide lane accumulator: `acc += a · b` over split complex lanes,
/// exactly the scalar oracle's expression per element. Fixed-size array
/// references keep every lane loop bounds-check-free and SLP-friendly; a
/// free function so every tile kernel instantiates the identical
/// operation sequence.
#[inline(always)]
fn lane_madd(
    acc_re: &mut [f64; LANES],
    acc_im: &mut [f64; LANES],
    av: C64,
    br: &[f64; LANES],
    bi: &[f64; LANES],
) {
    let (ar, ai) = (av.re, av.im);
    for l in 0..LANES {
        acc_re[l] += ar * br[l] - ai * bi[l];
        acc_im[l] += ar * bi[l] + ai * br[l];
    }
}

/// Borrows the 4-lane window at `offset` as a fixed-size array.
#[inline(always)]
fn lanes_at(slice: &[f64], offset: usize) -> &[f64; LANES] {
    slice[offset..offset + LANES]
        .try_into()
        .expect("window is exactly LANES wide")
}

/// One full 4-row tile stripe in autovectorised form: for each 4-lane
/// column tile the 32 partial sums stay in named local arrays (registers)
/// while `k` runs innermost, with the four rows unrolled by hand. The
/// tile body is branchless — structurally-zero `A` terms are multiplied
/// through rather than skipped, contributing exact `±0`s, so results
/// equal the oracle's in value with per-element accumulation in the same
/// `k` order (only the sign of a zero can differ; the skip survives in
/// the oracle, where sparse rows are actually worth a branch).
fn tile_rows_soa(
    a_rows: &[C64],
    a_cols: usize,
    width: usize,
    scratch: &PanelScratch,
    out: &mut [C64],
) {
    tile_rows_body(a_rows, a_cols, width, scratch, out);
}

/// [`tile_rows_soa`]'s body recompiled with 256-bit AVX vectors enabled —
/// identical safe Rust, so identical results; only the instruction
/// selection differs. Dispatched at runtime behind [`avx_autovec_active`].
///
/// # Safety
///
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn tile_rows_soa_avx(
    a_rows: &[C64],
    a_cols: usize,
    width: usize,
    scratch: &PanelScratch,
    out: &mut [C64],
) {
    tile_rows_body(a_rows, a_cols, width, scratch, out);
}

/// [`tile_rows_soa`]'s body recompiled with 512-bit AVX-512 vectors
/// enabled — identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX-512 (F + VL + DQ) support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
unsafe fn tile_rows_soa_avx512(
    a_rows: &[C64],
    a_cols: usize,
    width: usize,
    scratch: &PanelScratch,
    out: &mut [C64],
) {
    tile_rows_body(a_rows, a_cols, width, scratch, out);
}

#[inline(always)]
fn tile_rows_body(
    a_rows: &[C64],
    a_cols: usize,
    width: usize,
    scratch: &PanelScratch,
    out: &mut [C64],
) {
    let (r0, rest) = out.split_at_mut(width);
    let (r1, rest) = rest.split_at_mut(width);
    let (r2, r3) = rest.split_at_mut(width);
    let a0 = &a_rows[..a_cols];
    let a1 = &a_rows[a_cols..2 * a_cols];
    let a2 = &a_rows[2 * a_cols..3 * a_cols];
    let a3 = &a_rows[3 * a_cols..4 * a_cols];
    let mut j = 0;
    while j + LANES <= width {
        let (mut re0, mut im0) = ([0.0_f64; LANES], [0.0_f64; LANES]);
        let (mut re1, mut im1) = ([0.0_f64; LANES], [0.0_f64; LANES]);
        let (mut re2, mut im2) = ([0.0_f64; LANES], [0.0_f64; LANES]);
        let (mut re3, mut im3) = ([0.0_f64; LANES], [0.0_f64; LANES]);
        for k in 0..a_cols {
            let br = lanes_at(&scratch.b_re, k * width + j);
            let bi = lanes_at(&scratch.b_im, k * width + j);
            lane_madd(&mut re0, &mut im0, a0[k], br, bi);
            lane_madd(&mut re1, &mut im1, a1[k], br, bi);
            lane_madd(&mut re2, &mut im2, a2[k], br, bi);
            lane_madd(&mut re3, &mut im3, a3[k], br, bi);
        }
        for l in 0..LANES {
            r0[j + l] = C64::new(re0[l], im0[l]);
            r1[j + l] = C64::new(re1[l], im1[l]);
            r2[j + l] = C64::new(re2[l], im2[l]);
            r3[j + l] = C64::new(re3[l], im3[l]);
        }
        j += LANES;
    }
    while j < width {
        let mut acc = [C64::ZERO; TILE_ROWS];
        for k in 0..a_cols {
            let bv = C64::new(scratch.b_re[k * width + j], scratch.b_im[k * width + j]);
            acc[0] += a0[k] * bv;
            acc[1] += a1[k] * bv;
            acc[2] += a2[k] * bv;
            acc[3] += a3[k] * bv;
        }
        r0[j] = acc[0];
        r1[j] = acc[1];
        r2[j] = acc[2];
        r3[j] = acc[3];
        j += 1;
    }
}

/// The remainder-row kernel (fewer than [`TILE_ROWS`] rows left): one
/// output row, 4-lane column tiles, `k` innermost — the single-row
/// specialisation of [`tile_rows_soa`] with identical per-element order.
fn single_row(a_row: &[C64], a_cols: usize, width: usize, scratch: &PanelScratch, out: &mut [C64]) {
    single_row_body(a_row, a_cols, width, scratch, out);
}

/// [`single_row`]'s body recompiled with 256-bit AVX vectors enabled;
/// see [`tile_rows_soa_avx`].
///
/// # Safety
///
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn single_row_avx(
    a_row: &[C64],
    a_cols: usize,
    width: usize,
    scratch: &PanelScratch,
    out: &mut [C64],
) {
    single_row_body(a_row, a_cols, width, scratch, out);
}

/// [`single_row`]'s body recompiled with 512-bit AVX-512 vectors
/// enabled — identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX-512 (F + VL + DQ) support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
unsafe fn single_row_avx512(
    a_row: &[C64],
    a_cols: usize,
    width: usize,
    scratch: &PanelScratch,
    out: &mut [C64],
) {
    single_row_body(a_row, a_cols, width, scratch, out);
}

#[inline(always)]
fn single_row_body(
    a_row: &[C64],
    a_cols: usize,
    width: usize,
    scratch: &PanelScratch,
    out: &mut [C64],
) {
    let mut j = 0;
    while j + LANES <= width {
        let mut acc_re = [0.0_f64; LANES];
        let mut acc_im = [0.0_f64; LANES];
        for (k, &av) in a_row.iter().enumerate().take(a_cols) {
            let br = lanes_at(&scratch.b_re, k * width + j);
            let bi = lanes_at(&scratch.b_im, k * width + j);
            lane_madd(&mut acc_re, &mut acc_im, av, br, bi);
        }
        for l in 0..LANES {
            out[j + l] = C64::new(acc_re[l], acc_im[l]);
        }
        j += LANES;
    }
    while j < width {
        let mut acc = C64::ZERO;
        for (k, &av) in a_row.iter().enumerate().take(a_cols) {
            acc += av * C64::new(scratch.b_re[k * width + j], scratch.b_im[k * width + j]);
        }
        out[j] = acc;
        j += 1;
    }
}

/// The explicit AVX2/FMA 4-row tile stripe: the same register tiling as
/// [`tile_rows_soa`] with 256-bit fused multiply–adds. Rounding differs
/// from the oracle only by FMA's skipped intermediate round; property
/// tests pin the gap to ≤ 1e-12.
///
/// # Safety
///
/// The caller must have verified AVX2 and FMA support at runtime. The
/// body indexes unchecked, so the operands must have the tile shape:
/// `a_rows.len() >= TILE_ROWS * a_cols`, `out.len() >= TILE_ROWS * width`,
/// and `scratch` must hold this panel's repacked `a_cols × width` planes
/// (`b_re` and `b_im` at least `a_cols * width` long).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_rows_avx2(
    a_rows: &[C64],
    a_cols: usize,
    width: usize,
    scratch: &PanelScratch,
    out: &mut [C64],
) {
    use core::arch::x86_64::{
        __m256d, _mm256_fmadd_pd, _mm256_fnmadd_pd, _mm256_loadu_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd,
    };
    let b_re = scratch.b_re.as_ptr();
    let b_im = scratch.b_im.as_ptr();
    let mut j = 0;
    while j + LANES <= width {
        let mut acc_re: [__m256d; TILE_ROWS] = [_mm256_setzero_pd(); TILE_ROWS];
        let mut acc_im: [__m256d; TILE_ROWS] = [_mm256_setzero_pd(); TILE_ROWS];
        for k in 0..a_cols {
            let vbr = _mm256_loadu_pd(b_re.add(k * width + j));
            let vbi = _mm256_loadu_pd(b_im.add(k * width + j));
            for r in 0..TILE_ROWS {
                let av = *a_rows.get_unchecked(r * a_cols + k);
                let var = _mm256_set1_pd(av.re);
                let vai = _mm256_set1_pd(av.im);
                acc_re[r] = _mm256_fmadd_pd(var, vbr, acc_re[r]);
                acc_re[r] = _mm256_fnmadd_pd(vai, vbi, acc_re[r]);
                acc_im[r] = _mm256_fmadd_pd(var, vbi, acc_im[r]);
                acc_im[r] = _mm256_fmadd_pd(vai, vbr, acc_im[r]);
            }
        }
        // Interleave each row's re/im lanes back into C64 storage.
        for r in 0..TILE_ROWS {
            let mut re = [0.0_f64; LANES];
            let mut im = [0.0_f64; LANES];
            _mm256_storeu_pd(re.as_mut_ptr(), acc_re[r]);
            _mm256_storeu_pd(im.as_mut_ptr(), acc_im[r]);
            for l in 0..LANES {
                *out.get_unchecked_mut(r * width + j + l) = C64::new(re[l], im[l]);
            }
        }
        j += LANES;
    }
    while j < width {
        for r in 0..TILE_ROWS {
            let mut acc_re = 0.0_f64;
            let mut acc_im = 0.0_f64;
            for k in 0..a_cols {
                let av = *a_rows.get_unchecked(r * a_cols + k);
                let br = *b_re.add(k * width + j);
                let bi = *b_im.add(k * width + j);
                // The exact fused sequence of the vector lanes above
                // (mul_add(ai, -bi, ·) is bit-identical to fnmadd), so a
                // column's bits never depend on which path the panel
                // width routed it through — a single-sample panel must
                // score bit-identically to a coalesced one.
                acc_re = av.re.mul_add(br, acc_re);
                acc_re = av.im.mul_add(-bi, acc_re);
                acc_im = av.re.mul_add(bi, acc_im);
                acc_im = av.im.mul_add(br, acc_im);
            }
            *out.get_unchecked_mut(r * width + j) = C64::new(acc_re, acc_im);
        }
        j += 1;
    }
}

/// The scalar held in the lanes of a `4^n × S` vec(ρ) panel: `f64` for
/// the lockstep noisy preparation, whose every entry is real, and [`C64`]
/// for the structured engine's channel-program walk. The generic lane
/// kernels evaluate the same expression in the same term order for both,
/// so an `f64` panel equals the real parts of a real-valued `C64` panel
/// bit for bit.
pub trait LaneScalar:
    Copy
    + core::ops::Add<Output = Self>
    + core::ops::AddAssign
    + core::ops::Mul<Output = Self>
    + core::ops::Mul<f64, Output = Self>
{
    /// The additive identity.
    const ZERO: Self;
}

impl LaneScalar for f64 {
    const ZERO: f64 = 0.0;
}

impl LaneScalar for C64 {
    const ZERO: C64 = C64::ZERO;
}

/// The batched RY-conjugation lane kernel: applies the real 4×4
/// superoperator of `ρ → RY(θ_j) ρ RY(θ_j)†` across the sample lanes of
/// one row quadruple of a real `4^n × S` vec(ρ) panel. `v0..v3` are the
/// four vec rows `(ρ00, ρ01, ρ10, ρ11)` of the conjugated qubit's
/// sub-block — each a contiguous `S`-lane slice — and `cc`/`cs`/`ss` hold
/// the per-sample coefficients `cos²(θ/2)`, `cos(θ/2)·sin(θ/2)`,
/// `sin²(θ/2)`.
///
/// Per lane, each output element evaluates the exact expression the
/// per-sample gate kernel ([`crate::density::DensityMatrix::apply_gate`]'s
/// fused 4×4 superoperator) produces on the real plane, term for term in
/// the same order, so the lockstep batch matches the per-sample walk's
/// real parts bit-for-bit (up to the sign of exact zeros). Dispatched
/// through the same runtime AVX recompilation ladder as the GEMM tiles.
#[allow(clippy::too_many_arguments)] // flat lane-kernel signature
pub fn ry_conj_lanes(
    v0: &mut [f64],
    v1: &mut [f64],
    v2: &mut [f64],
    v3: &mut [f64],
    cc: &[f64],
    cs: &[f64],
    ss: &[f64],
) {
    #[cfg(target_arch = "x86_64")]
    if avx512_autovec_active() {
        // SAFETY: AVX-512 support verified at runtime; the function body
        // is the same safe Rust as `ry_conj_body`.
        unsafe {
            ry_conj_avx512(v0, v1, v2, v3, cc, cs, ss);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx_autovec_active() {
        // SAFETY: AVX support verified at runtime; the function body is
        // the same safe Rust as `ry_conj_body`.
        unsafe {
            ry_conj_avx(v0, v1, v2, v3, cc, cs, ss);
        }
        return;
    }
    ry_conj_body(v0, v1, v2, v3, cc, cs, ss);
}

/// [`ry_conj_lanes`]'s body recompiled with 512-bit AVX-512 vectors
/// enabled — identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX-512 (F + VL + DQ) support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
unsafe fn ry_conj_avx512(
    v0: &mut [f64],
    v1: &mut [f64],
    v2: &mut [f64],
    v3: &mut [f64],
    cc: &[f64],
    cs: &[f64],
    ss: &[f64],
) {
    ry_conj_body(v0, v1, v2, v3, cc, cs, ss);
}

/// [`ry_conj_lanes`]'s body recompiled with 256-bit AVX vectors enabled —
/// identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn ry_conj_avx(
    v0: &mut [f64],
    v1: &mut [f64],
    v2: &mut [f64],
    v3: &mut [f64],
    cc: &[f64],
    cs: &[f64],
    ss: &[f64],
) {
    ry_conj_body(v0, v1, v2, v3, cc, cs, ss);
}

#[inline(always)]
fn ry_conj_body(
    v0: &mut [f64],
    v1: &mut [f64],
    v2: &mut [f64],
    v3: &mut [f64],
    cc: &[f64],
    cs: &[f64],
    ss: &[f64],
) {
    // U ⊗ U for the real rotation U = [[c, −s], [s, c]] (c = cos θ/2,
    // s = sin θ/2), row-major over (ρ00, ρ01, ρ10, ρ11).
    for ((((((a, b), c_), d), &kcc), &kcs), &kss) in v0
        .iter_mut()
        .zip(v1.iter_mut())
        .zip(v2.iter_mut())
        .zip(v3.iter_mut())
        .zip(cc)
        .zip(cs)
        .zip(ss)
    {
        let (w, x, y, z) = (*a, *b, *c_, *d);
        *a = kcc * w - kcs * x - kcs * y + kss * z;
        *b = kcs * w + kcc * x - kss * y - kcs * z;
        *c_ = kcs * w - kss * x + kcc * y - kcs * z;
        *d = kss * w + kcs * x + kcs * y + kcc * z;
    }
}

/// The batched 1q-superoperator lane kernel: applies one shared 4×4
/// superoperator (a fused noise channel) across the sample lanes of one
/// row quadruple of a `4^n × S` vec(ρ) panel — the whole-batch analogue
/// of the per-sample density kernel
/// ([`crate::density::DensityMatrix::apply_superop_1q`]), with the same
/// per-element term order, so lockstep and per-sample walks agree to the
/// bit. Each lane is a tiny `4×4 · 4×1` GEMM; the panel layout makes the
/// four operand rows contiguous lane runs, which is what lets the
/// compiler vectorise across samples. One body serves both lane scalars
/// ([`LaneScalar`]). Dispatched through the runtime AVX recompilation
/// ladder.
pub fn superop4_lanes<T: LaneScalar>(
    v0: &mut [T],
    v1: &mut [T],
    v2: &mut [T],
    v3: &mut [T],
    s: &[[T; 4]; 4],
) {
    #[cfg(target_arch = "x86_64")]
    if avx512_autovec_active() {
        // SAFETY: AVX-512 support verified at runtime; the function body
        // is the same safe Rust as `superop4_body`.
        unsafe {
            superop4_avx512(v0, v1, v2, v3, s);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx_autovec_active() {
        // SAFETY: AVX support verified at runtime; the function body is
        // the same safe Rust as `superop4_body`.
        unsafe {
            superop4_avx(v0, v1, v2, v3, s);
        }
        return;
    }
    superop4_body(v0, v1, v2, v3, s);
}

/// [`superop4_lanes`]'s body recompiled with 512-bit AVX-512 vectors
/// enabled — identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX-512 (F + VL + DQ) support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
unsafe fn superop4_avx512<T: LaneScalar>(
    v0: &mut [T],
    v1: &mut [T],
    v2: &mut [T],
    v3: &mut [T],
    s: &[[T; 4]; 4],
) {
    superop4_body(v0, v1, v2, v3, s);
}

/// [`superop4_lanes`]'s body recompiled with 256-bit AVX vectors enabled —
/// identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn superop4_avx<T: LaneScalar>(
    v0: &mut [T],
    v1: &mut [T],
    v2: &mut [T],
    v3: &mut [T],
    s: &[[T; 4]; 4],
) {
    superop4_body(v0, v1, v2, v3, s);
}

#[inline(always)]
fn superop4_body<T: LaneScalar>(
    v0: &mut [T],
    v1: &mut [T],
    v2: &mut [T],
    v3: &mut [T],
    s: &[[T; 4]; 4],
) {
    for (((a, b), c_), d) in v0
        .iter_mut()
        .zip(v1.iter_mut())
        .zip(v2.iter_mut())
        .zip(v3.iter_mut())
    {
        let v = [*a, *b, *c_, *d];
        let mut out = [T::ZERO; 4];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &s[i];
            *o = row[0] * v[0] + row[1] * v[1] + row[2] * v[2] + row[3] * v[3];
        }
        *a = out[0];
        *b = out[1];
        *c_ = out[2];
        *d = out[3];
    }
}

/// The split-complex branch-sweep lane kernel for the batched pure-state
/// engine: one row pass of the reset-branch expansion, accumulating every
/// sample's branch weight and overlap term across the lanes of a split
/// `Φ` row pair. Per lane:
/// `w += |top|²`, `o += conj(low) · top` — expanded into the exact real
/// expressions the interleaved per-sample loop evaluates (same value, same
/// per-element accumulation order). Dispatched through the runtime AVX
/// recompilation ladder.
#[allow(clippy::too_many_arguments)] // flat lane-kernel signature
pub fn branch_sweep_lanes(
    low_re: &[f64],
    low_im: &[f64],
    top_re: &[f64],
    top_im: &[f64],
    weight: &mut [f64],
    over_re: &mut [f64],
    over_im: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if avx512_autovec_active() {
        // SAFETY: AVX-512 support verified at runtime; the function body
        // is the same safe Rust as `branch_sweep_body`.
        unsafe {
            branch_sweep_avx512(low_re, low_im, top_re, top_im, weight, over_re, over_im);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx_autovec_active() {
        // SAFETY: AVX support verified at runtime; the function body is
        // the same safe Rust as `branch_sweep_body`.
        unsafe {
            branch_sweep_avx(low_re, low_im, top_re, top_im, weight, over_re, over_im);
        }
        return;
    }
    branch_sweep_body(low_re, low_im, top_re, top_im, weight, over_re, over_im);
}

/// [`branch_sweep_lanes`]'s body recompiled with 512-bit AVX-512 vectors
/// enabled — identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX-512 (F + VL + DQ) support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
#[allow(clippy::too_many_arguments)] // flat lane-kernel signature
unsafe fn branch_sweep_avx512(
    low_re: &[f64],
    low_im: &[f64],
    top_re: &[f64],
    top_im: &[f64],
    weight: &mut [f64],
    over_re: &mut [f64],
    over_im: &mut [f64],
) {
    branch_sweep_body(low_re, low_im, top_re, top_im, weight, over_re, over_im);
}

/// [`branch_sweep_lanes`]'s body recompiled with 256-bit AVX vectors
/// enabled — identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn branch_sweep_avx(
    low_re: &[f64],
    low_im: &[f64],
    top_re: &[f64],
    top_im: &[f64],
    weight: &mut [f64],
    over_re: &mut [f64],
    over_im: &mut [f64],
) {
    branch_sweep_body(low_re, low_im, top_re, top_im, weight, over_re, over_im);
}

#[inline(always)]
fn branch_sweep_body(
    low_re: &[f64],
    low_im: &[f64],
    top_re: &[f64],
    top_im: &[f64],
    weight: &mut [f64],
    over_re: &mut [f64],
    over_im: &mut [f64],
) {
    for (((((w, or), oi), (&lr, &li)), &tr), &ti) in weight
        .iter_mut()
        .zip(over_re.iter_mut())
        .zip(over_im.iter_mut())
        .zip(low_re.iter().zip(low_im))
        .zip(top_re)
        .zip(top_im)
    {
        *w += tr * tr + ti * ti;
        *or += lr * tr + li * ti;
        *oi += lr * ti - li * tr;
    }
}

/// The batched 16×16 superoperator lane kernel: applies one shared 16×16
/// complex matrix across the sample lanes of sixteen row runs of a
/// `4^n × S` vec(ρ) panel. Two callers share it: the two-qubit
/// superoperator conjugation
/// ([`crate::density::apply_superop_2q_columns`], rows = the sixteen vec
/// rows of one two-qubit sub-block) and the structured swap-test readout
/// sweep ([`crate::channel::SwapTestMpo`], rows = 4 bond panels × 4 field
/// rows). Per lane the arithmetic matches
/// [`crate::density::DensityMatrix::apply_superop_2q`]'s gather → 16×16
/// mat-vec → scatter loop term for term. Dispatched through the runtime
/// AVX recompilation ladder.
pub fn superop16_lanes(rows: &mut [&mut [C64]; 16], s: &[[C64; 16]; 16]) {
    #[cfg(target_arch = "x86_64")]
    if avx512_autovec_active() {
        // SAFETY: AVX-512 support verified at runtime; the function body
        // is the same safe Rust as `superop16_body`.
        unsafe {
            superop16_avx512(rows, s);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx_autovec_active() {
        // SAFETY: AVX support verified at runtime; the function body is
        // the same safe Rust as `superop16_body`.
        unsafe {
            superop16_avx(rows, s);
        }
        return;
    }
    superop16_body(rows, s);
}

/// [`superop16_lanes`]'s body recompiled with 512-bit AVX-512 vectors
/// enabled — identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX-512 (F + VL + DQ) support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
unsafe fn superop16_avx512(rows: &mut [&mut [C64]; 16], s: &[[C64; 16]; 16]) {
    superop16_body(rows, s);
}

/// [`superop16_lanes`]'s body recompiled with 256-bit AVX vectors enabled —
/// identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn superop16_avx(rows: &mut [&mut [C64]; 16], s: &[[C64; 16]; 16]) {
    superop16_body(rows, s);
}

#[inline(always)]
fn superop16_body(rows: &mut [&mut [C64]; 16], s: &[[C64; 16]; 16]) {
    let lanes = rows[0].len();
    for row in rows.iter() {
        assert_eq!(row.len(), lanes, "lane runs must have equal width");
    }
    for lane in 0..lanes {
        let mut v = [C64::ZERO; 16];
        for (slot, row) in v.iter_mut().zip(rows.iter()) {
            *slot = row[lane];
        }
        for (row, srow) in rows.iter_mut().zip(s.iter()) {
            let mut acc = C64::ZERO;
            for (m, x) in srow.iter().zip(&v) {
                acc += *m * *x;
            }
            row[lane] = acc;
        }
    }
}

/// The batched reset-channel lane kernel: collapses one single-qubit
/// sub-block to `|0⟩` across the sample lanes — per lane
/// `ρ00 ← ρ00 + ρ11`, `ρ01 = ρ10 = ρ11 = 0`, the closed form of the
/// Kraus pair `{|0⟩⟨0|, |0⟩⟨1|}` that
/// [`crate::density::DensityMatrix::reset`] charges (same accumulation
/// order: the `K₀` term before the `K₁` term). Dispatched through the
/// runtime AVX recompilation ladder.
pub fn reset_lanes(v0: &mut [C64], v1: &mut [C64], v2: &mut [C64], v3: &mut [C64]) {
    #[cfg(target_arch = "x86_64")]
    if avx_autovec_active() {
        // SAFETY: AVX support verified at runtime; the function body is
        // the same safe Rust as `reset_body`.
        unsafe {
            reset_avx(v0, v1, v2, v3);
        }
        return;
    }
    reset_body(v0, v1, v2, v3);
}

/// [`reset_lanes`]'s body recompiled with 256-bit AVX vectors enabled —
/// identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn reset_avx(v0: &mut [C64], v1: &mut [C64], v2: &mut [C64], v3: &mut [C64]) {
    reset_body(v0, v1, v2, v3);
}

#[inline(always)]
fn reset_body(v0: &mut [C64], v1: &mut [C64], v2: &mut [C64], v3: &mut [C64]) {
    for (((a, b), c_), d) in v0
        .iter_mut()
        .zip(v1.iter_mut())
        .zip(v2.iter_mut())
        .zip(v3.iter_mut())
    {
        *a += *d;
        *b = C64::ZERO;
        *c_ = C64::ZERO;
        *d = C64::ZERO;
    }
}

/// The batched amplitude-damping lane kernel: per lane
/// `ρ00 ← ρ00 + γ·ρ11`, `ρ01 ← √(1−γ)·ρ01`, `ρ10 ← √(1−γ)·ρ10`,
/// `ρ11 ← (1−γ)·ρ11` — the closed form of
/// [`crate::noise::amplitude_damping`]'s Kraus pair. `damp = √(1−γ)` and
/// `keep = 1−γ` are hoisted by the caller so every lane pays multiplies
/// only. Dispatched through the runtime AVX recompilation ladder.
pub fn amp_damp_lanes(
    v0: &mut [C64],
    v1: &mut [C64],
    v2: &mut [C64],
    v3: &mut [C64],
    gamma: f64,
    damp: f64,
) {
    #[cfg(target_arch = "x86_64")]
    if avx_autovec_active() {
        // SAFETY: AVX support verified at runtime; the function body is
        // the same safe Rust as `amp_damp_body`.
        unsafe {
            amp_damp_avx(v0, v1, v2, v3, gamma, damp);
        }
        return;
    }
    amp_damp_body(v0, v1, v2, v3, gamma, damp);
}

/// [`amp_damp_lanes`]'s body recompiled with 256-bit AVX vectors enabled —
/// identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn amp_damp_avx(
    v0: &mut [C64],
    v1: &mut [C64],
    v2: &mut [C64],
    v3: &mut [C64],
    gamma: f64,
    damp: f64,
) {
    amp_damp_body(v0, v1, v2, v3, gamma, damp);
}

#[inline(always)]
fn amp_damp_body(
    v0: &mut [C64],
    v1: &mut [C64],
    v2: &mut [C64],
    v3: &mut [C64],
    gamma: f64,
    damp: f64,
) {
    let keep = 1.0 - gamma;
    for (((a, b), c_), d) in v0
        .iter_mut()
        .zip(v1.iter_mut())
        .zip(v2.iter_mut())
        .zip(v3.iter_mut())
    {
        *a += d.scale(gamma);
        *b = b.scale(damp);
        *c_ = c_.scale(damp);
        *d = d.scale(keep);
    }
}

/// The batched phase-damping lane kernel: per lane the coherences shrink,
/// `ρ01 ← √(1−λ)·ρ01`, `ρ10 ← √(1−λ)·ρ10`, and the populations are
/// untouched — the closed form of [`crate::noise::phase_damping`]'s
/// Kraus pair. `damp = √(1−λ)` is hoisted by the caller. Dispatched
/// through the runtime AVX recompilation ladder.
pub fn phase_damp_lanes(v1: &mut [C64], v2: &mut [C64], damp: f64) {
    #[cfg(target_arch = "x86_64")]
    if avx_autovec_active() {
        // SAFETY: AVX support verified at runtime; the function body is
        // the same safe Rust as `phase_damp_body`.
        unsafe {
            phase_damp_avx(v1, v2, damp);
        }
        return;
    }
    phase_damp_body(v1, v2, damp);
}

/// [`phase_damp_lanes`]'s body recompiled with 256-bit AVX vectors
/// enabled — identical safe Rust, identical results.
///
/// # Safety
///
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn phase_damp_avx(v1: &mut [C64], v2: &mut [C64], damp: f64) {
    phase_damp_body(v1, v2, damp);
}

#[inline(always)]
fn phase_damp_body(v1: &mut [C64], v2: &mut [C64], damp: f64) {
    for (b, c_) in v1.iter_mut().zip(v2.iter_mut()) {
        *b = b.scale(damp);
        *c_ = c_.scale(damp);
    }
}

/// Partial sums [`dot_lanes`] keeps: one 512-bit vector, two 256-bit or
/// four 128-bit ones, so the loop autovectorises at any SIMD width.
const DOT_ACCUMULATORS: usize = 8;

/// The packed upper triangle of the outer product `h·hᵀ`: for `k ≤ l` in
/// row-major order, `z[t] = h[k]·h[l]`. `z` must hold exactly
/// `m(m+1)/2` entries for `m = h.len()`. The level-independent half of the
/// dense noisy readout, whose quadratic forms `hᵀ·G·h` then become one
/// [`dot_lanes`] of `z` against each form's packed coefficients.
///
/// # Panics
///
/// Panics when `z.len() != m(m+1)/2`.
pub fn outer_triangle_lanes(h: &[f64], z: &mut [f64]) {
    let m = h.len();
    assert_eq!(z.len(), m * (m + 1) / 2, "packed triangle length");
    let mut rest = z;
    for (k, &hk) in h.iter().enumerate() {
        let (row, tail) = rest.split_at_mut(m - k);
        for (zt, &hl) in row.iter_mut().zip(&h[k..]) {
            *zt = hk * hl;
        }
        rest = tail;
    }
}

/// Real dot product `Σ_t a[t]·b[t]` over equal-length slices, summed in
/// a fixed pattern: over the longest multiple-of-8 prefix, term `t` goes
/// to partial sum `t mod 8`; the eight partials are combined pairwise and
/// the remainder, summed in index order, is added last. The pattern
/// depends only on the length, so a given pair of slices always rounds
/// the same way, wherever the slices came from.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operands differ in length");
    let mut acc = [0.0_f64; DOT_ACCUMULATORS];
    let a_chunks = a.chunks_exact(DOT_ACCUMULATORS);
    let b_chunks = b.chunks_exact(DOT_ACCUMULATORS);
    let tail = a_chunks
        .remainder()
        .iter()
        .zip(b_chunks.remainder())
        .fold(0.0, |s, (x, y)| s + x * y);
    for (ca, cb) in a_chunks.zip(b_chunks) {
        for ((s, &x), &y) in acc.iter_mut().zip(ca).zip(cb) {
            *s += x * y;
        }
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pseudo-random but deterministic dense test data.
    fn dense(rows: usize, cols: usize, salt: u64) -> Vec<C64> {
        (0..rows * cols)
            .map(|idx| {
                let t = idx as f64 + salt as f64 * 0.37;
                C64::new((t * 0.7311).sin(), (t * 1.1931).cos())
            })
            .collect()
    }

    /// Shapes that exercise every remainder case: widths below, at, and
    /// beyond the 4-lane tile, row counts straddling the 4-row tile, plus
    /// single rows/columns.
    const SHAPES: [(usize, usize, usize); 9] = [
        (1, 1, 1),
        (3, 5, 2),
        (4, 4, 4),
        (5, 7, 9),
        (8, 8, 13),
        (7, 3, 33),
        (6, 11, 5),
        (16, 16, 37),
        (9, 25, 64),
    ];

    #[test]
    fn soa_kernel_is_bit_identical_to_scalar_oracle() {
        for &(m, k, n) in &SHAPES {
            let a = dense(m, k, 1);
            let b = dense(k, n, 2);
            let mut scratch = PanelScratch::new();
            // Full-width panel and a ragged sub-panel alike.
            for (c0, c1) in [(0, n), (n / 3, n), (0, n.div_ceil(2))] {
                if c0 >= c1 {
                    continue;
                }
                let oracle = mul_panel_scalar(&a, m, k, &b, n, c0, c1);
                let soa = mul_panel(&a, m, k, &b, n, c0, c1, &mut scratch);
                if simd_active() {
                    // FMA rounding: not bit-exact, but pinned tight.
                    for (s, o) in soa.iter().zip(&oracle) {
                        assert!(s.approx_eq(*o, 1e-12), "{m}x{k}x{n}: {s} vs {o}");
                    }
                } else {
                    assert_eq!(soa, oracle, "shape {m}x{k}x{n} panel {c0}..{c1}");
                }
            }
        }
    }

    #[test]
    fn kernel_handles_structural_zeros_like_the_oracle() {
        // Rows of zeros in A exercise the sparse-term skip in every tile
        // position of both kernels.
        let mut a = dense(6, 6, 3);
        for j in 0..6 {
            a[2 * 6 + j] = C64::ZERO;
            a[j * 6 + 4] = C64::ZERO;
        }
        let b = dense(6, 10, 4);
        let mut scratch = PanelScratch::new();
        let oracle = mul_panel_scalar(&a, 6, 6, &b, 10, 0, 10);
        let soa = mul_panel(&a, 6, 6, &b, 10, 0, 10, &mut scratch);
        for (s, o) in soa.iter().zip(&oracle) {
            assert!(s.approx_eq(*o, 1e-12));
        }
    }

    #[test]
    fn scratch_reuse_across_different_shapes_is_safe() {
        let mut scratch = PanelScratch::new();
        for &(m, k, n) in &SHAPES {
            let a = dense(m, k, 5);
            let b = dense(k, n, 6);
            let oracle = mul_panel_scalar(&a, m, k, &b, n, 0, n);
            let soa = mul_panel(&a, m, k, &b, n, 0, n, &mut scratch);
            for (s, o) in soa.iter().zip(&oracle) {
                assert!(s.approx_eq(*o, 1e-12), "shape {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn ry_conj_lanes_matches_direct_superop_arithmetic() {
        // Reference: the same 4×4 real map evaluated lane by lane with
        // plain arithmetic in the per-sample kernel's term order.
        let lanes = 11;
        let mut v: Vec<Vec<f64>> = (0..4)
            .map(|r| dense(1, lanes, r as u64).iter().map(|z| z.re).collect())
            .collect();
        let thetas: Vec<f64> = (0..lanes).map(|j| 0.3 * j as f64 - 1.1).collect();
        let (mut cc, mut cs, mut ss) = (vec![0.0; lanes], vec![0.0; lanes], vec![0.0; lanes]);
        for j in 0..lanes {
            let half = thetas[j] / 2.0;
            let (c, s) = (half.cos(), half.sin());
            cc[j] = c * c;
            cs[j] = c * s;
            ss[j] = s * s;
        }
        let mut expected = v.clone();
        for j in 0..lanes {
            let half = thetas[j] / 2.0;
            let (c, s) = (half.cos(), half.sin());
            let m = [
                [c * c, -(c * s), -(c * s), s * s],
                [c * s, c * c, -(s * s), -(c * s)],
                [c * s, -(s * s), c * c, -(c * s)],
                [s * s, c * s, c * s, c * c],
            ];
            let vin = [v[0][j], v[1][j], v[2][j], v[3][j]];
            for (i, row) in m.iter().enumerate() {
                let mut acc = 0.0;
                for (k, &coef) in row.iter().enumerate() {
                    acc += vin[k] * coef;
                }
                expected[i][j] = acc;
            }
        }
        let (v0, rest) = v.split_at_mut(1);
        let (v1, rest) = rest.split_at_mut(1);
        let (v2, v3) = rest.split_at_mut(1);
        ry_conj_lanes(
            &mut v0[0], &mut v1[0], &mut v2[0], &mut v3[0], &cc, &cs, &ss,
        );
        for r in 0..4 {
            let row = [&v0[0], &v1[0], &v2[0], &v3[0]][r];
            for j in 0..lanes {
                assert!(
                    (row[j] - expected[r][j]).abs() <= 1e-14,
                    "row {r} lane {j}: {} vs {}",
                    row[j],
                    expected[r][j]
                );
            }
        }
    }

    #[test]
    fn branch_sweep_lanes_matches_interleaved_loop() {
        let lanes = 13;
        let low = dense(1, lanes, 9);
        let top = dense(1, lanes, 10);
        let (low_re, low_im): (Vec<f64>, Vec<f64>) = low.iter().map(|z| (z.re, z.im)).unzip();
        let (top_re, top_im): (Vec<f64>, Vec<f64>) = top.iter().map(|z| (z.re, z.im)).unzip();
        // Start from non-zero accumulators to catch += vs = mistakes.
        let mut weight: Vec<f64> = (0..lanes).map(|j| j as f64 * 0.1).collect();
        let mut over_re = weight.clone();
        let mut over_im = weight.clone();
        let (mut w_ref, mut or_ref, mut oi_ref) =
            (weight.clone(), over_re.clone(), over_im.clone());
        for j in 0..lanes {
            w_ref[j] += top[j].norm_sqr();
            let o = low[j].conj() * top[j];
            or_ref[j] += o.re;
            oi_ref[j] += o.im;
        }
        branch_sweep_lanes(
            &low_re,
            &low_im,
            &top_re,
            &top_im,
            &mut weight,
            &mut over_re,
            &mut over_im,
        );
        // The split expressions are exactly the interleaved ones.
        assert_eq!(weight, w_ref);
        assert_eq!(over_re, or_ref);
        assert_eq!(over_im, oi_ref);
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn superop16_lanes_matches_plain_mat_vec() {
        let lanes = 7;
        let mut v: Vec<Vec<C64>> = (0..16).map(|r| dense(1, lanes, 20 + r as u64)).collect();
        let mut s = [[C64::ZERO; 16]; 16];
        for (i, row) in s.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                let t = (i * 16 + j) as f64;
                *x = C64::new((t * 0.311).sin(), (t * 0.731).cos());
            }
        }
        let mut expected = v.clone();
        for j in 0..lanes {
            let vin: Vec<C64> = (0..16).map(|r| v[r][j]).collect();
            for (i, row) in s.iter().enumerate() {
                let mut acc = C64::ZERO;
                for (m, x) in row.iter().zip(&vin) {
                    acc += *m * *x;
                }
                expected[i][j] = acc;
            }
        }
        let refs: Vec<&mut [C64]> = v.iter_mut().map(|r| r.as_mut_slice()).collect();
        let mut rows: [&mut [C64]; 16] = refs.try_into().expect("sixteen rows");
        superop16_lanes(&mut rows, &s);
        for (r, exp) in expected.iter().enumerate() {
            for j in 0..lanes {
                assert!(
                    v[r][j].approx_eq(exp[j], 1e-13),
                    "row {r} lane {j}: {} vs {}",
                    v[r][j],
                    exp[j]
                );
            }
        }
    }

    #[test]
    fn reset_and_damping_lanes_match_closed_forms() {
        let lanes = 9;
        let mk = || -> Vec<Vec<C64>> { (0..4).map(|r| dense(1, lanes, 40 + r as u64)).collect() };

        // Reset: ρ00 + ρ11 survives, everything else vanishes.
        let mut v = mk();
        let orig = v.clone();
        {
            let (a, rest) = v.split_at_mut(1);
            let (b, rest) = rest.split_at_mut(1);
            let (c, d) = rest.split_at_mut(1);
            reset_lanes(&mut a[0], &mut b[0], &mut c[0], &mut d[0]);
        }
        for j in 0..lanes {
            assert!(v[0][j].approx_eq(orig[0][j] + orig[3][j], 1e-14));
            for row in v.iter().take(4).skip(1) {
                assert_eq!(row[j], C64::ZERO);
            }
        }

        // Amplitude damping at γ: population transfer + coherence decay.
        let gamma: f64 = 0.37;
        let damp = (1.0 - gamma).sqrt();
        let mut v = mk();
        let orig = v.clone();
        {
            let (a, rest) = v.split_at_mut(1);
            let (b, rest) = rest.split_at_mut(1);
            let (c, d) = rest.split_at_mut(1);
            amp_damp_lanes(&mut a[0], &mut b[0], &mut c[0], &mut d[0], gamma, damp);
        }
        for j in 0..lanes {
            assert!(v[0][j].approx_eq(orig[0][j] + orig[3][j].scale(gamma), 1e-14));
            assert!(v[1][j].approx_eq(orig[1][j].scale(damp), 1e-14));
            assert!(v[2][j].approx_eq(orig[2][j].scale(damp), 1e-14));
            assert!(v[3][j].approx_eq(orig[3][j].scale(1.0 - gamma), 1e-14));
        }

        // Phase damping at λ: only the coherences shrink.
        let lambda: f64 = 0.52;
        let damp = (1.0 - lambda).sqrt();
        let mut v = mk();
        let orig = v.clone();
        {
            let (_, rest) = v.split_at_mut(1);
            let (b, rest) = rest.split_at_mut(1);
            let (c, _) = rest.split_at_mut(1);
            phase_damp_lanes(&mut b[0], &mut c[0], damp);
        }
        for j in 0..lanes {
            assert_eq!(v[0][j], orig[0][j]);
            assert!(v[1][j].approx_eq(orig[1][j].scale(damp), 1e-14));
            assert!(v[2][j].approx_eq(orig[2][j].scale(damp), 1e-14));
            assert_eq!(v[3][j], orig[3][j]);
        }
    }

    #[test]
    fn avx2_kernel_matches_oracle_when_available() {
        if !simd_active() {
            return; // no AVX2/FMA on this host: dispatch already covered.
        }
        for &(m, k, n) in &SHAPES {
            let a = dense(m, k, 7);
            let b = dense(k, n, 8);
            let mut scratch = PanelScratch::new();
            let oracle = mul_panel_scalar(&a, m, k, &b, n, 0, n);
            let simd = mul_panel(&a, m, k, &b, n, 0, n, &mut scratch);
            for (s, o) in simd.iter().zip(&oracle) {
                assert!(s.approx_eq(*o, 1e-12), "shape {m}x{k}x{n}: {s} vs {o}");
            }
        }
    }

    #[test]
    fn outer_triangle_lanes_packs_the_upper_products() {
        for m in [1usize, 2, 3, 10, 36] {
            let h: Vec<f64> = (0..m).map(|k| (k as f64 * 0.37).sin()).collect();
            let mut z = vec![f64::NAN; m * (m + 1) / 2];
            outer_triangle_lanes(&h, &mut z);
            let expected: Vec<f64> = (0..m)
                .flat_map(|k| (k..m).map(move |l| (k, l)))
                .map(|(k, l)| h[k] * h[l])
                .collect();
            assert_eq!(z, expected, "m = {m}");
        }
    }

    #[test]
    fn dot_lanes_sums_in_its_documented_pattern() {
        // Eight strided partial sums combined pairwise, then the index-order
        // remainder — at lengths below, at and past the partial-sum count —
        // and still a faithful dot product.
        for len in [0usize, 1, 7, 8, 9, 17, 666] {
            let a: Vec<f64> = (0..len).map(|t| (t as f64 * 0.71).cos()).collect();
            let b: Vec<f64> = (0..len).map(|t| (t as f64 * 1.13).sin()).collect();
            let body = len - len % 8;
            let mut acc = [0.0_f64; 8];
            for t in 0..body {
                acc[t % 8] += a[t] * b[t];
            }
            let tail = (body..len).fold(0.0, |s, t| s + a[t] * b[t]);
            let pattern = ((acc[0] + acc[1]) + (acc[2] + acc[3]))
                + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
                + tail;
            let fast = dot_lanes(&a, &b);
            assert_eq!(fast.to_bits(), pattern.to_bits(), "len {len}");
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                (fast - naive).abs() <= 1e-12,
                "len {len}: {fast} vs {naive}"
            );
        }
    }
}
