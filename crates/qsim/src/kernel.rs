//! SIMD lane kernels: the loops the batched scoring engines run across
//! sample lanes.
//!
//! The batched Exact engine's kernel, [`encode_readout_lanes`], applies a
//! group's fused encoder to eight real amplitude columns as a complex ×
//! real product and expands every level's reset branches in registers.
//! It dispatches on [`simd_active`] to an AVX2 + FMA rung whose product
//! steps are fused multiply–adds, or else to its portable unfused body.
//! Either way each lane's bits depend only on its own column, and the
//! unit tests pin both rungs bit for bit against the staged pipeline: the
//! product `Φ = E·Ψ` formed on the complex block (fused steps for the FMA
//! rung, [`CMatrix::matmul`](crate::matrix::CMatrix::matmul) for the
//! portable body), then the per-sample branch loop.
//!
//! The density engines' lane kernels keep their own ladder: one safe
//! body, also compiled for AVX-512 and for AVX and picked at runtime
//! (`avx512_autovec_active`, `avx_autovec_active`); the lockstep noisy
//! preparation's step kernels ([`crate::density::ry_step_columns`],
//! [`crate::density::cx_step_columns`]) climb the same ladder once per
//! step. They have no FMA
//! counterpart, so every rung gives the same bits. One of them is the
//! dense noisy readout, [`readout_form_lanes`]: it evaluates every
//! level's packed quadratic form on eight prepared columns at once, each
//! lane summed exactly like [`dot_lanes`] over that column's
//! [`outer_triangle_lanes`], which still score a range's last 0–7
//! columns; a unit test pins the dispatched rung and the portable body
//! to that pair bit for bit.
//!
//! Every rung is a safe `#[target_feature]` function that only calls its
//! kernel's safe body. Calling one is `unsafe` because the CPU must have
//! the features it was compiled for, so each call sits in one `unsafe`
//! block right after the runtime probe that establishes them.

use crate::complex::C64;

/// Returns `true` when the running CPU has AVX2 and FMA, so
/// [`encode_readout_lanes`] runs its fused rung. Cached after the first
/// probe, so a process never switches rungs mid-run.
#[inline]
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ACTIVE: OnceLock<bool> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Returns `true` when the AVX-recompiled autovec kernels are usable: the
/// same safe Rust bodies compiled with 256-bit vectors enabled,
/// dispatched at runtime, available on any x86-64 build. Used by the
/// density-matrix lane kernels only; [`encode_readout_lanes`] dispatches
/// on [`simd_active`].
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
/// sit inside per-gate loops).
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

/// The batched 1q-superoperator lane kernel: applies one shared 4×4
/// superoperator (a fused noise channel) across the sample lanes of one
/// row quadruple of a `4^n × S` vec(ρ) panel — the whole-batch analogue
/// of the per-sample density kernel
/// ([`crate::density::DensityMatrix::apply_superop_1q`]), with the same
/// per-element term order, so lockstep and per-sample walks agree to the
/// bit. Each lane is a tiny `4×4 · 4×1` GEMM; the panel layout makes the
/// four operand rows contiguous lane runs, which is what lets the
/// compiler vectorise across samples. Dispatched through the runtime AVX
/// recompilation ladder.
pub fn superop4_lanes(
    v0: &mut [C64],
    v1: &mut [C64],
    v2: &mut [C64],
    v3: &mut [C64],
    s: &[[C64; 4]; 4],
) {
    #[cfg(target_arch = "x86_64")]
    if avx512_autovec_active() {
        // SAFETY: `avx512_autovec_active` verified AVX-512 at runtime, the
        // only requirement of the safe `#[target_feature]` rung.
        unsafe {
            superop4_avx512(v0, v1, v2, v3, s);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx_autovec_active() {
        // SAFETY: `avx_autovec_active` verified AVX at runtime, the only
        // requirement of the safe `#[target_feature]` rung.
        unsafe {
            superop4_avx(v0, v1, v2, v3, s);
        }
        return;
    }
    superop4_body(v0, v1, v2, v3, s);
}

/// [`superop4_lanes`]'s body recompiled with 512-bit AVX-512 vectors
/// enabled — identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
fn superop4_avx512(
    v0: &mut [C64],
    v1: &mut [C64],
    v2: &mut [C64],
    v3: &mut [C64],
    s: &[[C64; 4]; 4],
) {
    superop4_body(v0, v1, v2, v3, s);
}

/// [`superop4_lanes`]'s body recompiled with 256-bit AVX vectors enabled —
/// identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn superop4_avx(v0: &mut [C64], v1: &mut [C64], v2: &mut [C64], v3: &mut [C64], s: &[[C64; 4]; 4]) {
    superop4_body(v0, v1, v2, v3, s);
}

#[inline(always)]
fn superop4_body(
    v0: &mut [C64],
    v1: &mut [C64],
    v2: &mut [C64],
    v3: &mut [C64],
    s: &[[C64; 4]; 4],
) {
    for (((a, b), c_), d) in v0
        .iter_mut()
        .zip(v1.iter_mut())
        .zip(v2.iter_mut())
        .zip(v3.iter_mut())
    {
        let v = [*a, *b, *c_, *d];
        let mut out = [C64::ZERO; 4];
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

/// Sample lanes in one block of [`encode_readout_lanes`]: two 256-bit
/// vectors of `f64`, so every per-lane accumulator of the FMA rung fits
/// in two registers.
pub const READOUT_LANES: usize = 8;

/// The pure-state readout lane kernel of the batched Exact engine: the
/// SWAP-test deviation `P(ancilla = 1)` of [`READOUT_LANES`] samples at
/// every requested compression level, from one block of their real
/// amplitude columns.
///
/// `amps[k][l]` is amplitude `k` of lane `l`'s unit-norm column (a real
/// `2^n × 8` block; lanes past the panel's end are zero), and `encoder`
/// is the group's fused `2^n × 2^n` encoder `E`, row-major. The kernel
///
/// 1. forms `Φ = E·Ψ` as a complex × real product into `phi` (`2^n`
///    rows of real parts, then `2^n` rows of imaginary parts);
/// 2. for each `r = reset_counts[v]`, with `kept = n − r`, expands the
///    `2^r` reset branches: `w_k = Σ_i |Φ[k·2^kept + i]|²` and
///    `o_k = Σ_i conj(Φ[i])·Φ[k·2^kept + i]`, and a branch with
///    `w_k > prune` adds `|o_k|²` to the trace overlap `t`;
/// 3. writes `out[v][l] = ((1 − t) / 2).clamp(0, 0.5)`.
///
/// Rounding: each product element accumulates over `k` in index order
/// from zero. Where [`simd_active`] holds, every step is one fused
/// multiply–add; elsewhere it is a multiply then an add, the rounding of
/// [`CMatrix::matmul`](crate::matrix::CMatrix::matmul) and of the
/// per-sample matvec. The branch sweeps are unfused on every host and
/// evaluate, term for term, the per-sample engine's interleaved complex
/// loop. So each lane's deviations depend only on its own column, never
/// on its block mates, and equal those of the product-then-sweep
/// pipeline bit for bit.
///
/// # Panics
///
/// Panics unless `amps.len()` is a power of two `2^n`, `encoder` holds
/// `4^n` entries, `phi` holds `2·2^n` lane rows, `out` holds one lane row
/// per reset count and every reset count is at most `n`.
pub fn encode_readout_lanes(
    encoder: &[C64],
    amps: &[[f64; READOUT_LANES]],
    reset_counts: &[usize],
    prune: f64,
    phi: &mut [[f64; READOUT_LANES]],
    out: &mut [[f64; READOUT_LANES]],
) {
    check_readout_shapes(encoder, amps, reset_counts, phi, out);
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 and FMA at runtime, the only
        // requirement of the safe `#[target_feature]` rung.
        unsafe { encode_readout_fma(encoder, amps, reset_counts, prune, phi, out) };
        return;
    }
    encode_readout_body::<false>(encoder, amps, reset_counts, prune, phi, out);
}

/// [`encode_readout_lanes`]' portable unfused body, which every host
/// without AVX2 + FMA runs; public so that FMA hosts can pin it too.
///
/// # Panics
///
/// Same conditions as [`encode_readout_lanes`].
pub fn encode_readout_lanes_portable(
    encoder: &[C64],
    amps: &[[f64; READOUT_LANES]],
    reset_counts: &[usize],
    prune: f64,
    phi: &mut [[f64; READOUT_LANES]],
    out: &mut [[f64; READOUT_LANES]],
) {
    check_readout_shapes(encoder, amps, reset_counts, phi, out);
    encode_readout_body::<false>(encoder, amps, reset_counts, prune, phi, out);
}

fn check_readout_shapes(
    encoder: &[C64],
    amps: &[[f64; READOUT_LANES]],
    reset_counts: &[usize],
    phi: &[[f64; READOUT_LANES]],
    out: &[[f64; READOUT_LANES]],
) {
    let dim = amps.len();
    assert!(dim.is_power_of_two(), "amplitude block has {dim} rows");
    assert_eq!(encoder.len(), dim * dim, "encoder is not 2^n × 2^n");
    assert_eq!(phi.len(), 2 * dim, "Φ scratch holds 2·2^n lane rows");
    assert_eq!(out.len(), reset_counts.len(), "one output row per level");
    let n = dim.trailing_zeros() as usize;
    assert!(
        reset_counts.iter().all(|&r| r <= n),
        "reset counts exceed the {n}-qubit register"
    );
}

/// [`encode_readout_lanes`]' fused rung: the same body with AVX2 + FMA
/// enabled and the product steps fused. The sweeps compile here too, on
/// 256-bit vectors, and stay unfused.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn encode_readout_fma(
    encoder: &[C64],
    amps: &[[f64; READOUT_LANES]],
    reset_counts: &[usize],
    prune: f64,
    phi: &mut [[f64; READOUT_LANES]],
    out: &mut [[f64; READOUT_LANES]],
) {
    encode_readout_body::<true>(encoder, amps, reset_counts, prune, phi, out);
}

#[inline(always)]
fn encode_readout_body<const FUSED: bool>(
    encoder: &[C64],
    amps: &[[f64; READOUT_LANES]],
    reset_counts: &[usize],
    prune: f64,
    phi: &mut [[f64; READOUT_LANES]],
    out: &mut [[f64; READOUT_LANES]],
) {
    const L: usize = READOUT_LANES;
    let dim = amps.len();
    let (phi_re, phi_im) = phi.split_at_mut(dim);
    for ((row, re_out), im_out) in encoder
        .chunks_exact(dim)
        .zip(phi_re.iter_mut())
        .zip(phi_im.iter_mut())
    {
        let (mut re, mut im) = ([0.0; L], [0.0; L]);
        for (e, b) in row.iter().zip(amps) {
            for l in 0..L {
                if FUSED {
                    re[l] = e.re.mul_add(b[l], re[l]);
                    im[l] = e.im.mul_add(b[l], im[l]);
                } else {
                    re[l] += e.re * b[l];
                    im[l] += e.im * b[l];
                }
            }
        }
        *re_out = re;
        *im_out = im;
    }
    let n = dim.trailing_zeros() as usize;
    for (&r, lanes) in reset_counts.iter().zip(out.iter_mut()) {
        let low_dim = 1usize << (n - r);
        let mut trace = [0.0; L];
        for top in (0..dim).step_by(low_dim) {
            let (mut w, mut o_re, mut o_im) = ([0.0; L], [0.0; L], [0.0; L]);
            for i in 0..low_dim {
                let (lr, li) = (&phi_re[i], &phi_im[i]);
                let (tr, ti) = (&phi_re[top + i], &phi_im[top + i]);
                for l in 0..L {
                    w[l] += tr[l] * tr[l] + ti[l] * ti[l];
                    o_re[l] += lr[l] * tr[l] + li[l] * ti[l];
                    o_im[l] += lr[l] * ti[l] - li[l] * tr[l];
                }
            }
            for l in 0..L {
                if w[l] > prune {
                    trace[l] += o_re[l] * o_re[l] + o_im[l] * o_im[l];
                }
            }
        }
        for (o, t) in lanes.iter_mut().zip(trace) {
            *o = ((1.0 - t) / 2.0).clamp(0.0, 0.5);
        }
    }
}

/// The batched 16×16 lane kernel of the structured SWAP-test readout
/// sweep ([`crate::channel::SwapTestMpo`]): applies one shared 16×16
/// complex matrix across the sample lanes of sixteen row runs (4 bond
/// panels × 4 field rows of one qubit pair). Per lane it gathers the
/// sixteen entries, forms each output as the mat-vec row summed in index
/// order, and scatters the results back. Dispatched through the runtime
/// AVX recompilation ladder.
pub fn superop16_lanes(rows: &mut [&mut [C64]; 16], s: &[[C64; 16]; 16]) {
    #[cfg(target_arch = "x86_64")]
    if avx512_autovec_active() {
        // SAFETY: `avx512_autovec_active` verified AVX-512 at runtime, the
        // only requirement of the safe `#[target_feature]` rung.
        unsafe {
            superop16_avx512(rows, s);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx_autovec_active() {
        // SAFETY: `avx_autovec_active` verified AVX at runtime, the only
        // requirement of the safe `#[target_feature]` rung.
        unsafe {
            superop16_avx(rows, s);
        }
        return;
    }
    superop16_body(rows, s);
}

/// [`superop16_lanes`]'s body recompiled with 512-bit AVX-512 vectors
/// enabled — identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
fn superop16_avx512(rows: &mut [&mut [C64]; 16], s: &[[C64; 16]; 16]) {
    superop16_body(rows, s);
}

/// [`superop16_lanes`]'s body recompiled with 256-bit AVX vectors enabled —
/// identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn superop16_avx(rows: &mut [&mut [C64]; 16], s: &[[C64; 16]; 16]) {
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
        // SAFETY: `avx_autovec_active` verified AVX at runtime, the only
        // requirement of the safe `#[target_feature]` rung.
        unsafe {
            reset_avx(v0, v1, v2, v3);
        }
        return;
    }
    reset_body(v0, v1, v2, v3);
}

/// [`reset_lanes`]'s body recompiled with 256-bit AVX vectors enabled —
/// identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn reset_avx(v0: &mut [C64], v1: &mut [C64], v2: &mut [C64], v3: &mut [C64]) {
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

/// Partial sums [`dot_lanes`] keeps: one 512-bit vector, two 256-bit or
/// four 128-bit ones, so the loop autovectorises at any SIMD width.
const DOT_ACCUMULATORS: usize = 8;

/// The packed upper triangle of the outer product `h·hᵀ`: for `k ≤ l` in
/// row-major order, `z[t] = h[k]·h[l]`. `z` must hold exactly
/// `m(m+1)/2` entries for `m = h.len()`. The level-independent half of the
/// dense noisy readout for one column, whose quadratic forms `hᵀ·G·h`
/// then become one [`dot_lanes`] of `z` against each form's packed
/// coefficients; [`readout_form_lanes`] scores eight columns at once
/// with the same bits.
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

/// The dense noisy readout's lane kernel: every packed form of `forms`
/// evaluated on [`READOUT_LANES`] prepared columns at once.
///
/// `h[k][j]` is coordinate `k` of lane `j`'s upper triangle (a lane-major
/// `m × 8` block), each form holds one level's `m(m+1)/2` packed
/// coefficients, and `out[f][j]` receives form `f` on lane `j`. Each lane
/// equals [`dot_lanes`]`(forms[f], z)` for `z` its column's
/// [`outer_triangle_lanes`], bit for bit: term `t = (k, l)` runs
/// row-major over `k ≤ l`, and `z_t = h_k·h_l` is rounded before
/// `form[t]·z_t`; terms of the longest multiple-of-8 prefix go to partial
/// sum `t mod 8`, the rest are summed from zero in index order, and the
/// partials combine as in [`dot_lanes`]. No step is fused, so every rung
/// gives the same bits. Forms are swept two at a time, so a pair of
/// levels shares each `z_t`; the AVX-512 rung sweeps all eight lanes at
/// once, the AVX rung and the portable body four at a time.
/// Dispatched through the runtime AVX recompilation ladder.
///
/// # Panics
///
/// Panics unless `out` holds one lane row per form and every form holds
/// `m(m+1)/2` coefficients for `m = h.len()`.
pub fn readout_form_lanes(
    forms: &[&[f64]],
    h: &[[f64; READOUT_LANES]],
    out: &mut [[f64; READOUT_LANES]],
) {
    check_form_shapes(forms, h, out);
    #[cfg(target_arch = "x86_64")]
    if avx512_autovec_active() {
        // SAFETY: `avx512_autovec_active` verified AVX-512 at runtime, the
        // only requirement of the safe `#[target_feature]` rung.
        unsafe { readout_form_avx512(forms, h, out) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx_autovec_active() {
        // SAFETY: `avx_autovec_active` verified AVX at runtime, the only
        // requirement of the safe `#[target_feature]` rung.
        unsafe { readout_form_avx(forms, h, out) };
        return;
    }
    readout_form_body::<HALF_LANES>(forms, h, out);
}

/// [`readout_form_lanes`]' portable body, which hosts without AVX run;
/// public so that every host can pin it too.
///
/// # Panics
///
/// Same conditions as [`readout_form_lanes`].
pub fn readout_form_lanes_portable(
    forms: &[&[f64]],
    h: &[[f64; READOUT_LANES]],
    out: &mut [[f64; READOUT_LANES]],
) {
    check_form_shapes(forms, h, out);
    readout_form_body::<HALF_LANES>(forms, h, out);
}

fn check_form_shapes(forms: &[&[f64]], h: &[[f64; READOUT_LANES]], out: &[[f64; READOUT_LANES]]) {
    let terms = h.len() * (h.len() + 1) / 2;
    assert_eq!(out.len(), forms.len(), "one output row per form");
    assert!(
        forms.iter().all(|form| form.len() == terms),
        "a form holds {terms} packed coefficients"
    );
}

/// [`readout_form_lanes`]' body recompiled with 512-bit AVX-512 vectors
/// enabled — identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
fn readout_form_avx512(
    forms: &[&[f64]],
    h: &[[f64; READOUT_LANES]],
    out: &mut [[f64; READOUT_LANES]],
) {
    readout_form_body::<READOUT_LANES>(forms, h, out);
}

/// [`readout_form_lanes`]' body recompiled with 256-bit AVX vectors
/// enabled — identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn readout_form_avx(
    forms: &[&[f64]],
    h: &[[f64; READOUT_LANES]],
    out: &mut [[f64; READOUT_LANES]],
) {
    readout_form_body::<HALF_LANES>(forms, h, out);
}

/// Lanes one sweep of [`readout_form_lanes`] carries on its AVX rung and
/// portable body. With 16 vector registers, two forms' eight partial
/// sums over all eight lanes spill: on a 2.1 GHz AVX-512 Xeon, with each
/// variant compiled for AVX only, eight-lane sweeps ran 7–17 % slower
/// than the per-column dot products and four-lane sweeps 1.6–2.2×
/// faster (m = 10, 36, 136, two forms). The AVX-512 rung's 32 registers
/// hold all eight lanes.
const HALF_LANES: usize = READOUT_LANES / 2;

/// Sweeps the block `W` lanes at a time, two forms per sweep.
#[inline(always)]
fn readout_form_body<const W: usize>(
    forms: &[&[f64]],
    h: &[[f64; READOUT_LANES]],
    out: &mut [[f64; READOUT_LANES]],
) {
    for lane0 in (0..READOUT_LANES).step_by(W) {
        let mut pairs = forms.chunks_exact(2);
        let mut rows = out.chunks_exact_mut(2);
        for (pair, lanes) in pairs.by_ref().zip(rows.by_ref()) {
            let sums = form_sweep::<2, W>([pair[0], pair[1]], h, lane0);
            for (lanes, sums) in lanes.iter_mut().zip(&sums) {
                lanes[lane0..lane0 + W].copy_from_slice(sums);
            }
        }
        if let ([form], [lanes]) = (pairs.remainder(), rows.into_remainder()) {
            let [sums] = form_sweep::<1, W>([*form], h, lane0);
            lanes[lane0..lane0 + W].copy_from_slice(&sums);
        }
    }
}

/// One pass over the triangle's terms for `F` forms at once, on lanes
/// `lane0..lane0 + W`, in [`readout_form_lanes`]' summation pattern.
#[inline(always)]
fn form_sweep<const F: usize, const W: usize>(
    forms: [&[f64]; F],
    h: &[[f64; READOUT_LANES]],
    lane0: usize,
) -> [[f64; W]; F] {
    const P: usize = DOT_ACCUMULATORS;
    let m = h.len();
    let terms = m * (m + 1) / 2;
    let body = terms - terms % P;
    // `(k, l)` walks the triangle row-major; `next` returns the lanes of
    // the current term's product `h_k·h_l` and steps to the next term
    // without a branch, so a chunk of terms unrolls.
    let (mut k, mut l) = (0, 0);
    let mut next = || {
        let (hk, hl) = (&h[k][lane0..lane0 + W], &h[l][lane0..lane0 + W]);
        let mut z = [0.0; W];
        for j in 0..W {
            z[j] = hk[j] * hl[j];
        }
        let wrap = l + 1 == m;
        k += usize::from(wrap);
        l = if wrap { k } else { l + 1 };
        z
    };
    let mut acc = [[[0.0; W]; P]; F];
    for t in (0..body).step_by(P) {
        let coefs: [&[f64]; F] = core::array::from_fn(|f| &forms[f][t..t + P]);
        for i in 0..P {
            let z = next();
            for (acc, coefs) in acc.iter_mut().zip(&coefs) {
                for j in 0..W {
                    acc[i][j] += coefs[i] * z[j];
                }
            }
        }
    }
    let mut tail = [[0.0; W]; F];
    for t in body..terms {
        let z = next();
        for (tail, form) in tail.iter_mut().zip(&forms) {
            for j in 0..W {
                tail[j] += form[t] * z[j];
            }
        }
    }
    let mut out = [[0.0; W]; F];
    for ((o, a), tail) in out.iter_mut().zip(&acc).zip(&tail) {
        for j in 0..W {
            o[j] = ((a[0][j] + a[1][j]) + (a[2][j] + a[3][j]))
                + ((a[4][j] + a[5][j]) + (a[6][j] + a[7][j]))
                + tail[j];
        }
    }
    out
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

    /// A unitary on `n` qubits (layers of RY, RZ and a CX ladder) and a
    /// block of unit-norm real amplitude columns, the last lane zero as in
    /// a panel's final block.
    fn readout_inputs(n: usize, salt: u64) -> (Vec<C64>, Vec<[f64; READOUT_LANES]>) {
        let mut circuit = crate::circuit::Circuit::new(n);
        for layer in 0..2 {
            for q in 0..n {
                let t = (q + n * layer) as f64 + salt as f64 * 0.37;
                circuit.ry((t * 0.913).sin() * 3.0, q);
                circuit.rz((t * 1.371).cos() * 3.0, q);
            }
            for q in 1..n {
                circuit.cx(q - 1, q);
            }
        }
        let encoder = circuit.to_unitary().expect("unitary").as_slice().to_vec();
        let dim = 1usize << n;
        let mut amps = vec![[0.0; READOUT_LANES]; dim];
        for l in 0..READOUT_LANES - 1 {
            let column: Vec<f64> = (0..dim)
                .map(|k| {
                    ((k * READOUT_LANES + l) as f64 * 0.7182 + salt as f64)
                        .sin()
                        .abs()
                })
                .collect();
            let norm = column.iter().map(|a| a * a).sum::<f64>().sqrt();
            for (row, a) in amps.iter_mut().zip(column) {
                row[l] = a / norm;
            }
        }
        (encoder, amps)
    }

    /// `Φ = E·Ψ` on a complex block of `cols` columns, every step one
    /// fused multiply–add in index order: the rounding of the kernel's FMA
    /// rung, written out on a complex right-hand side.
    fn fused_product(encoder: &[C64], psi: &[C64], cols: usize) -> Vec<C64> {
        let dim = psi.len() / cols;
        let mut phi = vec![C64::ZERO; dim * cols];
        for (row, out) in encoder.chunks_exact(dim).zip(phi.chunks_exact_mut(cols)) {
            for (j, o) in out.iter_mut().enumerate() {
                let (mut re, mut im) = (0.0_f64, 0.0_f64);
                for (k, e) in row.iter().enumerate() {
                    let b = psi[k * cols + j];
                    re = e.re.mul_add(b.re, re);
                    re = e.im.mul_add(-b.im, re);
                    im = e.re.mul_add(b.im, im);
                    im = e.im.mul_add(b.re, im);
                }
                *o = C64::new(re, im);
            }
        }
        phi
    }

    /// `Φ = E·Ψ` through [`CMatrix::matmul`](crate::matrix::CMatrix::matmul),
    /// whose steps are a multiply then an add: the rounding of the
    /// kernel's portable body.
    fn plain_product(encoder: &[C64], psi: &[C64], cols: usize) -> Vec<C64> {
        use crate::matrix::CMatrix;
        let dim = psi.len() / cols;
        let mut rhs = CMatrix::zeros(dim, cols);
        rhs.as_mut_slice().copy_from_slice(psi);
        let e = CMatrix::from_flat(encoder).expect("square encoder");
        e.matmul(&rhs).expect("shapes agree").as_slice().to_vec()
    }

    /// The staged readout the kernel fuses: `Φ = E·Ψ` through `product`
    /// on the complex block, then the per-sample engine's interleaved
    /// branch loop, one lane at a time.
    fn staged_readout(
        product: fn(&[C64], &[C64], usize) -> Vec<C64>,
        encoder: &[C64],
        amps: &[[f64; READOUT_LANES]],
        reset_counts: &[usize],
    ) -> Vec<[f64; READOUT_LANES]> {
        let dim = amps.len();
        let psi: Vec<C64> = amps.iter().flatten().map(|&a| C64::new(a, 0.0)).collect();
        let phi = product(encoder, &psi, READOUT_LANES);
        let n = dim.trailing_zeros() as usize;
        reset_counts
            .iter()
            .map(|&r| {
                let low_dim = 1usize << (n - r);
                let mut lanes = [0.0; READOUT_LANES];
                for (l, out) in lanes.iter_mut().enumerate() {
                    let col: Vec<C64> = (0..dim).map(|i| phi[i * READOUT_LANES + l]).collect();
                    let mut trace = 0.0;
                    for block in col.chunks(low_dim) {
                        let weight: f64 = block.iter().map(|a| a.norm_sqr()).sum();
                        if weight <= 1e-14 {
                            continue;
                        }
                        let overlap: C64 = col[..low_dim]
                            .iter()
                            .zip(block)
                            .map(|(a, b)| a.conj() * *b)
                            .sum();
                        trace += overlap.norm_sqr();
                    }
                    *out = ((1.0 - trace) / 2.0).clamp(0.0, 0.5);
                }
                lanes
            })
            .collect()
    }

    #[test]
    fn encode_readout_lanes_match_the_staged_pipeline() {
        type Kernel = fn(
            &[C64],
            &[[f64; READOUT_LANES]],
            &[usize],
            f64,
            &mut [[f64; READOUT_LANES]],
            &mut [[f64; READOUT_LANES]],
        );
        let bits = |rows: &[[f64; READOUT_LANES]]| -> Vec<u64> {
            rows.iter().flatten().map(|x| x.to_bits()).collect()
        };
        // The dispatched rung fuses its product steps where `simd_active`
        // holds; the portable body never does.
        let dispatched = if simd_active() {
            fused_product
        } else {
            plain_product
        };
        for n in 1..=6 {
            let (encoder, amps) = readout_inputs(n, n as u64);
            let reset_counts: Vec<usize> = (0..=n).collect();
            let cases: [(Kernel, Vec<[f64; READOUT_LANES]>); 2] = [
                (
                    encode_readout_lanes,
                    staged_readout(dispatched, &encoder, &amps, &reset_counts),
                ),
                (
                    encode_readout_lanes_portable,
                    staged_readout(plain_product, &encoder, &amps, &reset_counts),
                ),
            ];
            for (kernel, staged) in cases {
                let mut phi = vec![[f64::NAN; READOUT_LANES]; 2 << n];
                let mut out = vec![[f64::NAN; READOUT_LANES]; reset_counts.len()];
                kernel(&encoder, &amps, &reset_counts, 1e-14, &mut phi, &mut out);
                assert_eq!(bits(&out), bits(&staged), "n = {n}");
                // The zero lane is pruned away in every branch.
                assert!(out.iter().all(|lanes| lanes[READOUT_LANES - 1] == 0.5));
            }
        }
    }

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
    fn reset_lanes_match_closed_form() {
        // ρ00 + ρ11 survives, everything else vanishes.
        let lanes = 9;
        let mut v: Vec<Vec<C64>> = (0..4).map(|r| dense(1, lanes, 40 + r as u64)).collect();
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
    fn readout_form_lanes_match_per_column_dot_products() {
        type Kernel = fn(&[&[f64]], &[[f64; READOUT_LANES]], &mut [[f64; READOUT_LANES]]);
        // The dispatched rung sweeps eight or four lanes at a time,
        // depending on the host; the safe body pins both widths anywhere.
        let kernels: [(&str, Kernel); 4] = [
            ("dispatched", readout_form_lanes),
            ("portable", readout_form_lanes_portable),
            ("eight-lane sweeps", readout_form_body::<READOUT_LANES>),
            ("four-lane sweeps", readout_form_body::<HALF_LANES>),
        ];
        let bits = |rows: &[[f64; READOUT_LANES]]| -> Vec<u64> {
            rows.iter().flatten().map(|x| x.to_bits()).collect()
        };
        // m = 3, 10, 36 and 136 (n = 1..=4) leave tails of 6, 7, 2 and 4
        // terms; at m = 3 the 8-term prefix is empty.
        for m in [3usize, 10, 36, 136] {
            let terms = m * (m + 1) / 2;
            let h: Vec<[f64; READOUT_LANES]> = (0..m)
                .map(|k| {
                    core::array::from_fn(|j| ((k * READOUT_LANES + j) as f64 * 0.7331 + 0.1).sin())
                })
                .collect();
            let all_forms: Vec<Vec<f64>> = (0..3)
                .map(|f| {
                    (0..terms)
                        .map(|t| ((t * 3 + f) as f64 * 1.173).cos() * (1.0 + f as f64))
                        .collect()
                })
                .collect();
            for count in 1..=3 {
                let forms: Vec<&[f64]> = all_forms[..count].iter().map(Vec::as_slice).collect();
                let mut z = vec![0.0; terms];
                let mut want = vec![[0.0; READOUT_LANES]; count];
                for j in 0..READOUT_LANES {
                    let column: Vec<f64> = h.iter().map(|row| row[j]).collect();
                    outer_triangle_lanes(&column, &mut z);
                    for (lanes, form) in want.iter_mut().zip(&forms) {
                        lanes[j] = dot_lanes(form, &z);
                    }
                }
                for (name, kernel) in kernels {
                    let mut out = vec![[f64::NAN; READOUT_LANES]; count];
                    kernel(&forms, &h, &mut out);
                    assert_eq!(bits(&out), bits(&want), "{name}: m = {m}, {count} forms");
                }
            }
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
