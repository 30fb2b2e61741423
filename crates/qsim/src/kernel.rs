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
//! (`avx512_autovec_active`, `avx_autovec_active`). They have no FMA
//! counterpart, so every rung gives the same bits.
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
/// through the runtime AVX recompilation ladder.
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
        // SAFETY: `avx512_autovec_active` verified AVX-512 at runtime, the
        // only requirement of the safe `#[target_feature]` rung.
        unsafe {
            ry_conj_avx512(v0, v1, v2, v3, cc, cs, ss);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx_autovec_active() {
        // SAFETY: `avx_autovec_active` verified AVX at runtime, the only
        // requirement of the safe `#[target_feature]` rung.
        unsafe {
            ry_conj_avx(v0, v1, v2, v3, cc, cs, ss);
        }
        return;
    }
    ry_conj_body(v0, v1, v2, v3, cc, cs, ss);
}

/// [`ry_conj_lanes`]'s body recompiled with 512-bit AVX-512 vectors
/// enabled — identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
fn ry_conj_avx512(
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
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn ry_conj_avx(
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
fn superop4_avx512<T: LaneScalar>(
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
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn superop4_avx<T: LaneScalar>(
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
        // SAFETY: `avx_autovec_active` verified AVX at runtime, the only
        // requirement of the safe `#[target_feature]` rung.
        unsafe {
            amp_damp_avx(v0, v1, v2, v3, gamma, damp);
        }
        return;
    }
    amp_damp_body(v0, v1, v2, v3, gamma, damp);
}

/// [`amp_damp_lanes`]'s body recompiled with 256-bit AVX vectors enabled —
/// identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn amp_damp_avx(
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
        // SAFETY: `avx_autovec_active` verified AVX at runtime, the only
        // requirement of the safe `#[target_feature]` rung.
        unsafe {
            phase_damp_avx(v1, v2, damp);
        }
        return;
    }
    phase_damp_body(v1, v2, damp);
}

/// [`phase_damp_lanes`]'s body recompiled with 256-bit AVX vectors
/// enabled — identical safe Rust, identical results.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn phase_damp_avx(v1: &mut [C64], v2: &mut [C64], damp: f64) {
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
