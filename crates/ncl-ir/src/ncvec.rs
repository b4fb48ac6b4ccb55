//! ncvec — the width-specialized SIMD execution tier (DESIGN §4.11).
//!
//! The third execution tier below the micro-op fast path: where the
//! lowering's `fuse_element_runs` left a fused element-wise run
//! ([`crate::exec`]'s `VecAccum` / `VecRegToWin` / `VecWinToReg`), this
//! module executes the run's lane-packable body as explicit
//! width-specialized lane loops over the raw big-endian window bytes —
//! one `u8x32` / `u16x16` / `u32x8` / `u64x4` block shape per scalar
//! width — instead of the per-element slot/bounds/dispatch machinery of
//! the scalar loops.
//!
//! # Dispatch and fallback rules
//!
//! Every entry point returns `bool`: `true` means the run executed here
//! (bit-identically to the scalar loops), `false` means the caller must
//! run the scalar path. The tier declines — and the fast path falls
//! back with identical results, never a panic — when:
//!
//! - the host offers no usable lanes ([`level`] is [`SimdLevel::Scalar`]:
//!   `NCVEC_FORCE_SCALAR=1`, [`set_force_scalar`], or a build with no
//!   vectorizable target),
//! - the run's element types are not uniform (mixed-width accumulates
//!   take the `Value`-typed scalar loop, exactly as before),
//! - the slots do not pack into consecutive lanes: the index-add would
//!   wrap its type width, or the register array's power-of-two mask
//!   would wrap inside the body (lane-crossing slot strides),
//! - the in-bounds body is shorter than [`MIN_BODY`] groups (dispatch
//!   overhead would dominate).
//!
//! A headless first group (which reads the base register unmasked) and
//! the ragged tail past the chunk's last full element run through the
//! scalar epilogues — the same range-based loops the scalar tier uses,
//! so the semantics cannot drift. Runs guarded by `CmpBr` need no
//! special casing: fusion is intra-block, so a guarded run is reached
//! (or skipped) by ordinary control flow and executes identically.
//!
//! # Width specialization
//!
//! The body loops operate on pre-sliced regions — `&data[a..b]` window
//! bytes and `&mut arr[s0..s0+w]` register slots — with per-element
//! work reduced to a fixed-width big-endian load, a truncating add (for
//! accumulate), and a `Value` store. On x86-64 hosts with AVX2 the
//! loops are additionally instantiated inside `#[target_feature]`
//! wrappers so the compiler emits 256-bit loads and byte-shuffles for
//! the window side; elsewhere the same portable loops run at whatever
//! width the baseline target offers. Step-budget accounting is
//! unchanged: the caller's `vec_iters` already decided how many groups
//! `m` execute, and partial (budget-exhausted) runs vectorize like any
//! other — the tier only ever executes groups `< m`.

use crate::exec::{
    be_load, be_store, vec_accum_scalar, vec_reg_to_win_scalar, vec_win_to_reg_scalar, VecOp,
};
use c3::{Chunk, ScalarType, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The lane width tier a fused run executes at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdLevel {
    /// No lane execution: every fused run takes the scalar loops.
    Scalar,
    /// Portable lane loops at the build target's baseline vector width.
    Lanes,
    /// Lane loops instantiated with AVX2 (runtime-detected, x86-64).
    Avx2,
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Lanes => "lanes",
            SimdLevel::Avx2 => "avx2",
        })
    }
}

/// Smallest lane-packable body worth leaving the scalar loop for.
/// Shorter runs stay scalar — identical results either way; this only
/// bounds dispatch overhead.
pub const MIN_BODY: u32 = 8;

fn force_flag() -> &'static AtomicBool {
    static F: OnceLock<AtomicBool> = OnceLock::new();
    F.get_or_init(|| {
        AtomicBool::new(std::env::var_os("NCVEC_FORCE_SCALAR").is_some_and(|v| v == "1"))
    })
}

/// Forces (or un-forces) the scalar tier process-wide, overriding the
/// `NCVEC_FORCE_SCALAR` environment gate it is initialized from. The
/// A/B switch the E13 harness flips between arms; tests that want a
/// per-kernel override use `CompiledKernel::with_simd` instead.
pub fn set_force_scalar(on: bool) {
    force_flag().store(on, Ordering::Relaxed);
}

/// Whether the scalar tier is currently forced (env or programmatic).
pub fn force_scalar() -> bool {
    force_flag().load(Ordering::Relaxed)
}

fn detected() -> SimdLevel {
    static L: OnceLock<SimdLevel> = OnceLock::new();
    *L.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        SimdLevel::Lanes
    })
}

/// The effective lane tier: [`SimdLevel::Scalar`] when forced, else the
/// runtime-detected host capability.
pub fn level() -> SimdLevel {
    if force_scalar() {
        SimdLevel::Scalar
    } else {
        detected()
    }
}

/// The lane-packable body of a fused run: iterations `lo..hi` write the
/// consecutive register slots `s0..s0 + (hi - lo)` and read the
/// consecutive, fully in-bounds chunk elements `idx0+lo..idx0+hi`.
struct Plan {
    lo: u32,
    hi: u32,
    s0: usize,
}

/// Decides whether iterations of the run pack into consecutive lanes,
/// mirroring `VecOp::slot` exactly: for `i` in `lo..hi` the slot is
/// `(base + idx0 + i) & imask & amask`, which equals `s0 + (i - lo)`
/// precisely when neither the index-type mask nor the array mask wraps
/// across the body — the two conditions checked here. A headless first
/// group (base bits used unmasked) is excluded from the body and runs
/// scalar, as does everything past the chunk's last full element.
fn plan(v: &VecOp, m: u32, base_bits: u64, arr_len: usize, data_len: usize) -> Option<Plan> {
    let nsz = v.wty.size();
    let lo: u32 = if v.head_cost < v.cost { 1 } else { 0 };
    // Elements fully inside the chunk, counted from iteration 0; later
    // iterations read zeros (or skip stores) and take the scalar tail.
    let in_bounds = (data_len / nsz).saturating_sub(v.idx0 as usize);
    let hi = (m as u64).min(in_bounds as u64) as u32;
    if hi <= lo || hi - lo < MIN_BODY {
        return None;
    }
    let span = (hi - lo - 1) as u64;
    let k0 = base_bits.wrapping_add((v.idx0 + lo) as u64) & v.imask;
    if v.imask - k0 < span {
        return None; // index add wraps its type width inside the body
    }
    let s0 = (k0 & v.amask as u64) as usize;
    if (v.amask as u64) - (s0 as u64) < span {
        return None; // slot mask wraps inside the body (stride defeat)
    }
    if s0 + (hi - lo) as usize > arr_len {
        return None;
    }
    Some(Plan { lo, hi, s0 })
}

/// Truncating add at width `N`: canonical-bits arithmetic for the
/// unsigned/signed scalar of that width (two's complement, so one add
/// serves both signednesses).
#[inline(always)]
fn trunc_add<const N: usize>(a: u64, b: u64) -> u64 {
    match N {
        1 => (a as u8).wrapping_add(b as u8) as u64,
        2 => (a as u16).wrapping_add(b as u16) as u64,
        4 => (a as u32).wrapping_add(b as u32) as u64,
        _ => a.wrapping_add(b),
    }
}

// ---------------------------------------------------------------------
// Width-specialized lane loops. Each is written over pre-sliced regions
// so the optimizer sees a fixed-stride loop with no bounds checks, no
// slot arithmetic and no per-element Option dispatch; the `avx2` module
// re-instantiates the same bodies under `#[target_feature]` so the
// window-side loads and byte swaps vectorize at 256 bits.
// ---------------------------------------------------------------------

#[inline(always)]
fn accum_lanes<const N: usize>(dst: &mut [Value], src: &[u8], ty: ScalarType) {
    debug_assert_eq!(src.len(), dst.len() * N);
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(N)) {
        let bits = trunc_add::<N>(d.bits(), be_load::<N>(s, 0));
        *d = Value::new(ty, bits);
    }
}

#[inline(always)]
fn win_to_reg_lanes<const N: usize>(dst: &mut [Value], src: &[u8], ty: ScalarType) {
    debug_assert_eq!(src.len(), dst.len() * N);
    for (d, s) in dst.iter_mut().zip(src.chunks_exact(N)) {
        *d = Value::new(ty, be_load::<N>(s, 0));
    }
}

#[inline(always)]
fn reg_to_win_lanes<const N: usize>(src: &[Value], dst: &mut [u8], wty: ScalarType) {
    debug_assert_eq!(dst.len(), src.len() * N);
    for (d, s) in src.iter().zip(dst.chunks_exact_mut(N)) {
        // Same branch as the scalar loop: same-type cast is the
        // identity on canonical values.
        let bits = if d.ty() == wty {
            d.bits()
        } else {
            d.cast(wty).bits()
        };
        be_store::<N>(s, 0, bits);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Hand-scheduled AVX2 bodies for the 4-byte (u32/i32) element
    //! width — the hot allreduce shape — operating directly on packed
    //! `Value` slices through the `repr(C)` layout contract
    //! (`Value::RAW_SIZE` = 16, tag byte at `RAW_TY_OFFSET` = 0, bits
    //! at `RAW_BITS_OFFSET` = 8). One ymm register holds two `Value`s
    //! as qwords `[tag, bits, tag, bits]`; the window side loads four
    //! big-endian u32s per xmm and a single `vpshufb` both byte-swaps
    //! them and pre-orders the dwords `(0,2,1,3)` so zero-interleaving
    //! (`vpunpck{l,h}qdq` against zero) spreads them into the bits
    //! lanes of two `Value` ymms. Other widths take the portable lane
    //! loops, still under `target_feature`.

    use super::*;
    use core::arch::x86_64::*;

    const _: () = {
        assert!(Value::RAW_SIZE == 16);
        assert!(Value::RAW_TY_OFFSET == 0);
        assert!(Value::RAW_BITS_OFFSET == 8);
    };

    /// `[tag, 0, tag, 0]` qwords: OR-template writing the tag byte of
    /// two packed `Value`s whose remaining bytes are zero.
    #[inline(always)]
    fn tag_template(ty: ScalarType) -> __m256i {
        // SAFETY: pure lane constructor, no memory access.
        unsafe { _mm256_setr_epi64x(ty as u8 as i64, 0, ty as u8 as i64, 0) }
    }

    // SAFETY contract for the three public wrappers: the caller
    // observed `SimdLevel::Avx2`, which is only ever reported after
    // `is_x86_feature_detected!("avx2")` succeeded on this host.

    #[target_feature(enable = "avx2")]
    pub unsafe fn accum<const N: usize>(dst: &mut [Value], src: &[u8], ty: ScalarType) {
        if N == 4 {
            return accum4(dst, src, ty);
        }
        accum_lanes::<N>(dst, src, ty)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn win_to_reg<const N: usize>(dst: &mut [Value], src: &[u8], ty: ScalarType) {
        if N == 4 {
            return win_to_reg4(dst, src, ty);
        }
        win_to_reg_lanes::<N>(dst, src, ty)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn reg_to_win<const N: usize>(src: &[Value], dst: &mut [u8], wty: ScalarType) {
        if N == 4 {
            return reg_to_win4(src, dst, wty);
        }
        reg_to_win_lanes::<N>(src, dst, wty)
    }

    /// Big-endian u32 swap fused with the `(0,2,1,3)` dword pre-order.
    #[inline(always)]
    unsafe fn load_spread(src: *const u8) -> (__m256i, __m256i) {
        // SAFETY (caller): `src..src+16` is in bounds.
        let swsh = _mm_setr_epi8(3, 2, 1, 0, 11, 10, 9, 8, 7, 6, 5, 4, 15, 14, 13, 12);
        let w = _mm_loadu_si128(src as *const __m128i);
        let w = _mm_shuffle_epi8(w, swsh); // host-order dwords [w0,w2,w1,w3]
        let y = _mm256_cvtepu32_epi64(w); // qwords [w0,w2,w1,w3]
        let zero = _mm256_setzero_si256();
        // [0,w0,0,w1] and [0,w2,0,w3]: window words in the bits lanes.
        (
            _mm256_unpacklo_epi64(zero, y),
            _mm256_unpackhi_epi64(zero, y),
        )
    }

    /// `arr[slot] += win[c]` at width 4: `vpaddd` adds into the low
    /// bits dword (no carry escapes the lane), the mask keeps only that
    /// dword (zeroing stale high bits of a previously wider slot), and
    /// the template restores the accumulate-type tag — exactly
    /// `Value::new(ty, old.bits() + w & 0xFFFF_FFFF)` per slot.
    #[target_feature(enable = "avx2")]
    unsafe fn accum4(dst: &mut [Value], src: &[u8], ty: ScalarType) {
        debug_assert_eq!(src.len(), dst.len() * 4);
        let n = dst.len() & !3;
        let t = tag_template(ty);
        let m32 = _mm256_setr_epi32(0, 0, -1, 0, 0, 0, -1, 0);
        let mut i = 0usize;
        while i < n {
            // SAFETY: `i + 4 <= dst.len()` and `src.len() == 4 * dst.len()`,
            // so both the 16-byte window load and the two 32-byte `Value`
            // load/stores stay in bounds; `Value` is `repr(C)`, 16 bytes.
            let (a0, a1) = load_spread(src.as_ptr().add(i * 4));
            let p = dst.as_mut_ptr().add(i) as *mut __m256i;
            let d0 = _mm256_loadu_si256(p);
            let d1 = _mm256_loadu_si256(p.add(1));
            let s0 = _mm256_or_si256(_mm256_and_si256(_mm256_add_epi32(d0, a0), m32), t);
            let s1 = _mm256_or_si256(_mm256_and_si256(_mm256_add_epi32(d1, a1), m32), t);
            _mm256_storeu_si256(p, s0);
            _mm256_storeu_si256(p.add(1), s1);
            i += 4;
        }
        accum_lanes::<4>(&mut dst[n..], &src[n * 4..], ty);
    }

    /// `arr[slot] = win[c]` at width 4: the spread words OR'd with the
    /// tag template are already complete `Value`s.
    #[target_feature(enable = "avx2")]
    unsafe fn win_to_reg4(dst: &mut [Value], src: &[u8], ty: ScalarType) {
        debug_assert_eq!(src.len(), dst.len() * 4);
        let n = dst.len() & !3;
        let t = tag_template(ty);
        let mut i = 0usize;
        while i < n {
            // SAFETY: as in `accum4` — all accesses bounded by `n`.
            let (a0, a1) = load_spread(src.as_ptr().add(i * 4));
            let p = dst.as_mut_ptr().add(i) as *mut __m256i;
            _mm256_storeu_si256(p, _mm256_or_si256(a0, t));
            _mm256_storeu_si256(p.add(1), _mm256_or_si256(a1, t));
            i += 4;
        }
        win_to_reg_lanes::<4>(&mut dst[n..], &src[n * 4..], ty);
    }

    /// `win[c] = arr[slot]` at width 4. The scalar loop casts slots
    /// whose dynamic type differs from the window type; the tag bytes
    /// (positions 0 and 16 of each `Value` pair) are compared against
    /// the template and any mismatched block of four falls back to the
    /// portable loop, so mixed-type slots keep cast semantics.
    #[target_feature(enable = "avx2")]
    unsafe fn reg_to_win4(src: &[Value], dst: &mut [u8], wty: ScalarType) {
        debug_assert_eq!(dst.len(), src.len() * 4);
        let n = src.len() & !3;
        let t = tag_template(wty);
        let idx = _mm256_setr_epi32(2, 6, 0, 0, 0, 0, 0, 0);
        let bsw = _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
        const TAGS: u32 = 1 | (1 << 16);
        let mut i = 0usize;
        while i < n {
            // SAFETY: `i + 4 <= src.len()` and `dst.len() == 4 * src.len()`.
            let p = src.as_ptr().add(i) as *const __m256i;
            let y0 = _mm256_loadu_si256(p);
            let y1 = _mm256_loadu_si256(p.add(1));
            let eq0 = _mm256_movemask_epi8(_mm256_cmpeq_epi8(y0, t)) as u32;
            let eq1 = _mm256_movemask_epi8(_mm256_cmpeq_epi8(y1, t)) as u32;
            if eq0 & TAGS == TAGS && eq1 & TAGS == TAGS {
                // Gather the low bits dwords [b0,b1] and [b2,b3], join
                // them, and byte-swap to big-endian.
                let b0 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(y0, idx));
                let b1 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(y1, idx));
                let x = _mm_shuffle_epi8(_mm_unpacklo_epi64(b0, b1), bsw);
                _mm_storeu_si128(dst.as_mut_ptr().add(i * 4) as *mut __m128i, x);
            } else {
                reg_to_win_lanes::<4>(&src[i..i + 4], &mut dst[i * 4..i * 4 + 16], wty);
            }
            i += 4;
        }
        reg_to_win_lanes::<4>(&src[n..], &mut dst[n * 4..], wty);
    }
}

#[inline(always)]
fn accum_body<const N: usize>(lv: SimdLevel, dst: &mut [Value], src: &[u8], ty: ScalarType) {
    #[cfg(target_arch = "x86_64")]
    if lv == SimdLevel::Avx2 {
        // SAFETY: Avx2 is only reported when runtime detection passed.
        return unsafe { avx2::accum::<N>(dst, src, ty) };
    }
    let _ = lv;
    accum_lanes::<N>(dst, src, ty)
}

#[inline(always)]
fn win_to_reg_body<const N: usize>(lv: SimdLevel, dst: &mut [Value], src: &[u8], ty: ScalarType) {
    #[cfg(target_arch = "x86_64")]
    if lv == SimdLevel::Avx2 {
        // SAFETY: Avx2 is only reported when runtime detection passed.
        return unsafe { avx2::win_to_reg::<N>(dst, src, ty) };
    }
    let _ = lv;
    win_to_reg_lanes::<N>(dst, src, ty)
}

#[inline(always)]
fn reg_to_win_body<const N: usize>(lv: SimdLevel, src: &[Value], dst: &mut [u8], wty: ScalarType) {
    #[cfg(target_arch = "x86_64")]
    if lv == SimdLevel::Avx2 {
        // SAFETY: Avx2 is only reported when runtime detection passed.
        return unsafe { avx2::reg_to_win::<N>(src, dst, wty) };
    }
    let _ = lv;
    reg_to_win_lanes::<N>(src, dst, wty)
}

// ---------------------------------------------------------------------
// Run entry points (called from the fast path's vec dispatch).
// ---------------------------------------------------------------------

/// `arr[slot] += win[c]`: executes the run if it lane-packs, scalar
/// head/tail included. Returns `false` (caller runs the scalar loop)
/// when the tier is off, the types are mixed, the chunk is absent, or
/// the slots do not pack.
pub(crate) fn accum(
    v: &VecOp,
    m: u32,
    base_bits: u64,
    arr: &mut [Value],
    chunk: Option<&Chunk>,
) -> bool {
    if v.wty != v.aty || v.aty != v.sty || v.wty == ScalarType::Bool {
        return false;
    }
    let lv = level();
    if lv == SimdLevel::Scalar {
        return false;
    }
    let Some(c) = chunk else { return false };
    let Some(p) = plan(v, m, base_bits, arr.len(), c.data.len()) else {
        return false;
    };
    vec_accum_scalar(v, 0..p.lo, base_bits, arr, chunk);
    let nsz = v.wty.size();
    let src = &c.data[(v.idx0 + p.lo) as usize * nsz..(v.idx0 + p.hi) as usize * nsz];
    let dst = &mut arr[p.s0..p.s0 + (p.hi - p.lo) as usize];
    match nsz {
        1 => accum_body::<1>(lv, dst, src, v.aty),
        2 => accum_body::<2>(lv, dst, src, v.aty),
        4 => accum_body::<4>(lv, dst, src, v.aty),
        _ => accum_body::<8>(lv, dst, src, v.aty),
    }
    vec_accum_scalar(v, p.hi..m, base_bits, arr, chunk);
    true
}

/// `win[c] = arr[slot]` (store direction). The chunk is present (the
/// caller already dropped the run when it was missing).
pub(crate) fn reg_to_win(v: &VecOp, m: u32, base_bits: u64, arr: &[Value], c: &mut Chunk) -> bool {
    let lv = level();
    if lv == SimdLevel::Scalar {
        return false;
    }
    let Some(p) = plan(v, m, base_bits, arr.len(), c.data.len()) else {
        return false;
    };
    vec_reg_to_win_scalar(v, 0..p.lo, base_bits, arr, c);
    let nsz = v.wty.size();
    let w = (p.hi - p.lo) as usize;
    let src = &arr[p.s0..p.s0 + w];
    let dst = &mut c.data[(v.idx0 + p.lo) as usize * nsz..(v.idx0 + p.hi) as usize * nsz];
    match nsz {
        1 => reg_to_win_body::<1>(lv, src, dst, v.wty),
        2 => reg_to_win_body::<2>(lv, src, dst, v.wty),
        4 => reg_to_win_body::<4>(lv, src, dst, v.wty),
        _ => reg_to_win_body::<8>(lv, src, dst, v.wty),
    }
    vec_reg_to_win_scalar(v, p.hi..m, base_bits, arr, c);
    true
}

/// `arr[slot] = win[c]` (broadcast-read direction).
pub(crate) fn win_to_reg(
    v: &VecOp,
    m: u32,
    base_bits: u64,
    arr: &mut [Value],
    chunk: Option<&Chunk>,
) -> bool {
    if v.wty != v.sty || v.wty == ScalarType::Bool {
        return false;
    }
    let lv = level();
    if lv == SimdLevel::Scalar {
        return false;
    }
    let Some(c) = chunk else { return false };
    let Some(p) = plan(v, m, base_bits, arr.len(), c.data.len()) else {
        return false;
    };
    vec_win_to_reg_scalar(v, 0..p.lo, base_bits, arr, chunk);
    let nsz = v.wty.size();
    let src = &c.data[(v.idx0 + p.lo) as usize * nsz..(v.idx0 + p.hi) as usize * nsz];
    let dst = &mut arr[p.s0..p.s0 + (p.hi - p.lo) as usize];
    match nsz {
        1 => win_to_reg_body::<1>(lv, dst, src, v.sty),
        2 => win_to_reg_body::<2>(lv, dst, src, v.sty),
        4 => win_to_reg_body::<4>(lv, dst, src, v.sty),
        _ => win_to_reg_body::<8>(lv, dst, src, v.sty),
    }
    vec_win_to_reg_scalar(v, p.hi..m, base_bits, arr, chunk);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vo(idx0: u32, n: u32, amask: u32, imask: u64, headless: bool) -> VecOp {
        VecOp {
            param: 0,
            wty: ScalarType::I32,
            idx0,
            n,
            arr: 0,
            amask,
            base: crate::exec::Base::Reg(0),
            imask,
            aty: ScalarType::I32,
            sty: ScalarType::I32,
            cost: 5,
            head_cost: if headless { 4 } else { 5 },
        }
    }

    #[test]
    fn plan_packs_contiguous_runs() {
        let v = vo(0, 64, 63, u32::MAX as u64, false);
        let p = plan(&v, 64, 0, 64, 64 * 4).expect("packs");
        assert_eq!((p.lo, p.hi, p.s0), (0, 64, 0));
    }

    #[test]
    fn plan_excludes_headless_group_zero() {
        let v = vo(0, 64, 63, u32::MAX as u64, true);
        let p = plan(&v, 64, 0, 64, 64 * 4).expect("packs");
        assert_eq!((p.lo, p.hi, p.s0), (1, 64, 1));
    }

    #[test]
    fn plan_declines_amask_wrap() {
        // base 60 into a 64-slot array: slots wrap at 63→0 inside the
        // body — a lane-defeating stride.
        let v = vo(0, 16, 63, u32::MAX as u64, false);
        assert!(plan(&v, 16, 60, 64, 16 * 4).is_none());
    }

    #[test]
    fn plan_declines_index_width_wrap() {
        // u8 index type: base 250 + 16 elements wraps the 8-bit index.
        let v = vo(0, 16, 1023, 0xFF, false);
        assert!(plan(&v, 16, 250, 1024, 16 * 4).is_none());
    }

    #[test]
    fn plan_trims_ragged_tail_to_full_elements() {
        // Chunk holds 13 full i32 elements; a 16-group run keeps a
        // 13-element body and leaves 3 to the scalar tail.
        let v = vo(0, 16, 63, u32::MAX as u64, false);
        let p = plan(&v, 16, 0, 64, 13 * 4).expect("packs");
        assert_eq!((p.lo, p.hi), (0, 13));
    }

    #[test]
    fn plan_declines_short_bodies() {
        let v = vo(0, 4, 63, u32::MAX as u64, false);
        assert!(plan(&v, 4, 0, 64, 4 * 4).is_none());
    }

    fn chunk_u32(vals: &[u32]) -> Chunk {
        Chunk {
            offset: 0,
            data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
        }
    }

    /// Runs the tier entry point and the scalar reference loop on
    /// identical inputs and asserts bit-identical register files.
    fn accum_matches_scalar(arr: Vec<Value>, vals: &[u32], v: &VecOp) {
        let c = chunk_u32(vals);
        let mut simd_arr = arr.clone();
        let mut scalar_arr = arr;
        let ran = accum(v, v.n, 0, &mut simd_arr, Some(&c));
        crate::exec::vec_accum_scalar(v, 0..v.n, 0, &mut scalar_arr, Some(&c));
        assert!(
            ran || level() == SimdLevel::Scalar,
            "tier declined a packable run"
        );
        assert_eq!(simd_arr, scalar_arr);
    }

    #[test]
    fn accum_overwrites_stale_wide_slots() {
        // Slots holding wider values than the accumulate type: the
        // scalar loop truncates to the low 32 bits and retags; the
        // AVX2 body must do the same (mask + tag template).
        let v = vo(0, 16, 1023, u32::MAX as u64, false);
        let arr: Vec<Value> = (0..1024)
            .map(|i| match i % 3 {
                0 => Value::new(ScalarType::U64, 0xdead_beef_0000_0001 + i as u64),
                1 => Value::new(ScalarType::U8, i as u64 & 0xff),
                _ => Value::new(ScalarType::I32, i as u64),
            })
            .collect();
        let vals: Vec<u32> = (0..16).map(|i| 0x8000_0000u32.wrapping_add(i)).collect();
        accum_matches_scalar(arr, &vals, &v);
    }

    #[test]
    fn win_to_reg_retags_every_slot() {
        let v = vo(0, 16, 1023, u32::MAX as u64, false);
        let c = chunk_u32(&(0..16).map(|i| u32::MAX - i).collect::<Vec<_>>());
        let mk = || {
            (0..1024)
                .map(|i| Value::new(ScalarType::U64, u64::MAX - i as u64))
                .collect::<Vec<Value>>()
        };
        let (mut simd_arr, mut scalar_arr) = (mk(), mk());
        let ran = win_to_reg(&v, v.n, 0, &mut simd_arr, Some(&c));
        crate::exec::vec_win_to_reg_scalar(&v, 0..v.n, 0, &mut scalar_arr, Some(&c));
        assert!(ran || level() == SimdLevel::Scalar);
        assert_eq!(simd_arr, scalar_arr);
    }

    #[test]
    fn reg_to_win_casts_mixed_type_slots() {
        // Blocks with a non-window-typed slot must take the per-block
        // scalar fallback (cast semantics), other blocks vectorize.
        let v = vo(0, 32, 1023, u32::MAX as u64, false);
        let arr: Vec<Value> = (0..1024)
            .map(|i| match i {
                5 => Value::new(ScalarType::I8, 0x80), // -128, sign-extends
                17 => Value::new(ScalarType::U64, 0x1_0000_0005),
                _ => Value::new(ScalarType::I32, 0x8000_0000 | i as u64),
            })
            .collect();
        let mut simd_c = chunk_u32(&[0u32; 32]);
        let mut scalar_c = chunk_u32(&[0u32; 32]);
        let ran = reg_to_win(&v, v.n, 0, &arr, &mut simd_c);
        crate::exec::vec_reg_to_win_scalar(&v, 0..v.n, 0, &arr, &mut scalar_c);
        assert!(ran || level() == SimdLevel::Scalar);
        assert_eq!(simd_c.data, scalar_c.data);
    }

    /// Drives the three width-`N` bodies at level `lv` over one packed
    /// run of `ty` elements and checks each against its scalar loop.
    /// The run length is odd so the AVX2 bodies leave a portable tail.
    fn bodies_match_scalar<const N: usize>(lv: SimdLevel, ty: ScalarType) {
        const RUN: u32 = 37;
        let v = VecOp {
            wty: ty,
            n: RUN,
            aty: ty,
            sty: ty,
            ..vo(0, RUN, 63, u32::MAX as u64, false)
        };
        let c = Chunk {
            offset: 0,
            data: (0..RUN as usize * N)
                .map(|i| (i as u8).wrapping_mul(151).wrapping_add(0x7d))
                .collect(),
        };
        // Stale slots of other (wider, narrower, bool) types next to
        // slots of the run's own type.
        let arr: Vec<Value> = (0..64u64)
            .map(|i| match i % 4 {
                0 => Value::new(ScalarType::U64, 0xfeed_f00d_dead_beef ^ i),
                1 => Value::new(ScalarType::I8, 0x80 | i),
                2 => Value::bool(i % 8 == 2),
                _ => Value::new(ty, u64::MAX - i),
            })
            .collect();
        let src = &c.data[..];
        let w = RUN as usize;
        let what = format!("{lv} {ty:?}");

        let (mut body, mut scalar) = (arr.clone(), arr.clone());
        accum_body::<N>(lv, &mut body[..w], src, ty);
        crate::exec::vec_accum_scalar(&v, 0..RUN, 0, &mut scalar, Some(&c));
        assert_eq!(body, scalar, "accum {what}");

        let (mut body, mut scalar) = (arr.clone(), arr.clone());
        win_to_reg_body::<N>(lv, &mut body[..w], src, ty);
        crate::exec::vec_win_to_reg_scalar(&v, 0..RUN, 0, &mut scalar, Some(&c));
        assert_eq!(body, scalar, "win_to_reg {what}");

        let mut body = vec![0u8; w * N];
        let mut scalar = Chunk {
            offset: 0,
            data: vec![0u8; w * N],
        };
        reg_to_win_body::<N>(lv, &arr[..w], &mut body, ty);
        crate::exec::vec_reg_to_win_scalar(&v, 0..RUN, 0, &arr, &mut scalar);
        assert_eq!(body, scalar.data, "reg_to_win {what}");
    }

    #[test]
    fn every_width_body_matches_scalar_at_every_level() {
        let mut levels = vec![SimdLevel::Lanes];
        if detected() == SimdLevel::Avx2 {
            levels.push(SimdLevel::Avx2);
        }
        let types = [
            ScalarType::U8,
            ScalarType::I8,
            ScalarType::U16,
            ScalarType::I16,
            ScalarType::U32,
            ScalarType::I32,
            ScalarType::U64,
            ScalarType::I64,
        ];
        for &lv in &levels {
            for ty in types {
                match ty.size() {
                    1 => bodies_match_scalar::<1>(lv, ty),
                    2 => bodies_match_scalar::<2>(lv, ty),
                    4 => bodies_match_scalar::<4>(lv, ty),
                    8 => bodies_match_scalar::<8>(lv, ty),
                    n => unreachable!("no {n}-byte scalar"),
                }
            }
        }
    }

    #[test]
    fn force_scalar_gates_level() {
        let was = force_scalar();
        set_force_scalar(true);
        assert_eq!(level(), SimdLevel::Scalar);
        set_force_scalar(false);
        assert_ne!(level(), SimdLevel::Scalar);
        set_force_scalar(was);
    }

    #[test]
    fn trunc_add_matches_width() {
        assert_eq!(trunc_add::<1>(0xFF, 1), 0);
        assert_eq!(trunc_add::<2>(0xFFFF, 2), 1);
        assert_eq!(trunc_add::<4>(u32::MAX as u64, 3), 2);
        assert_eq!(trunc_add::<8>(u64::MAX, 4), 3);
    }
}
