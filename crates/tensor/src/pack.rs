//! Panel packing and register microkernels for the packed GEMM engine.
//!
//! The BLIS decomposition: the blocked loop nest in [`crate::gemm`] cuts
//! `C = op(A) * op(B)` into `MC x KC` panels of `op(A)` and `KC x NC`
//! panels of `op(B)`, and *packs* each panel into a contiguous scratch
//! buffer before any arithmetic touches it. Packing pays one streamed
//! copy to buy three things at once:
//!
//! * every transpose combination is normalized away — the microkernel
//!   sees one canonical layout regardless of `ta`/`tb`, so there is one
//!   hot loop instead of four;
//! * the microkernel's loads are unit-stride and 64-byte-dense: an
//!   `MR`-row slab of A and an `NR`-column slab of B are interleaved by
//!   `k`-step, so each k-iteration reads exactly `MR + NR` contiguous
//!   doubles;
//! * edge tiles are zero-padded to full `MR x NR` shape inside the pack
//!   buffer, so the microkernel has no bounds logic at all — only the
//!   final writeback clips to the valid sub-tile.
//!
//! One packing geometry, `MR x NR = 16 x 12`, serves every CPU tier. The
//! tier is picked once by runtime feature detection (the workspace is
//! compiled for baseline x86-64) and cached in an atomic:
//!
//! * **AVX-512F** — the 16x12 tile lives in 24 `zmm` accumulators; each
//!   k-step is two A loads and 12 broadcasts feeding 24 FMAs. The two
//!   k-contiguous packs (`op(A) = A^T` and `B` stored `k x n`, the
//!   layouts every TCE call uses) run as 8x8 in-register transposes with
//!   masked loads and stores for the k and edge remainders.
//! * **AVX2+FMA** — the same tile computed as 2x2 sub-tiles of 8x6, each
//!   in 12 `ymm` accumulators; scalar packs.
//! * **generic** — scalar kernel and packs: the fallback and the oracle.
//!
//! On an edge tile the SIMD tiers skip the row and column halves that
//! lie wholly in the zero padding (a narrower instance of the AVX-512
//! kernel, fewer AVX2 sub-tiles), so small products such as the
//! service's 3-wide tiles do not pay for the larger geometry.
//!
//! Every tier sums each tile element by sequential multiply-adds over k
//! in the same order; the two SIMD tiers fuse them with FMA and so agree
//! bit for bit, while the generic kernel rounds each product and agrees
//! to about one rounding step per k-iteration.

use crate::gemm::Trans;

/// Microkernel tile height (rows of C per register block).
pub const MR: usize = 16;
/// Microkernel tile width (columns of C per register block).
pub const NR: usize = 12;

/// Cache-blocking parameters of the packed GEMM loop nest. All three are
/// free (the kernels are correct for any values >= 1); the defaults size
/// the packed A panel for L2 and the B micropanel for L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmParams {
    /// Rows of `op(A)` per packed panel (L2 blocking).
    pub mc: usize,
    /// Depth of one packed panel pair (L1/L2 blocking).
    pub kc: usize,
    /// Columns of `op(B)` per packed panel (L3/DRAM blocking).
    pub nc: usize,
}

impl Default for GemmParams {
    fn default() -> Self {
        // A panel: 128 x 256 doubles = 256 KiB (fits a 1 MiB L2 with
        // room for the B stream); B micropanel: 12 x 256 = 24 KiB (L1).
        Self {
            mc: 128,
            kc: 256,
            nc: 2048,
        }
    }
}

impl GemmParams {
    /// Validate the parameters (all blocks nonzero).
    pub fn assert_valid(&self) {
        assert!(
            self.mc >= 1 && self.kc >= 1 && self.nc >= 1,
            "GEMM block sizes must be >= 1: {self:?}"
        );
    }

    /// Length of the packed-A scratch buffer for an `m x k` operand
    /// (largest `MC x KC` block, rows rounded up to full micropanels).
    pub fn packed_a_len(&self, m: usize, k: usize) -> usize {
        let mc = self.mc.min(m.max(1));
        let kc = self.kc.min(k.max(1));
        mc.div_ceil(MR) * MR * kc
    }

    /// Length of the packed-B scratch buffer for a `k x n` operand
    /// (largest `KC x NC` block, columns rounded up to full micropanels).
    pub fn packed_b_len(&self, n: usize, k: usize) -> usize {
        let nc = self.nc.min(n.max(1));
        let kc = self.kc.min(k.max(1));
        nc.div_ceil(NR) * NR * kc
    }
}

/// The SIMD tier the packed engine runs on; ordered by capability, so a
/// CPU supports every tier `<= tier()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Scalar microkernel and packs.
    Generic,
    /// AVX2+FMA microkernel (2x2 sub-tiles of 8x6), scalar packs.
    Avx2,
    /// AVX-512F microkernel and transposing packs.
    Avx512,
}

impl Tier {
    /// Short lowercase name, as recorded in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Generic => "generic",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }
}

/// The best tier this CPU supports: detected on first use, then cached.
pub fn tier() -> Tier {
    use std::sync::atomic::{AtomicU8, Ordering};
    // 0 = not yet detected; otherwise 1 + the tier's position.
    static STATE: AtomicU8 = AtomicU8::new(0);
    const TIERS: [Tier; 3] = [Tier::Generic, Tier::Avx2, Tier::Avx512];
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let t = detect();
            STATE.store(t as u8 + 1, Ordering::Relaxed);
            t
        }
        s => TIERS[s as usize - 1],
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Tier {
    // Both SIMD tiers use the 256-bit helpers in `vecops`, so AVX-512
    // counts only on top of AVX2+FMA.
    if !(std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma"))
    {
        Tier::Generic
    } else if std::arch::is_x86_feature_detected!("avx512f") {
        Tier::Avx512
    } else {
        Tier::Avx2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Tier {
    Tier::Generic
}

/// `true` when a SIMD tier is usable on this machine (every SIMD tier
/// includes AVX2+FMA).
pub fn simd_available() -> bool {
    tier() != Tier::Generic
}

/// Pack the `mc x kc` block of `op(A)` starting at `(ic, pc)` into
/// micropanels: panel `ir` holds rows `ir*MR .. ir*MR+MR` of the block,
/// stored k-major (`ap[panel + l*MR + i]`), rows past `mc` zero-padded.
///
/// `op(A)` is `m x k`; storage is `m x k` column-major for `Trans::N`
/// and `k x m` column-major for `Trans::T`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a(
    ta: Trans,
    a: &[f64],
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    ap: &mut [f64],
) {
    pack_a_on(tier(), ta, a, m, k, ic, mc, pc, kc, ap);
}

/// [`pack_a`] on an explicit tier `t` (checked against this CPU).
#[allow(clippy::too_many_arguments)]
fn pack_a_on(
    t: Tier,
    ta: Trans,
    a: &[f64],
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    ap: &mut [f64],
) {
    assert!(
        a.len() == m * k && ic + mc <= m && pc + kc <= k,
        "pack_a block out of range"
    );
    let panels = mc.div_ceil(MR);
    assert!(ap.len() >= panels * MR * kc, "packed-A scratch too short");
    for ir in 0..panels {
        let row0 = ic + ir * MR;
        let rows = MR.min(ic + mc - row0);
        let panel = &mut ap[ir * MR * kc..(ir + 1) * MR * kc];
        match ta {
            // A stored m x k: column pc+l holds the panel's rows
            // contiguously.
            Trans::N => copy_panel(a, row0 + pc * m, m, rows, kc, MR, panel),
            // A stored k x m: row i of op(A) is the contiguous column i
            // of the storage.
            Trans::T => transpose_panel(t, a, row0 * k + pc, k, rows, kc, MR, panel),
        }
    }
}

/// Pack the `kc x nc` block of `op(B)` starting at `(pc, jc)` into
/// micropanels: panel `jr` holds columns `jr*NR .. jr*NR+NR` of the
/// block, stored k-major (`bp[panel + l*NR + j]`), columns past `nc`
/// zero-padded.
///
/// `op(B)` is `k x n`; storage is `k x n` column-major for `Trans::N`
/// and `n x k` column-major for `Trans::T`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b(
    tb: Trans,
    b: &[f64],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bp: &mut [f64],
) {
    pack_b_on(tier(), tb, b, k, n, pc, kc, jc, nc, bp);
}

/// [`pack_b`] on an explicit tier `t` (checked against this CPU).
#[allow(clippy::too_many_arguments)]
fn pack_b_on(
    t: Tier,
    tb: Trans,
    b: &[f64],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bp: &mut [f64],
) {
    assert!(
        b.len() == k * n && pc + kc <= k && jc + nc <= n,
        "pack_b block out of range"
    );
    let panels = nc.div_ceil(NR);
    assert!(bp.len() >= panels * NR * kc, "packed-B scratch too short");
    for jr in 0..panels {
        let col0 = jc + jr * NR;
        let cols = NR.min(jc + nc - col0);
        let panel = &mut bp[jr * NR * kc..(jr + 1) * NR * kc];
        match tb {
            // B stored k x n: column col0+j is contiguous along k.
            Trans::N => transpose_panel(t, b, col0 * k + pc, k, cols, kc, NR, panel),
            // B stored n x k: row pc+l of op(B) holds the panel's
            // columns contiguously.
            Trans::T => copy_panel(b, col0 + pc * n, n, cols, kc, NR, panel),
        }
    }
}

/// Pack one `w`-wide micropanel whose source is contiguous across the
/// panel: element `(r, l)` (panel row `r`, k-step `l`) is
/// `src[base + l*ld + r]`. Rows `live..w` are zero-filled.
fn copy_panel(
    src: &[f64],
    base: usize,
    ld: usize,
    live: usize,
    kc: usize,
    w: usize,
    dst: &mut [f64],
) {
    for (l, chunk) in dst[..kc * w].chunks_exact_mut(w).enumerate() {
        let s = base + l * ld;
        chunk[..live].copy_from_slice(&src[s..s + live]);
        chunk[live..].fill(0.0);
    }
}

/// Pack one `w`-wide micropanel whose source is contiguous along k:
/// element `(r, l)` is `src[base + r*ld + l]`, so the pack is a
/// transpose. Rows `live..w` are zero-filled. The AVX-512 tier runs it
/// as 8x8 register transposes; every other tier streams it with a
/// write stride of `w`.
#[allow(clippy::too_many_arguments)]
fn transpose_panel(
    t: Tier,
    src: &[f64],
    base: usize,
    ld: usize,
    live: usize,
    kc: usize,
    w: usize,
    dst: &mut [f64],
) {
    assert!(t <= tier(), "{t:?} is not supported by this CPU");
    assert!(live <= w && dst.len() >= w * kc, "panel shape out of range");
    // Rows are `ld` apart, so the last live row bounds all of them.
    assert!(
        live == 0 || base + (live - 1) * ld + kc <= src.len(),
        "panel source out of range"
    );
    match t {
        // SAFETY: `t <= tier()` was asserted, so AVX-512F is present; the
        // two asserts after it are the bounds the SIMD pack requires.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { transpose_panel_avx512(src, base, ld, live, kc, w, dst) },
        _ => {
            for r in 0..live {
                let row = &src[base + r * ld..base + r * ld + kc];
                for (l, &v) in row.iter().enumerate() {
                    dst[l * w + r] = v;
                }
            }
            for r in live..w {
                for l in 0..kc {
                    dst[l * w + r] = 0.0;
                }
            }
        }
    }
}

/// AVX-512F transposing pack: each 8-row band of the panel is walked in
/// 8-step chunks of k — eight row loads (masked to the k remainder;
/// rows past `live` are zero vectors), one in-register 8x8 transpose,
/// and one store per k-step (masked to the band's width, so a 12-wide
/// panel is an 8-lane and a 4-lane band).
///
/// # Safety
/// The CPU must support AVX-512F, `live <= w`, `dst.len() >= w * kc`,
/// and `base + (live - 1) * ld + kc <= src.len()` when `live > 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_panel_avx512(
    src: &[f64],
    base: usize,
    ld: usize,
    live: usize,
    kc: usize,
    w: usize,
    dst: &mut [f64],
) {
    use core::arch::x86_64::*;
    let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
    for r0 in (0..w).step_by(8) {
        let store_mask = lane_mask((w - r0).min(8));
        let rows = live.saturating_sub(r0).min(8);
        if rows == 0 {
            // A band wholly in the zero padding: nothing to transpose.
            for l in 0..kc {
                _mm512_mask_storeu_pd(d.add(l * w + r0), store_mask, _mm512_setzero_pd());
            }
            continue;
        }
        for l0 in (0..kc).step_by(8) {
            let steps = (kc - l0).min(8);
            let load_mask = lane_mask(steps);
            let mut v = [_mm512_setzero_pd(); 8];
            for (r, vr) in v.iter_mut().enumerate().take(rows) {
                *vr = _mm512_maskz_loadu_pd(load_mask, s.add(base + (r0 + r) * ld + l0));
            }
            for (l, vl) in transpose8x8(v).iter().enumerate().take(steps) {
                _mm512_mask_storeu_pd(d.add((l0 + l) * w + r0), store_mask, *vl);
            }
        }
    }
}

/// Mask selecting the low `n <= 8` lanes of an 8-lane vector.
#[cfg(target_arch = "x86_64")]
fn lane_mask(n: usize) -> u8 {
    (0xffu16 >> (8 - n)) as u8
}

/// Transpose an 8x8 block held as eight row vectors: output vector `c`
/// is column `c` of the input. Three stages — pair interleave, then two
/// 128-bit-lane gathers of even and odd lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn transpose8x8(r: [core::arch::x86_64::__m512d; 8]) -> [core::arch::x86_64::__m512d; 8] {
    use core::arch::x86_64::*;
    // 128-bit lanes (0, 2) of a then b, and lanes (1, 3) of a then b.
    const EVEN: i32 = 0b10_00_10_00;
    const ODD: i32 = 0b11_01_11_01;
    // t[2p] holds columns 0,2,4,6 of rows 2p and 2p+1 as pairs; t[2p+1]
    // columns 1,3,5,7.
    let t0 = _mm512_unpacklo_pd(r[0], r[1]);
    let t1 = _mm512_unpackhi_pd(r[0], r[1]);
    let t2 = _mm512_unpacklo_pd(r[2], r[3]);
    let t3 = _mm512_unpackhi_pd(r[2], r[3]);
    let t4 = _mm512_unpacklo_pd(r[4], r[5]);
    let t5 = _mm512_unpackhi_pd(r[4], r[5]);
    let t6 = _mm512_unpacklo_pd(r[6], r[7]);
    let t7 = _mm512_unpackhi_pd(r[6], r[7]);
    // u holds two columns of four rows each: u0 columns 0,4 / u1 2,6 /
    // u2 1,5 / u3 3,7 of rows 0-3, u4..u7 the same of rows 4-7.
    let u0 = _mm512_shuffle_f64x2::<EVEN>(t0, t2);
    let u1 = _mm512_shuffle_f64x2::<ODD>(t0, t2);
    let u2 = _mm512_shuffle_f64x2::<EVEN>(t1, t3);
    let u3 = _mm512_shuffle_f64x2::<ODD>(t1, t3);
    let u4 = _mm512_shuffle_f64x2::<EVEN>(t4, t6);
    let u5 = _mm512_shuffle_f64x2::<ODD>(t4, t6);
    let u6 = _mm512_shuffle_f64x2::<EVEN>(t5, t7);
    let u7 = _mm512_shuffle_f64x2::<ODD>(t5, t7);
    [
        _mm512_shuffle_f64x2::<EVEN>(u0, u4),
        _mm512_shuffle_f64x2::<EVEN>(u2, u6),
        _mm512_shuffle_f64x2::<EVEN>(u1, u5),
        _mm512_shuffle_f64x2::<EVEN>(u3, u7),
        _mm512_shuffle_f64x2::<ODD>(u0, u4),
        _mm512_shuffle_f64x2::<ODD>(u2, u6),
        _mm512_shuffle_f64x2::<ODD>(u1, u5),
        _mm512_shuffle_f64x2::<ODD>(u3, u7),
    ]
}

/// Compute one `MR x NR` register tile: `acc = Ap_panel * Bp_panel` over
/// depth `kc`, written to `out` column-major (`out[i + j*MR]`). Only the
/// top-left `rows x cols` block of `out` is defined on return: the SIMD
/// tiers skip the halves of an edge tile that lie wholly in the zero
/// padding. The caller owns `alpha` scaling and the clipped accumulation
/// into C.
#[inline]
pub(crate) fn microkernel(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    rows: usize,
    cols: usize,
    out: &mut [f64; MR * NR],
) {
    microkernel_on(tier(), kc, ap, bp, rows, cols, out);
}

/// [`microkernel`] on an explicit tier `t` (checked against this CPU).
#[inline]
fn microkernel_on(
    t: Tier,
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    rows: usize,
    cols: usize,
    out: &mut [f64; MR * NR],
) {
    assert!(t <= tier(), "{t:?} is not supported by this CPU");
    assert!(
        ap.len() >= kc * MR && bp.len() >= kc * NR,
        "micropanel shorter than kc"
    );
    match t {
        Tier::Generic => microkernel_generic(kc, ap, bp, out),
        // SAFETY: `t <= tier()` guarantees the features; the slice
        // lengths were asserted above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { microkernel_avx2(kc, ap, bp, rows, cols, out) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe {
            const H: usize = NR / 2;
            match (rows > MR / 2, cols > H) {
                (true, true) => microkernel_avx512::<2, NR>(kc, ap, bp, out),
                (false, true) => microkernel_avx512::<1, NR>(kc, ap, bp, out),
                (true, false) => microkernel_avx512::<2, H>(kc, ap, bp, out),
                (false, false) => microkernel_avx512::<1, H>(kc, ap, bp, out),
            }
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("SIMD tier on a non-x86-64 target"),
    }
}

/// Portable microkernel: NR independent MR-wide accumulator rows, each
/// k-step one broadcast multiply-add per row. Same per-lane summation
/// *order* as the SIMD tiers; FMA skips the intermediate product
/// rounding, so they agree to within one rounding step per k-iteration
/// (not bitwise).
fn microkernel_generic(kc: usize, ap: &[f64], bp: &[f64], out: &mut [f64; MR * NR]) {
    let mut acc = [[0.0f64; MR]; NR];
    for l in 0..kc {
        let a = &ap[l * MR..l * MR + MR];
        let b = &bp[l * NR..l * NR + NR];
        for (accj, &bj) in acc.iter_mut().zip(b) {
            for (accij, &ai) in accj.iter_mut().zip(a) {
                *accij += ai * bj;
            }
        }
    }
    for (j, accj) in acc.iter().enumerate() {
        out[j * MR..j * MR + MR].copy_from_slice(accj);
    }
}

/// AVX2+FMA microkernel: the 16x12 tile as 2x2 sub-tiles of 8x6, each a
/// full pass over k in 12 `ymm` accumulators (two 4-lane vectors per
/// column), two A loads and one B broadcast per FMA pair. Sub-tiles
/// outside the live `rows x cols` block are skipped.
///
/// # Safety
/// The CPU must support AVX2 and FMA, and `ap.len() >= kc * MR`,
/// `bp.len() >= kc * NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    rows: usize,
    cols: usize,
    out: &mut [f64; MR * NR],
) {
    for c0 in (0..cols.min(NR)).step_by(NR / 2) {
        for r0 in (0..rows.min(MR)).step_by(MR / 2) {
            microkernel_avx2_8x6(
                kc,
                ap.as_ptr().wrapping_add(r0),
                bp.as_ptr().wrapping_add(c0),
                out.as_mut_ptr().add(r0 + c0 * MR),
            );
        }
    }
}

/// One 8x6 sub-tile of [`microkernel_avx2`]: rows from `pa`, columns
/// from `pb` (both advancing by a full `MR`/`NR` packed k-step), written
/// with column stride `MR` at `out`.
///
/// # Safety
/// As [`microkernel_avx2`], with `pa`/`pb` inside the packed panels so
/// that every k-step's 8 rows and 6 columns are in bounds.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2_8x6(kc: usize, mut pa: *const f64, mut pb: *const f64, out: *mut f64) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_pd(); 2]; NR / 2];
    for _ in 0..kc {
        let a0 = _mm256_loadu_pd(pa);
        let a1 = _mm256_loadu_pd(pa.add(4));
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = _mm256_broadcast_sd(&*pb.add(j));
            accj[0] = _mm256_fmadd_pd(a0, bj, accj[0]);
            accj[1] = _mm256_fmadd_pd(a1, bj, accj[1]);
        }
        // The sub-tile offset can carry the final step past the end of
        // the panel: never dereferenced, so wrap instead of `add`.
        pa = pa.wrapping_add(MR);
        pb = pb.wrapping_add(NR);
    }
    for (j, accj) in acc.iter().enumerate() {
        _mm256_storeu_pd(out.add(j * MR), accj[0]);
        _mm256_storeu_pd(out.add(j * MR + 4), accj[1]);
    }
}

/// AVX-512F microkernel: up to 24 `zmm` accumulators (two 8-lane vectors
/// per column of the 16x12 tile); each k-step is two A loads and 12 B
/// broadcasts feeding 24 FMAs, leaving the load ports room to spare.
/// Edge tiles run a narrower instance: `AV` A vectors (8 rows each) by
/// the first `COLS` columns, leaving the rest of `out` untouched.
///
/// # Safety
/// The CPU must support AVX-512F, and `ap.len() >= kc * MR`,
/// `bp.len() >= kc * NR`; `AV <= 2` and `COLS <= NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512<const AV: usize, const COLS: usize>(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    out: &mut [f64; MR * NR],
) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_pd(); AV]; COLS];
    let mut pa = ap.as_ptr();
    let mut pb = bp.as_ptr();
    for _ in 0..kc {
        let mut a = [_mm512_setzero_pd(); AV];
        for (v, av) in a.iter_mut().enumerate() {
            *av = _mm512_loadu_pd(pa.add(8 * v));
        }
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = _mm512_set1_pd(*pb.add(j));
            for (accv, &av) in accj.iter_mut().zip(&a) {
                *accv = _mm512_fmadd_pd(av, bj, *accv);
            }
        }
        pa = pa.add(MR);
        pb = pb.add(NR);
    }
    for (j, accj) in acc.iter().enumerate() {
        for (v, accv) in accj.iter().enumerate() {
            _mm512_storeu_pd(out.as_mut_ptr().add(j * MR + 8 * v), *accv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every tier this CPU supports, lowest first.
    fn tiers() -> Vec<Tier> {
        [Tier::Generic, Tier::Avx2, Tier::Avx512]
            .into_iter()
            .filter(|&t| t <= tier())
            .collect()
    }

    fn wave(len: usize, f: f64) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * f).sin()).collect()
    }

    #[test]
    fn pack_a_normalizes_transposes() {
        // op(A) = [[1,3],[2,4]] (2x2) from both storages packs identically.
        let m = 2;
        let k = 2;
        let a_n = vec![1.0, 2.0, 3.0, 4.0]; // m x k column-major
        let a_t = vec![1.0, 3.0, 2.0, 4.0]; // k x m column-major
        let mut p1 = vec![-1.0; MR * k];
        let mut p2 = vec![-1.0; MR * k];
        pack_a(Trans::N, &a_n, m, k, 0, m, 0, k, &mut p1);
        pack_a(Trans::T, &a_t, m, k, 0, m, 0, k, &mut p2);
        assert_eq!(p1, p2);
        // k-major layout: [A00, A10, 0.., A01, A11, 0..].
        assert_eq!(&p1[..2], &[1.0, 2.0]);
        assert_eq!(&p1[MR..MR + 2], &[3.0, 4.0]);
        assert!(p1[2..MR].iter().all(|&x| x == 0.0), "zero padding");
    }

    #[test]
    fn pack_b_normalizes_transposes() {
        // op(B) = [[5,7],[6,8]] (2x2) from both storages packs identically.
        let k = 2;
        let n = 2;
        let b_n = vec![5.0, 6.0, 7.0, 8.0]; // k x n column-major
        let b_t = vec![5.0, 7.0, 6.0, 8.0]; // n x k column-major
        let mut p1 = vec![-1.0; NR * k];
        let mut p2 = vec![-1.0; NR * k];
        pack_b(Trans::N, &b_n, k, n, 0, k, 0, n, &mut p1);
        pack_b(Trans::T, &b_t, k, n, 0, k, 0, n, &mut p2);
        assert_eq!(p1, p2);
        // k-major layout: [B00, B01, 0.., B10, B11, 0..].
        assert_eq!(&p1[..2], &[5.0, 7.0]);
        assert_eq!(&p1[NR..NR + 2], &[6.0, 8.0]);
    }

    #[test]
    fn simd_packs_equal_scalar_packs_bitwise() {
        // The transposing packs (A^T and B stored k x n) on every tier
        // against the generic pack: partial panels, k remainders that are
        // not multiples of 8, and nonzero block offsets. Scratch starts
        // as NaN so a missed store shows.
        let (m, n, k) = (3 * MR + 5, 3 * NR + 7, 29);
        let a = wave(m * k, 0.37);
        let b = wave(k * n, 0.73);
        for t in tiers() {
            for &(ic, mc) in &[(0, m), (0, 1), (5, MR - 3), (7, 2 * MR + 1), (MR, MR)] {
                for &(pc, kc) in &[(0, k), (0, 1), (3, 8), (9, 17), (2, 7)] {
                    let len = mc.div_ceil(MR) * MR * kc;
                    let (mut want, mut got) = (vec![f64::NAN; len], vec![f64::NAN; len]);
                    pack_a_on(Tier::Generic, Trans::T, &a, m, k, ic, mc, pc, kc, &mut want);
                    pack_a_on(t, Trans::T, &a, m, k, ic, mc, pc, kc, &mut got);
                    assert_eq!(
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "pack_a {t:?} ic={ic} mc={mc} pc={pc} kc={kc}"
                    );
                }
            }
            for &(jc, nc) in &[(0, n), (0, 1), (5, NR - 3), (7, 2 * NR + 1), (NR, NR)] {
                for &(pc, kc) in &[(0, k), (0, 1), (3, 8), (9, 17), (2, 7)] {
                    let len = nc.div_ceil(NR) * NR * kc;
                    let (mut want, mut got) = (vec![f64::NAN; len], vec![f64::NAN; len]);
                    pack_b_on(Tier::Generic, Trans::N, &b, k, n, pc, kc, jc, nc, &mut want);
                    pack_b_on(t, Trans::N, &b, k, n, pc, kc, jc, nc, &mut got);
                    assert_eq!(
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "pack_b {t:?} jc={jc} nc={nc} pc={pc} kc={kc}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_tier_matches_generic_kernel() {
        for kc in [1, 7, 8, 9, 100] {
            let ap = wave(kc * MR, 0.37);
            let bp: Vec<f64> = (0..kc * NR).map(|i| (i as f64 * 0.73).cos()).collect();
            let mut want = [0.0; MR * NR];
            microkernel_generic(kc, &ap, &bp, &mut want);
            // Spot-check the oracle itself against a plain dot product.
            for j in 0..NR {
                for i in 0..MR {
                    let dot: f64 = (0..kc).map(|l| ap[l * MR + i] * bp[l * NR + j]).sum();
                    assert!((want[i + j * MR] - dot).abs() < 1e-13, "({i},{j})");
                }
            }
            // Full tiles, and edge tiles whose live block leaves some
            // halves wholly in the padding (the SIMD tiers skip those).
            for (rows, cols) in [(MR, NR), (MR, 1), (1, NR), (8, 6), (9, 7), (3, 12)] {
                let live = |o: &[f64; MR * NR]| -> Vec<u64> {
                    (0..cols)
                        .flat_map(|j| (0..rows).map(move |i| i + j * MR))
                        .map(|e| o[e].to_bits())
                        .collect()
                };
                let mut simd: Option<Vec<u64>> = None;
                for t in tiers() {
                    let mut got = [f64::NAN; MR * NR];
                    microkernel_on(t, kc, &ap, &bp, rows, cols, &mut got);
                    // Same summation order; FMA only removes the
                    // intermediate product rounding, so agreement is to
                    // ~1 ulp per k-step.
                    for (x, y) in live(&got).into_iter().zip(live(&want)) {
                        let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                        assert!(
                            (x - y).abs() <= 1e-13 * y.abs().max(1.0),
                            "{t:?} kc={kc} {rows}x{cols}: {x} vs {y}"
                        );
                    }
                    // The SIMD tiers fuse the same operations: bitwise
                    // equal on the live block.
                    if t != Tier::Generic {
                        if let Some(prev) = &simd {
                            assert_eq!(
                                prev,
                                &live(&got),
                                "{t:?} differs bitwise from the lower SIMD tier at kc={kc} {rows}x{cols}"
                            );
                        }
                        simd = Some(live(&got));
                    }
                }
            }
        }
    }

    #[test]
    fn dispatch_runs_the_detected_tier() {
        let kc = 13;
        let ap: Vec<f64> = (0..kc * MR).map(|i| (i as f64).sqrt()).collect();
        let bp: Vec<f64> = (0..kc * NR).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut o1 = [0.0; MR * NR];
        let mut o2 = [0.0; MR * NR];
        microkernel(kc, &ap, &bp, MR, NR, &mut o1);
        microkernel_on(tier(), kc, &ap, &bp, MR, NR, &mut o2);
        assert_eq!(o1, o2);
        assert_eq!(simd_available(), tier() != Tier::Generic);
    }

    #[test]
    #[should_panic(expected = "micropanel shorter than kc")]
    fn short_micropanel_panics() {
        let ap = vec![0.0; 3 * MR];
        let bp = vec![0.0; 4 * NR];
        microkernel(4, &ap, &bp, MR, NR, &mut [0.0; MR * NR]);
    }

    #[test]
    #[should_panic(expected = "packed-B scratch too short")]
    fn short_pack_scratch_panics() {
        let b = vec![1.0; 4 * 5];
        pack_b(Trans::N, &b, 4, 5, 0, 4, 0, 5, &mut vec![0.0; NR * 4 - 1]);
    }

    #[test]
    fn scratch_lens_cover_edges() {
        // mc and nc each straddle one micropanel edge.
        let p = GemmParams {
            mc: MR + 2,
            kc: 7,
            nc: NR + 5,
        };
        // m smaller than mc: rounded up to one micropanel of MR rows.
        assert_eq!(p.packed_a_len(3, 20), MR * 7);
        // m larger: mc = MR + 2 needs 2 micropanels.
        assert_eq!(p.packed_a_len(64, 5), 2 * MR * 5);
        assert_eq!(p.packed_b_len(4, 20), NR * 7);
        assert_eq!(p.packed_b_len(64, 3), 2 * NR * 3);
        // Degenerate dims never produce zero-length scratch for nonzero work.
        assert!(p.packed_a_len(1, 1) >= MR);
    }
}
