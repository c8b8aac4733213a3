//! Column-major `DGEMM`: `C = alpha * op(A) * op(B) + beta * C`.
//!
//! Two engines, one entry point:
//!
//! * [`dgemm_blocked`] — the direct kernels: the TCE-generated chains
//!   call `dgemm('T', 'N', ...)` (Figure 1's task body), so the `T x N`
//!   case gets a 4x4 register-blocked microkernel ([`tn_block_4x4`]);
//!   the other combinations get layout-friendly loop orderings. No
//!   packing, no cache blocking: fast for tiles that fit in L1/L2.
//! * [`dgemm_packed`] — the BLIS-style engine: panels of `op(A)` and
//!   `op(B)` are packed into contiguous scratch ([`crate::pack`]),
//!   normalizing all four transpose combinations, and a 16x12
//!   register microkernel (AVX-512F or AVX2+FMA, whichever the CPU has;
//!   see [`crate::pack`] for the tiers) runs a `MC/KC/NC`-blocked loop
//!   nest over them. Wins once the operands outgrow cache or the wide
//!   units are worth unlocking.
//!
//! [`dgemm`] dispatches between them by problem volume; both are exact
//! against [`dgemm_naive`] in the property tests.

use crate::cm;
use crate::pack::{self, microkernel, GemmParams, MR, NR};
use crate::sort4::{is_perm, out_steps, sort_4, Perm4};

/// Transposition flag for one GEMM operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    N,
    /// Use the transpose of the stored operand.
    T,
}

impl Trans {
    /// Parse a Fortran character flag (`'N'`/`'T'`, case-insensitive).
    pub fn from_char(c: char) -> Option<Self> {
        match c.to_ascii_uppercase() {
            'N' => Some(Trans::N),
            'T' => Some(Trans::T),
            _ => None,
        }
    }
}

/// `C(m x n) = alpha * op(A) * op(B) + beta * C`.
///
/// * `op(A)` is `m x k`: `A` is stored `m x k` when `ta == N`, `k x m`
///   when `ta == T`;
/// * `op(B)` is `k x n`: `B` is stored `k x n` when `tb == N`, `n x k`
///   when `tb == T`.
///
/// All matrices are dense column-major with no leading-dimension padding.
/// Panics if slice lengths do not match the shapes.
///
/// Dispatches to the packed cache-blocked engine ([`dgemm_packed`]) when
/// the problem is large enough to amortize packing and the SIMD
/// microkernel is available, and to the direct kernels
/// ([`dgemm_blocked`]) otherwise.
#[allow(clippy::too_many_arguments)]
pub fn dgemm(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    if packed_profitable(m, n, k) {
        dgemm_packed(ta, tb, m, n, k, alpha, a, b, beta, c);
    } else {
        dgemm_blocked(ta, tb, m, n, k, alpha, a, b, beta, c);
    }
}

/// Volume threshold above which the packed engine is dispatched: below
/// this the tile fits comfortably in cache and packing is pure overhead.
const PACKED_MIN_VOLUME: usize = 16 * 1024;

/// `true` when [`dgemm`] would route an `m x n x k` product through the
/// packed engine. Exposed so callers that manage their own packing
/// scratch (the pooled chain executor) take the same branch.
pub fn packed_profitable(m: usize, n: usize, k: usize) -> bool {
    m * n * k >= PACKED_MIN_VOLUME && pack::simd_available()
}

/// The direct (non-packing) kernels; see the module docs.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_blocked(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "A has wrong size");
    assert_eq!(b.len(), k * n, "B has wrong size");
    assert_eq!(c.len(), m * n, "C has wrong size");

    if beta != 1.0 {
        if beta == 0.0 {
            c.fill(0.0);
        } else {
            for x in c.iter_mut() {
                *x *= beta;
            }
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }

    match (ta, tb) {
        // Hot path: C[i,j] += alpha * sum_l A[l,i] * B[l,j].
        // Columns of A and B are contiguous: 4x4 register-blocked dot
        // products in the interior, scalar dots on the edges.
        (Trans::T, Trans::N) => {
            let (mb, nb) = (m - m % 4, n - n % 4);
            for j in (0..nb).step_by(4) {
                for i in (0..mb).step_by(4) {
                    tn_block_4x4(k, alpha, a, b, c, i, j, m);
                }
            }
            // Edges: rows mb..m under the blocked columns, then columns
            // nb..n in full.
            for j in 0..n {
                let bj = &b[j * k..(j + 1) * k];
                let i_start = if j < nb { mb } else { 0 };
                for i in i_start..m {
                    let ai = &a[i * k..(i + 1) * k];
                    let mut acc = 0.0;
                    for l in 0..k {
                        acc += ai[l] * bj[l];
                    }
                    c[cm(i, j, m)] += alpha * acc;
                }
            }
        }
        // C[i,j] += alpha * sum_l A[i,l] * B[l,j]; iterate l outer so the
        // A column and C column are streamed contiguously.
        (Trans::N, Trans::N) => {
            for j in 0..n {
                let cj = &mut c[j * m..(j + 1) * m];
                for l in 0..k {
                    let blj = alpha * b[cm(l, j, k)];
                    if blj == 0.0 {
                        continue;
                    }
                    let al = &a[l * m..(l + 1) * m];
                    for i in 0..m {
                        cj[i] += al[i] * blj;
                    }
                }
            }
        }
        // C[i,j] += alpha * sum_l A[i,l] * B[j,l].
        (Trans::N, Trans::T) => {
            for l in 0..k {
                let al = &a[l * m..(l + 1) * m];
                for j in 0..n {
                    let bjl = alpha * b[cm(j, l, n)];
                    if bjl == 0.0 {
                        continue;
                    }
                    let cj = &mut c[j * m..(j + 1) * m];
                    for i in 0..m {
                        cj[i] += al[i] * bjl;
                    }
                }
            }
        }
        // C[i,j] += alpha * sum_l A[l,i] * B[j,l].
        (Trans::T, Trans::T) => {
            for j in 0..n {
                for i in 0..m {
                    let ai = &a[i * k..(i + 1) * k];
                    let mut acc = 0.0;
                    for l in 0..k {
                        acc += ai[l] * b[cm(j, l, n)];
                    }
                    c[cm(i, j, m)] += alpha * acc;
                }
            }
        }
    }
}

/// `T x N` microkernel: `C[i..i+4, j..j+4] += alpha * A[:, i..i+4]^T *
/// B[:, j..j+4]` with sixteen register accumulators and the k-loop
/// unrolled by four.
///
/// A plain dot product is one serial floating-point add chain — every
/// `acc +=` waits on the previous one, so the FPU runs at the add
/// *latency* instead of its throughput. Sixteen independent accumulators
/// give the out-of-order core sixteen chains to overlap, and each loaded
/// `A`/`B` element is reused four times (2 flops per load instead of
/// one flop per load). Column-major friendly: all eight streamed columns
/// are contiguous.
#[allow(clippy::too_many_arguments)]
#[inline]
fn tn_block_4x4(
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    i: usize,
    j: usize,
    m: usize,
) {
    let a0 = &a[i * k..(i + 1) * k];
    let a1 = &a[(i + 1) * k..(i + 2) * k];
    let a2 = &a[(i + 2) * k..(i + 3) * k];
    let a3 = &a[(i + 3) * k..(i + 4) * k];
    let b0 = &b[j * k..(j + 1) * k];
    let b1 = &b[(j + 1) * k..(j + 2) * k];
    let b2 = &b[(j + 2) * k..(j + 3) * k];
    let b3 = &b[(j + 3) * k..(j + 4) * k];

    // acc[jj][ii] accumulates C[i+ii, j+jj].
    let mut acc = [[0.0f64; 4]; 4];
    macro_rules! step {
        ($l:expr) => {{
            let l = $l;
            let av = [a0[l], a1[l], a2[l], a3[l]];
            let bv = [b0[l], b1[l], b2[l], b3[l]];
            for (accj, &bj) in acc.iter_mut().zip(&bv) {
                for (accij, &ai) in accj.iter_mut().zip(&av) {
                    *accij += ai * bj;
                }
            }
        }};
    }
    let ku = k - k % 4;
    for l in (0..ku).step_by(4) {
        step!(l);
        step!(l + 1);
        step!(l + 2);
        step!(l + 3);
    }
    for l in ku..k {
        step!(l);
    }

    for (jj, accj) in acc.iter().enumerate() {
        for (ii, &accij) in accj.iter().enumerate() {
            c[cm(i + ii, j + jj, m)] += alpha * accij;
        }
    }
}

/// Packed cache-blocked GEMM with default [`GemmParams`] and internally
/// allocated packing scratch. For repeated calls, use
/// [`dgemm_packed_with`] with reused scratch buffers.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_packed(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    let params = GemmParams::default();
    let mut ap = Vec::new();
    let mut bp = Vec::new();
    dgemm_packed_with(
        &params, ta, tb, m, n, k, alpha, a, b, beta, c, &mut ap, &mut bp,
    );
}

/// Packed cache-blocked GEMM: BLIS loop nest over `params` blocks.
///
/// `ap`/`bp` are packing scratch; they are resized to at most
/// [`GemmParams::packed_a_len`] / [`GemmParams::packed_b_len`] and their
/// contents on entry are irrelevant. Passing buffers with that capacity
/// (e.g. from a tile pool) makes the call allocation-free.
///
/// This is the [`Epilogue::Overwrite`] case of [`dgemm_packed_epilogue`].
#[allow(clippy::too_many_arguments)]
pub fn dgemm_packed_with(
    params: &GemmParams,
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    ap: &mut Vec<f64>,
    bp: &mut Vec<f64>,
) {
    dgemm_packed_epilogue(
        params,
        ta,
        tb,
        m,
        n,
        k,
        alpha,
        a,
        b,
        Epilogue::Overwrite { beta },
        c,
        ap,
        bp,
    );
}

/// What the packed engine does with each macro-tile of the product as it
/// leaves the registers — the fusion point for the stages that would
/// otherwise re-read `C` from memory (the REDUCE `daxpy`, the SORT
/// remap).
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// `C = alpha * op(A)op(B) + beta * C` — the classic BLAS contract;
    /// `beta` is folded into the first visit of each element instead of
    /// a separate pre-scaling pass over `C`.
    Overwrite {
        /// Scale applied to the existing contents of `C`.
        beta: f64,
    },
    /// `C = beta * C + alpha * op(A)op(B) + gamma * X` — fuses a
    /// `daxpy`-style accumulate of `x` (e.g. a reduction-tree partial)
    /// into the writeback while the tile is register-hot. `x` is read
    /// once, on the first visit of each element.
    ScaleAccumulate {
        /// Scale applied to the existing contents of `C`.
        beta: f64,
        /// Scale applied to the addend `x`.
        gamma: f64,
        /// Addend, `m * n` column-major like `C`.
        x: &'a [f64],
    },
    /// `C[perm(i)] = factor * (alpha * op(A)op(B)[i] + gamma * X[i])` —
    /// fuses a single-branch `TCE_SORT_4` (and optionally the reduction
    /// root's accumulate) into the writeback, so the *sorted* tile is
    /// produced without ever materializing the unsorted product. The
    /// `m x n` product is interpreted as the 4-index tile `dims`
    /// (`dims[0] * dims[1] == m`, column-major) and `C` is fully
    /// overwritten in the permuted layout.
    ///
    /// Requires every element to be written exactly once, so the engine
    /// internally widens `kc` to cover all of `k` (see
    /// [`epilogue_params`]).
    PermutedScatter {
        /// Input-tile shape; `dims[0] * dims[1] == m`, product `m * n`.
        dims: [usize; 4],
        /// Output index `q` is input index `perm[q]` (as in `sort_4`).
        perm: Perm4,
        /// Sign/scale factor applied after the sum.
        factor: f64,
        /// Scale applied to the addend `x` (ignored when `x` is `None`).
        gamma: f64,
        /// Optional addend in the *unsorted* layout (`m * n`
        /// column-major).
        x: Option<&'a [f64]>,
    },
}

/// Effective blocking parameters of the packed engine under `epi`: the
/// scatter epilogue needs a single pass over `k` (each destination
/// element is written exactly once), so `kc` is clamped to cover all of
/// it. Callers sizing their own packing scratch (pool checkouts) must
/// use these parameters, not the raw ones.
pub fn epilogue_params(params: &GemmParams, epi: &Epilogue<'_>, k: usize) -> GemmParams {
    match epi {
        Epilogue::PermutedScatter { .. } => GemmParams {
            kc: params.kc.max(k.max(1)),
            ..*params
        },
        _ => *params,
    }
}

/// Packed cache-blocked GEMM with a pluggable macro-tile writeback; see
/// [`Epilogue`] for the semantics of each variant and
/// [`dgemm_packed_with`] for the scratch-buffer contract.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_packed_epilogue(
    params: &GemmParams,
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    epi: Epilogue<'_>,
    c: &mut [f64],
    ap: &mut Vec<f64>,
    bp: &mut Vec<f64>,
) {
    params.assert_valid();
    assert_eq!(a.len(), m * k, "A has wrong size");
    assert_eq!(b.len(), k * n, "B has wrong size");
    assert_eq!(c.len(), m * n, "C has wrong size");
    match &epi {
        Epilogue::Overwrite { .. } => {}
        Epilogue::ScaleAccumulate { x, .. } => {
            assert_eq!(x.len(), m * n, "epilogue addend has wrong size");
        }
        Epilogue::PermutedScatter { dims, perm, x, .. } => {
            assert!(is_perm(perm), "not a permutation: {perm:?}");
            assert_eq!(dims.iter().product::<usize>(), m * n, "dims/C mismatch");
            assert_eq!(dims[0] * dims[1], m, "dims rows != m");
            if let Some(x) = x {
                assert_eq!(x.len(), m * n, "epilogue addend has wrong size");
            }
        }
    }
    let params = epilogue_params(params, &epi, k);

    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        epilogue_degenerate(&epi, c);
        return;
    }

    // Output strides of the scatter, indexed by input axis (zeros
    // otherwise; unused).
    let step = match &epi {
        Epilogue::PermutedScatter { dims, perm, .. } => out_steps(*dims, *perm),
        _ => [0; 4],
    };
    // Scatter destination offsets, hoisted: the row and column maps are
    // fixed for the whole call, so the writeback does two table lookups
    // per element instead of div/mod address arithmetic.
    let (row_off, col_off) = match &epi {
        Epilogue::PermutedScatter { dims, .. } => (
            (0..m)
                .map(|r| (r % dims[0]) * step[0] + (r / dims[0]) * step[1])
                .collect::<Vec<usize>>(),
            (0..n)
                .map(|q| (q % dims[2]) * step[2] + (q / dims[2]) * step[3])
                .collect::<Vec<usize>>(),
        ),
        _ => (Vec::new(), Vec::new()),
    };

    let a_len = params.packed_a_len(m, k);
    let b_len = params.packed_b_len(n, k);
    if ap.len() < a_len {
        ap.resize(a_len, 0.0);
    }
    if bp.len() < b_len {
        bp.resize(b_len, 0.0);
    }

    let mut tile = [0.0f64; MR * NR];
    for jc in (0..n).step_by(params.nc) {
        let ncc = params.nc.min(n - jc);
        for pc in (0..k).step_by(params.kc) {
            let kcc = params.kc.min(k - pc);
            pack::pack_b(tb, b, k, n, pc, kcc, jc, ncc, bp);
            for ic in (0..m).step_by(params.mc) {
                let mcc = params.mc.min(m - ic);
                pack::pack_a(ta, a, m, k, ic, mcc, pc, kcc, ap);
                for jr in 0..ncc.div_ceil(NR) {
                    let bpanel = &bp[jr * NR * kcc..(jr + 1) * NR * kcc];
                    let nr_eff = NR.min(ncc - jr * NR);
                    for ir in 0..mcc.div_ceil(MR) {
                        let apanel = &ap[ir * MR * kcc..(ir + 1) * MR * kcc];
                        let mr_eff = MR.min(mcc - ir * MR);
                        microkernel(kcc, apanel, bpanel, mr_eff, nr_eff, &mut tile);
                        // Clipped writeback: the tile rows/columns past
                        // the block edge are zero-padded products and
                        // are simply not stored. Each C element's first
                        // visit is its pc == 0 one; later kc blocks
                        // accumulate.
                        let c0 = ic + ir * MR;
                        match &epi {
                            Epilogue::Overwrite { beta } => {
                                let beta = if pc == 0 { *beta } else { 1.0 };
                                for j in 0..nr_eff {
                                    let cj = &mut c[(jc + jr * NR + j) * m + c0..][..mr_eff];
                                    let tj = &tile[j * MR..j * MR + mr_eff];
                                    if beta == 1.0 {
                                        for (cij, &tij) in cj.iter_mut().zip(tj) {
                                            *cij += alpha * tij;
                                        }
                                    } else if beta == 0.0 {
                                        for (cij, &tij) in cj.iter_mut().zip(tj) {
                                            *cij = alpha * tij;
                                        }
                                    } else {
                                        for (cij, &tij) in cj.iter_mut().zip(tj) {
                                            *cij = beta * *cij + alpha * tij;
                                        }
                                    }
                                }
                            }
                            Epilogue::ScaleAccumulate { beta, gamma, x } => {
                                for j in 0..nr_eff {
                                    let col = (jc + jr * NR + j) * m + c0;
                                    let cj = &mut c[col..col + mr_eff];
                                    let tj = &tile[j * MR..j * MR + mr_eff];
                                    if pc != 0 {
                                        for (cij, &tij) in cj.iter_mut().zip(tj) {
                                            *cij += alpha * tij;
                                        }
                                    } else {
                                        let xj = &x[col..col + mr_eff];
                                        if *beta == 0.0 {
                                            for i in 0..mr_eff {
                                                cj[i] = alpha * tj[i] + gamma * xj[i];
                                            }
                                        } else {
                                            for i in 0..mr_eff {
                                                cj[i] =
                                                    beta * cj[i] + alpha * tj[i] + gamma * xj[i];
                                            }
                                        }
                                    }
                                }
                            }
                            Epilogue::PermutedScatter {
                                factor, gamma, x, ..
                            } => {
                                // Single visit (kc covers k): scatter the
                                // finished elements straight to their
                                // permuted destinations.
                                debug_assert_eq!(pc, 0);
                                for j in 0..nr_eff {
                                    let q = jc + jr * NR + j;
                                    let obase = col_off[q];
                                    let roff = &row_off[c0..c0 + mr_eff];
                                    let tj = &tile[j * MR..j * MR + mr_eff];
                                    match x {
                                        Some(x) => {
                                            let xj = &x[q * m + c0..q * m + c0 + mr_eff];
                                            for i in 0..mr_eff {
                                                c[obase + roff[i]] =
                                                    factor * (alpha * tj[i] + gamma * xj[i]);
                                            }
                                        }
                                        None => {
                                            for i in 0..mr_eff {
                                                c[obase + roff[i]] = factor * alpha * tj[i];
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The epilogue with a zero product contribution (`alpha == 0` or a
/// degenerate dimension): what remains of each contract.
fn epilogue_degenerate(epi: &Epilogue<'_>, c: &mut [f64]) {
    match epi {
        Epilogue::Overwrite { beta } => {
            if *beta == 0.0 {
                c.fill(0.0);
            } else if *beta != 1.0 {
                for x in c.iter_mut() {
                    *x *= beta;
                }
            }
        }
        Epilogue::ScaleAccumulate { beta, gamma, x } => {
            if *beta == 0.0 {
                for (ci, &xi) in c.iter_mut().zip(*x) {
                    *ci = gamma * xi;
                }
            } else {
                for (ci, &xi) in c.iter_mut().zip(*x) {
                    *ci = beta * *ci + gamma * xi;
                }
            }
        }
        Epilogue::PermutedScatter {
            dims,
            perm,
            factor,
            gamma,
            x,
        } => match x {
            Some(x) => sort_4(x, c, *dims, *perm, factor * gamma),
            None => c.fill(0.0),
        },
    }
}

/// Textbook reference implementation (element addressing only), used as the
/// oracle in property tests.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_naive(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    let at = |i: usize, l: usize| match ta {
        Trans::N => a[cm(i, l, m)],
        Trans::T => a[cm(l, i, k)],
    };
    let bt = |l: usize, j: usize| match tb {
        Trans::N => b[cm(l, j, k)],
        Trans::T => b[cm(j, l, n)],
    };
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            for l in 0..k {
                acc += at(i, l) * bt(l, j);
            }
            c[cm(i, j, m)] = alpha * acc + beta * c[cm(i, j, m)];
        }
    }
}

/// Floating-point operation count of one GEMM (the usual `2*m*n*k`).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn identity_times_matrix() {
        // A = I (2x2), B = [[1,3],[2,4]] column-major.
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut c = vec![0.0; 4];
        dgemm(Trans::N, Trans::N, 2, 2, 2, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn known_2x2_product() {
        // A=[[1,3],[2,4]], B=[[5,7],[6,8]] (column-major lists).
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        dgemm(Trans::N, Trans::N, 2, 2, 2, 1.0, &a, &b, 0.0, &mut c);
        // C = [[1*5+3*6, 1*7+3*8],[2*5+4*6, 2*7+4*8]] = [[23,31],[34,46]]
        assert_eq!(c, vec![23.0, 34.0, 31.0, 46.0]);
    }

    #[test]
    fn transpose_flags_agree_with_naive() {
        let (m, n, k) = (3, 4, 5);
        for &ta in &[Trans::N, Trans::T] {
            for &tb in &[Trans::N, Trans::T] {
                let a = seq(m * k);
                let b = seq(k * n);
                let mut c1 = seq(m * n);
                let mut c2 = c1.clone();
                dgemm(ta, tb, m, n, k, 1.5, &a, &b, 0.5, &mut c1);
                dgemm_naive(ta, tb, m, n, k, 1.5, &a, &b, 0.5, &mut c2);
                for (x, y) in c1.iter().zip(&c2) {
                    assert!((x - y).abs() < 1e-9, "{ta:?}{tb:?}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn tn_block_edges_agree_with_naive() {
        // Sizes straddling the 4x4 block: full blocks, row/column edges,
        // and the k-loop remainder (k % 4 in {0,1,2,3}).
        for &(m, n, k) in &[
            (4, 4, 4),
            (5, 4, 8),
            (4, 7, 9),
            (9, 10, 11),
            (13, 5, 6),
            (3, 3, 3),
            (1, 9, 1),
        ] {
            let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.3).cos()).collect();
            let c0: Vec<f64> = (0..m * n).map(|i| i as f64 * 0.01 - 0.2).collect();
            let mut c1 = c0.clone();
            let mut c2 = c0;
            dgemm(Trans::T, Trans::N, m, n, k, 1.25, &a, &b, -0.5, &mut c1);
            dgemm_naive(Trans::T, Trans::N, m, n, k, 1.25, &a, &b, -0.5, &mut c2);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-12, "{m}x{n}x{k}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        // beta == 0 must not propagate garbage from C.
        let a = vec![1.0];
        let b = vec![2.0];
        let mut c = vec![f64::NAN];
        dgemm(Trans::N, Trans::N, 1, 1, 1, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c[0], 2.0);
    }

    #[test]
    fn alpha_zero_is_scaling_only() {
        let a = vec![1.0];
        let b = vec![2.0];
        let mut c = vec![3.0];
        dgemm(Trans::N, Trans::N, 1, 1, 1, 0.0, &a, &b, 2.0, &mut c);
        assert_eq!(c[0], 6.0);
    }

    #[test]
    fn degenerate_dims() {
        let mut c: Vec<f64> = vec![];
        dgemm(Trans::T, Trans::N, 0, 0, 3, 1.0, &[], &[], 0.0, &mut c);
        // k == 0: product is zero matrix.
        let mut c2 = vec![7.0; 4];
        dgemm(Trans::N, Trans::N, 2, 2, 0, 1.0, &[], &[], 1.0, &mut c2);
        assert_eq!(c2, vec![7.0; 4]);
    }

    #[test]
    fn packed_agrees_with_naive_all_transposes() {
        // Sizes straddling the MR x NR micropanels and the custom block
        // edges; every transpose combination.
        let params = GemmParams {
            mc: 2 * MR,
            kc: 8,
            nc: 2 * NR,
        };
        for &(m, n, k) in &[
            (1, 1, 1),
            (MR, NR, 8),
            (MR + 1, NR + 1, 9),
            (2 * MR + 1, NR - 1, 11),
            (3 * MR + 5, 3 * NR + 1, 17),
        ] {
            let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.3).cos()).collect();
            let c0: Vec<f64> = (0..m * n).map(|i| i as f64 * 0.01 - 0.2).collect();
            for &ta in &[Trans::N, Trans::T] {
                for &tb in &[Trans::N, Trans::T] {
                    let mut c1 = c0.clone();
                    let mut c2 = c0.clone();
                    let (mut ap, mut bp) = (Vec::new(), Vec::new());
                    dgemm_packed_with(
                        &params, ta, tb, m, n, k, 1.25, &a, &b, -0.5, &mut c1, &mut ap, &mut bp,
                    );
                    dgemm_naive(ta, tb, m, n, k, 1.25, &a, &b, -0.5, &mut c2);
                    for (x, y) in c1.iter().zip(&c2) {
                        assert!(
                            (x - y).abs() < 1e-12,
                            "{ta:?}{tb:?} {m}x{n}x{k}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_default_params_and_degenerate_dims() {
        // Default blocks far larger than the matrix: single-block path.
        let (m, n, k) = (5, 4, 3);
        let a: Vec<f64> = (0..m * k).map(|i| i as f64 + 0.5).collect();
        let b: Vec<f64> = (0..k * n).map(|i| 2.0 - i as f64 * 0.25).collect();
        let mut c1 = vec![1.0; m * n];
        let mut c2 = vec![1.0; m * n];
        dgemm_packed(Trans::T, Trans::N, m, n, k, 2.0, &a, &b, 1.0, &mut c1);
        dgemm_naive(Trans::T, Trans::N, m, n, k, 2.0, &a, &b, 1.0, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-12);
        }
        // k == 0 leaves only the beta scaling.
        let mut c3 = vec![3.0; 4];
        dgemm_packed(Trans::N, Trans::N, 2, 2, 0, 1.0, &[], &[], 0.5, &mut c3);
        assert_eq!(c3, vec![1.5; 4]);
        // Empty output.
        let mut c4: Vec<f64> = vec![];
        dgemm_packed(Trans::N, Trans::T, 0, 0, 2, 1.0, &[], &[], 0.0, &mut c4);
    }

    #[test]
    fn packed_scratch_is_reused_without_realloc() {
        let params = GemmParams::default();
        let (m, n, k) = (40, 40, 40);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c = vec![0.0; m * n];
        let mut ap = vec![0.0; params.packed_a_len(m, k)];
        let mut bp = vec![0.0; params.packed_b_len(n, k)];
        let (pa, pb) = (ap.as_ptr(), bp.as_ptr());
        dgemm_packed_with(
            &params,
            Trans::T,
            Trans::N,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ap,
            &mut bp,
        );
        assert_eq!(ap.as_ptr(), pa, "A scratch reallocated");
        assert_eq!(bp.as_ptr(), pb, "B scratch reallocated");
    }

    #[test]
    fn dispatcher_threshold_routes_consistently() {
        // Just below / above the volume threshold both match naive.
        for &(m, n, k) in &[(16, 16, 16), (32, 32, 32)] {
            let a = seq(m * k);
            let b = seq(k * n);
            let mut c1 = vec![0.5; m * n];
            let mut c2 = vec![0.5; m * n];
            dgemm(Trans::T, Trans::N, m, n, k, 1.0, &a, &b, 1.0, &mut c1);
            dgemm_naive(Trans::T, Trans::N, m, n, k, 1.0, &a, &b, 1.0, &mut c2);
            for (x, y) in c1.iter().zip(&c2) {
                let scale = y.abs().max(1.0);
                assert!((x - y).abs() / scale < 1e-12, "{m}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn scale_accumulate_fuses_axpy_into_writeback() {
        let params = GemmParams {
            mc: 16,
            kc: 8,
            nc: 12,
        };
        let (m, n, k) = (17, 13, 19); // multiple kc blocks, clipped edges
        let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.3).cos()).collect();
        let x: Vec<f64> = (0..m * n).map(|i| i as f64 * 0.11 - 3.0).collect();
        let c0: Vec<f64> = (0..m * n).map(|i| 0.5 - i as f64 * 0.02).collect();
        for beta in [0.0, 1.0, -0.75] {
            let mut got = c0.clone();
            let (mut ap, mut bp) = (Vec::new(), Vec::new());
            dgemm_packed_epilogue(
                &params,
                Trans::T,
                Trans::N,
                m,
                n,
                k,
                1.25,
                &a,
                &b,
                Epilogue::ScaleAccumulate {
                    beta,
                    gamma: -2.0,
                    x: &x,
                },
                &mut got,
                &mut ap,
                &mut bp,
            );
            let mut want = c0.clone();
            dgemm_naive(Trans::T, Trans::N, m, n, k, 1.25, &a, &b, beta, &mut want);
            for (w, xi) in want.iter_mut().zip(&x) {
                *w += -2.0 * xi;
            }
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-12, "beta={beta}: {g} vs {w}");
            }
        }
        // beta == 0 must not propagate NaN from C.
        let mut c = vec![f64::NAN];
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        dgemm_packed_epilogue(
            &params,
            Trans::N,
            Trans::N,
            1,
            1,
            1,
            1.0,
            &[3.0],
            &[2.0],
            Epilogue::ScaleAccumulate {
                beta: 0.0,
                gamma: 1.0,
                x: &[4.0],
            },
            &mut c,
            &mut ap,
            &mut bp,
        );
        assert_eq!(c[0], 10.0);
    }

    #[test]
    fn permuted_scatter_fuses_sort_into_writeback() {
        use crate::sort4::sort_4_naive;
        let params = GemmParams {
            mc: 16,
            kc: 8, // will be widened internally to cover k
            nc: 12,
        };
        let dims = [5, 3, 7, 2];
        let (m, n, k) = (dims[0] * dims[1], dims[2] * dims[3], 9);
        let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.3).cos()).collect();
        let x: Vec<f64> = (0..m * n).map(|i| i as f64 * 0.09 - 1.0).collect();
        for perm in [[2, 0, 3, 1], [0, 1, 3, 2], [3, 1, 2, 0]] {
            for x_opt in [None, Some(x.as_slice())] {
                let mut got = vec![f64::NAN; m * n]; // fully overwritten
                let (mut ap, mut bp) = (Vec::new(), Vec::new());
                dgemm_packed_epilogue(
                    &params,
                    Trans::T,
                    Trans::N,
                    m,
                    n,
                    k,
                    1.25,
                    &a,
                    &b,
                    Epilogue::PermutedScatter {
                        dims,
                        perm,
                        factor: -0.5,
                        gamma: 3.0,
                        x: x_opt,
                    },
                    &mut got,
                    &mut ap,
                    &mut bp,
                );
                let mut prod = vec![0.0; m * n];
                dgemm_naive(Trans::T, Trans::N, m, n, k, 1.25, &a, &b, 0.0, &mut prod);
                if let Some(x) = x_opt {
                    for (p, xi) in prod.iter_mut().zip(x) {
                        *p += 3.0 * xi;
                    }
                }
                let mut want = vec![0.0; m * n];
                sort_4_naive(&prod, &mut want, dims, perm, -0.5);
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-12, "perm {perm:?}: {g} vs {w}");
                }
            }
        }
    }

    #[test]
    fn epilogue_params_widens_kc_for_scatter_only() {
        let params = GemmParams {
            mc: 16,
            kc: 8,
            nc: 12,
        };
        let scatter = Epilogue::PermutedScatter {
            dims: [2, 2, 2, 2],
            perm: [1, 0, 2, 3],
            factor: 1.0,
            gamma: 0.0,
            x: None,
        };
        assert_eq!(epilogue_params(&params, &scatter, 40).kc, 40);
        assert_eq!(epilogue_params(&params, &scatter, 4).kc, 8);
        assert_eq!(
            epilogue_params(&params, &Epilogue::Overwrite { beta: 0.0 }, 40).kc,
            8
        );
    }

    #[test]
    fn degenerate_epilogues_keep_their_contracts() {
        // alpha == 0 with ScaleAccumulate still applies beta and the addend.
        let mut c = vec![2.0, 4.0];
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        dgemm_packed_epilogue(
            &GemmParams::default(),
            Trans::N,
            Trans::N,
            2,
            1,
            1,
            0.0,
            &[1.0, 1.0],
            &[1.0],
            Epilogue::ScaleAccumulate {
                beta: 0.5,
                gamma: 2.0,
                x: &[10.0, 20.0],
            },
            &mut c,
            &mut ap,
            &mut bp,
        );
        assert_eq!(c, vec![21.0, 42.0]);
        // k == 0 with a scatter and an addend degenerates to sort_4 of x.
        let mut c2 = vec![0.0; 4];
        dgemm_packed_epilogue(
            &GemmParams::default(),
            Trans::N,
            Trans::N,
            2,
            2,
            0,
            1.0,
            &[],
            &[],
            Epilogue::PermutedScatter {
                dims: [2, 1, 2, 1],
                perm: [2, 1, 0, 3],
                factor: 2.0,
                gamma: 0.5,
                x: Some(&[1.0, 2.0, 3.0, 4.0]),
            },
            &mut c2,
            &mut ap,
            &mut bp,
        );
        // x as 2x2 [[1,3],[2,4]], transpose then scale by 2*0.5 = 1.
        assert_eq!(c2, vec![1.0, 3.0, 2.0, 4.0]);
        // k == 0 scatter without an addend zeroes the destination.
        let mut c3 = vec![9.0; 4];
        dgemm_packed_epilogue(
            &GemmParams::default(),
            Trans::N,
            Trans::N,
            2,
            2,
            0,
            1.0,
            &[],
            &[],
            Epilogue::PermutedScatter {
                dims: [2, 1, 2, 1],
                perm: [2, 1, 0, 3],
                factor: 1.0,
                gamma: 1.0,
                x: None,
            },
            &mut c3,
            &mut ap,
            &mut bp,
        );
        assert_eq!(c3, vec![0.0; 4]);
    }

    #[test]
    fn trans_from_char() {
        assert_eq!(Trans::from_char('t'), Some(Trans::T));
        assert_eq!(Trans::from_char('N'), Some(Trans::N));
        assert_eq!(Trans::from_char('x'), None);
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(10, 20, 30), 12_000);
    }
}
