//! Property tests: kernel implementations vs naive oracles.

use proptest::prelude::*;
use tensor_kernels::pack::{MR, NR};
use tensor_kernels::{
    daxpy, dgemm, dgemm_naive, dgemm_packed_epilogue, dgemm_packed_with, invert_perm, sort_4,
    sort_4_merge, sort_4_multi, sort_4_naive, sort_4_tiled, Epilogue, GemmParams, Perm4, SortSpec,
    Trans,
};

/// Odd and prime GEMM extents for the packed-engine properties, on both
/// sides of the micropanel edges (`MR`, `NR` and their multiples) and of
/// the [`shrunk_params`] cache-block edges.
const SIZES: [usize; 11] = [1, 5, 7, 9, 11, 13, 17, 23, 31, 33, 47];

/// Block sizes two micropanels wide, so sizes up to 47 cross several
/// `MC`/`KC`/`NC` block boundaries as well as partial micropanels.
fn shrunk_params() -> GemmParams {
    GemmParams {
        mc: 2 * MR,
        kc: 8,
        nc: 2 * NR,
    }
}

fn trans() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::N), Just(Trans::T)]
}

fn perm4() -> impl Strategy<Value = Perm4> {
    Just(()).prop_perturb(|_, mut rng| {
        let mut p = [0usize, 1, 2, 3];
        // Fisher-Yates with the proptest rng.
        for i in (1..4).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            p.swap(i, j);
        }
        p
    })
}

proptest! {
    /// Blocked dgemm agrees with the naive oracle for all flag combinations.
    #[test]
    fn dgemm_matches_naive(
        ta in trans(),
        tb in trans(),
        m in 0usize..12,
        n in 0usize..12,
        k in 0usize..12,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        let gen = |len: usize, salt: u64| -> Vec<f64> {
            (0..len).map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ salt);
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }).collect()
        };
        let a = gen(m * k, 1);
        let b = gen(k * n, 2);
        let c0 = gen(m * n, 3);
        let mut c1 = c0.clone();
        let mut c2 = c0;
        dgemm(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c1);
        dgemm_naive(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    /// The 4x4-blocked kernel has edge paths wherever a dimension is not
    /// a multiple of the block: exercise them with odd and prime sizes
    /// (1x1, 1xk, prime dims), all four transpose combinations per case.
    #[test]
    fn dgemm_odd_sizes_all_transposes(
        mi in 0usize..8,
        ni in 0usize..8,
        ki in 0usize..8,
        alpha in prop_oneof![Just(1.0f64), Just(-0.5), Just(2.0)],
        beta in prop_oneof![Just(0.0f64), Just(1.0), Just(-1.5)],
        seed in 0u64..1000,
    ) {
        // 1 and the primes straddling the 4-wide block boundary.
        const ODD: [usize; 8] = [1, 2, 3, 5, 7, 11, 13, 17];
        let (m, n, k) = (ODD[mi], ODD[ni], ODD[ki]);
        let gen = |len: usize, salt: u64| -> Vec<f64> {
            (0..len).map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ salt);
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }).collect()
        };
        let a = gen(m * k, 11);
        let b = gen(k * n, 12);
        let c0 = gen(m * n, 13);
        for ta in [Trans::N, Trans::T] {
            for tb in [Trans::N, Trans::T] {
                let mut c1 = c0.clone();
                let mut c2 = c0.clone();
                dgemm(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c1);
                dgemm_naive(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c2);
                for (x, y) in c1.iter().zip(&c2) {
                    prop_assert!(
                        (x - y).abs() < 1e-10,
                        "{ta:?}{tb:?} {m}x{n}x{k}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// sort_4 is a bijection: applying a permutation then its inverse (with
    /// reciprocal factors) restores the input exactly.
    #[test]
    fn sort4_roundtrip(
        p in perm4(),
        d0 in 1usize..5,
        d1 in 1usize..5,
        d2 in 1usize..5,
        d3 in 1usize..5,
        factor in prop_oneof![Just(1.0f64), Just(-1.0), Just(2.0), Just(-0.5)],
    ) {
        let dims = [d0, d1, d2, d3];
        let n: usize = dims.iter().product();
        let src: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
        let odims = [dims[p[0]], dims[p[1]], dims[p[2]], dims[p[3]]];
        let mut mid = vec![0.0; n];
        let mut back = vec![0.0; n];
        sort_4(&src, &mut mid, dims, p, factor);
        sort_4(&mid, &mut back, odims, invert_perm(&p), 1.0 / factor);
        for (x, y) in src.iter().zip(&back) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    /// sort_4 preserves the multiset of |values| (scaled).
    #[test]
    fn sort4_preserves_content(
        p in perm4(),
        d0 in 1usize..5,
        d1 in 1usize..5,
        d2 in 1usize..5,
        d3 in 1usize..5,
    ) {
        let dims = [d0, d1, d2, d3];
        let n: usize = dims.iter().product();
        let src: Vec<f64> = (0..n).map(|i| (i * i) as f64).collect();
        let mut dst = vec![0.0; n];
        sort_4(&src, &mut dst, dims, p, 1.0);
        let mut a = src.clone();
        let mut b = dst.clone();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        prop_assert_eq!(a, b);
    }

    /// The packed engine agrees with the naive oracle to 1e-12 for all
    /// four transpose combinations, degenerate alpha/beta, and odd and
    /// prime sizes straddling the MC/KC/NC block edges. Shrunk block
    /// parameters (mc = 2*MR, kc = 8, nc = 2*NR) put the sizes in the
    /// list on both sides of cache-block boundaries, and sizes that are
    /// not multiples of MR / NR exercise the zero-padded micropanels and
    /// the clipped writeback.
    #[test]
    fn packed_dgemm_matches_naive_all_transposes(
        mi in 0..SIZES.len(),
        ni in 0..SIZES.len(),
        ki in 0..SIZES.len(),
        alpha in prop_oneof![Just(0.0f64), Just(1.0), Just(-0.5), Just(2.0)],
        beta in prop_oneof![Just(0.0f64), Just(1.0), Just(-0.5), Just(2.0)],
        seed in 0u64..1000,
    ) {
        let params = shrunk_params();
        let (m, n, k) = (SIZES[mi], SIZES[ni], SIZES[ki]);
        let gen = |len: usize, salt: u64| -> Vec<f64> {
            (0..len).map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ salt);
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }).collect()
        };
        let a = gen(m * k, 21);
        let b = gen(k * n, 22);
        let c0 = gen(m * n, 23);
        let mut ap = vec![0.0; params.packed_a_len(m, k)];
        let mut bp = vec![0.0; params.packed_b_len(n, k)];
        for ta in [Trans::N, Trans::T] {
            for tb in [Trans::N, Trans::T] {
                let mut c1 = c0.clone();
                let mut c2 = c0.clone();
                dgemm_packed_with(
                    &params, ta, tb, m, n, k, alpha, &a, &b, beta, &mut c1, &mut ap, &mut bp,
                );
                dgemm_naive(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c2);
                for (x, y) in c1.iter().zip(&c2) {
                    prop_assert!(
                        (x - y).abs() < 1e-12,
                        "{ta:?}{tb:?} {m}x{n}x{k} a={alpha} b={beta}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// The cache-tiled remap produces exactly the naive oracle's output
    /// (same multiplications, different order — bitwise equal) for every
    /// shape, including shapes straddling the 32-wide tile edges.
    #[test]
    fn sort4_tiled_matches_naive(
        p in perm4(),
        d0 in 1usize..40,
        dp in 1usize..40,
        d2 in 1usize..6,
        d3 in 1usize..6,
        factor in prop_oneof![Just(1.0f64), Just(-1.0), Just(2.0), Just(-0.5)],
    ) {
        // Give the two tiled axes (input axis 0 and axis p[0]) the large
        // extents so tile-edge remainders actually occur.
        let mut dims = [d2, d3, d2, d3];
        dims[0] = d0;
        if p[0] != 0 {
            dims[p[0]] = dp;
        }
        let n: usize = dims.iter().product();
        let src: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut got = vec![0.0; n];
        let mut want = vec![0.0; n];
        sort_4_tiled(&src, &mut got, dims, p, factor);
        sort_4_naive(&src, &mut want, dims, p, factor);
        prop_assert_eq!(got, want);
    }

    /// The fused ScaleAccumulate epilogue equals the staged pipeline
    /// (packed GEMM, then a separate `daxpy` of the addend) to 1e-12,
    /// across all four transpose combinations and odd block-straddling
    /// sizes.
    #[test]
    fn fused_scale_accumulate_matches_separate(
        mi in 0..SIZES.len(),
        ni in 0..SIZES.len(),
        ki in 0..SIZES.len(),
        alpha in prop_oneof![Just(1.0f64), Just(-0.5), Just(2.0)],
        beta in prop_oneof![Just(0.0f64), Just(1.0), Just(-0.5)],
        gamma in prop_oneof![Just(1.0f64), Just(-1.0), Just(0.25)],
        seed in 0u64..1000,
    ) {
        let params = shrunk_params();
        let (m, n, k) = (SIZES[mi], SIZES[ni], SIZES[ki]);
        let gen = |len: usize, salt: u64| -> Vec<f64> {
            (0..len).map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ salt);
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }).collect()
        };
        let a = gen(m * k, 31);
        let b = gen(k * n, 32);
        let x = gen(m * n, 33);
        let c0 = gen(m * n, 34);
        let mut ap = vec![0.0; params.packed_a_len(m, k)];
        let mut bp = vec![0.0; params.packed_b_len(n, k)];
        for ta in [Trans::N, Trans::T] {
            for tb in [Trans::N, Trans::T] {
                let mut got = c0.clone();
                dgemm_packed_epilogue(
                    &params, ta, tb, m, n, k, alpha, &a, &b,
                    Epilogue::ScaleAccumulate { beta, gamma, x: &x },
                    &mut got, &mut ap, &mut bp,
                );
                let mut want = c0.clone();
                dgemm_packed_with(
                    &params, ta, tb, m, n, k, alpha, &a, &b, beta, &mut want, &mut ap, &mut bp,
                );
                daxpy(gamma, &x, &mut want);
                for (g, w) in got.iter().zip(&want) {
                    let scale = w.abs().max(1.0);
                    prop_assert!(
                        (g - w).abs() / scale < 1e-12,
                        "{ta:?}{tb:?} {m}x{n}x{k}: {g} vs {w}"
                    );
                }
            }
        }
    }

    /// The fused PermutedScatter epilogue equals the staged pipeline
    /// (packed GEMM + optional addend, then a separate `sort_4`) across
    /// all 24 permutations, all four transpose combinations, and odd
    /// tile shapes.
    #[test]
    fn fused_permuted_scatter_matches_separate(
        d0 in 1usize..6,
        d1 in 1usize..6,
        d2 in 1usize..6,
        d3 in 1usize..6,
        ki in 0..SIZES.len(),
        with_addend in any::<bool>(),
        factor in prop_oneof![Just(1.0f64), Just(-1.0), Just(0.5)],
        seed in 0u64..1000,
    ) {
        let params = shrunk_params();
        let dims = [d0, d1, d2, d3];
        let (m, n, k) = (d0 * d1, d2 * d3, SIZES[ki]);
        let gen = |len: usize, salt: u64| -> Vec<f64> {
            (0..len).map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ salt);
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }).collect()
        };
        let a = gen(m * k, 41);
        let b = gen(k * n, 42);
        let x = gen(m * n, 43);
        let x_opt = if with_addend { Some(x.as_slice()) } else { None };
        let mut ap = vec![0.0; params.packed_a_len(m, k)];
        let mut bp = vec![0.0; params.packed_b_len(n, k)];
        for pi in 0..24usize {
            // Enumerate all 24 permutations via factorial (Lehmer) digits.
            let mut pool = vec![0usize, 1, 2, 3];
            let perm = [
                pool.remove(pi / 6),
                pool.remove((pi % 6) / 2),
                pool.remove(pi % 2),
                pool.remove(0),
            ];
            for ta in [Trans::N, Trans::T] {
                for tb in [Trans::N, Trans::T] {
                    let mut got = vec![f64::NAN; m * n];
                    dgemm_packed_epilogue(
                        &params, ta, tb, m, n, k, 1.25, &a, &b,
                        Epilogue::PermutedScatter { dims, perm, factor, gamma: -2.0, x: x_opt },
                        &mut got, &mut ap, &mut bp,
                    );
                    let mut prod = vec![0.0; m * n];
                    dgemm_packed_with(
                        &params, ta, tb, m, n, k, 1.25, &a, &b, 0.0, &mut prod, &mut ap, &mut bp,
                    );
                    if let Some(x) = x_opt {
                        daxpy(-2.0, x, &mut prod);
                    }
                    let mut want = vec![0.0; m * n];
                    sort_4(&prod, &mut want, dims, perm, factor);
                    for (g, w) in got.iter().zip(&want) {
                        let scale = w.abs().max(1.0);
                        prop_assert!(
                            (g - w).abs() / scale < 1e-12,
                            "{ta:?}{tb:?} perm {perm:?} {m}x{n}x{k}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    /// One-pass sort_4_multi equals one sort_4 call per branch, and
    /// sort_4_merge equals the staged sort-into-temporary + daxpy loop.
    #[test]
    fn sort4_multi_and_merge_match_repeated_sort4(
        p1 in perm4(),
        p2 in perm4(),
        p3 in perm4(),
        d0 in 1usize..34,
        d1 in 1usize..10,
        d2 in 1usize..10,
        d3 in 1usize..6,
        nb in 1usize..4,
    ) {
        let dims = [d0, d1, d2, d3];
        let n: usize = dims.iter().product();
        let src: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin()).collect();
        let specs: Vec<SortSpec> = [p1, p2, p3][..nb]
            .iter()
            .zip([1.0, -0.5, 2.0])
            .map(|(&perm, factor)| SortSpec { perm, factor })
            .collect();
        // Multi: full overwrite per branch, bit-identical to sort_4.
        let mut got: Vec<Vec<f64>> = vec![vec![f64::NAN; n]; nb];
        {
            let mut views: Vec<&mut [f64]> = got.iter_mut().map(|v| v.as_mut_slice()).collect();
            sort_4_multi(&src, &mut views, dims, &specs);
        }
        for (g, s) in got.iter().zip(&specs) {
            let mut want = vec![0.0; n];
            sort_4(&src, &mut want, dims, s.perm, s.factor);
            prop_assert_eq!(g, &want, "dims {:?} perm {:?}", dims, s.perm);
        }
        // Merge: sum of all branches, to rounding (branch arrival order
        // at a given element differs from the staged loop's).
        let mut merged = vec![f64::NAN; n];
        sort_4_merge(&src, &mut merged, dims, &specs);
        let mut want = vec![0.0; n];
        let mut tmp = vec![0.0; n];
        for s in &specs {
            sort_4(&src, &mut tmp, dims, s.perm, s.factor);
            daxpy(1.0, &tmp, &mut want);
        }
        for (g, w) in merged.iter().zip(&want) {
            let scale = w.abs().max(1.0);
            prop_assert!((g - w).abs() / scale < 1e-12, "{g} vs {w}");
        }
    }

    /// Debug builds reject aliasing src/dst in every sort_4 entry point
    /// — the fused paths make accidental in-place remaps easy to write.
    #[test]
    #[cfg(debug_assertions)]
    fn sort4_rejects_aliasing_slices(
        p in perm4(),
        d0 in 1usize..6,
        d1 in 1usize..6,
        d2 in 1usize..6,
        d3 in 1usize..6,
    ) {
        let dims = [d0, d1, d2, d3];
        let n: usize = dims.iter().product();
        let mut buf = vec![0.0; n];
        let ptr = buf.as_mut_ptr();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(move || {
            // SAFETY: the overlapping views exist only to exercise the
            // alias guard, which panics before any element is touched.
            let src = unsafe { std::slice::from_raw_parts(ptr, n) };
            let dst = unsafe { std::slice::from_raw_parts_mut(ptr, n) };
            sort_4(src, dst, dims, p, 1.0);
        });
        std::panic::set_hook(prev);
        prop_assert!(result.is_err(), "aliasing sort_4 did not panic");
    }

    /// dgemm is linear in alpha: gemm(2a) == 2 * gemm(a) with beta=0.
    #[test]
    fn dgemm_alpha_linearity(
        m in 1usize..6,
        n in 1usize..6,
        k in 1usize..6,
    ) {
        let a: Vec<f64> = (0..m * k).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = (0..k * n).map(|i| 1.0 - i as f64 * 0.05).collect();
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        dgemm(Trans::T, Trans::N, m, n, k, 1.0, &a, &b, 0.0, &mut c1);
        dgemm(Trans::T, Trans::N, m, n, k, 2.0, &a, &b, 0.0, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((2.0 * x - y).abs() < 1e-10);
        }
    }
}
