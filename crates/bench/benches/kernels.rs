//! Microbenchmarks of the computational kernels (the task bodies).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tensor_kernels::{
    daxpy, dgemm, dgemm_blocked, dgemm_naive, dgemm_packed_with, sort_4, sort_4_naive,
    sort_4_tiled, GemmParams, Trans,
};

fn seq(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64).sin()).collect()
}

fn bench_dgemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("dgemm_tn");
    for &d in &[16usize, 32] {
        let (m, n, k) = (d * d / 4, d * d / 4, d * d / 4);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut cc = seq(m * n);
        g.throughput(Throughput::Elements(2 * (m * n * k) as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{n}x{k}")),
            &d,
            |bch, _| {
                bch.iter(|| {
                    dgemm(
                        Trans::T,
                        Trans::N,
                        m,
                        n,
                        k,
                        1.0,
                        black_box(&a),
                        black_box(&b),
                        1.0,
                        &mut cc,
                    )
                })
            },
        );
    }
    g.finish();
}

/// The ISSUE acceptance measurement: 4x4-blocked `T x N` kernel vs the
/// textbook naive loop at 64x64x64.
fn bench_dgemm_blocked_vs_naive(c: &mut Criterion) {
    let mut g = c.benchmark_group("dgemm_tn_64");
    let (m, n, k) = (64usize, 64, 64);
    let a = seq(m * k);
    let b = seq(k * n);
    let mut cc = seq(m * n);
    g.throughput(Throughput::Elements(2 * (m * n * k) as u64));
    g.bench_function("blocked", |bch| {
        bch.iter(|| {
            dgemm(
                Trans::T,
                Trans::N,
                m,
                n,
                k,
                1.0,
                black_box(&a),
                black_box(&b),
                1.0,
                &mut cc,
            )
        })
    });
    g.bench_function("naive", |bch| {
        bch.iter(|| {
            dgemm_naive(
                Trans::T,
                Trans::N,
                m,
                n,
                k,
                1.0,
                black_box(&a),
                black_box(&b),
                1.0,
                &mut cc,
            )
        })
    });
    g.finish();
}

fn bench_sort4(c: &mut Criterion) {
    let mut g = c.benchmark_group("sort_4");
    let dims = [12usize, 12, 12, 12];
    let n: usize = dims.iter().product();
    let src = seq(n);
    let mut dst = vec![0.0; n];
    for perm in [[0usize, 1, 2, 3], [1, 0, 2, 3], [3, 2, 1, 0]] {
        g.throughput(Throughput::Bytes(16 * n as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{perm:?}")),
            &perm,
            |bch, &p| bch.iter(|| sort_4(black_box(&src), &mut dst, dims, p, -1.0)),
        );
    }
    g.finish();
}

fn bench_daxpy(c: &mut Criterion) {
    let x = seq(1 << 16);
    let mut y = seq(1 << 16);
    c.bench_function("daxpy_64k", |b| {
        b.iter(|| daxpy(1.0001, black_box(&x), &mut y))
    });
}

/// Best-of-`reps` wall time of `f` (with one extra warmup call).
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = Duration::MAX;
    for r in 0..=reps {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed();
        if r > 0 && dt < best {
            best = dt;
        }
    }
    best.as_secs_f64()
}

fn row(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The kernel matrix behind the data-path optimization work: naive vs
/// blocked vs packed dgemm GFLOP/s at 64/128/256 cubed and at the CCSD
/// chain shapes of the benchmark workloads (with the dispatched SIMD
/// tier and the core count), the linear vs
/// cache-tiled `sort_4` remap in MB/s, and the tile pool's steady-state
/// counters over a pooled v5 run. Printed, and written to
/// `BENCH_kernels.json` at the repo root (under `target/` in quick mode,
/// so a smoke run never clobbers real measurements).
fn bench_kernel_matrix(_c: &mut Criterion) {
    let quick = criterion::quick_mode();
    let reps = if quick { 1 } else { 5 };

    // --- dgemm: naive / blocked / packed at the chain GEMM shape (TxN).
    const SIZES: [usize; 3] = [64, 128, 256];
    let params = GemmParams::default();
    let mut naive_gf = Vec::new();
    let mut blocked_gf = Vec::new();
    let mut packed_gf = Vec::new();
    for &d in &SIZES {
        let (m, n, k) = (d, d, d);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut cc = seq(m * n);
        let mut ap = vec![0.0; params.packed_a_len(m, k)];
        let mut bp = vec![0.0; params.packed_b_len(n, k)];
        let flops = 2.0 * (m * n * k) as f64;
        let tn = best_of(reps, || {
            dgemm_naive(
                Trans::T,
                Trans::N,
                m,
                n,
                k,
                1.0,
                black_box(&a),
                black_box(&b),
                1.0,
                &mut cc,
            )
        });
        let tb = best_of(reps, || {
            dgemm_blocked(
                Trans::T,
                Trans::N,
                m,
                n,
                k,
                1.0,
                black_box(&a),
                black_box(&b),
                1.0,
                &mut cc,
            )
        });
        let tp = best_of(reps, || {
            dgemm_packed_with(
                &params,
                Trans::T,
                Trans::N,
                m,
                n,
                k,
                1.0,
                black_box(&a),
                black_box(&b),
                1.0,
                &mut cc,
                &mut ap,
                &mut bp,
            )
        });
        naive_gf.push(flops / tn / 1e9);
        blocked_gf.push(flops / tb / 1e9);
        packed_gf.push(flops / tp / 1e9);
        println!(
            "bench kernel_matrix/dgemm_{d}  naive {:6.2} GF/s   blocked {:6.2} GF/s   packed {:6.2} GF/s   packed/blocked {:.2}x",
            flops / tn / 1e9,
            flops / tb / 1e9,
            flops / tp / 1e9,
            tb / tp
        );
    }

    // --- dgemm at the engine's chain shapes: A^T * B with beta = 0, as
    // a v5 GEMM task runs it, on operands that are cold in L1/L2 (each
    // call takes the next of several copies spanning 32 MiB, the way
    // fresh tiles arrive from the Global Array).
    const TCE_SHAPES: [(&str, usize, usize, usize); 2] =
        [("ccsd_node", 100, 108, 108), ("ccsd_mesh", 60, 72, 72)];
    let mut tce_rows = Vec::new();
    for &(workload, m, n, k) in &TCE_SHAPES {
        let copies = ((32 << 20) / (8 * (m * k + k * n))).max(2);
        let ops: Vec<(Vec<f64>, Vec<f64>)> =
            (0..copies).map(|_| (seq(m * k), seq(k * n))).collect();
        let mut cc = vec![0.0; m * n];
        let mut ap = vec![0.0; params.packed_a_len(m, k)];
        let mut bp = vec![0.0; params.packed_b_len(n, k)];
        let flops = 2.0 * (m * n * k) as f64 * copies as f64;
        let tp = best_of(reps, || {
            for (a, b) in &ops {
                dgemm_packed_with(
                    &params,
                    Trans::T,
                    Trans::N,
                    m,
                    n,
                    k,
                    1.0,
                    black_box(a),
                    black_box(b),
                    0.0,
                    &mut cc,
                    &mut ap,
                    &mut bp,
                )
            }
        });
        let tb = best_of(reps, || {
            for (a, b) in &ops {
                dgemm_blocked(
                    Trans::T,
                    Trans::N,
                    m,
                    n,
                    k,
                    1.0,
                    black_box(a),
                    black_box(b),
                    0.0,
                    &mut cc,
                )
            }
        });
        let (packed, blocked) = (flops / tp / 1e9, flops / tb / 1e9);
        println!(
            "bench kernel_matrix/dgemm_tn_cold_{m}x{n}x{k} ({workload})  blocked {blocked:6.2} GF/s   packed {packed:6.2} GF/s"
        );
        tce_rows.push(format!(
            "    {{\"workload\": \"{workload}\", \"m\": {m}, \"n\": {n}, \"k\": {k}, \"blocked_gflops\": {blocked:.3}, \"packed_gflops\": {packed:.3}}}"
        ));
    }

    // --- sort_4: linear walk vs cache-tiled remap on a fully strided
    // permutation (both read n and write n doubles per pass).
    let dims = [24usize, 24, 24, 24];
    let perm = [3usize, 2, 1, 0];
    let n: usize = dims.iter().product();
    let src = seq(n);
    let mut dst = vec![0.0; n];
    let bytes = 16.0 * n as f64;
    let t_naive = best_of(reps, || {
        sort_4_naive(black_box(&src), &mut dst, dims, perm, -1.0)
    });
    let t_tiled = best_of(reps, || {
        sort_4_tiled(black_box(&src), &mut dst, dims, perm, -1.0)
    });
    let naive_mbs = bytes / t_naive / 1e6;
    let tiled_mbs = bytes / t_tiled / 1e6;
    println!(
        "bench kernel_matrix/sort4_{perm:?}  naive {naive_mbs:8.0} MB/s   tiled {tiled_mbs:8.0} MB/s   {:.2}x",
        t_naive / t_tiled
    );

    // --- tile pool: steady-state counters of a pooled v5 chain run
    // (warm-up run first, then the measured run on the warmed pool).
    let space = tce::TileSpace::build(&tce::scale::tiny());
    let (ins, ws) = ccsd::verify::prepare(&space, 3);
    let pool = std::sync::Arc::new(parsec_rt::TilePool::new(8));
    ccsd::verify::variant_energy_native_pooled(
        &ins,
        &ws,
        ccsd::VariantCfg::v5(),
        1,
        parsec_rt::SchedPolicy::PriorityFifo,
        pool.clone(),
    );
    let warm = pool.stats();
    ccsd::verify::variant_energy_native_pooled(
        &ins,
        &ws,
        ccsd::VariantCfg::v5(),
        1,
        parsec_rt::SchedPolicy::PriorityFifo,
        pool.clone(),
    );
    let steady = pool.stats();
    let steady_checkouts = (steady.hits + steady.misses) - (warm.hits + warm.misses);
    let steady_misses = steady.misses - warm.misses;
    println!(
        "bench kernel_matrix/pool_v5  warmup misses {}   steady checkouts {steady_checkouts}   steady misses {steady_misses}   cow clones {}",
        warm.misses, steady.cow_clones
    );

    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"tier\": \"{}\",\n  \"nproc\": {},\n  \"dgemm_tn\": {{\n    \"sizes\": [64, 128, 256],\n    \"naive_gflops\": [{}],\n    \"blocked_gflops\": [{}],\n    \"packed_gflops\": [{}],\n    \"packed_over_blocked\": [{}]\n  }},\n  \"dgemm_tce_cold\": [\n{}\n  ],\n  \"sort4\": {{\n    \"dims\": [24, 24, 24, 24],\n    \"perm\": [3, 2, 1, 0],\n    \"naive_mb_per_s\": {naive_mbs:.0},\n    \"tiled_mb_per_s\": {tiled_mbs:.0},\n    \"tiled_over_naive\": {:.3}\n  }},\n  \"pool_v5_tiny\": {{\n    \"warmup_misses\": {},\n    \"steady_checkouts\": {steady_checkouts},\n    \"steady_misses\": {steady_misses},\n    \"cow_clones\": {},\n    \"bytes_allocated\": {}\n  }}\n}}\n",
        tensor_kernels::pack::tier().name(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        row(&naive_gf),
        row(&blocked_gf),
        row(&packed_gf),
        row(
            &SIZES
                .iter()
                .enumerate()
                .map(|(i, _)| packed_gf[i] / blocked_gf[i])
                .collect::<Vec<_>>()
        ),
        tce_rows.join(",\n"),
        t_naive / t_tiled,
        warm.misses,
        steady.cow_clones,
        steady.bytes_allocated,
    );
    let path = if quick {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_kernels.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json")
    };
    std::fs::write(path, json).expect("write BENCH_kernels.json");
    println!("wrote {path}");
}

criterion_group!(
    benches,
    bench_dgemm,
    bench_dgemm_blocked_vs_naive,
    bench_sort4,
    bench_daxpy,
    bench_kernel_matrix
);
criterion_main!(benches);
