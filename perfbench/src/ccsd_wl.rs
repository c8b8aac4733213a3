//! `ccsd_mesh` and `ccsd_node`: repeated v5 solves on one `DistRank`.
//!
//! The client launches the ranks, waits until each has connected,
//! materialized the problem and run one warm-up solve (set-up), then
//! asks for one collective solve at a time and times it from request to
//! the last rank's answer (a "job"). Each rank times its own solve; the
//! solve time is the slowest rank's. A traced run alternates untraced
//! and traced solves; around a traced solve a rank drains and reads
//! every counter and span the program exposes, then times barrier and
//! remote-get probes.

use crate::geom::{self, GeomClass, Rng, KERNELS};
use crate::metrics::Outcome;
use crate::proto::{energy_field, Msg, RankProc};
use crate::stats::{self, median, ratio};
use crate::{arg, port_base, Args, Workload, ROUNDS};
use ccsd::{DistRank, StealConfig, VariantCfg};
use comm::{CommConfig, SocketTransport, Transport};
use global_arrays::TileCacheConfig;
use std::time::{Duration, Instant};
use tce::TileSpace;

/// Barrier and remote-get probes after each traced solve.
const PROBES: usize = 16;

/// Rank layout of a ccsd workload.
struct Shape {
    ranks: usize,
    threads: usize,
    class: GeomClass,
}

fn shape(args: &Args) -> Shape {
    let (ranks, threads) = match args.workload {
        Workload::CcsdMesh => (2, 1),
        _ => (1, 2),
    };
    let class = if args.tiny {
        GeomClass {
            base: tce::scale::small(),
            gflop: 1.0,
            tensor_mb: 1.0,
            gemms: 1.0,
            tol: f64::INFINITY,
        }
    } else if args.workload == Workload::CcsdMesh {
        // Medium: occ 3, virt 6, tile 8, irreps 2.
        GeomClass {
            base: tce::scale::medium(),
            gflop: 2.4,
            tensor_mb: 56.5,
            gemms: 4630.0,
            tol: 0.03,
        }
    } else {
        GeomClass {
            base: tce::SpaceConfig {
                tile_size: 10,
                ..tce::scale::medium()
            },
            gflop: 9.3,
            tensor_mb: 138.0,
            gemms: 4640.0,
            tol: 0.03,
        }
    };
    Shape {
        ranks,
        threads,
        class,
    }
}

fn variant() -> VariantCfg {
    VariantCfg::v5()
}

// ---------------------------------------------------------------- rank

/// Rank mode: serve `solve` / `tsolve` / `stop` commands on stdin.
pub fn rank_main(a: &[String]) -> Result<(), String> {
    let num = |k: &str| -> Result<usize, String> {
        arg(a, k)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("bad {k}"))
    };
    let (rank, nranks, port, threads) = (
        num("--rank")?,
        num("--nranks")?,
        num("--port")? as u16,
        num("--threads")?,
    );
    let cfg = arg(a, "--geom")
        .and_then(geom::decode)
        .ok_or("bad --geom")?;
    let verify_reads = a.iter().any(|x| x == "--verify-reads");
    let space = TileSpace::build(&cfg);
    let transport: Box<dyn Transport> = if nranks == 1 {
        Box::new(comm::loopback(1).pop().expect("one loopback rank"))
    } else {
        Box::new(
            SocketTransport::connect(rank, nranks, port, Duration::from_secs(60))
                .map_err(|e| format!("rank {rank}: connect: {e}"))?,
        )
    };
    let t = Instant::now();
    let dr = DistRank::with_configs(
        transport,
        &space,
        &KERNELS,
        CommConfig::default(),
        TileCacheConfig {
            verify_reads,
            ..TileCacheConfig::default()
        },
    );
    let attach_ns = t.elapsed().as_nanos();
    let warm = dr.run_variant(variant(), threads, true);
    Msg::new("ready")
        .set("attach_ns", attach_ns)
        .set("energy", energy_field(warm.energy))
        .emit();
    let mut bad_reconcile = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        if std::io::stdin().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        match line.trim() {
            "solve" => {
                let t = Instant::now();
                let run = dr.run_variant(variant(), threads, true);
                Msg::new("solve")
                    .set("wall_ns", t.elapsed().as_nanos())
                    .set("energy", energy_field(run.energy))
                    .emit();
            }
            "tsolve" => {
                let m = traced_solve(&dr, threads);
                bad_reconcile += m.u("reconcile_bad");
                m.emit();
            }
            _ => break,
        }
    }
    let s = dr.endpoint().stats();
    let ga = dr.workspace().ga.stats();
    Msg::new("end")
        .set("peak_rss_kb", crate::host::peak_rss_kb())
        .set("stale_reads", ga.stale_reads())
        .set("retries", s.retries)
        .set("timeouts", s.timeouts)
        .set("dup_replies", s.dup_replies)
        .set("reconcile_bad", bad_reconcile)
        .emit();
    dr.finish();
    Ok(())
}

/// One solve split into its public steps, with every counter delta,
/// the drained spans and latencies, and the probes.
fn traced_solve(dr: &DistRank, threads: usize) -> Msg {
    let ep = dr.endpoint();
    let ws = dr.workspace();
    let ga = ws.ga.stats();
    // Spans and latencies accumulate until drained: drop what earlier
    // (untraced) solves and probes left behind.
    let _ = ep.take_trace();
    let _ = ep.take_latencies();
    let s0 = ep.stats();
    let g0 = [
        ga.remote_get_bytes(),
        ga.local_bytes(),
        ga.cache_hits() + ga.cache_joins(),
        ga.cache_misses(),
        ga.cache_invalidations(),
    ];

    let t = Instant::now();
    let graph = dr.build_run_graph(variant(), true);
    let build_ns = t.elapsed().as_nanos();
    let t = Instant::now();
    let run = dr.run_variant_graph(&graph, variant(), threads, StealConfig::default());
    let run_ns = t.elapsed().as_nanos();

    let s1 = ep.stats();
    let g1 = [
        ga.remote_get_bytes(),
        ga.local_bytes(),
        ga.cache_hits() + ga.cache_joins(),
        ga.cache_misses(),
        ga.cache_invalidations(),
    ];
    let lat = ep.take_latencies();
    let report = &run.report;
    let st = xtrace::analyze::stats(&report.trace);
    let class_ns = |names: &[&str]| -> u64 {
        names
            .iter()
            .filter_map(|n| st.per_class.get(*n))
            .map(|c| c.1)
            .sum()
    };
    let mut merged = report.trace.clone();
    merged.absorb(&ep.take_trace());
    let overlap: (u64, u64) = xtrace::analyze::comm_overlap(&merged)
        .values()
        .fold((0, 0), |acc, o| (acc.0 + o.comm, acc.1 + o.overlapped));
    let get_req = s1.get_req_bytes - s0.get_req_bytes;
    let reconcile_bad = u64::from(g1[0] - g0[0] != get_req);

    let (mut barrier_ns, mut rtt_ns) = (Vec::new(), Vec::new());
    if dr.nranks() > 1 {
        for _ in 0..PROBES {
            let t = Instant::now();
            ep.barrier();
            barrier_ns.push(t.elapsed().as_nanos() as u64);
        }
        let peer = (dr.rank() + 1) % dr.nranks();
        let id = array_id(&ws.t2);
        let range = ws.ga.distribution(ws.t2, peer);
        let len = range.len().min(64);
        for _ in 0..PROBES {
            let t = Instant::now();
            let _ = ep.get_blocking(peer, id, range.start, len);
            rtt_ns.push(t.elapsed().as_nanos() as u64);
        }
        // Keep the probe pairs of both ranks apart from the next solve.
        ep.barrier();
    }

    Msg::new("tsolve")
        .set("energy", energy_field(run.energy))
        .set("build_ns", build_ns)
        .set("run_ns", run_ns)
        .set("wall_ns", report.wall.as_nanos())
        .set("threads", threads)
        .set("tasks", report.tasks)
        .set("busy_ns", st.busy)
        .set("gemm_ns", class_ns(&["GEMM"]))
        .set("sort_ns", class_ns(&["SORT"]))
        .set("reduce_ns", class_ns(&["REDUCE"]))
        .set("read_ns", class_ns(&["READ_A", "READ_B"]))
        .set("write_ns", class_ns(&["WRITE_C"]))
        .set(
            "self_overlap",
            u8::from(report.trace.find_overlap().is_some()),
        )
        .set("local_steals", report.steal.local_steals)
        .set("external_tasks", report.steal.external_tasks)
        .set("steal_probes", run.steal.probes_sent)
        .set("donated", run.steal.donated_chains)
        .set("stolen", run.steal.stolen_chains)
        .set("ga_remote_get", g1[0] - g0[0])
        .set("ga_local", g1[1] - g0[1])
        .set("cache_hits", g1[2] - g0[2])
        .set("cache_misses", g1[3] - g0[3])
        .set("cache_invals", g1[4] - g0[4])
        .set("msgs_tx", s1.msgs_tx - s0.msgs_tx)
        .set("bytes_tx", s1.bytes_tx - s0.bytes_tx)
        .set("multi_gets", s1.multi_gets - s0.multi_gets)
        .set("multi_parts", s1.multi_parts - s0.multi_parts)
        .set("eager", s1.eager_payloads - s0.eager_payloads)
        .set("rndv", s1.rndv_payloads - s0.rndv_payloads)
        .set("comm_ns", overlap.0)
        .set("overlapped_ns", overlap.1)
        .set("reconcile_bad", reconcile_bad)
        .set_list("lat_ns", &lat)
        .set_list("barrier_ns", &barrier_ns)
        .set_list("rtt_ns", &rtt_ns)
}

/// The wire id of a global array. `GaHandle` keeps its index private
/// but prints it, and full-mesh arrays use the index as their wire id.
fn array_id(h: &global_arrays::GaHandle) -> u32 {
    format!("{h:?}")
        .trim_start_matches("GaHandle(")
        .trim_end_matches(')')
        .parse()
        .expect("GaHandle prints its index")
}

// -------------------------------------------------------------- client

/// Per-solve observations of one traced solve, summed over ranks.
#[derive(Default)]
struct Traced {
    n: usize,
    sum: std::collections::BTreeMap<String, f64>,
    /// Per solve: slowest rank's build and run time.
    build_ns: Vec<f64>,
    run_ns: Vec<f64>,
    lat_ns: Vec<f64>,
    barrier_ns: Vec<f64>,
    rtt_ns: Vec<f64>,
}

impl Traced {
    fn add(&mut self, replies: &[Msg]) {
        self.n += 1;
        for m in replies {
            for (k, v) in &m.kv {
                if let Ok(x) = v.parse::<f64>() {
                    *self.sum.entry(k.clone()).or_default() += x;
                }
            }
            self.lat_ns.extend(m.list("lat_ns"));
            self.barrier_ns.extend(m.list("barrier_ns"));
            self.rtt_ns.extend(m.list("rtt_ns"));
        }
        let max = |k: &str| replies.iter().map(|m| m.f(k)).fold(0.0, f64::max);
        self.build_ns.push(max("build_ns"));
        self.run_ns.push(max("run_ns"));
    }

    fn total(&self, k: &str) -> f64 {
        self.sum.get(k).copied().unwrap_or(0.0)
    }

    /// Mean over traced solves of a rank-summed counter.
    fn per_solve(&self, k: &str) -> f64 {
        ratio(self.total(k), self.n as f64)
    }
}

/// Client side of a ccsd workload.
pub fn run(args: &Args, deadline: Instant) -> Result<Outcome, String> {
    let sh = shape(args);
    let cfg = sh.class.draw(&mut Rng::new(args.seed).fork(1));
    let ins = geom::inspect(&cfg, sh.ranks);
    let work = geom::gemm_work(&ins);
    let e_ref = args.reference(&cfg);

    let mut out = Outcome::default();
    let (mut setup_s, mut rss_mb, mut attach_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut solve_s, mut job_ms, mut untraced_s) = (Vec::new(), Vec::new(), Vec::new());
    // Rates are per round; the median round is reported.
    let (mut round_rate, mut round_gflops) = (Vec::new(), Vec::new());
    let mut tr = Traced::default();
    let (mut stale, mut retries, mut timeouts, mut dups) = (0.0, 0.0, 0.0, 0.0);

    for round in 0..ROUNDS {
        // The last round of a traced run arms the tile cache's stale-read
        // check; it re-fetches every hit, so it feeds no timing metric.
        let verify = args.trace && round == ROUNDS - 1;
        let launch = Instant::now();
        let mut procs = Vec::new();
        for r in 0..sh.ranks {
            let mut a: Vec<String> = [
                "--role",
                "ccsd",
                "--rank",
                &r.to_string(),
                "--nranks",
                &sh.ranks.to_string(),
                "--port",
                &port_base(round).to_string(),
                "--threads",
                &sh.threads.to_string(),
                "--geom",
                &geom::encode(&cfg),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            if verify {
                a.push("--verify-reads".into());
            }
            procs.push(RankProc::spawn(r, &a)?);
        }
        let ready: Vec<Msg> = procs
            .iter()
            .map(|p| p.expect("ready", deadline))
            .collect::<Result<_, _>>()?;
        setup_s.push(launch.elapsed().as_secs_f64());
        attach_ms.push(ready.iter().map(|m| m.f("attach_ns")).fold(0.0, f64::max) / 1e6);
        out.check(ready[0].energy("energy"), &e_ref, "warm-up solve");

        let t0 = Instant::now();
        let (mut i, mut round_solve_s) = (0usize, 0.0);
        while t0.elapsed() < args.round_seconds() || i == 0 {
            let traced = args.trace && !verify && i % 2 == 1;
            let cmd = if traced { "tsolve" } else { "solve" };
            let tj = Instant::now();
            for p in procs.iter_mut() {
                p.send(cmd)?;
            }
            let replies: Vec<Msg> = procs
                .iter()
                .map(|p| p.expect(cmd, deadline))
                .collect::<Result<_, _>>()?;
            let lat = tj.elapsed().as_secs_f64();
            out.check(replies[0].energy("energy"), &e_ref, cmd);
            let wall = if traced {
                tr.add(&replies);
                let last = tr.n - 1;
                (tr.build_ns[last] + tr.run_ns[last]) / 1e9
            } else {
                replies.iter().map(|m| m.f("wall_ns")).fold(0.0, f64::max) / 1e9
            };
            if !verify {
                round_solve_s += wall;
                solve_s.push(wall);
                job_ms.push(lat * 1e3);
                if !traced {
                    untraced_s.push(wall);
                }
            }
            i += 1;
        }
        if !verify {
            round_rate.push(i as f64 / t0.elapsed().as_secs_f64());
            round_gflops.push(ratio(work.flops * i as f64, round_solve_s) / 1e9);
        }
        for p in procs.iter_mut() {
            p.send("stop")?;
        }
        let ends: Vec<Msg> = procs
            .iter()
            .map(|p| p.expect("end", deadline))
            .collect::<Result<_, _>>()?;
        for p in procs {
            p.finish(Duration::from_secs(20))?;
        }
        rss_mb.push(ends.iter().map(|m| m.f("peak_rss_kb")).fold(0.0, f64::max) / 1024.0);
        for m in &ends {
            stale += m.f("stale_reads");
            retries += m.f("retries");
            timeouts += m.f("timeouts");
            dups += m.f("dup_replies");
            if m.u("reconcile_bad") > 0 {
                out.problems.push(format!(
                    "{} traced solves: GA remote get bytes != comm get_req_bytes",
                    m.u("reconcile_bad")
                ));
            }
        }
    }

    let (tail_s, _) = stats::windowed_tail(&solve_s);
    let (tail_ms, _) = stats::windowed_tail(&job_ms);
    out.set("setup_s", median(&setup_s));
    out.set("solve_s_p50", median(&solve_s));
    out.set("bench.solve_s_tail", tail_s);
    out.set("solve_gflops", median(&round_gflops));
    out.set("job_ms_p50", median(&job_ms));
    out.set("bench.job_ms_tail", tail_ms);
    out.set("jobs_per_s", median(&round_rate));
    out.set("peak_rss_mb", median(&rss_mb));
    eprintln!(
        "# {:?} seed {}: geometry {}\n#   job_ms {}\n#   solve_s {}",
        args.workload,
        args.seed,
        geom::encode(&cfg),
        stats::describe(&job_ms),
        stats::describe(&solve_s)
    );

    if args.trace {
        if tr.total("donated") != tr.total("stolen") {
            out.problems
                .push("donated chains != stolen chains summed over ranks".into());
        }
        if tr.total("self_overlap") > 0.0 {
            out.problems
                .push("a worker row overlaps itself in a traced solve".into());
        }
        layer_metrics(&mut out, &tr, &cfg, sh.ranks, work);
        out.set("ccsd.attach_ms", median(&attach_ms));
        out.set("ga.stale_reads", stale);
        out.set("comm.retries", retries);
        out.set("comm.timeouts", timeouts);
        out.set("comm.dup_replies", dups);
        let traced_s: Vec<f64> = tr
            .build_ns
            .iter()
            .zip(&tr.run_ns)
            .map(|(b, r)| (b + r) / 1e9)
            .collect();
        out.set(
            "bench.trace_overhead_frac",
            ratio(median(&traced_s), median(&untraced_s)) - 1.0,
        );
    }
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    tr: &Traced,
    cfg: &tce::SpaceConfig,
    ranks: usize,
    work: geom::GemmWork,
) {
    let ms = |k: &str| tr.per_solve(k) / 1e6;
    out.set("tensor.gemm_gflop", work.flops / 1e9);
    out.set("tensor.gemm_flop_per_byte", ratio(work.flops, work.bytes));
    out.set("tensor.gemm_busy_ms", ms("gemm_ns"));
    out.set(
        "tensor.gemm_gflops",
        ratio(work.flops, tr.per_solve("gemm_ns")),
    );
    out.set("tensor.sort_busy_ms", ms("sort_ns"));
    out.set("tensor.reduce_busy_ms", ms("reduce_ns"));
    out.set("runtime.tasks", tr.per_solve("tasks"));
    out.set("runtime.read_busy_ms", ms("read_ns"));
    out.set("runtime.write_busy_ms", ms("write_ns"));
    // Worker capacity is threads x engine wall, per rank.
    let capacity: f64 = tr.per_solve("wall_ns") * tr.per_solve("threads") / ranks as f64;
    out.set(
        "runtime.idle_frac",
        1.0 - ratio(tr.per_solve("busy_ns"), capacity),
    );
    out.set("runtime.local_steals", tr.per_solve("local_steals"));
    out.set("runtime.external_tasks", tr.per_solve("external_tasks"));
    out.set("ccsd.graph_build_ms", stats::mean(&tr.build_ns) / 1e6);
    out.set("ccsd.run_ms", stats::mean(&tr.run_ns) / 1e6);
    out.set("ccsd.steal_requests", tr.per_solve("steal_probes"));
    out.set("ccsd.chains_donated", tr.per_solve("donated"));
    out.set("ccsd.chains_stolen", tr.per_solve("stolen"));
    let inspect_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let _ = geom::inspect(cfg, ranks);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("tce.inspect_ms", median(&inspect_ms));
    out.set("tce.chains", work.chains as f64);
    out.set("tce.gemms", work.gemms as f64);
    out.set("ga.remote_get_bytes", tr.per_solve("ga_remote_get"));
    out.set("ga.local_bytes", tr.per_solve("ga_local"));
    let hits = tr.total("cache_hits");
    out.set(
        "ga.cache_hit_rate",
        ratio(hits, hits + tr.total("cache_misses")),
    );
    out.set("ga.cache_invalidations", tr.per_solve("cache_invals"));
    out.set("comm.msgs_tx", tr.per_solve("msgs_tx"));
    out.set("comm.bytes_tx", tr.per_solve("bytes_tx"));
    out.set(
        "comm.multi_get_occupancy",
        ratio(tr.total("multi_parts"), tr.total("multi_gets")),
    );
    out.set(
        "comm.rndv_share",
        ratio(tr.total("rndv"), tr.total("rndv") + tr.total("eager")),
    );
    out.set("comm.get_us_p50", median(&tr.lat_ns) / 1e3);
    out.set("comm.get_us_tail", stats::windowed_tail(&tr.lat_ns).0 / 1e3);
    out.set(
        "comm.overlap_frac",
        ratio(tr.total("overlapped_ns"), tr.total("comm_ns")),
    );
    out.set("comm.barrier_us_p50", median(&tr.barrier_ns) / 1e3);
    out.set("comm.get_rtt_us_p50", median(&tr.rtt_ns) / 1e3);
}
