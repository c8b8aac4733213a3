//! `svc_stream`: closed-loop tenants on a 2-rank socket job service.
//!
//! Rank 0 hosts the gateway and two tenant threads. Each tenant submits
//! one small job (1-rank gang, 1 worker, v5 and v3 alternating), waits
//! for its energy, and submits the next, as a CC iteration does.
//! Geometries come from a seeded pool that set-up warms into both
//! ranks' plan caches; a stated share of jobs take a fresh geometry
//! instead, which misses the plan cache and pays the inspection and
//! plan build. All geometries and their reference energies are drawn
//! by the client before the ranks launch.

use crate::geom::{self, GemmWork, GeomClass, Rng, KERNELS};
use crate::metrics::Outcome;
use crate::proto::{energy_field, Msg, RankProc};
use crate::stats::{self, median, ratio};
use crate::{arg, port_base, Args, ROUNDS};
use comm::SocketTransport;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use svc::{Client, JobSpec, JobState, RankDaemon, SvcConfig, Variant};
use tce::SpaceConfig;

const RANKS: usize = 2;
const TENANTS: u32 = 2;
/// Geometries the tenants revisit.
const POOL: usize = 8;
/// Share of jobs that draw a fresh geometry (a plan-cache miss).
const FRESH_SHARE: f64 = 0.05;
/// Fresh geometries prepared per run; a round that uses them all
/// falls back to the pool for the rest of the round.
const FRESH: usize = 400;
/// Plan-cache budget per 1-rank gang: the pool stays resident while
/// least-recently-used fresh plans are evicted, so rank memory does not
/// grow with the number of misses.
const PLAN_ENTRIES: usize = 2 * POOL;
/// `Client::wait`'s poll interval, mirrored by the counting poll loop.
const POLL: Duration = Duration::from_micros(300);
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

fn class(args: &Args) -> GeomClass {
    GeomClass {
        base: if args.tiny {
            tce::scale::tiny()
        } else {
            tce::scale::small()
        },
        gflop: 0.00028,
        tensor_mb: 0.114,
        gemms: 166.0,
        tol: if args.tiny { f64::INFINITY } else { 0.05 },
    }
}

fn job(tenant: u32, space: &SpaceConfig, n: u64) -> JobSpec {
    JobSpec {
        tenant,
        space: space.clone(),
        kernels: KERNELS.to_vec(),
        variant: if (n + tenant as u64).is_multiple_of(2) {
            Variant::V5
        } else {
            Variant::V3
        },
        threads: 1,
        prefetch: true,
        ranks: 1,
    }
}

fn geoms(s: &str) -> Vec<SpaceConfig> {
    s.split(';').filter_map(geom::decode).collect()
}

// ---------------------------------------------------------------- rank

/// Counter readings a rank reports as deltas over the timed phase.
fn counters(d: &RankDaemon) -> [u64; 15] {
    let s = d.endpoint().stats();
    let g = d.ga_stats();
    [
        s.msgs_tx,
        s.bytes_tx,
        s.multi_gets,
        s.multi_parts,
        s.eager_payloads,
        s.rndv_payloads,
        s.retries,
        s.timeouts,
        s.dup_replies,
        g.remote_get_bytes(),
        g.local_bytes(),
        g.cache_hits() + g.cache_joins(),
        g.cache_misses(),
        g.cache_invalidations(),
        g.stale_reads(),
    ]
}

const COUNTER_NAMES: [&str; 15] = [
    "msgs_tx",
    "bytes_tx",
    "multi_gets",
    "multi_parts",
    "eager",
    "rndv",
    "retries",
    "timeouts",
    "dup_replies",
    "ga_remote_get",
    "ga_local",
    "cache_hits",
    "cache_misses",
    "cache_invals",
    "stale_reads",
];

/// Rank mode. Rank 0 runs the tenants on `run <ms> <trace>`; rank 1
/// marks its counters on `mark` and serves until the gateway halts.
pub fn rank_main(a: &[String]) -> Result<(), String> {
    let rank: usize = arg(a, "--rank")
        .and_then(|v| v.parse().ok())
        .ok_or("bad --rank")?;
    let port: u16 = arg(a, "--port")
        .and_then(|v| v.parse().ok())
        .ok_or("bad --port")?;
    let transport = SocketTransport::connect(rank, RANKS, port, Duration::from_secs(60))
        .map_err(|e| format!("rank {rank}: connect: {e}"))?;
    let mut cfg = SvcConfig::default();
    cfg.plan_cache.max_entries = PLAN_ENTRIES;
    cfg.cache.verify_reads = a.iter().any(|x| x == "--verify-reads");
    let t_gw = Instant::now();
    let d = Arc::new(RankDaemon::new(Box::new(transport), cfg));
    let runner = {
        let d = d.clone();
        std::thread::spawn(move || d.run())
    };
    let mut line = String::new();
    let stdin = std::io::stdin();
    let c0 = if rank != 0 {
        Msg::new("ready").emit();
        stdin.read_line(&mut line).map_err(|e| e.to_string())?;
        // Serving ends with the gateway's halt; should the client die
        // first, its closed stdin ends this rank instead. Not joined: the
        // thread either ends the process or is still blocked at its exit.
        std::thread::spawn(|| {
            let _ = std::io::stdin().read_line(&mut String::new());
            std::process::exit(0);
        });
        let _ = d.endpoint().take_latencies();
        counters(&d)
    } else {
        let pool = geoms(arg(a, "--pool").unwrap_or(""));
        let fresh = geoms(arg(a, "--fresh").unwrap_or(""));
        let warm = warm_up(&d.client(), &pool);
        Msg::new("ready").set_list("energies", &warm).emit();
        stdin.read_line(&mut line).map_err(|e| e.to_string())?;
        let mut words = line.split_whitespace().skip(1);
        let ms: u64 = words.next().and_then(|v| v.parse().ok()).ok_or("bad run")?;
        let traced = words.next() == Some("1");
        let _ = d.endpoint().take_latencies();
        let c0 = counters(&d);
        let gw = d.gateway().expect("rank 0 hosts the gateway").clone();
        let u0 = (gw.utilization(), t_gw.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let samples = tenants(
            &d.client(),
            &pool,
            &fresh,
            Duration::from_millis(ms),
            traced,
        );
        let dur = t0.elapsed().as_secs_f64();
        let u1 = (gw.utilization(), t_gw.elapsed().as_secs_f64());
        let busy: Vec<f64> = (0..RANKS)
            .map(|r| (u1.0[r] * u1.1 - u0.0[r] * u0.1) / dur)
            .collect();
        let ids: BTreeSet<u64> = samples.iter().filter_map(|s| s.id).collect();
        for s in &samples {
            Msg::new("job")
                .set("geom", &s.geom)
                .set("id", s.id.map_or(-1, |i| i as i64))
                .set("submit_ns", s.submit_ns)
                .set("lat_ns", s.lat_ns)
                .set("energy", energy_field(s.energy))
                .set("polls", s.polls)
                .set("traced", u8::from(s.traced))
                .emit();
        }
        for m in d.job_report().iter().filter(|m| ids.contains(&m.job_id)) {
            Msg::new("meta")
                .set("id", m.job_id)
                .set("queue_ns", m.dispatched_ns.saturating_sub(m.submitted_ns))
                .set("exec_ns", m.done_ns.saturating_sub(m.dispatched_ns))
                .set("gw_ns", m.done_ns.saturating_sub(m.submitted_ns))
                .emit();
        }
        Msg::new("phase")
            .set("dur_s", dur)
            .set("rank_util", stats::mean(&busy))
            .emit();
        d.client().halt();
        c0
    };
    runner.join().map_err(|_| "executor panicked")?;
    for r in d.records() {
        Msg::new("rec")
            .set("id", r.job_id)
            .set("hit", u8::from(r.plan_hit))
            .set("build_ns", r.build_ns)
            .set("run_ns", r.run_ns)
            .set("energy", energy_field(r.energy))
            .set("steal_probes", r.steal.probes_sent)
            .set("donated", r.steal.donated_chains)
            .set("stolen", r.steal.stolen_chains)
            .emit();
    }
    let c1 = counters(&d);
    let mut end = Msg::new("end")
        .set("peak_rss_kb", crate::host::peak_rss_kb())
        .set_list("lat_ns", &d.endpoint().take_latencies());
    for (i, name) in COUNTER_NAMES.iter().enumerate() {
        end = end.set(name, c1[i] - c0[i]);
    }
    end.emit();
    d.finish();
    Ok(())
}

/// Build every pool plan on both ranks: two concurrent submissions of
/// one geometry and variant land on the two 1-rank gangs. Returns the
/// energies in pool x variant x copy order.
fn warm_up(client: &Client, pool: &[SpaceConfig]) -> Vec<String> {
    let mut out = Vec::new();
    for g in pool {
        for n in 0..2 {
            let ids: Vec<Option<u64>> = (0..TENANTS)
                .map(|t| client.submit(&job(t, g, n + t as u64)))
                .collect();
            for id in ids {
                let e = id.map(|id| client.wait(id, JOB_TIMEOUT));
                out.push(energy_field(e));
            }
        }
    }
    out
}

struct Sample {
    /// `p<i>` for pool geometry `i`, `f<i>` for fresh geometry `i`.
    geom: String,
    /// `None` when the gateway refused the submission.
    id: Option<u64>,
    submit_ns: u64,
    lat_ns: u64,
    energy: Option<f64>,
    polls: u64,
    traced: bool,
}

/// Closed-loop tenants until `dur` has passed (each finishes its job in
/// flight). In a traced phase every other job is awaited by a counting
/// poll loop instead of `Client::wait`.
fn tenants(
    client: &Client,
    pool: &[SpaceConfig],
    fresh: &[SpaceConfig],
    dur: Duration,
    traced: bool,
) -> Vec<Sample> {
    let next_fresh = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..TENANTS {
            let (client, next_fresh, out) = (client.clone(), &next_fresh, &out);
            s.spawn(move || {
                let mut rng = Rng::new(pool[0].seed).fork(100 + t as u64);
                let mut n = 0u64;
                while t0.elapsed() < dur || n == 0 {
                    let pick = rng.next_u64() as usize % pool.len();
                    let want_fresh = rng.next_f64() < FRESH_SHARE;
                    let f = if want_fresh {
                        next_fresh.fetch_add(1, Ordering::Relaxed)
                    } else {
                        usize::MAX
                    };
                    let (label, g) = match fresh.get(f) {
                        Some(g) => (format!("f{f}"), g),
                        None => (format!("p{pick}"), &pool[pick]),
                    };
                    let counting = traced && n.is_multiple_of(2);
                    let start = Instant::now();
                    let id = client.submit(&job(t, g, n));
                    let submit_ns = start.elapsed().as_nanos() as u64;
                    let (energy, polls) = match id {
                        None => (None, 0),
                        Some(id) if counting => wait_counting(&client, id),
                        Some(id) => (Some(client.wait(id, JOB_TIMEOUT)), 0),
                    };
                    out.lock().expect("a tenant panicked").push(Sample {
                        geom: label,
                        id,
                        submit_ns,
                        lat_ns: start.elapsed().as_nanos() as u64,
                        energy,
                        polls,
                        traced: counting,
                    });
                    n += 1;
                }
            });
        }
    });
    out.into_inner().expect("a tenant panicked")
}

/// `Client::wait` with the status polls counted.
fn wait_counting(client: &Client, id: u64) -> (Option<f64>, u64) {
    let t0 = Instant::now();
    let mut polls = 0;
    while t0.elapsed() < JOB_TIMEOUT {
        polls += 1;
        let (state, bits) = client.status(id);
        if state == JobState::Done {
            return (Some(f64::from_bits(bits)), polls);
        }
        std::thread::sleep(POLL);
    }
    (None, polls)
}

// -------------------------------------------------------------- client

struct Geom {
    cfg: SpaceConfig,
    e_ref: geom::Reference,
    work: GemmWork,
}

fn prepare(args: &Args, class: &GeomClass, rng: &mut Rng, n: usize) -> Vec<Geom> {
    (0..n)
        .map(|_| {
            let cfg = class.draw(rng);
            Geom {
                e_ref: args.reference(&cfg),
                work: geom::gemm_work(&geom::inspect(&cfg, 1)),
                cfg,
            }
        })
        .collect()
}

fn joined(g: &[Geom]) -> String {
    g.iter()
        .map(|g| geom::encode(&g.cfg))
        .collect::<Vec<_>>()
        .join(";")
}

/// Client side of `svc_stream`.
pub fn run(args: &Args, deadline: Instant) -> Result<Outcome, String> {
    let class = class(args);
    let root = Rng::new(args.seed);
    let pool = prepare(args, &class, &mut root.fork(1), POOL);
    let fresh = prepare(
        args,
        &class,
        &mut root.fork(2),
        if args.tiny { 16 } else { FRESH },
    );
    let geom_of = |label: &str| -> Option<&Geom> {
        let i: usize = label.get(1..)?.parse().ok()?;
        match label.as_bytes().first()? {
            b'p' => pool.get(i),
            b'f' => fresh.get(i),
            _ => None,
        }
    };

    let mut out = Outcome::default();
    let (mut setup_s, mut rss_mb, mut util) = (vec![], vec![], vec![]);
    // Rates are per round; the median round is reported.
    let (mut round_rate, mut round_gflops) = (vec![], vec![]);
    let (mut job_ms, mut traced_ms, mut untraced_ms) = (vec![], vec![], vec![]);
    let (mut submit_us, mut polls) = (vec![], vec![]);
    let (mut queue_ms, mut exec_ms, mut gap_ms) = (vec![], vec![], vec![]);
    let (mut run_s, mut build_miss_ms, mut hits) = (vec![], vec![], 0usize);
    let (mut flops, mut bytes, mut chains, mut gemms) = (0.0, 0.0, 0.0, 0.0);
    let mut lat_ns = Vec::new();
    let mut sum: BTreeMap<String, f64> = BTreeMap::new();
    let mut steal = [0.0; 3];

    for round in 0..ROUNDS {
        let verify = args.trace && round == ROUNDS - 1;
        let launch = Instant::now();
        let mut procs = Vec::new();
        for r in 0..RANKS {
            let mut a: Vec<String> = ["--role", "svc", "--rank", &r.to_string()]
                .iter()
                .map(|s| s.to_string())
                .collect();
            a.extend(["--port".into(), port_base(round).to_string()]);
            if r == 0 {
                a.extend(["--pool".into(), joined(&pool)]);
                a.extend(["--fresh".into(), joined(&fresh)]);
            }
            if verify {
                a.push("--verify-reads".into());
            }
            procs.push(RankProc::spawn(r, &a)?);
        }
        procs[1].expect("ready", deadline)?;
        let ready = procs[0].expect("ready", deadline)?;
        setup_s.push(launch.elapsed().as_secs_f64());
        let warm = ready.s("energies").split(',').collect::<Vec<_>>();
        for (i, e) in warm.iter().enumerate() {
            let e = u64::from_str_radix(e, 16).ok().map(f64::from_bits);
            out.check(e, &pool[i / (2 * TENANTS as usize)].e_ref, "warm-up job");
        }
        procs[1].send("mark")?;
        let ms = args.round_seconds().as_millis();
        procs[0].send(&format!("run {ms} {}", u8::from(args.trace && !verify)))?;

        let mut timed: BTreeMap<u64, (&Geom, f64)> = BTreeMap::new();
        let mut recs = Vec::new();
        let (mut round_jobs, mut round_dur) = (0.0, 0.0);
        for p in &procs {
            loop {
                let m = p.recv(deadline)?;
                match m.tag.as_str() {
                    "job" => {
                        let Some(g) = geom_of(m.s("geom")) else {
                            out.problems
                                .push(format!("unknown geometry {}", m.s("geom")));
                            continue;
                        };
                        if m.s("id") == "-1" {
                            out.attempted += 1;
                            out.fail("the gateway refused a submission".into());
                            continue;
                        }
                        out.check(m.energy("energy"), &g.e_ref, "job");
                        let lat = m.f("lat_ns") / 1e6;
                        timed.insert(m.u("id"), (g, lat));
                        if verify {
                            continue;
                        }
                        job_ms.push(lat);
                        round_jobs += 1.0;
                        submit_us.push(m.f("submit_ns") / 1e3);
                        if m.u("traced") == 1 {
                            traced_ms.push(lat);
                            polls.push(m.f("polls"));
                        } else {
                            untraced_ms.push(lat);
                        }
                        flops += g.work.flops;
                        bytes += g.work.bytes;
                        chains += g.work.chains as f64;
                        gemms += g.work.gemms as f64;
                    }
                    "meta" if !verify => {
                        queue_ms.push(m.f("queue_ns") / 1e6);
                        exec_ms.push(m.f("exec_ns") / 1e6);
                        if let Some((_, lat)) = timed.get(&m.u("id")) {
                            gap_ms.push(lat - m.f("gw_ns") / 1e6);
                        }
                    }
                    "phase" if !verify => {
                        round_dur = m.f("dur_s");
                        util.push(m.f("rank_util"));
                    }
                    "rec" => recs.push(m),
                    "end" => {
                        rss_mb.push(m.f("peak_rss_kb") / 1024.0);
                        for (k, v) in &m.kv {
                            if let Ok(x) = v.parse::<f64>() {
                                if !verify || k == "stale_reads" {
                                    *sum.entry(k.clone()).or_default() += x;
                                }
                            }
                        }
                        if !verify {
                            lat_ns.extend(m.list("lat_ns"));
                        }
                        break;
                    }
                    _ => {}
                }
            }
        }
        for p in procs {
            p.finish(Duration::from_secs(20))?;
        }
        let (mut round_flops, mut round_run_s) = (0.0, 0.0);
        for r in recs.iter().filter(|r| timed.contains_key(&r.u("id"))) {
            let (g, _) = timed[&r.u("id")];
            out.recheck(r.energy("energy"), &g.e_ref, "job record");
            if verify {
                continue;
            }
            run_s.push(r.f("run_ns") / 1e9);
            round_run_s += r.f("run_ns") / 1e9;
            round_flops += g.work.flops;
            if r.u("hit") == 1 {
                hits += 1;
            } else {
                build_miss_ms.push(r.f("build_ns") / 1e6);
            }
            steal[0] += r.f("steal_probes");
            steal[1] += r.f("donated");
            steal[2] += r.f("stolen");
        }
        if !verify {
            round_rate.push(ratio(round_jobs, round_dur));
            round_gflops.push(ratio(round_flops, round_run_s) / 1e9);
        }
    }

    let per_round_rss: Vec<f64> = rss_mb
        .chunks(RANKS)
        .map(|c| c.iter().copied().fold(0.0, f64::max))
        .collect();
    let jobs = job_ms.len() as f64;
    out.set("setup_s", median(&setup_s));
    out.set("solve_s_p50", median(&run_s));
    out.set("bench.solve_s_tail", stats::windowed_tail(&run_s).0);
    out.set("solve_gflops", median(&round_gflops));
    out.set("job_ms_p50", median(&job_ms));
    out.set("bench.job_ms_tail", stats::windowed_tail(&job_ms).0);
    out.set("jobs_per_s", median(&round_rate));
    out.set("peak_rss_mb", median(&per_round_rss));
    eprintln!(
        "# svc_stream seed {}: {} plan misses\n#   job_ms {}\n#   solve_s {}",
        args.seed,
        build_miss_ms.len(),
        stats::describe(&job_ms),
        stats::describe(&run_s)
    );
    if args.trace {
        let total = |k: &str| sum.get(k).copied().unwrap_or(0.0);
        let per_job = |k: &str| ratio(total(k), jobs);
        out.set("tensor.gemm_gflop", ratio(flops, jobs) / 1e9);
        out.set("tensor.gemm_flop_per_byte", ratio(flops, bytes));
        out.set("ccsd.run_ms", stats::mean(&run_s) * 1e3);
        out.set("ccsd.steal_requests", ratio(steal[0], jobs));
        out.set("ccsd.chains_donated", ratio(steal[1], jobs));
        out.set("ccsd.chains_stolen", ratio(steal[2], jobs));
        if steal[1] != steal[2] {
            out.problems
                .push("donated chains != stolen chains summed over ranks".into());
        }
        let inspect_ms: Vec<f64> = pool
            .iter()
            .map(|g| {
                let t = Instant::now();
                let _ = geom::inspect(&g.cfg, 1);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("tce.inspect_ms", median(&inspect_ms));
        out.set("tce.chains", ratio(chains, jobs));
        out.set("tce.gemms", ratio(gemms, jobs));
        out.set("ga.remote_get_bytes", per_job("ga_remote_get"));
        out.set("ga.local_bytes", per_job("ga_local"));
        let h = total("cache_hits");
        out.set("ga.cache_hit_rate", ratio(h, h + total("cache_misses")));
        out.set("ga.cache_invalidations", per_job("cache_invals"));
        out.set("ga.stale_reads", total("stale_reads"));
        out.set("comm.msgs_tx", per_job("msgs_tx"));
        out.set("comm.bytes_tx", per_job("bytes_tx"));
        out.set(
            "comm.multi_get_occupancy",
            ratio(total("multi_parts"), total("multi_gets")),
        );
        out.set(
            "comm.rndv_share",
            ratio(total("rndv"), total("rndv") + total("eager")),
        );
        out.set("comm.get_us_p50", median(&lat_ns) / 1e3);
        out.set("comm.get_us_tail", stats::windowed_tail(&lat_ns).0 / 1e3);
        out.set("comm.retries", total("retries"));
        out.set("comm.timeouts", total("timeouts"));
        out.set("comm.dup_replies", total("dup_replies"));
        out.set("svc.submit_us_p50", median(&submit_us));
        out.set("svc.queue_wait_ms_p50", median(&queue_ms));
        out.set("svc.exec_ms_p50", median(&exec_ms));
        out.set("svc.client_gap_ms_p50", median(&gap_ms));
        out.set("svc.plan_hit_rate", ratio(hits as f64, run_s.len() as f64));
        out.set("svc.plan_build_ms_miss", median(&build_miss_ms));
        out.set("svc.run_ms_p50", median(&run_s) * 1e3);
        out.set("svc.polls_per_job", stats::mean(&polls));
        out.set("svc.rank_util", stats::mean(&util));
        out.set(
            "bench.trace_overhead_frac",
            ratio(median(&traced_ms), median(&untraced_ms)) - 1.0,
        );
    }
    Ok(out)
}
