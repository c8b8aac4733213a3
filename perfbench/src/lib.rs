//! The repository benchmark: distributed CCSD solve time on a 2-rank
//! socket mesh (`ccsd_mesh`) and on one node (`ccsd_node`), and
//! closed-loop latency of the job service (`svc_stream`). See
//! `README.md` beside this crate for the workloads, the metric map, and
//! the baseline.
//!
//! The benchmark drives the program from outside, through public entry
//! points only: `ccsd::DistRank`, `svc::RankDaemon`/`Client`, the
//! `comm` transports, and `tce::inspect_kernels`. Ranks are separate
//! processes (this executable re-launched in rank mode); the launching
//! process is the benchmark's client and never computes.

pub mod ccsd_wl;
pub mod geom;
pub mod host;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod stats;
pub mod svc_wl;

use std::time::{Duration, Instant};

/// Independent rank launches per run. Each round sets up anew
/// (one `setup_s` sample) and measures an equal share of the run;
/// latency samples are pooled, rates are taken per round and the
/// median round is reported.
pub const ROUNDS: usize = 5;

/// A run gives up on unresponsive ranks after this long.
pub const RUN_BUDGET: Duration = Duration::from_secs(170);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CcsdMesh,
    CcsdNode,
    SvcStream,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ccsd_mesh" => Workload::CcsdMesh,
            "ccsd_node" => Workload::CcsdNode,
            "svc_stream" => Workload::SvcStream,
            _ => return None,
        })
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds, split evenly over the rounds.
    pub seconds: f64,
    /// `--trace 1`: report the per-layer metrics instead.
    pub trace: bool,
    /// Tiny geometries and no work band (the self-test's scale).
    pub tiny: bool,
    /// Perturb every reference energy, so every check must fail (the
    /// self-test's proof that mismatches are counted).
    pub bad_reference: bool,
}

impl Args {
    pub fn round_seconds(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / ROUNDS as f64)
    }

    /// Reference energy as the run checks against it.
    pub fn reference(&self, cfg: &tce::SpaceConfig) -> geom::Reference {
        let mut r = geom::reference(cfg);
        if self.bad_reference {
            r.energy += 1e-9 * r.scale;
        }
        r
    }
}

/// Value of a `--key value` argument.
pub fn arg<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Listener ports for one round's ranks: below the kernel's ephemeral
/// range, spread by process id so concurrent invocations do not collide.
pub fn port_base(round: usize) -> u16 {
    let pid = std::process::id() as usize;
    (20_000 + (pid % 1_400) * 8 + round * 2) as u16
}

/// Everything one run measured, host conditions included.
pub fn run(args: &Args) -> Result<metrics::Outcome, String> {
    let deadline = Instant::now() + RUN_BUDGET;
    let cpu0 = host::cpu_times();
    let mut out = match args.workload {
        Workload::CcsdMesh | Workload::CcsdNode => ccsd_wl::run(args, deadline)?,
        Workload::SvcStream => svc_wl::run(args, deadline)?,
    };
    out.set("host.nproc", host::nproc() as f64);
    out.set("host.steal_frac", host::steal_frac(cpu0, host::cpu_times()));
    out.set(
        "bench.failed_frac",
        stats::ratio(out.failed as f64, out.attempted as f64),
    );
    Ok(out)
}
