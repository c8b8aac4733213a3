//! The metrics the benchmark reports, with their units, and the final
//! result line.

use crate::geom::Reference;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s_p50", "s"),
    ("solve_gflops", "GFLOP/s"),
    ("job_ms_p50", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). Per-solve
/// quantities are means over the traced solves (or jobs) of a run. The
/// two latency tails sit here, unbounded, because under varying host
/// steal they spread between runs by more than any allowed bound.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_gflop", "GFLOP"),
    ("tensor.gemm_flop_per_byte", "flop/B"),
    ("tensor.gemm_busy_ms", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.sort_busy_ms", "ms"),
    ("tensor.reduce_busy_ms", "ms"),
    ("runtime.tasks", "count"),
    ("runtime.read_busy_ms", "ms"),
    ("runtime.write_busy_ms", "ms"),
    ("runtime.idle_frac", "ratio"),
    ("runtime.local_steals", "count"),
    ("runtime.external_tasks", "count"),
    ("ccsd.attach_ms", "ms"),
    ("ccsd.graph_build_ms", "ms"),
    ("ccsd.run_ms", "ms"),
    ("ccsd.steal_requests", "count"),
    ("ccsd.chains_donated", "count"),
    ("ccsd.chains_stolen", "count"),
    ("tce.inspect_ms", "ms"),
    ("tce.chains", "count"),
    ("tce.gemms", "count"),
    ("ga.remote_get_bytes", "B"),
    ("ga.local_bytes", "B"),
    ("ga.cache_hit_rate", "ratio"),
    ("ga.cache_invalidations", "count"),
    ("ga.stale_reads", "count"),
    ("comm.msgs_tx", "count"),
    ("comm.bytes_tx", "B"),
    ("comm.multi_get_occupancy", "count"),
    ("comm.rndv_share", "ratio"),
    ("comm.get_us_p50", "us"),
    ("comm.get_us_tail", "us"),
    ("comm.overlap_frac", "ratio"),
    ("comm.retries", "count"),
    ("comm.timeouts", "count"),
    ("comm.dup_replies", "count"),
    ("comm.barrier_us_p50", "us"),
    ("comm.get_rtt_us_p50", "us"),
    ("svc.submit_us_p50", "us"),
    ("svc.queue_wait_ms_p50", "ms"),
    ("svc.exec_ms_p50", "ms"),
    ("svc.client_gap_ms_p50", "ms"),
    ("svc.plan_hit_rate", "ratio"),
    ("svc.plan_build_ms_miss", "ms"),
    ("svc.run_ms_p50", "ms"),
    ("svc.polls_per_job", "count"),
    ("svc.rank_util", "ratio"),
    ("host.nproc", "count"),
    ("host.steal_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
    ("bench.solve_s_tail", "s"),
    ("bench.job_ms_tail", "ms"),
];

/// Energies must match the single-process reference this closely,
/// relative to the reference's scale (see [`Reference::scale`]).
pub const ENERGY_TOL: f64 = 1e-12;

fn energy_matches(e: Option<f64>, r: &Reference, what: &str) -> Result<(), String> {
    match e {
        Some(e) if (e - r.energy).abs() < ENERGY_TOL * r.scale => Ok(()),
        Some(e) => Err(format!(
            "{what}: energy {e} vs reference {} (scale {})",
            r.energy, r.scale
        )),
        None => Err(format!("{what}: no energy reported")),
    }
}

/// What one run measured: operation counts, correctness, and metric
/// values by name (metrics a workload does not exercise stay 0).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks beyond energies: counter reconciliation, trace sanity.
    pub problems: Vec<String>,
    /// Largest energy difference seen, relative to the reference
    /// energy itself (reported, not checked).
    pub worst_rel: f64,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, v);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Count one operation, failed unless its energy matches the
    /// reference.
    pub fn check(&mut self, e: Option<f64>, r: &Reference, what: &str) {
        self.attempted += 1;
        if let Some(e) = e {
            self.worst_rel = self.worst_rel.max(crate::stats::rel_diff(e, r.energy));
        }
        if let Err(why) = energy_matches(e, r, what) {
            self.fail(why);
        }
    }

    /// Check a second report of an already counted operation's energy;
    /// a mismatch is a problem rather than a second failure.
    pub fn recheck(&mut self, e: Option<f64>, r: &Reference, what: &str) {
        if let Err(why) = energy_matches(e, r, what) {
            self.problems.push(why);
        }
    }

    /// The result line: every metric of `table` with its unit.
    pub fn json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
