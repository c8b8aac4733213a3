//! One rank of a real multi-rank CCSD execution.
//!
//! The simulated cluster engine models a distributed run inside one
//! process; this module *is* a distributed run: every rank owns a shard
//! of each Global Array (the `comm` crate's one-sided progress engine),
//! materializes only its round-robin share of the chains, and executes
//! them on its own native work-stealing engine. Cross-rank traffic is
//! exactly the application's: reader gets pulled from owner shards —
//! asynchronously, through the priority-driven prefetch pipeline, when
//! `prefetch` is on — and `WRITE_C` accumulates pushed to owner shards.
//!
//! The driver is collective throughout: every rank constructs a
//! [`DistRank`] over its transport and calls the same methods in the same
//! order, like an SPMD MPI program.

use crate::ctx::VariantCfg;
use crate::steal::{ChainSource, PrefetchFn, StealConfig, StealSummary};
use crate::variants::build_graph_external;
use comm::{CommConfig, Endpoint, Transport};
use global_arrays::{DistStore, Ga, GangView, TileCacheConfig};
use parsec_rt::{NativeReport, NativeRuntime, SchedPolicy, TilePool};
use ptg::TaskGraph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tce::{Inspection, Kernel, TileSpace, Workspace};

/// Outcome of one collective variant execution on one rank.
pub struct DistRun {
    /// The correlation-energy surrogate, computed on the gang leader
    /// only — logical node 0, i.e. rank 0 for a full-mesh run — (the
    /// other members return `None`); gathered over the wire from every
    /// member's output shard.
    pub energy: Option<f64>,
    /// This rank's engine report (worker spans on the shared comm
    /// timeline, tagged with this rank's node id).
    pub report: NativeReport,
    /// Cross-rank steal activity of this run on this rank.
    pub steal: StealSummary,
}

/// One rank of a distributed CCSD execution: comm endpoint, GA shards,
/// workspace, and the tile pool reused across runs.
pub struct DistRank {
    ep: Arc<Endpoint>,
    ins: Arc<Inspection>,
    ws: Arc<Workspace>,
    pool: Arc<TilePool>,
    /// Collective run counter: every rank calls the collective methods
    /// in the same order, so the counter agrees across ranks and tags
    /// each native run's steal epoch (a victim still in run `N` answers
    /// a run-`N+1` thief dry instead of donating the wrong graph's
    /// chains). Shared (`Arc`) so a daemon hosting several attached
    /// problem instances over one endpoint draws every run — whichever
    /// instance it executes — from a single monotone sequence; per-
    /// instance counters would collide and let a late thief of job A's
    /// run `N` receive chains from job B's run `N`.
    run_epoch: Arc<AtomicU64>,
}

impl DistRank {
    /// Collectively materialize the problem over `transport`'s ranks:
    /// shard stores, the progress engine, deterministic tensor fills
    /// (each rank writes what it owns), and the inspection metadata.
    pub fn new(transport: Box<dyn Transport>, space: &TileSpace, kernels: &[Kernel]) -> Self {
        Self::with_configs(
            transport,
            space,
            kernels,
            CommConfig::default(),
            TileCacheConfig::default(),
        )
    }

    /// Fully explicit construction: comm configuration (eager threshold,
    /// in-flight get caps) plus tile-cache configuration (resize it, or
    /// arm `verify_reads` for the chaos zero-stale-read gates).
    pub fn with_configs(
        transport: Box<dyn Transport>,
        space: &TileSpace,
        kernels: &[Kernel],
        cfg: CommConfig,
        cache_cfg: TileCacheConfig,
    ) -> Self {
        let (rank, nranks) = (transport.rank(), transport.nranks());
        let store = DistStore::new(rank, nranks);
        let ep = Endpoint::spawn(transport, store.clone(), cfg);
        let ga = Ga::init_dist_cfg(ep.clone(), store, cache_cfg);
        Self::attach(
            ep,
            ga,
            space,
            kernels,
            Arc::new(TilePool::default()),
            Arc::new(AtomicU64::new(0)),
        )
    }

    /// Collectively materialize *another* problem instance over an
    /// already-running endpoint: the service layer's plan-cache path,
    /// where one persistent daemon endpoint hosts a workspace per cached
    /// plan. `ga` must share the endpoint's store and cache (see
    /// [`Ga::dist_share`]); `pool` and `run_epoch` are shared across all
    /// instances so tile buffers are reused and steal epochs stay
    /// globally monotone. Collective: every rank must attach the same
    /// instances in the same order (array handles are allocation-order).
    pub fn attach(
        ep: Arc<Endpoint>,
        ga: Ga,
        space: &TileSpace,
        kernels: &[Kernel],
        pool: Arc<TilePool>,
        run_epoch: Arc<AtomicU64>,
    ) -> Self {
        // Inspection is over the *gang's* logical nodes, not the mesh:
        // a job gang of 2 on a 4-rank daemon shards its tensors 2 ways,
        // and every collective below scopes to the gang's members.
        let ins = Arc::new(tce::inspect_kernels(space, ga.nnodes(), kernels));
        let ws = Arc::new(tce::build_workspace_on(ga, space, kernels));
        // Fills are one-sided puts into local shards; the sync makes
        // every tensor globally visible before anyone reads.
        ws.ga.sync();
        Self {
            ep,
            ins,
            ws,
            pool,
            run_epoch,
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.ep.rank()
    }

    /// Ranks in the job.
    pub fn nranks(&self) -> usize {
        self.ep.nranks()
    }

    /// The gang this instance's workspace is scoped to (the full mesh
    /// unless attached over a [`Ga::dist_share_gang`] view).
    fn view(&self) -> &GangView {
        self.ws
            .ga
            .gang_view()
            .expect("DistRank runs the distributed backend")
    }

    /// This rank's gang-logical node index: chain placement, graph
    /// filtering, and the steal ring all use this, so a job on ranks
    /// {2,3} executes identically to one on ranks {0,1}.
    fn my_node(&self) -> usize {
        self.view().my_node
    }

    /// The communication endpoint (stats, latencies, trace spans).
    pub fn endpoint(&self) -> &Arc<Endpoint> {
        &self.ep
    }

    /// The rank-local view of the shared workspace.
    pub fn workspace(&self) -> &Arc<Workspace> {
        &self.ws
    }

    /// The inspection metadata (identical on every rank).
    pub fn inspection(&self) -> &Arc<Inspection> {
        &self.ins
    }

    /// Collectively zero the output tensor (each rank clears its shard).
    fn reset_output(&self) {
        self.ws.reset_output();
        self.ws.ga.sync();
    }

    /// Collectively execute one variant on the native work-stealing
    /// engine with `threads` workers per rank. `prefetch` routes reader
    /// bodies through the asynchronous get pipeline. Returns the energy
    /// on rank 0.
    ///
    /// This is the fused multithreaded path: the rank's chains feed the
    /// engine through a steal ledger, and idle workers escalate from
    /// local deque stealing to cross-rank chain migration (default
    /// [`StealConfig`]: steal remotely only after local work runs dry).
    /// For explicit steal tuning, build the graph with
    /// [`DistRank::build_run_graph`] and run it through
    /// [`DistRank::run_variant_graph`].
    pub fn run_variant(&self, cfg: VariantCfg, threads: usize, prefetch: bool) -> DistRun {
        let graph = self.build_run_graph(cfg, prefetch);
        self.run_variant_graph(&graph, cfg, threads, StealConfig::default())
    }

    /// Build the runnable task graph of one variant over this rank's
    /// workspace. The graph is a stateless description (per-run state
    /// lives in the engine), so callers may build once and run many
    /// times — the graph half of the service layer's plan cache.
    pub fn build_run_graph(&self, cfg: VariantCfg, prefetch: bool) -> TaskGraph {
        build_graph_external(
            self.ins.clone(),
            cfg,
            Some(self.ws.clone()),
            self.pool.clone(),
            prefetch,
        )
    }

    /// Operand prefetcher for granted steal chains: warms the tile
    /// cache for every GEMM operand of the chain through
    /// [`Ga::prefetch`] (misses start coalescable fills; the worker that
    /// later expands the grant joins them instead of paying a cold
    /// fetch) and reports the bytes requested. Runs on the comm thread
    /// inside the steal-reply callback, so the transfers are in flight
    /// before any worker wakes — which is also why it must use the
    /// non-delivering prefetch entry point and never a blocking get.
    fn grant_prefetcher(&self) -> PrefetchFn {
        let ws = self.ws.clone();
        let ins = self.ins.clone();
        Box::new(move |l1: i64| {
            let mut bytes = 0u64;
            for g in &ins.chains[l1 as usize].gemms {
                let (a, _) = ws.tensor(g.a_tensor);
                let (b, _) = ws.tensor(g.b_tensor);
                ws.ga.prefetch(a, g.a_offset, g.a_len, 0);
                ws.ga.prefetch(b, g.b_offset, g.b_len, 0);
                bytes += ((g.a_len + g.b_len) * 8) as u64;
            }
            bytes
        })
    }

    /// Collectively execute a prebuilt graph (see
    /// [`DistRank::build_run_graph`]); `cfg` must be the configuration
    /// the graph was built with (it also steers the steal source's
    /// chain expansion and the scheduling policy).
    pub fn run_variant_graph(
        &self,
        graph: &TaskGraph,
        cfg: VariantCfg,
        threads: usize,
        scfg: StealConfig,
    ) -> DistRun {
        self.reset_output();
        let epoch = self.run_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let source = ChainSource::new(
            self.ep.clone(),
            self.ins.clone(),
            cfg,
            scfg,
            epoch,
            self.view().clone(),
            Some(self.grant_prefetcher()),
        );
        // The comm thread donates from the same ledger the workers claim
        // from: thief and victim roles share one object.
        self.ep.set_steal_handler(Some(source.clone()));
        // A probe that lands before the victim installs its handler is
        // answered dry, and dry is sticky — a full ledger would be
        // skipped for the whole run. Barrier (gang-scoped: only this
        // job's members probe each other) so every handler is live
        // before any rank's engine starts probing. (The symmetric
        // teardown race is benign: a rank that finished its run has a
        // drained ledger, so its dry answer is truthful.)
        self.ep.barrier_gang(self.view().mask);
        let policy = if cfg.priorities {
            SchedPolicy::PriorityFifo
        } else {
            SchedPolicy::Fifo
        };
        let report = NativeRuntime::new(threads)
            .policy(policy)
            .node(self.my_node() as u32)
            .epoch(self.ep.epoch())
            .source(source.clone())
            .run(graph);
        // Late thieves now get a dry reply instead of a stale donation.
        self.ep.set_steal_handler(None);
        let steal = source.summary();
        self.settle(report, steal)
    }

    /// Post-run collective: flush outstanding accumulates everywhere,
    /// compute the energy on the gang leader (remote shards gathered
    /// over the wire), and hold the other members back until it is read
    /// — their next `reset_output` would otherwise clear shards
    /// mid-gather. Gang-scoped throughout, so concurrent jobs on
    /// disjoint gangs settle independently.
    fn settle(&self, report: NativeReport, steal: StealSummary) -> DistRun {
        self.ws.ga.sync();
        let energy = (self.my_node() == 0).then(|| tce::energy(&self.ws));
        self.ep.barrier_gang(self.view().mask);
        DistRun {
            energy,
            report,
            steal,
        }
    }

    /// Collective teardown: drain remaining traffic and stop the
    /// progress engine.
    pub fn finish(self) {
        self.ws.ga.sync();
        self.ep.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce::scale;
    use tensor_kernels::rel_diff;

    /// Run `n` ranks (threads over loopback transports) through the same
    /// collective closure; results in rank order.
    fn run_ranks<T: Send + 'static>(
        n: usize,
        f: impl Fn(&DistRank) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let f = Arc::new(f);
        let handles: Vec<_> = comm::loopback(n)
            .into_iter()
            .map(|t| {
                let f = f.clone();
                std::thread::spawn(move || {
                    let space = TileSpace::build(&scale::tiny());
                    let rank = DistRank::new(Box::new(t), &space, &[Kernel::T2_7]);
                    let out = f(&rank);
                    rank.finish();
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn reference() -> f64 {
        let space = TileSpace::build(&scale::tiny());
        let ws = tce::build_workspace(&space, 1);
        crate::verify::reference_energy(&ws)
    }

    #[test]
    fn all_variants_match_reference_across_ranks() {
        let e_ref = reference();
        let energies = run_ranks(3, |rank| {
            VariantCfg::all()
                .into_iter()
                .map(|cfg| rank.run_variant(cfg, 2, true).energy)
                .collect::<Vec<_>>()
        });
        for (r, res) in energies.iter().enumerate() {
            for (cfg, e) in VariantCfg::all().iter().zip(res) {
                match (r, e) {
                    (0, Some(e)) => assert!(
                        rel_diff(e_ref, *e) < 1e-12,
                        "{} dist: {e} vs reference {e_ref}",
                        cfg.name
                    ),
                    (0, None) => panic!("rank 0 must report energy"),
                    (_, Some(_)) => panic!("only rank 0 reports energy"),
                    (_, None) => {}
                }
            }
        }
    }

    #[test]
    fn prefetch_off_matches_reference() {
        let e_ref = reference();
        let energies = run_ranks(2, |rank| {
            rank.run_variant(VariantCfg::v5(), 2, false).energy
        });
        assert!(rel_diff(e_ref, energies[0].unwrap()) < 1e-12);
    }

    #[test]
    fn single_rank_dist_matches_reference() {
        let e_ref = reference();
        let energies = run_ranks(1, |rank| rank.run_variant(VariantCfg::v3(), 2, true).energy);
        assert!(rel_diff(e_ref, energies[0].unwrap()) < 1e-12);
    }

    #[test]
    fn cross_rank_steals_migrate_chains_and_keep_energy() {
        let e_ref = reference();
        // Remote-first with an unbounded stealable window: every rank
        // asks its peers before touching its own ledger, so migration
        // demonstrably fires even on a balanced tiny workload.
        let scfg = StealConfig {
            window: usize::MAX,
            batch: 1,
            limit: 2,
            remote_first: true,
            fanout: 2,
        };
        let nchains = {
            let space = TileSpace::build(&scale::tiny());
            tce::inspect(&space, 3).num_chains() as u64
        };
        let out = run_ranks(3, move |rank| {
            let graph = rank.build_run_graph(VariantCfg::v5(), true);
            let run = rank.run_variant_graph(&graph, VariantCfg::v5(), 2, scfg);
            let s = rank.endpoint().stats();
            (run.energy, run.steal, s.steal_reqs, s.steal_donated)
        });
        assert!(
            rel_diff(e_ref, out[0].0.unwrap()) < 1e-12,
            "stolen chains must execute exactly once"
        );
        let donated: u64 = out.iter().map(|o| o.1.donated_chains).sum();
        let stolen: u64 = out.iter().map(|o| o.1.stolen_chains).sum();
        let claimed: u64 = out.iter().map(|o| o.1.local_claimed).sum();
        assert!(stolen > 0, "cross-rank migration must fire");
        assert_eq!(donated, stolen, "every donated chain lands on a thief");
        assert_eq!(
            claimed + donated,
            nchains,
            "each chain leaves exactly one ledger"
        );
        assert!(
            out.iter().any(|o| o.2 > 0),
            "steal requests must hit the wire"
        );
        let wire_donated: u64 = out.iter().map(|o| o.3).sum();
        assert_eq!(wire_donated, donated, "comm counters agree with ledgers");
        // Fan-out accounting: the engine only exits on Empty once every
        // probe is answered, so each probe ended as a grant or a dry
        // reply — and with chains migrating, some probe was granted.
        let probes: u64 = out.iter().map(|o| o.1.probes_sent).sum();
        let dry: u64 = out.iter().map(|o| o.1.dry_replies).sum();
        assert!(probes > dry, "at least one probe must have been granted");
        let wire_reqs: u64 = out.iter().map(|o| o.2).sum();
        assert_eq!(probes, wire_reqs, "every probe hit the wire exactly once");
    }

    #[test]
    fn four_worker_ranks_match_reference() {
        let e_ref = reference();
        let energies = run_ranks(2, |rank| rank.run_variant(VariantCfg::v5(), 4, true).energy);
        assert!(rel_diff(e_ref, energies[0].unwrap()) < 1e-12);
    }

    #[test]
    fn remote_traffic_actually_flows() {
        // Pinned placement: with stealing on, a fast rank may take *all*
        // of a slow peer's chains at threads=1, and the per-rank traffic
        // assertions below assume every rank executes its own share.
        let stats = run_ranks(2, |rank| {
            let graph = rank.build_run_graph(VariantCfg::v5(), true);
            rank.run_variant_graph(&graph, VariantCfg::v5(), 1, StealConfig::pinned());
            let s = rank.endpoint().stats();
            let ga = rank.workspace().ga.stats();
            (s.gets, s.accs, ga.remote_bytes(), ga.local_bytes())
        });
        for (gets, accs, remote, local) in stats {
            assert!(gets > 0, "cross-rank reader gets must occur");
            assert!(accs > 0, "cross-rank write accumulates must occur");
            assert!(remote > 0 && local > 0, "both localities exercised");
        }
    }
}
