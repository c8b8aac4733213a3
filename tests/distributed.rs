//! The distributed path end to end at tiny scale: two ranks (threads
//! over `comm::loopback`) run CCSD through `ccsd::DistRank`, with reads
//! going through the GA tile cache and the comm progress engine, and the
//! energies must match the single-process reference to 1e-12.

use ccsd::{verify, DistRank, StealConfig, VariantCfg};
use tce::{scale, Kernel, TileSpace};
use tensor_kernels::rel_diff;

const KERNELS: [Kernel; 2] = [Kernel::T2_7, Kernel::T2_2];

/// Per-rank outcome: energies of v5 and v2 (rank 0 only), the read
/// accounting (GA remote get bytes, endpoint requested and wire bytes)
/// and the GA shard clones that live operand views forced.
type RankOut = (Option<f64>, Option<f64>, [u64; 4]);

#[test]
fn two_rank_loopback_matches_reference() {
    let handles: Vec<_> = comm::loopback(2)
        .into_iter()
        .map(|t| {
            std::thread::spawn(move || -> RankOut {
                let space = TileSpace::build(&scale::tiny());
                let dr = DistRank::new(Box::new(t), &space, &KERNELS);
                let v5 = dr.run_variant(VariantCfg::v5(), 2, true).energy;
                let v2 = VariantCfg::v2();
                let graph = dr.build_run_graph(v2, true);
                let v2 = dr
                    .run_variant_graph(&graph, v2, 2, StealConfig::default())
                    .energy;
                let s = dr.endpoint().stats();
                let ga = dr.workspace().ga.stats();
                let out = [
                    ga.remote_get_bytes(),
                    s.get_req_bytes,
                    s.get_wire_bytes,
                    ga.shard_clones(),
                ];
                dr.finish();
                (v5, v2, out)
            })
        })
        .collect();
    let out: Vec<RankOut> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let space = TileSpace::build(&scale::tiny());
    let e_ref = verify::reference_energy(&tce::build_workspace_kernels(&space, 1, &KERNELS));
    for (name, e) in [("v5", out[0].0), ("v2", out[0].1)] {
        let e = e.expect("rank 0 reports the energy");
        assert!(
            rel_diff(e_ref, e) < 1e-12,
            "{name}: {e} vs reference {e_ref}"
        );
    }
    assert!(
        out[1].0.is_none() && out[1].1.is_none(),
        "only rank 0 reports"
    );
    for (rank, (_, _, [ga, req, wire, clones])) in out.iter().enumerate() {
        assert!(*req > 0, "rank {rank}: remote reads must cross the wire");
        assert_eq!(ga, req, "rank {rank}: GA remote bytes == requested bytes");
        assert_eq!(req, wire, "rank {rank}: every requested byte was delivered");
        // Readers view their own shards in place; no solve writes an
        // array they view, so no write may have to clone a shard.
        assert_eq!(*clones, 0, "rank {rank}: a write cloned a viewed shard");
    }
}
