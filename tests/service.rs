//! The job service end to end at tiny scale: two persistent rank daemons
//! (threads over `comm::loopback`) serve one v5 job on a 1-rank gang —
//! every operand block is local, so the readers hand the GEMMs views of
//! the GA shards — and one on the full 2-rank mesh, where remote blocks
//! cross the wire. Both energies must match the single-process reference
//! to 1e-12, and no write may have had to clone a viewed shard.

use comm::Transport;
use std::time::Duration;
use svc::{JobSpec, RankDaemon, SvcConfig, Variant};
use tce::{scale, Kernel, TileSpace};
use tensor_kernels::rel_diff;

const TIMEOUT: Duration = Duration::from_secs(60);

fn v5_job(ranks: usize) -> JobSpec {
    JobSpec {
        tenant: 1,
        space: scale::tiny(),
        kernels: vec![Kernel::T2_7],
        variant: Variant::V5,
        threads: 2,
        prefetch: true,
        ranks,
    }
}

#[test]
fn two_rank_service_matches_reference_on_one_rank_and_the_mesh() {
    let handles: Vec<_> = comm::loopback(2)
        .into_iter()
        .map(|t| {
            let rank = t.rank();
            std::thread::spawn(move || {
                let daemon = RankDaemon::new(Box::new(t), SvcConfig::default());
                let client = daemon.client();
                let driver = std::thread::spawn(move || {
                    if rank != 0 {
                        return Vec::new();
                    }
                    // A 1-rank gang (all reads local), then the full mesh.
                    let energies = [1, 2]
                        .map(|ranks| {
                            let id = client.submit(&v5_job(ranks)).expect("submit");
                            client.wait(id, TIMEOUT)
                        })
                        .to_vec();
                    client.halt();
                    energies
                });
                daemon.run();
                let energies = driver.join().expect("driver thread");
                let clones = daemon.ga_stats().shard_clones();
                daemon.finish();
                (energies, clones)
            })
        })
        .collect();
    let outs: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .collect();

    let space = TileSpace::build(&scale::tiny());
    let e_ref = ccsd::verify::reference_energy(&tce::build_workspace(&space, 1));
    let [gang1, mesh] = outs[0].0[..] else {
        panic!("rank 0 must report two energies: {:?}", outs[0].0)
    };
    for (e, what) in [(gang1, "1-rank gang"), (mesh, "full mesh")] {
        assert!(
            rel_diff(e, e_ref) < 1e-12,
            "{what}: {e} vs reference {e_ref}"
        );
    }
    for (rank, (_, clones)) in outs.iter().enumerate() {
        assert_eq!(*clones, 0, "rank {rank}: a write cloned a viewed shard");
    }
}
