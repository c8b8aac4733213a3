//! Multi-rank message-passing transport with one-sided Global-Array
//! semantics and a priority-driven prefetch pipeline.
//!
//! The paper's execution model needs exactly three things from the wire:
//! one-sided block access (`GET`/`PUT`/`ACC` against block-distributed
//! arrays), a shared work counter (`NXTVAL`), and collectives (`SYNC`).
//! This crate provides them over pluggable byte transports:
//!
//! * [`transport::loopback`] — N ranks as threads in one process, used by
//!   tests and single-binary runs;
//! * [`socket::SocketTransport`] — a real multi-process TCP mesh with
//!   length-prefixed frames.
//!
//! Each rank runs an [`Endpoint`] whose progress thread services active
//! messages against the rank-local [`ShardStore`]. Small payloads travel
//! eagerly; above [`CommConfig::eager_threshold`] the protocol switches
//! to rendezvous (RTS/CTS, or reply-announce/pull for gets). Asynchronous
//! gets are throttled per peer and queued by task priority — the
//! communication half of the paper's priority scheme, which keeps the
//! wire delivering the operands the scheduler will want next.
//!
//! The protocol tolerates frame loss, delay, duplication and reordering:
//! mutating operations carry per-peer sequence numbers deduplicated on
//! the server, pending requests retry with capped exponential backoff,
//! and [`fault::FaultTransport`] injects exactly those faults from a
//! seeded schedule so chaos tests can prove the engine recovers.

pub mod fault;
pub mod msg;
pub mod progress;
pub mod socket;
pub mod transport;

pub use fault::{FaultCounters, FaultEvent, FaultPlan, FaultTransport, SplitMix64};
pub use msg::{CodecError, GetSpec, Msg, ReplyView, WireSlice};
pub use progress::{
    full_mask, mask_leader, mask_members, CommConfig, CommStatsSnap, Endpoint, FailureHandler,
    GetCallback, JobHandler, ShardStore, StatusCallback, StealCallback, StealHandler,
    SubmitCallback, JOB_REJECTED,
};
pub use socket::SocketTransport;
pub use transport::{loopback, LoopbackTransport, Transport};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    /// A trivial shard store: each array is one flat local vector.
    struct MemStore {
        arrays: Vec<Mutex<Vec<f64>>>,
    }

    impl MemStore {
        fn new(sizes: &[usize]) -> Arc<Self> {
            Arc::new(Self {
                arrays: sizes.iter().map(|&n| Mutex::new(vec![0.0; n])).collect(),
            })
        }
    }

    impl ShardStore for MemStore {
        fn read(&self, array: u32, offset: usize, len: usize) -> Vec<f64> {
            self.arrays[array as usize].lock().unwrap()[offset..offset + len].to_vec()
        }
        fn write(&self, array: u32, offset: usize, data: &[f64]) {
            self.arrays[array as usize].lock().unwrap()[offset..offset + data.len()]
                .copy_from_slice(data);
        }
        fn accumulate(&self, array: u32, offset: usize, data: &[f64], alpha: f64) {
            let mut a = self.arrays[array as usize].lock().unwrap();
            for (d, s) in a[offset..offset + data.len()].iter_mut().zip(data) {
                *d += alpha * s;
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn pair() -> (Arc<Endpoint>, Arc<Endpoint>, Arc<MemStore>, Arc<MemStore>) {
        let mut t = loopback(2);
        let t1 = t.pop().unwrap();
        let t0 = t.pop().unwrap();
        let s0 = MemStore::new(&[64, 1024]);
        let s1 = MemStore::new(&[64, 1024]);
        let e0 = Endpoint::spawn(Box::new(t0), s0.clone(), CommConfig::default());
        let e1 = Endpoint::spawn(Box::new(t1), s1.clone(), CommConfig::default());
        (e0, e1, s0, s1)
    }

    #[test]
    fn put_get_roundtrip_eager_and_rendezvous() {
        let (e0, e1, _s0, s1) = pair();
        // Eager: 8 elements = 64 bytes, well under the threshold.
        e0.put(1, 0, 3, &[1.0, 2.0, 3.0]);
        assert_eq!(e0.get_blocking(1, 0, 3, 3), vec![1.0, 2.0, 3.0]);
        // Rendezvous: 1024 elements = 8 KiB, over the 4 KiB threshold.
        let big: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        e0.put(1, 1, 0, &big);
        assert_eq!(s1.arrays[1].lock().unwrap().clone(), big);
        assert_eq!(e0.get_blocking(1, 1, 0, 1024), big);
        // Protocol choice is counted where it is made: e0 decided for its
        // two puts (one each way); e1 decided for the two get replies.
        let (s0, s1) = (e0.stats(), e1.stats());
        assert_eq!((s0.puts, s0.gets), (2, 2));
        assert_eq!((s0.eager_payloads, s0.rndv_payloads), (1, 1));
        assert_eq!((s1.eager_payloads, s1.rndv_payloads), (1, 1));
    }

    #[test]
    fn accumulate_and_fence() {
        let (e0, e1, _s0, s1) = pair();
        e0.acc(1, 0, 0, &[1.0, 1.0], 2.0);
        e0.acc(1, 0, 1, &[10.0], 1.0);
        e0.fence();
        assert_eq!(e1.get_blocking(1, 0, 0, 2), vec![2.0, 12.0]);
        assert_eq!(s1.arrays[0].lock().unwrap()[..2], [2.0, 12.0]);
    }

    #[test]
    fn nxtval_is_a_single_shared_counter() {
        let (e0, e1, _s0, _s1) = pair();
        // Both ranks draw from rank 0's counter: all values distinct.
        let mut seen: Vec<i64> = (0..4).flat_map(|_| [e0.nxtval(0), e1.nxtval(0)]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<i64>>());
        e1.nxtval_reset(0);
        assert_eq!(e0.nxtval(0), 0);
    }

    #[test]
    fn barrier_releases_all_ranks() {
        let (e0, e1, _s0, _s1) = pair();
        let h = std::thread::spawn(move || {
            e1.barrier();
            e1.barrier();
        });
        e0.barrier();
        e0.barrier();
        h.join().unwrap();
    }

    /// Post gets to offsets 0..8 at priorities 0..8 and report completion
    /// order (first element is the un-queued head-start launch).
    fn drain_order(cfg: CommConfig) -> (Arc<Endpoint>, Vec<i64>) {
        let mut t = loopback(2);
        let t1 = t.pop().unwrap();
        let t0 = t.pop().unwrap();
        let s1 = MemStore::new(&[256]);
        for (i, v) in s1.arrays[0].lock().unwrap().iter_mut().enumerate() {
            *v = i as f64;
        }
        let e0 = Endpoint::spawn(Box::new(t0), MemStore::new(&[256]), cfg);
        let _e1 = Endpoint::spawn(Box::new(t1), s1, CommConfig::default());
        let order = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicUsize::new(0));
        for p in 0..8i64 {
            let (order, done) = (order.clone(), done.clone());
            e0.get_async(
                1,
                0,
                p as usize,
                1,
                p,
                Box::new(move |data: WireSlice<'_>| {
                    order.lock().unwrap().push(data.to_vec()[0] as i64);
                    done.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        while done.load(Ordering::SeqCst) < 8 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let order = order.lock().unwrap().clone();
        (e0, order)
    }

    #[test]
    fn async_gets_respect_inflight_cap_and_priority() {
        // Cap of 1, no batching, priority-only ordering: the queued gets
        // must complete highest-priority-first.
        let (e0, order) = drain_order(CommConfig {
            max_inflight_gets: 1,
            max_batch_parts: 1,
            locality_order: false,
            ..CommConfig::default()
        });
        // The first completion raced the queue build-up; everything queued
        // afterwards drains in strict descending priority.
        assert_eq!(order[1..], [7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(e0.take_latencies().len(), 8);
        let trace = e0.take_trace();
        assert_eq!(trace.spans().len(), 8);
    }

    #[test]
    fn locality_order_drains_by_destination_block() {
        // Same posts, but locality ordering: the queue drains by
        // ascending (array, offset), priority demoted to tie-break.
        let (e0, order) = drain_order(CommConfig {
            max_inflight_gets: 1,
            max_batch_parts: 1,
            locality_order: true,
            ..CommConfig::default()
        });
        assert_eq!(order[1..], [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(e0.take_latencies().len(), 8);
    }

    #[test]
    fn queued_gets_batch_into_multi_frames() {
        // Cap of 1 with batching: the 7 queued gets drain as one
        // MultiGet frame when the head-start get's slot frees.
        let (e0, order) = drain_order(CommConfig {
            max_inflight_gets: 1,
            max_batch_parts: 8,
            locality_order: true,
            ..CommConfig::default()
        });
        assert_eq!(order[1..], [1, 2, 3, 4, 5, 6, 7]);
        let s = e0.stats();
        assert_eq!(s.multi_gets, 1, "one batch frame expected");
        assert_eq!(s.multi_parts, 7, "all queued gets packed into it");
        assert_eq!(e0.take_latencies().len(), 8);
        assert_eq!(e0.take_trace().spans().len(), 8);
    }
}
