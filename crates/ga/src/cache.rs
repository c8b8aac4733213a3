//! Per-rank read-through tile cache for distributed GA gets.
//!
//! CCSD reads are block-shaped and read-mostly: within one execution the
//! `t2`/`v` operand tensors never change, and many chains re-fetch the
//! same blocks. The cache keys completed gets by `(array, offset, len)`
//! — the TCE hash-block identity — and serves repeats from local memory,
//! turning the dominant wire cost into a memcpy.
//!
//! Coherence (documented in DESIGN.md §4.6) is invalidate-on-mutate plus
//! flush-at-sync: any local Put/Acc and any *incoming* Put/Acc applied to
//! this rank's shard drops every overlapping entry immediately (so a
//! rank always reads its own writes, and reads of locally-owned data
//! mutated by a peer refetch), while third-party mutations to other
//! ranks' shards become visible exactly where GA's relaxed model makes
//! them visible: at `sync`, which flushes the whole cache.
//!
//! This is also the one place duplicate reads are merged: the first
//! reader of an uncached block installs an in-flight [`Fill`] and owns
//! the wire transfer; later readers of the same block park a [`Waiter`]
//! on it, and the one completion serves everyone. Whole-block requests
//! merge here before they ever split into per-owner pieces, so the comm
//! endpoint below sends every get it is handed.

use crate::stats::GaStats;
use crate::GaGetCallback;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Tile-cache tuning knobs.
#[derive(Debug, Clone)]
pub struct TileCacheConfig {
    /// Byte budget for cached blocks; FIFO eviction beyond it (default
    /// 256 MiB — comfortably the working set of the bench scales).
    pub capacity_bytes: usize,
    /// Paranoia mode for chaos gates: every hit also fetches the block
    /// fresh from its owners and counts a `stale_read` on mismatch.
    pub verify_reads: bool,
}

impl Default for TileCacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 256 * 1024 * 1024,
            verify_reads: false,
        }
    }
}

/// Cache key: the block identity of one get.
type Key = (usize, usize, usize); // (array, offset, len)

/// A reader parked on an in-flight fill: its destination buffer and
/// completion callback, served by the fill owner's completion.
pub(crate) struct Waiter {
    pub buf: Vec<f64>,
    pub cb: GaGetCallback,
}

/// One in-flight block fetch that later identical reads coalesce onto.
pub(crate) struct Fill {
    key: Key,
    waiters: Mutex<Vec<Waiter>>,
}

enum Slot {
    /// A resident block, tagged with the fill generation that made it.
    Ready(Arc<Vec<f64>>, u64),
    Filling(Arc<Fill>),
}

struct CacheState {
    map: HashMap<Key, Slot>,
    /// FIFO eviction order of Ready entries, each tagged with its fill
    /// generation. Invalidation leaves its entries behind (no scan on
    /// the Acc path); an entry whose generation no longer matches the
    /// slot's is stale, skipped by eviction and dropped at the next
    /// `sync` flush.
    order: VecDeque<(Key, u64)>,
    /// Generation of the next completed fill.
    next_gen: u64,
    bytes: usize,
    /// Arrays whose entries survive the `sync` flush (epoch-tagged
    /// retention for read-mostly operands). Invalidate-on-mutate still
    /// applies to them unconditionally.
    pinned: HashSet<usize>,
}

/// Outcome of a cache lookup; buffer and callback flow back to the
/// caller on the paths where the caller still runs the transfer.
pub(crate) enum Lookup {
    /// Cached: copy `data` into `buf` and complete.
    Hit {
        data: Arc<Vec<f64>>,
        buf: Vec<f64>,
        cb: GaGetCallback,
    },
    /// Parked on an in-flight fill; the fill owner completes this reader.
    Joined,
    /// Miss: the caller owns the transfer and must call
    /// [`TileCache::complete`] with this fill when the block lands.
    Fill {
        fill: Arc<Fill>,
        buf: Vec<f64>,
        cb: GaGetCallback,
    },
}

/// The per-rank read-through cache. Shared between the owning `Ga` (read
/// path) and its `DistStore` (invalidation on incoming mutations).
pub struct TileCache {
    cfg: TileCacheConfig,
    stats: Arc<GaStats>,
    state: Mutex<CacheState>,
}

impl TileCache {
    pub(crate) fn new(cfg: TileCacheConfig, stats: Arc<GaStats>) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            stats,
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                order: VecDeque::new(),
                next_gen: 0,
                bytes: 0,
                pinned: HashSet::new(),
            }),
        })
    }

    pub(crate) fn verify_reads(&self) -> bool {
        self.cfg.verify_reads
    }

    /// Look up `key`, registering as a waiter or installing a fresh fill
    /// on miss. Counters are recorded here; the caller acts on the
    /// returned variant.
    pub(crate) fn lookup(&self, key: Key, buf: Vec<f64>, cb: GaGetCallback) -> Lookup {
        let mut st = self.state.lock();
        match st.map.get(&key) {
            Some(Slot::Ready(data, _)) => {
                let data = data.clone();
                drop(st);
                self.stats.record_cache_hit(key.2 * 8);
                Lookup::Hit { data, buf, cb }
            }
            Some(Slot::Filling(fill)) => {
                fill.waiters.lock().push(Waiter { buf, cb });
                drop(st);
                self.stats.record_cache_join(key.2 * 8);
                Lookup::Joined
            }
            None => {
                let fill = Arc::new(Fill {
                    key,
                    waiters: Mutex::new(Vec::new()),
                });
                st.map.insert(key, Slot::Filling(fill.clone()));
                drop(st);
                self.stats.record_cache_miss();
                Lookup::Fill { fill, buf, cb }
            }
        }
    }

    /// Deposit a completed fill's block and collect its parked waiters.
    /// If the entry was invalidated (or replaced by a newer fill) while
    /// in flight, the block is *not* cached — the waiters still get the
    /// data they asked for, but no later read can hit the pre-mutation
    /// copy.
    pub(crate) fn complete(&self, fill: &Arc<Fill>, data: &[f64]) -> Vec<Waiter> {
        let mut st = self.state.lock();
        let still_ours = matches!(
            st.map.get(&fill.key),
            Some(Slot::Filling(f)) if Arc::ptr_eq(f, fill)
        );
        if still_ours {
            let gen = st.next_gen;
            st.next_gen += 1;
            st.map
                .insert(fill.key, Slot::Ready(Arc::new(data.to_vec()), gen));
            st.order.push_back((fill.key, gen));
            st.bytes += fill.key.2 * 8;
            // FIFO eviction, skipping stale entries so a refilled block
            // ages from its refill; in-flight fills are never evicted.
            while st.bytes > self.cfg.capacity_bytes {
                let Some((old, gen)) = st.order.pop_front() else {
                    break;
                };
                if is_live(&st.map, &old, gen) {
                    st.map.remove(&old);
                    st.bytes -= old.2 * 8;
                }
            }
        }
        // Waiters are taken under the cache lock so no new reader can
        // register between the map update and the drain.
        let waiters = std::mem::take(&mut *fill.waiters.lock());
        drop(st);
        waiters
    }

    /// Drop every entry of `array` overlapping `[offset, offset+len)` —
    /// called on local mutations *and* on incoming Put/Acc applied to
    /// this rank's shard. In-flight fills are detached (their completion
    /// will not be cached).
    pub(crate) fn invalidate_overlap(&self, array: usize, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let mut st = self.state.lock();
        let end = offset + len;
        let doomed: Vec<Key> = st
            .map
            .keys()
            .filter(|&&(a, o, l)| a == array && o < end && offset < o + l)
            .copied()
            .collect();
        let n = doomed.len() as u64;
        for key in doomed {
            if matches!(st.map.remove(&key), Some(Slot::Ready(..))) {
                st.bytes -= key.2 * 8;
            }
        }
        drop(st);
        if n > 0 {
            self.stats.record_cache_invalidations(n);
        }
    }

    /// Drop every entry of `array` (collective `zero`).
    pub(crate) fn invalidate_array(&self, array: usize) {
        let mut st = self.state.lock();
        let doomed: Vec<Key> = st
            .map
            .keys()
            .filter(|&&(a, _, _)| a == array)
            .copied()
            .collect();
        let n = doomed.len() as u64;
        for key in doomed {
            if matches!(st.map.remove(&key), Some(Slot::Ready(..))) {
                st.bytes -= key.2 * 8;
            }
        }
        drop(st);
        if n > 0 {
            self.stats.record_cache_invalidations(n);
        }
    }

    /// Mark `array`'s entries as surviving the `sync` flush. The caller
    /// asserts the array is read-mostly between epochs: mutations this
    /// rank *sees* (its own Put/Acc/zero and incoming ones against its
    /// shard) still invalidate pinned entries immediately, but a peer's
    /// write to a *third* rank's shard stays invisible here until the
    /// array is unpinned — pin only arrays with no such writes (the
    /// CCSD input tensors between jobs), and gate with `verify_reads`
    /// where in doubt.
    pub(crate) fn pin_array(&self, array: usize) {
        self.state.lock().pinned.insert(array);
    }

    /// Undo [`TileCache::pin_array`] and drop the array's entries (they
    /// may be arbitrarily stale by the relaxed-model rules).
    pub(crate) fn unpin_array(&self, array: usize) {
        self.state.lock().pinned.remove(&array);
        self.invalidate_array(array);
    }

    /// The `sync` boundary, where GA's relaxed model makes every rank's
    /// mutations globally visible: drop every entry — except those of
    /// pinned arrays, which the owner vouched stay coherent across
    /// epochs (that retention is what lets repeat jobs over the same
    /// operands start warm). The production sync path is the scoped
    /// [`TileCache::flush_scope`]; this whole-cache variant remains for
    /// the unit tests.
    #[cfg(test)]
    pub(crate) fn flush(&self) {
        let mut st = self.state.lock();
        if st.pinned.is_empty() {
            let n = st.map.len() as u64;
            st.map.clear();
            st.order.clear();
            st.bytes = 0;
            drop(st);
            if n > 0 {
                self.stats.record_cache_invalidations(n);
            }
            return;
        }
        let CacheState {
            map,
            order,
            bytes,
            pinned,
            ..
        } = &mut *st;
        let before = map.len();
        let mut dropped_bytes = 0usize;
        map.retain(|&(a, _, l), slot| {
            if pinned.contains(&a) {
                return true;
            }
            if matches!(slot, Slot::Ready(..)) {
                dropped_bytes += l * 8;
            }
            false
        });
        order.retain(|(k, g)| is_live(map, k, *g));
        *bytes -= dropped_bytes;
        let flushed = (before - map.len()) as u64;
        let retained = map.len() as u64;
        drop(st);
        if flushed > 0 {
            self.stats.record_cache_invalidations(flushed);
        }
        if retained > 0 {
            self.stats.record_cache_retained(retained);
        }
    }

    /// The gang-scoped `sync` boundary: as [`TileCache::flush`], but
    /// restricted to arrays of one gang's id namespace. A gang's sync
    /// makes only *that* gang's mutations globally visible, so flushing
    /// another concurrent gang's entries here would be both needless and
    /// a cross-job perturbation (the cross-invalidation hazard the
    /// namespaced ids exist to prevent).
    pub(crate) fn flush_scope(&self, tag: u32) {
        let mut st = self.state.lock();
        let CacheState {
            map,
            order,
            bytes,
            pinned,
            ..
        } = &mut *st;
        let mut dropped_bytes = 0usize;
        let (mut flushed, mut retained) = (0u64, 0u64);
        map.retain(|&(a, _, l), slot| {
            if crate::distga::ns_tag(a) != tag {
                return true; // another gang's scope: untouched
            }
            if pinned.contains(&a) {
                retained += 1;
                return true;
            }
            if matches!(slot, Slot::Ready(..)) {
                dropped_bytes += l * 8;
            }
            flushed += 1;
            false
        });
        order.retain(|(k, g)| is_live(map, k, *g));
        *bytes -= dropped_bytes;
        drop(st);
        if flushed > 0 {
            self.stats.record_cache_invalidations(flushed);
        }
        if retained > 0 {
            self.stats.record_cache_retained(retained);
        }
    }

    /// Cached bytes right now (tests).
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.state.lock().bytes
    }
}

/// Whether an `order` entry still names the resident copy of its block
/// (not one since invalidated, refilled or evicted).
fn is_live(map: &HashMap<Key, Slot>, key: &Key, gen: u64) -> bool {
    matches!(map.get(key), Some(Slot::Ready(_, g)) if *g == gen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> Arc<TileCache> {
        TileCache::new(
            TileCacheConfig {
                capacity_bytes: cap,
                verify_reads: false,
            },
            Arc::new(GaStats::default()),
        )
    }

    fn nop_cb() -> GaGetCallback {
        Box::new(|_| {})
    }

    #[test]
    fn miss_fill_hit_roundtrip() {
        let c = cache(1 << 20);
        let key = (0, 8, 4);
        let Lookup::Fill { fill, .. } = c.lookup(key, vec![0.0; 4], nop_cb()) else {
            panic!("first lookup must miss");
        };
        // A second reader of the same block parks on the fill.
        assert!(matches!(
            c.lookup(key, vec![0.0; 4], nop_cb()),
            Lookup::Joined
        ));
        let waiters = c.complete(&fill, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(waiters.len(), 1);
        match c.lookup(key, vec![0.0; 4], nop_cb()) {
            Lookup::Hit { data, .. } => assert_eq!(*data, vec![1.0, 2.0, 3.0, 4.0]),
            _ => panic!("third lookup must hit"),
        }
        assert_eq!(c.stats.cache_hits(), 1);
        assert_eq!(c.stats.cache_joins(), 1);
        assert_eq!(c.stats.cache_misses(), 1);
    }

    #[test]
    fn overlap_invalidation_is_range_exact() {
        let c = cache(1 << 20);
        for off in [0usize, 10, 20] {
            let Lookup::Fill { fill, .. } = c.lookup((3, off, 10), vec![0.0; 10], nop_cb()) else {
                panic!("miss expected");
            };
            c.complete(&fill, &[off as f64; 10]);
        }
        // Touches [10, 20) only.
        c.invalidate_overlap(3, 15, 3);
        assert!(matches!(
            c.lookup((3, 0, 10), vec![0.0; 10], nop_cb()),
            Lookup::Hit { .. }
        ));
        assert!(matches!(
            c.lookup((3, 20, 10), vec![0.0; 10], nop_cb()),
            Lookup::Hit { .. }
        ));
        assert!(matches!(
            c.lookup((3, 10, 10), vec![0.0; 10], nop_cb()),
            Lookup::Fill { .. }
        ));
        // Other arrays untouched.
        c.invalidate_overlap(4, 0, 100);
        assert!(matches!(
            c.lookup((3, 0, 10), vec![0.0; 10], nop_cb()),
            Lookup::Hit { .. }
        ));
        assert_eq!(c.stats.cache_invalidations(), 1);
    }

    #[test]
    fn invalidated_fill_is_not_cached() {
        let c = cache(1 << 20);
        let key = (0, 0, 2);
        let Lookup::Fill { fill, .. } = c.lookup(key, vec![0.0; 2], nop_cb()) else {
            panic!("miss expected");
        };
        // Mutation lands while the fill is in flight.
        c.invalidate_overlap(0, 1, 1);
        let waiters = c.complete(&fill, &[9.0, 9.0]);
        assert!(waiters.is_empty());
        // The stale block must not have been cached.
        assert!(matches!(
            c.lookup(key, vec![0.0; 2], nop_cb()),
            Lookup::Fill { .. }
        ));
    }

    #[test]
    fn capacity_evicts_fifo() {
        let c = cache(3 * 10 * 8); // room for three 10-element blocks
        for off in [0usize, 10, 20, 30] {
            let Lookup::Fill { fill, .. } = c.lookup((0, off, 10), vec![0.0; 10], nop_cb()) else {
                panic!("miss expected");
            };
            c.complete(&fill, &[0.0; 10]);
        }
        assert!(c.resident_bytes() <= 3 * 10 * 8);
        // Oldest block evicted, newest resident.
        assert!(matches!(
            c.lookup((0, 0, 10), vec![0.0; 10], nop_cb()),
            Lookup::Fill { .. }
        ));
        assert!(matches!(
            c.lookup((0, 30, 10), vec![0.0; 10], nop_cb()),
            Lookup::Hit { .. }
        ));
    }

    #[test]
    fn eviction_after_refill_picks_the_oldest_live_block() {
        let c = cache(2 * 10 * 8); // room for two 10-element blocks
        let fill = |off: usize| {
            let Lookup::Fill { fill, .. } = c.lookup((0, off, 10), vec![0.0; 10], nop_cb()) else {
                panic!("miss expected");
            };
            c.complete(&fill, &[off as f64; 10]);
        };
        let (blk_a, blk_b, blk_c) = (0, 10, 20);
        fill(blk_a);
        fill(blk_b);
        c.invalidate_overlap(0, blk_a, 10);
        fill(blk_a); // A is now newer than B
        fill(blk_c); // over capacity: B is the oldest live block
        assert_eq!(c.resident_bytes(), 2 * 10 * 8);
        assert!(
            matches!(
                c.lookup((0, blk_b, 10), vec![0.0; 10], nop_cb()),
                Lookup::Fill { .. }
            ),
            "B was filled before A's refill and must be the victim"
        );
        for off in [blk_a, blk_c] {
            assert!(matches!(
                c.lookup((0, off, 10), vec![0.0; 10], nop_cb()),
                Lookup::Hit { .. }
            ));
        }
    }

    #[test]
    fn pinned_arrays_survive_flush_but_not_mutation() {
        let c = cache(1 << 20);
        for (a, off) in [(1usize, 0usize), (1, 8), (2, 0)] {
            let Lookup::Fill { fill, .. } = c.lookup((a, off, 4), vec![0.0; 4], nop_cb()) else {
                panic!("miss expected");
            };
            c.complete(&fill, &[a as f64; 4]);
        }
        c.pin_array(1);
        c.flush();
        // Pinned array 1 stays warm; unpinned array 2 flushed.
        assert!(matches!(
            c.lookup((1, 0, 4), vec![0.0; 4], nop_cb()),
            Lookup::Hit { .. }
        ));
        assert!(matches!(
            c.lookup((1, 8, 4), vec![0.0; 4], nop_cb()),
            Lookup::Hit { .. }
        ));
        assert!(matches!(
            c.lookup((2, 0, 4), vec![0.0; 4], nop_cb()),
            Lookup::Fill { .. }
        ));
        assert_eq!(c.resident_bytes(), 2 * 4 * 8);
        assert_eq!(c.stats.cache_retained(), 2);
        // Invalidate-on-mutate still applies to pinned entries.
        c.invalidate_overlap(1, 0, 4);
        assert!(matches!(
            c.lookup((1, 0, 4), vec![0.0; 4], nop_cb()),
            Lookup::Fill { .. }
        ));
        // Unpinning drops the remaining entries of the array.
        c.unpin_array(1);
        assert!(matches!(
            c.lookup((1, 8, 4), vec![0.0; 4], nop_cb()),
            Lookup::Fill { .. }
        ));
        c.flush();
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn flush_empties_everything() {
        let c = cache(1 << 20);
        let Lookup::Fill { fill, .. } = c.lookup((1, 0, 4), vec![0.0; 4], nop_cb()) else {
            panic!("miss expected");
        };
        c.complete(&fill, &[1.0; 4]);
        c.flush();
        assert_eq!(c.resident_bytes(), 0);
        assert!(matches!(
            c.lookup((1, 0, 4), vec![0.0; 4], nop_cb()),
            Lookup::Fill { .. }
        ));
    }
}
