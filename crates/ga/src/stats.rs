//! Operation counters for auditing executions (how many gets/accs/nxtvals
//! a given execution model issued, and how many bytes moved).

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe operation counters.
#[derive(Debug, Default)]
pub struct GaStats {
    gets: AtomicU64,
    get_bytes: AtomicU64,
    puts: AtomicU64,
    put_bytes: AtomicU64,
    accs: AtomicU64,
    acc_bytes: AtomicU64,
    nxtvals: AtomicU64,
    local_bytes: AtomicU64,
    remote_bytes: AtomicU64,
    cache_hits: AtomicU64,
    cache_joins: AtomicU64,
    cache_misses: AtomicU64,
    cache_invalidations: AtomicU64,
    cache_hit_bytes: AtomicU64,
    remote_get_bytes: AtomicU64,
    stale_reads: AtomicU64,
    cache_retained: AtomicU64,
    shard_clones: AtomicU64,
}

impl GaStats {
    pub(crate) fn record_get(&self, bytes: usize) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.get_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
    pub(crate) fn record_put(&self, bytes: usize) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.put_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
    pub(crate) fn record_acc(&self, bytes: usize) {
        self.accs.fetch_add(1, Ordering::Relaxed);
        self.acc_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
    pub(crate) fn record_nxtval(&self) {
        self.nxtvals.fetch_add(1, Ordering::Relaxed);
    }
    /// Split the bytes of one operation by whether they stayed on the
    /// calling rank or crossed rank boundaries. The in-process backend
    /// counts everything as local (there is no wire); the distributed
    /// backend splits by shard ownership.
    /// Count one shard write that had to clone (`cloned` true) or not.
    pub(crate) fn record_shard_write(&self, cloned: bool) {
        self.shard_clones
            .fetch_add(u64::from(cloned), Ordering::Relaxed);
    }
    pub(crate) fn record_locality(&self, local: usize, remote: usize) {
        self.local_bytes.fetch_add(local as u64, Ordering::Relaxed);
        self.remote_bytes
            .fetch_add(remote as u64, Ordering::Relaxed);
    }

    /// Number of `get` operations.
    pub fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }
    /// Bytes read by `get` operations.
    pub fn get_bytes(&self) -> u64 {
        self.get_bytes.load(Ordering::Relaxed)
    }
    /// Number of `put` operations.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }
    /// Bytes written by `put` operations.
    pub fn put_bytes(&self) -> u64 {
        self.put_bytes.load(Ordering::Relaxed)
    }
    /// Number of accumulate operations.
    pub fn accs(&self) -> u64 {
        self.accs.load(Ordering::Relaxed)
    }
    /// Bytes accumulated.
    pub fn acc_bytes(&self) -> u64 {
        self.acc_bytes.load(Ordering::Relaxed)
    }
    /// Number of NXTVAL acquisitions.
    pub fn nxtvals(&self) -> u64 {
        self.nxtvals.load(Ordering::Relaxed)
    }
    /// Shard segments a put/acc/zero had to clone because a
    /// [`crate::Ga::get_shared`] view of them was still live. Zero on the
    /// CCSD data path, where no solve writes an array it reads.
    pub fn shard_clones(&self) -> u64 {
        self.shard_clones.load(Ordering::Relaxed)
    }
    /// Bytes of get/put/acc traffic whose owner was the calling rank.
    pub fn local_bytes(&self) -> u64 {
        self.local_bytes.load(Ordering::Relaxed)
    }
    /// Bytes of get/put/acc traffic that crossed rank boundaries.
    pub fn remote_bytes(&self) -> u64 {
        self.remote_bytes.load(Ordering::Relaxed)
    }

    // ---- tile-cache counters (distributed read path) ----

    pub(crate) fn record_cache_hit(&self, bytes: usize) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.cache_hit_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }
    pub(crate) fn record_cache_join(&self, bytes: usize) {
        self.cache_joins.fetch_add(1, Ordering::Relaxed);
        self.cache_hit_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }
    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_cache_invalidations(&self, n: u64) {
        self.cache_invalidations.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn record_remote_get_bytes(&self, bytes: usize) {
        self.remote_get_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }
    pub(crate) fn record_stale_read(&self) {
        self.stale_reads.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_cache_retained(&self, n: u64) {
        self.cache_retained.fetch_add(n, Ordering::Relaxed);
    }

    /// Gets served entirely from the local tile cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }
    /// Gets that joined an in-flight fill of the same block and shared
    /// its wire transfer.
    pub fn cache_joins(&self) -> u64 {
        self.cache_joins.load(Ordering::Relaxed)
    }
    /// Gets that missed the cache and fetched over the wire.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }
    /// Cached blocks dropped because a local or incoming Put/Acc
    /// overlapped them (or a sync flushed them).
    pub fn cache_invalidations(&self) -> u64 {
        self.cache_invalidations.load(Ordering::Relaxed)
    }
    /// Bytes served from cached blocks (hits and joins).
    pub fn cache_hit_bytes(&self) -> u64 {
        self.cache_hit_bytes.load(Ordering::Relaxed)
    }
    /// Remote bytes actually requested from the comm endpoint by the get
    /// path — reconciles against the endpoint's `get_req_bytes`.
    pub fn remote_get_bytes(&self) -> u64 {
        self.remote_get_bytes.load(Ordering::Relaxed)
    }
    /// Verified cache hits whose cached block differed from the owner's
    /// shard (must stay zero; counted only in `verify_reads` mode).
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads.load(Ordering::Relaxed)
    }
    /// Entries of pinned (read-mostly) arrays that survived a sync
    /// flush, summed over flushes — the epoch-retention payoff.
    pub fn cache_retained(&self) -> u64 {
        self.cache_retained.load(Ordering::Relaxed)
    }
}
