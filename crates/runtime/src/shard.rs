//! Sharded concurrency primitives for the native engine's dispatch path.
//!
//! The paper's scalability story is a lock-contention story: v3 vs v5 is
//! "fewer mutex lock/unlock operations", and PaRSEC's own scheduler keeps
//! per-worker state precisely so that task completion touches no global
//! lock. This module provides the pieces the sharded dispatch path of
//! [`crate::native::NativeRuntime`] is built from:
//!
//! * [`ShardMap`] — a DashMap-style hash map split into N independently
//!   locked shards. The engine's frontier (task -> missing-input count
//!   and delivered inputs) is one `ShardMap`, so concurrent deliveries to
//!   different tasks touch different locks;
//! * [`IdleGate`] — an eventcount-style parking protocol replacing the
//!   single condvar, so a task push is one atomic bump (plus a wakeup only
//!   when somebody actually sleeps) instead of a thundering broadcast.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fast, non-cryptographic hasher (FxHash-style multiply-xor): dispatch
/// keys are tiny fixed-size structs, so SipHash would dominate the cost of
/// a shard lookup.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

/// Hasher builder for [`FxHasher`].
pub type FxBuild = BuildHasherDefault<FxHasher>;

fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// A hash map split into independently locked shards.
///
/// `N` shards each hold an ordinary `HashMap` behind a small mutex; a key
/// deterministically maps to one shard, so operations on different shards
/// never contend. This is the "DashMap built from approved crates" shape:
/// lock-free readers are not needed because every dispatch operation is a
/// short insert/remove critical section.
pub struct ShardMap<K, V> {
    shards: Vec<Mutex<HashMap<K, V, FxBuild>>>,
    mask: u64,
}

impl<K: Hash + Eq, V> ShardMap<K, V> {
    /// Map with at least `shards` shards (rounded up to a power of two).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| Mutex::new(HashMap::default())).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Lock and return the shard that owns `key`.
    pub fn lock_shard(&self, key: &K) -> MutexGuard<'_, HashMap<K, V, FxBuild>> {
        // High bits decide the shard so the low bits remain good intra-map
        // hash entropy.
        let idx = ((hash_of(key) >> 48) & self.mask) as usize;
        self.shards[idx].lock()
    }

    /// Insert, returning any previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.lock_shard(&key).insert(key, value)
    }

    /// Remove and return the value for `key`.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.lock_shard(key).remove(key)
    }

    /// Total entries across shards (takes each shard lock in turn).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }
}

/// Eventcount-style idle gate: producers bump an epoch on every push and
/// wake a sleeper only if one exists; consumers snapshot the epoch,
/// re-check their queues, and park only if no push intervened. This is
/// the classic two-phase protocol that makes lost wakeups impossible
/// without serializing producers through a condvar mutex.
#[derive(Default)]
pub struct IdleGate {
    epoch: AtomicU64,
    sleepers: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl IdleGate {
    /// Fresh gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Phase one: snapshot the epoch *before* re-checking for work.
    pub fn prepare(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Phase two: park until the epoch moves past `ticket`. Returns
    /// immediately if a producer already advanced it.
    pub fn wait(&self, ticket: u64) {
        let mut g = self.lock.lock();
        if self.epoch.load(Ordering::SeqCst) != ticket {
            return;
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.epoch.load(Ordering::SeqCst) == ticket {
            self.cv.wait(&mut g);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Announce one unit of new work: advance the epoch; take the condvar
    /// lock only when somebody is actually parked.
    pub fn notify_one(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock();
            self.cv.notify_one();
        }
    }

    /// True when no producer advanced the epoch since `ticket` was
    /// taken: nothing was announced in between.
    pub fn unchanged_since(&self, ticket: u64) -> bool {
        self.epoch.load(Ordering::SeqCst) == ticket
    }

    /// Wake every parked worker (shutdown).
    pub fn notify_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _g = self.lock.lock();
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptg::TaskKey;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn shard_map_basic() {
        let m: ShardMap<(TaskKey, u32), u64> = ShardMap::new(8);
        let k = TaskKey::new(0, &[1, 2]);
        assert!(m.insert((k, 0), 7).is_none());
        assert!(m.insert((k, 1), 8).is_none());
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&(k, 0)), Some(7));
        assert_eq!(m.remove(&(k, 0)), None);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn shard_map_spreads_keys() {
        let m: ShardMap<TaskKey, ()> = ShardMap::new(8);
        for i in 0..256 {
            m.insert(TaskKey::new(0, &[i]), ());
        }
        let used = m.shards.iter().filter(|s| !s.lock().is_empty()).count();
        assert!(used >= 4, "only {used} of 8 shards used");
    }

    #[test]
    fn idle_gate_no_lost_wakeup() {
        // A producer bumps the gate after the consumer snapshots its
        // ticket: wait() must not block.
        let gate = IdleGate::new();
        let t = gate.prepare();
        gate.notify_one();
        gate.wait(t); // returns immediately; a lost wakeup would hang here
    }

    #[test]
    fn idle_gate_parks_and_wakes() {
        let gate = Arc::new(IdleGate::new());
        let woke = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let g = gate.clone();
            let w = woke.clone();
            handles.push(std::thread::spawn(move || {
                let t = g.prepare();
                g.wait(t);
                w.fetch_add(1, Ordering::SeqCst);
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        gate.notify_all();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(woke.load(Ordering::SeqCst), 3);
    }
}
