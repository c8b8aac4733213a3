//! A PaRSEC-like distributed task runtime.
//!
//! Two engines execute the same [`ptg::TaskGraph`]s: one production
//! engine and one simulator.
//!
//! * [`native::NativeRuntime`] — a real threaded executor for one
//!   shared-memory node: per-worker work-stealing deques, sharded
//!   dependency tracking and payload store ([`shard`]), an eventcount
//!   idle gate, real task bodies. Used for correctness (the "matched to
//!   the 14th digit" checks) and as the library a shared-memory user
//!   would actually run.
//! * [`simengine::SimEngine`] — a discrete-event executor that runs the
//!   graph on a *modeled* cluster (nodes x cores, per-node NIC with FIFO
//!   queueing, processor-shared memory bandwidth, a node-wide mutex for
//!   WRITE critical sections, and a dedicated communication thread per
//!   node, as in the paper). It can optionally execute real bodies while
//!   advancing virtual time, so one run yields both numerics and timing.
//!
//! Both engines discover tasks symbolically through the PTG — the graph is
//! never materialized (see [`tracker`]) — and share the scheduling policies
//! in [`sched`]: a max-priority queue with FIFO tie-breaking, which is what
//! makes the paper's v2-vs-v4 priority experiment reproducible.

pub mod cost;
pub mod native;
pub mod pool;
pub mod sched;
pub mod shard;
pub mod simengine;
pub mod tracker;

pub use cost::CostModel;
pub use native::{NativeReport, NativeRuntime, SourcePoll, StealStats, WorkSource};
pub use pool::{PoolStats, TilePool};
pub use sched::SchedPolicy;
pub use shard::IdleGate;
pub use simengine::{SimEngine, SimReport};
