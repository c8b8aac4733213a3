//! Native threaded engine: real execution of a PTG on one shared-memory
//! node.
//!
//! The dispatch path is sharded and work-stealing, in the image of
//! PaRSEC's shared-memory scheduler. Each worker owns a ready deque
//! (crossbeam `Worker`/`Stealer`); tasks released by a completion go to
//! the releasing worker's own deque (data is hot in its cache), idle
//! workers steal — batched from the shared root [`Injector`], singly and
//! in randomized victim order from peers. As in PaRSEC, "tasks do not
//! migrate between threads after they have started executing": stealing
//! moves only *ready* tasks, never running ones. Worker 0 is the thread
//! that called [`NativeRuntime::run`]; only workers 1..N are spawned, so
//! a 1-worker run starts no thread.
//!
//! Dependency counts and delivered inputs live together in one sharded
//! frontier map ([`crate::shard::ShardMap`] from task to [`Slot`]):
//! delivering an edge is one shard lock that stores the payload and
//! counts the input, and running a task is one `remove` of its slot (none
//! for a root). Two completions touching different tasks touch different
//! locks; quiescence is one atomic counter. Idle workers park through an
//! eventcount ([`crate::shard::IdleGate`]): a push is an epoch bump plus
//! a wakeup only when somebody actually sleeps, instead of a condvar
//! broadcast under a global mutex.
//!
//! The price of sharding is that a [`SchedPolicy`]'s ordering becomes a
//! *local* discipline (each worker orders its own deque; steals are
//! oldest-first) rather than a total order over all ready tasks — the
//! same approximation PaRSEC's default scheduler makes, and invisible to
//! numerics because task graphs order all value-carrying dependencies
//! explicitly.

use crate::sched::SchedPolicy;
use crate::shard::{IdleGate, ShardMap};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::Mutex;
use ptg::{Activity, Completion, CompletionSink, Dep, Payload, TaskGraph, TaskKey};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xtrace::{ActivityKind, Trace, WorkerId};

/// Outcome of a native run.
#[derive(Debug)]
pub struct NativeReport {
    /// Wall-clock execution trace (node 0, one row per worker).
    pub trace: Trace,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Total wall time.
    pub wall: std::time::Duration,
    /// Work-distribution counters (per-worker occupancy, steals).
    pub steal: StealStats,
}

/// Work-distribution counters of one run.
#[derive(Debug, Clone, Default)]
pub struct StealStats {
    /// Tasks seeded mid-run from an external [`WorkSource`] (locally
    /// claimed chain roots and cross-rank migrations alike).
    pub external_tasks: u64,
    /// Successful single-task steals from peer worker deques.
    pub local_steals: u64,
    /// Task bodies executed per worker (occupancy; sums to `tasks`).
    pub per_worker_tasks: Vec<u64>,
}

/// What an external [`WorkSource`] has for a starving engine.
pub enum SourcePoll {
    /// New root tasks to seed (each must declare zero inputs). Must be
    /// non-empty.
    Tasks(Vec<TaskKey>),
    /// Nothing right now, but more may arrive asynchronously (a steal
    /// request is in flight): park, don't conclude anything.
    Pending,
    /// Permanently exhausted. Must be sticky — once returned, no later
    /// poll may return tasks, because the engine shuts down on it.
    Empty,
}

/// A mid-run task feed, polled by workers that found nothing in any
/// deque. This is how the distributed layer turns the engine into a peer
/// of the comm progress thread: chain roots are claimed batch-by-batch
/// (locally or stolen from another rank) instead of being fixed at graph
/// build, and the engine terminates only when the graph is quiescent AND
/// the source is [`SourcePoll::Empty`].
pub trait WorkSource: Send + Sync {
    /// Called once at run start; asynchronous arrivals (steal replies on
    /// the comm thread) use the gate to unpark waiting workers.
    fn attach(&self, gate: Arc<IdleGate>);
    /// Called by a starved worker. May block briefly (a lock), never on
    /// the network.
    fn poll(&self) -> SourcePoll;
}

/// Assemble a [`NativeReport`] from per-worker span sets.
fn build_report(
    graph: &TaskGraph,
    span_sets: &[Vec<(u32, u64, u64)>],
    tasks: u64,
    wall: std::time::Duration,
    node: u32,
) -> NativeReport {
    let mut trace = Trace::new();
    let class_ids: Vec<u16> = graph
        .classes()
        .iter()
        .map(|c| {
            let kind = match c.activity() {
                Activity::Compute => ActivityKind::Compute,
                Activity::Communication => ActivityKind::Communication,
                Activity::Runtime => ActivityKind::Runtime,
            };
            trace.class(c.name(), kind)
        })
        .collect();
    for (w, spans) in span_sets.iter().enumerate() {
        for &(class, b, e) in spans {
            trace.push(
                WorkerId::new(node, w as u32),
                class_ids[class as usize],
                b,
                e,
            );
        }
    }
    NativeReport {
        trace,
        tasks,
        wall,
        steal: StealStats::default(),
    }
}

/// Configuration for the native engine.
#[derive(Clone)]
pub struct NativeRuntime {
    threads: usize,
    policy: SchedPolicy,
    node: u32,
    epoch: Option<Instant>,
    source: Option<Arc<dyn WorkSource>>,
}

/// Deferred-completion mailboxes shared with whatever finishes
/// asynchronous tasks (comm progress threads). A task that
/// `execute_async`-returns `None` is counted in `inflight` until its
/// outputs arrive in a queue; workers drain their own queue first, then
/// scan the others, and settle each completion exactly like tasks they
/// ran themselves. Per-worker queues keep N workers and the comm thread
/// off one hot mutex and deliver successors into the drainer's own deque.
/// One deferred completion: the finished task and its output payloads.
type Arrival = (TaskKey, Vec<Option<Payload>>);

pub(crate) struct Completions {
    queues: Vec<Mutex<Vec<Arrival>>>,
    /// Round-robin distribution cursor for arriving completions.
    rr: AtomicU64,
    /// Completions pushed but not yet taken by a drainer (kept exact on
    /// the producer side so `idle` never has to lock every queue).
    queued: AtomicU64,
    inflight: AtomicU64,
    gate: Arc<IdleGate>,
}

impl Completions {
    /// Conclusive only while every worker is idle: then nothing can
    /// re-raise `inflight`, so reading it as zero first means every
    /// completion has been pushed (push precedes the decrement), and a
    /// zero `queued` read after that means every push was drained.
    fn idle(&self) -> bool {
        self.inflight.load(Ordering::SeqCst) == 0 && self.queued.load(Ordering::SeqCst) == 0
    }
}

impl CompletionSink for Completions {
    fn complete(&self, key: TaskKey, outputs: Vec<Option<Payload>>) {
        let w = self.rr.fetch_add(1, Ordering::Relaxed) as usize % self.queues.len();
        self.queues[w].lock().push((key, outputs));
        // Count the arrival before releasing `inflight`: between the two,
        // the completion is visible through `queued` instead, so `idle`
        // (which reads inflight first) never misses it.
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        self.gate.notify_all();
    }
}

/// A discovered task's place in the frontier: the inputs it still waits
/// for and the payloads delivered so far (indexed by flow; `None` for a
/// flow that received no data). The slot is created by the task's first
/// delivery and stays until the task runs, so a delivery beyond the
/// declared count is caught even after the task became ready.
struct Slot {
    missing: usize,
    inputs: Vec<Option<Payload>>,
}

/// A ready task as the deques carry it. A root (static or seeded by a
/// [`WorkSource`]) has no frontier slot, so running it takes no lock.
#[derive(Clone, Copy)]
struct Ready {
    key: TaskKey,
    root: bool,
}

struct Shared<'g> {
    graph: &'g TaskGraph,
    policy: SchedPolicy,
    threads: usize,
    frontier: ShardMap<TaskKey, Slot>,
    /// Tasks discovered (roots, or delivered to at least once) and not
    /// yet completed; the run is quiescent when it reaches zero.
    live: AtomicU64,
    injector: Injector<Ready>,
    stealers: Vec<Stealer<Ready>>,
    gate: Arc<IdleGate>,
    completions: Arc<Completions>,
    source: Option<Arc<dyn WorkSource>>,
    shutdown: AtomicBool,
    idle: AtomicU64,
    executed: AtomicU64,
    external_tasks: AtomicU64,
    local_steals: AtomicU64,
    per_worker: Vec<AtomicU64>,
    t0: Instant,
}

impl<'g> Shared<'g> {
    /// Dispatch state for one run of `graph` under `rt`, with no task
    /// discovered yet; attaches `rt`'s source to the idle gate.
    fn new(rt: &NativeRuntime, graph: &'g TaskGraph, stealers: Vec<Stealer<Ready>>) -> Self {
        let gate = Arc::new(IdleGate::new());
        if let Some(src) = &rt.source {
            src.attach(gate.clone());
        }
        Self {
            graph,
            policy: rt.policy,
            threads: rt.threads,
            frontier: ShardMap::new((rt.threads * 4).clamp(8, 64)),
            live: AtomicU64::new(0),
            injector: Injector::new(),
            stealers,
            completions: Arc::new(Completions {
                queues: (0..rt.threads).map(|_| Mutex::new(Vec::new())).collect(),
                rr: AtomicU64::new(0),
                queued: AtomicU64::new(0),
                inflight: AtomicU64::new(0),
                gate: gate.clone(),
            }),
            gate,
            source: rt.source.clone(),
            shutdown: AtomicBool::new(false),
            idle: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            external_tasks: AtomicU64::new(0),
            local_steals: AtomicU64::new(0),
            per_worker: (0..rt.threads).map(|_| AtomicU64::new(0)).collect(),
            t0: rt.epoch.unwrap_or_else(Instant::now),
        }
    }

    /// Deliver one edge into `dst`'s slot: store the payload (if any) and
    /// count the input, under one shard lock. Returns true when this was
    /// the last missing input. The first delivery discovers the task and
    /// asks its class for the input count (under the lock, so concurrent
    /// senders agree on who discovered it). Panics, naming the task, on a
    /// delivery to a task that declares no inputs or has none missing.
    fn deliver(&self, dst: TaskKey, flow: u32, payload: Option<Payload>) -> bool {
        let graph = self.graph;
        let mut shard = self.frontier.lock_shard(&dst);
        let slot = shard.entry(dst).or_insert_with(|| {
            let class = graph.class_of(dst);
            let missing = class.num_inputs(dst, graph.ctx());
            assert!(
                missing > 0,
                "task {} received an input but declares none",
                graph.display(dst)
            );
            self.live.fetch_add(1, Ordering::SeqCst);
            Slot {
                missing,
                inputs: vec![None; class.num_flows()],
            }
        });
        assert!(
            slot.missing > 0,
            "over-delivery to {}: all its declared inputs already arrived",
            graph.display(dst)
        );
        if payload.is_some() {
            slot.inputs[flow as usize] = payload;
        }
        slot.missing -= 1;
        slot.missing == 0
    }

    /// Inputs of a ready task: its slot's payloads (one `remove`), or
    /// all-`None` for a root.
    fn take_inputs(&self, task: Ready) -> Vec<Option<Payload>> {
        if task.root {
            return vec![None; self.graph.class_of(task.key).num_flows()];
        }
        self.frontier
            .remove(&task.key)
            .expect("a ready task has a frontier slot")
            .inputs
    }

    /// Count one task discovered from outside the frontier (a root).
    fn add_root(&self) {
        self.live.fetch_add(1, Ordering::SeqCst);
    }
}

/// Stops the run when a worker unwinds out of a panicking task body:
/// without it the survivors park for good, because the all-idle scan
/// never sees every worker idle. `run` then re-raises the panic.
struct StopOnUnwind<'s, 'g>(&'s Shared<'g>);

impl Drop for StopOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.shutdown.store(true, Ordering::SeqCst);
            self.0.gate.notify_all();
        }
    }
}

impl NativeRuntime {
    /// Engine with `threads >= 1` workers and the default (priority+FIFO)
    /// policy.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker");
        Self {
            threads,
            policy: SchedPolicy::PriorityFifo,
            node: 0,
            epoch: None,
            source: None,
        }
    }

    /// Override the scheduling policy.
    pub fn policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Node index stamped on trace rows (one engine per rank in
    /// distributed runs; defaults to 0).
    pub fn node(mut self, node: u32) -> Self {
        self.node = node;
        self
    }

    /// Time origin for spans. Distributed runs pass the comm endpoint's
    /// epoch so compute and communication spans share one timeline.
    pub fn epoch(mut self, epoch: Instant) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Feed tasks from an external [`WorkSource`] in addition to (or
    /// instead of) the graph's static roots. The run then terminates
    /// only when the graph is quiescent and the source reports
    /// [`SourcePoll::Empty`].
    pub fn source(mut self, source: Arc<dyn WorkSource>) -> Self {
        self.source = Some(source);
        self
    }

    /// Owner-pop discipline for a worker's deque under `policy`.
    fn new_deque(policy: SchedPolicy) -> Worker<Ready> {
        match policy {
            SchedPolicy::PriorityFifo | SchedPolicy::Fifo => Worker::new_fifo(),
            SchedPolicy::PriorityLifo | SchedPolicy::Lifo | SchedPolicy::ChainAffinity => {
                Worker::new_lifo()
            }
        }
    }

    /// Execute `graph` to quiescence on the calling thread (worker 0)
    /// plus `threads - 1` spawned workers. Panics if the graph deadlocks
    /// (declared inputs that no task delivers); a panic in a task body
    /// stops every worker and is re-raised here.
    pub fn run(&self, graph: &TaskGraph) -> NativeReport {
        let ctx = graph.ctx();
        let mut roots: Vec<(TaskKey, i64)> = graph
            .roots()
            .iter()
            .map(|&r| (r, graph.class_of(r).priority(r, ctx)))
            .collect();
        // The injector is stolen oldest-first: order the roots so steals
        // respect the policy (stable sort keeps readiness order on ties).
        match self.policy {
            SchedPolicy::PriorityFifo | SchedPolicy::PriorityLifo | SchedPolicy::ChainAffinity => {
                roots.sort_by_key(|&(_, p)| std::cmp::Reverse(p));
            }
            SchedPolicy::Fifo => {}
            SchedPolicy::Lifo => roots.reverse(),
        }

        let locals: Vec<Worker<Ready>> = (0..self.threads)
            .map(|_| Self::new_deque(self.policy))
            .collect();
        let shared = Shared::new(self, graph, locals.iter().map(|w| w.stealer()).collect());
        for &(key, _) in &roots {
            shared.add_root();
            shared.injector.push(Ready { key, root: true });
        }
        if roots.is_empty() && self.source.is_none() {
            shared.shutdown.store(true, Ordering::SeqCst);
        }

        let run_start = Instant::now();
        let span_sets: Vec<Vec<(u32, u64, u64)>> = std::thread::scope(|scope| {
            let mut locals = locals.into_iter();
            let first = locals.next().expect("at least one worker");
            let handles: Vec<_> = locals
                .enumerate()
                .map(|(i, local)| {
                    let shared = &shared;
                    scope.spawn(move || worker(shared, local, i + 1))
                })
                .collect();
            let mut sets = vec![worker(&shared, first, 0)];
            for h in handles {
                sets.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            sets
        });

        let wall = run_start.elapsed();
        assert!(
            shared.live.load(Ordering::SeqCst) == 0,
            "deadlock: {} task(s) still waiting for inputs",
            shared.frontier.len()
        );
        let mut report = build_report(
            graph,
            &span_sets,
            shared.executed.load(Ordering::SeqCst),
            wall,
            self.node,
        );
        report.steal = StealStats {
            external_tasks: shared.external_tasks.load(Ordering::SeqCst),
            local_steals: shared.local_steals.load(Ordering::SeqCst),
            per_worker_tasks: shared
                .per_worker
                .iter()
                .map(|c| c.load(Ordering::SeqCst))
                .collect(),
        };
        report
    }
}

/// xorshift64*: cheap per-worker victim randomization.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Look for a ready task: own deque, then a batch from the injector, then
/// randomized single steals from peers (absorbing `Retry` for one extra
/// round).
fn find_task(
    shared: &Shared<'_>,
    local: &Worker<Ready>,
    index: usize,
    rng: &mut u64,
) -> Option<Ready> {
    if let Some(k) = local.pop() {
        return Some(k);
    }
    loop {
        match shared.injector.steal_batch_and_pop(local) {
            Steal::Success(k) => {
                // We grabbed a batch; if roots remain, let someone else in.
                if !shared.injector.is_empty() {
                    shared.gate.notify_one();
                }
                return Some(k);
            }
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    let n = shared.stealers.len();
    if n > 1 {
        for _round in 0..2 {
            let mut saw_retry = false;
            let start = (next_rand(rng) % n as u64) as usize;
            for off in 0..n {
                let victim = (start + off) % n;
                if victim == index {
                    continue;
                }
                match shared.stealers[victim].steal() {
                    Steal::Success(k) => {
                        shared.local_steals.fetch_add(1, Ordering::Relaxed);
                        return Some(k);
                    }
                    Steal::Retry => saw_retry = true,
                    Steal::Empty => {}
                }
            }
            if !saw_retry {
                break;
            }
        }
    }
    None
}

/// All ready queues observed empty (meaningful only while every worker is
/// idle — then no push can be in flight and the scan is conclusive).
fn queues_empty(shared: &Shared<'_>) -> bool {
    shared.injector.is_empty() && shared.stealers.iter().all(|s| s.is_empty())
}

/// One worker's buffers, reused from task to task.
#[derive(Default)]
struct Scratch {
    /// Executed spans `(class, begin_ns, end_ns)`: the worker's result.
    spans: Vec<(u32, u64, u64)>,
    deps: Vec<Dep>,
    /// Per output flow: edges still to deliver in the current settle.
    uses: Vec<u32>,
    ready: Vec<(TaskKey, i64)>,
    last_chain: Option<i64>,
}

/// One worker: settle deferred completions, find a task (own deque /
/// injector / steal) and execute it, releasing successors into the own
/// deque; park through the idle gate when no work is visible. Returns the
/// recorded spans.
fn worker(shared: &Shared<'_>, local: Worker<Ready>, index: usize) -> Vec<(u32, u64, u64)> {
    let _stop = StopOnUnwind(shared);
    let mut s = Scratch::default();
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(index as u64 + 1) | 1;
    let mut step = |s: &mut Scratch| {
        if drain_completions(shared, &local, index, s) {
            return true;
        }
        match find_task(shared, &local, index, &mut rng) {
            Some(task) => {
                run_task(shared, &local, index, task, s);
                true
            }
            None => false,
        }
    };

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return s.spans;
        }
        if step(&mut s) {
            continue;
        }

        // Two-phase park: snapshot the epoch, re-check every source, and
        // only then sleep — a push between snapshot and wait() advances
        // the epoch and wait() returns immediately (no lost wakeup).
        let ticket = shared.gate.prepare();
        if shared.shutdown.load(Ordering::SeqCst) {
            return s.spans;
        }
        if step(&mut s) {
            continue;
        }
        // Every deque is dry: ask the external source (if any) before
        // parking. Tasks are seeded as fresh roots into the local deque;
        // Pending means a cross-rank steal is in flight, so parking is
        // correct and concluding anything is not.
        let poll = match &shared.source {
            None => SourcePoll::Empty,
            Some(src) => src.poll(),
        };
        let src_empty = match poll {
            SourcePoll::Tasks(keys) if !keys.is_empty() => {
                seed_external(shared, &local, keys);
                continue;
            }
            // An empty task batch is nothing to seed but not exhaustion.
            SourcePoll::Tasks(_) | SourcePoll::Pending => false,
            SourcePoll::Empty => true,
        };
        let idle_now = shared.idle.fetch_add(1, Ordering::SeqCst) + 1;
        if idle_now as usize == shared.threads && src_empty && queues_empty(shared) {
            // `idle` must reach `threads` before `completions.idle()` is
            // read: only with every worker parked is the counter pair
            // conclusive (nothing can re-raise `inflight`). A worker that
            // was woken but has not yet left the idle count can still
            // drain a completion that arrived after our re-check, so the
            // verdict also needs the gate's epoch unmoved since `ticket`:
            // every arrival and every push advances it.
            let quiescent = shared.live.load(Ordering::SeqCst) == 0;
            let finished = shared.source.is_some() && quiescent;
            if (finished || !quiescent)
                && shared.completions.idle()
                && shared.gate.unchanged_since(ticket)
            {
                // Source-fed run fully drained (finished), or every
                // worker is idle with empty queues and live tasks that
                // can never receive inputs (deadlock — the post-run
                // quiescence assert reports it).
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.gate.notify_all();
                shared.idle.fetch_sub(1, Ordering::SeqCst);
                return s.spans;
            }
        }
        shared.gate.wait(ticket);
        shared.idle.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Seed externally-sourced tasks (chain roots claimed from the ledger or
/// stolen from another rank) into this worker's deque, ordered for the
/// deque's pop end like [`settle`] orders released successors.
fn seed_external(shared: &Shared<'_>, local: &Worker<Ready>, keys: Vec<TaskKey>) {
    let graph = shared.graph;
    let ctx = graph.ctx();
    shared
        .external_tasks
        .fetch_add(keys.len() as u64, Ordering::SeqCst);
    let mut seeded: Vec<(TaskKey, i64)> = keys
        .into_iter()
        .map(|k| (k, graph.class_of(k).priority(k, ctx)))
        .collect();
    match shared.policy {
        SchedPolicy::PriorityFifo => seeded.sort_by_key(|&(_, p)| std::cmp::Reverse(p)),
        SchedPolicy::PriorityLifo | SchedPolicy::ChainAffinity => seeded.sort_by_key(|&(_, p)| p),
        SchedPolicy::Fifo => {}
        SchedPolicy::Lifo => seeded.reverse(),
    }
    for &(key, _) in seeded.iter() {
        shared.add_root();
        local.push(Ready { key, root: true });
    }
    shared.gate.notify_all();
}

/// Drain deferred completions (tasks finished by comm progress threads)
/// and settle each exactly as if this worker had run it. Returns true if
/// anything was settled.
fn drain_completions(
    shared: &Shared<'_>,
    local: &Worker<Ready>,
    index: usize,
    s: &mut Scratch,
) -> bool {
    // Own mailbox first (successors land in the own deque), then scan the
    // others so no completion waits on a busy worker.
    let q = &shared.completions;
    // `queued` is exact on the producer side, so the common all-empty
    // case costs one load instead of N mutex acquisitions per loop turn
    // (this runs before every dispatch). A push racing this load is not
    // lost: the producer bumps the gate after counting, so the arrival
    // is seen on the next turn or wakes a parked worker.
    if q.queued.load(Ordering::SeqCst) == 0 {
        return false;
    }
    let nq = q.queues.len();
    for off in 0..nq {
        let batch = std::mem::take(&mut *q.queues[(index + off) % nq].lock());
        if batch.is_empty() {
            continue;
        }
        q.queued.fetch_sub(batch.len() as u64, Ordering::SeqCst);
        for (key, outputs) in batch {
            settle(shared, local, key, outputs, s);
        }
        return true;
    }
    false
}

/// Execute one task and release its successors. Tasks whose class defers
/// (execute_async returns `None`) are settled later from the completion
/// queue; only the posting time appears as this worker's span.
fn run_task(
    shared: &Shared<'_>,
    local: &Worker<Ready>,
    index: usize,
    task: Ready,
    s: &mut Scratch,
) {
    let graph = shared.graph;
    let key = task.key;
    let class = graph.class_of(key);
    shared.per_worker[index].fetch_add(1, Ordering::Relaxed);
    let mut inputs = shared.take_inputs(task);

    // Count the task in flight *before* the body runs: a deferring body
    // hands its completion to another thread, which may finish before we
    // return — the counter must already cover it or an all-idle scan
    // could misread the lull as a deadlock.
    shared.completions.inflight.fetch_add(1, Ordering::SeqCst);
    let done = Completion::new(key, shared.completions.clone() as Arc<dyn CompletionSink>);

    // Execute the body (no lock anywhere near this).
    let b = shared.t0.elapsed().as_nanos() as u64;
    let result = class.execute_async(key, graph.ctx(), &mut inputs, done);
    let e = shared.t0.elapsed().as_nanos() as u64;
    s.spans.push((key.class, b, e));

    let Some(outputs) = result else {
        // Deferred: the completion owner settles it via the queue.
        return;
    };
    shared.completions.inflight.fetch_sub(1, Ordering::SeqCst);
    // Inputs the body left in place must not keep an output shared.
    drop(inputs);
    settle(shared, local, key, outputs, s);
}

/// Post-execution bookkeeping: deliver outputs to successors, publish
/// newly-ready tasks in policy order, count the task, detect quiescence.
/// Shared by the synchronous path and the completion drain.
fn settle(
    shared: &Shared<'_>,
    local: &Worker<Ready>,
    key: TaskKey,
    mut outputs: Vec<Option<Payload>>,
    s: &mut Scratch,
) {
    let graph = shared.graph;
    let ctx = graph.ctx();
    let class = graph.class_of(key);
    s.last_chain = Some(key.params[0]);
    assert_eq!(
        outputs.len(),
        class.num_flows(),
        "{}: body returned wrong flow count",
        graph.display(key)
    );

    // Release successors. Each edge is one frontier delivery. A flow's
    // last edge moves the payload instead of cloning it, so a
    // single-consumer output reaches its consumer uniquely held and can
    // be reused in place instead of copy-on-write cloned. Newly ready
    // tasks are published only after the loop, so no consumer of this
    // task can run while it still holds a clone.
    s.deps.clear();
    s.ready.clear();
    class.successors(key, ctx, &mut s.deps);
    s.uses.clear();
    s.uses.resize(outputs.len(), 0);
    for d in &s.deps {
        s.uses[d.src_flow as usize] += 1;
    }
    for d in &s.deps {
        let f = d.src_flow as usize;
        s.uses[f] -= 1;
        let payload = if s.uses[f] == 0 {
            outputs[f].take()
        } else {
            outputs[f].clone()
        };
        if shared.deliver(d.dst, d.dst_flow, payload) {
            let prio = graph.class_of(d.dst).priority(d.dst, ctx);
            s.ready.push((d.dst, prio));
        }
    }
    drop(outputs);

    // Order the batch for the local deque's pop end, then publish. The
    // policy is approximate across workers (steals are oldest-first) but
    // exact within the batch.
    match shared.policy {
        // FIFO deque pops oldest-first: push best first.
        SchedPolicy::PriorityFifo => s.ready.sort_by_key(|&(_, p)| std::cmp::Reverse(p)),
        // LIFO deque pops newest-first: push best last.
        SchedPolicy::PriorityLifo => s.ready.sort_by_key(|&(_, p)| p),
        SchedPolicy::Fifo | SchedPolicy::Lifo => {}
        // Same-chain tasks (hot C tile) last, highest priority among them
        // very last, so the owner pops them first.
        SchedPolicy::ChainAffinity => {
            let chain = s.last_chain;
            s.ready
                .sort_by_key(|&(k, p)| (chain == Some(k.params[0]), p));
        }
    }
    for &(key, _) in s.ready.iter() {
        local.push(Ready { key, root: false });
        shared.gate.notify_one();
    }

    shared.executed.fetch_add(1, Ordering::SeqCst);
    if shared.live.fetch_sub(1, Ordering::SeqCst) == 1 {
        // This completion reached quiescence; exactly one worker sees it
        // (per quiescent episode — an external source can re-seed roots).
        if shared.source.is_none() {
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        // With a source, termination is decided at the all-idle scan
        // (the source may still hold or receive chains); wake everyone
        // so the scan happens promptly.
        shared.gate.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptg::{Dep, GraphCtx, PlainCtx};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// SUM(i): i in 0..n leaves produce i; ADD(level, j) reduce pairwise.
    /// Simplified: one class, params [kind, i]; kind 0 = leaf, 1 = final.
    struct Reduce {
        n: i64,
        total: Arc<AtomicU64>,
    }
    impl ptg::TaskClass for Reduce {
        fn name(&self) -> &str {
            "REDUCE"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            for i in 0..self.n {
                out.push(TaskKey::new(0, &[0, i]));
            }
        }
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            if key.params[0] == 0 {
                0
            } else {
                self.n as usize
            }
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            if key.params[0] == 0 {
                out.push(Dep {
                    src_flow: 0,
                    dst: TaskKey::new(0, &[1, 0]),
                    // all leaves feed the same flow of the sink; the engine
                    // must count them individually
                    dst_flow: 0,
                });
            }
        }
        fn execute(
            &self,
            key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            if key.params[0] == 0 {
                self.total
                    .fetch_add(key.params[1] as u64, Ordering::Relaxed);
                vec![Some(Payload::from(vec![key.params[1] as f64]))]
            } else {
                vec![None]
            }
        }
    }

    #[test]
    fn executes_fan_in_graph() {
        let total = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(Reduce {
                n: 10,
                total: total.clone(),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let rep = NativeRuntime::new(4).run(&g);
        assert_eq!(rep.tasks, 11);
        assert_eq!(total.load(Ordering::Relaxed), 45);
        assert!(rep.trace.find_overlap().is_none());
    }

    #[test]
    fn single_thread_works() {
        let total = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(Reduce {
                n: 3,
                total: total.clone(),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let rep = NativeRuntime::new(1).policy(SchedPolicy::Fifo).run(&g);
        assert_eq!(rep.tasks, 4);
    }

    #[test]
    fn all_policies_execute_fan_in() {
        for policy in [
            SchedPolicy::PriorityFifo,
            SchedPolicy::PriorityLifo,
            SchedPolicy::Fifo,
            SchedPolicy::Lifo,
            SchedPolicy::ChainAffinity,
        ] {
            let total = Arc::new(AtomicU64::new(0));
            let g = TaskGraph::new(
                vec![Arc::new(Reduce {
                    n: 16,
                    total: total.clone(),
                })],
                Arc::new(PlainCtx { nodes: 1 }),
            );
            let rep = NativeRuntime::new(4).policy(policy).run(&g);
            assert_eq!(rep.tasks, 17, "{policy:?}");
            assert_eq!(total.load(Ordering::Relaxed), 120, "{policy:?}");
        }
    }

    /// Leaves defer their execution to a helper thread (as readers defer
    /// to the comm layer); the sink must feed completions back into the
    /// engine's frontier and the run must still quiesce.
    struct AsyncReduce {
        n: i64,
        total: Arc<AtomicU64>,
    }
    impl ptg::TaskClass for AsyncReduce {
        fn name(&self) -> &str {
            "AREDUCE"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            for i in 0..self.n {
                out.push(TaskKey::new(0, &[0, i]));
            }
        }
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            if key.params[0] == 0 {
                0
            } else {
                self.n as usize
            }
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            if key.params[0] == 0 {
                out.push(Dep {
                    src_flow: 0,
                    dst: TaskKey::new(0, &[1, 0]),
                    dst_flow: 0,
                });
            }
        }
        fn execute(
            &self,
            key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            // Only the sink runs synchronously.
            assert_eq!(key.params[0], 1);
            vec![None]
        }
        fn execute_async(
            &self,
            key: TaskKey,
            ctx: &dyn GraphCtx,
            inputs: &mut [Option<Payload>],
            done: ptg::Completion,
        ) -> Option<Vec<Option<Payload>>> {
            if key.params[0] != 0 {
                return Some(self.execute(key, ctx, inputs));
            }
            let total = self.total.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(200));
                let i = done.key().params[1];
                total.fetch_add(i as u64, Ordering::Relaxed);
                done.finish(vec![Some(Payload::from(vec![i as f64]))]);
            });
            None
        }
    }

    #[test]
    fn deferred_completions_feed_the_frontier() {
        let total = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(AsyncReduce {
                n: 24,
                total: total.clone(),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let rep = NativeRuntime::new(2).run(&g);
        assert_eq!(rep.tasks, 25);
        assert_eq!(total.load(Ordering::Relaxed), 276);
    }

    /// Like `Reduce` but with no static roots: every leaf arrives through
    /// the external [`WorkSource`].
    struct ExtReduce {
        n: i64,
        total: Arc<AtomicU64>,
    }
    impl ptg::TaskClass for ExtReduce {
        fn name(&self) -> &str {
            "XREDUCE"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, _out: &mut Vec<TaskKey>) {}
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            if key.params[0] == 0 {
                0
            } else {
                self.n as usize
            }
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            if key.params[0] == 0 {
                out.push(Dep {
                    src_flow: 0,
                    dst: TaskKey::new(0, &[1, 0]),
                    dst_flow: 0,
                });
            }
        }
        fn execute(
            &self,
            key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            if key.params[0] == 0 {
                self.total
                    .fetch_add(key.params[1] as u64, Ordering::Relaxed);
                vec![Some(Payload::from(vec![key.params[1] as f64]))]
            } else {
                vec![None]
            }
        }
    }

    /// Hands out immediate batches, then goes Pending until a helper
    /// thread (standing in for a comm-thread steal reply) delivers a late
    /// batch through the gate, then reports Empty.
    struct DripSource {
        batches: Mutex<Vec<Vec<TaskKey>>>,
        late: Mutex<Option<Vec<TaskKey>>>,
        late_done: AtomicBool,
        gate: Mutex<Option<Arc<IdleGate>>>,
    }
    impl WorkSource for DripSource {
        fn attach(&self, gate: Arc<IdleGate>) {
            *self.gate.lock() = Some(gate);
        }
        fn poll(&self) -> SourcePoll {
            if let Some(b) = self.batches.lock().pop() {
                return SourcePoll::Tasks(b);
            }
            if let Some(l) = self.late.lock().take() {
                return SourcePoll::Tasks(l);
            }
            if self.late_done.load(Ordering::SeqCst) {
                return SourcePoll::Empty;
            }
            SourcePoll::Pending
        }
    }

    #[test]
    fn external_source_feeds_and_terminates_the_run() {
        let n = 24i64;
        let keys: Vec<TaskKey> = (0..n).map(|i| TaskKey::new(0, &[0, i])).collect();
        let source = Arc::new(DripSource {
            batches: Mutex::new(keys[..18].chunks(6).map(<[TaskKey]>::to_vec).collect()),
            late: Mutex::new(None),
            late_done: AtomicBool::new(false),
            gate: Mutex::new(None),
        });
        let feeder = {
            let source = source.clone();
            let late: Vec<TaskKey> = keys[18..].to_vec();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                *source.late.lock() = Some(late);
                source.late_done.store(true, Ordering::SeqCst);
                loop {
                    // Attach happens at run start, well before the 5 ms
                    // sleep elapses; the loop only covers a slow spawn.
                    if let Some(g) = source.gate.lock().clone() {
                        g.notify_all();
                        break;
                    }
                    std::thread::yield_now();
                }
            })
        };
        let total = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(ExtReduce {
                n,
                total: total.clone(),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let rep = NativeRuntime::new(4).source(source).run(&g);
        feeder.join().unwrap();
        assert_eq!(rep.tasks, 25);
        assert_eq!(total.load(Ordering::Relaxed), 276);
        assert_eq!(rep.steal.external_tasks, 24);
        assert_eq!(rep.steal.per_worker_tasks.iter().sum::<u64>(), rep.tasks);
    }

    #[test]
    fn counts_match_audit_and_closed_form() {
        let n = 32;
        let total = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(Reduce {
                n,
                total: total.clone(),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let audit = ptg::validate::audit(&g, 1_000).expect("sound graph");
        let rep = NativeRuntime::new(3).run(&g);
        assert_eq!(rep.tasks, audit.total_tasks as u64);
        assert_eq!(rep.steal.per_worker_tasks.iter().sum::<u64>(), rep.tasks);
        // Leaves contribute 0 + 1 + ... + (n - 1).
        assert_eq!(total.load(Ordering::Relaxed), (n * (n - 1) / 2) as u64);
    }

    /// Run `graph` on `threads` workers on a helper thread and wait at
    /// most 10 s for it: the task count, or the panic message the run
    /// re-raised. A run that neither returns nor panics fails the test.
    fn run_with_deadline(graph: Arc<TaskGraph>, threads: usize) -> Result<u64, String> {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                NativeRuntime::new(threads).run(&graph).tasks
            }));
            let _ = tx.send(run.map_err(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            }));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("run on {threads} worker(s) hung"));
        runner.join().expect("the runner catches the run's panic");
        outcome
    }

    /// 64 independent roots; the body of root 17 panics.
    struct Boom;
    impl ptg::TaskClass for Boom {
        fn name(&self) -> &str {
            "BOOM"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            for i in 0..64 {
                out.push(TaskKey::new(0, &[i]));
            }
        }
        fn num_inputs(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            0
        }
        fn successors(&self, _key: TaskKey, _ctx: &dyn GraphCtx, _out: &mut Vec<Dep>) {}
        fn execute(
            &self,
            key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            assert_ne!(key.params[0], 17, "task body failed");
            vec![None]
        }
    }

    #[test]
    fn a_panicking_body_stops_the_run_and_is_reraised() {
        let g = Arc::new(TaskGraph::new(
            vec![Arc::new(Boom)],
            Arc::new(PlainCtx { nodes: 1 }),
        ));
        for threads in [1, 2, 4] {
            let err = run_with_deadline(g.clone(), threads).expect_err("the run must panic");
            assert!(
                err.contains("task body failed"),
                "{threads} worker(s): {err}"
            );
        }
    }

    /// Source-fed leaves defer their completion to a helper thread (as
    /// readers defer to the comm thread); one sink collects them all.
    struct Deferred {
        n: i64,
        to_helper: std::sync::mpsc::Sender<Completion>,
    }
    impl ptg::TaskClass for Deferred {
        fn name(&self) -> &str {
            "DEFERRED"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, _out: &mut Vec<TaskKey>) {}
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            if key.params[0] == 0 {
                0
            } else {
                self.n as usize
            }
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            if key.params[0] == 0 {
                out.push(Dep {
                    src_flow: 0,
                    dst: TaskKey::new(0, &[1, 0]),
                    dst_flow: 0,
                });
            }
        }
        fn execute(
            &self,
            key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            assert_eq!(key.params[0], 1, "only the sink runs synchronously");
            vec![None]
        }
        fn execute_async(
            &self,
            key: TaskKey,
            ctx: &dyn GraphCtx,
            inputs: &mut [Option<Payload>],
            done: Completion,
        ) -> Option<Vec<Option<Payload>>> {
            if key.params[0] != 0 {
                return Some(self.execute(key, ctx, inputs));
            }
            self.to_helper.send(done).expect("helper alive");
            None
        }
    }

    /// Termination under deferred completions: every run must end
    /// quiescent (the engine asserts it) with the exact task count. A
    /// helper thread finishes the leaves while the workers are parked:
    /// on even runs it holds all of them, pauses, and finishes them back
    /// to back; on odd runs it finishes them one at a time, pausing
    /// before some. 8 workers oversubscribe the cores, so workers are
    /// preempted mid-scan; that is how a worker woken by one completion
    /// could drain the last one between another worker's all-idle count
    /// and its read of the completion counters, and end the run early.
    #[test]
    fn source_fed_runs_terminate_exactly_under_deferred_completions() {
        const RUNS: usize = 2000;
        let n = 8i64;
        let pause = std::time::Duration::from_micros(20);
        for threads in [1, 2, 4, 8] {
            for run in 0..RUNS {
                let (to_helper, from_engine) = std::sync::mpsc::channel::<Completion>();
                let helper = std::thread::spawn(move || {
                    let finish = |done: Completion| {
                        let i = done.key().params[1];
                        done.finish(vec![Some(Payload::from(vec![i as f64]))]);
                    };
                    if run % 2 == 0 {
                        let held: Vec<Completion> = from_engine.iter().take(n as usize).collect();
                        std::thread::sleep(pause);
                        held.into_iter().for_each(finish);
                    } else {
                        for (j, done) in from_engine.iter().enumerate() {
                            if j % 3 == 0 {
                                std::thread::sleep(pause);
                            }
                            finish(done);
                        }
                    }
                });
                let keys: Vec<TaskKey> = (0..n).map(|i| TaskKey::new(0, &[0, i])).collect();
                let source = Arc::new(DripSource {
                    batches: Mutex::new(keys.chunks(2).map(<[TaskKey]>::to_vec).collect()),
                    late: Mutex::new(None),
                    late_done: AtomicBool::new(true),
                    gate: Mutex::new(None),
                });
                let g = TaskGraph::new(
                    vec![Arc::new(Deferred { n, to_helper })],
                    Arc::new(PlainCtx { nodes: 1 }),
                );
                let rep = NativeRuntime::new(threads).source(source).run(&g);
                drop(g);
                helper.join().unwrap();
                assert_eq!(rep.tasks, n as u64 + 1, "{threads} worker(s), run {run}");
                assert_eq!(rep.steal.external_tasks, n as u64);
            }
        }
    }

    /// HANDOFF(0) is a root with two output flows: flow 0 feeds HANDOFF(1)
    /// and HANDOFF(2), flow 1 feeds only HANDOFF(3). Each consumer records
    /// the address of the buffer it received and whether it held it alone.
    #[derive(Default)]
    struct Handoff {
        seen: Mutex<Vec<(i64, usize, bool)>>,
    }
    impl ptg::TaskClass for Handoff {
        fn name(&self) -> &str {
            "HANDOFF"
        }
        fn num_flows(&self) -> usize {
            2
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            out.push(TaskKey::new(0, &[0]));
        }
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            usize::from(key.params[0] != 0)
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            if key.params[0] == 0 {
                for (src_flow, dst) in [(0, 1), (0, 2), (1, 3)] {
                    out.push(Dep {
                        src_flow,
                        dst: TaskKey::new(0, &[dst]),
                        dst_flow: 0,
                    });
                }
            }
        }
        fn execute(
            &self,
            key: TaskKey,
            _ctx: &dyn GraphCtx,
            inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            if key.params[0] == 0 {
                return vec![
                    Some(Payload::from(vec![1.0; 16])),
                    Some(Payload::from(vec![2.0; 16])),
                ];
            }
            let p = inputs[0].take().expect("input delivered");
            let addr = p.as_ptr() as usize;
            let alone = p.into_vec().is_ok();
            self.seen.lock().push((key.params[0], addr, alone));
            vec![None, None]
        }
    }

    #[test]
    fn frontier_moves_single_consumer_outputs_and_shares_fanned_out_ones() {
        for threads in [1, 2] {
            let class = Arc::new(Handoff::default());
            let g = TaskGraph::new(vec![class.clone()], Arc::new(PlainCtx { nodes: 1 }));
            assert_eq!(NativeRuntime::new(threads).run(&g).tasks, 4);
            let mut seen = class.seen.lock().clone();
            seen.sort_unstable();
            let [(1, a1, _), (2, a2, _), (3, _, alone3)] = seen[..] else {
                panic!("unexpected consumers: {seen:?}");
            };
            // Flow 0's two successors got one buffer, not two copies.
            assert_eq!(a1, a2, "{threads} worker(s)");
            // Flow 1's only successor holds its buffer alone (strong
            // count 1), so it may take the memory over in place.
            assert!(
                alone3,
                "{threads} worker(s): single-consumer payload arrived shared"
            );
        }
    }

    /// OVER(0) sends two edges to OVER(1), which declares one input.
    struct Over;
    impl ptg::TaskClass for Over {
        fn name(&self) -> &str {
            "OVER"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            out.push(TaskKey::new(0, &[0]));
        }
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            usize::from(key.params[0] != 0)
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            if key.params[0] == 0 {
                for _ in 0..2 {
                    out.push(Dep {
                        src_flow: 0,
                        dst: TaskKey::new(0, &[1]),
                        dst_flow: 0,
                    });
                }
            }
        }
        fn execute(
            &self,
            _key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            vec![Some(Payload::from(vec![0.0]))]
        }
    }

    #[test]
    fn over_delivery_panics_and_names_the_task() {
        let g = Arc::new(TaskGraph::new(
            vec![Arc::new(Over)],
            Arc::new(PlainCtx { nodes: 1 }),
        ));
        for threads in [1, 2] {
            let err = run_with_deadline(g.clone(), threads).expect_err("over-delivery must panic");
            assert!(
                err.contains("over-delivery to OVER(1, 0, 0, 0)"),
                "{threads} worker(s): {err}"
            );
        }
    }

    #[test]
    fn concurrent_deliveries_count_exactly() {
        // 8 threads deliver 100 edges each into a task declaring 800
        // inputs: exactly one delivery makes it ready, the task is
        // discovered once, and its slot holds the delivered payload.
        struct FanIn;
        impl ptg::TaskClass for FanIn {
            fn name(&self) -> &str {
                "F"
            }
            fn num_flows(&self) -> usize {
                1
            }
            fn roots(&self, _ctx: &dyn GraphCtx, _out: &mut Vec<TaskKey>) {}
            fn num_inputs(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
                800
            }
            fn successors(&self, _key: TaskKey, _ctx: &dyn GraphCtx, _out: &mut Vec<Dep>) {}
            fn execute(
                &self,
                _key: TaskKey,
                _ctx: &dyn GraphCtx,
                _inputs: &mut [Option<Payload>],
            ) -> Vec<Option<Payload>> {
                vec![None]
            }
        }

        let g = TaskGraph::new(vec![Arc::new(FanIn)], Arc::new(PlainCtx { nodes: 1 }));
        let shared = Shared::new(&NativeRuntime::new(8), &g, Vec::new());
        let dst = TaskKey::new(0, &[0]);
        let ready = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        if shared.deliver(dst, 0, Some(Payload::from(vec![1.0]))) {
                            ready.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(ready.load(Ordering::SeqCst), 1);
        assert_eq!(shared.live.load(Ordering::SeqCst), 1);
        assert_eq!(shared.frontier.len(), 1);
        let inputs = shared.take_inputs(Ready {
            key: dst,
            root: false,
        });
        assert_eq!(inputs[0].as_deref(), Some(&[1.0][..]));
        assert!(shared.frontier.is_empty());
    }

    /// Spin until `flag` is set; false after 5 s.
    fn wait_for(flag: &AtomicBool) -> bool {
        let t0 = Instant::now();
        while !flag.load(Ordering::SeqCst) {
            if t0.elapsed() > std::time::Duration::from_secs(5) {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// RACE(0) sends flow 0 to RACE(2), then flow 1 to RACE(3). RACE(1)
    /// sends the other input of RACE(2). RACE(3)'s priority, asked while
    /// RACE(0) is still in its delivery loop, holds that loop until
    /// RACE(2) has run; RACE(1)'s body waits for that moment, so RACE(2)
    /// becomes ready on the other worker while its producer still
    /// settles.
    #[derive(Default)]
    struct Race {
        producer_settling: AtomicBool,
        consumer_ran: AtomicBool,
        timed_out: AtomicBool,
        consumer_alone: AtomicBool,
    }
    impl ptg::TaskClass for Race {
        fn name(&self) -> &str {
            "RACE"
        }
        fn num_flows(&self) -> usize {
            2
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            out.push(TaskKey::new(0, &[0]));
            out.push(TaskKey::new(0, &[1]));
        }
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            [0, 0, 2, 1][key.params[0] as usize]
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            let dep = |src_flow, dst, dst_flow| Dep {
                src_flow,
                dst: TaskKey::new(0, &[dst]),
                dst_flow,
            };
            match key.params[0] {
                0 => out.extend([dep(0, 2, 0), dep(1, 3, 0)]),
                1 => out.push(dep(0, 2, 1)),
                _ => {}
            }
        }
        fn priority(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> i64 {
            if key.params[0] == 3 {
                self.producer_settling.store(true, Ordering::SeqCst);
                if !wait_for(&self.consumer_ran) {
                    self.timed_out.store(true, Ordering::SeqCst);
                }
            }
            0
        }
        fn execute(
            &self,
            key: TaskKey,
            _ctx: &dyn GraphCtx,
            inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            match key.params[0] {
                0 => vec![
                    Some(Payload::from(vec![1.0; 16])),
                    Some(Payload::from(vec![2.0])),
                ],
                1 => {
                    if !wait_for(&self.producer_settling) {
                        self.timed_out.store(true, Ordering::SeqCst);
                    }
                    vec![Some(Payload::from(vec![3.0])), None]
                }
                2 => {
                    let p = inputs[0].take().expect("RACE(0)'s flow 0");
                    let alone = p.into_vec().is_ok();
                    self.consumer_alone.store(alone, Ordering::SeqCst);
                    self.consumer_ran.store(true, Ordering::SeqCst);
                    vec![None, None]
                }
                _ => vec![None, None],
            }
        }
    }

    #[test]
    fn a_consumer_holds_its_input_alone_while_the_producer_still_settles() {
        let class = Arc::new(Race::default());
        let g = TaskGraph::new(vec![class.clone()], Arc::new(PlainCtx { nodes: 1 }));
        assert_eq!(NativeRuntime::new(2).run(&g).tasks, 4);
        assert!(
            !class.timed_out.load(Ordering::SeqCst),
            "the interleaving was not reached"
        );
        // The producer moved its single-consumer output into the slot, so
        // it keeps no reference while the consumer runs.
        assert!(class.consumer_alone.load(Ordering::SeqCst));
    }
}
