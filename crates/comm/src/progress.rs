//! Per-rank progress engine: one dedicated thread servicing one-sided
//! active messages against the rank-local shard store.
//!
//! This mirrors the structure the paper attributes to both Global Arrays
//! (the data server answering `GET_HASH_BLOCK`/`ADD_HASH_BLOCK`) and
//! PaRSEC (the communication thread that lets transfers overlap with
//! computation): application threads *post* operations and continue; the
//! progress thread completes them, invoking completion callbacks that
//! feed the task runtime's dependency tracker.
//!
//! Backpressure: asynchronous gets are capped per target rank. Excess
//! requests queue in a priority heap ordered by the caller's task
//! priority, so under contention the wire carries the *next needed*
//! operand first — the transport-level half of the paper's
//! `max_L1 - L1 + offset * P` prefetch scheme. Every completed get frees
//! a slot and launches the best queued request toward that rank.
//!
//! Fault tolerance: the engine assumes only that the transport delivers
//! each frame *at most once* — frames may be lost, delayed, duplicated
//! or reordered (see [`crate::fault::FaultTransport`]). Every pending
//! operation carries a deadline; on expiry the progress thread
//! retransmits with capped exponential backoff (a retried get keeps its
//! in-flight slot, so queue priority is preserved across retries).
//! Mutating requests carry a per-(sender, receiver) contiguous sequence
//! number and the server applies each at most once, answering duplicates
//! from a compact dedup record — so an accumulate is never double
//! applied even when a lost ack forces a resend. Late or duplicate
//! completions (an eager get reply racing its own retry, a second
//! `PutAck`) are counted no-ops, never panics.

use crate::msg::{GetSpec, Msg, ReplyView, WireSlice};
use crate::transport::Transport;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xtrace::{ActivityKind, Trace, WorkerId};

/// Rank-local storage the progress engine services requests against.
/// Offsets are *global* element offsets; implementations translate to
/// their shard and must own the whole requested range (requesters split
/// ranges by owner before posting).
pub trait ShardStore: Send + Sync + 'static {
    /// Read `len` elements at global `offset`.
    fn read(&self, array: u32, offset: usize, len: usize) -> Vec<f64>;
    /// Overwrite with `data` at global `offset`.
    fn write(&self, array: u32, offset: usize, data: &[f64]);
    /// `shard[offset..] += alpha * data`, atomic w.r.t. other accumulates.
    fn accumulate(&self, array: u32, offset: usize, data: &[f64], alpha: f64);
}

/// Progress-engine tuning knobs.
#[derive(Debug, Clone)]
pub struct CommConfig {
    /// Payloads of at most this many bytes travel eagerly; larger ones
    /// rendezvous (default 4 KiB — a few small tiles).
    pub eager_threshold: usize,
    /// Maximum outstanding gets per target rank; further posts queue by
    /// priority (default 4).
    pub max_inflight_gets: usize,
    /// Worker row used for communication spans in traces. Kept far above
    /// compute worker indices so merged Gantt charts show a distinct
    /// communication row per node.
    pub comm_worker: u32,
    /// Initial per-request retransmission timeout. Far above any healthy
    /// round trip (default 1 s), so fault-free runs never retry; chaos
    /// tests shrink it to keep recovery fast.
    pub retry_timeout: Duration,
    /// Ceiling of the exponential retransmission backoff (default 4 s).
    /// Retries continue indefinitely at this cadence — the fault model
    /// is transient loss, and termination comes from the transport
    /// eventually delivering, not from giving up.
    pub retry_backoff_max: Duration,
    /// Order queued gets primarily by destination block (array, offset)
    /// rather than by priority alone (default true). Adjacent blocks
    /// drain consecutively, so batch frames carry spatially-clustered
    /// reads; task priority still breaks ties within a block.
    pub locality_order: bool,
    /// Maximum queued gets packed into one `MultiGet` frame when a freed
    /// in-flight slot drains the queue (default 8). `1` disables
    /// batching entirely — every request travels as a plain `Get`.
    pub max_batch_parts: usize,
    /// Byte ceiling on one batch's total reply payload (default 256
    /// KiB). Batched replies are always inline — this cap bounds the
    /// frame where the rendezvous protocol would otherwise pace it.
    pub max_batch_bytes: usize,
    /// Failure detector: a peer silent for this long turns *suspect* and
    /// gets pinged (liveness piggybacks on every received frame, so only
    /// idle links are probed). `None` — the default — disables the
    /// detector entirely: no per-peer bookkeeping, no pings, zero
    /// overhead on a healthy mesh.
    pub suspect_after: Option<Duration>,
    /// A suspect peer still silent after this much total silence is
    /// declared *dead*: every pending operation toward it aborts (gets
    /// complete with zeros, fences release, barriers over gangs
    /// containing it poison-release) and the registered
    /// [`FailureHandler`] fires. Must exceed `suspect_after` by enough
    /// ping round trips to keep false positives implausible.
    pub dead_after: Duration,
}

impl Default for CommConfig {
    fn default() -> Self {
        Self {
            eager_threshold: 4096,
            max_inflight_gets: 4,
            comm_worker: 1000,
            retry_timeout: Duration::from_secs(1),
            retry_backoff_max: Duration::from_secs(4),
            locality_order: true,
            max_batch_parts: 8,
            max_batch_bytes: 256 * 1024,
            suspect_after: None,
            dead_after: Duration::from_secs(2),
        }
    }
}

/// Completion callback of an asynchronous get. The payload arrives as a
/// borrowed [`WireSlice`] — usually raw bytes still in the received
/// frame — so callbacks copy once, straight into their own buffer.
pub type GetCallback = Box<dyn FnOnce(WireSlice<'_>) + Send>;

/// Completion callback of a [`Endpoint::steal_async`]: the donated chain
/// indices (empty when the victim was dry). Runs on the progress thread.
pub type StealCallback = Box<dyn FnOnce(Vec<u64>) + Send>;

/// Server side of the cross-rank steal protocol: the runtime registers
/// one of these per run, and the progress thread calls `donate` when a
/// `StealRequest` arrives. The grant must be transactional — chains
/// returned here are *gone* from the local pool, because the reply (and
/// the recorded re-reply a retransmission gets) is the thief's title to
/// execute them.
pub trait StealHandler: Send + Sync {
    /// Donate up to `limit` ready chains to `thief`, or empty when dry or
    /// when `epoch` names a different collective run than the current one.
    fn donate(&self, thief: usize, epoch: u64, limit: u32) -> Vec<u64>;
}

/// Completion callback of an [`Endpoint::submit_async`]: the job id the
/// gateway assigned ([`JOB_REJECTED`] when no service was listening).
/// Runs on the progress thread.
pub type SubmitCallback = Box<dyn FnOnce(u64) + Send>;

/// Completion callback of an [`Endpoint::job_status_async`]: the
/// service-defined state code and result bits. Runs on the progress
/// thread.
pub type StatusCallback = Box<dyn FnOnce(u8, u64) + Send>;

/// Sentinel job id: "assign me one" in a [`Msg::Submit`] request, and
/// "no service listening / rejected" in its reply.
pub const JOB_REJECTED: u64 = u64::MAX;

/// Server side of the job service protocol: the `svc` layer registers
/// one of these per daemon, and the progress thread calls into it when
/// job control AMs arrive. Like [`StealHandler::donate`], `submit` must
/// be transactional — the id returned here is recorded against the
/// request's sequence number, and a retransmitted submit re-receives it
/// without a second enqueue.
pub trait JobHandler: Send + Sync {
    /// A job submission arrived from `from`. `job_id == JOB_REJECTED`
    /// asks this rank (the gateway) to admit the spec and assign an id;
    /// a concrete id is a gateway dispatch fixing the job's collective
    /// execution ordinal on this member rank (echo it back). Returns the
    /// id to acknowledge.
    fn submit(&self, from: usize, job_id: u64, spec: &[u64]) -> u64;
    /// Status poll: `(state code, result bits)` for `job_id`. Read-only.
    fn status(&self, job_id: u64) -> (u8, u64);
    /// Member rank `from` reports local completion of `job_id` with its
    /// result bits. Called at most once per report (dedup-gated).
    fn done(&self, from: usize, job_id: u64, result: u64);
}

/// Observer of failure-detector verdicts. Registered per endpoint (the
/// `svc` layer installs one on the gateway rank to fence dead ranks and
/// requeue their jobs). Callbacks run on the progress thread, after the
/// detector has already aborted every pending operation toward the rank
/// — so the handler may post new operations but must not block on
/// collectives.
pub trait FailureHandler: Send + Sync {
    /// `rank` was silent past [`CommConfig::dead_after`] and is now
    /// confirmed dead. Its bit is already set in [`Endpoint::dead_mask`].
    fn on_death(&self, rank: usize);
    /// A frame arrived from a rank previously confirmed dead: it
    /// rejoined. Its dead-mask bit is already cleared.
    fn on_rejoin(&self, _rank: usize) {}
}

/// Operation counters, all frames and payloads.
#[derive(Debug, Default)]
struct CommStats {
    msgs_tx: AtomicU64,
    msgs_rx: AtomicU64,
    bytes_tx: AtomicU64,
    bytes_rx: AtomicU64,
    gets: AtomicU64,
    puts: AtomicU64,
    accs: AtomicU64,
    nxtvals: AtomicU64,
    eager_payloads: AtomicU64,
    rndv_payloads: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    dup_requests: AtomicU64,
    dup_replies: AtomicU64,
    get_req_bytes: AtomicU64,
    get_wire_bytes: AtomicU64,
    multi_gets: AtomicU64,
    multi_parts: AtomicU64,
    steal_reqs: AtomicU64,
    steal_chains_rx: AtomicU64,
    steal_dry_rx: AtomicU64,
    steal_donated: AtomicU64,
    job_submits: AtomicU64,
    job_polls: AtomicU64,
    job_dones: AtomicU64,
    job_served: AtomicU64,
    suspects: AtomicU64,
    confirmed_deaths: AtomicU64,
    pings_tx: AtomicU64,
    rejoins: AtomicU64,
    aborted_ops: AtomicU64,
}

/// Point-in-time copy of a rank's communication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStatsSnap {
    /// Frames sent / received (including control messages).
    pub msgs_tx: u64,
    pub msgs_rx: u64,
    /// Encoded frame bytes sent / received.
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    /// One-sided operations posted by this rank.
    pub gets: u64,
    pub puts: u64,
    pub accs: u64,
    pub nxtvals: u64,
    /// Payload transfers by protocol, counted where the choice is made
    /// (get replies on the server, puts/accs on the sender).
    pub eager_payloads: u64,
    pub rndv_payloads: u64,
    /// Pending-operation deadlines that expired (one per retransmission
    /// decision). Zero on a healthy network.
    pub timeouts: u64,
    /// Request frames retransmitted after a timeout.
    pub retries: u64,
    /// Duplicate requests this rank's server side detected and answered
    /// without re-applying (the idempotency dedup at work).
    pub dup_requests: u64,
    /// Late or duplicate completions (replies/acks whose pending entry
    /// was already gone) absorbed as no-ops.
    pub dup_replies: u64,
    /// Payload bytes requested by every posted get.
    pub get_req_bytes: u64,
    /// Get payload bytes actually delivered off the wire; equals
    /// `get_req_bytes` once the pipeline drains (duplicate reads are
    /// merged above, by the GA tile cache, never here).
    pub get_wire_bytes: u64,
    /// `MultiGet` batch frames sent, and the gets they carried. Batch
    /// occupancy is `multi_parts / multi_gets`.
    pub multi_gets: u64,
    pub multi_parts: u64,
    /// Steal requests this rank posted (thief side).
    pub steal_reqs: u64,
    /// Chains received via steal replies, and dry (empty) replies.
    pub steal_chains_rx: u64,
    pub steal_dry_rx: u64,
    /// Chains this rank donated to thieves (victim side).
    pub steal_donated: u64,
    /// Job submissions this rank posted (client side).
    pub job_submits: u64,
    /// Job status polls this rank posted (client side).
    pub job_polls: u64,
    /// Job completion reports this rank posted (member side).
    pub job_dones: u64,
    /// Fresh (non-duplicate) job control requests this rank's handler
    /// served (gateway/member side).
    pub job_served: u64,
    /// Suspicion episodes the failure detector opened (a peer fell
    /// silent past `suspect_after`). An idle-but-healthy link clears
    /// with one ping round trip.
    pub suspects: u64,
    /// Peers this rank declared dead (silent past `dead_after`).
    pub confirmed_deaths: u64,
    /// Liveness pings sent toward suspect or dead peers.
    pub pings_tx: u64,
    /// Dead peers that spoke again and were readmitted.
    pub rejoins: u64,
    /// Pending operations aborted because their target died (gets
    /// completed with zeros, acks force-completed, collective waits
    /// poison-released, ...).
    pub aborted_ops: u64,
}

/// Deadline state of one retryable in-flight request.
struct Retry {
    deadline: Instant,
    backoff: Duration,
}

impl Retry {
    fn new(cfg: &CommConfig) -> Self {
        Self {
            deadline: Instant::now() + cfg.retry_timeout,
            backoff: cfg.retry_timeout,
        }
    }

    /// If the deadline passed, double the (capped) backoff, re-arm, and
    /// report that a retransmission is due.
    fn due(&mut self, now: Instant, cap: Duration) -> bool {
        if now < self.deadline {
            return false;
        }
        self.backoff = (self.backoff * 2).min(cap);
        self.deadline = now + self.backoff;
        true
    }
}

struct PendingGet {
    peer: usize,
    posted_ns: u64,
    /// Completion of the poster, run once by the reply (or the abort).
    cb: GetCallback,
    array: u32,
    offset: u64,
    len: u64,
    /// Set once the request went on the wire (alone or inside a batch);
    /// stale heap entries for launched tokens are skipped on pop.
    launched: bool,
    /// `None` while the request sits in the priority queue or rides a
    /// batch (the batch owns the retry); armed when launched alone.
    retry: Option<Retry>,
    retries: u32,
}

/// One `MultiGet` batch in flight: the sub-request tokens it carries (in
/// frame order) and its retry state. The batch is the retry/dedup unit —
/// a timeout resends the whole frame, a reply completes every sub.
struct PendingBatch {
    peer: usize,
    subs: Vec<u64>,
    retry: Retry,
    retries: u32,
}

struct QueuedGet {
    /// Locality key: `(array, offset)` when `CommConfig::locality_order`
    /// is set, constant otherwise (priority then decides alone).
    block: (u32, u64),
    prio: i64,
    seq: u64,
    token: u64,
    array: u32,
    offset: u64,
    len: u64,
}

impl PartialEq for QueuedGet {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedGet {}
impl PartialOrd for QueuedGet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedGet {
    /// Max-heap. Lowest destination block drains first (so consecutive
    /// pops hit adjacent blocks and batch frames stay spatially dense),
    /// then highest priority, then FIFO (lowest sequence).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .block
            .cmp(&self.block)
            .then(self.prio.cmp(&other.prio))
            .then(other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct PeerGets {
    inflight: usize,
    queue: BinaryHeap<QueuedGet>,
}

/// Server-side at-most-once record for one requesting peer. Sequence
/// numbers per (sender, receiver) pair are allocated contiguously and
/// every one is retransmitted until acknowledged, so the applied set
/// compacts to a watermark plus the out-of-order frontier.
#[derive(Default)]
struct PeerDedup {
    /// Every seq below this has been applied.
    contig: u64,
    /// Applied seqs at or above `contig`, compacted as the prefix fills.
    seen: BTreeSet<u64>,
    /// NXTVAL values by seq, retained so a duplicate request re-receives
    /// the value its original draw took.
    vals: HashMap<u64, i64>,
    /// Steal grants by seq, same story: a retransmitted `StealRequest`
    /// re-receives the chains its original donated, never a fresh grant
    /// (donating twice would execute — and accumulate — a chain twice).
    grants: HashMap<u64, Vec<u64>>,
    /// Job ids by submit seq: a retransmitted `Submit` re-receives the
    /// id its original was assigned, never a second enqueue.
    jobs: HashMap<u64, u64>,
    /// Everything below this floor has been garbage-collected from the
    /// recorded-reply maps above.
    gc_floor: u64,
}

/// Recorded replies this many seqs below the contiguous watermark are
/// garbage-collected — without this, a persistent daemon rank grows its
/// dedup records forever. A record is only consulted by a *duplicate* of
/// a request whose original was already applied; its sender retransmits
/// until the reply lands, so a consult arriving after the same peer has
/// had thousands of *later* mutating requests applied would mean a frame
/// delivered implausibly late. Such a frame now aborts loudly (the
/// `expect`s at the consult sites) instead of being answered wrongly.
const RECORD_RETAIN: u64 = 4096;

impl PeerDedup {
    /// Record `seq`; `false` when it was already applied (duplicate).
    fn fresh(&mut self, seq: u64) -> bool {
        if seq < self.contig || self.seen.contains(&seq) {
            return false;
        }
        self.seen.insert(seq);
        while self.seen.remove(&self.contig) {
            self.contig += 1;
        }
        let floor = self.contig.saturating_sub(RECORD_RETAIN);
        if floor >= self.gc_floor + RECORD_RETAIN {
            // Amortized: one O(records) sweep per RECORD_RETAIN applied
            // seqs keeps each map bounded by ~2 retention windows.
            self.vals.retain(|&s, _| s >= floor);
            self.grants.retain(|&s, _| s >= floor);
            self.jobs.retain(|&s, _| s >= floor);
            self.gc_floor = floor;
        }
        true
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum AckKind {
    Put,
    Acc,
    Reset,
}

struct FlagSlot {
    mx: Mutex<bool>,
    cv: Condvar,
}

impl FlagSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            mx: Mutex::new(false),
            cv: Condvar::new(),
        })
    }
    fn set(&self) {
        *self.mx.lock().unwrap() = true;
        self.cv.notify_all();
    }
    fn wait(&self) {
        let mut done = self.mx.lock().unwrap();
        while !*done {
            done = self.cv.wait(done).unwrap();
        }
    }
}

struct AckWait {
    kind: AckKind,
    eager: bool,
    posted_ns: u64,
    waiter: Option<Arc<FlagSlot>>,
    peer: usize,
    /// Frame to retransmit on timeout: the full eager message, or the
    /// RTS for rendezvous (the parked payload re-flows via CTS).
    resend: Msg,
    retry: Retry,
    retries: u32,
}

/// Outbound rendezvous payload parked until the target's clear-to-send.
/// Retained until the final ack so a duplicated or re-triggered CTS can
/// always be answered; [`Inner::finish_ack`] garbage-collects it.
struct RndvOut {
    peer: usize,
    msg: Msg,
}

/// Parked `NXTVAL` caller: the progress thread deposits the counter
/// value and signals.
type NxtvalSlot = Arc<(Mutex<Option<i64>>, Condvar)>;

struct NxtvalWait {
    slot: NxtvalSlot,
    peer: usize,
    resend: Msg,
    retry: Retry,
}

/// Thief-side pending steal request, retried like any mutating AM.
struct StealWait {
    cb: StealCallback,
    peer: usize,
    posted_ns: u64,
    resend: Msg,
    retry: Retry,
}

/// Client-side pending job submission, retried like any mutating AM.
struct SubmitWait {
    cb: SubmitCallback,
    peer: usize,
    posted_ns: u64,
    resend: Msg,
    retry: Retry,
}

/// Client-side pending status poll. Read-only, but still retried — the
/// request or its reply may be lost.
struct StatusWait {
    cb: StatusCallback,
    peer: usize,
    resend: Msg,
    retry: Retry,
}

/// Member-side pending completion report: fire-and-forget, retried until
/// the gateway's ack retires it.
struct JobDoneWait {
    peer: usize,
    posted_ns: u64,
    resend: Msg,
    retry: Retry,
}

/// The full-mesh gang mask: one bit per rank. This is the group the
/// plain [`Endpoint::barrier`] collective runs over; smaller masks name
/// job gangs (disjoint rank subsets running concurrently).
pub fn full_mask(nranks: usize) -> u64 {
    debug_assert!(nranks <= 64);
    if nranks == 64 {
        u64::MAX
    } else {
        (1u64 << nranks) - 1
    }
}

/// The gang's leader: its lowest member rank, which hosts the barrier
/// counter (and the gang's NXTVAL counter / energy gather at the layers
/// above).
pub fn mask_leader(mask: u64) -> usize {
    debug_assert_ne!(mask, 0);
    mask.trailing_zeros() as usize
}

/// Member ranks of a gang mask, ascending.
pub fn mask_members(mask: u64) -> impl Iterator<Item = usize> {
    (0..64usize).filter(move |r| mask & (1u64 << r) != 0)
}

/// One rank group's barrier protocol state. Every gang mask gets its own
/// independent epoch chain and its own counter rank (the group leader),
/// so concurrent jobs on disjoint gangs never serialize through a shared
/// barrier counter.
#[derive(Default)]
struct BarrierGroup {
    next: u64,
    released: u64,
    /// Local barrier entries awaiting release, with retransmit state.
    enters: HashMap<u64, Retry>,
    /// Leader only: distinct ranks seen per pending epoch.
    entered: HashMap<u64, HashSet<u32>>,
    /// Leader only: highest epoch already released; a late re-entry for
    /// it means the release frame was lost — resend to that rank alone.
    last_released: u64,
    /// Leader only: the epoch of the newest release awaiting
    /// confirmation, and the ranks that acked it. The sweep re-releases
    /// to the unconfirmed rest, and shutdown drains the set before
    /// stopping the progress thread — otherwise a lost release strands
    /// its waiter against a counter rank that can no longer answer the
    /// retried enters.
    ack_epoch: u64,
    acked: HashSet<u32>,
    release_retry: Option<Retry>,
}

/// Barrier state across every gang this rank participates in (or counts
/// for), keyed by gang mask. The full-mesh mask reproduces the classic
/// single-counter protocol.
#[derive(Default)]
struct BarrierState {
    groups: HashMap<u64, BarrierGroup>,
}

/// Failure-detector bookkeeping, allocated only when
/// [`CommConfig::suspect_after`] is set. Liveness is piggybacked: any
/// received frame from a peer refreshes `last_rx`, so pings only flow on
/// links that have gone quiet.
struct Liveness {
    /// Last receive instant per peer (own index unused).
    last_rx: Vec<Instant>,
    /// Peers inside an open suspicion episode (counted once per episode).
    suspect: Vec<bool>,
    /// Last probe instant per peer, rate-limiting pings across scans.
    last_ping: Vec<Instant>,
}

impl Liveness {
    fn new(nranks: usize) -> Self {
        let now = Instant::now();
        Self {
            last_rx: vec![now; nranks],
            suspect: vec![false; nranks],
            // Far past, so the first suspicion pings immediately.
            last_ping: vec![now - Duration::from_secs(3600); nranks],
        }
    }
}

/// Interned communication class ids of an endpoint trace, indexed
/// `[retransmitted][eager]`.
struct TraceIds {
    get: [[u16; 2]; 2],
    put: [[u16; 2]; 2],
    acc: [[u16; 2]; 2],
    /// Steal round trips, indexed `[granted]`.
    steal: [u16; 2],
    /// Job control round trips: `[submit, done-report]`.
    job: [u16; 2],
}

fn fresh_trace() -> (Trace, TraceIds) {
    let mut t = Trace::new();
    let mut quad = |name: &str| {
        [
            [
                t.class(
                    &format!("{name}_RNDV"),
                    ActivityKind::Comm {
                        eager: false,
                        retrans: false,
                    },
                ),
                t.class(
                    &format!("{name}_EAGER"),
                    ActivityKind::Comm {
                        eager: true,
                        retrans: false,
                    },
                ),
            ],
            [
                t.class(
                    &format!("{name}_RNDV_RETRY"),
                    ActivityKind::Comm {
                        eager: false,
                        retrans: true,
                    },
                ),
                t.class(
                    &format!("{name}_EAGER_RETRY"),
                    ActivityKind::Comm {
                        eager: true,
                        retrans: true,
                    },
                ),
            ],
        ]
    };
    let ids = TraceIds {
        get: quad("GET"),
        put: quad("PUT"),
        acc: quad("ACC"),
        steal: [
            t.class("STEAL_DRY", ActivityKind::Steal),
            t.class("STEAL", ActivityKind::Steal),
        ],
        job: [
            t.class("JOB_SUBMIT", ActivityKind::Job),
            t.class("JOB_DONE", ActivityKind::Job),
        ],
    };
    (t, ids)
}

struct Inner {
    transport: Box<dyn Transport>,
    store: Arc<dyn ShardStore>,
    cfg: CommConfig,
    rank: usize,
    nranks: usize,
    t0: Instant,
    token: AtomicU64,
    /// Next sequence number per target rank (mutating requests only);
    /// contiguity per pair is what lets the server compact its record.
    seq_tx: Vec<AtomicU64>,
    shutdown: AtomicBool,
    counter: AtomicI64,
    /// Requester-side view of all gets in flight or queued, by token.
    gets: Mutex<HashMap<u64, PendingGet>>,
    batches: Mutex<HashMap<u64, PendingBatch>>,
    get_state: Mutex<Vec<PeerGets>>,
    rndv_out: Mutex<HashMap<u64, RndvOut>>,
    // Keyed by (requesting rank, its token): tokens are allocated
    // independently on every rank, so alone they collide across peers.
    rndv_serve: Mutex<HashMap<(usize, u64), Vec<f64>>>,
    /// Server-side at-most-once records, one per requesting rank.
    dedup: Mutex<Vec<PeerDedup>>,
    acks: Mutex<HashMap<u64, AckWait>>,
    vals: Mutex<HashMap<u64, NxtvalWait>>,
    steals: Mutex<HashMap<u64, StealWait>>,
    steal_handler: Mutex<Option<Arc<dyn StealHandler>>>,
    submits: Mutex<HashMap<u64, SubmitWait>>,
    statuses: Mutex<HashMap<u64, StatusWait>>,
    job_done_waits: Mutex<HashMap<u64, JobDoneWait>>,
    job_handler: Mutex<Option<Arc<dyn JobHandler>>>,
    /// `None` when the failure detector is disabled (the default).
    liveness: Option<Mutex<Liveness>>,
    /// Confirmed-dead peers as a bitmask, readable lock-free from
    /// application threads (the daemon checks it after every run).
    dead_mask: AtomicU64,
    failure_handler: Mutex<Option<Arc<dyn FailureHandler>>>,
    outstanding: Mutex<u64>,
    fence_cv: Condvar,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
    stats: CommStats,
    get_lat: Mutex<Vec<u64>>,
    trace: Mutex<(Trace, TraceIds)>,
}

/// A rank's communication endpoint: posts one-sided operations, owns the
/// progress thread, and collects statistics, latencies and trace spans.
pub struct Endpoint {
    inner: Arc<Inner>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Endpoint {
    /// Start the progress engine for one rank.
    pub fn spawn(
        transport: Box<dyn Transport>,
        store: Arc<dyn ShardStore>,
        cfg: CommConfig,
    ) -> Arc<Self> {
        let (rank, nranks) = (transport.rank(), transport.nranks());
        let cfg_liveness = cfg.suspect_after.is_some();
        let inner = Arc::new(Inner {
            transport,
            store,
            cfg,
            rank,
            nranks,
            t0: Instant::now(),
            token: AtomicU64::new(1),
            seq_tx: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            shutdown: AtomicBool::new(false),
            counter: AtomicI64::new(0),
            gets: Mutex::new(HashMap::new()),
            batches: Mutex::new(HashMap::new()),
            get_state: Mutex::new((0..nranks).map(|_| PeerGets::default()).collect()),
            rndv_out: Mutex::new(HashMap::new()),
            rndv_serve: Mutex::new(HashMap::new()),
            dedup: Mutex::new((0..nranks).map(|_| PeerDedup::default()).collect()),
            acks: Mutex::new(HashMap::new()),
            vals: Mutex::new(HashMap::new()),
            steals: Mutex::new(HashMap::new()),
            steal_handler: Mutex::new(None),
            submits: Mutex::new(HashMap::new()),
            statuses: Mutex::new(HashMap::new()),
            job_done_waits: Mutex::new(HashMap::new()),
            job_handler: Mutex::new(None),
            liveness: cfg_liveness.then(|| Mutex::new(Liveness::new(nranks))),
            dead_mask: AtomicU64::new(0),
            failure_handler: Mutex::new(None),
            outstanding: Mutex::new(0),
            fence_cv: Condvar::new(),
            barrier: Mutex::new(BarrierState::default()),
            barrier_cv: Condvar::new(),
            stats: CommStats::default(),
            get_lat: Mutex::new(Vec::new()),
            trace: Mutex::new(fresh_trace()),
        });
        let worker = inner.clone();
        let thread = std::thread::Builder::new()
            .name(format!("comm-progress-{rank}"))
            .spawn(move || {
                // A dead progress engine hangs every rank of the job
                // without symptoms; turn protocol violations into a loud,
                // immediate failure instead.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.progress_loop()))
                    .is_err()
                {
                    eprintln!("comm-progress-{rank}: protocol panic, aborting");
                    std::process::abort();
                }
            })
            .expect("spawn progress thread");
        Arc::new(Self {
            inner,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// Total ranks in the job.
    pub fn nranks(&self) -> usize {
        self.inner.nranks
    }

    /// The endpoint's time origin — engines adopt it so compute spans and
    /// communication spans share one timeline.
    pub fn epoch(&self) -> Instant {
        self.inner.t0
    }

    /// Post an asynchronous get of `[offset, offset+len)` of `array` on
    /// `peer`'s shard. `prio` orders queued requests under backpressure;
    /// `cb` runs on the progress thread when the data arrives. Every
    /// call is its own wire request: duplicate reads are merged above
    /// this layer, by the GA tile cache.
    pub fn get_async(
        &self,
        peer: usize,
        array: u32,
        offset: usize,
        len: usize,
        prio: i64,
        cb: GetCallback,
    ) {
        let i = &self.inner;
        i.stats.gets.fetch_add(1, Ordering::Relaxed);
        i.stats
            .get_req_bytes
            .fetch_add(len as u64 * 8, Ordering::Relaxed);
        {
            let mut tbl = i.gets.lock().unwrap();
            let token = i.token.fetch_add(1, Ordering::Relaxed);
            tbl.insert(
                token,
                PendingGet {
                    peer,
                    posted_ns: i.now_ns(),
                    cb,
                    array,
                    offset: offset as u64,
                    len: len as u64,
                    launched: false,
                    retry: None,
                    retries: 0,
                },
            );
            let block = if i.cfg.locality_order {
                (array, offset as u64)
            } else {
                (0, 0)
            };
            i.get_state.lock().unwrap()[peer].queue.push(QueuedGet {
                block,
                prio,
                seq: token,
                token,
                array,
                offset: offset as u64,
                len: len as u64,
            });
        }
        i.pump(peer);
    }

    /// Blocking get (the legacy `GET_HASH_BLOCK` shape).
    pub fn get_blocking(&self, peer: usize, array: u32, offset: usize, len: usize) -> Vec<f64> {
        let slot = Arc::new((Mutex::new(None::<Vec<f64>>), Condvar::new()));
        let fill = slot.clone();
        self.get_async(
            peer,
            array,
            offset,
            len,
            i64::MAX,
            Box::new(move |data: WireSlice<'_>| {
                *fill.0.lock().unwrap() = Some(data.to_vec());
                fill.1.notify_all();
            }),
        );
        let mut got = slot.0.lock().unwrap();
        while got.is_none() {
            got = slot.1.cv_wait(got);
        }
        got.take().unwrap()
    }

    /// Blocking one-sided overwrite: returns once the target applied it.
    pub fn put(&self, peer: usize, array: u32, offset: usize, data: &[f64]) {
        let i = &self.inner;
        i.stats.puts.fetch_add(1, Ordering::Relaxed);
        let token = i.token.fetch_add(1, Ordering::Relaxed);
        let seq = i.seq_tx[peer].fetch_add(1, Ordering::Relaxed);
        let eager = data.len() * 8 <= i.cfg.eager_threshold;
        let slot = FlagSlot::new();
        if eager {
            let msg = Msg::Put {
                token,
                seq,
                array,
                offset: offset as u64,
                data: data.to_vec(),
            };
            i.begin_ack(token, peer, AckKind::Put, eager, Some(slot.clone()), &msg);
            i.post(peer, &msg);
        } else {
            i.rndv_out.lock().unwrap().insert(
                token,
                RndvOut {
                    peer,
                    msg: Msg::PutData {
                        token,
                        seq,
                        array,
                        offset: offset as u64,
                        data: data.to_vec(),
                    },
                },
            );
            let rts = Msg::PutRts {
                token,
                array,
                offset: offset as u64,
                len: data.len() as u64,
            };
            i.begin_ack(token, peer, AckKind::Put, eager, Some(slot.clone()), &rts);
            i.post(peer, &rts);
        }
        slot.wait();
    }

    /// Asynchronous one-sided accumulate; completion is observed through
    /// [`Endpoint::fence`].
    pub fn acc(&self, peer: usize, array: u32, offset: usize, data: &[f64], alpha: f64) {
        let i = &self.inner;
        i.stats.accs.fetch_add(1, Ordering::Relaxed);
        let token = i.token.fetch_add(1, Ordering::Relaxed);
        let seq = i.seq_tx[peer].fetch_add(1, Ordering::Relaxed);
        let eager = data.len() * 8 <= i.cfg.eager_threshold;
        if eager {
            let msg = Msg::Acc {
                token,
                seq,
                array,
                offset: offset as u64,
                alpha,
                data: data.to_vec(),
            };
            i.begin_ack(token, peer, AckKind::Acc, eager, None, &msg);
            i.post(peer, &msg);
        } else {
            i.rndv_out.lock().unwrap().insert(
                token,
                RndvOut {
                    peer,
                    msg: Msg::AccData {
                        token,
                        seq,
                        array,
                        offset: offset as u64,
                        alpha,
                        data: data.to_vec(),
                    },
                },
            );
            let rts = Msg::AccRts {
                token,
                array,
                offset: offset as u64,
                len: data.len() as u64,
            };
            i.begin_ack(token, peer, AckKind::Acc, eager, None, &rts);
            i.post(peer, &rts);
        }
    }

    /// `NXTVAL`: fetch-and-add on `owner`'s counter shard. Owner-local
    /// calls short-circuit to the atomic.
    pub fn nxtval(&self, owner: usize) -> i64 {
        let i = &self.inner;
        i.stats.nxtvals.fetch_add(1, Ordering::Relaxed);
        if owner == i.rank {
            return i.counter.fetch_add(1, Ordering::Relaxed);
        }
        let token = i.token.fetch_add(1, Ordering::Relaxed);
        let seq = i.seq_tx[owner].fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new((Mutex::new(None::<i64>), Condvar::new()));
        let msg = Msg::NxtVal { token, seq };
        i.vals.lock().unwrap().insert(
            token,
            NxtvalWait {
                slot: slot.clone(),
                peer: owner,
                resend: msg.clone(),
                retry: Retry::new(&i.cfg),
            },
        );
        i.post(owner, &msg);
        let mut got = slot.0.lock().unwrap();
        while got.is_none() {
            got = slot.1.cv_wait(got);
        }
        got.unwrap()
    }

    /// Reset `owner`'s NXTVAL counter; returns once applied. Callers
    /// must order this against in-flight `nxtval`s themselves (the legacy
    /// model separates work levels with barriers).
    pub fn nxtval_reset(&self, owner: usize) {
        let i = &self.inner;
        if owner == i.rank {
            i.counter.store(0, Ordering::Relaxed);
            return;
        }
        let token = i.token.fetch_add(1, Ordering::Relaxed);
        let seq = i.seq_tx[owner].fetch_add(1, Ordering::Relaxed);
        let slot = FlagSlot::new();
        let msg = Msg::NxtValReset { token, seq };
        i.begin_ack(token, owner, AckKind::Reset, true, Some(slot.clone()), &msg);
        i.post(owner, &msg);
        slot.wait();
    }

    /// Install (or clear) the handler that answers incoming steal
    /// requests. Cleared between runs; requests arriving with no handler
    /// installed are answered dry.
    pub fn set_steal_handler(&self, h: Option<Arc<dyn StealHandler>>) {
        *self.inner.steal_handler.lock().unwrap() = h;
    }

    /// Ask `victim` to donate up to `limit` ready chains from collective
    /// run `epoch`. Non-blocking: `cb` runs on the progress thread with
    /// the granted chains (empty = dry). Mutating — the grant removes
    /// chains from the victim's ledger — so it rides the per-peer
    /// sequence/retry/dedup machinery like Put/Acc/NxtVal.
    pub fn steal_async(&self, victim: usize, epoch: u64, limit: u32, cb: StealCallback) {
        let i = &self.inner;
        assert_ne!(victim, i.rank, "steal targets a remote rank");
        i.stats.steal_reqs.fetch_add(1, Ordering::Relaxed);
        let token = i.token.fetch_add(1, Ordering::Relaxed);
        let seq = i.seq_tx[victim].fetch_add(1, Ordering::Relaxed);
        let msg = Msg::StealRequest {
            token,
            seq,
            epoch,
            limit,
        };
        i.steals.lock().unwrap().insert(
            token,
            StealWait {
                cb,
                peer: victim,
                posted_ns: i.now_ns(),
                resend: msg.clone(),
                retry: Retry::new(&i.cfg),
            },
        );
        i.post(victim, &msg);
    }

    /// Install (or clear) the handler that answers incoming job control
    /// AMs. Submissions arriving with no handler installed are answered
    /// [`JOB_REJECTED`]; status polls answer state 0.
    pub fn set_job_handler(&self, h: Option<Arc<dyn JobHandler>>) {
        *self.inner.job_handler.lock().unwrap() = h;
    }

    /// Submit a word-encoded job spec to `gateway`'s service. Pass
    /// [`JOB_REJECTED`] as `job_id` to have the gateway assign one (the
    /// tenant-facing submit), or a concrete id to dispatch an admitted
    /// job to a member rank. Non-blocking: `cb` runs on the progress
    /// thread with the acknowledged id. Mutating — the gateway enqueues
    /// the job — so it rides the per-peer sequence/retry/dedup machinery
    /// and a retransmitted submit re-receives the recorded id.
    pub fn submit_async(&self, gateway: usize, job_id: u64, spec: Vec<u64>, cb: SubmitCallback) {
        let i = &self.inner;
        i.stats.job_submits.fetch_add(1, Ordering::Relaxed);
        let token = i.token.fetch_add(1, Ordering::Relaxed);
        let seq = i.seq_tx[gateway].fetch_add(1, Ordering::Relaxed);
        let msg = Msg::Submit {
            token,
            seq,
            job_id,
            spec,
        };
        i.submits.lock().unwrap().insert(
            token,
            SubmitWait {
                cb,
                peer: gateway,
                posted_ns: i.now_ns(),
                resend: msg.clone(),
                retry: Retry::new(&i.cfg),
            },
        );
        i.post(gateway, &msg);
    }

    /// Register the failure-detector observer. Verdicts fire on the
    /// progress thread; see [`FailureHandler`]. A no-op (verdicts are
    /// still tracked in [`Endpoint::dead_mask`] and the counters) when
    /// no handler is installed.
    pub fn set_failure_handler(&self, h: Arc<dyn FailureHandler>) {
        *self.inner.failure_handler.lock().unwrap() = Some(h);
    }

    /// Bitmask of peers this rank's detector has confirmed dead (empty
    /// when the detector is disabled). A rank that rejoins clears its
    /// bit.
    pub fn dead_mask(&self) -> u64 {
        self.inner.dead_mask.load(Ordering::SeqCst)
    }

    /// Current value of this rank's local NXTVAL counter (checkpointed
    /// by the GA layer).
    pub fn local_counter(&self) -> i64 {
        self.inner.counter.load(Ordering::SeqCst)
    }

    /// Overwrite this rank's local NXTVAL counter (checkpoint restore).
    pub fn set_local_counter(&self, v: i64) {
        self.inner.counter.store(v, Ordering::SeqCst);
    }

    /// Poll `gateway` for the state of `job_id`. Non-blocking: `cb` runs
    /// on the progress thread with `(state, result bits)`. Idempotent
    /// (no sequence number), but retried like a get until the reply
    /// lands.
    pub fn job_status_async(&self, gateway: usize, job_id: u64, cb: StatusCallback) {
        let i = &self.inner;
        i.stats.job_polls.fetch_add(1, Ordering::Relaxed);
        let token = i.token.fetch_add(1, Ordering::Relaxed);
        let msg = Msg::JobStatus { token, job_id };
        i.statuses.lock().unwrap().insert(
            token,
            StatusWait {
                cb,
                peer: gateway,
                resend: msg.clone(),
                retry: Retry::new(&i.cfg),
            },
        );
        i.post(gateway, &msg);
    }

    /// Report this rank's local completion of `job_id` (with result
    /// bits) to `gateway`. Fire-and-forget: retried until acknowledged,
    /// dedup-gated so the gateway counts the report exactly once.
    pub fn job_done_async(&self, gateway: usize, job_id: u64, result: u64) {
        let i = &self.inner;
        i.stats.job_dones.fetch_add(1, Ordering::Relaxed);
        let token = i.token.fetch_add(1, Ordering::Relaxed);
        let seq = i.seq_tx[gateway].fetch_add(1, Ordering::Relaxed);
        let msg = Msg::JobDone {
            token,
            seq,
            job_id,
            result,
        };
        i.job_done_waits.lock().unwrap().insert(
            token,
            JobDoneWait {
                peer: gateway,
                posted_ns: i.now_ns(),
                resend: msg.clone(),
                retry: Retry::new(&i.cfg),
            },
        );
        i.post(gateway, &msg);
    }

    /// Block until every put/accumulate this rank posted has been applied
    /// and acknowledged by its target.
    pub fn fence(&self) {
        let i = &self.inner;
        let mut n = i.outstanding.lock().unwrap();
        while *n > 0 {
            n = i.fence_cv.wait(n).unwrap();
        }
    }

    /// Collective barrier over all ranks (counter on rank 0 — the
    /// full-mesh gang's leader).
    pub fn barrier(&self) {
        self.barrier_gang(full_mask(self.inner.nranks));
    }

    /// Collective barrier over the member ranks of `gang` (a bitmask);
    /// the counter lives on the gang's leader (lowest member). The
    /// calling rank must be a member. A single-member gang is already
    /// synchronized and returns immediately.
    pub fn barrier_gang(&self, gang: u64) {
        let i = &self.inner;
        debug_assert_ne!(
            gang & (1u64 << i.rank),
            0,
            "rank {} entered barrier of gang {gang:#b} it is not a member of",
            i.rank
        );
        if gang.count_ones() <= 1 {
            return;
        }
        let leader = mask_leader(gang);
        let epoch = {
            let mut b = i.barrier.lock().unwrap();
            let g = b.groups.entry(gang).or_default();
            g.next += 1;
            let epoch = g.next;
            g.enters.insert(epoch, Retry::new(&i.cfg));
            epoch
        };
        i.post(
            leader,
            &Msg::BarrierEnter {
                epoch,
                from: i.rank as u32,
                gang,
            },
        );
        let mut b = i.barrier.lock().unwrap();
        while b.groups.get(&gang).map_or(0, |g| g.released) < epoch {
            b = i.barrier_cv.wait(b).unwrap();
        }
    }

    /// Barrier protocol snapshot for diagnostics: one row per gang
    /// group this rank has state for — `(gang mask, next, released,
    /// last_released, pending_enters, pending_counts)`. The counter
    /// fields (`last_released`, `pending_counts`) are meaningful on the
    /// gang's leader only.
    #[allow(clippy::type_complexity)]
    pub fn barrier_state(&self) -> Vec<(u64, u64, u64, u64, Vec<u64>, Vec<(u64, usize)>)> {
        let b = self.inner.barrier.lock().unwrap();
        let mut rows: Vec<_> = b
            .groups
            .iter()
            .map(|(&mask, g)| {
                let mut enters: Vec<u64> = g.enters.keys().copied().collect();
                enters.sort_unstable();
                let mut entered: Vec<(u64, usize)> =
                    g.entered.iter().map(|(&e, s)| (e, s.len())).collect();
                entered.sort_unstable();
                (mask, g.next, g.released, g.last_released, enters, entered)
            })
            .collect();
        rows.sort_unstable_by_key(|r| r.0);
        rows
    }

    /// Fence, then barrier: on return, every rank's writes are globally
    /// visible (the GA `sync` collective).
    pub fn sync(&self) {
        self.fence();
        self.barrier();
    }

    /// Fence, then a gang-scoped barrier: the job-scoped GA `sync`.
    /// The fence is rank-local (all of this rank's outstanding posts),
    /// which is conservative but correct when the rank serves several
    /// gangs.
    pub fn sync_gang(&self, gang: u64) {
        self.fence();
        self.barrier_gang(gang);
    }

    /// Counters snapshot.
    pub fn stats(&self) -> CommStatsSnap {
        let s = &self.inner.stats;
        CommStatsSnap {
            msgs_tx: s.msgs_tx.load(Ordering::Relaxed),
            msgs_rx: s.msgs_rx.load(Ordering::Relaxed),
            bytes_tx: s.bytes_tx.load(Ordering::Relaxed),
            bytes_rx: s.bytes_rx.load(Ordering::Relaxed),
            gets: s.gets.load(Ordering::Relaxed),
            puts: s.puts.load(Ordering::Relaxed),
            accs: s.accs.load(Ordering::Relaxed),
            nxtvals: s.nxtvals.load(Ordering::Relaxed),
            eager_payloads: s.eager_payloads.load(Ordering::Relaxed),
            rndv_payloads: s.rndv_payloads.load(Ordering::Relaxed),
            timeouts: s.timeouts.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            dup_requests: s.dup_requests.load(Ordering::Relaxed),
            dup_replies: s.dup_replies.load(Ordering::Relaxed),
            get_req_bytes: s.get_req_bytes.load(Ordering::Relaxed),
            get_wire_bytes: s.get_wire_bytes.load(Ordering::Relaxed),
            multi_gets: s.multi_gets.load(Ordering::Relaxed),
            multi_parts: s.multi_parts.load(Ordering::Relaxed),
            steal_reqs: s.steal_reqs.load(Ordering::Relaxed),
            steal_chains_rx: s.steal_chains_rx.load(Ordering::Relaxed),
            steal_dry_rx: s.steal_dry_rx.load(Ordering::Relaxed),
            steal_donated: s.steal_donated.load(Ordering::Relaxed),
            job_submits: s.job_submits.load(Ordering::Relaxed),
            job_polls: s.job_polls.load(Ordering::Relaxed),
            job_dones: s.job_dones.load(Ordering::Relaxed),
            job_served: s.job_served.load(Ordering::Relaxed),
            suspects: s.suspects.load(Ordering::Relaxed),
            confirmed_deaths: s.confirmed_deaths.load(Ordering::Relaxed),
            pings_tx: s.pings_tx.load(Ordering::Relaxed),
            rejoins: s.rejoins.load(Ordering::Relaxed),
            aborted_ops: s.aborted_ops.load(Ordering::Relaxed),
        }
    }

    /// Drain the recorded get latencies (nanoseconds, post to data).
    pub fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut *self.inner.get_lat.lock().unwrap())
    }

    /// Drain the communication trace (spans on this rank's comm row,
    /// relative to [`Endpoint::epoch`]).
    pub fn take_trace(&self) -> Trace {
        let mut t = self.inner.trace.lock().unwrap();
        std::mem::replace(&mut *t, fresh_trace()).0
    }

    /// Stop the progress thread. Call only when no rank still needs this
    /// rank's shard (i.e. after a final barrier).
    ///
    /// A counter rank additionally drains barrier-release confirmations
    /// first, for every gang it leads: a peer whose release frame was
    /// lost recovers by re-sending its enter, which only works while the
    /// leader's progress thread is alive to answer. Tearing down before
    /// every member confirmed the newest release would strand such a
    /// peer in its final barrier forever. The drain is bounded so a
    /// crashed peer cannot pin the teardown.
    pub fn shutdown(&self) {
        let i = &self.inner;
        if !i.shutdown.load(Ordering::SeqCst) {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut b = i.barrier.lock().unwrap();
            loop {
                let pending = b.groups.iter().any(|(&mask, g)| {
                    mask_leader(mask) == i.rank
                        && g.ack_epoch > 0
                        && g.acked.len() < mask.count_ones() as usize
                });
                if !pending || Instant::now() >= deadline {
                    break;
                }
                let (g, _) = i
                    .barrier_cv
                    .wait_timeout(b, Duration::from_millis(10))
                    .unwrap();
                b = g;
            }
        }
        i.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.thread.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `Condvar::wait` with the guard-passing shape used above (keeps the
/// loops readable without `unwrap` noise at each call site).
trait CvWait {
    fn cv_wait<'a, T>(&self, g: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T>;
}
impl CvWait for Condvar {
    fn cv_wait<'a, T>(&self, g: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
        self.wait(g).unwrap()
    }
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Encode and send, counting frames and bytes.
    fn post(&self, to: usize, msg: &Msg) {
        let body = msg.encode();
        self.stats.msgs_tx.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_tx
            .fetch_add(body.len() as u64, Ordering::Relaxed);
        self.transport.send(to, body);
    }

    /// Drain `peer`'s get queue into its free in-flight slots. Each slot
    /// takes one *frame*: the single best queued request, or — when the
    /// queue has depth — up to `max_batch_parts` of them packed into one
    /// `MultiGet`. With locality ordering on, consecutive pops are
    /// adjacent destination blocks, so the packed frame is spatially
    /// dense. Frames are sent after every lock is released.
    fn pump(&self, peer: usize) {
        let mut to_send: Vec<Msg> = Vec::new();
        {
            let mut tbl = self.gets.lock().unwrap();
            let mut gs = self.get_state.lock().unwrap();
            let st = &mut gs[peer];
            while st.inflight < self.cfg.max_inflight_gets {
                // Collect one frame's worth of live queued requests.
                let mut group: Vec<QueuedGet> = Vec::new();
                let mut bytes = 0usize;
                while group.len() < self.cfg.max_batch_parts.max(1) {
                    let Some(q) = st.queue.peek() else { break };
                    let live = tbl.get(&q.token).is_some_and(|pg| !pg.launched);
                    if !live {
                        // Stale heap entry (completed, or re-pushed with
                        // a different priority and already launched).
                        st.queue.pop();
                        continue;
                    }
                    let sz = q.len as usize * 8;
                    if !group.is_empty() && bytes + sz > self.cfg.max_batch_bytes {
                        break;
                    }
                    bytes += sz;
                    group.push(st.queue.pop().unwrap());
                }
                if group.is_empty() {
                    break;
                }
                st.inflight += 1;
                if group.len() == 1 {
                    let q = &group[0];
                    let pg = tbl.get_mut(&q.token).unwrap();
                    pg.launched = true;
                    pg.retry = Some(Retry::new(&self.cfg));
                    to_send.push(Msg::Get {
                        token: q.token,
                        array: q.array,
                        offset: q.offset,
                        len: q.len,
                    });
                } else {
                    let btok = self.token.fetch_add(1, Ordering::Relaxed);
                    let mut parts = Vec::with_capacity(group.len());
                    let mut subs = Vec::with_capacity(group.len());
                    for q in &group {
                        let pg = tbl.get_mut(&q.token).unwrap();
                        pg.launched = true;
                        parts.push(GetSpec {
                            array: q.array,
                            offset: q.offset,
                            len: q.len,
                        });
                        subs.push(q.token);
                    }
                    self.stats.multi_gets.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .multi_parts
                        .fetch_add(subs.len() as u64, Ordering::Relaxed);
                    self.batches.lock().unwrap().insert(
                        btok,
                        PendingBatch {
                            peer,
                            subs,
                            retry: Retry::new(&self.cfg),
                            retries: 0,
                        },
                    );
                    to_send.push(Msg::MultiGet { token: btok, parts });
                }
            }
        }
        for msg in &to_send {
            self.post(peer, msg);
        }
    }

    fn begin_ack(
        &self,
        token: u64,
        peer: usize,
        kind: AckKind,
        eager: bool,
        waiter: Option<Arc<FlagSlot>>,
        resend: &Msg,
    ) {
        self.acks.lock().unwrap().insert(
            token,
            AckWait {
                kind,
                eager,
                posted_ns: self.now_ns(),
                waiter,
                peer,
                resend: resend.clone(),
                retry: Retry::new(&self.cfg),
                retries: 0,
            },
        );
        if kind != AckKind::Reset {
            *self.outstanding.lock().unwrap() += 1;
            self.count_payload(eager);
        }
    }

    fn count_payload(&self, eager: bool) {
        if eager {
            self.stats.eager_payloads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.rndv_payloads.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn progress_loop(self: Arc<Self>) {
        // Timeout scans are throttled: with the default 1 s retry window
        // the scan runs every 250 ms, so the fault-free fast path pays
        // one `Instant::now` comparison per frame.
        let scan_every = (self.cfg.retry_timeout / 4).max(Duration::from_millis(1));
        let mut last_scan = Instant::now();
        while !self.shutdown.load(Ordering::SeqCst) {
            if last_scan.elapsed() >= scan_every {
                self.check_timeouts();
                last_scan = Instant::now();
            }
            let Some((from, body)) = self.transport.recv_timeout(Duration::from_micros(200)) else {
                continue;
            };
            self.stats.msgs_rx.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_rx
                .fetch_add(body.len() as u64, Ordering::Relaxed);
            // Liveness piggybacks on every received frame; a frame from a
            // confirmed-dead peer readmits it.
            if from != self.rank {
                self.note_rx(from);
            }
            // Data-bearing get replies take the zero-copy path: the
            // payload is delivered as a borrowed view of `body` and
            // copied once, straight into the reader's buffer.
            match Msg::reply_view(&body).expect("malformed frame") {
                Some(ReplyView::Single { token, eager, data }) => {
                    self.finish_get(token, data, eager)
                }
                Some(ReplyView::Multi { token, parts }) => self.finish_batch(token, &parts),
                None => {
                    let msg = Msg::decode(&body).expect("malformed frame");
                    self.handle(from, msg);
                }
            }
        }
    }

    /// Record a received frame from `from` in the failure detector:
    /// refresh its liveness, close any open suspicion episode, and
    /// readmit it if it was confirmed dead.
    fn note_rx(&self, from: usize) {
        let Some(lv) = &self.liveness else { return };
        let rejoined = {
            let mut lv = lv.lock().unwrap();
            lv.last_rx[from] = Instant::now();
            lv.suspect[from] = false;
            let bit = 1u64 << from;
            if self.dead_mask.load(Ordering::SeqCst) & bit != 0 {
                self.dead_mask.fetch_and(!bit, Ordering::SeqCst);
                self.stats.rejoins.fetch_add(1, Ordering::Relaxed);
                true
            } else {
                false
            }
        };
        if rejoined {
            let h = self.failure_handler.lock().unwrap().clone();
            if let Some(h) = h {
                h.on_rejoin(from);
            }
        }
    }

    /// The failure-detector scan, sharing `check_timeouts`'s throttle.
    /// Silence past `suspect_after` opens a suspicion episode and pings
    /// the peer; silence past `dead_after` confirms death: the dead-mask
    /// bit is published, everything pending toward the peer aborts, and
    /// the failure handler fires (after every engine lock is released).
    /// Dead peers keep being probed at a slow cadence so a restarted
    /// rank is noticed and readmitted.
    fn check_liveness(&self) {
        let Some(lv) = &self.liveness else { return };
        let Some(suspect_after) = self.cfg.suspect_after else {
            return;
        };
        let now = Instant::now();
        let ping_every = (suspect_after / 2).max(Duration::from_millis(1));
        let mut pings: Vec<usize> = Vec::new();
        let mut deaths: Vec<usize> = Vec::new();
        {
            let mut lv = lv.lock().unwrap();
            let dead = self.dead_mask.load(Ordering::SeqCst);
            for p in 0..self.nranks {
                if p == self.rank {
                    continue;
                }
                if dead & (1u64 << p) != 0 {
                    if now.duration_since(lv.last_ping[p]) >= suspect_after {
                        lv.last_ping[p] = now;
                        pings.push(p);
                    }
                    continue;
                }
                let silent = now.duration_since(lv.last_rx[p]);
                if silent >= self.cfg.dead_after {
                    lv.suspect[p] = false;
                    deaths.push(p);
                } else if silent >= suspect_after {
                    if !lv.suspect[p] {
                        lv.suspect[p] = true;
                        self.stats.suspects.fetch_add(1, Ordering::Relaxed);
                    }
                    if now.duration_since(lv.last_ping[p]) >= ping_every {
                        lv.last_ping[p] = now;
                        pings.push(p);
                    }
                }
            }
            for &p in &deaths {
                self.dead_mask.fetch_or(1u64 << p, Ordering::SeqCst);
                self.stats.confirmed_deaths.fetch_add(1, Ordering::Relaxed);
            }
        }
        for &p in &pings {
            self.stats.pings_tx.fetch_add(1, Ordering::Relaxed);
            let token = self.token.fetch_add(1, Ordering::Relaxed);
            self.post(p, &Msg::Ping { token });
        }
        // Abort toward every *currently* dead peer, not just the newly
        // deceased: operations posted after the verdict are swept up by
        // the next scan instead of retrying forever.
        let dead = self.dead_mask.load(Ordering::SeqCst);
        if dead != 0 {
            for p in mask_members(dead) {
                self.abort_toward(p);
            }
        }
        if !deaths.is_empty() {
            let h = self.failure_handler.lock().unwrap().clone();
            if let Some(h) = h {
                for &p in &deaths {
                    h.on_death(p);
                }
            }
        }
    }

    /// Abort every pending operation targeting the dead peer `p`, so the
    /// application threads blocked on them unblock and the layers above
    /// decide what to replay: gets complete with zeroed payloads (their
    /// consumers are re-executed from a checkpoint, never trusted),
    /// put/acc posters are released and the fence count decremented,
    /// NXTVAL waiters receive an `i64::MAX` sentinel ("no more work"),
    /// steal waiters a dry grant, submit waiters [`JOB_REJECTED`],
    /// status waiters state 0 (unknown), and every barrier over a gang
    /// containing `p` poison-releases its local waiters. The seq gaps
    /// the aborted mutating ops leave are tolerated by the server's
    /// out-of-order dedup frontier. Callbacks run with no engine lock
    /// held.
    fn abort_toward(&self, p: usize) {
        let bit = 1u64 << p;
        let mut aborted: u64 = 0;
        let mut get_cbs: Vec<(GetCallback, usize)> = Vec::new();
        {
            let mut tbl = self.gets.lock().unwrap();
            let tokens: Vec<u64> = tbl
                .iter()
                .filter(|(_, pg)| pg.peer == p)
                .map(|(&t, _)| t)
                .collect();
            for t in tokens {
                let pg = tbl.remove(&t).unwrap();
                aborted += 1;
                get_cbs.push((pg.cb, pg.len as usize));
            }
            self.batches.lock().unwrap().retain(|_, b| b.peer != p);
            let mut gs = self.get_state.lock().unwrap();
            gs[p].inflight = 0;
            gs[p].queue.clear();
        }
        let acks: Vec<AckWait> = {
            let mut acks = self.acks.lock().unwrap();
            let tokens: Vec<u64> = acks
                .iter()
                .filter(|(_, a)| a.peer == p)
                .map(|(&t, _)| t)
                .collect();
            tokens
                .into_iter()
                .map(|t| {
                    self.rndv_out.lock().unwrap().remove(&t);
                    aborted += 1;
                    acks.remove(&t).unwrap()
                })
                .collect()
        };
        for a in acks {
            if a.kind != AckKind::Reset {
                let mut n = self.outstanding.lock().unwrap();
                *n -= 1;
                if *n == 0 {
                    self.fence_cv.notify_all();
                }
            }
            if let Some(w) = a.waiter {
                w.set();
            }
        }
        {
            let mut vals = self.vals.lock().unwrap();
            let tokens: Vec<u64> = vals
                .iter()
                .filter(|(_, v)| v.peer == p)
                .map(|(&t, _)| t)
                .collect();
            for t in tokens {
                let nv = vals.remove(&t).unwrap();
                aborted += 1;
                *nv.slot.0.lock().unwrap() = Some(i64::MAX);
                nv.slot.1.notify_all();
            }
        }
        let mut steal_cbs = Vec::new();
        {
            let mut steals = self.steals.lock().unwrap();
            let tokens: Vec<u64> = steals
                .iter()
                .filter(|(_, s)| s.peer == p)
                .map(|(&t, _)| t)
                .collect();
            for t in tokens {
                aborted += 1;
                steal_cbs.push(steals.remove(&t).unwrap().cb);
            }
        }
        let mut submit_cbs = Vec::new();
        {
            let mut submits = self.submits.lock().unwrap();
            let tokens: Vec<u64> = submits
                .iter()
                .filter(|(_, s)| s.peer == p)
                .map(|(&t, _)| t)
                .collect();
            for t in tokens {
                aborted += 1;
                submit_cbs.push(submits.remove(&t).unwrap().cb);
            }
        }
        let mut status_cbs = Vec::new();
        {
            let mut statuses = self.statuses.lock().unwrap();
            let tokens: Vec<u64> = statuses
                .iter()
                .filter(|(_, s)| s.peer == p)
                .map(|(&t, _)| t)
                .collect();
            for t in tokens {
                aborted += 1;
                status_cbs.push(statuses.remove(&t).unwrap().cb);
            }
        }
        {
            let mut jd = self.job_done_waits.lock().unwrap();
            let before = jd.len();
            jd.retain(|_, w| w.peer != p);
            aborted += (before - jd.len()) as u64;
        }
        self.rndv_serve
            .lock()
            .unwrap()
            .retain(|&(from, _), _| from != p);
        {
            let mut b = self.barrier.lock().unwrap();
            let mut poisoned = false;
            for (&gang, g) in b.groups.iter_mut() {
                if gang & bit == 0 {
                    continue;
                }
                let pending = g.released < g.next || !g.enters.is_empty() || !g.entered.is_empty();
                if !pending {
                    continue;
                }
                aborted += 1;
                poisoned = true;
                g.released = g.next;
                g.enters.clear();
                g.entered.clear();
                g.release_retry = None;
                // Forget release confirmations too: the dead member will
                // never ack, and shutdown's drain must not wait on it.
                g.ack_epoch = 0;
                g.acked.clear();
            }
            if poisoned {
                self.barrier_cv.notify_all();
            }
        }
        if aborted > 0 {
            self.stats.aborted_ops.fetch_add(aborted, Ordering::Relaxed);
        }
        for (cb, len) in get_cbs {
            cb(WireSlice::F64(&vec![0.0f64; len]));
        }
        for cb in steal_cbs {
            cb(Vec::new());
        }
        for cb in submit_cbs {
            cb(JOB_REJECTED);
        }
        for cb in status_cbs {
            cb(0, 0);
        }
    }

    /// Retransmit every pending request whose deadline expired. Clones
    /// are collected under each lock and sent after release, so a slow
    /// transport write never blocks application threads posting ops.
    fn check_timeouts(&self) {
        // The failure detector runs first, so the resend sweeps below see
        // tables already purged of operations toward dead peers.
        self.check_liveness();
        let now = Instant::now();
        let cap = self.cfg.retry_backoff_max;
        let mut resend: Vec<(usize, Msg)> = Vec::new();
        {
            let mut tbl = self.gets.lock().unwrap();
            for (&token, pg) in tbl.iter_mut() {
                if let Some(r) = &mut pg.retry {
                    if r.due(now, cap) {
                        pg.retries += 1;
                        resend.push((
                            pg.peer,
                            Msg::Get {
                                token,
                                array: pg.array,
                                offset: pg.offset,
                                len: pg.len,
                            },
                        ));
                    }
                }
            }
            // A batch retries as one unit: the whole frame is rebuilt
            // from its (still pending) sub-requests and resent. Reads
            // are idempotent, so a duplicated batch is served again and
            // its late reply absorbed as a counted duplicate.
            for (&btok, b) in self.batches.lock().unwrap().iter_mut() {
                if b.retry.due(now, cap) {
                    b.retries += 1;
                    let parts = b
                        .subs
                        .iter()
                        .map(|t| {
                            let pg = &tbl[t];
                            GetSpec {
                                array: pg.array,
                                offset: pg.offset,
                                len: pg.len,
                            }
                        })
                        .collect();
                    resend.push((b.peer, Msg::MultiGet { token: btok, parts }));
                }
            }
        }
        for ack in self.acks.lock().unwrap().values_mut() {
            if ack.retry.due(now, cap) {
                ack.retries += 1;
                resend.push((ack.peer, ack.resend.clone()));
            }
        }
        for nv in self.vals.lock().unwrap().values_mut() {
            if nv.retry.due(now, cap) {
                resend.push((nv.peer, nv.resend.clone()));
            }
        }
        for sw in self.steals.lock().unwrap().values_mut() {
            if sw.retry.due(now, cap) {
                resend.push((sw.peer, sw.resend.clone()));
            }
        }
        for sw in self.submits.lock().unwrap().values_mut() {
            if sw.retry.due(now, cap) {
                resend.push((sw.peer, sw.resend.clone()));
            }
        }
        for sw in self.statuses.lock().unwrap().values_mut() {
            if sw.retry.due(now, cap) {
                resend.push((sw.peer, sw.resend.clone()));
            }
        }
        for jw in self.job_done_waits.lock().unwrap().values_mut() {
            if jw.retry.due(now, cap) {
                resend.push((jw.peer, jw.resend.clone()));
            }
        }
        {
            let mut b = self.barrier.lock().unwrap();
            let from = self.rank as u32;
            for (&gang, g) in b.groups.iter_mut() {
                let leader = mask_leader(gang);
                let released = g.released;
                for (&epoch, r) in g.enters.iter_mut() {
                    if epoch > released && r.due(now, cap) {
                        resend.push((leader, Msg::BarrierEnter { epoch, from, gang }));
                    }
                }
                // Counter rank: re-release the newest epoch to every
                // member that has not confirmed receipt yet (the forward
                // half of release recovery; the late-enter path is the
                // reactive half).
                if leader == self.rank
                    && g.ack_epoch > 0
                    && g.acked.len() < gang.count_ones() as usize
                {
                    let epoch = g.ack_epoch;
                    if g.release_retry.as_mut().is_some_and(|r| r.due(now, cap)) {
                        for who in mask_members(gang) {
                            if !g.acked.contains(&(who as u32)) {
                                resend.push((who, Msg::BarrierRelease { epoch, gang }));
                            }
                        }
                    }
                }
            }
        }
        if !resend.is_empty() {
            let n = resend.len() as u64;
            self.stats.timeouts.fetch_add(n, Ordering::Relaxed);
            self.stats.retries.fetch_add(n, Ordering::Relaxed);
            for (to, msg) in &resend {
                self.post(*to, msg);
            }
        }
    }

    /// Record `seq` from `from` in the dedup table; `false` on duplicate.
    fn dedup_fresh(&self, from: usize, seq: u64) -> bool {
        let fresh = self.dedup.lock().unwrap()[from].fresh(seq);
        if !fresh {
            self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    fn dup_reply(&self) {
        self.stats.dup_replies.fetch_add(1, Ordering::Relaxed);
    }

    fn handle(&self, from: usize, msg: Msg) {
        match msg {
            // ---- serving side: one-sided ops against the local shard ----
            Msg::Get {
                token,
                array,
                offset,
                len,
            } => {
                // Reads are idempotent: a retransmitted Get simply reads
                // again. A rendezvous re-announce overwrites the parked
                // payload under the same (peer, token) key, so retried
                // tokens never leak server state.
                let data = self.store.read(array, offset as usize, len as usize);
                if data.len() * 8 <= self.cfg.eager_threshold {
                    self.count_payload(true);
                    self.post(from, &Msg::GetReplyEager { token, data });
                } else {
                    self.count_payload(false);
                    let len = data.len() as u64;
                    self.rndv_serve.lock().unwrap().insert((from, token), data);
                    self.post(from, &Msg::GetReplyRndv { token, len });
                }
            }
            Msg::GetPull { token } => {
                // A duplicate pull (its payload already served) is a
                // counted no-op; the requester's own retry machinery
                // recovers if the served payload was the one lost.
                match self.rndv_serve.lock().unwrap().remove(&(from, token)) {
                    Some(data) => self.post(from, &Msg::GetReplyData { token, data }),
                    None => {
                        self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Msg::MultiGet { token, parts } => {
                // Batched reads are served inline in one reply frame —
                // the requester's batch byte cap bounds it, so no
                // rendezvous pacing is needed. Idempotent like Get: a
                // retransmitted batch is simply read and served again.
                let data: Vec<Vec<f64>> = parts
                    .iter()
                    .map(|p| self.store.read(p.array, p.offset as usize, p.len as usize))
                    .collect();
                for _ in &data {
                    self.count_payload(true);
                }
                self.post(from, &Msg::GetReplyMulti { token, parts: data });
            }
            Msg::Put {
                token,
                seq,
                array,
                offset,
                data,
            }
            | Msg::PutData {
                token,
                seq,
                array,
                offset,
                data,
            } => {
                if self.dedup_fresh(from, seq) {
                    self.store.write(array, offset as usize, &data);
                }
                self.post(from, &Msg::PutAck { token });
            }
            Msg::PutRts { token, .. } => self.post(from, &Msg::PutCts { token }),
            Msg::Acc {
                token,
                seq,
                array,
                offset,
                alpha,
                data,
            }
            | Msg::AccData {
                token,
                seq,
                array,
                offset,
                alpha,
                data,
            } => {
                // The dedup gate is what makes retry safe here: an
                // accumulate applied twice is silent numerical corruption.
                if self.dedup_fresh(from, seq) {
                    self.store.accumulate(array, offset as usize, &data, alpha);
                }
                self.post(from, &Msg::AccAck { token });
            }
            Msg::AccRts { token, .. } => self.post(from, &Msg::AccCts { token }),
            Msg::NxtVal { token, seq } => {
                // Each (peer, seq) draws the counter exactly once; a
                // duplicate request re-receives the recorded value.
                let value = {
                    let mut dedup = self.dedup.lock().unwrap();
                    let d = &mut dedup[from];
                    if d.fresh(seq) {
                        let v = self.counter.fetch_add(1, Ordering::Relaxed);
                        d.vals.insert(seq, v);
                        v
                    } else {
                        self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
                        *d.vals.get(&seq).expect("duplicate nxtval without value")
                    }
                };
                self.post(from, &Msg::NxtValReply { token, value });
            }
            Msg::StealRequest {
                token,
                seq,
                epoch,
                limit,
            } => {
                // Each (peer, seq) takes a grant exactly once; a duplicate
                // request re-receives the recorded chains — never a fresh
                // grant, which would hand the same chain to two executors.
                let chains = {
                    let mut dedup = self.dedup.lock().unwrap();
                    let d = &mut dedup[from];
                    if d.fresh(seq) {
                        let h = self.steal_handler.lock().unwrap().clone();
                        let c = h.map_or_else(Vec::new, |h| h.donate(from, epoch, limit));
                        self.stats
                            .steal_donated
                            .fetch_add(c.len() as u64, Ordering::Relaxed);
                        d.grants.insert(seq, c.clone());
                        c
                    } else {
                        self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
                        d.grants
                            .get(&seq)
                            .expect("duplicate steal without recorded grant")
                            .clone()
                    }
                };
                self.post(from, &Msg::StealReply { token, chains });
            }
            Msg::Submit {
                token,
                seq,
                job_id,
                spec,
            } => {
                // Each (peer, seq) enqueues exactly once; a duplicate
                // submit re-receives the recorded id, never a second
                // enqueue (which would run — and bill — the job twice).
                let id = {
                    let mut dedup = self.dedup.lock().unwrap();
                    let d = &mut dedup[from];
                    if d.fresh(seq) {
                        let h = self.job_handler.lock().unwrap().clone();
                        let id = h.map_or(JOB_REJECTED, |h| h.submit(from, job_id, &spec));
                        self.stats.job_served.fetch_add(1, Ordering::Relaxed);
                        d.jobs.insert(seq, id);
                        id
                    } else {
                        self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
                        *d.jobs
                            .get(&seq)
                            .expect("duplicate submit without recorded id")
                    }
                };
                self.post(from, &Msg::SubmitReply { token, job_id: id });
            }
            Msg::JobStatus { token, job_id } => {
                // Read-only: a retransmitted poll simply asks again (and
                // can only see a fresher state).
                let h = self.job_handler.lock().unwrap().clone();
                let (state, result) = h.map_or((0, 0), |h| h.status(job_id));
                self.post(
                    from,
                    &Msg::JobStatusReply {
                        token,
                        job_id,
                        state,
                        result,
                    },
                );
            }
            Msg::JobDone {
                token,
                seq,
                job_id,
                result,
            } => {
                // The dedup gate keeps the gateway's completion count
                // exact: a duplicated report must not mark a rank done
                // twice.
                if self.dedup_fresh(from, seq) {
                    if let Some(h) = self.job_handler.lock().unwrap().clone() {
                        h.done(from, job_id, result);
                    }
                    self.stats.job_served.fetch_add(1, Ordering::Relaxed);
                }
                self.post(from, &Msg::JobDoneAck { token });
            }
            Msg::NxtValReset { token, seq } => {
                if self.dedup_fresh(from, seq) {
                    self.counter.store(0, Ordering::Relaxed);
                }
                self.post(from, &Msg::ResetAck { token });
            }
            Msg::BarrierEnter {
                epoch,
                from: who,
                gang,
            } => {
                debug_assert_eq!(
                    self.rank,
                    mask_leader(gang),
                    "barrier counter lives on the gang leader"
                );
                let members = gang.count_ones() as usize;
                let full = {
                    let mut b = self.barrier.lock().unwrap();
                    let g = b.groups.entry(gang).or_default();
                    if epoch <= g.last_released {
                        // Late retransmission: the release toward `who`
                        // was lost. Re-release to that rank alone.
                        self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
                        drop(b);
                        self.post(who as usize, &Msg::BarrierRelease { epoch, gang });
                        return;
                    }
                    let set = g.entered.entry(epoch).or_default();
                    if !set.insert(who) {
                        self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
                    }
                    let full = set.len() == members;
                    if full {
                        g.entered.remove(&epoch);
                        g.last_released = g.last_released.max(epoch);
                        // Collectives are serialized per rank within a
                        // gang, so any enter for a later epoch proves
                        // receipt of this release: confirmation only
                        // ever needs to track the newest epoch.
                        g.ack_epoch = epoch;
                        g.acked.clear();
                        g.release_retry = Some(Retry::new(&self.cfg));
                    }
                    full
                };
                if full {
                    for r in mask_members(gang) {
                        self.post(r, &Msg::BarrierRelease { epoch, gang });
                    }
                }
            }
            Msg::BarrierRelease { epoch, gang } => {
                {
                    let mut b = self.barrier.lock().unwrap();
                    let g = b.groups.entry(gang).or_default();
                    g.released = g.released.max(epoch);
                    let released = g.released;
                    g.enters.retain(|&e, _| e > released);
                    self.barrier_cv.notify_all();
                }
                // Confirm receipt (duplicates re-confirm): the counter
                // rank re-releases until every member acked and holds
                // its teardown on the set, so a lost release frame
                // cannot strand a waiter after the leader exits.
                self.post(
                    mask_leader(gang),
                    &Msg::BarrierAck {
                        epoch,
                        from: self.rank as u32,
                        gang,
                    },
                );
            }
            Msg::Ping { token } => self.post(from, &Msg::Pong { token }),
            // The pong's work was done by `note_rx` on arrival.
            Msg::Pong { .. } => {}
            Msg::BarrierAck {
                epoch,
                from: who,
                gang,
            } => {
                debug_assert_eq!(
                    self.rank,
                    mask_leader(gang),
                    "barrier counter lives on the gang leader"
                );
                let mut b = self.barrier.lock().unwrap();
                if let Some(g) = b.groups.get_mut(&gang) {
                    // Acks for superseded epochs are moot: entering a
                    // later barrier already proved the earlier release
                    // arrived.
                    if epoch == g.ack_epoch {
                        g.acked.insert(who);
                        if g.acked.len() == gang.count_ones() as usize {
                            g.release_retry = None;
                            // Wake a shutdown drain awaiting confirmation.
                            self.barrier_cv.notify_all();
                        }
                    }
                }
            }

            // ---- requesting side: completions of our own posts ----
            // (Data-bearing get replies normally arrive through the
            // zero-copy `reply_view` fast path in `progress_loop`; these
            // arms keep decoded delivery correct for any other caller.)
            Msg::GetReplyEager { token, data } => {
                self.finish_get(token, WireSlice::F64(&data), true)
            }
            Msg::GetReplyRndv { token, .. } => {
                // Pull even when no get is pending: an announce from a
                // retransmitted request whose first round already
                // completed still parked a payload at the server — the
                // pull garbage-collects it (and its data lands as a
                // counted duplicate below).
                if !self.gets.lock().unwrap().contains_key(&token) {
                    self.dup_reply();
                }
                self.post(from, &Msg::GetPull { token });
            }
            Msg::GetReplyData { token, data } => {
                self.finish_get(token, WireSlice::F64(&data), false)
            }
            Msg::GetReplyMulti { token, parts } => {
                let views: Vec<WireSlice<'_>> = parts.iter().map(|p| WireSlice::F64(p)).collect();
                self.finish_batch(token, &views);
            }
            Msg::PutCts { token } | Msg::AccCts { token } => {
                // Entry retained until the final ack: a duplicated CTS
                // re-sends the (dedup-protected) payload.
                match self.rndv_out.lock().unwrap().get(&token) {
                    Some(out) => self.post(out.peer, &out.msg),
                    None => self.dup_reply(),
                }
            }
            Msg::PutAck { token } | Msg::AccAck { token } | Msg::ResetAck { token } => {
                self.finish_ack(token)
            }
            Msg::NxtValReply { token, value } => match self.vals.lock().unwrap().remove(&token) {
                Some(nv) => {
                    *nv.slot.0.lock().unwrap() = Some(value);
                    nv.slot.1.notify_all();
                }
                None => self.dup_reply(),
            },
            Msg::StealReply { token, chains } => {
                let Some(sw) = self.steals.lock().unwrap().remove(&token) else {
                    self.dup_reply();
                    return;
                };
                let granted = !chains.is_empty();
                if granted {
                    self.stats
                        .steal_chains_rx
                        .fetch_add(chains.len() as u64, Ordering::Relaxed);
                } else {
                    self.stats.steal_dry_rx.fetch_add(1, Ordering::Relaxed);
                }
                let now = self.now_ns();
                {
                    let mut t = self.trace.lock().unwrap();
                    let class = t.1.steal[granted as usize];
                    let row = WorkerId::new(self.rank as u32, self.cfg.comm_worker);
                    t.0.push(row, class, sw.posted_ns, now);
                }
                (sw.cb)(chains);
            }
            Msg::SubmitReply { token, job_id } => {
                let Some(sw) = self.submits.lock().unwrap().remove(&token) else {
                    self.dup_reply();
                    return;
                };
                let now = self.now_ns();
                {
                    let mut t = self.trace.lock().unwrap();
                    let class = t.1.job[0];
                    let row = WorkerId::new(self.rank as u32, self.cfg.comm_worker);
                    t.0.push(row, class, sw.posted_ns, now);
                }
                (sw.cb)(job_id);
            }
            Msg::JobStatusReply {
                token,
                state,
                result,
                ..
            } => match self.statuses.lock().unwrap().remove(&token) {
                Some(sw) => (sw.cb)(state, result),
                None => self.dup_reply(),
            },
            Msg::JobDoneAck { token } => {
                let Some(jw) = self.job_done_waits.lock().unwrap().remove(&token) else {
                    self.dup_reply();
                    return;
                };
                let now = self.now_ns();
                let mut t = self.trace.lock().unwrap();
                let class = t.1.job[1];
                let row = WorkerId::new(self.rank as u32, self.cfg.comm_worker);
                t.0.push(row, class, jw.posted_ns, now);
            }
        }
    }

    /// Remove one pending get, record latency and a trace span. Returns
    /// the entry for callback delivery.
    fn retire_get(&self, token: u64, eager: bool, batch_retried: bool) -> Option<PendingGet> {
        let pg = self.gets.lock().unwrap().remove(&token)?;
        let now = self.now_ns();
        self.get_lat.lock().unwrap().push(now - pg.posted_ns);
        self.stats
            .get_wire_bytes
            .fetch_add(pg.len * 8, Ordering::Relaxed);
        {
            let mut t = self.trace.lock().unwrap();
            let retried = pg.retries > 0 || batch_retried;
            let class = t.1.get[retried as usize][eager as usize];
            let row = WorkerId::new(self.rank as u32, self.cfg.comm_worker);
            t.0.push(row, class, pg.posted_ns, now);
        }
        Some(pg)
    }

    /// Free one in-flight slot toward `peer` and refill it from the
    /// queue.
    fn release_slot(&self, peer: usize) {
        self.get_state.lock().unwrap()[peer].inflight -= 1;
        self.pump(peer);
    }

    fn finish_get(&self, token: u64, data: WireSlice<'_>, eager: bool) {
        // A late or duplicate reply (the original racing its own retry)
        // finds no pending entry: counted, dropped, and crucially *not*
        // double-freeing the in-flight slot.
        let Some(pg) = self.retire_get(token, eager, false) else {
            self.dup_reply();
            return;
        };
        self.release_slot(pg.peer);
        (pg.cb)(data);
    }

    /// Complete every sub-request of a `MultiGet` batch from its one
    /// reply frame; the batch held one in-flight slot.
    fn finish_batch(&self, token: u64, parts: &[WireSlice<'_>]) {
        let Some(batch) = self.batches.lock().unwrap().remove(&token) else {
            self.dup_reply();
            return;
        };
        assert_eq!(
            batch.subs.len(),
            parts.len(),
            "multi-get reply part count mismatch"
        );
        let retried = batch.retries > 0;
        let mut cbs = Vec::new();
        for (&sub, part) in batch.subs.iter().zip(parts) {
            // Subs complete only through their batch, so each entry must
            // still be pending here (a duplicate reply was caught above
            // by the batch lookup).
            if let Some(pg) = self.retire_get(sub, true, retried) {
                debug_assert_eq!(pg.len as usize, part.len(), "part length mismatch");
                cbs.push((pg.cb, *part));
            }
        }
        self.release_slot(batch.peer);
        for (cb, part) in cbs {
            cb(part);
        }
    }

    fn finish_ack(&self, token: u64) {
        let Some(ack) = self.acks.lock().unwrap().remove(&token) else {
            self.dup_reply();
            return;
        };
        // Garbage-collect the parked rendezvous payload, if any.
        self.rndv_out.lock().unwrap().remove(&token);
        if ack.kind != AckKind::Reset {
            let now = self.now_ns();
            {
                let mut t = self.trace.lock().unwrap();
                let retried = (ack.retries > 0) as usize;
                let class = match ack.kind {
                    AckKind::Put => t.1.put[retried][ack.eager as usize],
                    AckKind::Acc => t.1.acc[retried][ack.eager as usize],
                    AckKind::Reset => unreachable!(),
                };
                let row = WorkerId::new(self.rank as u32, self.cfg.comm_worker);
                t.0.push(row, class, ack.posted_ns, now);
            }
            let mut n = self.outstanding.lock().unwrap();
            *n -= 1;
            if *n == 0 {
                self.fence_cv.notify_all();
            }
        }
        if let Some(w) = ack.waiter {
            w.set();
        }
    }
}
