//! The sharded execution engine: one host-driver + simulated-chip pair per
//! shard, each on its own worker thread, fed through batched job channels.

use crate::coalesce::{CrossingMove, MoveCoalescer};
use crate::interconnect::{DrainPolicy, Staging};
use crate::sched::BatchScheduler;
use crate::{
    ClusterError, Interconnect, InterconnectConfig, LinkFaultKind, ShardPlan, TrafficStats,
};
use pim_arch::{Backend, MicroOp, PimConfig};
use pim_driver::{Driver, DriverError, IssuedCycles, ParallelismMode, RoutineCache};
use pim_fault::{FaultInjector, LinkFault, WorkerFault};
use pim_func::{AnyBackend, AnySnapshot, BackendKind};
use pim_isa::Instruction;
use pim_sim::Profiler;
use pim_telemetry::{
    Gauge, MetricsSnapshot, MetricsSource, RequestId, RequestStats, Telemetry, TrackHandle,
};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;

/// Shard crash-recovery policy: whether the supervisor respawns dead
/// workers, and how often each worker checkpoints its simulator state.
///
/// Between checkpoints the worker keeps a bounded journal of executed
/// jobs; recovery restores the last backend snapshot ([`AnySnapshot`])
/// and replays the journal suffix, so a crash costs bounded replay
/// latency instead of a dead cluster. Checkpointing is host-side only — it never touches
/// modeled state, so modeled cycle counts are bit-identical with recovery
/// on or off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Respawn crashed workers on the next submission (on by default).
    /// When off, a dead worker leaves the shard permanently
    /// [`Disconnected`](ClusterError::Disconnected) — the pre-supervision
    /// behavior.
    pub enabled: bool,
    /// Take a fresh checkpoint once the shard has modeled at least this
    /// many cycles since the last one.
    pub checkpoint_interval_cycles: u64,
    /// Take a fresh checkpoint once the journal holds this many
    /// instructions/micro-operations, whatever the cycle budget says —
    /// this bounds both journal memory and worst-case replay latency.
    pub checkpoint_max_instructions: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            enabled: true,
            checkpoint_interval_cycles: 1_000_000,
            checkpoint_max_instructions: 4096,
        }
    }
}

/// Which [`Backend`] implementation each shard runs — uniform across the
/// cluster or selected per shard. Mixed clusters are fully supported: the
/// shared cost model keeps modeled cycles identical either way, so a
/// deployment can, say, keep one bit-accurate shard as a strictness
/// canary while the rest serve on the fast functional backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardBackends {
    /// Every shard runs the same backend kind.
    Uniform(BackendKind),
    /// One entry per shard, indexed by shard. The length must equal the
    /// cluster's shard count.
    PerShard(Vec<BackendKind>),
}

impl Default for ShardBackends {
    fn default() -> Self {
        ShardBackends::Uniform(BackendKind::BitAccurate)
    }
}

impl ShardBackends {
    /// The backend kind shard `shard` runs.
    fn kind_for(&self, shard: usize) -> BackendKind {
        match self {
            ShardBackends::Uniform(kind) => *kind,
            ShardBackends::PerShard(kinds) => kinds[shard],
        }
    }

    /// Checks the per-shard list length against the shard count.
    fn validate(&self, shards: usize) -> Result<(), ClusterError> {
        match self {
            ShardBackends::PerShard(kinds) if kinds.len() != shards => {
                Err(ClusterError::Protocol {
                    reason: format!(
                        "per-shard backend list has {} entries for {} shards",
                        kinds.len(),
                        shards
                    ),
                })
            }
            _ => Ok(()),
        }
    }
}

/// Everything configurable about a cluster, bundled so call sites name
/// only what they change ([`PimCluster::with_options`]). The positional
/// constructors ([`new`](PimCluster::new) …
/// [`with_telemetry`](PimCluster::with_telemetry)) are shorthands over
/// this.
#[derive(Clone)]
pub struct ClusterOptions {
    /// Driver parallelism mode for every shard.
    pub mode: ParallelismMode,
    /// Chip-to-chip interconnect model.
    pub interconnect: InterconnectConfig,
    /// Telemetry handle the cluster records into.
    pub telemetry: Telemetry,
    /// Crash-recovery policy.
    pub recovery: RecoveryConfig,
    /// Deterministic fault injection schedule. `None` (the default) means
    /// the injector hooks are never consulted — zero cost, bit-identical
    /// to a build without the fault machinery.
    pub fault: Option<Arc<FaultInjector>>,
    /// Backend selection per shard (bit-accurate by default).
    pub backends: ShardBackends,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            mode: ParallelismMode::default(),
            interconnect: InterconnectConfig::default(),
            telemetry: Telemetry::disabled(),
            recovery: RecoveryConfig::default(),
            fault: None,
            backends: ShardBackends::default(),
        }
    }
}

impl std::fmt::Debug for ClusterOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterOptions")
            .field("mode", &self.mode)
            .field("interconnect", &self.interconnect)
            .field("recovery", &self.recovery)
            .field("fault", &self.fault)
            .field("backends", &self.backends)
            .finish_non_exhaustive()
    }
}

/// One recoverable unit of shard work, recorded by the worker after it
/// executed successfully. Replaying the journal (in order, on top of the
/// checkpoint snapshot) reproduces the shard state at crash time.
enum JournalEntry {
    /// Macro instructions of one executed job (read results are
    /// recomputed and discarded on replay).
    Instrs(Vec<Instruction>),
    /// A raw micro-operation batch.
    Micro(Vec<MicroOp>),
    SetStrict(bool),
    ResetProfiler,
    ResetIssued,
}

/// A shard's checkpoint + bounded replay log, shared between the worker
/// (which appends and periodically re-checkpoints) and the supervisor
/// (which restores from it on revival).
struct ShardJournal {
    snapshot: AnySnapshot,
    issued: IssuedCycles,
    /// Profiler cycles at snapshot time (checkpoint-interval baseline).
    snapshot_cycles: u64,
    log: Vec<JournalEntry>,
    /// Instructions + micro-operations in `log` (checkpoint-size bound).
    logged_instrs: usize,
}

impl ShardJournal {
    /// Re-checkpoints: captures the driver's current state as the new
    /// snapshot and clears the log.
    fn checkpoint(&mut self, driver: &Driver<AnyBackend>) {
        self.snapshot = driver.backend().snapshot();
        self.issued = driver.issued();
        self.snapshot_cycles = driver.backend().profiler().cycles;
        self.log.clear();
        self.logged_instrs = 0;
    }

    /// Re-checkpoints if the journal outgrew the configured bounds.
    fn maybe_checkpoint(&mut self, driver: &Driver<AnyBackend>, rc: &RecoveryConfig) {
        let cycles = driver.backend().profiler().cycles;
        if self.logged_instrs >= rc.checkpoint_max_instructions
            || cycles.saturating_sub(self.snapshot_cycles) >= rc.checkpoint_interval_cycles
        {
            self.checkpoint(driver);
        }
    }
}

/// Telemetry snapshot of one shard.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// The shard simulator's profiling counters (chip-side cycles).
    pub profiler: Profiler,
    /// Driver-issued cycle counters (logic vs total) of this shard.
    pub issued: IssuedCycles,
    /// Routine-cache hits of this shard's driver.
    pub cache_hits: u64,
    /// Routine-cache misses of this shard's driver.
    pub cache_misses: u64,
    /// Host threads the shard simulator uses internally.
    pub sim_threads: usize,
}

/// Aggregated telemetry across every shard — the production observability
/// for the §V-B "driver is not the bottleneck" claim at cluster scale.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Interconnect/scheduler traffic: cross-chip messages and words moved,
    /// modeled link cycles, barriers hit and shard queues drained by them.
    pub traffic: TrafficStats,
    /// Shard workers the supervisor respawned after a crash.
    pub worker_restarts: u64,
    /// Instructions/micro-operations replayed from journals during
    /// recovery (the work between the last checkpoint and the crash).
    pub replayed_instructions: u64,
}

impl ClusterStats {
    /// Driver-issued cycles summed over shards.
    pub fn issued(&self) -> IssuedCycles {
        self.shards.iter().map(|s| s.issued).sum()
    }

    /// Routine-cache `(hits, misses)` summed over shards.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.shards
            .iter()
            .fold((0, 0), |(h, m), s| (h + s.cache_hits, m + s.cache_misses))
    }

    /// Chip cycles summed over shards (total simulated work).
    pub fn total_cycles(&self) -> u64 {
        self.shards.iter().map(|s| s.profiler.cycles).sum()
    }

    /// Chip cycles of the busiest shard — the wall-clock latency of the
    /// cluster under the chips-run-in-parallel model.
    pub fn critical_path_cycles(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.profiler.cycles)
            .max()
            .unwrap_or(0)
    }

    /// Modeled end-to-end latency: the busiest chip plus the interconnect's
    /// link cycles (an upper bound — transfers that overlapped untouched
    /// shards' streaming are charged serially here).
    pub fn modeled_latency_cycles(&self) -> u64 {
        self.critical_path_cycles() + self.traffic.link_cycles
    }

    /// A merged profiler: operation/gate/move counters are summed across
    /// shards ([`Profiler::absorb`]), while `cycles` holds the critical
    /// path (chips execute concurrently, so wall-clock latency is the
    /// busiest shard's).
    pub fn merged_profiler(&self) -> Profiler {
        let mut out = Profiler::new();
        for s in &self.shards {
            out.absorb(&s.profiler);
        }
        out.cycles = self.critical_path_cycles();
        out
    }
}

impl MetricsSource for ClusterStats {
    fn fill_metrics(&self, snap: &mut MetricsSnapshot) {
        // The merged profiler carries the chip-side sim.* metrics; cycles
        // there is the critical path, so report the summed total separately.
        self.merged_profiler().fill_metrics(snap);
        snap.set_counter("cluster.total_cycles", self.total_cycles());
        snap.set_counter("cluster.critical_path_cycles", self.critical_path_cycles());
        snap.set_counter(
            "cluster.modeled_latency_cycles",
            self.modeled_latency_cycles(),
        );
        let issued = self.issued();
        snap.set_counter("cluster.issued_cycles", issued.total);
        snap.set_counter("cluster.issued_logic_cycles", issued.logic);
        let (hits, misses) = self.cache_stats();
        snap.set_counter("cluster.cache_hits", hits);
        snap.set_counter("cluster.cache_misses", misses);
        snap.set_gauge("cluster.shards", self.shards.len() as i64);
        snap.set_counter("cluster.worker_restarts", self.worker_restarts);
        snap.set_counter("cluster.replayed_instructions", self.replayed_instructions);
        self.traffic.fill_metrics(snap);
    }
}

/// Host-side fold applied to gathered shard values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Summation (wrapping for int32).
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Folds float values in order. Returns `None` for an empty input.
pub fn fold_f32(op: Combine, values: impl IntoIterator<Item = f32>) -> Option<f32> {
    values.into_iter().reduce(|a, b| match op {
        Combine::Sum => a + b,
        Combine::Min => a.min(b),
        Combine::Max => a.max(b),
    })
}

/// Folds int values in order (wrapping sum). Returns `None` for an empty
/// input.
pub fn fold_i32(op: Combine, values: impl IntoIterator<Item = i32>) -> Option<i32> {
    values.into_iter().reduce(|a, b| match op {
        Combine::Sum => a.wrapping_add(b),
        Combine::Min => a.min(b),
        Combine::Max => a.max(b),
    })
}

/// A global memory location: `(warp, row, register)` in cluster-wide warp
/// numbering. [`GlobalWrite`] is the named, value-carrying counterpart used
/// by [`PimCluster::scatter`].
pub type GlobalLoc = (u32, u32, u8);

/// A global write: the word to deposit at one cluster-wide memory cell.
///
/// Field-for-field parity with [`GlobalLoc`] — `(warp, row, reg)` address a
/// cell exactly as a gather location does — plus the `value` to store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalWrite {
    /// Global warp (cluster-wide numbering).
    pub warp: u32,
    /// Row within the warp.
    pub row: u32,
    /// Register to write.
    pub reg: u8,
    /// Raw word value (for floats, the IEEE-754 bit pattern).
    pub value: u32,
}

impl GlobalWrite {
    /// Builds a write in [`GlobalLoc`] field order plus the value.
    pub fn new(warp: u32, row: u32, reg: u8, value: u32) -> Self {
        GlobalWrite {
            warp,
            row,
            reg,
            value,
        }
    }

    /// The cell this write addresses, as a gather location.
    pub fn loc(&self) -> GlobalLoc {
        (self.warp, self.row, self.reg)
    }
}

type ShardReply = Result<Vec<Option<u32>>, ClusterError>;

/// Shared completion slot between a [`JobTicket`] and the shard worker
/// executing its batch: the worker deposits the result, notifies blocking
/// waiters ([`JobTicket::wait`]), and fires the waker a pending poll
/// registered ([`JobTicket` as `Future`]).
#[derive(Debug, Default)]
struct TicketShared {
    state: Mutex<TicketState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct TicketState {
    result: Option<ShardReply>,
    waker: Option<Waker>,
}

impl TicketShared {
    fn deliver(&self, result: ShardReply) {
        let waker = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.result = Some(result);
            self.cv.notify_all();
            st.waker.take()
        };
        // Outside the lock: waking may immediately poll the ticket.
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Worker-side handle of a completion slot. Completing consumes it; if it
/// is dropped un-completed (worker death, channel teardown mid-job), the
/// drop guard delivers [`ClusterError::WorkerCrashed`] — a typed transient
/// error — so no waiter hangs.
struct Completion {
    shard: usize,
    shared: Arc<TicketShared>,
    /// `cluster.jobs_inflight` — incremented at submission, decremented
    /// exactly once here on delivery, whichever path delivers (normal
    /// completion or the crash-path drop guard).
    inflight: Gauge,
    done: bool,
}

impl Completion {
    fn complete(mut self, result: ShardReply) {
        self.done = true;
        self.inflight.add(-1);
        self.shared.deliver(result);
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if !self.done {
            self.inflight.add(-1);
            self.shared
                .deliver(Err(ClusterError::WorkerCrashed { shard: self.shard }));
        }
    }
}

/// One client batch tagged with the request it belongs to — the unit the
/// serving gateway submits through [`PimCluster::submit_batch_tagged`] so
/// shard workers can attribute their modeled cycles to the request.
#[derive(Debug, Clone)]
pub struct TaggedBatch {
    /// The request this batch executes for ([`RequestId::UNTAGGED`] for
    /// background work).
    pub request: RequestId,
    /// The batch's non-read instructions, in program order.
    pub instrs: Vec<Instruction>,
}

enum Job {
    /// Execute macro-instruction segments in order, collecting
    /// per-instruction results (values for reads, `None` otherwise) across
    /// all segments. Segment boundaries exist only for telemetry — each
    /// segment's modeled cycles are attributed to its [`RequestId`];
    /// execution is one FIFO stream either way.
    Macro {
        segments: Vec<(RequestId, Vec<Instruction>)>,
        reply: Completion,
    },
    /// Execute a batch of raw micro-operations through the shard backend's
    /// [`pim_arch::Backend::execute_batch`] (subject to its no-read
    /// protocol).
    Micro {
        ops: Vec<MicroOp>,
        reply: Sender<Result<(), ClusterError>>,
    },
    Stats {
        reply: Sender<ShardStats>,
    },
    ResetProfiler {
        reply: Sender<()>,
    },
    ResetIssued {
        reply: Sender<()>,
    },
    SetStrict {
        strict: bool,
        reply: Sender<()>,
    },
}

/// One shard worker's supervision state. Behind a `Mutex` so the
/// supervisor can swap in a respawned worker from any client thread
/// ([`PimCluster::send`] detects death and revives in place).
struct WorkerSlot {
    tx: Option<Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

/// A pending batch submitted to one shard.
///
/// The ticket is both a blocking handle ([`wait`](JobTicket::wait)) and a
/// pollable [`Future`]: polling registers the task's waker in the
/// completion slot, and the shard worker fires it the moment the batch
/// finishes — no spinning, no blocked host thread. This is what lets one
/// host thread keep many client batches in flight (see the `pim-serve`
/// gateway).
#[derive(Debug)]
pub struct JobTicket {
    shard: usize,
    shared: Arc<TicketShared>,
}

impl JobTicket {
    /// The shard this job was submitted to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Whether the shard worker has completed the batch (the result is
    /// ready to collect without blocking).
    pub fn is_done(&self) -> bool {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .result
            .is_some()
    }

    /// Blocks until the batch completes, returning per-instruction results
    /// (the read value for [`Instruction::Read`], `None` otherwise).
    ///
    /// # Errors
    ///
    /// Returns the first shard error, or [`ClusterError::Disconnected`] if
    /// the worker died.
    pub fn wait(self) -> Result<Vec<Option<u32>>, ClusterError> {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = st.result.take() {
                return result;
            }
            st = self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Future for JobTicket {
    type Output = ShardReply;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(result) = st.result.take() {
            return Poll::Ready(result);
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// A set of in-flight per-shard jobs treated as one unit of work — the
/// asynchronous counterpart of submit-all-then-wait. Produced by
/// [`PimCluster::submit_batch`] and [`PimCluster::submit_scatter`].
#[derive(Debug, Default)]
pub struct JobSet {
    pending: Vec<JobTicket>,
    failed: Option<ClusterError>,
}

impl JobSet {
    fn new(tickets: Vec<JobTicket>) -> Self {
        JobSet {
            pending: tickets,
            failed: None,
        }
    }

    /// An already-completed set (no shard work was needed).
    pub fn ready() -> Self {
        JobSet::default()
    }

    /// Blocks until every job completes.
    ///
    /// # Errors
    ///
    /// Returns the first shard error.
    pub fn wait(mut self) -> Result<(), ClusterError> {
        for ticket in self.pending.drain(..) {
            ticket.wait()?;
        }
        Ok(())
    }
}

impl Future for JobSet {
    type Output = Result<(), ClusterError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut still_pending = Vec::with_capacity(this.pending.len());
        for mut ticket in this.pending.drain(..) {
            match Pin::new(&mut ticket).poll(cx) {
                Poll::Ready(Ok(_)) => {}
                Poll::Ready(Err(e)) => {
                    if this.failed.is_none() {
                        this.failed = Some(e);
                    }
                }
                Poll::Pending => still_pending.push(ticket),
            }
        }
        this.pending = still_pending;
        if this.pending.is_empty() {
            Poll::Ready(match this.failed.take() {
                None => Ok(()),
                Some(e) => Err(e),
            })
        } else {
            Poll::Pending
        }
    }
}

/// An in-flight cross-shard gather: per-shard read jobs plus the index
/// mapping that reassembles their values in input order. Produced by
/// [`PimCluster::submit_gather`].
#[derive(Debug)]
pub struct GatherTicket {
    parts: Vec<(Vec<usize>, JobTicket)>,
    out: Vec<u32>,
    failed: Option<ClusterError>,
}

impl GatherTicket {
    /// Deposits one shard's read values at their input positions. A shard
    /// that lost its worker mid-gather can come back short or with holes;
    /// that is a typed [`Protocol`](ClusterError::Protocol) error for the
    /// caller, never a panic.
    fn place(
        out: &mut [u32],
        indices: Vec<usize>,
        values: Vec<Option<u32>>,
    ) -> Result<(), ClusterError> {
        if values.len() != indices.len() {
            return Err(ClusterError::Protocol {
                reason: format!(
                    "gather returned {} values for {} reads",
                    values.len(),
                    indices.len()
                ),
            });
        }
        for (i, v) in indices.into_iter().zip(values) {
            out[i] = v.ok_or_else(|| ClusterError::Protocol {
                reason: "gather read returned no value".into(),
            })?;
        }
        Ok(())
    }

    /// Blocks until every shard's reads complete, returning the gathered
    /// values in input order.
    ///
    /// # Errors
    ///
    /// Returns the first shard error.
    pub fn wait(mut self) -> Result<Vec<u32>, ClusterError> {
        for (indices, ticket) in self.parts.drain(..) {
            let values = ticket.wait()?;
            Self::place(&mut self.out, indices, values)?;
        }
        Ok(std::mem::take(&mut self.out))
    }
}

impl Future for GatherTicket {
    type Output = Result<Vec<u32>, ClusterError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut still_pending = Vec::with_capacity(this.parts.len());
        for (indices, mut ticket) in this.parts.drain(..) {
            match Pin::new(&mut ticket).poll(cx) {
                Poll::Ready(Ok(values)) => {
                    if let Err(e) = Self::place(&mut this.out, indices, values) {
                        if this.failed.is_none() {
                            this.failed = Some(e);
                        }
                    }
                }
                Poll::Ready(Err(e)) => {
                    if this.failed.is_none() {
                        this.failed = Some(e);
                    }
                }
                Poll::Pending => still_pending.push((indices, ticket)),
            }
        }
        this.parts = still_pending;
        if this.parts.is_empty() {
            Poll::Ready(match this.failed.take() {
                None => Ok(std::mem::take(&mut this.out)),
                Some(e) => Err(e),
            })
        } else {
            Poll::Pending
        }
    }
}

/// Outcome of [`PimCluster::submit_batch`]: either every instruction was
/// shard-local and the per-shard jobs are now in flight, or the batch
/// contained a chip-crossing move (which needs host staging and scheduler
/// barriers) and was executed inline before returning.
#[derive(Debug)]
pub enum Submission {
    /// Per-shard jobs in flight; await or wait the [`JobSet`].
    Tickets(JobSet),
    /// The batch required cross-chip transfers and already executed
    /// synchronously (a completed submission).
    Inline,
}

impl Submission {
    /// Blocks until the submission completes (no-op for [`Inline`](Submission::Inline)
    /// submissions, which completed before they were returned).
    ///
    /// # Errors
    ///
    /// Returns the first shard error.
    pub fn wait(self) -> Result<(), ClusterError> {
        match self {
            Submission::Tickets(set) => set.wait(),
            Submission::Inline => Ok(()),
        }
    }
}

/// A sharded multi-chip PIM execution engine.
///
/// `N` shards, each a [`Driver`] over its own chip backend (bit-accurate
/// simulator or vectorized functional backend, per [`ShardBackends`])
/// running on a dedicated worker thread, present one flat address space of
/// `N × crossbars` warps. Logical instructions addressed to global warps are
/// split along shard boundaries (see [`ShardPlan`]) and stream to all
/// affected shards concurrently; inter-warp moves that cross a chip
/// boundary go over a modeled chip-to-chip [`Interconnect`]: crossing word
/// pairs are batched into one message per `(source, destination)` shard
/// pair, charged a configurable per-link cycle cost, and only the shards a
/// transfer touches are drained — untouched shards keep streaming (the
/// drain rule; see the crate-level docs).
///
/// All methods take `&self`; the cluster may be driven from many client
/// threads at once (each shard serializes its own job queue).
///
/// # Example
///
/// ```
/// use pim_arch::PimConfig;
/// use pim_cluster::PimCluster;
/// use pim_isa::{Instruction, ThreadRange};
///
/// # fn main() -> Result<(), pim_cluster::ClusterError> {
/// let cluster = PimCluster::new(PimConfig::small().with_crossbars(4), 4)?;
/// assert_eq!(cluster.logical_config().crossbars, 16);
///
/// // Write to a warp on shard 2 through the flat address space.
/// cluster.execute(&Instruction::Write {
///     reg: 0,
///     value: 42,
///     target: ThreadRange::single(9, 5),
/// })?;
/// let got = cluster.execute(&Instruction::Read { reg: 0, warp: 9, row: 5 })?;
/// assert_eq!(got, Some(42));
/// # Ok(())
/// # }
/// ```
pub struct PimCluster {
    plan: ShardPlan,
    shard_cfg: PimConfig,
    logical_cfg: PimConfig,
    interconnect: Interconnect,
    workers: Vec<Mutex<WorkerSlot>>,
    /// Per-shard checkpoint + replay journals; `None` when recovery is
    /// disabled (no snapshot memory, no journaling work).
    journals: Vec<Option<Arc<Mutex<ShardJournal>>>>,
    telemetry: Telemetry,
    /// Trace track of host-staged interconnect bursts.
    ic_track: TrackHandle,
    /// `cluster.jobs_inflight` — macro jobs queued to or executing on
    /// shard workers (the source-level queue/in-flight gauge).
    jobs_inflight: Gauge,
    mode: ParallelismMode,
    shared_cache: RoutineCache,
    recovery: RecoveryConfig,
    fault: Option<Arc<FaultInjector>>,
    /// The backend kind each shard runs (fixed at construction; revival
    /// rebuilds the same kind).
    backend_kinds: Vec<BackendKind>,
    /// Workers respawned after a crash.
    restarts: AtomicU64,
    /// Instructions replayed from journals during recovery.
    replayed: AtomicU64,
}

impl std::fmt::Debug for PimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PimCluster")
            .field("shards", &self.plan.shards())
            .field("shard_config", &self.shard_cfg)
            .finish()
    }
}

impl PimCluster {
    /// Spawns a cluster of `shards` chips of geometry `cfg` with the default
    /// (partition-parallel) driver mode.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero shard count or an invalid configuration.
    pub fn new(cfg: PimConfig, shards: usize) -> Result<Self, ClusterError> {
        PimCluster::with_mode(cfg, shards, ParallelismMode::default())
    }

    /// Spawns a cluster with an explicit driver parallelism mode.
    ///
    /// Each shard backend is pinned to a single internal thread
    /// ([`AnyBackend::set_threads`]) — parallelism comes from the shard
    /// workers themselves, so the host is not oversubscribed.
    ///
    /// Every shard driver receives a [`RoutineCache::share`] of one
    /// cluster-wide compilation map: a routine compiles once per cluster
    /// (the first shard to need it misses; the rest hit), while hit/miss
    /// telemetry stays per shard in [`ShardStats`].
    ///
    /// # Errors
    ///
    /// See [`new`](PimCluster::new).
    pub fn with_mode(
        cfg: PimConfig,
        shards: usize,
        mode: ParallelismMode,
    ) -> Result<Self, ClusterError> {
        PimCluster::with_interconnect(cfg, shards, mode, InterconnectConfig::default())
    }

    /// Spawns a cluster with explicit driver parallelism and chip-to-chip
    /// interconnect models. The interconnect's link width/latency set the
    /// modeled cycle cost of cross-chip transfers ([`TrafficStats`]); its
    /// staging and drain policies select the transfer batching and the
    /// scheduler's barrier scope (the defaults — batched bursts, drain only
    /// touched shards — are what production wants; the per-word/global
    /// alternatives exist for A/B measurement).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidInterconnect`] for an unusable link
    /// model, plus everything [`new`](PimCluster::new) returns.
    pub fn with_interconnect(
        cfg: PimConfig,
        shards: usize,
        mode: ParallelismMode,
        icfg: InterconnectConfig,
    ) -> Result<Self, ClusterError> {
        PimCluster::with_telemetry(cfg, shards, mode, icfg, Telemetry::disabled())
    }

    /// Spawns a cluster recording into an explicit [`Telemetry`] handle:
    /// each shard worker gets its own `shard-{i}` trace track (spans on the
    /// shard's modeled cycle timeline, attributed per request), and
    /// host-staged interconnect bursts record onto `cluster/interconnect`.
    /// The handle may be shared with (and flipped on/off by) the layers
    /// above; recording never affects execution.
    ///
    /// # Errors
    ///
    /// See [`with_interconnect`](PimCluster::with_interconnect).
    pub fn with_telemetry(
        cfg: PimConfig,
        shards: usize,
        mode: ParallelismMode,
        icfg: InterconnectConfig,
        telemetry: Telemetry,
    ) -> Result<Self, ClusterError> {
        PimCluster::with_options(
            cfg,
            shards,
            ClusterOptions {
                mode,
                interconnect: icfg,
                telemetry,
                ..ClusterOptions::default()
            },
        )
    }

    /// Spawns a cluster from a full [`ClusterOptions`] bundle — the one
    /// constructor every shorthand delegates to. This is where crash
    /// recovery ([`RecoveryConfig`]) and deterministic fault injection
    /// ([`FaultInjector`]) are configured.
    ///
    /// # Errors
    ///
    /// See [`with_interconnect`](PimCluster::with_interconnect).
    pub fn with_options(
        cfg: PimConfig,
        shards: usize,
        options: ClusterOptions,
    ) -> Result<Self, ClusterError> {
        let ClusterOptions {
            mode,
            interconnect: icfg,
            telemetry,
            recovery,
            fault,
            backends,
        } = options;
        icfg.validate()
            .map_err(|reason| ClusterError::InvalidInterconnect { reason })?;
        let plan = ShardPlan::new(&cfg, shards)?;
        backends.validate(shards)?;
        let backend_kinds: Vec<BackendKind> =
            (0..shards).map(|shard| backends.kind_for(shard)).collect();
        let logical_cfg = cfg.clone().with_crossbars(cfg.crossbars * shards);
        let shared_cache = RoutineCache::new();
        let mut workers = Vec::with_capacity(shards);
        let mut journals = Vec::with_capacity(shards);
        for (shard, &kind) in backend_kinds.iter().enumerate() {
            let mut backend =
                AnyBackend::new(kind, cfg.clone()).map_err(|e| ClusterError::Shard {
                    shard,
                    source: DriverError::from(e),
                })?;
            backend.set_threads(1);
            let driver = Driver::with_cache(backend, mode, shared_cache.share());
            let journal = recovery.enabled.then(|| {
                Arc::new(Mutex::new(ShardJournal {
                    snapshot: driver.backend().snapshot(),
                    issued: driver.issued(),
                    snapshot_cycles: 0,
                    log: Vec::new(),
                    logged_instrs: 0,
                }))
            });
            let (tx, handle) = spawn_worker(
                shard,
                driver,
                &telemetry,
                journal.clone(),
                fault.clone(),
                recovery.clone(),
            );
            workers.push(Mutex::new(WorkerSlot {
                tx: Some(tx),
                handle: Some(handle),
            }));
            journals.push(journal);
        }
        let ic_track = telemetry.track("cluster/interconnect");
        let jobs_inflight = telemetry.metrics().gauge("cluster.jobs_inflight");
        Ok(PimCluster {
            plan,
            shard_cfg: cfg,
            logical_cfg,
            interconnect: Interconnect::new(icfg),
            workers,
            journals,
            telemetry,
            ic_track,
            jobs_inflight,
            mode,
            shared_cache,
            recovery,
            fault,
            backend_kinds,
            restarts: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
        })
    }

    /// The telemetry handle this cluster records into (disabled by default;
    /// see [`with_telemetry`](PimCluster::with_telemetry)).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The modeled chip-to-chip interconnect (configuration and live
    /// traffic counters).
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// Number of shards (chips).
    pub fn shards(&self) -> usize {
        self.plan.shards()
    }

    /// The partition plan mapping global warps/elements to shards.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Geometry of each individual chip.
    pub fn shard_config(&self) -> &PimConfig {
        &self.shard_cfg
    }

    /// The aggregate geometry the cluster presents: the per-chip
    /// configuration with `shards × crossbars` warps.
    pub fn logical_config(&self) -> &PimConfig {
        &self.logical_cfg
    }

    /// Queues one job to a shard worker, reviving the worker first if it
    /// died. The fast path is one uncontended lock and a channel send; the
    /// supervisor only runs when a send fails (the worker's receiver is
    /// gone — it crashed or was fault-injected to crash).
    fn send(&self, shard: usize, job: Job) -> Result<(), ClusterError> {
        let slot = self.workers.get(shard).ok_or(ClusterError::ShardIndex {
            shard,
            shards: self.workers.len(),
        })?;
        let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
        let job = match &slot.tx {
            // `SendError` hands the unsent job back; recover it for the
            // retry after revival.
            Some(tx) => match tx.send(job) {
                Ok(()) => return Ok(()),
                Err(failed) => failed.0,
            },
            None => job,
        };
        self.revive(&mut slot, shard)?;
        slot.tx
            .as_ref()
            .expect("revive installs a sender on success")
            .send(job)
            .map_err(|_| ClusterError::WorkerCrashed { shard })
    }

    /// Respawns a dead shard worker: reaps the old thread, rebuilds the
    /// shard simulator from the journal's checkpoint, replays the journal
    /// suffix, re-checkpoints, and spawns a fresh worker thread. Called
    /// with the shard's slot lock held.
    ///
    /// # Errors
    ///
    /// [`Disconnected`](ClusterError::Disconnected) when recovery is
    /// disabled; [`RecoveryFailed`](ClusterError::RecoveryFailed) when
    /// replay fails (the shard stays down).
    fn revive(&self, slot: &mut WorkerSlot, shard: usize) -> Result<(), ClusterError> {
        slot.tx = None;
        if let Some(h) = slot.handle.take() {
            // A crashing worker's completion guards can wake a client that
            // pumps follow-up work on the dying thread itself (the serving
            // gateway does); reviving from there must not join the current
            // thread — that deadlocks. The dying thread is past its last
            // touch of shard state (state is rebuilt from the journal), so
            // detaching it is safe.
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
        let journal = match &self.journals[shard] {
            Some(j) if self.recovery.enabled => Arc::clone(j),
            _ => return Err(ClusterError::Disconnected { shard }),
        };
        let mut backend = AnyBackend::new(self.backend_kinds[shard], self.shard_cfg.clone())
            .map_err(|e| ClusterError::RecoveryFailed {
                shard,
                reason: e.to_string(),
            })?;
        backend.set_threads(1);
        let mut driver = {
            let j = journal.lock().unwrap_or_else(|e| e.into_inner());
            backend.restore(&j.snapshot);
            let mut driver = Driver::with_cache(backend, self.mode, self.shared_cache.share());
            driver.restore_issued(j.issued);
            let checkpoint_cycles = driver.backend().profiler().cycles;
            let mut replayed = 0u64;
            for entry in &j.log {
                match entry {
                    JournalEntry::Instrs(instrs) => {
                        for instr in instrs {
                            driver
                                .execute(instr)
                                .map_err(|e| ClusterError::RecoveryFailed {
                                    shard,
                                    reason: format!("replay failed: {e}"),
                                })?;
                        }
                        replayed += instrs.len() as u64;
                    }
                    JournalEntry::Micro(ops) => {
                        driver.backend_mut().execute_batch(ops).map_err(|e| {
                            ClusterError::RecoveryFailed {
                                shard,
                                reason: format!("replay failed: {e}"),
                            }
                        })?;
                        driver.invalidate_masks();
                        replayed += ops.len() as u64;
                    }
                    JournalEntry::SetStrict(strict) => driver.backend_mut().set_strict(*strict),
                    JournalEntry::ResetProfiler => {
                        driver.backend_mut().reset_profiler();
                        driver.reset_cache_stats();
                    }
                    JournalEntry::ResetIssued => driver.reset_issued(),
                }
            }
            self.replayed.fetch_add(replayed, Ordering::Relaxed);
            // Replay brings the profiler back to its pre-crash value, but
            // on the wall timeline the replayed span executed twice — once
            // before the crash (already counted, then rolled back by the
            // restore, then re-counted by the replay) and once during
            // recovery. Charge the recovery pass as a stall so degraded
            // runs model the real throughput cost of a crash.
            let replay_span = driver
                .backend()
                .profiler()
                .cycles
                .saturating_sub(checkpoint_cycles);
            driver.backend_mut().stall(replay_span);
            driver
        };
        // Fold the replayed suffix into a fresh checkpoint so a second
        // crash never replays the same work twice.
        journal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .checkpoint(&driver);
        driver.invalidate_masks();
        let (tx, handle) = spawn_worker(
            shard,
            driver,
            &self.telemetry,
            Some(journal),
            self.fault.clone(),
            self.recovery.clone(),
        );
        slot.tx = Some(tx);
        slot.handle = Some(handle);
        self.restarts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The fault injector this cluster consults, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Shard workers respawned after a crash so far.
    pub fn worker_restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Instructions/micro-operations replayed from journals during
    /// recovery so far.
    pub fn replayed_instructions(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Submits a batch of *local* (shard-addressed) macro-instructions to
    /// one shard and returns immediately; many submissions to different
    /// shards (or the same shard) proceed concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardIndex`] or
    /// [`ClusterError::Disconnected`]; execution errors surface from
    /// [`JobTicket::wait`].
    pub fn submit(
        &self,
        shard: usize,
        instrs: Vec<Instruction>,
    ) -> Result<JobTicket, ClusterError> {
        self.submit_request(shard, RequestId::UNTAGGED, instrs)
    }

    /// [`submit`](PimCluster::submit) with the batch attributed to one
    /// request: the shard worker's execution span (and its modeled cycles)
    /// record against `request` when telemetry is enabled.
    pub fn submit_request(
        &self,
        shard: usize,
        request: RequestId,
        instrs: Vec<Instruction>,
    ) -> Result<JobTicket, ClusterError> {
        self.submit_segments(shard, vec![(request, instrs)])
    }

    /// Submits one shard job of per-request instruction segments (the
    /// gateway's coalesced groups carry several requests in one job).
    fn submit_segments(
        &self,
        shard: usize,
        segments: Vec<(RequestId, Vec<Instruction>)>,
    ) -> Result<JobTicket, ClusterError> {
        let shared = Arc::new(TicketShared::default());
        self.jobs_inflight.add(1);
        let reply = Completion {
            shard,
            shared: Arc::clone(&shared),
            inflight: self.jobs_inflight.clone(),
            done: false,
        };
        self.send(shard, Job::Macro { segments, reply })?;
        Ok(JobTicket { shard, shared })
    }

    /// Executes one *logical* macro-instruction addressed in global warp
    /// space, splitting it across the affected shards and blocking until
    /// all of them finish. Returns the value for [`Instruction::Read`].
    ///
    /// # Errors
    ///
    /// Returns validation errors against the aggregate geometry and shard
    /// execution errors.
    pub fn execute(&self, instr: &Instruction) -> Result<Option<u32>, ClusterError> {
        match instr {
            Instruction::Read { reg, warp, row } => {
                instr.validate(&self.logical_cfg)?;
                let shard = self.plan.shard_of_warp(*warp);
                let local = Instruction::Read {
                    reg: *reg,
                    warp: self.plan.local_warp(*warp),
                    row: *row,
                };
                let out = self.submit(shard, vec![local])?.wait()?;
                Ok(out[0])
            }
            // All non-read instructions share the batched routing, so the
            // shard-splitting rules live in exactly one place.
            _ => {
                self.execute_batch(std::slice::from_ref(instr))?;
                Ok(None)
            }
        }
    }

    /// Executes a sequence of non-read logical instructions, streaming
    /// shard-local work to all shards concurrently. Consecutive
    /// instructions accumulate into per-shard queues; an inter-warp move
    /// that crosses a chip boundary drains only the shards it touches
    /// (source + destination warp owners), while every untouched shard
    /// keeps streaming its queued instructions concurrently with the
    /// transfer (the drain rule; see the crate-level docs —
    /// [`DrainPolicy::Global`] restores the PR-1 all-shard barrier for A/B
    /// measurement).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] for reads (which return data and
    /// must go through [`execute`](PimCluster::execute)), plus validation
    /// and shard errors.
    pub fn execute_batch(&self, instrs: &[Instruction]) -> Result<(), ClusterError> {
        self.validate_batch(instrs)?;
        self.execute_batch_validated(instrs, RequestId::UNTAGGED)
    }

    /// Validates a whole non-read batch before anything is queued: a
    /// validation or protocol error must mean *nothing* ran (a mid-batch
    /// failure would otherwise leave earlier instructions applied on some
    /// shards and discard ones still queued).
    fn validate_batch(&self, instrs: &[Instruction]) -> Result<(), ClusterError> {
        for instr in instrs {
            instr.validate(&self.logical_cfg)?;
            if matches!(instr, Instruction::Read { .. }) {
                return Err(ClusterError::Protocol {
                    reason: "read instructions cannot be batched (they return data)".into(),
                });
            }
        }
        Ok(())
    }

    /// Splits one validated logical instruction into its shard-local pieces
    /// (emitted through `sink` as `(shard, local instruction)` pairs) and
    /// returns the chip-crossing remainder of a `MoveWarps`, if any — the
    /// one routing decision [`execute_batch`](PimCluster::execute_batch)
    /// and [`submit_batch`](PimCluster::submit_batch) share.
    fn split_local(
        &self,
        instr: &Instruction,
        mut sink: impl FnMut(usize, Instruction),
    ) -> Option<CrossingMove> {
        match instr {
            Instruction::Read { .. } => unreachable!("rejected by the validation pass"),
            Instruction::RType {
                op,
                dtype,
                dst,
                srcs,
                target,
            } => {
                for (s, t) in self.plan.split_target(target) {
                    sink(
                        s,
                        Instruction::RType {
                            op: *op,
                            dtype: *dtype,
                            dst: *dst,
                            srcs: *srcs,
                            target: t,
                        },
                    );
                }
                None
            }
            Instruction::Write { reg, value, target } => {
                for (s, t) in self.plan.split_target(target) {
                    sink(
                        s,
                        Instruction::Write {
                            reg: *reg,
                            value: *value,
                            target: t,
                        },
                    );
                }
                None
            }
            Instruction::MoveRows {
                src,
                dst,
                src_rows,
                dst_rows,
                warps,
            } => {
                for (s, w) in self.plan.split_warps(warps) {
                    sink(
                        s,
                        Instruction::MoveRows {
                            src: *src,
                            dst: *dst,
                            src_rows: *src_rows,
                            dst_rows: *dst_rows,
                            warps: w,
                        },
                    );
                }
                None
            }
            Instruction::MoveWarps {
                src,
                dst,
                row_src,
                row_dst,
                warps,
                dist,
            } => {
                let route = self.plan.route_move_warps(warps, *dist);
                for &(s, w) in &route.local {
                    sink(
                        s,
                        Instruction::MoveWarps {
                            src: *src,
                            dst: *dst,
                            row_src: *row_src,
                            row_dst: *row_dst,
                            warps: w,
                            dist: *dist,
                        },
                    );
                }
                CrossingMove::new(route, warps, *dist, *src, *dst, *row_src, *row_dst)
            }
        }
    }

    /// The batch executor behind [`execute_batch`](PimCluster::execute_batch):
    /// streams shard-local work through the [`BatchScheduler`] while the
    /// [`MoveCoalescer`] accumulates the current run of compatible crossing
    /// moves. Any instruction that cannot join the run — a different
    /// distance, a data hazard, or simply not a crossing move — flushes the
    /// run *before* it is enqueued, so shard-visible effects keep
    /// instruction-stream order. Under [`Coalesce::Off`](crate::Coalesce)
    /// every run holds one move and this degenerates to the per-move PR-3
    /// path.
    fn execute_batch_validated(
        &self,
        instrs: &[Instruction],
        request: RequestId,
    ) -> Result<(), ClusterError> {
        let mut sched = BatchScheduler::new(self, request);
        let mut coalescer = MoveCoalescer::new(self.interconnect.config().coalesce);
        let mut parts: Vec<(usize, Instruction)> = Vec::new();
        for instr in instrs {
            if coalescer.is_empty() {
                // No pending run: shard-local parts sink straight into the
                // scheduler (the pre-coalescer fast path — batches without
                // crossing moves pay no buffering at all), and a crossing
                // move starts a fresh run.
                if let Some(mv) = self.split_local(instr, |s, i| sched.enqueue(s, i)) {
                    coalescer.push(mv);
                }
                continue;
            }
            // A run is pending: hold the split back until we know whether
            // this instruction joins it, so a flush happens *before* an
            // incompatible instruction's parts are enqueued.
            parts.clear();
            let cross = self.split_local(instr, |s, i| parts.push((s, i)));
            let flush_first = match &cross {
                Some(mv) => !coalescer.accepts(mv),
                None => true,
            };
            if flush_first {
                self.flush_run(&mut sched, &mut coalescer, request)?;
            }
            for (s, i) in parts.drain(..) {
                sched.enqueue(s, i);
            }
            if let Some(mv) = cross {
                coalescer.push(mv);
            }
        }
        self.flush_run(&mut sched, &mut coalescer, request)?;
        sched.finish()
    }

    /// Flushes the coalescer's current run: one barrier over the union of
    /// the shards the run touches, then one bulk transfer staging every
    /// crossing pair of every member (under [`Staging::Batched`]: one
    /// gathered read burst and one scattered write burst per
    /// `(source, destination)` shard pair for the whole run).
    fn flush_run(
        &self,
        sched: &mut BatchScheduler<'_>,
        coalescer: &mut MoveCoalescer,
        request: RequestId,
    ) -> Result<(), ClusterError> {
        let run = coalescer.take();
        if run.is_empty() {
            return Ok(());
        }
        let touched = match self.interconnect.config().drain {
            DrainPolicy::Touched => MoveCoalescer::touched_shards(&run, &self.plan),
            DrainPolicy::Global => vec![true; self.shards()],
        };
        self.interconnect.record_barrier(sched.busy(&touched));
        sched.barrier(&touched)?;
        self.cross_transfer(&run, request)
    }

    /// Whether [`submit_batch`](PimCluster::submit_batch) would stream this
    /// batch asynchronously (`true`) or execute it inline because it
    /// contains a chip-crossing move (`false`). Invalid batches report
    /// `true` — their submission fails fast without executing anything.
    pub fn batch_streams_async(&self, instrs: &[Instruction]) -> bool {
        if self.validate_batch(instrs).is_err() {
            return true;
        }
        instrs.iter().all(|i| match i {
            Instruction::MoveWarps { warps, dist, .. } => {
                self.plan.route_move_warps(warps, *dist).cross.is_empty()
            }
            _ => true,
        })
    }

    /// Submits a batch of non-read logical instructions *without waiting*:
    /// shard-local work is split per shard and one job per involved shard
    /// goes in flight, observable through the returned [`JobSet`] — the
    /// asynchronous counterpart of [`execute_batch`](PimCluster::execute_batch),
    /// and the primitive the `pim-serve` gateway coalesces client batches
    /// onto.
    ///
    /// A batch containing a chip-crossing move cannot stream asynchronously
    /// (host staging needs scheduler barriers), so it executes inline and
    /// the call returns [`Submission::Inline`] after it completed —
    /// semantics are identical either way.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] for reads, plus validation and
    /// shard errors. Nothing runs if validation fails.
    pub fn submit_batch(&self, instrs: &[Instruction]) -> Result<Submission, ClusterError> {
        self.validate_batch(instrs)?;
        let mut per: Vec<Vec<Instruction>> = vec![Vec::new(); self.shards()];
        for instr in instrs {
            let cross = self.split_local(instr, |s, i| per[s].push(i));
            if cross.is_some() {
                // Discard the split and run the whole batch through the
                // barrier-aware scheduler instead.
                self.execute_batch_validated(instrs, RequestId::UNTAGGED)?;
                return Ok(Submission::Inline);
            }
        }
        let mut tickets = Vec::new();
        for (shard, instrs) in per.into_iter().enumerate() {
            if !instrs.is_empty() {
                tickets.push(self.submit(shard, instrs)?);
            }
        }
        Ok(Submission::Tickets(JobSet::new(tickets)))
    }

    /// [`submit_batch`](PimCluster::submit_batch) over request-tagged
    /// batches — the serving gateway's submission path. Per-shard work
    /// keeps batch order but carries each batch's [`RequestId`] as a
    /// worker-side segment, so execution spans and modeled cycles attribute
    /// to the request that caused them (even inside a coalesced group).
    ///
    /// If any batch needs a chip-crossing move, the batches execute inline
    /// *per batch, in order* through the barrier-aware scheduler —
    /// per-shard instruction order (and therefore every result) is
    /// identical to the untagged concatenated path, and each batch's
    /// transfers attribute to its own request.
    ///
    /// # Errors
    ///
    /// See [`submit_batch`](PimCluster::submit_batch). Nothing runs if any
    /// batch fails validation.
    pub fn submit_batch_tagged(&self, batches: &[TaggedBatch]) -> Result<Submission, ClusterError> {
        for b in batches {
            self.validate_batch(&b.instrs)?;
        }
        let mut per: Vec<Vec<(RequestId, Vec<Instruction>)>> = vec![Vec::new(); self.shards()];
        let mut crossing = false;
        'split: for b in batches {
            for instr in &b.instrs {
                let cross = self.split_local(instr, |s, i| match per[s].last_mut() {
                    Some((r, seg)) if *r == b.request => seg.push(i),
                    _ => per[s].push((b.request, vec![i])),
                });
                if cross.is_some() {
                    crossing = true;
                    break 'split;
                }
            }
        }
        if crossing {
            // Discard the split; sessions' batches touch disjoint windows
            // (they commute), so per-batch sequential execution is
            // equivalent to the concatenation.
            for b in batches {
                self.execute_batch_validated(&b.instrs, b.request)?;
            }
            return Ok(Submission::Inline);
        }
        let mut tickets = Vec::new();
        for (shard, segments) in per.into_iter().enumerate() {
            if !segments.is_empty() {
                tickets.push(self.submit_segments(shard, segments)?);
            }
        }
        Ok(Submission::Tickets(JobSet::new(tickets)))
    }

    /// Inter-chip transfer of one coalesced run over the modeled
    /// interconnect: the crossing pairs of *every* member are concatenated
    /// and grouped into one message per `(source, destination)` shard pair
    /// — one gathered read burst and one scattered write burst each — with
    /// every burst's cycle cost accounted to [`TrafficStats`]. All gathers
    /// precede all scatters; this is safe because run members are
    /// cell-independent of each other ([`MoveCoalescer::accepts`]) and each
    /// member's own source and destination warp sets are disjoint (H-tree
    /// rule).
    /// Records one accounted burst as a trace span on the interconnect
    /// track and attributes its traffic to `request`. The burst occupies
    /// `[now, now + cycles)` on the global modeled clock and advances it —
    /// host-staged transfers serialize after the drained shards' work,
    /// matching [`ClusterStats::modeled_latency_cycles`]'s upper bound.
    fn record_burst_span(&self, request: RequestId, words: u64, cycles: u64) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let start = self.telemetry.now();
        self.telemetry.advance_clock(start + cycles);
        self.ic_track
            .record_complete("burst", start, cycles, request, Some(("words", words)));
        self.telemetry.attribute(
            request,
            RequestStats {
                cross_words: words,
                link_cycles: cycles,
                ..RequestStats::default()
            },
        );
    }

    /// Consults the fault injector for one staged burst; a scheduled drop
    /// or detected corruption aborts the transfer *before* any data moves,
    /// so nothing of a faulted message ever lands (no silent corruption).
    /// Both by-index and cycle-window schedules apply — the burst is
    /// stamped with the modeled clock so window schedules (partitions) see
    /// when it was staged.
    fn check_link(&self, src_shard: usize, dst_shard: usize) -> Result<(), ClusterError> {
        let Some(inj) = &self.fault else {
            return Ok(());
        };
        if let Some(fault) = inj.link_fault_at(self.telemetry.now()) {
            return Err(ClusterError::LinkFault {
                src_shard,
                dst_shard,
                kind: match fault {
                    LinkFault::Drop => LinkFaultKind::Dropped,
                    LinkFault::Corrupt => LinkFaultKind::Corrupted,
                },
            });
        }
        Ok(())
    }

    fn cross_transfer(&self, run: &[CrossingMove], request: RequestId) -> Result<(), ClusterError> {
        match self.interconnect.config().staging {
            Staging::Batched => {
                let all: Vec<(u32, u32)> =
                    run.iter().flat_map(|m| m.pairs().iter().copied()).collect();
                let groups = self.interconnect.group(&self.plan, &all);
                if run.len() >= 2 {
                    // Messages a per-move staging would have sent (each
                    // member's distinct shard pairs), minus the merged
                    // transfer's. A scratch set keeps this O(pairs) — no
                    // per-member grouping allocations on the hot path.
                    let mut distinct: Vec<(usize, usize)> = Vec::new();
                    let per_move: usize = run
                        .iter()
                        .map(|m| {
                            distinct.clear();
                            for &(s, d) in m.pairs() {
                                let key = (self.plan.shard_of_warp(s), self.plan.shard_of_warp(d));
                                if !distinct.contains(&key) {
                                    distinct.push(key);
                                }
                            }
                            distinct.len()
                        })
                        .sum();
                    self.interconnect
                        .record_coalesced(run.len() as u64, (per_move - groups.len()) as u64);
                }
                for g in &groups {
                    self.check_link(g.src_shard, g.dst_shard)?;
                    let words = g.pairs.len() as u64;
                    let cycles = self.interconnect.record_burst(words);
                    self.record_burst_span(request, words, cycles);
                }
                let locs: Vec<GlobalLoc> = run
                    .iter()
                    .flat_map(|m| m.pairs().iter().map(|&(s, _)| (s, m.row_src(), m.src())))
                    .collect();
                let values = self.gather(&locs)?;
                let writes: Vec<GlobalWrite> = run
                    .iter()
                    .flat_map(|m| m.pairs().iter().map(|&(_, d)| (d, m.row_dst(), m.dst())))
                    .zip(values)
                    .map(|((d, row, reg), v)| GlobalWrite::new(d, row, reg, v))
                    .collect();
                self.scatter(&writes)
            }
            Staging::PerWord => {
                // The PR-1 path: one host round trip per crossing word pair,
                // each its own single-word message (merging saves barriers
                // here, never messages).
                if run.len() >= 2 {
                    self.interconnect.record_coalesced(run.len() as u64, 0);
                }
                for m in run {
                    for &(s, d) in m.pairs() {
                        self.check_link(self.plan.shard_of_warp(s), self.plan.shard_of_warp(d))?;
                        let cycles = self.interconnect.record_burst(1);
                        self.record_burst_span(request, 1, cycles);
                        let value = self.gather(&[(s, m.row_src(), m.src())])?[0];
                        self.scatter(&[GlobalWrite::new(d, m.row_dst(), m.dst(), value)])?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Reads many global `(warp, row, register)` locations, one shard job
    /// per involved shard, all in flight concurrently. Results come back in
    /// input order.
    ///
    /// # Errors
    ///
    /// Returns addressing or shard errors.
    pub fn gather(&self, locs: &[GlobalLoc]) -> Result<Vec<u32>, ClusterError> {
        self.submit_gather(locs)?.wait()
    }

    /// Submits the per-shard read jobs of a gather *without waiting*; the
    /// returned [`GatherTicket`] reassembles values in input order when
    /// waited or awaited.
    ///
    /// # Errors
    ///
    /// Returns addressing or shard errors (on submission failure nothing is
    /// partially observable — reads have no side effects).
    pub fn submit_gather(&self, locs: &[GlobalLoc]) -> Result<GatherTicket, ClusterError> {
        let mut per: Vec<(Vec<usize>, Vec<Instruction>)> = (0..self.shards())
            .map(|_| (Vec::new(), Vec::new()))
            .collect();
        for (i, &(warp, row, reg)) in locs.iter().enumerate() {
            let shard = self.plan.shard_of_warp(warp);
            if shard >= self.shards() {
                return Err(ClusterError::ShardIndex {
                    shard,
                    shards: self.shards(),
                });
            }
            per[shard].0.push(i);
            per[shard].1.push(Instruction::Read {
                reg,
                warp: self.plan.local_warp(warp),
                row,
            });
        }
        let mut parts = Vec::new();
        for (shard, (indices, instrs)) in per.into_iter().enumerate() {
            if !instrs.is_empty() {
                parts.push((indices, self.submit(shard, instrs)?));
            }
        }
        Ok(GatherTicket {
            parts,
            out: vec![0u32; locs.len()],
            failed: None,
        })
    }

    /// Writes many [`GlobalWrite`] cells, one shard job per involved shard,
    /// all in flight concurrently.
    ///
    /// # Errors
    ///
    /// Returns addressing or shard errors.
    pub fn scatter(&self, writes: &[GlobalWrite]) -> Result<(), ClusterError> {
        self.submit_scatter(writes)?.wait()
    }

    /// Submits the per-shard write jobs of a scatter *without waiting*.
    ///
    /// # Errors
    ///
    /// Returns addressing or shard errors.
    pub fn submit_scatter(&self, writes: &[GlobalWrite]) -> Result<JobSet, ClusterError> {
        let mut per: Vec<Vec<Instruction>> = vec![Vec::new(); self.shards()];
        for w in writes {
            let shard = self.plan.shard_of_warp(w.warp);
            if shard >= self.shards() {
                return Err(ClusterError::ShardIndex {
                    shard,
                    shards: self.shards(),
                });
            }
            per[shard].push(Instruction::Write {
                reg: w.reg,
                value: w.value,
                target: pim_isa::ThreadRange::single(self.plan.local_warp(w.warp), w.row),
            });
        }
        let mut tickets = Vec::new();
        for (shard, instrs) in per.into_iter().enumerate() {
            if !instrs.is_empty() {
                tickets.push(self.submit(shard, instrs)?);
            }
        }
        Ok(JobSet::new(tickets))
    }

    /// Gathers float words from `locs` and folds them on the host — the
    /// cross-shard combining step of a sharded reduction.
    ///
    /// # Errors
    ///
    /// Fails for an empty location list or on gather errors.
    pub fn reduce_f32(&self, locs: &[GlobalLoc], op: Combine) -> Result<f32, ClusterError> {
        let bits = self.gather(locs)?;
        fold_f32(op, bits.into_iter().map(f32::from_bits)).ok_or_else(|| ClusterError::Protocol {
            reason: "reduction over an empty location set".into(),
        })
    }

    /// Gathers int words from `locs` and folds them on the host.
    ///
    /// # Errors
    ///
    /// See [`reduce_f32`](PimCluster::reduce_f32).
    pub fn reduce_i32(&self, locs: &[GlobalLoc], op: Combine) -> Result<i32, ClusterError> {
        let bits = self.gather(locs)?;
        fold_i32(op, bits.into_iter().map(|b| b as i32)).ok_or_else(|| ClusterError::Protocol {
            reason: "reduction over an empty location set".into(),
        })
    }

    /// Executes a batch of raw micro-operations on one shard through the
    /// backend's [`pim_arch::Backend::execute_batch`] — the multi-chip
    /// equivalent of direct micro-operation access. Subject to the same
    /// protocol: batches must not contain reads.
    ///
    /// # Errors
    ///
    /// Returns shard and protocol errors.
    pub fn execute_micro_batch(&self, shard: usize, ops: Vec<MicroOp>) -> Result<(), ClusterError> {
        let (reply, rx) = channel();
        self.send(shard, Job::Micro { ops, reply })?;
        // A dropped reply sender means the worker died with the job queued
        // or in flight — typed and transient, never a panic.
        rx.recv()
            .unwrap_or(Err(ClusterError::WorkerCrashed { shard }))
    }

    fn control<R: Send + 'static>(
        &self,
        make: impl Fn(Sender<R>) -> Job,
    ) -> Result<Vec<R>, ClusterError> {
        let mut rxs = Vec::with_capacity(self.shards());
        for shard in 0..self.shards() {
            let (reply, rx) = channel();
            self.send(shard, make(reply))?;
            rxs.push((shard, rx));
        }
        rxs.into_iter()
            .map(|(shard, rx)| rx.recv().map_err(|_| ClusterError::WorkerCrashed { shard }))
            .collect()
    }

    /// Snapshots per-shard telemetry (profiler, issued cycles, routine-cache
    /// hit/miss counters).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a worker died.
    pub fn stats(&self) -> Result<ClusterStats, ClusterError> {
        let mut shards = self.control(|reply| Job::Stats { reply })?;
        shards.sort_by_key(|s| s.shard);
        Ok(ClusterStats {
            shards,
            traffic: self.interconnect.traffic(),
            worker_restarts: self.worker_restarts(),
            replayed_instructions: self.replayed_instructions(),
        })
    }

    /// Resets every shard simulator's profiling counters, along with the
    /// interconnect's traffic counters and every shard driver's
    /// routine-cache hit/miss telemetry (chip cycles, link cycles, and
    /// cache hit rates bound the same measurement region; compiled
    /// routines themselves are kept).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a worker died.
    pub fn reset_profilers(&self) -> Result<(), ClusterError> {
        self.interconnect.reset();
        self.control(|reply| Job::ResetProfiler { reply })
            .map(|_| ())
    }

    /// Resets every shard driver's issued-cycle counters.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a worker died.
    pub fn reset_issued(&self) -> Result<(), ClusterError> {
        self.control(|reply| Job::ResetIssued { reply }).map(|_| ())
    }

    /// Enables/disables strict stateful-logic checking on every shard.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a worker died.
    pub fn set_strict(&self, strict: bool) -> Result<(), ClusterError> {
        self.control(|reply| Job::SetStrict { strict, reply })
            .map(|_| ())
    }
}

impl Drop for PimCluster {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops; then reap the threads.
        for w in &mut self.workers {
            w.get_mut().unwrap_or_else(|e| e.into_inner()).tx = None;
        }
        for w in &mut self.workers {
            if let Some(h) = w.get_mut().unwrap_or_else(|e| e.into_inner()).handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Spawns one shard worker thread over `driver`, returning its job
/// channel and join handle. Used both at construction and by the
/// supervisor when it respawns a crashed worker.
fn spawn_worker(
    shard: usize,
    driver: Driver<AnyBackend>,
    telemetry: &Telemetry,
    journal: Option<Arc<Mutex<ShardJournal>>>,
    fault: Option<Arc<FaultInjector>>,
    recovery: RecoveryConfig,
) -> (Sender<Job>, JoinHandle<()>) {
    let track = telemetry.track(&format!("shard-{shard}"));
    let (tx, rx) = channel();
    let handle = std::thread::Builder::new()
        .name(format!("pim-shard-{shard}"))
        .spawn(move || run_worker(shard, driver, rx, track, journal, fault, recovery))
        .expect("spawn shard worker");
    (tx, handle)
}

/// Consults the fault injector before an executable job. An injected
/// crash makes the worker exit without executing (the job's completion
/// drop guard delivers [`ClusterError::WorkerCrashed`], exactly as a real
/// worker death would); a stall charges modeled cycles before execution.
/// Returns `true` when the worker must die.
fn injected_crash(
    fault: &Option<Arc<FaultInjector>>,
    shard: usize,
    driver: &mut Driver<AnyBackend>,
) -> bool {
    match fault.as_ref().and_then(|f| f.worker_fault(shard)) {
        Some(WorkerFault::Crash) => true,
        Some(WorkerFault::Stall { cycles }) => {
            driver.backend_mut().stall(cycles);
            false
        }
        None => false,
    }
}

#[allow(clippy::needless_pass_by_value)]
fn run_worker(
    shard: usize,
    mut driver: Driver<AnyBackend>,
    rx: Receiver<Job>,
    track: TrackHandle,
    journal: Option<Arc<Mutex<ShardJournal>>>,
    fault: Option<Arc<FaultInjector>>,
    recovery: RecoveryConfig,
) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Macro { segments, reply } => {
                // Fault hook: an injected crash drops `reply` (and every
                // queued job behind it) on the floor — behaviorally
                // identical to the worker thread panicking here. The
                // channel closes *before* the reply guard delivers the
                // error, so a client that retries the instant it sees
                // `WorkerCrashed` hits the send-failure (revive) path
                // deterministically instead of racing a half-dead queue.
                if injected_crash(&fault, shard, &mut driver) {
                    drop(rx);
                    return;
                }
                let mut out = Vec::with_capacity(segments.iter().map(|(_, i)| i.len()).sum());
                let mut failure = None;
                'segments: for (request, instrs) in &segments {
                    // The shard's own profiler cycle counter is this
                    // track's timeline; snapshot it around the segment so
                    // the span (and its attribution) covers exactly the
                    // cycles this request's instructions consumed. Gated
                    // on one relaxed load when telemetry is disabled.
                    let recording = track.is_enabled();
                    let before = if recording {
                        driver.backend().profiler().cycles
                    } else {
                        0
                    };
                    for instr in instrs {
                        match driver.execute(instr) {
                            Ok(v) => out.push(v),
                            Err(e) => {
                                failure = Some(ClusterError::Shard { shard, source: e });
                                break 'segments;
                            }
                        }
                    }
                    if recording {
                        let after = driver.backend().profiler().cycles;
                        let delta = after.saturating_sub(before);
                        let telemetry = track.telemetry();
                        // Anchor at the later of the global clock and this
                        // shard's profiler total (see the single-chip
                        // `submit_tagged` path): equivalent to the old
                        // absolute-profiler charging until a driver jumps
                        // the clock ahead, after which execution still
                        // occupies real modeled time.
                        let start = telemetry.now().max(before);
                        track.record_complete(
                            "exec",
                            start,
                            delta,
                            *request,
                            Some(("instructions", instrs.len() as u64)),
                        );
                        telemetry.advance_clock(start + delta);
                        telemetry.attribute(
                            *request,
                            RequestStats {
                                cycles: after.saturating_sub(before),
                                instructions: instrs.len() as u64,
                                ..RequestStats::default()
                            },
                        );
                    }
                }
                // Journal before replying: once the caller sees success,
                // the state that produced it must be recoverable.
                if let Some(journal) = &journal {
                    let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
                    if failure.is_none() {
                        for (_, instrs) in segments {
                            if !instrs.is_empty() {
                                j.logged_instrs += instrs.len();
                                j.log.push(JournalEntry::Instrs(instrs));
                            }
                        }
                        j.maybe_checkpoint(&driver, &recovery);
                    } else {
                        // The job died partway; a fresh snapshot absorbs
                        // whatever state exists instead of trying to
                        // journal a partial effect.
                        j.checkpoint(&driver);
                    }
                }
                reply.complete(match failure {
                    None => Ok(out),
                    Some(e) => Err(e),
                });
            }
            Job::Micro { ops, reply } => {
                if injected_crash(&fault, shard, &mut driver) {
                    drop(rx);
                    return;
                }
                let result =
                    driver
                        .backend_mut()
                        .execute_batch(&ops)
                        .map_err(|e| ClusterError::Shard {
                            shard,
                            source: DriverError::from(e),
                        });
                // Raw micro-operations may have changed the stored masks
                // behind the driver's mask-elision cache.
                driver.invalidate_masks();
                if let Some(journal) = &journal {
                    // A failed micro batch rolled back completely
                    // (`execute_batch` is transactional), so only
                    // successes are journaled.
                    if result.is_ok() {
                        let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
                        j.logged_instrs += ops.len();
                        j.log.push(JournalEntry::Micro(ops));
                        j.maybe_checkpoint(&driver, &recovery);
                    }
                }
                let _ = reply.send(result);
            }
            Job::Stats { reply } => {
                let (cache_hits, cache_misses) = driver.cache_stats();
                let _ = reply.send(ShardStats {
                    shard,
                    profiler: driver.backend().profiler().clone(),
                    issued: driver.issued(),
                    cache_hits,
                    cache_misses,
                    sim_threads: driver.backend().threads(),
                });
            }
            Job::ResetProfiler { reply } => {
                driver.backend_mut().reset_profiler();
                // Hit/miss telemetry belongs to the same measurement
                // region as the chip cycle counters; serving benchmarks
                // must start from a clean slate.
                driver.reset_cache_stats();
                if let Some(journal) = &journal {
                    let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
                    j.log.push(JournalEntry::ResetProfiler);
                }
                let _ = reply.send(());
            }
            Job::ResetIssued { reply } => {
                driver.reset_issued();
                if let Some(journal) = &journal {
                    let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
                    j.log.push(JournalEntry::ResetIssued);
                }
                let _ = reply.send(());
            }
            Job::SetStrict { strict, reply } => {
                driver.backend_mut().set_strict(strict);
                if let Some(journal) = &journal {
                    let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
                    j.log.push(JournalEntry::SetStrict(strict));
                }
                let _ = reply.send(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::RangeMask;
    use pim_isa::{DType, Instruction, RegOp, ThreadRange};

    /// 4 chips x 4 crossbars x 64 rows.
    fn cluster4() -> PimCluster {
        PimCluster::new(PimConfig::small().with_crossbars(4), 4).unwrap()
    }

    #[test]
    fn flat_address_space_write_read() {
        let c = cluster4();
        assert_eq!(c.shards(), 4);
        assert_eq!(c.logical_config().crossbars, 16);
        // One location per shard.
        for (warp, value) in [(0u32, 10u32), (5, 20), (10, 30), (15, 40)] {
            c.execute(&Instruction::Write {
                reg: 1,
                value,
                target: ThreadRange::single(warp, 3),
            })
            .unwrap();
        }
        for (warp, value) in [(0u32, 10u32), (5, 20), (10, 30), (15, 40)] {
            let got = c
                .execute(&Instruction::Read {
                    reg: 1,
                    warp,
                    row: 3,
                })
                .unwrap();
            assert_eq!(got, Some(value), "warp {warp}");
        }
    }

    #[test]
    fn rtype_spans_all_shards() {
        let c = cluster4();
        let all = ThreadRange::all(c.logical_config());
        c.execute_batch(&[
            Instruction::Write {
                reg: 0,
                value: 30,
                target: all,
            },
            Instruction::Write {
                reg: 1,
                value: 12,
                target: all,
            },
            Instruction::RType {
                op: RegOp::Add,
                dtype: DType::Int32,
                dst: 2,
                srcs: [0, 1, 0],
                target: all,
            },
        ])
        .unwrap();
        for warp in [0u32, 3, 4, 9, 15] {
            let got = c
                .execute(&Instruction::Read {
                    reg: 2,
                    warp,
                    row: 63,
                })
                .unwrap();
            assert_eq!(got, Some(42), "warp {warp}");
        }
    }

    #[test]
    fn cross_shard_move_matches_gather_scatter() {
        let c = cluster4();
        // Seed distinct values in register 0, row 2 of every warp.
        let writes: Vec<GlobalWrite> = (0..16)
            .map(|w| GlobalWrite::new(w, 2, 0, 1000 + w))
            .collect();
        c.scatter(&writes).unwrap();
        // Upper half -> lower half: every pair crosses a shard boundary.
        c.execute(&Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 2,
            row_dst: 2,
            warps: RangeMask::new(8, 15, 1).unwrap(),
            dist: -8,
        })
        .unwrap();
        let locs: Vec<GlobalLoc> = (0..8).map(|w| (w, 2, 1)).collect();
        assert_eq!(
            c.gather(&locs).unwrap(),
            (0..8).map(|w| 1008 + w).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn intra_shard_move_stays_native() {
        let c = cluster4();
        c.scatter(&[GlobalWrite::new(4, 0, 0, 7777)]).unwrap();
        // Warp 4 -> warp 5: both on shard 1, no host transfer.
        c.execute(&Instruction::MoveWarps {
            src: 0,
            dst: 0,
            row_src: 0,
            row_dst: 1,
            warps: RangeMask::single(4),
            dist: 1,
        })
        .unwrap();
        assert_eq!(c.gather(&[(5, 1, 0)]).unwrap(), vec![7777]);
        // A native move executes zero reads on any chip.
        let stats = c.stats().unwrap();
        assert_eq!(
            stats
                .shards
                .iter()
                .map(|s| s.profiler.ops.read)
                .sum::<u64>(),
            1, // only the gather's read
        );
    }

    #[test]
    fn partially_crossing_move_splits_at_boundary() {
        let c = cluster4();
        // Warps {1, 2} shift by +2: warp 1 -> 3 stays on shard 0 (native
        // move), warp 2 -> 4 crosses into shard 1 (host staging).
        c.scatter(&[
            GlobalWrite::new(1, 0, 0, 111),
            GlobalWrite::new(2, 0, 0, 222),
        ])
        .unwrap();
        c.execute(&Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 0,
            row_dst: 0,
            warps: RangeMask::new(1, 2, 1).unwrap(),
            dist: 2,
        })
        .unwrap();
        // Only the crossing pair was staged through the host: one chip
        // read (the gather of warp 2), not two.
        let stats = c.stats().unwrap();
        assert_eq!(
            stats
                .shards
                .iter()
                .map(|s| s.profiler.ops.read)
                .sum::<u64>(),
            1,
            "in-shard prefix must stay a native move"
        );
        // And exactly one native move ran (on shard 0).
        assert_eq!(
            stats.shards.iter().map(|s| s.profiler.ops.mv).sum::<u64>(),
            1
        );
        assert_eq!(c.gather(&[(3, 0, 1), (4, 0, 1)]).unwrap(), vec![111, 222]);
    }

    #[test]
    fn submit_streams_concurrently() {
        let c = cluster4();
        // One pending batch per shard before any wait.
        let tickets: Vec<JobTicket> = (0..4)
            .map(|s| {
                c.submit(
                    s,
                    vec![Instruction::Write {
                        reg: 0,
                        value: s as u32,
                        target: ThreadRange::single(0, 0),
                    }],
                )
                .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let vals = c
            .gather(&[(0, 0, 0), (4, 0, 0), (8, 0, 0), (12, 0, 0)])
            .unwrap();
        assert_eq!(vals, vec![0, 1, 2, 3]);
    }

    #[test]
    fn micro_batch_rejects_reads_on_shard_path() {
        // The Backend::execute_batch protocol holds through the cluster.
        let c = cluster4();
        let err = c
            .execute_micro_batch(2, vec![MicroOp::Read { index: 0 }])
            .unwrap_err();
        assert!(
            matches!(&err, ClusterError::Shard { shard: 2, .. }),
            "unexpected error {err:?}"
        );
        // Non-read micro batches execute.
        c.execute_micro_batch(2, vec![MicroOp::Write { index: 0, value: 5 }])
            .unwrap();
    }

    #[test]
    fn batch_rejects_macro_reads() {
        let c = cluster4();
        let err = c
            .execute_batch(&[Instruction::Read {
                reg: 0,
                warp: 0,
                row: 0,
            }])
            .unwrap_err();
        assert!(matches!(err, ClusterError::Protocol { .. }));
    }

    #[test]
    fn micro_batch_does_not_poison_mask_elision() {
        // Raw micro-operations change the stored masks behind the shard
        // driver's back; the worker must invalidate the driver's
        // mask-elision cache or later macro-instructions execute under
        // stale masks.
        let c = cluster4();
        let all = ThreadRange::all(c.logical_config());
        c.execute(&Instruction::Write {
            reg: 0,
            value: 1,
            target: all,
        })
        .unwrap();
        c.execute_micro_batch(
            0,
            vec![
                MicroOp::XbMask(RangeMask::single(0)),
                MicroOp::RowMask(RangeMask::single(0)),
            ],
        )
        .unwrap();
        c.execute(&Instruction::Write {
            reg: 0,
            value: 2,
            target: all,
        })
        .unwrap();
        // Without invalidation this read returns the stale value 1.
        assert_eq!(
            c.execute(&Instruction::Read {
                reg: 0,
                warp: 3,
                row: 5
            })
            .unwrap(),
            Some(2)
        );
    }

    #[test]
    fn batch_errors_are_all_or_nothing() {
        let c = cluster4();
        let err = c
            .execute_batch(&[
                Instruction::Write {
                    reg: 0,
                    value: 7,
                    target: ThreadRange::single(0, 0),
                },
                Instruction::Read {
                    reg: 0,
                    warp: 0,
                    row: 0,
                },
            ])
            .unwrap_err();
        assert!(matches!(err, ClusterError::Protocol { .. }));
        // The write preceding the rejected read must not have run.
        assert_eq!(c.gather(&[(0, 0, 0)]).unwrap(), vec![0]);
    }

    #[test]
    fn stats_aggregate_cache_and_cycles() {
        let c = cluster4();
        let all = ThreadRange::all(c.logical_config());
        let add = Instruction::RType {
            op: RegOp::Add,
            dtype: DType::Int32,
            dst: 2,
            srcs: [0, 1, 0],
            target: all,
        };
        c.execute(&add).unwrap();
        c.execute(&add).unwrap();
        let stats = c.stats().unwrap();
        // The compilation map is shared: exactly one shard compiled the
        // routine; the other seven lookups across both executions hit.
        assert_eq!(stats.cache_stats(), (7, 1));
        assert!(stats.total_cycles() > 0);
        assert!(stats.critical_path_cycles() <= stats.total_cycles());
        assert_eq!(stats.merged_profiler().cycles, stats.critical_path_cycles());
        assert_eq!(
            stats.issued().total,
            stats.shards.iter().map(|s| s.issued.total).sum()
        );
        for s in &stats.shards {
            assert_eq!(s.sim_threads, 1, "shard sims must be pinned to 1 thread");
        }
    }

    #[test]
    fn reset_profilers_clears_cache_telemetry() {
        let c = cluster4();
        let all = ThreadRange::all(c.logical_config());
        let add = Instruction::RType {
            op: RegOp::Add,
            dtype: DType::Int32,
            dst: 2,
            srcs: [0, 1, 0],
            target: all,
        };
        c.execute(&add).unwrap();
        assert_ne!(c.stats().unwrap().cache_stats(), (0, 0));
        c.reset_profilers().unwrap();
        assert_eq!(
            c.stats().unwrap().cache_stats(),
            (0, 0),
            "hit/miss telemetry must reset with the profilers"
        );
        // The compiled-routine map survives: re-running the same routine
        // hits on every shard, zero misses.
        c.execute(&add).unwrap();
        assert_eq!(c.stats().unwrap().cache_stats(), (c.shards() as u64, 0));
    }

    #[test]
    fn routine_compiles_once_per_cluster() {
        // The shard drivers share one compilation map: for every distinct
        // routine key the cluster records exactly one miss (the compiling
        // shard), and every other shard that runs the routine hits.
        let c = cluster4();
        let all = ThreadRange::all(c.logical_config());
        let ops = [
            (RegOp::Add, 2u8),
            (RegOp::Sub, 3),
            (RegOp::And, 4),
            (RegOp::Or, 5),
        ];
        for (op, dst) in ops {
            c.execute(&Instruction::RType {
                op,
                dtype: DType::Int32,
                dst,
                srcs: [0, 1, 0],
                target: all,
            })
            .unwrap();
        }
        let stats = c.stats().unwrap();
        let (hits, misses) = stats.cache_stats();
        assert_eq!(
            misses,
            ops.len() as u64,
            "one compile per routine key cluster-wide"
        );
        assert_eq!(hits, (c.shards() as u64 - 1) * ops.len() as u64);
        // Per-shard telemetry survives sharing: every shard ran every
        // routine, so its own hit+miss count is the number of routines.
        for s in &stats.shards {
            assert_eq!(
                s.cache_hits + s.cache_misses,
                ops.len() as u64,
                "shard {}",
                s.shard
            );
        }
    }

    #[test]
    fn reduce_combines_across_shards() {
        let c = cluster4();
        let writes: Vec<GlobalWrite> = (0..16u32)
            .map(|w| GlobalWrite::new(w, 0, 0, (w as f32 + 1.0).to_bits()))
            .collect();
        c.scatter(&writes).unwrap();
        let locs: Vec<GlobalLoc> = (0..16u32).map(|w| (w, 0, 0)).collect();
        assert_eq!(c.reduce_f32(&locs, Combine::Sum).unwrap(), 136.0);
        assert_eq!(c.reduce_f32(&locs, Combine::Min).unwrap(), 1.0);
        assert_eq!(c.reduce_f32(&locs, Combine::Max).unwrap(), 16.0);
        let iwrites: Vec<GlobalWrite> = (0..16u32)
            .map(|w| GlobalWrite::new(w, 1, 1, w.wrapping_sub(8)))
            .collect();
        c.scatter(&iwrites).unwrap();
        let ilocs: Vec<GlobalLoc> = (0..16u32).map(|w| (w, 1, 1)).collect();
        assert_eq!(c.reduce_i32(&ilocs, Combine::Min).unwrap(), -8);
        assert_eq!(c.reduce_i32(&ilocs, Combine::Max).unwrap(), 7);
        assert_eq!(c.reduce_i32(&ilocs, Combine::Sum).unwrap(), -8);
    }

    #[test]
    fn invalid_logical_instruction_rejected() {
        let c = cluster4();
        // Warp 16 is out of the 16-warp logical space.
        let err = c
            .execute(&Instruction::Read {
                reg: 0,
                warp: 16,
                row: 0,
            })
            .unwrap_err();
        assert!(matches!(err, ClusterError::Invalid(_)));
        let err = c.submit(9, vec![]).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::ShardIndex {
                shard: 9,
                shards: 4
            }
        ));
    }

    #[test]
    fn single_shard_cluster_behaves_like_one_chip() {
        let c = PimCluster::new(PimConfig::small(), 1).unwrap();
        assert_eq!(c.logical_config(), c.shard_config());
        let all = ThreadRange::all(c.logical_config());
        c.execute(&Instruction::Write {
            reg: 3,
            value: 9,
            target: all,
        })
        .unwrap();
        assert_eq!(
            c.execute(&Instruction::Read {
                reg: 3,
                warp: 15,
                row: 63
            })
            .unwrap(),
            Some(9)
        );
    }

    #[test]
    fn cluster_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PimCluster>();
        assert_send_sync::<JobTicket>();
        assert_send_sync::<JobSet>();
        assert_send_sync::<GatherTicket>();
    }

    /// Polls a future once with a flag-setting waker, returning the result
    /// if ready plus whether the waker has fired so far.
    fn poll_once<F: Future + Unpin>(
        fut: &mut F,
        fired: &Arc<std::sync::atomic::AtomicBool>,
    ) -> Option<F::Output> {
        struct Flag(Arc<std::sync::atomic::AtomicBool>);
        impl std::task::Wake for Flag {
            fn wake(self: Arc<Self>) {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let waker = std::task::Waker::from(Arc::new(Flag(Arc::clone(fired))));
        let mut cx = Context::from_waker(&waker);
        match Pin::new(fut).poll(&mut cx) {
            Poll::Ready(out) => Some(out),
            Poll::Pending => None,
        }
    }

    #[test]
    fn ticket_future_wakes_on_completion() {
        let c = cluster4();
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut ticket = c
            .submit(
                1,
                vec![Instruction::Write {
                    reg: 0,
                    value: 77,
                    target: ThreadRange::single(0, 0),
                }],
            )
            .unwrap();
        // Poll until ready; completion must fire the registered waker
        // rather than being silently dropped (no spinning needed in real
        // executors — this loop only tolerates the race where the job
        // finishes before the first poll registers a waker).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let result = loop {
            if let Some(r) = poll_once(&mut ticket, &fired) {
                break r;
            }
            while !fired.load(std::sync::atomic::Ordering::SeqCst) {
                assert!(std::time::Instant::now() < deadline, "waker never fired");
                std::thread::yield_now();
            }
            fired.store(false, std::sync::atomic::Ordering::SeqCst);
        };
        assert_eq!(result.unwrap(), vec![None]);
        assert_eq!(c.gather(&[(4, 0, 0)]).unwrap(), vec![77]);
    }

    #[test]
    fn submit_batch_streams_local_instructions() {
        let c = cluster4();
        let all = ThreadRange::all(c.logical_config());
        let sub = c
            .submit_batch(&[
                Instruction::Write {
                    reg: 0,
                    value: 30,
                    target: all,
                },
                Instruction::Write {
                    reg: 1,
                    value: 12,
                    target: all,
                },
                Instruction::RType {
                    op: RegOp::Add,
                    dtype: DType::Int32,
                    dst: 2,
                    srcs: [0, 1, 0],
                    target: all,
                },
            ])
            .unwrap();
        assert!(matches!(sub, Submission::Tickets(_)), "all shard-local");
        sub.wait().unwrap();
        assert_eq!(c.gather(&[(0, 0, 2), (15, 63, 2)]).unwrap(), vec![42, 42]);
    }

    #[test]
    fn submit_batch_crossing_move_executes_inline() {
        let c = cluster4();
        c.scatter(&[GlobalWrite::new(8, 2, 0, 555)]).unwrap();
        let sub = c
            .submit_batch(&[Instruction::MoveWarps {
                src: 0,
                dst: 1,
                row_src: 2,
                row_dst: 2,
                warps: RangeMask::single(8),
                dist: -8,
            }])
            .unwrap();
        // Crossing moves need host staging: the submission completed
        // before returning.
        assert!(matches!(sub, Submission::Inline));
        assert_eq!(c.gather(&[(0, 2, 1)]).unwrap(), vec![555]);
    }

    #[test]
    fn submit_gather_and_scatter_roundtrip_async() {
        let c = cluster4();
        let writes: Vec<GlobalWrite> = (0..16)
            .map(|w| GlobalWrite::new(w, 1, 3, 900 + w))
            .collect();
        c.submit_scatter(&writes).unwrap().wait().unwrap();
        let locs: Vec<GlobalLoc> = (0..16).map(|w| (w, 1, 3)).collect();
        // Drive the gather ticket as a future to completion.
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut ticket = c.submit_gather(&locs).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let values = loop {
            if let Some(r) = poll_once(&mut ticket, &fired) {
                break r.unwrap();
            }
            assert!(
                std::time::Instant::now() < deadline,
                "gather never completed"
            );
            std::thread::yield_now();
        };
        assert_eq!(values, (900..916).collect::<Vec<u32>>());
    }

    /// Builds a 4-chip cluster with explicit interconnect policies.
    fn cluster4_with(staging: Staging, drain: DrainPolicy) -> PimCluster {
        PimCluster::with_interconnect(
            PimConfig::small().with_crossbars(4),
            4,
            ParallelismMode::default(),
            InterconnectConfig {
                staging,
                drain,
                ..InterconnectConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn invalid_interconnect_rejected() {
        let err = PimCluster::with_interconnect(
            PimConfig::small().with_crossbars(4),
            4,
            ParallelismMode::default(),
            InterconnectConfig {
                link_bits: 0,
                ..InterconnectConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::InvalidInterconnect { .. }));
    }

    #[test]
    fn cross_move_records_traffic() {
        let c = cluster4();
        // Warps 8..=15 -> 0..=7: 8 crossing pairs over two (src, dst) shard
        // pairs, (2,0) and (3,1).
        c.execute(&Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 0,
            row_dst: 0,
            warps: RangeMask::new(8, 15, 1).unwrap(),
            dist: -8,
        })
        .unwrap();
        let t = c.stats().unwrap().traffic;
        assert_eq!(t.messages, 2, "one burst per (src, dst) shard pair");
        assert_eq!(t.cross_words, 8);
        // Default link: 128 bits wide, latency 8 -> 8 + ceil(4*32/128) = 9
        // cycles per 4-word burst.
        assert_eq!(t.link_cycles, 2 * (8 + 1));
        assert_eq!(t.barriers, 1);
        // Nothing was queued ahead of the move, so no queues drained.
        assert_eq!(t.drained_queues, 0);
        // Counters reset with the profilers (one measurement region).
        c.reset_profilers().unwrap();
        assert_eq!(c.stats().unwrap().traffic, TrafficStats::default());
    }

    #[test]
    fn intra_shard_move_records_no_traffic() {
        let c = cluster4();
        c.execute(&Instruction::MoveWarps {
            src: 0,
            dst: 0,
            row_src: 0,
            row_dst: 1,
            warps: RangeMask::single(4),
            dist: 1,
        })
        .unwrap();
        assert_eq!(c.stats().unwrap().traffic, TrafficStats::default());
    }

    #[test]
    fn barrier_drains_only_touched_shards() {
        let c = cluster4();
        // Queue work on every shard, then cross between shards 0 and 1
        // only: exactly two queues drain. Under the global policy all four
        // (busy) queues drain.
        let all = ThreadRange::all(c.logical_config());
        let batch = [
            Instruction::Write {
                reg: 0,
                value: 3,
                target: all,
            },
            Instruction::MoveWarps {
                src: 0,
                dst: 1,
                row_src: 0,
                row_dst: 0,
                warps: RangeMask::new(2, 3, 1).unwrap(),
                dist: 2,
            },
        ];
        c.execute_batch(&batch).unwrap();
        let t = c.stats().unwrap().traffic;
        assert_eq!(t.barriers, 1);
        assert_eq!(t.drained_queues, 2, "only shards 0 and 1 are touched");

        let g = cluster4_with(Staging::Batched, DrainPolicy::Global);
        g.execute_batch(&batch).unwrap();
        let t = g.stats().unwrap().traffic;
        assert_eq!(t.barriers, 1);
        assert_eq!(t.drained_queues, 4, "global policy drains every shard");
    }

    #[test]
    fn staging_and_drain_policies_are_equivalent() {
        // The same cross-heavy batch must leave identical memory under
        // every staging x drain combination; only the traffic model
        // differs.
        let batch = |c: &PimCluster| {
            let all = ThreadRange::all(c.logical_config());
            let writes: Vec<GlobalWrite> = (0..16)
                .map(|w| GlobalWrite::new(w, 0, 0, 100 + w))
                .collect();
            c.scatter(&writes).unwrap();
            c.execute_batch(&[
                Instruction::Write {
                    reg: 1,
                    value: 5,
                    target: all,
                },
                // Shift the lower half up by 8 (every pair crosses chips).
                Instruction::MoveWarps {
                    src: 0,
                    dst: 2,
                    row_src: 0,
                    row_dst: 0,
                    warps: RangeMask::new(0, 7, 1).unwrap(),
                    dist: 8,
                },
                Instruction::RType {
                    op: RegOp::Add,
                    dtype: DType::Int32,
                    dst: 3,
                    srcs: [1, 2, 0],
                    target: ThreadRange::new(
                        RangeMask::new(8, 15, 1).unwrap(),
                        RangeMask::single(0),
                    ),
                },
            ])
            .unwrap();
            let locs: Vec<GlobalLoc> = (8..16).map(|w| (w, 0, 3)).collect();
            c.gather(&locs).unwrap()
        };
        let reference = batch(&cluster4());
        assert_eq!(reference, (0..8).map(|w| 105 + w).collect::<Vec<u32>>());
        for staging in [Staging::Batched, Staging::PerWord] {
            for drain in [DrainPolicy::Touched, DrainPolicy::Global] {
                let c = cluster4_with(staging, drain);
                assert_eq!(
                    batch(&c),
                    reference,
                    "{staging:?}/{drain:?} diverged from the default policy"
                );
            }
        }
    }

    #[test]
    fn per_word_staging_counts_one_message_per_pair() {
        let c = cluster4_with(Staging::PerWord, DrainPolicy::Touched);
        c.execute(&Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 0,
            row_dst: 0,
            warps: RangeMask::new(8, 15, 1).unwrap(),
            dist: -8,
        })
        .unwrap();
        let t = c.stats().unwrap().traffic;
        assert_eq!(t.messages, 8, "per-word staging sends one message per pair");
        assert_eq!(t.cross_words, 8);
        // Each single-word message pays the full latency: 8 x (8 + 1).
        assert_eq!(t.link_cycles, 8 * (8 + 1));
    }

    /// Builds a 4-chip cluster with an explicit coalescing policy.
    fn cluster4_coalesce(coalesce: crate::Coalesce) -> PimCluster {
        PimCluster::with_interconnect(
            PimConfig::small().with_crossbars(4),
            4,
            ParallelismMode::default(),
            InterconnectConfig {
                coalesce,
                ..InterconnectConfig::default()
            },
        )
        .unwrap()
    }

    /// The shifted() decomposition shape: one crossing `MoveWarps` per row
    /// class, all with the same distance.
    fn per_row_shift_batch(rows: u32) -> Vec<Instruction> {
        (0..rows)
            .map(|row| Instruction::MoveWarps {
                src: 0,
                dst: 1,
                row_src: row,
                row_dst: row,
                warps: RangeMask::new(8, 15, 1).unwrap(),
                dist: -8,
            })
            .collect()
    }

    #[test]
    fn coalescer_merges_consecutive_crossing_moves() {
        // Four same-distance crossing moves on distinct rows: one merged
        // run — a single barrier and one burst per (src, dst) shard pair
        // for the whole run — instead of four of each.
        let batch = per_row_shift_batch(4);
        let c = cluster4_coalesce(crate::Coalesce::On);
        c.execute_batch(&batch).unwrap();
        let t = c.stats().unwrap().traffic;
        assert_eq!(t.barriers, 1, "one barrier for the whole run");
        assert_eq!(t.messages, 2, "shard pairs (2,0) and (3,1), once each");
        assert_eq!(t.cross_words, 32);
        assert_eq!(t.runs_merged, 1);
        assert_eq!(t.moves_merged, 4);
        // Per-move staging would have sent 4 moves x 2 shard pairs.
        assert_eq!(t.bursts_saved, 4 * 2 - 2);

        let off = cluster4_coalesce(crate::Coalesce::Off);
        off.execute_batch(&batch).unwrap();
        let t = off.stats().unwrap().traffic;
        assert_eq!(t.barriers, 4, "per-move path pays one barrier per move");
        assert_eq!(t.messages, 4 * 2);
        assert_eq!(t.cross_words, 32);
        assert_eq!(t.runs_merged, 0);
        assert_eq!(t.moves_merged, 0);
        assert_eq!(t.bursts_saved, 0);
    }

    #[test]
    fn coalescing_policies_leave_identical_memory() {
        let run = |c: &PimCluster| {
            let writes: Vec<GlobalWrite> = (8..16u32)
                .flat_map(|w| (0..4u32).map(move |r| GlobalWrite::new(w, r, 0, w * 100 + r)))
                .collect();
            c.scatter(&writes).unwrap();
            c.execute_batch(&per_row_shift_batch(4)).unwrap();
            let locs: Vec<GlobalLoc> = (0..8u32)
                .flat_map(|w| (0..4u32).map(move |r| (w, r, 1)))
                .collect();
            c.gather(&locs).unwrap()
        };
        let on = run(&cluster4_coalesce(crate::Coalesce::On));
        let off = run(&cluster4_coalesce(crate::Coalesce::Off));
        assert_eq!(on, off, "coalescing must not change memory contents");
        assert_eq!(on[0], 800, "warp 8 row 0 landed on warp 0");
    }

    #[test]
    fn interleaved_non_moves_flush_the_run() {
        // work / move / work / move: the interleaved element work breaks
        // every run, so coalescing changes nothing relative to per-move
        // execution (the move_mixed bench shape must not regress).
        let all = ThreadRange::all(cluster4_coalesce(crate::Coalesce::On).logical_config());
        let batch: Vec<Instruction> = (0..2)
            .flat_map(|_| {
                [
                    Instruction::Write {
                        reg: 0,
                        value: 3,
                        target: all,
                    },
                    Instruction::MoveWarps {
                        src: 0,
                        dst: 1,
                        row_src: 0,
                        row_dst: 0,
                        warps: RangeMask::new(8, 15, 1).unwrap(),
                        dist: -8,
                    },
                ]
            })
            .collect();
        let c = cluster4_coalesce(crate::Coalesce::On);
        c.execute_batch(&batch).unwrap();
        let t = c.stats().unwrap().traffic;
        assert_eq!(t.barriers, 2, "each move still pays its own barrier");
        assert_eq!(t.runs_merged, 0, "runs of one are not merged");
        assert_eq!(t.moves_merged, 0);
    }

    #[test]
    fn global_write_loc_parity() {
        let w = GlobalWrite::new(9, 5, 2, 42);
        assert_eq!(w.loc(), (9, 5, 2));
        let c = cluster4();
        c.scatter(&[w]).unwrap();
        assert_eq!(c.gather(&[w.loc()]).unwrap(), vec![42]);
    }

    #[test]
    fn modeled_latency_includes_link_cycles() {
        let c = cluster4();
        c.execute(&Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 0,
            row_dst: 0,
            warps: RangeMask::new(8, 15, 1).unwrap(),
            dist: -8,
        })
        .unwrap();
        let stats = c.stats().unwrap();
        assert_eq!(
            stats.modeled_latency_cycles(),
            stats.critical_path_cycles() + stats.traffic.link_cycles
        );
        assert!(stats.traffic.link_cycles > 0);
    }
}
