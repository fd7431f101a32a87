use crate::alloc::{MemoryManager, PlacementHint, Stripe};
use crate::tensor::{AllocGuard, Tensor};
use crate::{CoreError, Result};
use parking_lot::Mutex;
use pim_arch::PimConfig;
use pim_cluster::{
    ClusterOptions, ClusterStats, GatherTicket, GlobalWrite, InterconnectConfig, JobSet,
    PimCluster, Submission, TaggedBatch,
};
use pim_driver::{Driver, ParallelismMode};
use pim_func::{AnyBackend, BackendKind};
use pim_isa::{DType, Instruction};
use pim_sim::Profiler;
use pim_telemetry::{MetricsSnapshot, MetricsSource, RequestStats, Telemetry};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

/// The execution engine behind a device: a single simulated chip driven
/// in-process, or a sharded multi-chip cluster (`pim-cluster`).
pub(crate) enum Engine {
    Single(Box<Mutex<Driver<AnyBackend>>>),
    Cluster(Box<PimCluster>),
}

pub(crate) struct DeviceInner {
    pub(crate) engine: Engine,
    pub(crate) mem: Mutex<MemoryManager>,
    pub(crate) cfg: PimConfig,
    /// The device's telemetry handle (disabled by default; shared with the
    /// cluster's shard workers when cluster-backed).
    pub(crate) telemetry: Telemetry,
}

/// An in-flight non-read instruction batch submitted through
/// [`Device::submit_instrs`]: a blocking handle ([`wait`](StepTicket::wait))
/// and a pollable [`Future`] in one. On a cluster device the per-shard jobs
/// stream concurrently and the shard workers wake the registered waker on
/// completion; on a single-chip device (and for batches containing
/// chip-crossing moves, which need host staging) execution happened inline
/// and the ticket is born ready.
#[derive(Debug)]
pub struct StepTicket(StepInner);

#[derive(Debug)]
enum StepInner {
    Done,
    Cluster(JobSet),
}

impl StepTicket {
    /// A completed submission.
    pub fn ready() -> Self {
        StepTicket(StepInner::Done)
    }

    /// Blocks until the batch completes.
    ///
    /// # Errors
    ///
    /// Returns the first shard error.
    pub fn wait(self) -> Result<()> {
        match self.0 {
            StepInner::Done => Ok(()),
            StepInner::Cluster(set) => Ok(set.wait()?),
        }
    }
}

impl Future for StepTicket {
    type Output = Result<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &mut self.get_mut().0 {
            StepInner::Done => Poll::Ready(Ok(())),
            StepInner::Cluster(set) => Pin::new(set).poll(cx).map(|r| Ok(r?)),
        }
    }
}

/// An in-flight bulk read submitted through [`Device::submit_reads`];
/// yields the values in input order. Like [`StepTicket`], both blocking and
/// pollable; single-chip devices read inline and return a ready ticket.
#[derive(Debug)]
pub struct ReadTicket(ReadInner);

#[derive(Debug)]
enum ReadInner {
    Done(Option<Vec<u32>>),
    Cluster(GatherTicket),
}

impl ReadTicket {
    /// Blocks until every read completes.
    ///
    /// # Errors
    ///
    /// Returns the first shard error.
    pub fn wait(self) -> Result<Vec<u32>> {
        match self.0 {
            ReadInner::Done(values) => Ok(values.expect("ready ticket holds its values")),
            ReadInner::Cluster(t) => Ok(t.wait()?),
        }
    }
}

impl Future for ReadTicket {
    type Output = Result<Vec<u32>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &mut self.get_mut().0 {
            ReadInner::Done(values) => {
                Poll::Ready(Ok(values.take().expect("ready ticket polled twice")))
            }
            ReadInner::Cluster(t) => Pin::new(t).poll(cx).map(|r| Ok(r?)),
        }
    }
}

/// A handle to a PIM memory: the entry point of the development library
/// (§V-A), owning the host driver, the bit-accurate simulator behind it,
/// and the dynamic memory manager.
///
/// Cloning is cheap (shared handle). Tensors keep their device alive.
///
/// # Example
///
/// ```
/// use pypim_core::Device;
/// use pim_arch::PimConfig;
///
/// # fn main() -> pypim_core::Result<()> {
/// let dev = Device::new(PimConfig::small())?;
/// let x = dev.from_slice_f32(&[1.0, 2.5, -3.0])?;
/// let y = dev.full_f32(3, 2.0)?;
/// let z = (&x * &y)?;
/// assert_eq!(z.to_vec_f32()?, vec![2.0, 5.0, -6.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
    /// Default placement window of allocations made through this handle —
    /// `None` for the plain device, set on session handles produced by
    /// [`Device::with_placement`]. Cloning a handle keeps its placement, so
    /// tensors created through a session handle allocate their temporaries
    /// in the session's window too.
    placement: Option<PlacementHint>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("config", &self.inner.cfg)
            .field("placement", &self.placement)
            .finish()
    }
}

impl Device {
    /// Creates a device simulating a PIM memory with geometry `cfg`, using
    /// the default (partition-parallel) driver mode.
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` fails validation.
    pub fn new(cfg: PimConfig) -> Result<Self> {
        Device::with_mode(cfg, ParallelismMode::default())
    }

    /// Creates a device with an explicit driver parallelism mode (and the
    /// default bit-accurate backend).
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` fails validation.
    pub fn with_mode(cfg: PimConfig, mode: ParallelismMode) -> Result<Self> {
        Device::with_backend_mode(cfg, BackendKind::default(), mode)
    }

    /// Creates a device over an explicit execution backend: the
    /// bit-accurate [`pim_sim::PimSimulator`]
    /// ([`BackendKind::BitAccurate`]) or the vectorized functional
    /// backend [`pim_func::FuncBackend`] ([`BackendKind::Functional`]).
    /// Both execute the same micro-operation streams with identical
    /// results and identical modeled-cycle accounting; the functional
    /// backend trades per-gate fidelity (strict stateful-logic checking,
    /// per-partition gate simulation) for word-level speed.
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` fails validation.
    pub fn with_backend(cfg: PimConfig, kind: BackendKind) -> Result<Self> {
        Device::with_backend_mode(cfg, kind, ParallelismMode::default())
    }

    /// Creates a device with explicit backend and driver parallelism mode.
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` fails validation.
    pub fn with_backend_mode(
        cfg: PimConfig,
        kind: BackendKind,
        mode: ParallelismMode,
    ) -> Result<Self> {
        let backend = AnyBackend::new(kind, cfg.clone()).map_err(pim_driver::DriverError::from)?;
        let driver = Driver::with_mode(backend, mode);
        Ok(Device {
            inner: Arc::new(DeviceInner {
                engine: Engine::Single(Box::new(Mutex::new(driver))),
                mem: Mutex::new(MemoryManager::new(&cfg)),
                cfg,
                telemetry: Telemetry::disabled(),
            }),
            placement: None,
        })
    }

    /// Creates a device backed by a sharded multi-chip cluster: `shards`
    /// simulated chips of geometry `cfg`, presented as one memory with
    /// `shards × cfg.crossbars` warps. Every tensor program runs unchanged
    /// — and bit-identically — on 1 or N chips; element-parallel work fans
    /// out across the shard workers concurrently.
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` fails validation or `shards` is zero.
    pub fn cluster(cfg: PimConfig, shards: usize) -> Result<Self> {
        Device::cluster_with_mode(cfg, shards, ParallelismMode::default())
    }

    /// Creates a cluster-backed device with an explicit driver parallelism
    /// mode and the default chip-to-chip interconnect model.
    ///
    /// # Errors
    ///
    /// See [`cluster`](Device::cluster).
    pub fn cluster_with_mode(cfg: PimConfig, shards: usize, mode: ParallelismMode) -> Result<Self> {
        Device::cluster_with_interconnect(cfg, shards, mode, InterconnectConfig::default())
    }

    /// Creates a cluster-backed device with explicit driver parallelism and
    /// chip-to-chip interconnect models. The interconnect's link
    /// width/latency set the modeled cycle cost of cross-chip transfers;
    /// its staging/drain policies select transfer batching and the
    /// scheduler's barrier scope (see [`pim_cluster::InterconnectConfig`]).
    /// The resulting traffic counters surface through
    /// [`Device::cluster_stats`] as [`ClusterStats::traffic`].
    ///
    /// # Errors
    ///
    /// See [`cluster`](Device::cluster); additionally fails for an unusable
    /// interconnect model (e.g. a zero-width link).
    pub fn cluster_with_interconnect(
        cfg: PimConfig,
        shards: usize,
        mode: ParallelismMode,
        icfg: InterconnectConfig,
    ) -> Result<Self> {
        Device::cluster_with_options(
            cfg,
            shards,
            ClusterOptions {
                mode,
                interconnect: icfg,
                ..ClusterOptions::default()
            },
        )
    }

    /// Creates a cluster-backed device from a full [`ClusterOptions`]
    /// bundle — the constructor that exposes crash recovery
    /// ([`pim_cluster::RecoveryConfig`]), deterministic fault injection
    /// (`ClusterOptions::fault`) and per-shard backend selection
    /// (`ClusterOptions::backends`, see
    /// [`pim_cluster::ShardBackends`]). The options' telemetry handle is
    /// replaced by the device's own (the device owns the unified
    /// modeled-clock/metrics surface).
    ///
    /// # Errors
    ///
    /// See [`cluster_with_interconnect`](Device::cluster_with_interconnect).
    pub fn cluster_with_options(
        cfg: PimConfig,
        shards: usize,
        options: ClusterOptions,
    ) -> Result<Self> {
        let telemetry = Telemetry::disabled();
        let cluster = PimCluster::with_options(
            cfg,
            shards,
            ClusterOptions {
                telemetry: telemetry.clone(),
                ..options
            },
        )?;
        let logical = cluster.logical_config().clone();
        // Thread the shard geometry into the allocator: stripes that fit
        // one chip get chip-local placement, so small tensors' operations
        // never touch the interconnect.
        let mut mem = MemoryManager::new(&logical);
        mem.set_shard_plan(Some(*cluster.plan()));
        Ok(Device {
            inner: Arc::new(DeviceInner {
                engine: Engine::Cluster(Box::new(cluster)),
                mem: Mutex::new(mem),
                cfg: logical,
                telemetry,
            }),
            placement: None,
        })
    }

    /// The device's telemetry handle: the modeled-clock trace recorder plus
    /// the metrics registry. Disabled — zero-cost and bit-identical — by
    /// default; flip on with [`Telemetry::set_enabled`]. Cluster-backed
    /// devices share the handle with their shard workers, so enabling it
    /// here starts recording per-shard execution spans and interconnect
    /// bursts.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// One unified [`MetricsSnapshot`] across every layer this device owns:
    /// the telemetry registry's instruments (e.g. the serving gateway's
    /// `serve.*` histograms) plus the simulator profiler (`sim.*`) and —
    /// when cluster-backed — the cluster and interconnect counters
    /// (`cluster.*`).
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a cluster shard worker thread has
    /// died and could not be revived (see [`Device::cluster_stats`]).
    pub fn metrics_snapshot(&self) -> Result<MetricsSnapshot> {
        let mut snap = self.inner.telemetry.metrics().snapshot();
        match &self.inner.engine {
            Engine::Single(d) => d.lock().backend().profiler().fill_metrics(&mut snap),
            Engine::Cluster(c) => {
                c.stats()?.fill_metrics(&mut snap);
                if let Some(inj) = c.fault_injector() {
                    inj.fill_metrics(&mut snap);
                }
            }
        }
        Ok(snap)
    }

    /// The device geometry (for a cluster: the aggregate geometry across
    /// all shards).
    pub fn config(&self) -> &PimConfig {
        &self.inner.cfg
    }

    /// Number of chips backing this device (1 unless built with
    /// [`Device::cluster`]).
    pub fn shards(&self) -> usize {
        match &self.inner.engine {
            Engine::Single(_) => 1,
            Engine::Cluster(c) => c.shards(),
        }
    }

    /// Per-shard telemetry when this device is cluster-backed, `None` for a
    /// single-chip device. Includes the interconnect's traffic counters
    /// ([`ClusterStats::traffic`]): cross-chip messages/words, modeled link
    /// cycles, barriers hit and shard queues drained.
    ///
    /// # Errors
    ///
    /// Returns the shard's failure ([`CoreError::Cluster`], classified by
    /// [`CoreError::class`]) if a worker thread has died and could not be
    /// revived — zeroed telemetry would silently misreport a broken
    /// cluster.
    pub fn cluster_stats(&self) -> Result<Option<ClusterStats>> {
        match &self.inner.engine {
            Engine::Single(_) => Ok(None),
            Engine::Cluster(c) => Ok(Some(c.stats()?)),
        }
    }

    /// Whether two handles refer to the same device.
    pub fn same_device(&self, other: &Device) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Reserves a warp window for one client session (see
    /// [`MemoryManager::reserve_window`]): disjoint from every other active
    /// reservation and avoided by unhinted allocations while it lasts.
    /// Pair with [`Device::with_placement`] to get a session handle whose
    /// allocations are confined to the window.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no disjoint window is left.
    pub fn reserve_placement(&self, warps: u32) -> Result<PlacementHint> {
        self.inner.mem.lock().reserve_window(warps)
    }

    /// Releases a window reservation made by
    /// [`reserve_placement`](Device::reserve_placement). Tensors allocated
    /// inside it stay valid; only the headroom claim ends.
    pub fn release_placement(&self, window: PlacementHint) {
        self.inner.mem.lock().release_window(window);
    }

    /// A handle onto the same device whose allocations prefer `window` —
    /// the per-client placement of the serving gateway. Tensors created
    /// through the returned handle (and their operation results and
    /// temporaries) allocate inside the window while it has space.
    pub fn with_placement(&self, window: PlacementHint) -> Device {
        Device {
            inner: Arc::clone(&self.inner),
            placement: Some(window),
        }
    }

    /// The placement window of this handle, if any.
    pub fn placement(&self) -> Option<PlacementHint> {
        self.placement
    }

    /// Snapshot of the simulator's profiling counters (cycles,
    /// micro-operation counts) — the paper's `pim.Profiler()` facility.
    ///
    /// For a cluster, operation/gate counters are summed across shards and
    /// `cycles` is the busiest shard (chips run concurrently, so that is
    /// the wall-clock latency); see [`Device::cluster_stats`] for the
    /// per-shard breakdown.
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a cluster shard worker thread has
    /// died and could not be revived (see [`Device::cluster_stats`]).
    pub fn profiler(&self) -> Result<Profiler> {
        match &self.inner.engine {
            Engine::Single(d) => Ok(d.lock().backend().profiler().clone()),
            Engine::Cluster(c) => Ok(c.stats()?.merged_profiler()),
        }
    }

    /// PIM cycles consumed so far.
    ///
    /// # Errors
    ///
    /// See [`profiler`](Device::profiler).
    pub fn cycles(&self) -> Result<u64> {
        Ok(self.profiler()?.cycles)
    }

    /// Resets the profiling counters, including the routine-cache hit/miss
    /// telemetry (compiled routines are kept — a fresh measurement region
    /// should not pay recompilation).
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a cluster shard worker thread has
    /// died and could not be revived.
    pub fn reset_profiler(&self) -> Result<()> {
        match &self.inner.engine {
            Engine::Single(d) => {
                let mut d = d.lock();
                d.backend_mut().reset_profiler();
                d.reset_cache_stats();
                Ok(())
            }
            Engine::Cluster(c) => Ok(c.reset_profilers()?),
        }
    }

    /// Enables/disables the backend's strict stateful-logic checking
    /// (enforced by the bit-accurate simulator; recorded but not enforced
    /// by the functional backend).
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a cluster shard worker thread has
    /// died and could not be revived.
    pub fn set_strict(&self, strict: bool) -> Result<()> {
        match &self.inner.engine {
            Engine::Single(d) => {
                d.lock().backend_mut().set_strict(strict);
                Ok(())
            }
            Engine::Cluster(c) => Ok(c.set_strict(strict)?),
        }
    }

    /// Routine-cache statistics `(hits, misses)` of the host driver (for a
    /// cluster: summed over the per-shard drivers).
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a cluster shard worker thread has
    /// died and could not be revived (see [`Device::cluster_stats`]).
    pub fn cache_stats(&self) -> Result<(u64, u64)> {
        match &self.inner.engine {
            Engine::Single(d) => Ok(d.lock().cache_stats()),
            Engine::Cluster(c) => Ok(c.stats()?.cache_stats()),
        }
    }

    /// Driver-issued cycle counters (logic vs total) — the theoretical-PIM
    /// baseline of everything executed so far (for a cluster: summed over
    /// shards).
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a cluster shard worker thread has
    /// died and could not be revived (see [`Device::cluster_stats`]).
    pub fn issued(&self) -> Result<pim_driver::IssuedCycles> {
        match &self.inner.engine {
            Engine::Single(d) => Ok(d.lock().issued()),
            Engine::Cluster(c) => Ok(c.stats()?.issued()),
        }
    }

    /// Resets both the simulator profiler and the driver's issued-cycle
    /// counters (the start of a measurement region).
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a cluster shard worker thread has
    /// died and could not be revived.
    pub fn reset_counters(&self) -> Result<()> {
        match &self.inner.engine {
            Engine::Single(d) => {
                let mut d = d.lock();
                d.backend_mut().reset_profiler();
                d.reset_cache_stats();
                d.reset_issued();
                Ok(())
            }
            Engine::Cluster(c) => {
                c.reset_profilers()?;
                c.reset_issued()?;
                Ok(())
            }
        }
    }

    /// Executes one macro-instruction on the device.
    pub(crate) fn exec(&self, instr: &Instruction) -> Result<Option<u32>> {
        match &self.inner.engine {
            Engine::Single(d) => Ok(d.lock().execute(instr)?),
            Engine::Cluster(c) => Ok(c.execute(instr)?),
        }
    }

    /// Executes a sequence of non-read macro-instructions. On a cluster the
    /// whole batch is split per shard up front and streams to all shards
    /// concurrently (one job per shard between cross-chip barriers).
    pub(crate) fn exec_batch(&self, instrs: &[Instruction]) -> Result<()> {
        match &self.inner.engine {
            Engine::Single(d) => {
                let mut d = d.lock();
                for i in instrs {
                    d.execute(i)?;
                }
                Ok(())
            }
            Engine::Cluster(c) => Ok(c.execute_batch(instrs)?),
        }
    }

    /// Reads many `(warp, row, register)` locations, returning values in
    /// input order. Cluster-backed devices gather with one concurrent job
    /// per shard.
    pub(crate) fn read_many(&self, locs: &[(u32, u32, u8)]) -> Result<Vec<u32>> {
        match &self.inner.engine {
            Engine::Single(d) => {
                let mut d = d.lock();
                locs.iter()
                    .map(|&(warp, row, reg)| {
                        Ok(d.execute(&Instruction::Read { reg, warp, row })?
                            .expect("read returns a value"))
                    })
                    .collect()
            }
            Engine::Cluster(c) => Ok(c.gather(locs)?),
        }
    }

    /// Writes many [`GlobalWrite`] cells. Cluster-backed devices scatter
    /// with one concurrent job per shard.
    pub(crate) fn write_many(&self, writes: &[GlobalWrite]) -> Result<()> {
        match &self.inner.engine {
            Engine::Single(d) => {
                let mut d = d.lock();
                for w in writes {
                    d.execute(&Instruction::Write {
                        reg: w.reg,
                        value: w.value,
                        target: pim_isa::ThreadRange::single(w.warp, w.row),
                    })?;
                }
                Ok(())
            }
            Engine::Cluster(c) => Ok(c.scatter(writes)?),
        }
    }

    /// Submits a batch of non-read macro-instructions *without waiting*,
    /// returning a [`StepTicket`] that is both a blocking handle and a
    /// pollable future — the primitive the async serving gateway coalesces
    /// client work onto. On a cluster the batch splits per shard and
    /// streams; chip-crossing moves (which need host staging barriers) and
    /// single-chip devices execute inline and return a ready ticket, with
    /// identical semantics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Protocol`] for read instructions, plus
    /// validation errors; deferred shard errors surface when the ticket is
    /// waited or awaited.
    pub fn submit_instrs(&self, instrs: &[Instruction]) -> Result<StepTicket> {
        if instrs.iter().any(|i| matches!(i, Instruction::Read { .. })) {
            return Err(CoreError::Protocol {
                reason: "read instructions cannot be submitted asynchronously \
                         (use submit_reads)"
                    .into(),
            });
        }
        match &self.inner.engine {
            Engine::Single(d) => {
                let mut d = d.lock();
                for i in instrs {
                    d.execute(i)?;
                }
                Ok(StepTicket::ready())
            }
            Engine::Cluster(c) => match c.submit_batch(instrs)? {
                Submission::Tickets(set) => Ok(StepTicket(StepInner::Cluster(set))),
                Submission::Inline => Ok(StepTicket::ready()),
            },
        }
    }

    /// Submits request-tagged instruction batches *without waiting* — the
    /// attribution-aware variant of [`submit_instrs`](Device::submit_instrs)
    /// the serving gateway coalesces client requests onto. Each
    /// [`TaggedBatch`] carries the [`RequestId`](crate::RequestId) its
    /// modeled cycles, instruction counts, cross-chip words and trace spans
    /// are attributed to; execution results are bit-identical to submitting the
    /// concatenated instructions untagged, whether or not telemetry is
    /// recording.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Protocol`] for read instructions, plus
    /// validation errors; deferred shard errors surface when the ticket is
    /// waited or awaited.
    pub fn submit_tagged(&self, batches: &[TaggedBatch]) -> Result<StepTicket> {
        if batches
            .iter()
            .flat_map(|b| b.instrs.iter())
            .any(|i| matches!(i, Instruction::Read { .. }))
        {
            return Err(CoreError::Protocol {
                reason: "read instructions cannot be submitted asynchronously \
                         (use submit_reads)"
                    .into(),
            });
        }
        match &self.inner.engine {
            Engine::Single(d) => {
                let mut d = d.lock();
                for b in batches {
                    let recording = self.inner.telemetry.is_enabled();
                    let before = if recording {
                        d.backend().profiler().cycles
                    } else {
                        0
                    };
                    for i in &b.instrs {
                        d.execute(i)?;
                    }
                    if recording {
                        let after = d.backend().profiler().cycles;
                        let delta = after.saturating_sub(before);
                        // Anchor at the later of the global clock and the
                        // profiler total: identical to charging absolute
                        // profiler cycles while the clock only ever moved
                        // through execution, but when a driver has jumped
                        // the clock ahead (open-loop load generation,
                        // retry backoff) the batch occupies `[now, now +
                        // delta)` instead of charging nothing.
                        let start = self.inner.telemetry.now().max(before);
                        let track = self.inner.telemetry.track("chip-0");
                        track.record_complete(
                            "exec",
                            start,
                            delta,
                            b.request,
                            Some(("instructions", b.instrs.len() as u64)),
                        );
                        self.inner.telemetry.advance_clock(start + delta);
                        self.inner.telemetry.attribute(
                            b.request,
                            RequestStats {
                                cycles: after.saturating_sub(before),
                                instructions: b.instrs.len() as u64,
                                ..Default::default()
                            },
                        );
                    }
                }
                Ok(StepTicket::ready())
            }
            Engine::Cluster(c) => match c.submit_batch_tagged(batches)? {
                Submission::Tickets(set) => Ok(StepTicket(StepInner::Cluster(set))),
                Submission::Inline => Ok(StepTicket::ready()),
            },
        }
    }

    /// Whether [`submit_instrs`](Device::submit_instrs) would stream this
    /// batch asynchronously (`true`) or execute it inline on the calling
    /// thread (`false`: single-chip devices always, cluster batches with
    /// chip-crossing moves). The serving gateway uses this to keep inline
    /// work off shard-worker threads.
    pub fn instrs_stream_async(&self, instrs: &[Instruction]) -> bool {
        match &self.inner.engine {
            Engine::Single(_) => false,
            Engine::Cluster(c) => c.batch_streams_async(instrs),
        }
    }

    /// Submits a bulk read of `(warp, row, register)` locations *without
    /// waiting* (see [`submit_instrs`](Device::submit_instrs)); the
    /// [`ReadTicket`] yields values in input order.
    ///
    /// # Errors
    ///
    /// Returns addressing errors; deferred shard errors surface on
    /// wait/await.
    pub fn submit_reads(&self, locs: &[(u32, u32, u8)]) -> Result<ReadTicket> {
        match &self.inner.engine {
            Engine::Single(_) => Ok(ReadTicket(ReadInner::Done(Some(self.read_many(locs)?)))),
            Engine::Cluster(c) => Ok(ReadTicket(ReadInner::Cluster(c.submit_gather(locs)?))),
        }
    }

    /// Allocates an uninitialized tensor of `capacity` elements (rounded up
    /// to whole warps), optionally thread-aligned with `near`.
    pub(crate) fn empty(
        &self,
        capacity: usize,
        dtype: DType,
        near: Option<Stripe>,
    ) -> Result<Tensor> {
        if capacity == 0 {
            return Err(CoreError::InvalidSlice {
                what: "zero-length tensor".into(),
            });
        }
        let rows = self.inner.cfg.rows;
        let warps = capacity.div_ceil(rows) as u32;
        let stripe = self.inner.mem.lock().alloc(warps, near, self.placement)?;
        Ok(Tensor::from_stripe(
            Arc::new(AllocGuard {
                stripe,
                device: self.clone(),
            }),
            dtype,
            capacity,
        ))
    }

    /// Allocates a tensor occupying exactly the warp window of `like` on a
    /// fresh register (the fallback-copy/allocation-alignment path).
    pub(crate) fn empty_like_window(
        &self,
        like: Stripe,
        dtype: DType,
        len: usize,
    ) -> Result<Tensor> {
        let stripe = self.inner.mem.lock().alloc_like(like)?;
        Ok(Tensor::from_stripe(
            Arc::new(AllocGuard {
                stripe,
                device: self.clone(),
            }),
            dtype,
            len,
        ))
    }

    /// Allocates a tensor of `n` elements with *undefined contents* —
    /// callers that plan their own initialization (the async serving path
    /// batches the fill/store instructions with the rest of a request)
    /// write every element before reading any.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free.
    pub fn uninit(&self, n: usize, dtype: DType) -> Result<Tensor> {
        self.empty(n, dtype, None)
    }

    /// A tensor of `n` zeros (float32) — `pim.zeros(n, dtype=pim.float32)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free.
    pub fn zeros_f32(&self, n: usize) -> Result<Tensor> {
        self.full_raw(n, DType::Float32, 0)
    }

    /// A tensor of `n` zeros (int32).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free.
    pub fn zeros_i32(&self, n: usize) -> Result<Tensor> {
        self.full_raw(n, DType::Int32, 0)
    }

    /// A tensor of `n` copies of `value` (float32).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free.
    pub fn full_f32(&self, n: usize, value: f32) -> Result<Tensor> {
        self.full_raw(n, DType::Float32, value.to_bits())
    }

    /// A tensor of `n` copies of `value` (int32).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free.
    pub fn full_i32(&self, n: usize, value: i32) -> Result<Tensor> {
        self.full_raw(n, DType::Int32, value as u32)
    }

    pub(crate) fn full_raw(&self, n: usize, dtype: DType, bits: u32) -> Result<Tensor> {
        let t = self.empty(n, dtype, None)?;
        t.fill_raw(bits)?;
        Ok(t)
    }

    /// A tensor initialized from a float slice — `pim.from_numpy`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free or
    /// [`CoreError::InvalidSlice`] for empty input.
    pub fn from_slice_f32(&self, data: &[f32]) -> Result<Tensor> {
        let t = self.empty(data.len(), DType::Float32, None)?;
        t.store_raw(data.iter().map(|v| v.to_bits()))?;
        Ok(t)
    }

    /// A tensor initialized from an int slice.
    ///
    /// # Errors
    ///
    /// See [`from_slice_f32`](Device::from_slice_f32).
    pub fn from_slice_i32(&self, data: &[i32]) -> Result<Tensor> {
        let t = self.empty(data.len(), DType::Int32, None)?;
        t.store_raw(data.iter().map(|v| *v as u32))?;
        Ok(t)
    }

    /// `[0, 1, 2, …, n)` as int32 — used by index-dependent algorithms
    /// (e.g. the bitonic sorting network's direction masks).
    ///
    /// # Errors
    ///
    /// See [`from_slice_f32`](Device::from_slice_f32).
    pub fn arange_i32(&self, n: usize) -> Result<Tensor> {
        let t = self.empty(n, DType::Int32, None)?;
        t.store_raw((0..n).map(|i| i as u32))?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let d = Device::new(PimConfig::small()).unwrap();
        assert_eq!(d.config().crossbars, 16);
        assert!(d.same_device(&d.clone()));
        let other = Device::new(PimConfig::small()).unwrap();
        assert!(!d.same_device(&other));

        let z = d.zeros_i32(10).unwrap();
        assert_eq!(z.to_vec_i32().unwrap(), vec![0; 10]);
        let f = d.full_f32(3, -1.5).unwrap();
        assert_eq!(f.to_vec_f32().unwrap(), vec![-1.5; 3]);
        let a = d.arange_i32(5).unwrap();
        assert_eq!(a.to_vec_i32().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_length_allocation_fails() {
        let d = Device::new(PimConfig::small()).unwrap();
        assert!(d.zeros_f32(0).is_err());
        assert!(d.from_slice_i32(&[]).is_err());
    }

    #[test]
    fn counters_reset_together() {
        let d = Device::new(PimConfig::small()).unwrap();
        let _ = d.full_i32(4, 3).unwrap();
        assert!(d.cycles().unwrap() > 0);
        d.reset_counters().unwrap();
        assert_eq!(d.cycles().unwrap(), 0);
        assert_eq!(d.issued().unwrap().total, 0);
    }

    #[test]
    fn functional_backend_matches_bit_accurate() {
        let sim = Device::new(PimConfig::small()).unwrap();
        let func = Device::with_backend(PimConfig::small(), BackendKind::Functional).unwrap();
        let data = [7, -3, 0, 1_000_000, -42];
        let (a, b) = (
            sim.from_slice_i32(&data).unwrap(),
            func.from_slice_i32(&data).unwrap(),
        );
        let (sa, sb) = ((&a + &a).unwrap(), (&b + &b).unwrap());
        assert_eq!(sa.to_vec_i32().unwrap(), sb.to_vec_i32().unwrap());
        assert_eq!(sim.cycles().unwrap(), func.cycles().unwrap());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = PimConfig::small();
        cfg.partitions = 8;
        assert!(Device::new(cfg).is_err());
    }
}
