//! Dependency-aware shard scheduling for [`PimCluster::execute_batch`].
//!
//! Instead of flushing every shard's queue at each crossing `MoveWarps`,
//! the [`BatchScheduler`] tracks dependencies per shard:
//!
//! * Shard-local instructions accumulate in per-shard *pending* queues.
//! * A crossing move *drains* only the shards it touches — the owners of
//!   its crossing source and destination warps, as reported by
//!   [`ShardPlan::route_move_warps`](crate::ShardPlan::route_move_warps) —
//!   i.e. their pending queues are submitted and every one of their
//!   in-flight jobs is awaited before the host stages the transfer.
//! * Untouched shards are *launched* instead: their pending queues are
//!   submitted without waiting, so those chips keep streaming queued work
//!   concurrently with the cross-chip transfer.
//!
//! This is safe because the H-tree move rule guarantees a `MoveWarps`'
//! source and destination warp sets are disjoint, and every shard's job
//! channel is FIFO: work racing with the transfer lives entirely on shards
//! whose warps the transfer does not read or write.

use crate::cluster::JobTicket;
use crate::{ClusterError, PimCluster};
use pim_isa::Instruction;
use pim_telemetry::RequestId;

/// Per-shard dependency tracker driving one [`PimCluster::execute_batch`]
/// call: pending (not yet submitted) instruction queues plus in-flight
/// (submitted, not yet awaited) job tickets for every shard. Carries the
/// [`RequestId`] of the batch being executed so every shard job it
/// launches attributes its modeled cycles to that request.
pub(crate) struct BatchScheduler<'c> {
    cluster: &'c PimCluster,
    request: RequestId,
    pending: Vec<Vec<Instruction>>,
    inflight: Vec<Vec<JobTicket>>,
}

impl<'c> BatchScheduler<'c> {
    pub(crate) fn new(cluster: &'c PimCluster, request: RequestId) -> Self {
        let shards = cluster.shards();
        BatchScheduler {
            cluster,
            request,
            pending: vec![Vec::new(); shards],
            inflight: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Queues one shard-local instruction; nothing is submitted yet.
    pub(crate) fn enqueue(&mut self, shard: usize, instr: Instruction) {
        self.pending[shard].push(instr);
    }

    /// Submits a shard's pending queue without waiting, so the shard
    /// streams it concurrently with whatever the host does next.
    fn launch(&mut self, shard: usize) -> Result<(), ClusterError> {
        if self.pending[shard].is_empty() {
            return Ok(());
        }
        let instrs = std::mem::take(&mut self.pending[shard]);
        let ticket = self.cluster.submit_request(shard, self.request, instrs)?;
        self.inflight[shard].push(ticket);
        Ok(())
    }

    /// Blocks until everything submitted to `shard` so far has executed.
    fn wait(&mut self, shard: usize) -> Result<(), ClusterError> {
        for ticket in std::mem::take(&mut self.inflight[shard]) {
            ticket.wait()?;
        }
        Ok(())
    }

    /// The drain rule. `touched[s]` marks shards the upcoming cross-chip
    /// transfer reads from or writes to: their queues are submitted and
    /// awaited (the transfer must observe their effects, and FIFO job
    /// channels alone cannot order the *gather* against pending work on
    /// destination-only shards). Every untouched shard is merely launched
    /// and keeps streaming during the transfer.
    pub(crate) fn barrier(&mut self, touched: &[bool]) -> Result<(), ClusterError> {
        debug_assert_eq!(touched.len(), self.pending.len());
        // Launch untouched shards first: their work overlaps the drain.
        for (shard, &t) in touched.iter().enumerate() {
            if !t {
                self.launch(shard)?;
            }
        }
        for (shard, &t) in touched.iter().enumerate() {
            if t {
                self.launch(shard)?;
            }
        }
        for (shard, &t) in touched.iter().enumerate() {
            if t {
                self.wait(shard)?;
            }
        }
        Ok(())
    }

    /// Number of shards with pending or in-flight work among `touched` —
    /// the queues a [`barrier`](BatchScheduler::barrier) on that set would
    /// actually drain (telemetry).
    pub(crate) fn busy(&self, touched: &[bool]) -> u64 {
        touched
            .iter()
            .enumerate()
            .filter(|&(s, &t)| t && !(self.pending[s].is_empty() && self.inflight[s].is_empty()))
            .count() as u64
    }

    /// Submits every pending queue and waits for all in-flight work — the
    /// end of the batch.
    pub(crate) fn finish(mut self) -> Result<(), ClusterError> {
        for shard in 0..self.pending.len() {
            self.launch(shard)?;
        }
        for shard in 0..self.pending.len() {
            self.wait(shard)?;
        }
        Ok(())
    }
}
