//! Fused request pipelines: a [`RequestPlan`] accumulates the instruction
//! stream of a whole request — uploads, element-parallel ops, every level
//! of a reduction — and submits it as **one** gateway batch, collapsing a
//! request's ~2·log n admission round trips into a single submission plus
//! one read.
//!
//! This is the structural advantage the planning API buys the gateway over
//! the blocking tensor library: the blocking API must execute-and-wait per
//! op (each result might be read next), while a session that declares its
//! whole request up front lets dependent instructions ride one shard-FIFO
//! stream. Fusing preserves bit-identical semantics: the instructions and
//! their order are exactly the stepwise ones, and every data dependency in
//! a session window is same-warp (element-wise ops) or same-shard
//! (intra-window moves), which the per-shard FIFO job channels order
//! correctly. A plan that would need a chip-crossing move still works —
//! the submission falls back to inline barrier-aware execution.
//!
//! Memory discipline: planned tensors allocate at *plan* time, and stripes
//! freed during planning (a reduction's intermediate levels) may be reused
//! by later instructions of the same plan — planning order is execution
//! order. Window reservations keep other sessions off stripes inside the
//! session's window only. Once the window is full, allocations spill into
//! unreserved warps, and another spilling session can claim a stripe
//! freed there and overwrite it before this plan runs. Callers must hold
//! every tensor they planned until its results are read back (as
//! `pimbench`'s `Req::plan` does); a reduction's freed levels are safe
//! only while they lie inside the window.

use crate::ClusterClient;
use pim_isa::{DType, Instruction, RegOp};
use pypim_core::{CoreError, ReduceOp, ReducePlan, Result, Tensor};

/// An unsubmitted request pipeline on one session (see the module docs).
/// Build it with [`ClusterClient::plan`], chain ops, then
/// [`run`](RequestPlan::run) once.
///
/// Plans on one session must be run in the order they were built: a later
/// plan's allocations may recycle stripes an earlier unsubmitted plan
/// still references, which is only correct if the earlier plan's
/// instructions reach the shards first (sessions that `await` each plan
/// before building the next — the normal pattern — get this for free).
pub struct RequestPlan<'c> {
    client: &'c ClusterClient,
    instrs: Vec<Instruction>,
}

impl<'c> RequestPlan<'c> {
    pub(crate) fn new(client: &'c ClusterClient) -> Self {
        RequestPlan {
            client,
            instrs: Vec::new(),
        }
    }

    /// Instructions planned so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether nothing has been planned yet.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Plans uploading a float slice into a fresh session tensor.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn upload_f32(&mut self, data: &[f32]) -> Result<Tensor> {
        let t = self.client.device().uninit(data.len(), DType::Float32)?;
        self.instrs
            .extend(t.plan_store(data.iter().map(|v| v.to_bits())));
        Ok(t)
    }

    /// Plans uploading an int slice into a fresh session tensor.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn upload_i32(&mut self, data: &[i32]) -> Result<Tensor> {
        let t = self.client.device().uninit(data.len(), DType::Int32)?;
        self.instrs
            .extend(t.plan_store(data.iter().map(|v| *v as u32)));
        Ok(t)
    }

    /// Plans a tensor of `n` copies of `value` (float32).
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn full_f32(&mut self, n: usize, value: f32) -> Result<Tensor> {
        let t = self.client.device().uninit(n, DType::Float32)?;
        self.instrs.extend(t.plan_fill(value.to_bits()));
        Ok(t)
    }

    /// Plans a tensor of `n` copies of `value` (int32).
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn full_i32(&mut self, n: usize, value: i32) -> Result<Tensor> {
        let t = self.client.device().uninit(n, DType::Int32)?;
        self.instrs.extend(t.plan_fill(value as u32));
        Ok(t)
    }

    /// Plans an element-parallel binary operation. Operands must be
    /// thread-aligned (tensors of one session built over the same length
    /// are); use the stepwise [`ClusterClient::binary`] for layouts that
    /// need the move-based alignment fallback.
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches, misalignment, or allocation
    /// errors.
    pub fn binary(&mut self, op: RegOp, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        let (out, instrs) = lhs.plan_binary(op, rhs)?;
        self.instrs.extend(instrs);
        Ok(out)
    }

    /// Plans an element-parallel unary operation.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn unary(&mut self, op: RegOp, t: &Tensor) -> Result<Tensor> {
        let (out, instrs) = t.plan_unary(op)?;
        self.instrs.extend(instrs);
        Ok(out)
    }

    /// `lhs + rhs`.
    ///
    /// # Errors
    ///
    /// See [`binary`](RequestPlan::binary).
    pub fn add(&mut self, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Add, lhs, rhs)
    }

    /// `lhs * rhs`.
    ///
    /// # Errors
    ///
    /// See [`binary`](RequestPlan::binary).
    pub fn mul(&mut self, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Mul, lhs, rhs)
    }

    /// Plans the whole logarithmic reduction of `t` with `op` (`Add` or
    /// `Mul`), returning the one-element result tensor to read after
    /// [`run`](RequestPlan::run): the steps of core's [`ReducePlan`], so
    /// the instructions and float combine order are the stepwise ones.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DTypeMismatch`] for operations other than `Add`
    /// and `Mul`; [`CoreError::Misaligned`], planning nothing, for layouts
    /// whose alignment copies have no move plan (use the stepwise
    /// [`ClusterClient::reduce_raw`] there); plus allocation errors.
    pub fn reduce(&mut self, t: &Tensor, op: RegOp) -> Result<Tensor> {
        let no_plan = || CoreError::Misaligned {
            what: "this layout's alignment moves cannot be planned; use the \
                   stepwise reduction"
                .into(),
        };
        let mut plan = ReducePlan::new(t, ReduceOp::from_alu(op)?)?.holding_padded();
        let mut instrs = Vec::new();
        // Each step is dropped once planned: its level's stripes free now,
        // and later allocations may recycle them — safe inside the session
        // window, not in warps spilled outside it (see the module docs).
        while let Some(step) = plan.next_step()? {
            instrs.extend(step.batch().ok_or_else(no_plan)?);
        }
        self.instrs.extend(instrs);
        Ok(plan.result().clone())
    }

    /// Submits the whole plan as one gateway batch and resolves when it
    /// has executed. Read results afterwards with
    /// [`ClusterClient::to_vec_f32`] / [`read_locs`](ClusterClient::read_locs).
    ///
    /// # Errors
    ///
    /// Surfaces validation and shard errors.
    pub async fn run(self) -> Result<()> {
        self.client.exec(self.instrs).await
    }

    /// Finishes the plan *without* submitting, returning the fused
    /// instruction batch. Load generators build a plan once per request
    /// shape and replay clones of the batch through
    /// [`ClusterClient::submit`]; the tensors planned into it must outlive
    /// every replay (replays write the same stripes, in admission order).
    pub fn into_instrs(self) -> Vec<Instruction> {
        self.instrs
    }
}

impl ClusterClient {
    /// Starts a fused request pipeline (see [`RequestPlan`]).
    pub fn plan(&self) -> RequestPlan<'_> {
        RequestPlan::new(self)
    }
}
