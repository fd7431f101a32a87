//! Client sessions: a [`ClusterClient`] is one caller's handle onto the
//! gateway, owning a private placement window in the device's warp space
//! and an async tensor-op vocabulary whose every step flows through the
//! gateway's admission controller.
//!
//! The op set mirrors the synchronous tensor library step for step
//! (uploads are per-element stores, elementwise ops are the same R-type
//! plans, reductions run the steps of core's one `ReducePlan`), so a request
//! served through the gateway produces **bit-identical** results to the
//! same program run synchronously — `tests/serve_contract.rs` holds the
//! stack to that.

use crate::gateway::GatewayInner;
use pim_isa::{DType, Instruction, RegOp};
use pypim_core::{
    plan_copy, CoreError, Device, PlacementHint, ReduceOp, ReducePlan, Result, Tensor,
};
use std::sync::Arc;

/// One client's session on the serving gateway.
///
/// Tensors created through the session allocate inside its private
/// placement window (including operation results and temporaries), so
/// concurrent sessions never contend for the same warp window's registers
/// — the failure mode that used to force serving front ends to bound
/// in-flight requests. Dropping the session releases the window's headroom
/// reservation; tensors created through it stay valid.
pub struct ClusterClient {
    gw: Arc<GatewayInner>,
    id: usize,
    window: PlacementHint,
    dev: Device,
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("id", &self.id)
            .field("window", &self.window)
            .finish()
    }
}

impl Drop for ClusterClient {
    fn drop(&mut self) {
        // The gateway holds the window reservation (so eviction can
        // release it early) and releases it inside `remove_session`.
        self.gw.remove_session(self.id);
    }
}

impl ClusterClient {
    pub(crate) fn new(
        gw: Arc<GatewayInner>,
        id: usize,
        window: PlacementHint,
        dev: Device,
    ) -> Self {
        ClusterClient {
            gw,
            id,
            window,
            dev,
        }
    }

    /// This session's placement window.
    pub fn window(&self) -> PlacementHint {
        self.window
    }

    /// This session's id on its gateway — the handle
    /// [`Gateway::evict_session`](crate::Gateway::evict_session) takes,
    /// and the `session` field of the typed admission errors.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The session's device handle (allocations through it land in the
    /// session window).
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Submits one non-read instruction batch through the gateway's
    /// admission controller and resolves when it has executed.
    ///
    /// # Errors
    ///
    /// Surfaces validation and shard errors (a coalescing peer's failure in
    /// the same group also surfaces here — groups share fate).
    pub async fn exec(&self, instrs: Vec<Instruction>) -> Result<()> {
        self.gw.enqueue(self.id, instrs).await
    }

    /// Like [`exec`](ClusterClient::exec), but returns the gateway's
    /// [`ExecFuture`](crate::ExecFuture) directly: an owned future with no
    /// borrow of this handle. Admission happens *now* (the batch is queued
    /// before this returns); only polling pumps it through the device.
    /// This is the handle open-loop load generators keep in their
    /// in-flight tables — many may be outstanding per session, executing
    /// in admission (FIFO) order.
    pub fn submit(&self, instrs: Vec<Instruction>) -> crate::ExecFuture {
        self.gw.enqueue(self.id, instrs)
    }

    /// Like [`exec`](ClusterClient::exec), with a per-batch deadline of
    /// `deadline_cycles` modeled cycles from admission (overriding
    /// [`ServeConfig::deadline_cycles`](crate::ServeConfig); `0` disables
    /// the deadline for this batch). A batch still queued — or finishing —
    /// past its deadline resolves with
    /// [`CoreError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// As [`exec`](ClusterClient::exec), plus
    /// [`CoreError::DeadlineExceeded`], [`CoreError::Overloaded`] (full
    /// session queue), and [`CoreError::Evicted`] (session evicted under
    /// memory pressure).
    pub async fn exec_with_deadline(
        &self,
        instrs: Vec<Instruction>,
        deadline_cycles: u64,
    ) -> Result<()> {
        self.gw
            .enqueue_with_deadline(self.id, instrs, Some(deadline_cycles))
            .await
    }

    /// Reads raw words at `(warp, row, register)` locations, in order.
    /// Reads bypass coalescing (they end a request's pipeline) but still
    /// stream asynchronously.
    ///
    /// # Errors
    ///
    /// Surfaces addressing and shard errors.
    pub async fn read_locs(&self, locs: &[(u32, u32, u8)]) -> Result<Vec<u32>> {
        self.gw.dev.submit_reads(locs)?.await
    }

    /// Uploads a float slice into a fresh session tensor.
    ///
    /// # Errors
    ///
    /// Fails on allocation or execution errors.
    pub async fn upload_f32(&self, data: &[f32]) -> Result<Tensor> {
        let t = self.dev.uninit(data.len(), DType::Float32)?;
        self.exec(t.plan_store(data.iter().map(|v| v.to_bits())))
            .await?;
        Ok(t)
    }

    /// Uploads an int slice into a fresh session tensor.
    ///
    /// # Errors
    ///
    /// Fails on allocation or execution errors.
    pub async fn upload_i32(&self, data: &[i32]) -> Result<Tensor> {
        let t = self.dev.uninit(data.len(), DType::Int32)?;
        self.exec(t.plan_store(data.iter().map(|v| *v as u32)))
            .await?;
        Ok(t)
    }

    /// A session tensor of `n` copies of `value` (float32).
    ///
    /// # Errors
    ///
    /// Fails on allocation or execution errors.
    pub async fn full_f32(&self, n: usize, value: f32) -> Result<Tensor> {
        let t = self.dev.uninit(n, DType::Float32)?;
        self.exec(t.plan_fill(value.to_bits())).await?;
        Ok(t)
    }

    /// A session tensor of `n` copies of `value` (int32).
    ///
    /// # Errors
    ///
    /// Fails on allocation or execution errors.
    pub async fn full_i32(&self, n: usize, value: i32) -> Result<Tensor> {
        let t = self.dev.uninit(n, DType::Int32)?;
        self.exec(t.plan_fill(value as u32)).await?;
        Ok(t)
    }

    /// Copies `src` into `dst` (same length, any layouts): the planned move
    /// fast paths when one exists, a read-modify-write fallback otherwise —
    /// value-identical to the synchronous [`pypim_core::copy`].
    ///
    /// # Errors
    ///
    /// Fails on shape/device mismatches or execution errors.
    pub async fn copy(&self, src: &Tensor, dst: &Tensor) -> Result<()> {
        match plan_copy(src, dst)? {
            Some(plan) => self.exec(plan).await,
            None => {
                let values = self.read_locs(&src.element_locs()).await?;
                self.exec(dst.plan_store(values)).await
            }
        }
    }

    /// Element-parallel binary operation; a misaligned right-hand side is
    /// first copied next to the left one (the library's alignment
    /// fallback, run through the gateway).
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches or execution errors.
    pub async fn binary(&self, op: RegOp, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        let (out, instrs) = match lhs.plan_binary(op, rhs) {
            Ok(planned) => planned,
            Err(CoreError::Misaligned { .. }) => {
                let aligned = lhs.empty_aligned(rhs.dtype())?;
                self.copy(rhs, &aligned).await?;
                lhs.plan_binary(op, &aligned)?
            }
            Err(e) => return Err(e),
        };
        self.exec(instrs).await?;
        Ok(out)
    }

    /// Element-parallel unary operation.
    ///
    /// # Errors
    ///
    /// Fails on allocation or execution errors.
    pub async fn unary(&self, op: RegOp, t: &Tensor) -> Result<Tensor> {
        let (out, instrs) = t.plan_unary(op)?;
        self.exec(instrs).await?;
        Ok(out)
    }

    /// `lhs + rhs`.
    ///
    /// # Errors
    ///
    /// See [`binary`](ClusterClient::binary).
    pub async fn add(&self, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Add, lhs, rhs).await
    }

    /// `lhs * rhs`.
    ///
    /// # Errors
    ///
    /// See [`binary`](ClusterClient::binary).
    pub async fn mul(&self, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Mul, lhs, rhs).await
    }

    /// Logarithmic-time reduction with `op` (`Add` or `Mul`): core's
    /// [`ReducePlan`], the plan behind the synchronous
    /// [`Tensor::reduce_raw`], with one awaited submission per step, so
    /// the combine order (and therefore every float rounding) is
    /// identical. A step whose copy has no move plan runs around a
    /// read-and-store copy instead.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DTypeMismatch`] for other operations; fails on
    /// allocation, movement, or execution errors.
    pub async fn reduce_raw(&self, t: &Tensor, op: RegOp) -> Result<u32> {
        let mut plan = ReducePlan::new(t, ReduceOp::from_alu(op)?)?.holding_padded();
        while let Some(step) = plan.next_step()? {
            if let Some(batch) = step.batch() {
                self.exec(batch).await?;
                continue;
            }
            if !step.before.is_empty() {
                self.exec(step.before.clone()).await?;
            }
            self.copy(&step.src, &step.dst).await?;
            if !step.after.is_empty() {
                self.exec(step.after.clone()).await?;
            }
        }
        Ok(self.read_locs(&plan.result().element_locs()).await?[0])
    }

    /// Sum of all elements (float32).
    ///
    /// # Errors
    ///
    /// Fails for non-float tensors or on reduction errors.
    pub async fn sum_f32(&self, t: &Tensor) -> Result<f32> {
        t.expect_dtype(DType::Float32)?;
        Ok(f32::from_bits(self.reduce_raw(t, RegOp::Add).await?))
    }

    /// Sum of all elements (int32, wrapping).
    ///
    /// # Errors
    ///
    /// Fails for non-int tensors or on reduction errors.
    pub async fn sum_i32(&self, t: &Tensor) -> Result<i32> {
        t.expect_dtype(DType::Int32)?;
        Ok(self.reduce_raw(t, RegOp::Add).await? as i32)
    }

    /// Reads a whole tensor back as floats.
    ///
    /// # Errors
    ///
    /// Fails for non-float tensors or on read errors.
    pub async fn to_vec_f32(&self, t: &Tensor) -> Result<Vec<f32>> {
        t.expect_dtype(DType::Float32)?;
        let bits = self.read_locs(&t.element_locs()).await?;
        Ok(bits.into_iter().map(f32::from_bits).collect())
    }

    /// Reads a whole tensor back as ints.
    ///
    /// # Errors
    ///
    /// Fails for non-int tensors or on read errors.
    pub async fn to_vec_i32(&self, t: &Tensor) -> Result<Vec<i32>> {
        t.expect_dtype(DType::Int32)?;
        let bits = self.read_locs(&t.element_locs()).await?;
        Ok(bits.into_iter().map(|b| b as i32).collect())
    }
}
