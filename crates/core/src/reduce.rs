//! Logarithmic-time reduction (§V-A / §VI-A "Reduction"): the tensor is
//! compacted to a power-of-two dense layout padded with the identity
//! element, then repeatedly halved — the upper half moves next to the lower
//! half (intra-warp `MoveRows` or distributed inter-warp `MoveWarps`,
//! parallel across pairs) and one element-parallel operation combines them.
//!
//! [`ReducePlan`] is the only copy of that loop. The synchronous
//! reductions here, the serving layer's stepwise reductions and its fused
//! request plans differ only in how they run its steps, so their
//! instructions, registers and float combine order cannot drift apart.

use crate::movement::{self, plan_copy};
use crate::tensor::Tensor;
use crate::{CoreError, Result};
use pim_isa::{DType, Instruction, RegOp};

/// A planned tensor and the instructions that compute it.
type Planned = (Tensor, Vec<Instruction>);

/// How a reduction combines two aligned halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum (`RegOp::Add`).
    Add,
    /// Product (`RegOp::Mul`).
    Mul,
    /// Maximum: `Gt`, then a `Mux` selecting the larger element.
    Max,
    /// Minimum: `Lt`, then a `Mux` selecting the smaller element.
    Min,
}

impl ReduceOp {
    /// The reduction of an associative ALU operation (`Add` or `Mul`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DTypeMismatch`] for every other operation.
    pub fn from_alu(op: RegOp) -> Result<ReduceOp> {
        match op {
            RegOp::Add => Ok(ReduceOp::Add),
            RegOp::Mul => Ok(ReduceOp::Mul),
            _ => Err(CoreError::DTypeMismatch {
                what: format!("reductions and scans require add or mul, got {op}"),
            }),
        }
    }

    /// The identity element for `dtype`: the raw word reductions pad with.
    pub(crate) fn pad_bits(self, dtype: DType) -> u32 {
        match (self, dtype) {
            (ReduceOp::Add, DType::Int32) => 0,
            (ReduceOp::Add, DType::Float32) => 0.0f32.to_bits(),
            (ReduceOp::Mul, DType::Int32) => 1,
            (ReduceOp::Mul, DType::Float32) => 1.0f32.to_bits(),
            (ReduceOp::Max, DType::Int32) => i32::MIN as u32,
            (ReduceOp::Max, DType::Float32) => f32::NEG_INFINITY.to_bits(),
            (ReduceOp::Min, DType::Int32) => i32::MAX as u32,
            (ReduceOp::Min, DType::Float32) => f32::INFINITY.to_bits(),
        }
    }

    /// Plans `lo op hi` over aligned halves: the result, its instructions,
    /// and the comparison mask a compare-and-select also writes.
    fn plan_combine(self, lo: &Tensor, hi: &Tensor) -> Result<(Planned, Option<Tensor>)> {
        let alu = |op| lo.plan_binary(op, hi).map(|planned| (planned, None));
        let select = |cmp| -> Result<_> {
            let (mask, mut instrs) = lo.plan_binary(cmp, hi)?;
            let (out, mux) = mask.plan_select(lo, hi)?;
            instrs.extend(mux);
            Ok(((out, instrs), Some(mask)))
        };
        match self {
            ReduceOp::Add => alu(RegOp::Add),
            ReduceOp::Mul => alu(RegOp::Mul),
            ReduceOp::Max => select(RegOp::Gt),
            ReduceOp::Min => select(RegOp::Lt),
        }
    }
}

/// One step of a [`ReducePlan`]: instructions before a copy, the copy, and
/// instructions after it. The step holds the tensors it reads and writes:
/// drop it after it has run and before planning the next step, so that
/// every driver frees (and later reuses) the same registers.
#[derive(Debug)]
pub struct ReduceStep {
    /// Runs before the copy: the compaction's pad fill.
    pub before: Vec<Instruction>,
    /// The copy's source.
    pub src: Tensor,
    /// The copy's destination.
    pub dst: Tensor,
    /// The copy's [`plan_copy`] move plan, if the layouts have one.
    moves: Option<Vec<Instruction>>,
    /// Runs after the copy: a level's combine.
    pub after: Vec<Instruction>,
    _mask: Option<Tensor>,
}

impl ReduceStep {
    /// The whole step as one batch; `None` when the copy has no move plan.
    pub fn batch(&self) -> Option<Vec<Instruction>> {
        Some([&self.before[..], self.moves.as_ref()?, &self.after].concat())
    }

    /// Runs the step as one device batch, or its instructions around an
    /// element-by-element copy.
    fn run(&self) -> Result<()> {
        let dev = self.src.device();
        if let Some(batch) = self.batch() {
            return dev.exec_batch(&batch);
        }
        dev.exec_batch(&self.before)?;
        movement::copy(&self.src, &self.dst)?;
        dev.exec_batch(&self.after)
    }
}

/// The compact-then-halve reduction of one tensor, planned a step at a
/// time: the compaction, then one step per halving level. A step allocates
/// the tensors it writes when it is planned.
#[derive(Debug)]
pub struct ReducePlan {
    op: ReduceOp,
    /// The input, until the compaction is planned.
    input: Option<Tensor>,
    /// The power-of-two tensor being halved.
    cur: Tensor,
    /// The padded tensor, if held until the plan is dropped.
    held: Option<Tensor>,
}

impl ReducePlan {
    /// Starts reducing `t` with `op`, allocating the power-of-two tensor.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn new(t: &Tensor, op: ReduceOp) -> Result<ReducePlan> {
        let cur = t.device().uninit(t.len().next_power_of_two(), t.dtype())?;
        let input = Some(t.clone());
        Ok(ReducePlan {
            op,
            input,
            cur,
            held: None,
        })
    }

    /// Keeps the padded tensor allocated until the plan is dropped; by
    /// default it frees with the first halving level. The serving
    /// reductions hold it and the synchronous one does not: each path's
    /// register assignment (and with it every routine-cache key) depends
    /// on that choice. Call it before the first step.
    pub fn holding_padded(mut self) -> ReducePlan {
        self.held = Some(self.cur.clone());
        self
    }

    /// Plans the next step, or returns `None` once one element is left.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn next_step(&mut self) -> Result<Option<ReduceStep>> {
        let n = self.cur.len();
        let (before, src, dst, after, mask) = if let Some(src) = self.input.take() {
            let fill = self.cur.plan_fill(self.op.pad_bits(src.dtype()));
            let prefix = self.cur.slice(0, src.len())?;
            (fill, src, prefix, Vec::new(), None)
        } else if n > 1 {
            let lo = self.cur.slice(0, n / 2)?;
            let hi = self.cur.slice(n / 2, n)?;
            let aligned = lo.empty_aligned(hi.dtype())?;
            let ((out, combine), mask) = self.op.plan_combine(&lo, &aligned)?;
            self.cur = out;
            (Vec::new(), hi, aligned, combine, mask)
        } else {
            return Ok(None);
        };
        let moves = plan_copy(&src, &dst)?;
        Ok(Some(ReduceStep {
            before,
            src,
            dst,
            moves,
            after,
            _mask: mask,
        }))
    }

    /// The reduced one-element tensor, once [`next_step`] returned `None`.
    ///
    /// [`next_step`]: ReducePlan::next_step
    pub fn result(&self) -> &Tensor {
        &self.cur
    }
}

impl Tensor {
    /// Runs the whole reduction with `op` and reads the result word.
    pub(crate) fn reduce_with(&self, op: ReduceOp) -> Result<u32> {
        let mut plan = ReducePlan::new(self, op)?;
        while let Some(step) = plan.next_step()? {
            step.run()?;
        }
        plan.result().get_raw(0)
    }

    /// Reduces the tensor with `op` (`Add` or `Mul`) in `O(log n)` parallel
    /// steps, returning the raw result word.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DTypeMismatch`] for other operations; fails on
    /// allocation or movement errors.
    pub fn reduce_raw(&self, op: RegOp) -> Result<u32> {
        self.reduce_with(ReduceOp::from_alu(op)?)
    }
}

/// The typed reductions: each checks the element type, then reduces with
/// its [`ReduceOp`].
macro_rules! typed_reductions {
    ($($(#[$doc:meta])* $name:ident -> $ty:ident: $op:ident, $dtype:ident;)*) => {
        impl Tensor {
            $(
                $(#[$doc])*
                ///
                /// # Errors
                ///
                /// Fails for tensors of another element type or on
                /// allocation or movement errors.
                pub fn $name(&self) -> Result<$ty> {
                    self.expect_dtype(DType::$dtype)?;
                    let bits = self.reduce_with(ReduceOp::$op)?;
                    Ok($ty::from_ne_bytes(bits.to_ne_bytes()))
                }
            )*
        }
    };
}

typed_reductions! {
    /// Sum of all elements (float32) via logarithmic reduction — Figure
    /// 12's `.sum()`.
    sum_f32 -> f32: Add, Float32;
    /// Sum of all elements (int32, wrapping).
    sum_i32 -> i32: Add, Int32;
    /// Product of all elements (float32) via logarithmic reduction.
    prod_f32 -> f32: Mul, Float32;
    /// Product of all elements (int32, wrapping).
    prod_i32 -> i32: Mul, Int32;
    /// Maximum element (float32) via logarithmic reduction.
    max_f32 -> f32: Max, Float32;
    /// Minimum element (float32) via logarithmic reduction.
    min_f32 -> f32: Min, Float32;
    /// Maximum element (int32) via logarithmic reduction.
    max_i32 -> i32: Max, Int32;
    /// Minimum element (int32) via logarithmic reduction.
    min_i32 -> i32: Min, Int32;
}

#[cfg(test)]
mod tests {
    use crate::Device;
    use pim_arch::PimConfig;

    fn dev() -> Device {
        Device::new(PimConfig::small().with_crossbars(2).with_rows(8)).unwrap()
    }

    #[test]
    fn singleton_reduction_is_the_element() {
        let d = dev();
        let t = d.from_slice_f32(&[4.25]).unwrap();
        assert_eq!(t.sum_f32().unwrap(), 4.25);
        assert_eq!(t.prod_f32().unwrap(), 4.25);
    }

    #[test]
    fn padding_uses_the_identity() {
        // Non-power-of-two product: the pad must be 1, not 0.
        let d = dev();
        let t = d.from_slice_f32(&[2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.prod_f32().unwrap(), 24.0);
        assert_eq!(t.sum_f32().unwrap(), 9.0);
    }

    #[test]
    fn dtype_checked_accessors() {
        let d = dev();
        let t = d.from_slice_i32(&[1, 2, 3]).unwrap();
        assert!(t.sum_f32().is_err());
        assert_eq!(t.sum_i32().unwrap(), 6);
        assert_eq!(t.prod_i32().unwrap(), 6);
    }

    #[test]
    fn wrapping_int_sum() {
        let d = dev();
        let t = d.from_slice_i32(&[i32::MAX, 1]).unwrap();
        assert_eq!(t.sum_i32().unwrap(), i32::MIN);
    }
}
