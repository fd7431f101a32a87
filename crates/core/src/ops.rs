//! Element-parallel tensor operations: operator overloading (the Rust
//! equivalent of the library's Python `__add__`/`__mul__` bindings), the
//! comparison/miscellaneous methods, and the automatic alignment fallback
//! that copies a misaligned operand next to the other one (§V-A "Dynamic
//! Memory Management").

use crate::movement;
use crate::tensor::Tensor;
use crate::{CoreError, Result};
use pim_isa::{DType, Instruction, RegOp};
use std::ops::{Add, Div, Mul, Neg, Rem, Sub};

impl Tensor {
    fn check_shape(&self, rhs: &Tensor) -> Result<()> {
        if !self.device().same_device(rhs.device()) {
            return Err(CoreError::DeviceMismatch);
        }
        if self.len() != rhs.len() {
            return Err(CoreError::ShapeMismatch {
                lhs: self.len(),
                rhs: rhs.len(),
            });
        }
        Ok(())
    }

    fn check_binary(&self, rhs: &Tensor) -> Result<()> {
        self.check_shape(rhs)?;
        if self.dtype() != rhs.dtype() {
            return Err(CoreError::DTypeMismatch {
                what: format!("{} vs {}", self.dtype(), rhs.dtype()),
            });
        }
        Ok(())
    }

    /// Returns `rhs` if it already occupies the same threads as `self`,
    /// otherwise copies it into a fresh stripe aligned with `self` — the
    /// library's fall-back routine for misaligned operands.
    pub(crate) fn aligned_operand(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.aligned_with(rhs) {
            Ok(rhs.clone())
        } else {
            let out = self.alloc_result(rhs.dtype())?;
            movement::copy(rhs, &out)?;
            Ok(out)
        }
    }

    /// Allocates a result tensor occupying exactly the same threads as
    /// `self` (same warp window, offset, and stride, fresh register).
    pub(crate) fn alloc_result(&self, dtype: DType) -> Result<Tensor> {
        let t = self
            .device()
            .empty_like_window(self.alloc.stripe, dtype, self.len())?;
        Ok(Tensor {
            offset: self.offset,
            stride: self.stride,
            len: self.len(),
            ..t
        })
    }

    /// Allocates an *uninitialized* tensor thread-aligned with `self` (same
    /// warp window, offset, and stride, fresh register) — the public
    /// counterpart of the internal result allocation, for callers that plan
    /// and submit their own instructions (the async serving path).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when every register of the window
    /// is occupied.
    pub fn empty_aligned(&self, dtype: DType) -> Result<Tensor> {
        self.alloc_result(dtype)
    }

    /// The R-type instructions applying `op` over this view's thread
    /// ranges.
    pub(crate) fn rtype_instrs(
        &self,
        op: RegOp,
        dtype: DType,
        dst: u8,
        srcs: [u8; 3],
    ) -> Vec<Instruction> {
        self.thread_ranges()
            .into_iter()
            .map(|target| Instruction::RType {
                op,
                dtype,
                dst,
                srcs,
                target,
            })
            .collect()
    }

    /// Executes planned instructions as one batch (so sharded devices run
    /// all chips concurrently) and returns the planned result.
    fn run_planned((out, instrs): (Tensor, Vec<Instruction>)) -> Result<Tensor> {
        out.device().exec_batch(&instrs)?;
        Ok(out)
    }

    /// Plans an element-parallel binary operation without executing it:
    /// allocates the result tensor (thread-aligned with `self`) and returns
    /// it together with the instructions that compute it — the async
    /// serving path submits those itself. Unlike [`binary`](Tensor::binary),
    /// no implicit alignment copy is run: misaligned operands are an error.
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches, on misaligned operands
    /// ([`CoreError::Misaligned`]), or allocation failure.
    pub fn plan_binary(&self, op: RegOp, rhs: &Tensor) -> Result<(Tensor, Vec<Instruction>)> {
        self.check_binary(rhs)?;
        if !self.aligned_with(rhs) {
            return Err(CoreError::Misaligned {
                what: "plan_binary requires thread-aligned operands (copy the \
                       right-hand side next to the left first)"
                    .into(),
            });
        }
        let out_dtype = if op.is_comparison() {
            DType::Int32
        } else {
            self.dtype()
        };
        let out = self.alloc_result(out_dtype)?;
        let instrs = self.rtype_instrs(op, self.dtype(), out.reg(), [self.reg(), rhs.reg(), 0]);
        Ok((out, instrs))
    }

    /// Plans an element-parallel unary operation without executing it (see
    /// [`plan_binary`](Tensor::plan_binary)).
    ///
    /// # Errors
    ///
    /// Fails on allocation failure.
    pub fn plan_unary(&self, op: RegOp) -> Result<(Tensor, Vec<Instruction>)> {
        let out = self.alloc_result(self.dtype())?;
        let instrs = self.rtype_instrs(op, self.dtype(), out.reg(), [self.reg(), 0, 0]);
        Ok((out, instrs))
    }

    /// Plans an element-parallel select (see [`select`](Tensor::select))
    /// without executing it, like [`plan_binary`](Tensor::plan_binary):
    /// `a` and `b` must already be thread-aligned with the condition.
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches, on misaligned operands
    /// ([`CoreError::Misaligned`]), or allocation failure.
    pub fn plan_select(&self, a: &Tensor, b: &Tensor) -> Result<(Tensor, Vec<Instruction>)> {
        self.check_shape(a)?;
        a.check_binary(b)?;
        if !(self.aligned_with(a) && self.aligned_with(b)) {
            return Err(CoreError::Misaligned {
                what: "plan_select requires operands thread-aligned with the condition".into(),
            });
        }
        let out = self.alloc_result(a.dtype())?;
        let instrs = self.rtype_instrs(
            RegOp::Mux,
            a.dtype(),
            out.reg(),
            [self.reg(), a.reg(), b.reg()],
        );
        Ok((out, instrs))
    }

    /// Element-parallel binary operation.
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches or unsupported operations.
    pub fn binary(&self, op: RegOp, rhs: &Tensor) -> Result<Tensor> {
        self.check_binary(rhs)?;
        let rhs = self.aligned_operand(rhs)?;
        Tensor::run_planned(self.plan_binary(op, &rhs)?)
    }

    /// Element-parallel binary operation against a broadcast scalar (raw
    /// word value).
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn binary_scalar(&self, op: RegOp, bits: u32) -> Result<Tensor> {
        let scalar = self.alloc_result(self.dtype())?;
        scalar.fill_raw(bits)?;
        self.binary(op, &scalar)
    }

    /// Element-parallel unary operation.
    ///
    /// # Errors
    ///
    /// Fails on unsupported operations.
    pub fn unary(&self, op: RegOp) -> Result<Tensor> {
        Tensor::run_planned(self.plan_unary(op)?)
    }

    /// `self < rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn lt(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Lt, rhs)
    }

    /// `self <= rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn le(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Le, rhs)
    }

    /// `self > rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn gt(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Gt, rhs)
    }

    /// `self >= rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn ge(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Ge, rhs)
    }

    /// `self == rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn eq_elem(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Eq, rhs)
    }

    /// `self != rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn ne_elem(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Ne, rhs)
    }

    /// Element-wise absolute value.
    ///
    /// # Errors
    ///
    /// See [`unary`](Tensor::unary).
    pub fn abs(&self) -> Result<Tensor> {
        self.unary(RegOp::Abs)
    }

    /// Element-wise sign (−1/0/+1, or ±1.0/±0.0/NaN for floats).
    ///
    /// # Errors
    ///
    /// See [`unary`](Tensor::unary).
    pub fn sign(&self) -> Result<Tensor> {
        self.unary(RegOp::Sign)
    }

    /// Element-wise zero test (1 where zero).
    ///
    /// # Errors
    ///
    /// See [`unary`](Tensor::unary).
    pub fn zero_mask(&self) -> Result<Tensor> {
        self.unary(RegOp::Zero)
    }

    /// Bitwise complement of the raw words.
    ///
    /// # Errors
    ///
    /// See [`unary`](Tensor::unary).
    pub fn bit_not(&self) -> Result<Tensor> {
        self.unary(RegOp::Not)
    }

    /// Bitwise AND of the raw words.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn bit_and(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::And, rhs)
    }

    /// Bitwise OR of the raw words.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn bit_or(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Or, rhs)
    }

    /// Bitwise XOR of the raw words.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn bit_xor(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Xor, rhs)
    }

    /// Element-wise select: `where self != 0, a, else b`. The condition is
    /// typically a comparison result.
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches.
    pub fn select(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.check_shape(a)?;
        a.check_binary(b)?;
        let a = self.aligned_operand(a)?;
        let b = self.aligned_operand(b)?;
        Tensor::run_planned(self.plan_select(&a, &b)?)
    }

    /// Element-wise maximum of two tensors (`NaN` handling follows the
    /// comparison: a `NaN` element loses every comparison, so the other
    /// operand is selected) — one half of the bitonic network's
    /// compare-and-swap.
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches.
    pub fn max_elem(&self, rhs: &Tensor) -> Result<Tensor> {
        self.gt(rhs)?.select(self, rhs)
    }

    /// Element-wise minimum of two tensors.
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches.
    pub fn min_elem(&self, rhs: &Tensor) -> Result<Tensor> {
        self.lt(rhs)?.select(self, rhs)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl $trait for &Tensor {
            type Output = Result<Tensor>;

            fn $method(self, rhs: &Tensor) -> Result<Tensor> {
                self.binary($op, rhs)
            }
        }

        impl $trait<&Tensor> for Result<Tensor> {
            type Output = Result<Tensor>;

            fn $method(self, rhs: &Tensor) -> Result<Tensor> {
                self?.binary($op, rhs)
            }
        }

        impl $trait<Result<Tensor>> for &Tensor {
            type Output = Result<Tensor>;

            fn $method(self, rhs: Result<Tensor>) -> Result<Tensor> {
                self.binary($op, &rhs?)
            }
        }
    };
}

impl_binop!(Add, add, RegOp::Add);
impl_binop!(Sub, sub, RegOp::Sub);
impl_binop!(Mul, mul, RegOp::Mul);
impl_binop!(Div, div, RegOp::Div);
impl_binop!(Rem, rem, RegOp::Mod);

impl Neg for &Tensor {
    type Output = Result<Tensor>;

    fn neg(self) -> Result<Tensor> {
        self.unary(RegOp::Neg)
    }
}

/// Scalar right-hand sides: `&x * 2.0f32`, `&x + 1i32`.
impl Mul<f32> for &Tensor {
    type Output = Result<Tensor>;

    fn mul(self, rhs: f32) -> Result<Tensor> {
        self.expect_dtype(DType::Float32)?;
        self.binary_scalar(RegOp::Mul, rhs.to_bits())
    }
}

impl Add<f32> for &Tensor {
    type Output = Result<Tensor>;

    fn add(self, rhs: f32) -> Result<Tensor> {
        self.expect_dtype(DType::Float32)?;
        self.binary_scalar(RegOp::Add, rhs.to_bits())
    }
}

impl Sub<f32> for &Tensor {
    type Output = Result<Tensor>;

    fn sub(self, rhs: f32) -> Result<Tensor> {
        self.expect_dtype(DType::Float32)?;
        self.binary_scalar(RegOp::Sub, rhs.to_bits())
    }
}

impl Mul<i32> for &Tensor {
    type Output = Result<Tensor>;

    fn mul(self, rhs: i32) -> Result<Tensor> {
        self.expect_dtype(DType::Int32)?;
        self.binary_scalar(RegOp::Mul, rhs as u32)
    }
}

impl Add<i32> for &Tensor {
    type Output = Result<Tensor>;

    fn add(self, rhs: i32) -> Result<Tensor> {
        self.expect_dtype(DType::Int32)?;
        self.binary_scalar(RegOp::Add, rhs as u32)
    }
}

impl Sub<i32> for &Tensor {
    type Output = Result<Tensor>;

    fn sub(self, rhs: i32) -> Result<Tensor> {
        self.expect_dtype(DType::Int32)?;
        self.binary_scalar(RegOp::Sub, rhs as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;
    use pim_arch::PimConfig;

    fn dev() -> Device {
        Device::new(PimConfig::small().with_crossbars(2).with_rows(8)).unwrap()
    }

    #[test]
    fn comparison_output_is_int32() {
        let d = dev();
        let a = d.from_slice_f32(&[1.0, 5.0]).unwrap();
        let b = d.from_slice_f32(&[2.0, 2.0]).unwrap();
        let r = a.lt(&b).unwrap();
        assert_eq!(r.dtype(), DType::Int32);
        assert_eq!(r.to_vec_i32().unwrap(), vec![1, 0]);
    }

    #[test]
    fn binary_result_is_thread_aligned_with_lhs() {
        let d = dev();
        let a = d.from_slice_i32(&[1, 2, 3, 4]).unwrap();
        let view = a.slice_step(1, 4, 2).unwrap(); // elements 2, 4
        let out = (&view + &view).unwrap();
        assert!(out.aligned_with(&view));
        assert_eq!(out.to_vec_i32().unwrap(), vec![4, 8]);
    }

    #[test]
    fn aligned_operand_reuses_rhs_without_copy() {
        let d = dev();
        let a = d.from_slice_i32(&[1, 2]).unwrap();
        let b = d.from_slice_i32(&[3, 4]).unwrap();
        let aligned = a.aligned_operand(&b).unwrap();
        // Same stripe (no copy): same register.
        assert_eq!(aligned.reg(), b.reg());
    }

    #[test]
    fn same_tensor_both_operands() {
        let d = dev();
        let a = d.from_slice_i32(&[3, -4, 7]).unwrap();
        assert_eq!((&a * &a).unwrap().to_vec_i32().unwrap(), vec![9, 16, 49]);
        assert_eq!(a.bit_xor(&a).unwrap().to_vec_i32().unwrap(), vec![0, 0, 0]);
        assert_eq!(a.eq_elem(&a).unwrap().to_vec_i32().unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn result_chaining_through_operators() {
        let d = dev();
        let a = d.from_slice_i32(&[10, 20]).unwrap();
        let b = d.from_slice_i32(&[1, 2]).unwrap();
        // Result<Tensor> op &Tensor chaining.
        let out = ((&a + &b) - &b).unwrap();
        assert_eq!(out.to_vec_i32().unwrap(), vec![10, 20]);
    }

    #[test]
    fn select_requires_matching_data_dtypes() {
        let d = dev();
        let c = d.from_slice_i32(&[1, 0]).unwrap();
        let a = d.from_slice_f32(&[1.0, 2.0]).unwrap();
        let b = d.from_slice_i32(&[3, 4]).unwrap();
        assert!(c.select(&a, &b).is_err());
    }
}
