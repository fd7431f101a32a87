//! In-memory bitonic sorting (§VI-A "Sorting"): a Batcher bitonic network
//! expressed entirely as element-parallel tensor operations plus uniform
//! shift moves, so each compare-and-swap stage costs O(1) vectored
//! instructions regardless of the tensor length.
//!
//! The classic network conditionally swaps pairs `(i, i ^ j)` with a
//! direction given by bit `k` of the index. Both conditions are *data*
//! here: an index tensor (iota) is materialized once, and the per-stage
//! masks derive from it with bitwise ops — keeping every PIM instruction
//! uniform across threads (no irregular masks needed).

use crate::movement;
use crate::reduce::ReduceOp;
use crate::tensor::Tensor;
use crate::Result;
use pim_isa::DType;

impl Tensor {
    /// Returns an ascending-sorted copy of the tensor (bitonic network,
    /// `O(log² n)` parallel stages).
    ///
    /// Float tensors sort by IEEE order; the position of NaNs is
    /// unspecified.
    ///
    /// # Errors
    ///
    /// Fails on allocation or movement errors.
    pub fn sorted(&self) -> Result<Tensor> {
        let n = self.len();
        let n2 = n.next_power_of_two();
        // Pad with the largest value (the min-reduction identity): the pad
        // sorts last, past the n elements the result keeps.
        let pad = ReduceOp::Min.pad_bits(self.dtype());
        let mut t = movement::compact_with_padding(self, n2, pad)?;
        if n2 == 1 {
            return Ok(t);
        }
        let dev = self.device().clone();
        // Index tensor, thread-aligned with t.
        let iota = {
            let it = dev.empty(n2, DType::Int32, Some(t.alloc.stripe))?;
            for i in 0..n2 {
                it.set_raw(i, i as u32)?;
            }
            it
        };
        let mut k = 2usize;
        while k <= n2 {
            // 1 where bit k of the index is clear (ascending block).
            let zk = iota
                .binary_scalar(pim_isa::RegOp::And, k as u32)?
                .zero_mask()?;
            let mut j = k / 2;
            while j >= 1 {
                let zj = iota
                    .binary_scalar(pim_isa::RegOp::And, j as u32)?
                    .zero_mask()?;
                // Partner values: above for the lower pair element, below
                // for the upper one. Out-of-range lanes are never selected.
                let up = movement::shifted(&t, j as i64)?;
                let dn = movement::shifted(&t, -(j as i64))?;
                let partner = zj.select(&up, &dn)?;
                // Keep the minimum where the pair-direction and block
                // direction agree.
                let keep_min = zk.eq_elem(&zj)?;
                let lt = t.lt(&partner)?;
                let minv = lt.select(&t, &partner)?;
                let maxv = lt.select(&partner, &t)?;
                t = keep_min.select(&minv, &maxv)?;
                j /= 2;
            }
            k *= 2;
        }
        t.slice(0, n)
    }

    /// Sorts the tensor (or view) in place, ascending.
    ///
    /// # Errors
    ///
    /// Fails on allocation or movement errors.
    pub fn sort(&mut self) -> Result<()> {
        let sorted = self.sorted()?;
        movement::copy(&sorted, self)
    }
}
