//! Inclusive prefix scans (cumulative sum/product) via the Hillis–Steele
//! algorithm: `log₂ n` rounds of a uniform shift plus one element-parallel
//! combine — the same shift machinery the bitonic network uses, so every
//! instruction stays uniform across threads.

use crate::movement;
use crate::reduce::ReduceOp;
use crate::tensor::Tensor;
use crate::Result;
use pim_isa::RegOp;

impl Tensor {
    /// Inclusive prefix scan with `op` (`Add` or `Mul`):
    /// `out[i] = v[0] op v[1] op … op v[i]`, combined in Hillis–Steele
    /// order (`((v[i-2d]..) op (v[i-d]..))` doubling `d` each round).
    ///
    /// # Errors
    ///
    /// Fails on unsupported operations or movement errors.
    pub fn scan(&self, op: RegOp) -> Result<Tensor> {
        let identity = ReduceOp::from_alu(op)?.pad_bits(self.dtype);
        let n = self.len();
        // Dense working copy (shifts require an unsliced layout).
        let mut t = movement::compact_with_padding(self, n, identity)?;
        let mut d = 1usize;
        while d < n {
            // prev[i] = t[i - d]; lanes below d must contribute the
            // identity, so overwrite them after the shift.
            let prev = movement::shifted(&t, -(d as i64))?;
            let head = prev.slice(0, d)?;
            head.fill_raw(identity)?;
            t = t.binary(op, &prev)?;
            d *= 2;
        }
        Ok(t)
    }

    /// Inclusive cumulative sum.
    ///
    /// # Errors
    ///
    /// See [`scan`](Tensor::scan).
    pub fn cumsum(&self) -> Result<Tensor> {
        self.scan(RegOp::Add)
    }

    /// Inclusive cumulative product.
    ///
    /// # Errors
    ///
    /// See [`scan`](Tensor::scan).
    pub fn cumprod(&self) -> Result<Tensor> {
        self.scan(RegOp::Mul)
    }
}
