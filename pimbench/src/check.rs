//! Host references for every request's output. Each compares bit
//! patterns: the PIM float routines round like IEEE-754 single precision,
//! and the references combine in the library's order (element-wise
//! `x*y` then `+x`, then a power-of-two halving tree padded with the
//! identity), so a correct run matches exactly.

/// What one request returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A scalar float (`sum(x*y + x)`).
    Scalar(f32),
    /// A sorted float tensor and the tensor's maximum.
    Sorted(Vec<f32>, f32),
    /// An int tensor (`x + y`).
    Ints(Vec<i32>),
}

impl Output {
    /// Bit patterns, for exact comparison (`-0.0 != 0.0`, NaN == NaN).
    pub fn bits(&self) -> Vec<u32> {
        match self {
            Output::Scalar(v) => vec![v.to_bits()],
            Output::Sorted(v, m) => v.iter().chain([m]).map(|x| x.to_bits()).collect(),
            Output::Ints(v) => v.iter().map(|&x| x as u32).collect(),
        }
    }

    pub fn same_bits(&self, other: &Output) -> bool {
        self.bits() == other.bits()
    }
}

/// `sum(x*y + x)` with the library's rounding steps and combine order.
pub fn sum_xy_plus_x(x: &[f32], y: &[f32]) -> f32 {
    let mut v: Vec<f32> = x.iter().zip(y).map(|(&a, &b)| a * b + a).collect();
    v.resize(v.len().next_power_of_two(), 0.0);
    while v.len() > 1 {
        let half = v.len() / 2;
        v = (0..half).map(|i| v[i] + v[i + half]).collect();
    }
    v[0]
}

/// Ascending sort and maximum.
pub fn sorted_and_max(x: &[f32]) -> Output {
    let mut s = x.to_vec();
    s.sort_by(f32::total_cmp);
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    Output::Sorted(s, max)
}

/// Element-wise wrapping int add.
pub fn int_add(x: &[i32], y: &[i32]) -> Output {
    Output::Ints(x.iter().zip(y).map(|(a, b)| a.wrapping_add(*b)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_follow_the_library_order() {
        // Padding to 4 with zeros, then (a+c) + (b+0).
        let x = [1.0f32, 2.0, 3.0];
        let y = [1.0f32, 1.0, 1.0];
        assert_eq!(sum_xy_plus_x(&x, &y), (2.0 + 6.0) + 4.0);
        let out = sorted_and_max(&[3.0, -1.0, 2.0]);
        assert_eq!(out, Output::Sorted(vec![-1.0, 2.0, 3.0], 3.0));
        assert_eq!(int_add(&[i32::MAX], &[1]), Output::Ints(vec![i32::MIN]));
        assert!(!Output::Scalar(0.0).same_bits(&Output::Scalar(-0.0)));
    }
}
