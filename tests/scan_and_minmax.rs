//! General-purpose routines beyond the paper's benchmark list: prefix scans
//! (Hillis–Steele cumulative sum/product) and min/max — both element-wise
//! and as logarithmic reductions — validated against host references that
//! mirror the in-memory combine order.

use pypim::{Device, PimConfig};
use rand::{Rng, SeedableRng};

fn device() -> Device {
    Device::new(PimConfig::small().with_crossbars(4).with_rows(16)).unwrap()
}

/// Host Hillis–Steele scan (same combine order as the PIM implementation —
/// float addition is not associative).
fn hillis_steele_f32(vals: &[f32], op: impl Fn(f32, f32) -> f32, identity: f32) -> Vec<f32> {
    let n = vals.len();
    let mut t = vals.to_vec();
    let mut d = 1;
    while d < n {
        let prev: Vec<f32> = (0..n)
            .map(|i| if i >= d { t[i - d] } else { identity })
            .collect();
        t = (0..n).map(|i| op(t[i], prev[i])).collect();
        d *= 2;
    }
    t
}

#[test]
fn cumsum_int_matches() {
    let dev = device();
    let mut r = rand::rngs::StdRng::seed_from_u64(1);
    for n in [1usize, 2, 7, 16, 33, 64] {
        let vals: Vec<i32> = (0..n).map(|_| r.gen_range(-100..100)).collect();
        let t = dev.from_slice_i32(&vals).unwrap();
        let got = t.cumsum().unwrap().to_vec_i32().unwrap();
        let mut acc = 0i32;
        let expect: Vec<i32> = vals
            .iter()
            .map(|&v| {
                acc = acc.wrapping_add(v);
                acc
            })
            .collect();
        assert_eq!(got, expect, "cumsum of {n} ints");
    }
}

#[test]
fn cumsum_float_matches_hillis_steele_order() {
    let dev = device();
    let mut r = rand::rngs::StdRng::seed_from_u64(2);
    for n in [3usize, 8, 21, 48] {
        let vals: Vec<f32> = (0..n).map(|_| r.gen_range(-10.0f32..10.0)).collect();
        let t = dev.from_slice_f32(&vals).unwrap();
        let got = t.cumsum().unwrap().to_vec_f32().unwrap();
        let expect = hillis_steele_f32(&vals, |a, b| a + b, 0.0);
        for i in 0..n {
            assert_eq!(got[i].to_bits(), expect[i].to_bits(), "cumsum[{i}] of {n}");
        }
    }
}

#[test]
fn cumprod_matches() {
    let dev = device();
    let vals = vec![1.5f32, 2.0, 0.5, -3.0, 1.25, 0.0, 7.0];
    let t = dev.from_slice_f32(&vals).unwrap();
    let got = t.cumprod().unwrap().to_vec_f32().unwrap();
    let expect = hillis_steele_f32(&vals, |a, b| a * b, 1.0);
    for i in 0..vals.len() {
        assert_eq!(got[i].to_bits(), expect[i].to_bits(), "cumprod[{i}]");
    }
}

#[test]
fn cumsum_over_view() {
    let dev = device();
    let vals: Vec<i32> = (1..=16).collect();
    let t = dev.from_slice_i32(&vals).unwrap();
    let got = t.even().unwrap().cumsum().unwrap().to_vec_i32().unwrap();
    // Even-index values: 1, 3, 5, ... 15 -> prefix sums.
    assert_eq!(got, vec![1, 4, 9, 16, 25, 36, 49, 64]);
}

#[test]
fn elementwise_min_max() {
    let dev = device();
    let av = vec![1.0f32, -2.0, 5.5, 0.0, -0.0, 9.0];
    let bv = vec![2.0f32, -3.0, 5.5, -0.0, 0.0, -9.0];
    let a = dev.from_slice_f32(&av).unwrap();
    let b = dev.from_slice_f32(&bv).unwrap();
    let mx = a.max_elem(&b).unwrap().to_vec_f32().unwrap();
    let mn = a.min_elem(&b).unwrap().to_vec_f32().unwrap();
    for i in 0..av.len() {
        assert_eq!(mx[i], av[i].max(bv[i]), "max[{i}]");
        assert_eq!(mn[i], av[i].min(bv[i]), "min[{i}]");
    }
}

#[test]
fn minmax_reductions() {
    let dev = device();
    let mut r = rand::rngs::StdRng::seed_from_u64(3);
    for n in [1usize, 5, 17, 64] {
        let fv: Vec<f32> = (0..n).map(|_| r.gen_range(-1e6f32..1e6)).collect();
        let t = dev.from_slice_f32(&fv).unwrap();
        let expect_max = fv.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let expect_min = fv.iter().copied().fold(f32::INFINITY, f32::min);
        assert_eq!(t.max_f32().unwrap(), expect_max, "max of {n}");
        assert_eq!(t.min_f32().unwrap(), expect_min, "min of {n}");

        let iv: Vec<i32> = (0..n).map(|_| r.gen()).collect();
        let t = dev.from_slice_i32(&iv).unwrap();
        assert_eq!(
            t.max_i32().unwrap(),
            *iv.iter().max().unwrap(),
            "int max of {n}"
        );
        assert_eq!(
            t.min_i32().unwrap(),
            *iv.iter().min().unwrap(),
            "int min of {n}"
        );
    }
}

#[test]
fn minmax_with_extremes() {
    let dev = device();
    let vals = vec![f32::NEG_INFINITY, 3.0, f32::INFINITY, -7.5];
    let t = dev.from_slice_f32(&vals).unwrap();
    assert_eq!(t.max_f32().unwrap(), f32::INFINITY);
    assert_eq!(t.min_f32().unwrap(), f32::NEG_INFINITY);
    let t = dev.from_slice_i32(&[i32::MIN, 0, i32::MAX]).unwrap();
    assert_eq!(t.max_i32().unwrap(), i32::MAX);
    assert_eq!(t.min_i32().unwrap(), i32::MIN);
}

#[test]
fn fill_through_views() {
    let dev = device();
    let t = dev.zeros_i32(12).unwrap();
    t.slice_step(1, 12, 3).unwrap().fill_i32(7).unwrap();
    assert_eq!(
        t.to_vec_i32().unwrap(),
        vec![0, 7, 0, 0, 7, 0, 0, 7, 0, 0, 7, 0]
    );
    let f = dev.zeros_f32(4).unwrap();
    f.fill_f32(2.5).unwrap();
    assert_eq!(f.to_vec_f32().unwrap(), vec![2.5; 4]);
}

#[test]
fn scan_rejects_non_associative_ops() {
    let t = device().from_slice_i32(&[1, 2, 3]).unwrap();
    for op in [pypim::RegOp::Sub, pypim::RegOp::Gt] {
        assert!(matches!(
            t.scan(op),
            Err(pypim::CoreError::DTypeMismatch { .. })
        ));
    }
}

#[test]
fn planned_select_needs_operands_aligned_with_the_condition() {
    let dev = device();
    let cond = dev.from_slice_i32(&[1, 0, 1]).unwrap();
    let a = cond.empty_aligned(pypim::DType::Int32).unwrap();
    let b = cond.empty_aligned(pypim::DType::Int32).unwrap();
    let mut instrs = a.plan_store([10, 11, 12]);
    instrs.extend(b.plan_store([20, 21, 22]));
    let (out, select) = cond.plan_select(&a, &b).unwrap();
    instrs.extend(select);
    dev.submit_instrs(&instrs).unwrap().wait().unwrap();
    assert_eq!(out.to_vec_i32().unwrap(), vec![10, 21, 12]);
    // The same operands shifted by one element no longer line up.
    let head = |t: &pypim::Tensor| t.slice(0, 2).unwrap();
    assert!(matches!(
        head(&cond).plan_select(&a.slice(1, 3).unwrap(), &head(&b)),
        Err(pypim::CoreError::Misaligned { .. })
    ));
}
