//! The `tests/reduction.py` analog (§VI-A "Reduction"): logarithmic-time
//! summation and multiplication reductions over random tensors, including
//! sizes that are not powers of two, views, and multi-warp tensors — all
//! validated against a host-side reference applying the *same* pairwise
//! tree (float arithmetic is not associative, so the oracle mirrors the
//! reduction order).

use pypim::{Device, PimConfig};
use rand::{Rng, SeedableRng};

fn device() -> Device {
    Device::new(PimConfig::small().with_crossbars(8).with_rows(16)).unwrap()
}

/// Host reference: the same padded pairwise halving the PIM reduction uses.
fn tree_reduce_f32(vals: &[f32], identity: f32, op: impl Fn(f32, f32) -> f32) -> f32 {
    let mut t: Vec<f32> = vals.to_vec();
    t.resize(vals.len().next_power_of_two(), identity);
    while t.len() > 1 {
        let half = t.len() / 2;
        t = (0..half).map(|i| op(t[i], t[i + half])).collect();
    }
    t[0]
}

fn tree_reduce_i32(vals: &[i32], identity: i32, op: impl Fn(i32, i32) -> i32) -> i32 {
    let mut t: Vec<i32> = vals.to_vec();
    t.resize(vals.len().next_power_of_two(), identity);
    while t.len() > 1 {
        let half = t.len() / 2;
        t = (0..half).map(|i| op(t[i], t[i + half])).collect();
    }
    t[0]
}

#[test]
fn float_sum_various_sizes() {
    let dev = device();
    let mut r = rand::rngs::StdRng::seed_from_u64(42);
    for n in [1usize, 2, 3, 7, 16, 33, 100, 128] {
        let vals: Vec<f32> = (0..n).map(|_| r.gen_range(-100.0f32..100.0)).collect();
        let t = dev.from_slice_f32(&vals).unwrap();
        let got = t.sum_f32().unwrap();
        let expect = tree_reduce_f32(&vals, 0.0, |a, b| a + b);
        assert_eq!(got.to_bits(), expect.to_bits(), "sum of {n} elements");
    }
}

#[test]
fn float_product_various_sizes() {
    let dev = device();
    let mut r = rand::rngs::StdRng::seed_from_u64(43);
    for n in [2usize, 5, 16, 31, 64] {
        let vals: Vec<f32> = (0..n).map(|_| r.gen_range(0.8f32..1.2)).collect();
        let t = dev.from_slice_f32(&vals).unwrap();
        let got = t.prod_f32().unwrap();
        let expect = tree_reduce_f32(&vals, 1.0, |a, b| a * b);
        assert_eq!(got.to_bits(), expect.to_bits(), "product of {n} elements");
    }
}

#[test]
fn int_sum_and_product() {
    let dev = device();
    let mut r = rand::rngs::StdRng::seed_from_u64(44);
    for n in [1usize, 4, 10, 64, 100] {
        let vals: Vec<i32> = (0..n).map(|_| r.gen_range(-1000..1000)).collect();
        let t = dev.from_slice_i32(&vals).unwrap();
        assert_eq!(
            t.sum_i32().unwrap(),
            tree_reduce_i32(&vals, 0, |a, b| a.wrapping_add(b)),
            "int sum of {n}"
        );
        assert_eq!(
            t.prod_i32().unwrap(),
            tree_reduce_i32(&vals, 1, |a, b| a.wrapping_mul(b)),
            "int product of {n}"
        );
    }
}

#[test]
fn reduction_over_views() {
    // Figure 12's z[::2].sum(): reduce a strided view.
    let dev = device();
    let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
    let t = dev.from_slice_f32(&vals).unwrap();
    let evens = t.even().unwrap();
    let got = evens.sum_f32().unwrap();
    let expect: f32 = {
        let ev: Vec<f32> = vals.iter().copied().step_by(2).collect();
        tree_reduce_f32(&ev, 0.0, |a, b| a + b)
    };
    assert_eq!(got, expect);
    // Odd view.
    let odds = t.odd().unwrap();
    let expect_odd = {
        let ov: Vec<f32> = vals.iter().copied().skip(1).step_by(2).collect();
        tree_reduce_f32(&ov, 0.0, |a, b| a + b)
    };
    assert_eq!(odds.sum_f32().unwrap(), expect_odd);
    // Sub-range view.
    let mid = t.slice(10, 30).unwrap();
    let expect_mid = tree_reduce_f32(&vals[10..30], 0.0, |a, b| a + b);
    assert_eq!(mid.sum_f32().unwrap(), expect_mid);
}

#[test]
fn multi_warp_reduction_uses_htree() {
    // A tensor spanning all 8 warps: the first reduction levels must move
    // data between crossbars (distributed H-tree moves).
    let dev = device();
    let n = 8 * 16; // all threads
    let vals: Vec<f32> = (0..n).map(|i| (i % 17) as f32 - 8.0).collect();
    let t = dev.from_slice_f32(&vals).unwrap();
    dev.reset_counters().unwrap();
    let got = t.sum_f32().unwrap();
    let expect = tree_reduce_f32(&vals, 0.0, |a, b| a + b);
    assert_eq!(got.to_bits(), expect.to_bits());
    let p = dev.profiler().unwrap();
    assert!(
        p.ops.mv > 0,
        "multi-warp reduction must issue inter-crossbar moves"
    );
    assert!(p.move_pairs > 0);
}

#[test]
fn reduction_cycles_scale_logarithmically() {
    // Doubling the element count (within one warp's rows) adds one level:
    // cycles grow far slower than linearly.
    let dev = Device::new(PimConfig::small().with_crossbars(1).with_rows(64)).unwrap();
    let mut cycles = Vec::new();
    for n in [8usize, 16, 32, 64] {
        let vals: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let t = dev.from_slice_f32(&vals).unwrap();
        dev.reset_counters().unwrap();
        t.sum_f32().unwrap();
        cycles.push(dev.cycles().unwrap());
    }
    // 8x the elements must cost far less than 8x the cycles.
    assert!(
        cycles[3] < 4 * cycles[0],
        "log-reduction scaling violated: {cycles:?}"
    );
}

#[test]
fn partial_warp_levels_fall_back_to_element_copies() {
    // 12-row warps: the 64-element padded tensor's upper half starts
    // mid-warp, so its alignment copy has no move plan. The sync and
    // stepwise reductions fall back to element copies and must still
    // combine in the host tree's order; the fused plan refuses.
    use futures::executor::block_on;
    use pypim::{CoreError, DeviceServeExt, RegOp, ServeConfig};

    let cfg = PimConfig::small().with_crossbars(8).with_rows(12);
    let mut r = rand::rngs::StdRng::seed_from_u64(46);
    let vals: Vec<f32> = (0..40).map(|_| r.gen_range(-100.0f32..100.0)).collect();
    let sum = tree_reduce_f32(&vals, 0.0, |a, b| a + b);
    let max = tree_reduce_f32(&vals, f32::NEG_INFINITY, |a, b| if a > b { a } else { b });
    let min = tree_reduce_f32(&vals, f32::INFINITY, |a, b| if a < b { a } else { b });

    let dev = Device::new(cfg.clone()).unwrap();
    let t = dev.from_slice_f32(&vals).unwrap();
    assert_eq!(t.sum_f32().unwrap().to_bits(), sum.to_bits());
    assert_eq!(t.max_f32().unwrap().to_bits(), max.to_bits());
    assert_eq!(t.min_f32().unwrap().to_bits(), min.to_bits());

    let gateway = Device::new(cfg).unwrap().serve(ServeConfig::default());
    let client = gateway.session_with_warps(8).unwrap();
    let t = block_on(client.upload_f32(&vals)).unwrap();
    assert_eq!(
        block_on(client.sum_f32(&t)).unwrap().to_bits(),
        sum.to_bits()
    );
    let mut plan = client.plan();
    assert!(matches!(
        plan.reduce(&t, RegOp::Add),
        Err(CoreError::Misaligned { .. })
    ));
}

#[test]
fn non_associative_reductions_are_typed_errors() {
    let t = device().from_slice_i32(&[1, 2, 3]).unwrap();
    for op in [pypim::RegOp::Sub, pypim::RegOp::Div, pypim::RegOp::Gt] {
        assert!(matches!(
            t.reduce_raw(op),
            Err(pypim::CoreError::DTypeMismatch { .. })
        ));
    }
}

#[test]
fn reduce_plan_compacts_then_halves_once_per_level() {
    // 5 elements pad to 8: the compaction (one pad fill before its copy)
    // then three levels, each combining with one Gt and one Mux after its
    // copy. Run through the public step API, the plan reaches the same
    // maximum as the synchronous reduction.
    use pypim::{ReduceOp, ReducePlan};
    let dev = device();
    let t = dev.from_slice_i32(&[4, -9, 7, 1, 3]).unwrap();
    let mut plan = ReducePlan::new(&t, ReduceOp::Max).unwrap();
    let mut shape = Vec::new();
    while let Some(step) = plan.next_step().unwrap() {
        shape.push((step.before.len(), step.after.len()));
        let batch = step.batch().expect("dense layouts have move plans");
        dev.submit_instrs(&batch).unwrap().wait().unwrap();
    }
    assert_eq!(shape, vec![(1, 0), (0, 2), (0, 2), (0, 2)]);
    assert_eq!(plan.result().to_vec_i32().unwrap(), vec![7]);
    assert_eq!(t.max_i32().unwrap(), 7);
}
