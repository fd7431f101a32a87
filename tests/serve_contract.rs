//! The serving gateway's contract: interleaved multi-client execution
//! through `pim-serve` is **bit-identical** to serving every client
//! sequentially through the synchronous tensor API, and concurrent
//! sessions' placement stripes never alias each other's warp windows.

use futures::executor::block_on;
use futures::future::join_all;
use proptest::prelude::*;
use pypim::serve::ClusterClient;
use pypim::{Device, DeviceServeExt, PimConfig, PlacementHint, RegOp, Result, ServeConfig, Tensor};

const SHARDS: usize = 4;

/// 4 chips x 4 crossbars x 64 rows = 16 logical warps.
fn cluster_dev() -> Device {
    Device::cluster(PimConfig::small().with_crossbars(4), SHARDS).unwrap()
}

/// Request payload with values whose float sums are rounding-sensitive, so
/// any change to the reduction's combine order shows up in the bit
/// patterns.
fn payload(cid: usize, req: usize, elems: usize) -> Vec<f32> {
    (0..elems)
        .map(|i| 0.1 + (cid * 17 + req * 5 + i) as f32 * 0.3)
        .collect()
}

/// The async request program: `sum(-(x * y) + x)` over the gateway.
async fn request_async(client: &ClusterClient, values: &[f32]) -> Result<f32> {
    let x = client.upload_f32(values).await?;
    let y = client.full_f32(values.len(), 1.5).await?;
    let xy = client.mul(&x, &y).await?;
    let neg = client.unary(RegOp::Neg, &xy).await?;
    let z = client.add(&neg, &x).await?;
    client.sum_f32(&z).await
}

/// The identical program through the blocking tensor API.
fn request_sync(dev: &Device, values: &[f32]) -> Result<f32> {
    let x = dev.from_slice_f32(values)?;
    let y = dev.full_f32(values.len(), 1.5)?;
    let xy = (&x * &y)?;
    let neg = (-&xy)?;
    let z = (&neg + &x)?;
    z.sum_f32()
}

#[test]
fn interleaved_gateway_matches_sequential_sync_bitwise() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 2;
    const ELEMS: usize = 96; // 1.5 warps: exercises partial-warp ranges

    // Sequential reference: one client at a time on a fresh cluster.
    let sync_dev = cluster_dev();
    let mut reference = Vec::new();
    for cid in 0..CLIENTS {
        for req in 0..REQUESTS {
            reference.push(
                request_sync(&sync_dev, &payload(cid, req, ELEMS))
                    .unwrap()
                    .to_bits(),
            );
        }
    }

    // Interleaved: all clients in flight at once through the gateway.
    let gateway = cluster_dev().serve(ServeConfig::default());
    let clients: Vec<ClusterClient> = (0..CLIENTS)
        .map(|_| gateway.session_with_warps(4).unwrap())
        .collect();
    let outcomes: Vec<Result<Vec<u32>>> = block_on(join_all(clients.iter().enumerate().map(
        |(cid, client)| async move {
            let mut bits = Vec::new();
            for req in 0..REQUESTS {
                bits.push(
                    request_async(client, &payload(cid, req, ELEMS))
                        .await?
                        .to_bits(),
                );
            }
            Ok(bits)
        },
    )));

    let got: Vec<u32> = outcomes.into_iter().flat_map(|o| o.unwrap()).collect();
    assert_eq!(
        got, reference,
        "gateway results diverged bitwise from sequential execution"
    );
    // The run exercised actual coalescing machinery.
    assert!(gateway.stats().groups > 0);
}

/// The fused request pipeline: whole request planned up front, one
/// submission + one read.
async fn request_fused(client: &ClusterClient, values: &[f32]) -> Result<f32> {
    let mut plan = client.plan();
    let x = plan.upload_f32(values)?;
    let y = plan.full_f32(values.len(), 1.5)?;
    let xy = plan.mul(&x, &y)?;
    let neg = plan.unary(RegOp::Neg, &xy)?;
    let z = plan.add(&neg, &x)?;
    let s = plan.reduce(&z, RegOp::Add)?;
    plan.run().await?;
    Ok(client.to_vec_f32(&s).await?[0])
}

#[test]
fn fused_plans_match_sequential_sync_bitwise() {
    const CLIENTS: usize = 4;
    const ELEMS: usize = 128;

    let sync_dev = cluster_dev();
    let reference: Vec<u32> = (0..CLIENTS)
        .map(|cid| {
            request_sync(&sync_dev, &payload(cid, 0, ELEMS))
                .unwrap()
                .to_bits()
        })
        .collect();

    let gateway = cluster_dev().serve(ServeConfig::default());
    let clients: Vec<ClusterClient> = (0..CLIENTS)
        .map(|_| gateway.session_with_warps(4).unwrap())
        .collect();
    let got: Vec<u32> = block_on(join_all(clients.iter().enumerate().map(
        |(cid, client)| async move {
            request_fused(client, &payload(cid, 0, ELEMS))
                .await
                .unwrap()
                .to_bits()
        },
    )));
    assert_eq!(
        got, reference,
        "fused pipelines diverged bitwise from sequential execution"
    );
    // A whole fused request is one gateway batch plus nothing else — far
    // fewer submissions than stepwise serving.
    let stats = gateway.stats();
    assert!(stats.batches <= (CLIENTS as u64) * 2);
}

#[test]
fn gateway_int_pipeline_matches_sync() {
    let gateway = cluster_dev().serve(ServeConfig::default());
    let client = gateway.session().unwrap();
    let data: Vec<i32> = (0..64).map(|i| i * 3 - 50).collect();
    let (async_vec, async_sum) = block_on(async {
        let t = client.upload_i32(&data).await?;
        let u = client.full_i32(data.len(), 7).await?;
        let v = client.mul(&t, &u).await?;
        let w = client.add(&v, &t).await?;
        Ok::<_, pypim::CoreError>((client.to_vec_i32(&w).await?, client.sum_i32(&w).await?))
    })
    .unwrap();

    let sync_dev = cluster_dev();
    let t = sync_dev.from_slice_i32(&data).unwrap();
    let u = sync_dev.full_i32(data.len(), 7).unwrap();
    let w = ((&t * &u) + &t).unwrap();
    assert_eq!(async_vec, w.to_vec_i32().unwrap());
    assert_eq!(async_sum, w.sum_i32().unwrap());
}

#[test]
fn gateway_handles_misaligned_operands_like_sync() {
    // Views force the alignment fallback (a copy) inside the gateway; the
    // values must still match the sync path bit-for-bit.
    let gateway = cluster_dev().serve(ServeConfig::default());
    let client = gateway.session().unwrap();
    let data: Vec<f32> = (0..64).map(|i| 0.7 + i as f32 * 0.11).collect();
    let got = block_on(async {
        let t = client.upload_f32(&data).await?;
        let even = t.even()?;
        let odd = t.odd()?;
        let s = client.add(&even, &odd).await?;
        client.sum_f32(&s).await
    })
    .unwrap();

    let sync_dev = cluster_dev();
    let t = sync_dev.from_slice_f32(&data).unwrap();
    let s = (&t.even().unwrap() + &t.odd().unwrap()).unwrap();
    assert_eq!(got.to_bits(), s.sum_f32().unwrap().to_bits());
}

/// Stripes of a tensor, as a window for overlap checks.
fn stripe_window(t: &Tensor) -> PlacementHint {
    PlacementHint {
        warp_start: t.element_locs()[0].0,
        warps: 1, // start warp is enough: combined with full containment below
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent sessions' placement stripes never alias each other's
    /// warp windows: windows are pairwise disjoint, and every tensor a
    /// session allocates within its capacity stays inside its own window.
    #[test]
    fn session_stripes_never_alias_windows(
        sessions in 2usize..5,
        window_warps in 2u32..5,
        tensors_per_session in 1usize..5,
        elems_factor in 1usize..3,
    ) {
        let dev = cluster_dev(); // 16 warps, 64 rows
        let gateway = dev.serve(ServeConfig {
            session_warps: window_warps,
            ..ServeConfig::default()
        });
        let total_warps = dev.config().crossbars as u32;
        prop_assume!(window_warps * sessions as u32 <= total_warps);
        let rows = dev.config().rows;
        let clients: Vec<ClusterClient> = (0..sessions)
            .map(|_| gateway.session().unwrap())
            .collect();
        // Windows pairwise disjoint.
        for (i, a) in clients.iter().enumerate() {
            for b in clients.iter().skip(i + 1) {
                prop_assert!(
                    !a.window().overlaps(&b.window()),
                    "windows alias: {:?} vs {:?}", a.window(), b.window()
                );
            }
        }
        // In-capacity allocations stay inside their session's window (16
        // registers per window; we allocate far fewer).
        let elems = elems_factor * rows; // 1-2 warps per tensor
        let held: Vec<(usize, Tensor)> = block_on(join_all(
            clients.iter().enumerate().flat_map(|(i, client)| {
                (0..tensors_per_session).map(move |k| async move {
                    (i, client.full_f32(elems, k as f32).await.unwrap())
                })
            }),
        ));
        for (owner, t) in &held {
            let w = clients[*owner].window();
            let start = stripe_window(t).warp_start;
            let span = elems.div_ceil(rows) as u32;
            prop_assert!(
                w.contains(start, span),
                "session {owner} stripe at warp {start} (+{span}) escaped window {w:?}"
            );
            for (other, client) in clients.iter().enumerate() {
                if other != *owner {
                    prop_assert!(
                        !client.window().contains(start, 1),
                        "session {owner} stripe landed in session {other}'s window"
                    );
                }
            }
        }
    }
}

/// The result's bits, the modeled cycles `reduce` charges, and the
/// driver-issued cycles `(logic, total)` of the whole program so far.
fn charged(dev: &Device, reduce: impl FnOnce() -> Result<f32>) -> (u32, u64, u64, u64) {
    let before = dev.cycles().unwrap();
    let bits = reduce().unwrap().to_bits();
    let issued = dev.issued().unwrap();
    (
        bits,
        dev.cycles().unwrap() - before,
        issued.logic,
        issued.total,
    )
}

#[test]
fn reduction_paths_charge_identical_modeled_cycles() {
    // The whole 16×256 chip: the sync, stepwise and fused reductions run
    // the same instructions, so they charge the same modeled cycles (one
    // result read included) down to the cycle.
    let chip = || {
        Device::with_backend(
            PimConfig::small().with_crossbars(16).with_rows(256),
            pypim::BackendKind::Functional,
        )
        .unwrap()
    };
    let values = payload(1, 2, 4096);
    let pinned = |(bits, cycles, logic, total): (u32, u64, u64, u64)| {
        assert_eq!((cycles, logic, total), (78_842, 75_295, 87_050));
        bits
    };

    let dev = chip();
    let t = dev.from_slice_f32(&values).unwrap();
    let sync = pinned(charged(&dev, || t.sum_f32()));

    let dev = chip();
    let gateway = dev.serve(ServeConfig::default());
    let client = gateway.session_with_warps(16).unwrap();
    let t = block_on(client.upload_f32(&values)).unwrap();
    let stepwise = pinned(charged(&dev, || block_on(client.sum_f32(&t))));

    let dev = chip();
    let gateway = dev.serve(ServeConfig::default());
    let client = gateway.session_with_warps(16).unwrap();
    let t = block_on(client.upload_f32(&values)).unwrap();
    let fused = pinned(charged(&dev, || {
        block_on(async {
            let mut plan = client.plan();
            let s = plan.reduce(&t, RegOp::Add)?;
            plan.run().await?;
            Ok(client.to_vec_f32(&s).await?[0])
        })
    }));

    assert_eq!((stepwise, fused), (sync, sync));
}

#[test]
fn cluster_max_charges_pinned_modeled_cycles() {
    // The lib_sort_cluster geometry: 2 shards of 2 crossbars x 64 rows,
    // 256 floats spanning both.
    let dev = Device::cluster(PimConfig::small().with_crossbars(2), 2).unwrap();
    let values = payload(3, 0, 256);
    let t = dev.from_slice_f32(&values).unwrap();
    let before = dev.cluster_stats().unwrap().unwrap();
    let max = t.max_f32().unwrap();
    let after = dev.cluster_stats().unwrap().unwrap();
    assert_eq!(max, values.iter().copied().fold(f32::MIN, f32::max));
    assert_eq!(
        after.modeled_latency_cycles() - before.modeled_latency_cycles(),
        8_890
    );
    assert_eq!(after.traffic.link_cycles - before.traffic.link_cycles, 40);
}

#[test]
fn stepwise_reduction_rejects_non_associative_ops() {
    let gateway = cluster_dev().serve(ServeConfig::default());
    let client = gateway.session().unwrap();
    let t = block_on(client.upload_i32(&[1, 2, 3])).unwrap();
    assert!(matches!(
        block_on(client.reduce_raw(&t, RegOp::Sub)),
        Err(pypim::CoreError::DTypeMismatch { .. })
    ));
}

#[test]
fn fused_reduction_rejects_non_associative_ops() {
    let gateway = cluster_dev().serve(ServeConfig::default());
    let client = gateway.session().unwrap();
    let mut plan = client.plan();
    let t = plan.upload_i32(&[1, 2, 3]).unwrap();
    let planned = plan.len();
    assert!(matches!(
        plan.reduce(&t, RegOp::Sub),
        Err(pypim::CoreError::DTypeMismatch { .. })
    ));
    assert_eq!(plan.len(), planned, "a refused reduction plans nothing");
}
