//! The closed-loop library workloads: one client calling the blocking
//! tensor API of `pypim-core`, on one chip (`lib_arith`) or on a 2-shard
//! `pim-cluster` (`lib_sort_cluster`).

use crate::check::{self, Output};
use crate::gen::{stream, Rng};
use crate::replay::{self, Stream};
use crate::report::{Counters, Outcome};
use crate::stats::{highest_supported, median, percentile};
use crate::trace::{self, timed, HostSpeed, Layer};
use pim_arch::PimConfig;
use pim_isa::RegOp;
use pim_serve::{DeviceServeExt, ServeConfig};
use pypim_core::{BackendKind, ClusterOptions, Device, Result, ShardBackends};
use std::time::{Duration, Instant};

/// Requests per timed block; `wall_s` is the median block's time.
const BLOCK: usize = 10;
/// At least this many requests per pass, so that `req_ms_p90` has ten
/// samples beyond it.
pub const MIN_REQUESTS: usize = 100;
/// A pass stops after this long even short of `MIN_REQUESTS`.
const HARD_STOP: Duration = Duration::from_secs(100);
/// Set-ups timed per run, spread evenly over the closed loop so that they
/// sample the same host conditions as the requests; `setup_s` is their
/// median.
const SETUPS: usize = 25;
/// Requests replayed on the bit-accurate backend per run.
const ORACLE_SAMPLES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Arith,
    Sort,
}

/// A library workload's program and sizes.
#[derive(Debug, Clone)]
pub struct LibSpec {
    pub kind: Kind,
    /// Geometry of one chip.
    pub chip: PimConfig,
    /// Chips; 1 builds a single-chip device.
    pub shards: usize,
    /// Elements per request tensor.
    pub elems: usize,
}

impl LibSpec {
    /// `lib_arith`: `sum(x*y + x)` over the whole 16×256 chip.
    pub fn arith() -> LibSpec {
        LibSpec {
            kind: Kind::Arith,
            chip: PimConfig::small().with_crossbars(16).with_rows(256),
            shards: 1,
            elems: 4096,
        }
    }

    /// `lib_sort_cluster`: sort and max of 256 floats spanning both
    /// shards of a 2×(2×64) cluster.
    pub fn sort() -> LibSpec {
        LibSpec {
            kind: Kind::Sort,
            chip: PimConfig::small().with_crossbars(2).with_rows(64),
            shards: 2,
            elems: 256,
        }
    }

    pub fn device(&self, backend: BackendKind) -> Result<Device> {
        if self.shards == 1 {
            return Device::with_backend(self.chip.clone(), backend);
        }
        Device::cluster_with_options(
            self.chip.clone(),
            self.shards,
            ClusterOptions {
                backends: ShardBackends::Uniform(backend),
                ..ClusterOptions::default()
            },
        )
    }

    /// One chip of the same total geometry as the device.
    fn logical_chip(&self) -> PimConfig {
        self.chip
            .clone()
            .with_crossbars(self.chip.crossbars * self.shards)
    }

    pub fn inputs(&self, seed: u64, stream: u64, index: u64) -> Vec<Vec<f32>> {
        let mut r = Rng::new(seed, stream, index);
        match self.kind {
            Kind::Arith => vec![r.f32s(self.elems, -2.0, 2.0), r.f32s(self.elems, -2.0, 2.0)],
            Kind::Sort => vec![r.f32s(self.elems, -1000.0, 1000.0)],
        }
    }

    pub fn reference(&self, inputs: &[Vec<f32>]) -> Output {
        match self.kind {
            Kind::Arith => Output::Scalar(check::sum_xy_plus_x(&inputs[0], &inputs[1])),
            Kind::Sort => check::sorted_and_max(&inputs[0]),
        }
    }

    /// One request through the blocking tensor API.
    pub fn request(&self, dev: &Device, inputs: &[Vec<f32>]) -> Result<Output> {
        match self.kind {
            Kind::Arith => {
                let (x, y) = timed(Layer::CoreUpload, || {
                    Ok::<_, pypim_core::CoreError>((
                        dev.from_slice_f32(&inputs[0])?,
                        dev.from_slice_f32(&inputs[1])?,
                    ))
                })?;
                let z = timed(Layer::CoreCompute, || &(&x * &y)? + &x)?;
                let s = timed(Layer::CoreReduce, || z.sum_f32())?;
                Ok(Output::Scalar(s))
            }
            Kind::Sort => {
                let x = timed(Layer::CoreUpload, || dev.from_slice_f32(&inputs[0]))?;
                let sorted = timed(Layer::CoreSort, || x.sorted())?;
                let max = timed(Layer::CoreReduce, || x.max_f32())?;
                let v = timed(Layer::CoreRead, || sorted.to_vec_f32())?;
                Ok(Output::Sorted(v, max))
            }
        }
    }

    /// The ISA stream of one request, for the driver replay, planned with
    /// `RequestPlan`. The sort has no planned form: `Tensor::sorted` issues
    /// its instructions itself, so `lib_sort_cluster` has no replay.
    fn replay_stream(&self, seed: u64) -> Result<Option<Stream>> {
        let inputs = self.inputs(seed, stream::WARMUP, 1);
        let expect = self.reference(&inputs);
        if self.kind == Kind::Sort {
            return Ok(None);
        }
        let mut s = Stream::new(self.chip.clone());
        let gw =
            Device::with_backend(self.chip.clone(), BackendKind::Functional)?.serve(ServeConfig {
                session_warps: self.chip.crossbars as u32,
                ..ServeConfig::default()
            });
        let client = gw.session()?;
        let mut p = client.plan();
        let x = p.upload_f32(&inputs[0])?;
        let y = p.upload_f32(&inputs[1])?;
        let xy = p.mul(&x, &y)?;
        let z = p.add(&xy, &x)?;
        let r = p.reduce(&z, RegOp::Add)?;
        s.push(p.into_instrs(), &[&r], &expect);
        Ok(Some(s))
    }
}

/// Modeled time of a device: the chip's cycles, or for a cluster the
/// busiest chip plus interconnect link cycles.
fn modeled_now(dev: &Device) -> Result<u64> {
    Ok(match dev.cluster_stats()? {
        Some(s) => s.modeled_latency_cycles(),
        None => dev.cycles()?,
    })
}

/// What one closed-loop pass measured.
struct Pass {
    req_ms: Vec<f64>,
    block_s: Vec<f64>,
    cycles: Vec<u64>,
    outputs: Vec<Option<Output>>,
    failed: u64,
    wrong: u64,
}

/// Runs requests `first..` back to back until `budget` has passed, at
/// least `min_requests` ran and the last block is whole. Only the
/// request call is timed; input generation, checks and `between_blocks`
/// (called after each whole block with the time since the start) are not.
fn closed_loop(
    spec: &LibSpec,
    dev: &Device,
    seed: u64,
    first: u64,
    budget: Duration,
    min_requests: usize,
    between_blocks: &mut dyn FnMut(Duration) -> Result<()>,
) -> Result<Pass> {
    let mut p = Pass {
        req_ms: Vec::new(),
        block_s: Vec::new(),
        cycles: Vec::new(),
        outputs: Vec::new(),
        failed: 0,
        wrong: 0,
    };
    let start = Instant::now();
    let mut block = 0.0;
    loop {
        let n = p.req_ms.len();
        let done = start.elapsed() >= budget && n >= min_requests;
        if (done && n.is_multiple_of(BLOCK)) || start.elapsed() >= HARD_STOP {
            break;
        }
        let inputs = spec.inputs(seed, stream::REQUEST, first + n as u64);
        let before = modeled_now(dev)?;
        let t = Instant::now();
        let out = spec.request(dev, &inputs);
        let secs = t.elapsed().as_secs_f64();
        p.cycles.push(modeled_now(dev)? - before);
        p.req_ms.push(secs * 1e3);
        block += secs;
        if p.req_ms.len().is_multiple_of(BLOCK) {
            p.block_s.push(block);
            block = 0.0;
            between_blocks(start.elapsed())?;
        }
        match out {
            Ok(o) => {
                if !o.same_bits(&spec.reference(&inputs)) {
                    p.wrong += 1;
                }
                p.outputs.push(Some(o));
            }
            Err(e) => {
                eprintln!("request {} failed: {e}", first + n as u64);
                p.failed += 1;
                p.outputs.push(None);
            }
        }
    }
    if p.block_s.is_empty() {
        p.block_s.push(block);
    }
    Ok(p)
}

/// Builds the device and serves one cold warm-up request (routine
/// compilation); returns the time that took, the device and the warm-up
/// output.
fn setup(spec: &LibSpec, seed: u64) -> Result<(f64, Device, Option<Output>)> {
    let warm = spec.inputs(seed, stream::WARMUP, 0);
    let t = Instant::now();
    let dev = spec.device(BackendKind::Functional)?;
    let got = spec.request(&dev, &warm);
    Ok((t.elapsed().as_secs_f64(), dev, got.ok()))
}

/// Replays sampled requests of `pass` on the bit-accurate backend, after
/// the same warm-up: outputs must be bit-identical and modeled cycles
/// identical.
fn oracle(spec: &LibSpec, seed: u64, first: u64, pass: &Pass, out: &mut Outcome) -> Result<()> {
    let dev = spec.device(BackendKind::BitAccurate)?;
    let warm = spec.inputs(seed, stream::WARMUP, 0);
    spec.request(&dev, &warm)?;
    let mut r = Rng::new(seed, stream::ORACLE, 0);
    let mut picks: Vec<usize> = (0..ORACLE_SAMPLES)
        .map(|_| r.below(pass.outputs.len() as u64) as usize)
        .collect();
    picks.sort_unstable();
    picks.dedup();
    for i in picks {
        let inputs = spec.inputs(seed, stream::REQUEST, first + i as u64);
        let before = modeled_now(&dev)?;
        let got = spec.request(&dev, &inputs)?;
        let cycles = modeled_now(&dev)? - before;
        let same = pass.outputs[i].as_ref().is_some_and(|o| o.same_bits(&got));
        out.oracle(same && cycles == pass.cycles[i], &format!("request {i}"));
    }
    Ok(())
}

/// Modeled per-request latency percentiles. Every library request runs
/// the same data-independent program, so the distribution is one value;
/// a p99 with fewer than ten samples beyond it is reported as the
/// maximum, its upper bound.
fn modeled_latency(cycles: &[u64]) -> (f64, f64) {
    let p50 = percentile(cycles, 50.0) as f64;
    let p99 = match highest_supported(cycles.len(), &[99.0]) {
        Some(_) => percentile(cycles, 99.0),
        None => *cycles.iter().max().expect("at least one request"),
    };
    (p50, p99 as f64)
}

pub fn run(spec: &LibSpec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome> {
    let mut out = Outcome::default();
    let warm = spec.reference(&spec.inputs(seed, stream::WARMUP, 0));
    let (t0, dev, got) = setup(spec, seed)?;
    out.check("warm-up request", got.as_ref(), &warm);
    let mut setups = vec![t0];
    dev.reset_counters()?;
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    // The other set-ups run between blocks of the closed loop, one per
    // `budget / SETUPS`, each dropping its device before the loop goes on.
    // Every block is followed by a host-speed sample.
    let mut speed = HostSpeed::default();
    let mut between_blocks = |elapsed: Duration| -> Result<()> {
        speed.sample();
        let due = |done: usize| elapsed >= budget.mul_f64(done as f64 / SETUPS as f64);
        while setups.len() < SETUPS && due(setups.len()) {
            let (t, d, got) = setup(spec, seed)?;
            drop(d);
            setups.push(t);
            out.check("warm-up request", got.as_ref(), &warm);
        }
        Ok(())
    };
    let first = 0;
    let pass = closed_loop(
        spec,
        &dev,
        seed,
        first,
        budget,
        MIN_REQUESTS,
        &mut between_blocks,
    )?;
    out.attempted += pass.req_ms.len() as u64;
    out.failed += pass.failed + pass.wrong;
    out.require(pass.failed == 0, "every library request succeeds");
    out.require(
        pass.wrong == 0,
        "every library output matches the host reference",
    );
    let issued = dev.issued()?;
    let n = pass.req_ms.len() as f64;
    let wall_s = median(&pass.block_s);
    let cycles_per_req = pass.cycles.iter().sum::<u64>() as f64 / n;

    if !traced {
        let (lat50, lat99) = modeled_latency(&pass.cycles);
        out.require(
            highest_supported(pass.req_ms.len(), &[90.0]).is_some(),
            "enough requests for req_ms_p90",
        );
        out.table.push(format!(
            "{} set-ups, {} requests in {} blocks",
            setups.len(),
            pass.req_ms.len(),
            pass.block_s.len()
        ));
        out.host_times(
            &speed,
            [median(&setups), wall_s, percentile(&pass.req_ms, 50.0)],
            percentile(&pass.req_ms, 90.0),
        );
        out.e2e("modeled_cycles", cycles_per_req);
        out.e2e(
            "theory_gap",
            issued.total as f64 / issued.logic as f64 - 1.0,
        );
        out.e2e("lat_p50_cycles", lat50);
        out.e2e("lat_p99_cycles", lat99);
        out.e2e("max_rate_per_mcycle", 1e6 / cycles_per_req);
        oracle(spec, seed, first, &pass, &mut out)?;
        out.finish_e2e();
        return Ok(out);
    }

    // Traced pass on the same device, counters taken around it.
    let counters0 = Counters::of([&dev])?;
    let cl0 = dev.cluster_stats()?;
    trace::set_enabled(true);
    let first_t = pass.req_ms.len() as u64;
    let mut traced_speed = HostSpeed::default();
    let tpass = closed_loop(spec, &dev, seed, first_t, budget, MIN_REQUESTS, &mut |_| {
        traced_speed.sample();
        Ok(())
    })?;
    trace::set_enabled(false);
    let tn = tpass.req_ms.len() as f64;
    out.attempted += tpass.req_ms.len() as u64;
    out.failed += tpass.failed + tpass.wrong;
    out.require(
        tpass.failed + tpass.wrong == 0,
        "traced requests are correct",
    );
    for l in Layer::ALL {
        out.span_row(l, tn);
    }
    for (name, layer) in [
        ("core.upload_ms", Layer::CoreUpload),
        ("core.compute_ms", Layer::CoreCompute),
        ("core.reduce_ms", Layer::CoreReduce),
        ("core.sort_ms", Layer::CoreSort),
        ("core.read_ms", Layer::CoreRead),
    ] {
        out.layer(name, trace::total(layer).inclusive_ns as f64 / 1e6 / tn);
    }
    Counters::of([&dev])?.put_layers(&counters0, tn, &mut out);
    let per = |a: u64, b: u64| (b - a) as f64 / tn;
    if let (Some(a), Some(b)) = (cl0, dev.cluster_stats()?) {
        let (ta, tb) = (a.traffic, b.traffic);
        out.layer("cluster.messages", per(ta.messages, tb.messages));
        out.layer("cluster.cross_words", per(ta.cross_words, tb.cross_words));
        out.layer("cluster.link_cycles", per(ta.link_cycles, tb.link_cycles));
        out.layer("cluster.barriers", per(ta.barriers, tb.barriers));
        out.layer(
            "cluster.moves_merged",
            per(ta.moves_merged, tb.moves_merged),
        );
        out.layer(
            "cluster.worker_restarts",
            (b.worker_restarts - a.worker_restarts) as f64,
        );
        let shard: Vec<f64> = a
            .shards
            .iter()
            .zip(&b.shards)
            .map(|(x, y)| (y.profiler.cycles - x.profiler.cycles) as f64)
            .collect();
        let mean = shard.iter().sum::<f64>() / shard.len() as f64;
        out.layer(
            "cluster.shard_imbalance",
            shard.iter().copied().fold(0.0, f64::max) / mean,
        );
        // The single-chip twin: the same program on one chip of equal
        // total geometry.
        let twin_spec = LibSpec {
            chip: spec.logical_chip(),
            shards: 1,
            ..spec.clone()
        };
        let twin = twin_spec.device(BackendKind::Functional)?;
        twin_spec.request(&twin, &spec.inputs(seed, stream::WARMUP, 0))?;
        let tw = closed_loop(&twin_spec, &twin, seed, 0, budget / 4, 20, &mut |_| Ok(()))?;
        out.require(tw.failed + tw.wrong == 0, "single-chip twin is correct");
        out.layer("cluster.hop_ms", median(&pass.req_ms) - median(&tw.req_ms));
        // The same cluster unpinned, as users run it: its shard workers,
        // started after `unpin`, may run on other CPUs than this thread.
        if trace::unpin() {
            let free = spec.device(BackendKind::Functional)?;
            spec.request(&free, &spec.inputs(seed, stream::WARMUP, 0))?;
            let up = closed_loop(spec, &free, seed, 0, budget / 4, 20, &mut |_| Ok(()))?;
            drop(free);
            trace::pin_to_one_cpu();
            out.require(up.failed + up.wrong == 0, "unpinned cluster is correct");
            out.layer("cluster.unpinned_req_ms", median(&up.req_ms));
            out.table.push(format!(
                "request median {:.3} ms pinned to one CPU, {:.3} ms unpinned",
                median(&pass.req_ms),
                median(&up.req_ms)
            ));
        }
    }
    let wall_t = median(&tpass.block_s);
    out.layer(
        "bench.trace_overhead_frac",
        (wall_t / traced_speed.slowdown()) / (wall_s / speed.slowdown()) - 1.0,
    );
    out.layer("bench.host_slowdown", speed.slowdown());

    out.layer(
        "host_ns_per_cycle",
        wall_s / BLOCK as f64 * 1e9 / cycles_per_req,
    );
    match spec.replay_stream(seed)? {
        Some(stream) => {
            let rp = replay::run(&stream, Duration::from_millis(500))?;
            let per_req = |name| out.value(name).expect("counters were reported");
            let workload = (
                per_req("func.micro_ops"),
                per_req("driver.issued_total_cycles"),
            );
            out.replay_layers(&rp, workload);
        }
        None => out.table.push(
            "no driver replay: driver.self_ns_per_instr, driver.headroom and func.busy_ms, \
             ns_per_op, share are not measured"
                .into(),
        ),
    }
    oracle(spec, seed, first, &pass, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: Kind) -> LibSpec {
        match kind {
            Kind::Arith => LibSpec {
                kind,
                chip: PimConfig::small().with_crossbars(2).with_rows(16),
                shards: 1,
                elems: 32,
            },
            Kind::Sort => LibSpec {
                kind,
                chip: PimConfig::small().with_crossbars(1).with_rows(16),
                shards: 2,
                elems: 32,
            },
        }
    }

    fn modeled(spec: &LibSpec, seed: u64) -> (Vec<u64>, Vec<Option<Output>>) {
        let dev = spec.device(BackendKind::Functional).unwrap();
        spec.request(&dev, &spec.inputs(seed, stream::WARMUP, 0))
            .unwrap();
        let p = closed_loop(spec, &dev, seed, 0, Duration::ZERO, 3, &mut |_| Ok(())).unwrap();
        assert_eq!(p.failed + p.wrong, 0);
        (p.cycles, p.outputs)
    }

    #[test]
    fn same_seed_gives_identical_modeled_metrics() {
        for kind in [Kind::Arith, Kind::Sort] {
            let spec = tiny(kind);
            assert_eq!(modeled(&spec, 5), modeled(&spec, 5), "{kind:?}");
            assert_ne!(modeled(&spec, 5).1, modeled(&spec, 6).1, "{kind:?}");
        }
    }

    #[test]
    fn corrupted_output_is_caught() {
        let spec = tiny(Kind::Sort);
        let dev = spec.device(BackendKind::Functional).unwrap();
        let inputs = spec.inputs(9, stream::REQUEST, 0);
        let got = spec.request(&dev, &inputs).unwrap();
        let expect = spec.reference(&inputs);
        assert!(got.same_bits(&expect));
        let Output::Sorted(mut v, m) = got else {
            panic!("sort returns a sorted tensor")
        };
        v[3] = f32::from_bits(v[3].to_bits() ^ 1);
        let mut out = Outcome::default();
        out.check("corrupted", Some(&Output::Sorted(v, m)), &expect);
        assert!(!out.correct());
    }

    #[test]
    fn replay_issues_what_the_workload_issues() {
        let spec = tiny(Kind::Arith);
        let s = spec.replay_stream(3).unwrap().expect("arith has a replay");
        let r = replay::run(&s, Duration::ZERO).unwrap();
        let dev = spec.device(BackendKind::Functional).unwrap();
        let inputs = spec.inputs(3, stream::WARMUP, 1);
        spec.request(&dev, &inputs).unwrap();
        let before = Counters::of([&dev]).unwrap();
        spec.request(&dev, &inputs).unwrap();
        let mut out = Outcome::default();
        Counters::of([&dev])
            .unwrap()
            .put_layers(&before, 1.0, &mut out);
        let workload = (
            out.value("func.micro_ops").unwrap(),
            out.value("driver.issued_total_cycles").unwrap(),
        );
        out.replay_layers(&r, workload);
        assert!(out.correct(), "{}", out.render(true));
        out.replay_layers(&r, (workload.0 + 1.0, workload.1));
        assert!(!out.correct());
        assert!(tiny(Kind::Sort).replay_stream(3).unwrap().is_none());
    }
}
