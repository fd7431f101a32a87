//! `serve_fleet`: an open loop over a 2-host `pim-fleet`, owned by the
//! benchmark so that changes to `pim-loadgen` cannot move it.
//!
//! Arrivals step through four fixed offered rates. Within a step they are
//! a seeded Poisson process conditioned on its count (uniform times,
//! sorted), with a fixed share of f32 requests, so every seed offers the
//! same work. Each request runs through `FleetSession::run`: its attempt
//! plans the request with `RequestPlan` at arrival, submits it (admission
//! happens then), and awaits it and its read-back when polled. Nothing
//! holds an arrival back on the client side, so overload reaches planning
//! and the gateway's admission. Latency runs from the scheduled arrival to
//! the batch's completion stamp (`ExecFuture::completed_at`), so a stalled
//! loop shows as latency.
//!
//! The hosts are single-chip functional devices, which execute inline on
//! the polling thread, so modeled results replay bit-identically for a
//! seed. Telemetry stays on: the modeled clock advances only while it
//! records.

use crate::check::{self, Output};
use crate::gen::{stream, Rng};
use crate::replay::{self, Stream};
use crate::report::{Counters, Outcome};
use crate::stats::{backlog_grows, highest_supported, median, percentile};
use crate::trace::{self, timed, HostSpeed, Layer, Timed};
use futures::executor::block_on;
use pim_arch::PimConfig;
use pim_fleet::{Fleet, FleetConfig, FleetSession, GatewayHost};
use pim_isa::RegOp;
use pim_serve::{ClusterClient, DeviceServeExt, Gateway, GatewayStats, ServeConfig};
use pypim_core::{BackendKind, CoreError, Device, Result, Tensor};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 17;
/// Mix periods (one f32 request, then `F32_EVERY - 1` int requests) the
/// closed-loop probe behind `req_ms_*` times.
const PROBE_PERIODS: usize = 400;
/// Host time between two pauses of a sweep. Each pause takes a host-speed
/// sample, every [`SETUP_EVERY`]-th also a set-up, and then up to
/// [`PROBE_CHUNK`] probe periods.
const PAUSE_EVERY: Duration = Duration::from_millis(500);
const SETUP_EVERY: usize = 3;
const PROBE_CHUNK: usize = 8;

/// Hosts of the fleet, each a gateway over one single-chip device.
const HOSTS: usize = 2;
/// Client sessions; arrival `k` of a step goes to session `k % SESSIONS`.
const SESSIONS: usize = 8;
/// Every `F32_EVERY`-th arrival is the f32 `sum(x*y + x)`; the rest are
/// int adds.
const F32_EVERY: usize = 5;
/// The step whose latency percentiles are reported (≈0.7× knee).
const LAT_STEP: usize = 1;
/// Backlog samples per step.
const WINDOWS: usize = 10;
/// The knee measured at the commit that defined the benchmark, in
/// requests per million modeled cycles (see `README.md`). Fixed: the step
/// rates derive from it and must not move with the program.
pub const KNEE_PER_MCYCLE: f64 = 80.0;
/// The p99 latency limit that `max_rate_per_mcycle` is judged by.
pub const P99_LIMIT_CYCLES: u64 = 2_000_000;

/// The sizes of the fleet workload. `Default` is the benchmark's; tests
/// shrink it.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Geometry of each host's single chip.
    pub chip: PimConfig,
    pub f32_elems: usize,
    pub int_elems: usize,
    /// The rate the step factors multiply; [`KNEE_PER_MCYCLE`] in the
    /// benchmark.
    pub knee_per_mcycle: f64,
    /// Offered rates as multiples of the knee.
    pub factors: [f64; 4],
    /// Arrivals per step. The reported step gets the most, so that its
    /// p99 has tens of samples beyond it; the others only decide whether
    /// their rate meets the limit.
    pub step_requests: [usize; 4],
    /// Arrivals replayed on the bit-accurate backend per run.
    pub oracle_samples: usize,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            chip: FleetConfig::default().chip,
            f32_elems: 64,
            int_elems: 16,
            knee_per_mcycle: KNEE_PER_MCYCLE,
            factors: [0.4, 0.7, 1.0, 1.4],
            step_requests: [400, 12000, 800, 800],
            oracle_samples: 4,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    F32,
    Int,
}

#[derive(Debug)]
struct Req {
    kind: Kind,
    f: [Vec<f32>; 2],
    i: [Vec<i32>; 2],
}

impl Req {
    fn new(spec: &FleetSpec, kind: Kind, seed: u64, index: u64) -> Req {
        let mut r = Rng::new(seed, stream::REQUEST, index);
        match kind {
            Kind::F32 => Req {
                kind,
                f: [
                    r.f32s(spec.f32_elems, -2.0, 2.0),
                    r.f32s(spec.f32_elems, -2.0, 2.0),
                ],
                i: [Vec::new(), Vec::new()],
            },
            Kind::Int => Req {
                kind,
                f: [Vec::new(), Vec::new()],
                i: [r.i32s(spec.int_elems), r.i32s(spec.int_elems)],
            },
        }
    }

    fn reference(&self) -> Output {
        match self.kind {
            Kind::F32 => Output::Scalar(check::sum_xy_plus_x(&self.f[0], &self.f[1])),
            Kind::Int => check::int_add(&self.i[0], &self.i[1]),
        }
    }

    /// The request's fused plan, the tensor holding its result, and the
    /// other tensors planned into it. `RequestPlan::into_instrs` requires
    /// those to outlive the plan's execution: once freed, another session
    /// may claim a stripe outside its own window and overwrite the operand
    /// before this plan reads it.
    fn plan(
        &self,
        client: &ClusterClient,
    ) -> Result<(Vec<pim_isa::Instruction>, Tensor, Vec<Tensor>)> {
        let mut p = client.plan();
        let (r, operands) = match self.kind {
            Kind::F32 => {
                let x = p.upload_f32(&self.f[0])?;
                let y = p.upload_f32(&self.f[1])?;
                let xy = p.mul(&x, &y)?;
                let z = p.add(&xy, &x)?;
                (p.reduce(&z, RegOp::Add)?, vec![x, y, xy, z])
            }
            Kind::Int => {
                let x = p.upload_i32(&self.i[0])?;
                let y = p.upload_i32(&self.i[1])?;
                (p.add(&x, &y)?, vec![x, y])
            }
        };
        Ok((p.into_instrs(), r, operands))
    }

    async fn read(&self, client: &ClusterClient, r: &Tensor) -> Result<Output> {
        Ok(match self.kind {
            Kind::F32 => Output::Scalar(client.to_vec_f32(r).await?[0]),
            Kind::Int => Output::Ints(client.to_vec_i32(r).await?),
        })
    }
}

/// Returns `Pending` once (waking itself), so that a request's first poll
/// ends right after admission and the loop can admit every due arrival
/// before any of them is pumped.
struct YieldOnce(bool);

impl Future for YieldOnce {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// One attempt of one request: plan, submit, then await execution and
/// read back. Returns the output and the batch's completion cycle.
async fn attempt(client: &ClusterClient, req: &Req) -> Result<(Output, Option<u64>)> {
    // `_operands` lives until the read-back is done.
    let (instrs, result, _operands) = timed(Layer::CorePlan, || req.plan(client))?;
    let mut fut = client.submit(instrs);
    YieldOnce(false).await;
    Timed::new(Layer::ServePoll, &mut fut).await?;
    let done = fut.completed_at();
    let out = Timed::new(Layer::CoreRead, Box::pin(req.read(client, &result))).await?;
    Ok((out, done))
}

type RunFuture<'a> = Timed<Pin<Box<dyn Future<Output = Result<(Output, Option<u64>)>> + 'a>>>;

fn start_request<'a>(session: &'a FleetSession, req: Arc<Req>) -> RunFuture<'a> {
    let run = session.run(move |client| {
        let req = Arc::clone(&req);
        Box::pin(Timed::new(
            Layer::Attempt,
            Box::pin(async move { attempt(client, &req).await }),
        ))
    });
    Timed::new(Layer::Fleet, Box::pin(run))
}

/// Wakes the polling loop.
struct Parker {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    fn park_timeout(&self, dur: Duration) {
        let mut woken = self.flag.lock().expect("parker lock is never poisoned");
        if !*woken {
            woken = self
                .cv
                .wait_timeout(woken, dur)
                .expect("parker lock is never poisoned")
                .0;
        }
        *woken = false;
    }
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        *self.flag.lock().expect("parker lock is never poisoned") = true;
        self.cv.notify_one();
    }
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Cycle offset from the step's start.
    at: u64,
    kind: Kind,
    /// Global request index (input stream).
    index: u64,
    session: usize,
}

impl FleetSpec {
    fn rate(&self, step: usize) -> f64 {
        self.factors[step] * self.knee_per_mcycle
    }

    /// Modeled length of a step.
    fn step_cycles(&self, step: usize) -> u64 {
        (self.step_requests[step] as f64 / self.rate(step) * 1e6).round() as u64
    }

    /// The seeded arrival schedule, one list per step.
    fn schedule(&self, seed: u64) -> Vec<Vec<Arrival>> {
        let mut index = 0;
        (0..self.factors.len())
            .map(|step| {
                let horizon = self.step_cycles(step);
                let n = self.step_requests[step];
                let mut r = Rng::new(seed, stream::ARRIVALS, step as u64);
                let mut at: Vec<u64> = (0..n).map(|_| r.below(horizon)).collect();
                at.sort_unstable();
                // Every `F32_EVERY`-th arrival is an f32 request: the
                // mix is fixed in arrival order, so a burst of arrivals
                // carries its share of long requests on every seed.
                let kinds = (0..n).map(|k| {
                    if k % F32_EVERY == 0 {
                        Kind::F32
                    } else {
                        Kind::Int
                    }
                });
                at.into_iter()
                    .zip(kinds)
                    .enumerate()
                    .map(|(k, (at, kind))| {
                        index += 1;
                        Arrival {
                            at,
                            kind,
                            index: index - 1,
                            session: k % SESSIONS,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn host(&self, backend: BackendKind) -> Result<Gateway> {
        Ok(Device::with_backend(self.chip.clone(), backend)?.serve(ServeConfig::default()))
    }
}

/// A fleet built like `Fleet::new`'s default hosts, keeping the gateways
/// so their counters can be read.
struct Rig {
    fleet: Fleet,
    gateways: Vec<Gateway>,
    sessions: Vec<FleetSession>,
}

/// Builds the fleet and its sessions and serves one cold warm-up request
/// of each kind on each host (routine compilation).
fn build(spec: &FleetSpec, seed: u64, out: &mut Outcome) -> Result<Rig> {
    let gateways: Vec<Gateway> = (0..HOSTS)
        .map(|_| spec.host(BackendKind::Functional))
        .collect::<Result<_>>()?;
    let hosts: Vec<Box<dyn GatewayHost + Send + Sync>> = gateways
        .iter()
        .map(|g| Box::new(g.clone()) as Box<dyn GatewayHost + Send + Sync>)
        .collect();
    let fleet = Fleet::with_hosts(
        FleetConfig {
            chip: spec.chip.clone(),
            ..FleetConfig::default()
        },
        hosts,
    )?;
    fleet.set_telemetry_enabled(true);
    let sessions: Vec<FleetSession> = (0..SESSIONS)
        .map(|_| fleet.session())
        .collect::<Result<_>>()?;
    for (s, session) in sessions.iter().take(HOSTS).enumerate() {
        for kind in [Kind::F32, Kind::Int] {
            let req = Arc::new(Req::new(spec, kind, seed ^ stream::WARMUP, s as u64));
            let got = block_on(start_request(session, Arc::clone(&req))).map(|r| r.0);
            out.check("warm-up request", got.ok().as_ref(), &req.reference());
        }
    }
    Ok(Rig {
        fleet,
        gateways,
        sessions,
    })
}

/// Everything one sweep observed, per arrival in schedule order.
#[derive(Debug, Default, PartialEq)]
struct Sweep {
    /// Modeled latency, `None` for a failed or refused request.
    latency: Vec<Option<u64>>,
    /// Modeled cycle the request finished (or failed) at.
    finished: Vec<u64>,
    /// Injection cycle minus scheduled cycle.
    late: Vec<u64>,
    outputs: Vec<Option<Output>>,
    /// Step start cycles.
    starts: Vec<u64>,
    /// Requests that returned an error; of them, those the gateway
    /// refused at admission and those whose planning ran out of memory.
    refused: u64,
    overloaded: u64,
    out_of_memory: u64,
    /// Slots of requests that completed with another output than the
    /// reference.
    wrong: Vec<usize>,
    /// Modeled cycles the hosts' chips were busy, summed.
    busy_cycles: u64,
    issued_logic: u64,
    issued_total: u64,
}

struct InFlight<'a> {
    fut: RunFuture<'a>,
    slot: usize,
    scheduled: u64,
}

/// Runs every step of `schedule` on `rig`, draining between steps, and
/// calls `pause` after every [`PAUSE_EVERY`] of its host time. Pauses
/// leave modeled time alone. Returns what the sweep observed and its host
/// time in seconds, the pauses excluded.
fn sweep(
    spec: &FleetSpec,
    rig: &Rig,
    seed: u64,
    schedule: &[Vec<Arrival>],
    pause: &mut dyn FnMut() -> Result<()>,
) -> Result<(Sweep, f64)> {
    let total: usize = schedule.iter().map(Vec::len).sum();
    let mut sw = Sweep {
        latency: vec![None; total],
        finished: vec![0; total],
        outputs: vec![None; total],
        ..Sweep::default()
    };
    let counters = |rig: &Rig| -> Result<(u64, u64, u64)> {
        let mut t = (0, 0, 0);
        for g in &rig.gateways {
            let issued = g.device().issued()?;
            t.0 += g.device().cycles()?;
            t.1 += issued.logic;
            t.2 += issued.total;
        }
        Ok(t)
    };
    let before = counters(rig)?;
    let parker = Arc::new(Parker {
        flag: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(Arc::clone(&parker));
    let mut cx = Context::from_waker(&waker);
    let telemetry = rig.fleet.telemetry();
    let mut slot0 = 0;
    let mut host_s = 0.0;
    let mut last_pause = Instant::now();
    for arrivals in schedule {
        let t = Instant::now();
        let mut paused = Duration::ZERO;
        let start = timed(Layer::Fleet, || rig.fleet.tick_now());
        sw.starts.push(start);
        let mut pending: Vec<InFlight> = Vec::new();
        let mut next = 0;
        loop {
            if last_pause.elapsed() >= PAUSE_EVERY {
                let p = Instant::now();
                pause()?;
                paused += p.elapsed();
                last_pause = Instant::now();
            }
            let now = timed(Layer::Fleet, || rig.fleet.tick_now());
            // Every due arrival starts now, however many requests are
            // already in flight: overload reaches the gateway's admission
            // and the sessions' memory.
            while next < arrivals.len() && start + arrivals[next].at <= now {
                let a = arrivals[next];
                sw.late.push(now - (start + a.at));
                let req = Arc::new(Req::new(spec, a.kind, seed, a.index));
                pending.push(InFlight {
                    fut: start_request(&rig.sessions[a.session], req),
                    slot: slot0 + next,
                    scheduled: start + a.at,
                });
                next += 1;
            }
            if pending.is_empty() {
                match arrivals.get(next) {
                    Some(a) => {
                        telemetry.advance_clock(start + a.at);
                        continue;
                    }
                    None => break,
                }
            }
            let mut progressed = false;
            let mut i = 0;
            while i < pending.len() {
                let Poll::Ready(res) = Pin::new(&mut pending[i].fut).poll(&mut cx) else {
                    i += 1;
                    continue;
                };
                progressed = true;
                let p = pending.swap_remove(i);
                let a = arrivals[p.slot - slot0];
                let now = telemetry.now();
                match res {
                    Ok((got, done)) => {
                        let done = done.unwrap_or(now);
                        sw.latency[p.slot] = Some(done - p.scheduled);
                        sw.finished[p.slot] = done;
                        if !got.same_bits(&Req::new(spec, a.kind, seed, a.index).reference()) {
                            sw.wrong.push(p.slot);
                        }
                        sw.outputs[p.slot] = Some(got);
                    }
                    Err(e) => {
                        match e {
                            CoreError::Overloaded { .. } => sw.overloaded += 1,
                            CoreError::OutOfMemory { .. } => sw.out_of_memory += 1,
                            e => eprintln!("request {} failed: {e}", a.index),
                        }
                        sw.refused += 1;
                        sw.finished[p.slot] = now;
                    }
                }
            }
            if !progressed {
                parker.park_timeout(Duration::from_micros(200));
            }
        }
        slot0 += arrivals.len();
        host_s += (t.elapsed() - paused).as_secs_f64();
    }
    let after = counters(rig)?;
    sw.busy_cycles = after.0 - before.0;
    sw.issued_logic = after.1 - before.1;
    sw.issued_total = after.2 - before.2;
    Ok((sw, host_s))
}

/// Host ms per request of a closed loop on an idle fleet, for mix periods
/// `periods`: each sample is one mix period (one f32 request, then the int
/// requests) run back to back through `FleetSession::run`, over its
/// request count. Periods carry identical work, so their times differ only
/// by host noise.
fn probe(
    spec: &FleetSpec,
    seed: u64,
    rig: &Rig,
    periods: std::ops::Range<usize>,
    out: &mut Outcome,
) -> Result<Vec<f64>> {
    let session = &rig.sessions[0];
    let mut ms = Vec::with_capacity(periods.len());
    for p in periods {
        let reqs: Vec<Arc<Req>> = (0..F32_EVERY)
            .map(|k| {
                let kind = if k == 0 { Kind::F32 } else { Kind::Int };
                let index = (p * F32_EVERY + k) as u64;
                Arc::new(Req::new(spec, kind, seed ^ stream::ORACLE, index))
            })
            .collect();
        let t = Instant::now();
        let got: Vec<Result<Output>> = reqs
            .iter()
            .map(|r| block_on(start_request(session, Arc::clone(r))).map(|o| o.0))
            .collect();
        ms.push(t.elapsed().as_secs_f64() * 1e3 / reqs.len() as f64);
        for (r, g) in reqs.iter().zip(got) {
            out.check("probe request", g.ok().as_ref(), &r.reference());
        }
    }
    Ok(ms)
}

/// Per-step verdict: the p99 latency (failures count as missing the
/// limit), the backlog trace and whether the step met the limit.
struct Step {
    rate: f64,
    requests: usize,
    /// Requests that returned an error.
    failed: usize,
    /// Requests that completed with a wrong output.
    wrong: usize,
    p50: u64,
    p99: u64,
    grows: bool,
    passed: bool,
}

fn steps(spec: &FleetSpec, sw: &Sweep, schedule: &[Vec<Arrival>]) -> Vec<Step> {
    let mut slot0 = 0;
    schedule
        .iter()
        .enumerate()
        .map(|(s, arrivals)| {
            let slots = slot0..slot0 + arrivals.len();
            slot0 += arrivals.len();
            let lat: Vec<u64> = sw.latency[slots.clone()]
                .iter()
                .map(|l| l.unwrap_or(u64::MAX))
                .collect();
            let start = sw.starts[s];
            let horizon = spec.step_cycles(s);
            let depths: Vec<f64> = (1..=WINDOWS as u64)
                .map(|w| {
                    let tau = start + w * horizon / WINDOWS as u64;
                    let due = arrivals.iter().filter(|a| start + a.at <= tau).count();
                    let done = sw.finished[slots.clone()]
                        .iter()
                        .filter(|&&f| f <= tau)
                        .count();
                    due as f64 - done as f64
                })
                .collect();
            let p99 = percentile(&lat, 99.0);
            let grows = backlog_grows(&depths, arrivals.len());
            Step {
                rate: spec.rate(s),
                requests: lat.len(),
                failed: lat.iter().filter(|&&l| l == u64::MAX).count(),
                wrong: sw.wrong.iter().filter(|w| slots.contains(w)).count(),
                p50: percentile(&lat, 50.0),
                p99,
                grows,
                passed: p99 <= P99_LIMIT_CYCLES && !grows,
            }
        })
        .collect()
}

/// Replays sampled completed arrivals in isolation on fresh bit-accurate and
/// functional hosts: both must return the fleet's output, and both must
/// charge the same modeled cycles.
fn oracle(
    spec: &FleetSpec,
    seed: u64,
    sw: &Sweep,
    schedule: &[Vec<Arrival>],
    out: &mut Outcome,
) -> Result<()> {
    let all: Vec<Arrival> = schedule.iter().flatten().copied().collect();
    let mut r = Rng::new(seed, stream::ORACLE, 0);
    for k in 0..spec.oracle_samples {
        let kind = if k % 2 == 0 { Kind::F32 } else { Kind::Int };
        // Among requests that completed: a refusal has no output to
        // compare.
        let of_kind: Vec<usize> = (0..all.len())
            .filter(|&i| all[i].kind == kind && sw.outputs[i].is_some())
            .collect();
        let slot = of_kind[r.below(of_kind.len() as u64) as usize];
        let req = Req::new(spec, kind, seed, all[slot].index);
        let mut runs = Vec::new();
        for backend in [BackendKind::BitAccurate, BackendKind::Functional] {
            let gw = spec.host(backend)?;
            gw.telemetry().set_enabled(true);
            let client = gw.session()?;
            let before = gw.device().cycles()?;
            let (got, _) = block_on(attempt(&client, &req))?;
            runs.push((got, gw.device().cycles()? - before));
        }
        let fleet_out = sw.outputs[slot].as_ref();
        let ok = runs[0].1 == runs[1].1
            && runs
                .iter()
                .all(|(o, _)| fleet_out.is_some_and(|f| f.same_bits(o)));
        out.oracle(ok, &format!("arrival {}", all[slot].index));
    }
    Ok(())
}

/// The ISA stream of the request mix (one f32 request, `F32_EVERY - 1`
/// int requests) for the driver replay, with the micro-operations and
/// issued cycles per request that running the same plans through a
/// gateway session charged. The mix runs twice on the gateway and the
/// second, warm pass is the one kept, as the replay's timed passes are
/// warm too.
fn replay_stream(spec: &FleetSpec, seed: u64) -> Result<(Stream, (f64, f64))> {
    let gw = spec.host(BackendKind::Functional)?;
    let client = gw.session()?;
    let dev = gw.device();
    let mut last = None;
    for _ in 0..2 {
        let mut s = Stream::new(spec.chip.clone());
        let before = Counters::of([dev])?;
        // Results stay allocated, so later plans cannot reuse their
        // stripes before the replay reads them back.
        let mut keep = Vec::new();
        for k in 0..F32_EVERY {
            let kind = if k == 0 { Kind::F32 } else { Kind::Int };
            let req = Req::new(spec, kind, seed ^ stream::WARMUP, 100 + k as u64);
            // Each plan runs before the next is built, so its operands
            // may go at the end of the iteration.
            let (instrs, r, _operands) = req.plan(&client)?;
            s.push(instrs.clone(), &[&r], &req.reference());
            block_on(client.submit(instrs))?;
            block_on(req.read(&client, &r))?;
            keep.push(r);
        }
        let mut counts = Outcome::default();
        Counters::of([dev])?.put_layers(&before, F32_EVERY as f64, &mut counts);
        let per_req = |name| counts.value(name).expect("counters were reported");
        last = Some((
            s,
            (
                per_req("func.micro_ops"),
                per_req("driver.issued_total_cycles"),
            ),
        ));
    }
    Ok(last.expect("two passes"))
}

fn gateway_stats(rig: &Rig) -> GatewayStats {
    let mut t = GatewayStats::default();
    for g in &rig.gateways {
        let s = g.stats();
        t.batches += s.batches;
        t.groups += s.groups;
        t.instructions += s.instructions;
        t.deferred += s.deferred;
        t.retries += s.retries;
        t.rejected_overload += s.rejected_overload;
    }
    t
}

pub fn run(spec: &FleetSpec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome> {
    let mut out = Outcome::default();
    let schedule = spec.schedule(seed);
    let mut setups = Vec::new();

    // One set-up before the first sweep, which runs on its fleet. The
    // other set-ups, the closed-loop probe behind `req_ms_*` and the
    // host-speed samples run in the sweep's pauses, spread over it like the
    // lib workloads' set-ups over their loop; set-ups and probes use fleets
    // of their own.
    let t = Instant::now();
    let mut rig = Some(build(spec, seed, &mut out)?);
    setups.push(t.elapsed().as_secs_f64());
    let mut probe_ms = Vec::new();
    let mut side = Outcome::default();
    let mut speed = HostSpeed::default();
    let mut idle: Option<Rig> = None;
    let mut pauses = 0;
    let mut pause = || -> Result<()> {
        speed.sample();
        pauses += 1;
        if setups.len() < SETUPS && pauses % SETUP_EVERY == 0 {
            let t = Instant::now();
            idle = Some(build(spec, seed, &mut side)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        if let Some(idle) = &idle {
            let from = probe_ms.len();
            let to = (from + PROBE_CHUNK).min(PROBE_PERIODS);
            probe_ms.extend(probe(spec, seed, idle, from..to, &mut side)?);
        }
        Ok(())
    };
    // Untraced sweeps, each on a fresh fleet, while the budget allows
    // another one of the same length.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let begin = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<Sweep> = None;
    let mut repeats_agree = true;
    loop {
        let rig = match rig.take() {
            Some(r) => r,
            None => build(spec, seed, &mut out)?,
        };
        let (sw, wall) = sweep(spec, &rig, seed, &schedule, &mut pause)?;
        walls.push(wall);
        drop(rig);
        match &first {
            None => first = Some(sw),
            Some(f) => repeats_agree &= *f == sw,
        }
        let left = budget - begin.elapsed().as_secs_f64();
        if left < walls[walls.len() - 1] {
            break;
        }
    }
    // A sweep shorter than the pauses need leaves the rest for now.
    while setups.len() < SETUPS {
        let t = Instant::now();
        idle = Some(build(spec, seed, &mut side)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let idle = idle.expect("set up above");
    while probe_ms.len() < PROBE_PERIODS {
        let from = probe_ms.len();
        let to = (from + PROBE_CHUNK).min(PROBE_PERIODS);
        probe_ms.extend(probe(spec, seed, &idle, from..to, &mut side)?);
    }
    drop(idle);
    out.absorb(side);
    out.require(
        repeats_agree,
        "repeated sweeps give identical modeled results",
    );
    let sw = first.expect("at least one sweep");
    let st = steps(spec, &sw, &schedule);
    let n = sw.latency.len();
    out.attempted += n as u64;
    out.failed += sw.refused + sw.wrong.len() as u64;
    out.require(
        sw.wrong.is_empty(),
        "every fleet output matches the host reference",
    );
    out.table.push(format!(
        "sweep: {} failed ({} refused at gateway admission, {} out of memory while planning), {} wrong outputs",
        sw.refused,
        sw.overloaded,
        sw.out_of_memory,
        sw.wrong.len()
    ));
    for (s, step) in st.iter().enumerate() {
        out.table.push(format!(
            "step {s}: {:>7.2} req/Mcycle {:>5} requests, failed {:>4}, wrong {:>3}, p50 {:>9} p99 {:>9} cycles, backlog {}, {}",
            step.rate,
            step.requests,
            step.failed,
            step.wrong,
            step.p50,
            // A failed request has no latency and counts as unbounded.
            if step.p99 == u64::MAX { "unbounded".to_string() } else { step.p99.to_string() },
            if step.grows { "growing" } else { "steady" },
            if step.passed { "meets the p99 limit" } else { "misses the p99 limit" }
        ));
        if step.rate < spec.knee_per_mcycle {
            out.require(step.failed + step.wrong == 0, "no failures below the knee");
        }
    }
    let completed = (n - sw.refused as usize).max(1) as f64;
    let wall_s = median(&walls);
    let cycles_per_req = sw.busy_cycles as f64 / completed;

    if !traced {
        let lat = &st[LAT_STEP];
        out.require(
            highest_supported(lat.requests, &[99.0]).is_some(),
            "enough requests at the reported step for lat_p99_cycles",
        );
        out.require(
            lat.failed + lat.wrong == 0,
            "no failures at the reported step",
        );
        out.host_times(
            &speed,
            [median(&setups), wall_s, percentile(&probe_ms, 50.0)],
            percentile(&probe_ms, 90.0),
        );
        out.e2e("modeled_cycles", cycles_per_req);
        out.e2e(
            "theory_gap",
            sw.issued_total as f64 / sw.issued_logic as f64 - 1.0,
        );
        out.e2e("lat_p50_cycles", lat.p50 as f64);
        out.e2e("lat_p99_cycles", lat.p99 as f64);
        out.e2e(
            "max_rate_per_mcycle",
            st.iter()
                .filter(|s| s.passed)
                .map(|s| s.rate)
                .fold(0.0, f64::max),
        );
        oracle(spec, seed, &sw, &schedule, &mut out)?;
        out.finish_e2e();
        return Ok(out);
    }

    // The traced sweep, on a fresh fleet, with counters around it.
    let rig = build(spec, seed, &mut out)?;
    let devices: Vec<Device> = rig.gateways.iter().map(|g| g.device().clone()).collect();
    let queue_wait = |g: &Gateway| g.telemetry().metrics().histogram("serve.queue_wait_cycles");
    let counters0 = Counters::of(&devices)?;
    let gw0 = gateway_stats(&rig);
    let fleet0 = rig.fleet.stats();
    let qw0: Vec<_> = rig.gateways.iter().map(|g| queue_wait(g).state()).collect();
    trace::set_enabled(true);
    let mut traced_speed = HostSpeed::default();
    let (tsw, wall_t) = sweep(spec, &rig, seed, &schedule, &mut || {
        traced_speed.sample();
        Ok(())
    })?;
    trace::set_enabled(false);
    out.attempted += n as u64;
    out.failed += tsw.refused + tsw.wrong.len() as u64;
    out.require(tsw == sw, "tracing leaves modeled results unchanged");
    let nf = n as f64;
    for l in Layer::ALL {
        out.span_row(l, nf);
    }
    let ms = |l: Layer, self_time: bool| {
        let t = trace::total(l);
        (if self_time { t.self_ns } else { t.inclusive_ns }) as f64 / 1e6 / nf
    };
    out.layer("fleet.self_ms", ms(Layer::Fleet, true));
    out.layer("serve.poll_ms", ms(Layer::ServePoll, false));
    out.layer("core.plan_ms", ms(Layer::CorePlan, false));
    out.layer("core.read_ms", ms(Layer::CoreRead, false));
    let fs = rig.fleet.stats();
    out.layer("fleet.requests", nf);
    out.layer("fleet.reissued", (fs.reissued - fleet0.reissued) as f64);
    out.layer("fleet.failovers", (fs.failovers - fleet0.failovers) as f64);
    out.layer(
        "fleet.heartbeats",
        (fs.heartbeats - fleet0.heartbeats) as f64,
    );
    let g = gateway_stats(&rig);
    let per = |a: u64, b: u64| (b - a) as f64 / nf;
    out.layer("serve.batches", per(gw0.batches, g.batches));
    out.layer("serve.groups", per(gw0.groups, g.groups));
    out.layer(
        "serve.batches_per_group",
        (g.batches - gw0.batches) as f64 / (g.groups - gw0.groups).max(1) as f64,
    );
    out.layer("serve.instructions", per(gw0.instructions, g.instructions));
    out.layer("serve.deferred", per(gw0.deferred, g.deferred));
    out.layer("serve.retries", per(gw0.retries, g.retries));
    out.layer(
        "serve.rejected",
        (g.rejected_overload - gw0.rejected_overload) as f64,
    );
    let qw: Vec<_> = rig
        .gateways
        .iter()
        .zip(&qw0)
        .map(|(g, q0)| queue_wait(g).state().since(q0))
        .collect();
    let worst = |q: f64| qw.iter().map(|h| h.quantile(q)).max().unwrap_or(0) as f64;
    out.layer("serve.queue_wait_p50_cycles", worst(0.5));
    out.layer("serve.queue_wait_p99_cycles", worst(0.99));
    Counters::of(&devices)?.put_layers(&counters0, completed, &mut out);
    out.layer(
        "bench.gen_late_p99_cycles",
        percentile(&tsw.late, 99.0) as f64,
    );
    out.layer(
        "bench.trace_overhead_frac",
        (wall_t / traced_speed.slowdown()) / (wall_s / speed.slowdown()) - 1.0,
    );
    out.layer("bench.host_slowdown", speed.slowdown());
    drop(rig);

    let (stream, workload) = replay_stream(spec, seed)?;
    let rp = replay::run(&stream, Duration::from_millis(500))?;
    out.replay_layers(&rp, workload);
    out.layer("host_ns_per_cycle", wall_s / nf * 1e9 / cycles_per_req);
    oracle(spec, seed, &sw, &schedule, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetSpec {
        FleetSpec {
            chip: PimConfig::small().with_crossbars(8).with_rows(16),
            f32_elems: 16,
            int_elems: 4,
            knee_per_mcycle: 200.0,
            step_requests: [10, 40, 20, 20],
            oracle_samples: 2,
            ..FleetSpec::default()
        }
    }

    fn modeled(spec: &FleetSpec, seed: u64) -> Sweep {
        let rig = build(spec, seed, &mut Outcome::default()).unwrap();
        sweep(spec, &rig, seed, &spec.schedule(seed), &mut || Ok(()))
            .unwrap()
            .0
    }

    #[test]
    fn same_seed_gives_identical_modeled_metrics() {
        let spec = tiny();
        let a = modeled(&spec, 3);
        assert!(a.wrong.is_empty());
        assert_eq!(a, modeled(&spec, 3));
        assert_ne!(a.outputs, modeled(&spec, 4).outputs);
    }

    #[test]
    fn schedule_offers_fixed_counts_and_mix() {
        let spec = FleetSpec::default();
        for seed in [1, 2] {
            let s = spec.schedule(seed);
            let counts: Vec<usize> = s.iter().map(Vec::len).collect();
            assert_eq!(counts, spec.step_requests);
            for step in &s {
                let f32s = step.iter().filter(|a| a.kind == Kind::F32).count();
                assert_eq!(f32s, step.len().div_ceil(F32_EVERY));
                assert!(step.windows(2).all(|w| w[0].at <= w[1].at));
            }
        }
    }

    #[test]
    fn oracle_accepts_the_sweep_and_catches_corruption() {
        let spec = tiny();
        let schedule = spec.schedule(5);
        let rig = build(&spec, 5, &mut Outcome::default()).unwrap();
        let (mut sw, _) = sweep(&spec, &rig, 5, &schedule, &mut || Ok(())).unwrap();
        let mut out = Outcome::default();
        oracle(&spec, 5, &sw, &schedule, &mut out).unwrap();
        assert!(out.correct());
        for o in sw.outputs.iter_mut().flatten() {
            *o = match o {
                Output::Scalar(v) => Output::Scalar(-*v),
                Output::Ints(v) => Output::Ints(v.iter().map(|x| x ^ 1).collect()),
                Output::Sorted(..) => unreachable!("fleet requests do not sort"),
            };
        }
        let mut out = Outcome::default();
        oracle(&spec, 5, &sw, &schedule, &mut out).unwrap();
        assert!(!out.correct());
    }

    /// At 1.4× the knee, requests pile up in the session windows until
    /// planning runs out of memory and allocations spill outside the
    /// windows. Requests that succeed must still return their own result:
    /// this fails (9 wrong of 2000 on seed 1) if `Req::plan` lets its
    /// operands go before the plan has run. Run with
    /// `cargo test --release -- --ignored --nocapture overload`.
    #[test]
    #[ignore]
    fn overload_keeps_outputs_correct() {
        let spec = FleetSpec {
            factors: [1.4; 4],
            step_requests: [2000; 4],
            ..FleetSpec::default()
        };
        let schedule = spec.schedule(1);
        let rig = build(&spec, 1, &mut Outcome::default()).unwrap();
        let (sw, _) = sweep(&spec, &rig, 1, &schedule[..1], &mut || Ok(())).unwrap();
        println!(
            "{} refused ({} out of memory), {} wrong of {}",
            sw.refused,
            sw.out_of_memory,
            sw.wrong.len(),
            sw.latency.len()
        );
        assert!(sw.out_of_memory > 0, "planning ran out of memory");
        assert!(
            sw.wrong.is_empty(),
            "requests that succeed return their own result"
        );
    }

    /// How `KNEE_PER_MCYCLE` was measured: one step per offered rate on a
    /// fresh fleet; the knee is the highest rate whose achieved rate
    /// (completions over the time to the last completion) stays within 5%
    /// of the offered one. Run with
    /// `cargo test --release -- --ignored --nocapture calibrate_knee`.
    #[test]
    #[ignore]
    fn calibrate_knee() {
        let rates = [60.0, 70.0, 75.0, 80.0, 85.0, 90.0, 100.0];
        for (rate, seed) in rates.into_iter().flat_map(|r| (1..=3).map(move |s| (r, s))) {
            let spec = FleetSpec {
                knee_per_mcycle: rate,
                factors: [1.0; 4],
                step_requests: [1000; 4],
                ..FleetSpec::default()
            };
            let schedule = spec.schedule(seed);
            let rig = build(&spec, seed, &mut Outcome::default()).unwrap();
            let (sw, _) = sweep(&spec, &rig, seed, &schedule[..1], &mut || Ok(())).unwrap();
            let st = steps(&spec, &sw, &schedule[..1]);
            let span = sw.finished.iter().max().unwrap() - sw.starts[0];
            let achieved = sw.latency.iter().flatten().count() as f64 / span as f64 * 1e6;
            println!(
                "offered {rate:>6.1} achieved {achieved:>6.1} req/Mcycle  p50 {:>8} p99 {:>8}  backlog {}",
                st[0].p50,
                st[0].p99,
                if st[0].grows { "growing" } else { "steady" }
            );
        }
    }
}
