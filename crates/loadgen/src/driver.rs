//! The open-loop driver: injects requests at their scheduled modeled
//! cycles regardless of completion, polls the in-flight set from one host
//! thread, and closes windowed samples as the modeled clock crosses
//! window boundaries. One loop serves every [`Target`]: a gateway or a
//! fleet.
//!
//! **Open loop** means arrival times come from the schedule, not from
//! completions: when the target falls behind, requests keep arriving and
//! queue — which is exactly the overload behaviour (diverging queue-wait
//! tails) a closed-loop harness structurally cannot produce, because it
//! never offers more than `in-flight × 1/latency`.
//!
//! **Determinism**: on single-chip hosts the whole run executes inline
//! on this thread — futures resolve during their poll, the modeled clock
//! advances only through execution, the fleet's control plane and the
//! driver's idle jumps, and the schedule is materialized from the seed up
//! front. The same seed (and fault schedule) therefore produces
//! bit-identical reports. Multi-chip clusters execute on worker threads;
//! their reports are statistically stable but not bit-reproducible.

use crate::profile::{build_schedule, ArrivalProfile};
use crate::shape::RequestShape;
use crate::target::{Completion, Target};
use pim_fleet::FleetStats;
use pim_telemetry::{HistogramSnapshot, HistogramState, WindowSample, WindowSampler};
use pypim_core::{CoreError, Result};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};
use std::time::Duration;

/// Modeled cycles per modeled second in every `*_rps` figure — the trace
/// export's 1 cycle = 1 µs convention, so a profile rate of `n` reads as
/// `n` requests per modeled second.
pub const MODELED_CYCLES_PER_SEC: f64 = 1e6;

/// One traffic class: a request shape, its arrival process, and its
/// tensor size.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Class name in reports and tables.
    pub name: String,
    /// Request shape this class issues.
    pub shape: RequestShape,
    /// Arrival process over the horizon.
    pub profile: ArrivalProfile,
    /// Elements per request tensor.
    pub elems: usize,
}

impl ClassSpec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        shape: RequestShape,
        profile: ArrivalProfile,
        elems: usize,
    ) -> Self {
        ClassSpec {
            name: name.into(),
            shape,
            profile,
            elems,
        }
    }
}

/// Full specification of one open-loop run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Seed for every arrival schedule (same seed → same schedule).
    pub seed: u64,
    /// Modeled cycles of scheduled arrivals.
    pub horizon_cycles: u64,
    /// Window width for the time series.
    pub window_cycles: u64,
    /// Traffic classes (session pools and templates are per class).
    pub classes: Vec<ClassSpec>,
    /// Sessions per class; arrivals round-robin across them by sequence
    /// number.
    pub sessions_per_class: usize,
    /// Latency SLO target in modeled cycles; completions above it count
    /// into the `loadgen.over_target` counter. `0` disables.
    pub latency_target_cycles: u64,
    /// Keep polling after the last arrival until every request resolves
    /// (`true`), or abandon outstanding work at the horizon (`false`;
    /// collapse sweeps use this so a saturated point terminates).
    pub drain: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: 1,
            horizon_cycles: 1_000_000,
            window_cycles: 100_000,
            classes: Vec::new(),
            sessions_per_class: 2,
            latency_target_cycles: 0,
            drain: true,
        }
    }
}

impl LoadgenConfig {
    /// Offered load over the horizon, requests per modeled second.
    pub fn offered_rps(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.profile.mean_rate(self.horizon_cycles))
            .sum()
    }

    /// Returns the config with every class's arrival profile scaled by
    /// `factor` (the sweep knob).
    pub fn scaled(&self, factor: f64) -> LoadgenConfig {
        let mut out = self.clone();
        for c in &mut out.classes {
            c.profile = c.profile.scaled(factor);
        }
        out
    }
}

/// What one open-loop run produced: totals, final latency summaries, the
/// control-plane activity the run provoked, and the windowed time series.
///
/// Fields a target cannot fill read zero: a gateway has no control plane
/// (`reissued`, `failover_cycles` and `fleet` stay zero), and a fleet
/// keeps its queue waits in per-host namespaces (`queue_wait` stays
/// zero).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Seed the schedule was generated from.
    pub seed: u64,
    /// Scheduled horizon in modeled cycles.
    pub horizon_cycles: u64,
    /// Window width of [`windows`](RunReport::windows).
    pub window_cycles: u64,
    /// Requests injected (== scheduled arrivals).
    pub injected: u64,
    /// Requests that resolved successfully (including after the horizon,
    /// during drain; on a fleet, against a still-current placement).
    pub completed: u64,
    /// Successful completions whose completion cycle was within the
    /// horizon — the numerator of `achieved_rps`.
    pub completed_in_horizon: u64,
    /// Requests that resolved with an error (admission rejections under a
    /// bounded queue, deadline misses, shard faults, evicted fleet
    /// sessions) — never hangs.
    pub failed: u64,
    /// Successful completions above
    /// [`latency_target_cycles`](LoadgenConfig::latency_target_cycles).
    pub over_target: u64,
    /// Fleet request attempts discarded and issued again (stale
    /// generation after a failover, or a transient placement failure).
    pub reissued: u64,
    /// Modeled cycle the run ended at.
    pub end_cycle: u64,
    /// Offered load: injected per modeled second of horizon.
    pub offered_rps: f64,
    /// Achieved goodput: in-horizon completions per modeled second.
    pub achieved_rps: f64,
    /// End-to-end latency (completion − *scheduled* arrival, so queueing
    /// before admission and fleet failover delay are included), whole
    /// run.
    pub latency: HistogramSnapshot,
    /// Gateway queue wait (admission → submission), whole run.
    pub queue_wait: HistogramSnapshot,
    /// Fleet failover detection latency (`fleet.failover_cycles`), whole
    /// run.
    pub failover_cycles: HistogramSnapshot,
    /// Fleet control-plane counter deltas over the run.
    pub fleet: FleetStats,
    /// The windowed time series (counters are per-window deltas).
    pub windows: Vec<WindowSample>,
}

impl RunReport {
    /// Fraction of offered load achieved within the horizon.
    pub fn goodput_ratio(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.completed_in_horizon as f64 / self.injected as f64
    }
}

/// The polling loop's waker: shard workers unpark the driving thread
/// through the futures' registered wakers; the driver parks with a short
/// timeout so a missed wake only costs the timeout.
struct Unparker(Thread);

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Restores the target's recording state on drop (the run needs it on so
/// execution charges the modeled clock; a caller that had it off gets it
/// back off even on error paths).
struct Armed<'a, T: Target> {
    target: &'a T,
    prev: bool,
}

impl<T: Target> Drop for Armed<'_, T> {
    fn drop(&mut self) {
        self.target.set_recording(self.prev);
    }
}

/// Histograms a run summarizes and windows; one the target does not
/// register reads zero.
const WATCHED: [&str; 3] = [
    "loadgen.latency_cycles",
    "serve.queue_wait_cycles",
    "fleet.failover_cycles",
];

/// Runs one open-loop load against `target` — a
/// [`Gateway`](pim_serve::Gateway) or a [`Fleet`](pim_fleet::Fleet) (see
/// the module docs for the loop's semantics and determinism guarantees).
///
/// Overload studies should build the gateway (or the fleet's hosts) with
/// `max_queue_depth: 0` (unbounded session queues): with the default
/// bounded queues, offered load beyond the bound fast-fails with
/// `Overloaded` instead of queueing, and the run measures admission-loss
/// rather than queueing collapse.
///
/// On a fleet a request re-issued after a failover keeps its *original*
/// scheduled cycle, so measured latency includes failover detection and
/// re-placement.
///
/// # Errors
///
/// Fails with [`CoreError::Protocol`] on an empty/zero config; fails on
/// session or template setup errors (e.g. warp space too small for
/// `classes × sessions_per_class` windows), or if a stats snapshot fails
/// mid-run. Individual request failures do **not** fail the run — they
/// count into [`RunReport::failed`]. That includes a fleet's template
/// errors, since a template binds at each placement's first attempt.
pub fn run<T: Target>(target: &T, cfg: &LoadgenConfig) -> Result<RunReport> {
    let invalid = |reason: &str| CoreError::Protocol {
        reason: format!("loadgen config: {reason}"),
    };
    if cfg.classes.is_empty() {
        return Err(invalid("no traffic classes"));
    }
    if cfg.sessions_per_class == 0 {
        return Err(invalid("sessions_per_class must be at least 1"));
    }
    if cfg.horizon_cycles == 0 || cfg.window_cycles == 0 {
        return Err(invalid("horizon_cycles and window_cycles must be nonzero"));
    }

    let telemetry = target.telemetry().clone();
    let _armed = Armed {
        target,
        prev: telemetry.is_enabled(),
    };
    target.set_recording(true);

    // Session pools, one per class. Building templates allocates every
    // tensor the run will touch; injection itself only clones
    // instruction vectors.
    let pools = cfg
        .classes
        .iter()
        .map(|class| {
            (0..cfg.sessions_per_class)
                .map(|_| target.open(class))
                .collect::<Result<Vec<_>>>()
        })
        .collect::<Result<Vec<_>>>()?;

    let profiles: Vec<ArrivalProfile> = cfg.classes.iter().map(|c| c.profile).collect();
    let schedule = build_schedule(&profiles, cfg.seed, cfg.horizon_cycles);

    let metrics = telemetry.metrics();
    let injected_c = metrics.counter("loadgen.injected");
    let completed_c = metrics.counter("loadgen.completed");
    let failed_c = metrics.counter("loadgen.failed");
    let over_target_c = metrics.counter("loadgen.over_target");
    let latency_h = metrics.histogram("loadgen.latency_cycles");
    let base = target.metrics_snapshot()?;

    let mut sampler = WindowSampler::new(cfg.window_cycles);
    let watched: Vec<_> = WATCHED
        .iter()
        .filter(|&&name| base.histograms.contains_key(name))
        .map(|&name| {
            let h = metrics.histogram(name);
            sampler.watch_histogram(name, &h);
            (name, h.state(), h)
        })
        .collect();
    let mut tracks = target.tracks();

    let waker = Waker::from(Arc::new(Unparker(thread::current())));
    let mut cx = Context::from_waker(&waker);

    let start = target.step();
    let horizon_end = start + cfg.horizon_cycles;
    let mut pending: Vec<(Completion<'_>, u64)> = Vec::new();
    let mut next = 0usize;
    let (mut injected, mut completed, mut completed_in_horizon, mut failed, mut over_target) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut settle = |res: Result<Option<u64>>, scheduled: u64| match res {
        Ok(done_at) => {
            // The batch's completion stamp, not the clock at poll time:
            // one pump can drain many groups before this sweep resumes,
            // and the clock has then moved past all of them.
            let done_at = done_at.unwrap_or_else(|| telemetry.now());
            let lat = done_at.saturating_sub(scheduled);
            latency_h.record(lat);
            completed += 1;
            completed_c.inc();
            if done_at <= horizon_end {
                completed_in_horizon += 1;
            }
            if cfg.latency_target_cycles > 0 && lat > cfg.latency_target_cycles {
                over_target += 1;
                over_target_c.inc();
            }
        }
        Err(_) => {
            failed += 1;
            failed_c.inc();
        }
    };

    loop {
        let now = target.step();

        // Inject every arrival due by the current modeled time. Late
        // injection (now past the scheduled cycle because execution
        // advanced the clock in a jump) is correct open-loop accounting:
        // latency is measured from the *scheduled* cycle, so time spent
        // waiting for the driver to reach the arrival is queueing delay.
        // The first poll admits the request without executing it.
        while next < schedule.len() && start + schedule[next].cycle <= now {
            let a = schedule[next];
            next += 1;
            injected += 1;
            injected_c.inc();
            let mut fut = target.issue(&pools[a.class][a.seq as usize % cfg.sessions_per_class]);
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(res) => settle(res, start + a.cycle),
                Poll::Pending => pending.push((fut, start + a.cycle)),
            }
        }

        // Close windows as the clock crosses boundaries.
        if sampler.ready(now) {
            sampler.sample(now, target.metrics_snapshot()?);
            tracks(now, cfg.window_cycles)?;
        }

        if pending.is_empty() {
            match schedule.get(next) {
                // Idle: jump the clock to the next arrival, but stop at
                // window boundaries on the way so the series keeps its
                // grid resolution across idle gaps.
                Some(a) => {
                    let boundary = (now / cfg.window_cycles + 1) * cfg.window_cycles;
                    telemetry.advance_clock((start + a.cycle).min(boundary));
                    continue;
                }
                None => break,
            }
        }

        if !cfg.drain && next >= schedule.len() && now >= horizon_end {
            break; // Abandon outstanding work: saturated sweep points end.
        }

        // Poll the in-flight set. On single-chip hosts each poll executes
        // queued groups inline, so this sweep both advances the modeled
        // clock and retires requests.
        let mut progressed = false;
        let mut i = 0;
        while i < pending.len() {
            match pending[i].0.as_mut().poll(&mut cx) {
                Poll::Pending => i += 1,
                Poll::Ready(res) => {
                    progressed = true;
                    let (_, scheduled) = pending.swap_remove(i);
                    settle(res, scheduled);
                }
            }
        }

        if !progressed {
            // Cluster-only path: work is on shard threads and nothing
            // retired this sweep. Park until a completion wakes us (or a
            // short timeout guards against a missed wake).
            thread::park_timeout(Duration::from_micros(200));
        }
    }

    // Close the partial tail window so the series covers the whole run.
    let end_cycle = target.step();
    let tail_start = sampler.last().map_or(start, |w| w.end);
    if end_cycle > tail_start {
        sampler.sample(end_cycle, target.metrics_snapshot()?);
        tracks(end_cycle, cfg.window_cycles)?;
    }

    let delta = target.metrics_snapshot()?.since(&base);
    let count = |name: &str| delta.counters.get(name).copied().unwrap_or(0);
    let summary = |name: &str| {
        watched
            .iter()
            .find(|w| w.0 == name)
            .map_or(HistogramState::empty(), |(_, base, h)| {
                h.state().since(base)
            })
            .summary()
    };
    let horizon_secs = cfg.horizon_cycles as f64 / MODELED_CYCLES_PER_SEC;
    Ok(RunReport {
        seed: cfg.seed,
        horizon_cycles: cfg.horizon_cycles,
        window_cycles: cfg.window_cycles,
        injected,
        completed,
        completed_in_horizon,
        failed,
        over_target,
        reissued: count("fleet.reissued"),
        end_cycle,
        offered_rps: injected as f64 / horizon_secs,
        achieved_rps: completed_in_horizon as f64 / horizon_secs,
        latency: summary("loadgen.latency_cycles"),
        queue_wait: summary("serve.queue_wait_cycles"),
        failover_cycles: summary("fleet.failover_cycles"),
        fleet: FleetStats {
            leader_changes: count("fleet.leader_changes"),
            failovers: count("fleet.failovers"),
            orphaned_sessions: count("fleet.orphaned_sessions"),
            reissued: count("fleet.reissued"),
            heartbeats: count("fleet.heartbeats"),
            sessions: count("fleet.sessions"),
        },
        windows: sampler.samples().cloned().collect(),
    })
}
