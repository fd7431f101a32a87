//! What the open loop drives: a [`Gateway`] or a [`Fleet`]. The
//! [`Target`] trait carries only what differs between them. On a fleet a
//! request's future is [`FleetSession::run`], so the fleet owns failover
//! and re-issue, and the driver sees one completion per request.

use crate::driver::ClassSpec;
use crate::shape::{RequestShape, Template};
use pim_fleet::{Fleet, FleetSession};
use pim_isa::Instruction;
use pim_serve::{ClusterClient, ExecFuture, Gateway};
use pim_telemetry::{MetricsSnapshot, Telemetry};
use pypim_core::Result;
use std::cell::RefCell;
use std::future::{poll_fn, ready, Future};
use std::pin::Pin;
use std::task::Poll;

/// One issued request: resolves to its batch's completion cycle.
pub type Completion<'a> = Pin<Box<dyn Future<Output = Result<Option<u64>>> + 'a>>;

/// Records the target's counter tracks at a window close `(at, width)`.
pub type Tracks<'a> = Box<dyn FnMut(u64, u64) -> Result<()> + 'a>;

/// A load target; sealed (not nameable outside the crate).
pub trait Target {
    /// One pool entry: a session plus its replay template.
    type Session;

    /// The modeled clock and metrics registry the run uses.
    fn telemetry(&self) -> &Telemetry;

    /// Arms or disarms recording (execution only charges the modeled
    /// clock while telemetry records).
    fn set_recording(&self, enabled: bool);

    /// Opens one session for `class`.
    fn open(&self, class: &ClassSpec) -> Result<Self::Session>;

    /// Issues one request on `session`. Its first poll admits the request
    /// and returns `Pending` without executing it (or resolves at once to
    /// an error if the request cannot be placed).
    fn issue<'a>(&self, session: &'a Self::Session) -> Completion<'a>;

    /// The current modeled cycle; on a fleet also one control-plane step.
    fn step(&self) -> u64;

    /// One metrics snapshot across the target.
    fn metrics_snapshot(&self) -> Result<MetricsSnapshot>;

    /// The target's per-window counter tracks.
    fn tracks(&self) -> Tracks<'_>;
}

/// Awaits an admitted batch after yielding once, so a request issued at
/// injection is admitted then but executes only when the driver sweeps.
async fn completion(mut fut: ExecFuture) -> Result<Option<u64>> {
    let mut yielded = false;
    poll_fn(|cx| {
        if yielded {
            return Poll::Ready(());
        }
        yielded = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    })
    .await;
    (&mut fut).await?;
    Ok(fut.completed_at())
}

impl Target for Gateway {
    type Session = (ClusterClient, Template);

    fn telemetry(&self) -> &Telemetry {
        Gateway::telemetry(self)
    }

    fn set_recording(&self, enabled: bool) {
        self.telemetry().set_enabled(enabled);
    }

    fn open(&self, class: &ClassSpec) -> Result<Self::Session> {
        let client = self.session()?;
        let template = Template::build(&client, class.shape, class.elems)?;
        Ok((client, template))
    }

    fn issue<'a>(&self, (client, template): &'a Self::Session) -> Completion<'a> {
        Box::pin(completion(client.submit(template.instrs.clone())))
    }

    fn step(&self) -> u64 {
        self.telemetry().now()
    }

    fn metrics_snapshot(&self) -> Result<MetricsSnapshot> {
        self.device().metrics_snapshot()
    }

    /// Queue depth and in-flight gauges, plus per-shard utilization from
    /// profiler cycle deltas on a cluster.
    fn tracks(&self) -> Tracks<'_> {
        let telemetry = self.telemetry();
        let queue_depth = telemetry.counter_track("serve/queue_depth");
        let in_flight = telemetry.counter_track("serve/in_flight");
        let mut shards = Vec::new();
        Box::new(move |at, width| {
            let metrics = telemetry.metrics();
            queue_depth.record(at, metrics.gauge("serve.queue_depth").get() as f64);
            in_flight.record(at, metrics.gauge("serve.in_flight").get() as f64);
            if let Some(stats) = self.device().cluster_stats()? {
                if shards.is_empty() {
                    shards = stats
                        .shards
                        .iter()
                        .map(|s| {
                            (
                                telemetry.counter_track(&format!("shard{}/util", s.shard)),
                                0,
                            )
                        })
                        .collect();
                }
                for ((track, prev), s) in shards.iter_mut().zip(&stats.shards) {
                    let delta = s.profiler.cycles.saturating_sub(*prev);
                    *prev = s.profiler.cycles;
                    track.record(at, 100.0 * delta as f64 / width.max(1) as f64);
                }
            }
            Ok(())
        })
    }
}

/// A fleet session and its replay template, bound to the placement
/// generation it was built on.
pub struct Placement {
    session: FleetSession,
    shape: RequestShape,
    elems: usize,
    template: RefCell<Option<(u64, Template)>>,
}

impl Placement {
    /// The template's batch for `client`, the session's current
    /// placement; (re)builds the template when the placement moved.
    fn instrs(&self, client: &ClusterClient) -> Result<Vec<Instruction>> {
        let generation = self.session.generation();
        let mut cached = self.template.borrow_mut();
        let (_, template) = match &mut *cached {
            Some(bound) if bound.0 == generation => bound,
            slot => slot.insert((generation, Template::build(client, self.shape, self.elems)?)),
        };
        Ok(template.instrs.clone())
    }
}

impl Target for Fleet {
    type Session = Placement;

    fn telemetry(&self) -> &Telemetry {
        Fleet::telemetry(self)
    }

    fn set_recording(&self, enabled: bool) {
        self.set_telemetry_enabled(enabled);
    }

    /// Places the session; its template binds at the first attempt on
    /// each placement.
    fn open(&self, class: &ClassSpec) -> Result<Placement> {
        Ok(Placement {
            session: self.session()?,
            shape: class.shape,
            elems: class.elems,
            template: RefCell::new(None),
        })
    }

    fn issue<'a>(&self, p: &'a Placement) -> Completion<'a> {
        Box::pin(p.session.run(move |client| match p.instrs(client) {
            Ok(instrs) => Box::pin(completion(client.submit(instrs))),
            Err(e) => Box::pin(ready(Err(e))),
        }))
    }

    fn step(&self) -> u64 {
        self.tick_now()
    }

    fn metrics_snapshot(&self) -> Result<MetricsSnapshot> {
        Fleet::metrics_snapshot(self)
    }

    /// Live hosts over time.
    fn tracks(&self) -> Tracks<'_> {
        let live = self.telemetry().counter_track("fleet/live_hosts");
        Box::new(move |at, _| {
            live.record(at, self.live_hosts() as f64);
            Ok(())
        })
    }
}
