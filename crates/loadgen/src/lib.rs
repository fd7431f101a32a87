//! # pim-loadgen
//!
//! An **open-loop traffic harness** for the serving stack, on the
//! modeled clock: seeded arrival schedules (Poisson / burst / ramp) drive
//! requests into [`pim_serve::Gateway`] or [`pim_fleet::Fleet`] sessions
//! at their scheduled modeled cycles *whether or not earlier requests
//! finished*, so overload actually queues — the behaviour a closed loop
//! (fixed in-flight count, inject-on-completion) structurally cannot
//! produce, because its offered load self-throttles to
//! `in-flight / latency`.
//!
//! The harness produces three artifacts per run:
//!
//! * a [`RunReport`] ([`run`]) — totals, whole-run latency/queue-wait
//!   summaries, the fleet control-plane activity (elections, failovers,
//!   re-issues), and the windowed time series
//!   ([`pim_telemetry::WindowSample`]s: per-window throughput, queue
//!   depth, in-flight, retries, and real windowed p50/p99/p999);
//! * an [`SloReport`] ([`run_slo`]) — per-window error-budget burn
//!   against a latency target, as stable machine-readable JSON;
//! * Perfetto counter tracks (queue depth, in-flight, per-shard
//!   utilization; live hosts on a fleet) recorded into the target's
//!   [`pim_telemetry::Telemetry`] at window boundaries, rendered by
//!   `export_chrome_trace`.
//!
//! [`latency_vs_load`] sweeps arrival-rate multipliers across fresh
//! targets and derives the **knee** (highest offered load with ≥ 95%
//! goodput), the **collapse point** (lowest offered load whose windowed
//! queue-wait p99 diverges), and the p99 at the ~70%-of-peak healthy
//! operating point — the `open_loop_*` rows of `BENCH_serve.json`.
//!
//! One driver serves both targets. On a fleet each request runs through
//! [`pim_fleet::FleetSession::run`]: sessions are placements that move on
//! failover, and a stale completion is discarded and re-issued against
//! the new placement — the `fleet_*` rows of `BENCH_serve.json`.
//!
//! ## Determinism
//!
//! Arrival schedules are materialized from the seed before the run
//! starts, and on **single-chip** hosts every future resolves inline on
//! the driving thread, so the same seed (and host fault schedule)
//! produces bit-identical reports (including the SLO JSON). Multi-chip
//! clusters execute on worker threads: reports there are statistically
//! stable, not bit-reproducible.
//!
//! ## Zero cost when unused
//!
//! Everything here is driver-side: nothing hooks the execution path, the
//! windowed sampler only reads snapshots when the *caller* closes a
//! window, and counter tracks record only while telemetry is enabled. A
//! binary that never runs a load sees no overhead.
//!
//! ## Example
//!
//! ```
//! use pim_arch::PimConfig;
//! use pim_loadgen::{
//!     run_slo, ArrivalProfile, ClassSpec, LoadgenConfig, RequestShape, SloConfig,
//! };
//! use pim_serve::{DeviceServeExt, ServeConfig};
//! use pypim_core::Device;
//!
//! # fn main() -> pypim_core::Result<()> {
//! let dev = Device::new(PimConfig::small().with_crossbars(4))?;
//! let gateway = dev.serve(ServeConfig {
//!     max_queue_depth: 0, // unbounded: overload queues instead of failing
//!     ..ServeConfig::default()
//! });
//! let cfg = LoadgenConfig {
//!     seed: 7,
//!     horizon_cycles: 200_000,
//!     window_cycles: 50_000,
//!     classes: vec![ClassSpec::new(
//!         "elementwise",
//!         RequestShape::Elementwise,
//!         ArrivalProfile::Poisson { rate: 100.0 },
//!         16,
//!     )],
//!     sessions_per_class: 1,
//!     ..LoadgenConfig::default()
//! };
//! let (report, slo) = run_slo(&gateway, &cfg, SloConfig::default())?;
//! assert_eq!(report.completed, report.injected);
//! assert!(slo.to_json().starts_with("{\"seed\":7"));
//! # Ok(())
//! # }
//! ```

mod driver;
mod profile;
mod shape;
mod slo;
mod target;

pub use driver::{run, ClassSpec, LoadgenConfig, RunReport, MODELED_CYCLES_PER_SEC};
pub use profile::{build_schedule, Arrival, ArrivalProfile};
pub use shape::{RequestShape, Template};
pub use slo::{latency_vs_load, run_slo, SloConfig, SloReport, SweepPoint, SweepReport, WindowSlo};

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::PimConfig;
    use pim_fault::HostFaultPlan;
    use pim_fleet::{Fleet, FleetConfig};
    use pim_serve::{DeviceServeExt, ServeConfig};
    use pypim_core::{CoreError, Device, Result};

    fn small_cfg() -> LoadgenConfig {
        LoadgenConfig {
            seed: 11,
            horizon_cycles: 300_000,
            window_cycles: 60_000,
            classes: vec![
                ClassSpec::new(
                    "elem",
                    RequestShape::Elementwise,
                    ArrivalProfile::Poisson { rate: 60.0 },
                    16,
                ),
                ClassSpec::new(
                    "fused",
                    RequestShape::Fused,
                    ArrivalProfile::Burst {
                        base: 20.0,
                        burst_size: 3,
                        period_cycles: 100_000,
                    },
                    16,
                ),
            ],
            sessions_per_class: 1,
            latency_target_cycles: 0,
            drain: true,
        }
    }

    fn single_chip_gateway() -> Result<pim_serve::Gateway> {
        let dev = Device::new(PimConfig::small().with_crossbars(8))?;
        Ok(dev.serve(ServeConfig {
            max_queue_depth: 0,
            ..ServeConfig::default()
        }))
    }

    #[test]
    fn open_loop_run_completes_every_request() -> Result<()> {
        let gateway = single_chip_gateway()?;
        let report = run(&gateway, &small_cfg())?;
        assert!(report.injected > 0, "schedule was empty");
        assert_eq!(report.completed + report.failed, report.injected);
        assert_eq!(report.failed, 0, "unbounded queue should not reject");
        assert!(report.latency.count == report.completed);
        assert!(!report.windows.is_empty(), "no windows closed");
        // Window counters sum back to the totals (deltas, not cumulative).
        let sum: u64 = report
            .windows
            .iter()
            .map(|w| w.counter("loadgen.injected"))
            .sum();
        assert_eq!(sum, report.injected);
        Ok(())
    }

    #[test]
    fn same_seed_same_report_single_chip() -> Result<()> {
        let slo = SloConfig {
            target_p99_cycles: 30_000,
            error_budget: 0.01,
        };
        let (ra, sa) = run_slo(&single_chip_gateway()?, &small_cfg(), slo)?;
        let (rb, sb) = run_slo(&single_chip_gateway()?, &small_cfg(), slo)?;
        assert_eq!(sa.to_json(), sb.to_json(), "SLO JSON must be bit-identical");
        assert_eq!(ra.windows, rb.windows, "window series must be identical");
        assert_eq!(ra.end_cycle, rb.end_cycle);
        Ok(())
    }

    fn two_host_fleet(fault: HostFaultPlan) -> Result<Fleet> {
        Fleet::new(FleetConfig {
            hosts: 2,
            chip: PimConfig::small().with_crossbars(8),
            serve: ServeConfig {
                max_queue_depth: 0,
                ..ServeConfig::default()
            },
            fault,
            ..FleetConfig::default()
        })
    }

    #[test]
    fn fleet_run_fault_free_completes_everything() -> Result<()> {
        let fleet = two_host_fleet(HostFaultPlan::none())?;
        let report = run(&fleet, &small_cfg())?;
        assert!(report.injected > 0);
        assert_eq!(report.completed + report.failed, report.injected);
        assert_eq!(report.failed, 0, "fault-free fleet must not fail requests");
        assert_eq!(report.reissued, 0);
        assert_eq!(report.fleet.failovers, 0);
        assert_eq!(report.fleet.leader_changes, 0, "leader elected before run");
        assert!(!report.windows.is_empty());
        Ok(())
    }

    #[test]
    fn fleet_run_matches_single_host_totals_and_is_reproducible() -> Result<()> {
        let cfg = small_cfg();
        let a = run(&two_host_fleet(HostFaultPlan::none())?, &cfg)?;
        let b = run(&two_host_fleet(HostFaultPlan::none())?, &cfg)?;
        assert_eq!(a.injected, b.injected);
        assert_eq!(
            a.end_cycle, b.end_cycle,
            "same seed must replay bit-identically"
        );
        assert_eq!(a.latency.p99, b.latency.p99);
        assert_eq!(a.windows, b.windows);
        Ok(())
    }

    #[test]
    fn fleet_run_leader_kill_fails_over_and_still_completes() -> Result<()> {
        let fleet = two_host_fleet(HostFaultPlan::none().crash_at(0, 100_000))?;
        let report = run(&fleet, &small_cfg())?;
        assert_eq!(report.fleet.failovers, 1, "one crash, one failover");
        assert_eq!(
            report.fleet.leader_changes, 1,
            "killing the leader must force exactly one re-election"
        );
        assert!(report.fleet.orphaned_sessions > 0);
        assert!(report.failover_cycles.count >= 1);
        assert_eq!(
            report.completed + report.failed,
            report.injected,
            "every request resolves — no hangs"
        );
        assert_eq!(report.failed, 0, "a survivor exists, so nothing may fail");
        Ok(())
    }

    #[test]
    fn sweep_derives_knee_and_collapse_fields() -> Result<()> {
        let mut base = small_cfg();
        base.horizon_cycles = 150_000;
        base.window_cycles = 30_000;
        base.drain = false;
        let sweep = latency_vs_load(
            single_chip_gateway,
            &base,
            &[0.5, 1.0],
            SloConfig::default(),
        )?;
        assert_eq!(sweep.points.len(), 2);
        assert!(sweep.knee_rps > 0.0);
        assert!(sweep.healthy.is_some_and(|i| i < sweep.points.len()));
        let json = sweep.to_json();
        assert!(json.contains("\"knee_rps\""), "{json}");
        assert!(json.contains("\"collapse_rps\""), "{json}");
        assert!(json.contains("\"p99_at_70pct_cycles\""), "{json}");
        Ok(())
    }

    #[test]
    fn fleet_sweep_reports_degraded_knee() -> Result<()> {
        let mut base = small_cfg();
        base.horizon_cycles = 150_000;
        base.window_cycles = 30_000;
        base.drain = false;
        let degraded_fleet = || two_host_fleet(HostFaultPlan::none().crash_at(0, 50_000));
        let factors = [0.5, 1.0];
        let sweep = latency_vs_load(degraded_fleet, &base, &factors, SloConfig::default())?;
        assert_eq!(sweep.points.len(), 2);
        assert!(sweep.knee_rps > 0.0);
        assert!(sweep.healthy.is_some_and(|i| i < sweep.points.len()));
        // Every operating point ran through the crash: one failover each,
        // with a measured detection latency.
        for factor in factors {
            let report = run(&degraded_fleet()?, &base.scaled(factor))?;
            assert_eq!(report.fleet.failovers, 1);
            assert!(report.failover_cycles.count >= 1);
            assert!(report.failover_cycles.p99 > 0);
        }
        Ok(())
    }

    #[test]
    fn invalid_configs_are_rejected_on_both_targets() -> Result<()> {
        let gateway = single_chip_gateway()?;
        let fleet = two_host_fleet(HostFaultPlan::none())?;
        let breakers: [fn(&mut LoadgenConfig); 4] = [
            |c| c.classes.clear(),
            |c| c.sessions_per_class = 0,
            |c| c.horizon_cycles = 0,
            |c| c.window_cycles = 0,
        ];
        for breaker in breakers {
            let mut cfg = small_cfg();
            breaker(&mut cfg);
            for res in [run(&gateway, &cfg), run(&fleet, &cfg)] {
                assert!(matches!(res, Err(CoreError::Protocol { .. })), "{res:?}");
            }
        }
        Ok(())
    }

    #[test]
    fn fleet_slo_run_counts_over_target() -> Result<()> {
        let fleet = two_host_fleet(HostFaultPlan::none())?;
        let slo = SloConfig {
            target_p99_cycles: 1,
            error_budget: 0.01,
        };
        let (report, verdict) = run_slo(&fleet, &small_cfg(), slo)?;
        assert!(report.completed > 0);
        assert_eq!(report.over_target, report.completed, "every latency > 1");
        assert_eq!(verdict.over_target, report.over_target);
        let windowed: u64 = verdict.windows.iter().map(|w| w.over_target).sum();
        assert_eq!(windowed, report.over_target);
        assert!(!verdict.met);
        Ok(())
    }
}
