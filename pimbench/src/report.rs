//! The metric catalogue and the run's outcome: every metric carries its
//! unit, and the last line of standard output is the JSON result.

use crate::check::Output;
use crate::replay::Replay;
use crate::trace::{self, HostSpeed, Layer, REFERENCE_MS};
use pim_driver::IssuedCycles;
use pim_sim::OpTypeCounts;
use pypim_core::{Device, Result};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (printed without `--trace`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_ms_p50", "ms"),
    ("req_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
    ("modeled_cycles", "cycles/req"),
    ("theory_gap", "ratio"),
    ("lat_p50_cycles", "cycles"),
    ("lat_p99_cycles", "cycles"),
    ("max_rate_per_mcycle", "req/Mcycle"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (printed with `--trace 1`), with units. A layer a
/// workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.gen_late_p99_cycles", "cycles"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
    ("bench.host_slowdown", "ratio"),
    ("fleet.requests", "count"),
    ("fleet.self_ms", "ms/req"),
    ("fleet.reissued", "count"),
    ("fleet.failovers", "count"),
    ("fleet.heartbeats", "count"),
    ("serve.batches", "count/req"),
    ("serve.groups", "count/req"),
    ("serve.batches_per_group", "ratio"),
    ("serve.instructions", "count/req"),
    ("serve.deferred", "count/req"),
    ("serve.retries", "count/req"),
    ("serve.rejected", "count"),
    ("serve.queue_wait_p50_cycles", "cycles"),
    ("serve.queue_wait_p99_cycles", "cycles"),
    ("serve.poll_ms", "ms/req"),
    ("core.plan_ms", "ms/req"),
    ("core.upload_ms", "ms/req"),
    ("core.compute_ms", "ms/req"),
    ("core.reduce_ms", "ms/req"),
    ("core.sort_ms", "ms/req"),
    ("core.read_ms", "ms/req"),
    ("cluster.messages", "count/req"),
    ("cluster.cross_words", "count/req"),
    ("cluster.link_cycles", "cycles/req"),
    ("cluster.barriers", "count/req"),
    ("cluster.moves_merged", "count/req"),
    ("cluster.shard_imbalance", "ratio"),
    ("cluster.worker_restarts", "count"),
    ("cluster.hop_ms", "ms/req"),
    ("cluster.unpinned_req_ms", "ms/req"),
    ("driver.cache_hits", "count/req"),
    ("driver.cache_misses", "count/req"),
    ("driver.cache_hit_ratio", "ratio"),
    ("driver.issued_logic_cycles", "cycles/req"),
    ("driver.issued_total_cycles", "cycles/req"),
    ("driver.mask_ops", "count/req"),
    ("driver.self_ns_per_instr", "ns/instr"),
    ("driver.headroom", "x"),
    ("func.micro_ops", "count/req"),
    ("func.ops.logic_h", "count/req"),
    ("func.ops.logic_v", "count/req"),
    ("func.ops.move", "count/req"),
    ("func.ops.write", "count/req"),
    ("func.ops.read", "count/req"),
    ("func.gates", "count/req"),
    ("func.busy_ms", "ms/req"),
    ("func.ns_per_op", "ns/op"),
    ("func.share", "ratio"),
    ("host_ns_per_cycle", "ns/cycle"),
    ("sim.checked", "count"),
    ("sim.mismatches", "count"),
];

/// The paper's §VI-B figures, printed beside the measured ones.
pub const PAPER_DISTANCE: &str =
    "paper §VI-B: 5% average / 16% worst distance from theoretical PIM";
pub const PAPER_HEADROOM: &str = "paper §VI-B: host driver 6.8x faster than PIM in the worst case";

fn unit_of(list: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    list.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Driver and backend counters of one or more devices, for deltas
/// around a traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    ops: OpTypeCounts,
    gates: u64,
    issued: IssuedCycles,
    hits: u64,
    misses: u64,
}

impl Counters {
    /// Sums the counters of `devs`.
    pub fn of<'a>(devs: impl IntoIterator<Item = &'a Device>) -> Result<Counters> {
        let mut c = Counters::default();
        for d in devs {
            let p = d.profiler()?;
            let (hits, misses) = d.cache_stats()?;
            let o = &mut c.ops;
            o.xb_mask += p.ops.xb_mask;
            o.row_mask += p.ops.row_mask;
            o.write += p.ops.write;
            o.read += p.ops.read;
            o.logic_h += p.ops.logic_h;
            o.logic_v += p.ops.logic_v;
            o.mv += p.ops.mv;
            c.gates += p.gates;
            c.issued += d.issued()?;
            c.hits += hits;
            c.misses += misses;
        }
        Ok(c)
    }

    /// Reports the driver and backend counts accumulated since `before`,
    /// per request over `requests` requests.
    pub fn put_layers(&self, before: &Counters, requests: f64, out: &mut Outcome) {
        let (a, b) = (&before.ops, &self.ops);
        let per = |x: u64, y: u64| (y - x) as f64 / requests;
        out.layer("func.micro_ops", per(a.total(), b.total()));
        out.layer("func.ops.logic_h", per(a.logic_h, b.logic_h));
        out.layer("func.ops.logic_v", per(a.logic_v, b.logic_v));
        out.layer("func.ops.move", per(a.mv, b.mv));
        out.layer("func.ops.write", per(a.write, b.write));
        out.layer("func.ops.read", per(a.read, b.read));
        out.layer("func.gates", per(before.gates, self.gates));
        out.layer(
            "driver.mask_ops",
            per(a.xb_mask + a.row_mask, b.xb_mask + b.row_mask),
        );
        let (hits, misses) = (self.hits - before.hits, self.misses - before.misses);
        out.layer("driver.cache_hits", hits as f64 / requests);
        out.layer("driver.cache_misses", misses as f64 / requests);
        out.layer(
            "driver.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let (ia, ib) = (before.issued, self.issued);
        out.layer("driver.issued_logic_cycles", per(ia.logic, ib.logic));
        out.layer("driver.issued_total_cycles", per(ia.total, ib.total));
    }
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Requests that failed, were refused or returned a wrong result.
    pub failed: u64,
    problems: Vec<String>,
    values: BTreeMap<String, f64>,
    /// Human-readable lines printed to standard error.
    pub table: Vec<String>,
    checked: u64,
    mismatches: u64,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64) {
        assert!(unit_of(END_TO_END, name).is_some(), "unknown metric {name}");
        self.values.insert(name.into(), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(unit_of(PER_LAYER, name).is_some(), "unknown metric {name}");
        self.values.insert(name.into(), value);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Takes over the requests and problems another outcome recorded.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    /// Records a failed correctness condition.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.problems.push(what.to_string());
        }
    }

    /// Checks one output against its reference.
    pub fn check(&mut self, what: &str, got: Option<&Output>, expect: &Output) {
        let ok = got.is_some_and(|g| g.same_bits(expect));
        self.require(
            ok,
            &format!("{what}: output differs from the host reference"),
        );
    }

    /// Records one bit-accurate oracle comparison.
    pub fn oracle(&mut self, ok: bool, what: &str) {
        self.checked += 1;
        if !ok {
            self.mismatches += 1;
            self.failed += 1;
            self.problems.push(format!(
                "{what}: bit-accurate replay differs in output or modeled cycles"
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Adds the end-to-end host times: `setup_s`, `wall_s` and `req_ms_p50`
    /// (`scaled`, as measured) at the defining host's speed, and
    /// `req_ms_p90` as measured. See [`HostSpeed`].
    pub fn host_times(&mut self, speed: &HostSpeed, scaled: [f64; 3], req_ms_p90: f64) {
        let slowdown = speed.slowdown();
        let mut raw = String::new();
        for (name, v) in ["setup_s", "wall_s", "req_ms_p50"].into_iter().zip(scaled) {
            self.e2e(name, v / slowdown);
            let _ = write!(raw, " {name} {v:.6}");
        }
        self.e2e("req_ms_p90", req_ms_p90);
        self.table.push(format!(
            "host slowdown {slowdown:.4} (reference kernel against {REFERENCE_MS} ms); as measured:{raw}"
        ));
    }

    /// Adds the metrics every untraced run reports the same way.
    pub fn finish_e2e(&mut self) {
        self.e2e("peak_rss_mib", trace::peak_rss_mib());
        self.e2e(
            "ok_frac",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
        );
    }

    /// Adds the driver replay's metrics. The replay
    /// must issue the micro-operations and cycles per request that the
    /// workload's own execution charged (`workload`, in that order), or
    /// its timings would attribute another program.
    pub fn replay_layers(&mut self, r: &Replay, workload: (f64, f64)) {
        let same = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        self.require(
            same(r.micro_ops_per_req, workload.0) && same(r.issued_total_per_req, workload.1),
            &format!(
                "driver replay issues {} micro-ops and {} cycles per request, the workload {} and {}",
                r.micro_ops_per_req, r.issued_total_per_req, workload.0, workload.1
            ),
        );
        self.layer("driver.self_ns_per_instr", r.driver_self_ns_per_instr);
        self.layer("driver.headroom", r.headroom);
        self.layer("func.busy_ms", r.func_busy_ms_per_req);
        self.layer("func.ns_per_op", r.func_ns_per_op);
        self.layer("func.share", r.func_share);
        self.table.push(format!(
            "driver replay: {:.0} instr/req, {:.0} micro-ops/req, driver self {:.0} ns/instr, \
             backend {:.1} ns/op, headroom {:.2}x ({PAPER_HEADROOM})",
            r.instrs_per_req,
            r.micro_ops_per_req,
            r.driver_self_ns_per_instr,
            r.func_ns_per_op,
            r.headroom
        ));
    }

    /// One row of the self-time table for `layer`, per request.
    pub fn span_row(&mut self, layer: Layer, requests: f64) {
        let t = trace::total(layer);
        if t.spans > 0 {
            self.table.push(format!(
                "{:<14} self {:>9.3} ms/req  inclusive {:>9.3} ms/req  spans {}",
                layer.name(),
                t.self_ns as f64 / 1e6 / requests,
                t.inclusive_ns as f64 / 1e6 / requests,
                t.spans
            ));
        }
    }

    /// The result line: the end-to-end metrics, or with `traced` the
    /// per-layer ones.
    pub fn json(&mut self, traced: bool) -> String {
        if traced {
            let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
            self.values.insert("bench.failed_frac".into(), failed_frac);
            self.values
                .insert("sim.checked".into(), self.checked as f64);
            self.values
                .insert("sim.mismatches".into(), self.mismatches as f64);
        }
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = match self.values.get(*name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if !v.is_finite() {
                self.problems.push(format!("metric {name} is not finite"));
            }
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The human-readable report: problems, the self-time table and every
    /// metric with its unit.
    pub fn render(&self, traced: bool) -> String {
        let mut s = String::new();
        for p in &self.problems {
            let _ = writeln!(s, "INCORRECT: {p}");
        }
        for line in &self.table {
            let _ = writeln!(s, "{line}");
        }
        let list = if traced { PER_LAYER } else { END_TO_END };
        for (name, unit) in list {
            if let Some(v) = self.values.get(*name) {
                let _ = write!(s, "{name:<30} {v:>16.6} {unit}");
                match *name {
                    "theory_gap" => {
                        let _ = write!(s, "   ({PAPER_DISTANCE})");
                    }
                    "driver.headroom" => {
                        let _ = write!(s, "   ({PAPER_HEADROOM})");
                    }
                    _ => {}
                }
                let _ = writeln!(s);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_metric_with_its_unit() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.e2e(name, 1.5);
        }
        let j = o.json(false);
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        assert!(j.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let j = o.json(true);
        assert!(j.contains("\"sim.mismatches\": {\"value\": 0.0, \"unit\": \"count\"}"));
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "metric names are unique");
    }

    #[test]
    fn oracle_mismatch_fails_the_run() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.oracle(true, "a");
        assert!(o.correct());
        o.oracle(false, "b");
        assert!(!o.correct());
        assert_eq!(o.failed, 1);
        o.json(true);
        assert_eq!(o.value("sim.mismatches"), Some(1.0));
        assert_eq!(o.value("bench.failed_frac"), Some(0.25));
    }
}
