//! Driver/backend attribution: a workload's ISA stream, planned through
//! the public `RequestPlan` calls, replayed through `pim_driver::Driver`
//! over a timed `FuncBackend` (driver self time vs backend time) and over
//! `SinkBackend` (the paper's Figure 13 host-driver rate). The replay reads
//! its results back and checks them, so a stream that does not compute the
//! workload's answer cannot be timed; and its micro-operations and issued
//! cycles per request are returned, so that the caller can require them to
//! equal the workload's own.

use crate::check::Output;
use crate::stats::median;
use crate::trace::TimedBackend;
use pim_arch::PimConfig;
use pim_driver::{Driver, SinkBackend};
use pim_func::FuncBackend;
use pim_isa::Instruction;
use pypim_core::{CoreError, Result, Tensor};
use std::time::{Duration, Instant};

/// One replayable stream: the instructions of `requests` requests and the
/// locations to read back afterwards, with the words they must hold.
pub struct Stream {
    pub cfg: PimConfig,
    pub instrs: Vec<Instruction>,
    pub reads: Vec<(u32, u32, u8)>,
    pub expect: Vec<u32>,
    pub requests: usize,
}

impl Stream {
    pub fn new(cfg: PimConfig) -> Stream {
        Stream {
            cfg,
            instrs: Vec::new(),
            reads: Vec::new(),
            expect: Vec::new(),
            requests: 0,
        }
    }

    /// Adds one request: its instructions, the tensor holding its result
    /// and the result it must read back.
    pub fn push(&mut self, instrs: Vec<Instruction>, result: &[&Tensor], expect: &Output) {
        self.instrs.extend(instrs);
        for t in result {
            self.reads.extend(t.element_locs());
        }
        self.expect.extend(expect.bits());
        self.requests += 1;
    }
}

/// What the replay measured, per request of the stream.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    pub instrs_per_req: f64,
    pub micro_ops_per_req: f64,
    pub driver_self_ns_per_instr: f64,
    pub func_ns_per_op: f64,
    pub func_busy_ms_per_req: f64,
    /// Backend time over driver plus backend time.
    pub func_share: f64,
    /// Micro-operations per second the driver streams into `SinkBackend`,
    /// over the PIM clock rate.
    pub headroom: f64,
    /// Issued cycles (all micro-operations) per request.
    pub issued_total_per_req: f64,
}

/// Replays `s` for at least `budget` (and three repetitions) on each
/// backend and reports medians over the repetitions.
pub fn run(s: &Stream, budget: Duration) -> Result<Replay> {
    let mut drv = Driver::new(TimedBackend::new(
        FuncBackend::new(s.cfg.clone()).map_err(pim_driver::DriverError::from)?,
    ));
    // First pass compiles the routines; it is checked, not timed.
    let got = pass(&mut drv, s)?;
    if got != s.expect {
        return Err(CoreError::Protocol {
            reason: "replayed ISA stream read back a wrong result".into(),
        });
    }
    let (mut total, mut backend, mut ops, mut issued) = (Vec::new(), Vec::new(), 0u64, 0u64);
    let start = Instant::now();
    while total.len() < 3 || start.elapsed() < budget {
        let ops0 = drv.backend().inner.profiler().ops.total();
        let issued0 = drv.issued().total;
        let b0 = drv.backend().ns;
        let t = Instant::now();
        std::hint::black_box(pass(&mut drv, s)?);
        total.push(t.elapsed().as_nanos() as f64);
        backend.push((drv.backend().ns - b0) as f64);
        ops = drv.backend().inner.profiler().ops.total() - ops0;
        issued = drv.issued().total - issued0;
    }
    let driver_self: Vec<f64> = total.iter().zip(&backend).map(|(t, b)| t - b).collect();

    let mut sink =
        Driver::new(SinkBackend::new(s.cfg.clone()).map_err(pim_driver::DriverError::from)?);
    for i in &s.instrs {
        sink.execute_streamed(i)?;
    }
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < 3 || start.elapsed() < budget / 2 {
        let before = sink.backend().total_ops();
        let t = Instant::now();
        for i in &s.instrs {
            sink.execute_streamed(i)?;
        }
        let secs = t.elapsed().as_secs_f64();
        rates.push((sink.backend().total_ops() - before) as f64 / secs);
    }
    std::hint::black_box(sink.backend().digest());

    let instrs = (s.instrs.len() + s.reads.len()) as f64;
    let reqs = s.requests as f64;
    Ok(Replay {
        instrs_per_req: instrs / reqs,
        micro_ops_per_req: ops as f64 / reqs,
        driver_self_ns_per_instr: median(&driver_self) / instrs,
        func_ns_per_op: median(&backend) / ops as f64,
        func_busy_ms_per_req: median(&backend) / reqs / 1e6,
        func_share: median(&backend) / median(&total),
        headroom: median(&rates) / s.cfg.clock_hz,
        issued_total_per_req: issued as f64 / reqs,
    })
}

fn pass(drv: &mut Driver<TimedBackend<FuncBackend>>, s: &Stream) -> Result<Vec<u32>> {
    drv.execute_all(&s.instrs)?;
    s.reads
        .iter()
        .map(|&(warp, row, reg)| {
            let v = drv.execute(&Instruction::Read { reg, warp, row })?;
            Ok(v.expect("reads return a word"))
        })
        .collect()
}
