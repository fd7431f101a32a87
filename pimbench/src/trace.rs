//! The benchmark's own tracing: wall-clock spans around its calls into
//! each layer's public functions, a timing wrapper for a `Backend`, and
//! the process's peak memory.
//!
//! Spans record nothing unless [`set_enabled`] turned them on, so the
//! untraced run pays one thread-local flag read per call site. A layer's
//! self time is its spans' time minus the time of spans nested in them.

use pim_arch::{ArchError, Backend, MicroOp, PimConfig};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

/// The layer a span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `FleetSession::run` polls and `Fleet::tick_now`.
    Fleet,
    /// The benchmark's attempt closures inside `FleetSession::run`.
    Attempt,
    /// Polls of `ExecFuture` (gateway pump; single-chip hosts execute
    /// inline here).
    ServePoll,
    /// `RequestPlan` building.
    CorePlan,
    /// Tensor uploads.
    CoreUpload,
    /// Element-parallel tensor operations.
    CoreCompute,
    /// Reductions (`sum_f32`, `max_f32`).
    CoreReduce,
    /// `Tensor::sorted`.
    CoreSort,
    /// Tensor read-back.
    CoreRead,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Fleet,
        Layer::Attempt,
        Layer::ServePoll,
        Layer::CorePlan,
        Layer::CoreUpload,
        Layer::CoreCompute,
        Layer::CoreReduce,
        Layer::CoreSort,
        Layer::CoreRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Fleet => "fleet",
            Layer::Attempt => "bench.attempt",
            Layer::ServePoll => "serve.poll",
            Layer::CorePlan => "core.plan",
            Layer::CoreUpload => "core.upload",
            Layer::CoreCompute => "core.compute",
            Layer::CoreReduce => "core.reduce",
            Layer::CoreSort => "core.sort",
            Layer::CoreRead => "core.read",
        }
    }
}

/// Accumulated time of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub inclusive_ns: u64,
    pub self_ns: u64,
    pub spans: u64,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static TOTALS: RefCell<[LayerTime; Layer::ALL.len()]> =
        RefCell::new([LayerTime::default(); Layer::ALL.len()]);
}

/// Turns span recording on or off for this thread; turning it on clears
/// the totals.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
    if on {
        TOTALS.with(|t| *t.borrow_mut() = [LayerTime::default(); Layer::ALL.len()]);
    }
}

pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Time recorded for `layer` since the last [`set_enabled`].
pub fn total(layer: Layer) -> LayerTime {
    let i = Layer::ALL
        .iter()
        .position(|&l| l == layer)
        .expect("listed layer");
    TOTALS.with(|t| t.borrow()[i])
}

/// An open span; closes on drop.
pub struct Span(bool);

pub fn span(layer: Layer) -> Span {
    if !enabled() {
        return Span(false);
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    Span(true)
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.pop().expect("span stack underflow");
            let ns = frame.start.elapsed().as_nanos() as u64;
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += ns;
            }
            let i = Layer::ALL
                .iter()
                .position(|&l| l == frame.layer)
                .expect("listed layer");
            TOTALS.with(|t| {
                let lt = &mut t.borrow_mut()[i];
                lt.inclusive_ns += ns;
                lt.self_ns += ns.saturating_sub(frame.child_ns);
                lt.spans += 1;
            });
        });
    }
}

/// Runs `f` inside a span of `layer`.
pub fn timed<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let _s = span(layer);
    f()
}

/// A future whose every poll is a span of `layer`.
pub struct Timed<F> {
    layer: Layer,
    inner: F,
}

impl<F> Timed<F> {
    pub fn new(layer: Layer, inner: F) -> Self {
        Timed { layer, inner }
    }
}

impl<F: Future + Unpin> Future for Timed<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let _s = span(self.layer);
        Pin::new(&mut self.inner).poll(cx)
    }
}

/// A backend wrapper that accumulates the wall time spent inside the
/// wrapped backend, so a driver replay can split driver self time from
/// backend time.
pub struct TimedBackend<B> {
    pub inner: B,
    pub ns: u64,
}

impl<B: Backend> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        TimedBackend { inner, ns: 0 }
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn config(&self) -> &PimConfig {
        self.inner.config()
    }

    fn execute(&mut self, op: &MicroOp) -> Result<Option<u32>, ArchError> {
        let t = Instant::now();
        let r = self.inner.execute(op);
        self.ns += t.elapsed().as_nanos() as u64;
        r
    }

    fn execute_batch(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        let t = Instant::now();
        let r = self.inner.execute_batch(ops);
        self.ns += t.elapsed().as_nanos() as u64;
        r
    }

    fn stream(&mut self, words: &[u64]) -> Result<(), ArchError> {
        let t = Instant::now();
        let r = self.inner.stream(words);
        self.ns += t.elapsed().as_nanos() as u64;
        r
    }
}

/// Time of one run of the reference kernel on the host the benchmark was
/// defined on (a 2-vCPU VM), in ms. Host times are reported at this
/// speed; see [`HostSpeed`].
pub const REFERENCE_MS: f64 = 5.0;

/// Runs the reference kernel once and returns its time in ms. It runs no
/// program code, so no change to the program can move it: a fixed mix of
/// shifts, multiplies and stores over a 256 KiB buffer, like the
/// functional backend's bitwise passes over its image.
pub fn reference_ms() -> f64 {
    let mut buf: Vec<u64> = (0..32_768).collect();
    let t = Instant::now();
    for round in 0..200 {
        for w in buf.iter_mut() {
            *w = (*w ^ (*w >> 7))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round);
        }
    }
    std::hint::black_box(&buf);
    t.elapsed().as_secs_f64() * 1e3
}

/// The host's speed during a run, from reference-kernel samples taken
/// between the run's timed stretches.
///
/// On a shared VM the same work takes 20–30% longer in one run than in
/// another a minute later, and the reference kernel slows with it: over
/// runs whose `lib_arith` block times spread by 25%, block time over
/// reference time spread by 5%. Host times that follow the run's mix of
/// host speeds (`setup_s`, `wall_s`, `req_ms_p50`) are therefore reported
/// divided by the run's [`slowdown`](HostSpeed::slowdown). `req_ms_p90`
/// is not: it sits in the host's slow stretches whenever they cover a
/// tenth of the run, and dividing it by the run's average slowdown made
/// it spread more, not less. The measured times and the slowdown go to
/// stderr, and a traced run reports the slowdown as
/// `bench.host_slowdown`.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    pub fn sample(&mut self) {
        self.samples_ms.push(reference_ms());
    }

    /// The run's median reference time over [`REFERENCE_MS`]: above 1
    /// when the host ran slower than the defining host.
    pub fn slowdown(&self) -> f64 {
        crate::stats::median(&self.samples_ms) / REFERENCE_MS
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    use std::ffi::c_int;
    use std::sync::OnceLock;

    const WORDS: usize = 16; // a 1024-CPU `cpu_set_t`
    type CpuSet = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }

    /// The CPUs the process could use before it pinned itself.
    static ALLOWED: OnceLock<CpuSet> = OnceLock::new();

    fn set(mask: &CpuSet) -> bool {
        // SAFETY: the pointer is valid for reads of `size_of_val(mask)`
        // bytes, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut allowed: CpuSet = [0; WORDS];
        // SAFETY: the pointer is valid for writes of the array's size, and
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) }
            != 0
        {
            return None;
        }
        let allowed = *ALLOWED.get_or_init(|| allowed);
        let cpu = (0..WORDS * 64).find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one).then_some(cpu)
    }

    pub fn unpin() -> bool {
        ALLOWED.get().is_some_and(set)
    }
}

/// Restricts this thread, and every thread it starts afterwards, to the
/// lowest CPU it may run on. Returns that CPU, or `None` when the affinity
/// calls fail (the run then proceeds unpinned).
///
/// Shard workers hand work to and from the calling thread thousands of
/// times per request. On a small shared VM, wake-ups across virtual CPUs
/// made whole runs of the cluster workload up to 3× slower while a
/// single-threaded run beside them was not; on one CPU the same runs
/// repeat within about 10%. The cost of those cross-CPU hand-offs is
/// therefore not in the pinned figures; `cluster.unpinned_req_ms` reports
/// it separately.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    affinity::pin_to_one_cpu()
}

/// Gives this thread, and threads it starts afterwards, back every CPU
/// the process could use before [`pin_to_one_cpu`]. Returns whether it
/// did.
#[cfg(target_os = "linux")]
pub fn unpin() -> bool {
    affinity::unpin()
}

/// Peak resident set size of this process, in MiB: `VmHWM` of
/// `/proc/self/status`. Not `getrusage`, whose maximum survives `execve`
/// and so reports the launching process (`cargo run`) when that was
/// larger.
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has VmHWM in kB");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        {
            let _outer = span(Layer::Fleet);
            std::thread::sleep(std::time::Duration::from_millis(2));
            timed(Layer::Attempt, || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        }
        let outer = total(Layer::Fleet);
        let inner = total(Layer::Attempt);
        assert_eq!(outer.inclusive_ns, outer.self_ns + inner.inclusive_ns);
        assert!(inner.inclusive_ns >= 4_000_000);
        set_enabled(false);
        drop(span(Layer::Fleet));
        assert_eq!(total(Layer::Fleet).spans, 1, "off records nothing more");
        set_enabled(true);
        assert_eq!(total(Layer::Fleet).spans, 0, "on starts from zero");
        set_enabled(false);
        assert!(peak_rss_mib() > 0.0);
    }
}
