//! Timing decorators over the simulator's public layer boundaries.
//!
//! The engine talks to exactly two layers through traits: the op source
//! (`OpSource`: the trace) and the device (`DeviceModel`: DRAM tier and
//! PCM scheme). Wrapping those trait objects here yields per-layer host
//! time without any span inside the simulator. A decorator only forwards
//! and reads the clock, so decorated runs must produce byte-identical
//! reports; the traced pass checks that on every run.

use readduo_memsim::{DeviceModel, ReadOutcome, ScrubOutcome, WriteOutcome};
use readduo_trace::{MemOp, OpSource};
use std::hint::black_box;
use std::time::Instant;

/// Calls made through one decorated entry point and the host time the
/// decorator recorded around them (raw, before calibration).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

impl Tally {
    #[inline(always)]
    fn add(&mut self, since: Instant) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    /// Recorded time minus the timer's own share (`t_in` per call).
    pub fn work_ns(&self, cal: &Calibration) -> f64 {
        self.ns as f64 - self.calls as f64 * cal.t_in
    }
}

/// Per-entry-point tallies of one device boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceTally {
    pub read: Tally,
    pub write: Tally,
    pub scrub: Tally,
}

impl DeviceTally {
    pub fn calls(&self) -> u64 {
        self.read.calls + self.write.calls + self.scrub.calls
    }

    pub fn work_ns(&self, cal: &Calibration) -> f64 {
        self.read.work_ns(cal) + self.write.work_ns(cal) + self.scrub.work_ns(cal)
    }
}

/// A device whose demand and scrub calls are timed. The prefetch hint is
/// forwarded untimed: it changes no simulated state and costs a few ns,
/// far below the timer's own cost, so it stays in the engine's self time.
pub struct TimedDevice<D> {
    pub inner: D,
    pub tally: DeviceTally,
}

impl<D> TimedDevice<D> {
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            tally: DeviceTally::default(),
        }
    }
}

impl<D: DeviceModel> DeviceModel for TimedDevice<D> {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let t = Instant::now();
        let out = self.inner.on_read(line, now_s);
        self.tally.read.add(t);
        out
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        let t = Instant::now();
        let out = self.inner.on_write(line, now_s);
        self.tally.write.add(t);
        out
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        let t = Instant::now();
        let out = self.inner.on_scrub(line, now_s);
        self.tally.scrub.add(t);
        out
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        self.inner.scrub_interval_s()
    }

    fn prefetch_line(&mut self, line: u64) {
        self.inner.prefetch_line(line)
    }
}

/// An op source whose `peek`/`advance` calls are timed (a streamed trace
/// generates records inside `peek`). `delivered` counts consumed ops for
/// the conservation audit.
pub struct TimedSource<S> {
    pub inner: S,
    pub tally: Tally,
    pub delivered: u64,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            tally: Tally::default(),
            delivered: 0,
        }
    }
}

impl<S: OpSource> OpSource for TimedSource<S> {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn peek(&mut self, core: usize) -> Option<MemOp> {
        let t = Instant::now();
        let op = self.inner.peek(core);
        self.tally.add(t);
        op
    }

    fn advance(&mut self, core: usize) {
        let t = Instant::now();
        self.inner.advance(core);
        self.tally.add(t);
        self.delivered += 1;
    }

    fn peek_line_ahead(&self, core: usize, k: usize) -> Option<u64> {
        self.inner.peek_line_ahead(core, k)
    }
}

/// An op source that only counts, with no clock: `calls` (peeks and
/// advances) and `delivered` (consumed ops, the witness for "reads +
/// writes == ops delivered"). Replaying a materialised trace costs a few
/// ns per call, far below the timer's own cost, so the traced pass counts
/// such a source instead of timing it.
pub struct CountingSource<S> {
    pub inner: S,
    pub calls: u64,
    pub delivered: u64,
}

impl<S> CountingSource<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            calls: 0,
            delivered: 0,
        }
    }
}

impl<S: OpSource> OpSource for CountingSource<S> {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn peek(&mut self, core: usize) -> Option<MemOp> {
        self.calls += 1;
        self.inner.peek(core)
    }

    fn advance(&mut self, core: usize) {
        self.inner.advance(core);
        self.calls += 1;
        self.delivered += 1;
    }

    fn peek_line_ahead(&self, core: usize, k: usize) -> Option<u64> {
        self.inner.peek_line_ahead(core, k)
    }
}

/// What one timed call costs on this host, measured with an empty device.
///
/// * `t_in`: the interval a decorator records around a call that does
///   nothing — subtracted from every recorded interval.
/// * `t_out`: the host time a decorated empty call adds to its caller
///   over an undecorated one — subtracted once per decorated call from
///   the time of the layer that made the call.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub t_in: f64,
    pub t_out: f64,
}

/// A device that does nothing; the reference for calibration.
struct Noop;

impl DeviceModel for Noop {
    fn on_read(&mut self, _line: u64, _now_s: f64) -> ReadOutcome {
        ReadOutcome::basic(0, readduo_memsim::ReadMode::RRead, 0.0)
    }
    fn on_write(&mut self, _line: u64, _now_s: f64) -> WriteOutcome {
        WriteOutcome::basic(0, 0, 0, 0.0)
    }
    fn on_scrub(&mut self, _line: u64, _now_s: f64) -> ScrubOutcome {
        unreachable!("calibration issues reads only")
    }
    fn scrub_interval_s(&self) -> Option<f64> {
        None
    }
}

#[inline(never)]
fn drive<D: DeviceModel + ?Sized>(dev: &mut D, n: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        acc = acc.wrapping_add(black_box(dev.on_read(black_box(i), 0.0)).latency_ns);
    }
    acc
}

/// Measures `t_in` and `t_out` from `batches` batches of `calls` reads,
/// keeping each quantity's fastest batch: host contention only adds time.
/// The wrapped device is a boxed trait object, as in the real runs.
pub fn calibrate(batches: usize, calls: u64) -> Calibration {
    let (mut plain_ns, mut timed_ns, mut recorded_ns) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..batches {
        let mut plain: Box<dyn DeviceModel> = Box::new(Noop);
        let t = Instant::now();
        black_box(drive(plain.as_mut(), calls));
        plain_ns = plain_ns.min(t.elapsed().as_nanos() as f64);

        let mut timed = TimedDevice::new(Box::new(Noop) as Box<dyn DeviceModel>);
        let t = Instant::now();
        black_box(drive(&mut timed, calls));
        timed_ns = timed_ns.min(t.elapsed().as_nanos() as f64);
        recorded_ns = recorded_ns.min(timed.tally.read.ns as f64);
    }
    Calibration {
        t_in: recorded_ns / calls as f64,
        t_out: (timed_ns - plain_ns) / calls as f64,
    }
}

/// Median of a non-empty sample (sorts in place).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}
