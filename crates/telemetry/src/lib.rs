//! Zero-dependency observability for the ReadDuo workspace.
//!
//! Every paper figure the repo reproduces is an end-of-run aggregate;
//! this crate makes the *dynamics* between run start and number out
//! visible, with three pieces:
//!
//! * **[`metrics`]** — a process-wide registry of counters, gauges, and
//!   log2-bucketed histograms ([`Log2Histogram`], with p50/p95/p99/p999
//!   accessors). Writes go to a per-thread shard (a plain thread-local
//!   map) and merge into the global registry only when the thread exits
//!   or a snapshot is taken, so the sweep pool's workers never contend on
//!   a lock in their hot loops.
//! * **[`trace`]** — typed event tracing into a bounded ring buffer:
//!   sim-time events (per-bank busy spans, queue-depth counters, scrub
//!   visits, write cancellations, R→M escalations, corrective rewrites)
//!   emitted by the `memsim` engine through [`trace::SimTrace`], and
//!   wall-clock phase spans ([`trace::phase`]) from the bench harness and
//!   pool workers. Capacity is bounded by `READDUO_TRACE_CAP` events;
//!   overflow overwrites the oldest events and is counted, never grows.
//! * **[`export`]** — renders the ring as Chrome trace-event JSON (one
//!   track per bank/core/worker, loadable in
//!   [Perfetto](https://ui.perfetto.dev)) plus a metrics snapshot JSON,
//!   and **[`check`]** validates that JSON with an in-tree parser since
//!   the workspace is offline and dependency-free.
//!
//! The whole subsystem is gated by `READDUO_TELEMETRY` (via
//! `readduo-env`): when disabled — the default — every entry point
//! collapses to a load-and-branch no-op, so instrumented code paths stay
//! bit-for-bit identical to uninstrumented ones (pinned by the
//! determinism, golden, and stream-equivalence suites) and within noise
//! of their wall-clock baseline (bounded by the ci.sh budgets and
//! measured by perfbench's `telemetry.overhead_ratio`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod export;
pub mod hist;
pub mod metrics;
pub mod trace;

pub use hist::Log2Histogram;

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = not yet resolved, 1 = enabled, 2 = disabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is on for this process.
///
/// Resolved once from `READDUO_TELEMETRY` on first call (every later call
/// is a single relaxed atomic load), unless [`set_enabled`] overrode it.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = readduo_env::flag("READDUO_TELEMETRY").unwrap_or(false);
            STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces telemetry on or off for this process, overriding the
/// environment. Tests and tools use this; production binaries resolve
/// through [`enabled`].
pub fn set_enabled(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

#[cfg(test)]
pub(crate) mod test_serial {
    use std::sync::{Mutex, MutexGuard};

    /// The enable flag and the trace/metrics registries are process-global
    /// while the test harness is threaded; any test that toggles the flag
    /// or drains global state holds this lock so a concurrent
    /// `set_enabled(false)` cannot silently drop another test's updates.
    static LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn guard() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programmatic_override_wins() {
        let _serial = crate::test_serial::guard();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
