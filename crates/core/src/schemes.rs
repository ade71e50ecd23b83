//! The readout schemes of the evaluation (Section IV):
//!
//! * [`ScrubbingScheme`] — R-sensing with `(BCH=8, S=8 s, W∈{0,1})` [2],
//! * [`MMetricScheme`] — M-sensing only, `(BCH=8, S=640 s, W=1)` [23],
//! * [`HybridScheme`] — ReadDuo-Hybrid: R-read with BCH-decoupled fallback
//!   to M-read, `(BCH=8, S=640 s, W=0)`,
//! * [`LwtScheme`] — ReadDuo-LWT-k: Hybrid plus last-write tracking and
//!   R-M-read conversion, `(BCH=8, S=640 s, W=1)`; with
//!   [`LwtScheme::select`] also ReadDuo-Select-(k:s), LWT plus selective
//!   differential writes,
//! * [`TlcScheme`] — the Tri-Level-Cell baseline [26] (no drift errors, no
//!   scrubbing, lower density),
//! * Ideal is [`readduo_memsim::FixedLatencyDevice::ideal`].
//!
//! The four drift-tracking schemes are one [`LineScheme`] each: the shared
//! per-line machinery (sampler, line table, cost models, the optional fault
//! and wear layers) plus a policy that decides how a read, a write and a
//! scrub go. All schemes implement [`DeviceModel`]; the simulator calls
//! them per read/write/scrub with the simulated time in seconds.

use crate::common::{differential_write, full_line_write, DriftSampler, CORRECT_MAX, DETECT_MAX};
use crate::conversion::ConversionController;
use crate::fault::{FaultInjector, InjectedRead};
use crate::flags::LwtFlags;
use crate::linestate::LineTable;
use crate::wear::{WearConfig, WearTable};
use readduo_memsim::{DeviceModel, EnergyModel, ReadMode, ReadOutcome, ScrubOutcome, WriteOutcome};
use readduo_pcm::DeviceParams;

/// Cold-line age assumed for `W = 1` policies at `S = 640 s`: M-metric
/// scrubbing almost never rewrites, so data written before the simulation
/// window can be weeks old (the paper's in-memory-database motivation).
const COLD_AGE_LONG_S: f64 = 1.0e6;

/// Cold-line age for the R-Scrubbing baseline at `S = 8 s, W = 1`: the
/// scan rewrites a line as soon as it shows any error, so the population a
/// scrub visit samples is length-biased toward freshly rewritten lines.
/// With the Table I drift model the per-visit rewrite hazard is ~7–10%,
/// i.e. the age *seen at scrub time* concentrates in the first couple of
/// rounds — modelled as 6–12 s (the per-line jitter doubles the base).
const COLD_AGE_SCRUBBED_S: f64 = 6.0;

/// Side counters the report does not carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemeCounters {
    /// Reads whose R-sensed error count exceeded even the detection
    /// capability (returned uncorrected — the reliability budget's job is
    /// to make this astronomically rare at scheme parameters).
    pub uncorrectable_reads: u64,
    /// R-M-reads issued.
    pub rm_reads: u64,
    /// Differential writes performed (Select only).
    pub differential_writes: u64,
    /// Full-line writes performed.
    pub full_writes: u64,
}

// ---------------------------------------------------------------------
// Shared per-line machinery.
// ---------------------------------------------------------------------

/// A drift-tracking scheme: the per-line state every scheme but TLC and
/// Ideal shares, plus the policy `P` that decides how reads, writes and
/// scrubs go. The builder methods that attach workload hints and the
/// optional fault and wear layers are defined here, once for all schemes.
#[derive(Debug, Clone)]
pub struct LineScheme<P> {
    sampler: DriftSampler,
    table: LineTable,
    energy: EnergyModel,
    params: DeviceParams,
    injector: Option<FaultInjector>,
    wear: Option<WearTable>,
    counters: SchemeCounters,
    policy: P,
}

/// Policies with an injected read path — the only schemes fault injection
/// and wear attach to (stuck bits only matter through the injected decode).
pub trait FaultCapable {
    /// Whether a failed R-decode retries as an M-read (the ReadDuo
    /// schemes) or surfaces as detected-uncorrectable (the R-only
    /// Scrubbing baseline, which has no M-sensing circuit).
    const ESCALATES: bool;
}

impl<P> LineScheme<P> {
    fn with_policy(seed: u64, table: LineTable, policy: P) -> Self {
        Self {
            sampler: DriftSampler::new(seed),
            table,
            energy: EnergyModel::paper(),
            params: DeviceParams::paper(),
            injector: None,
            wear: None,
            counters: SchemeCounters::default(),
            policy,
        }
    }

    /// Side counters.
    pub fn counters(&self) -> SchemeCounters {
        self.counters
    }

    /// Declares `[0, boundary)` the workload's warm region (see
    /// [`LineTable::set_warm_region`]).
    pub fn with_warm_region(mut self, boundary: u64) -> Self {
        self.table.set_warm_region(boundary);
        self
    }

    /// Capacity hint: the workload touches on the order of `lines`
    /// distinct lines — normally its footprint (see [`LineTable::reserve`]).
    pub fn reserve_lines(mut self, lines: u64) -> Self {
        self.table.reserve(lines);
        self
    }

    /// Overrides the cold-line age assumption — a validation/stress knob
    /// (e.g. to exercise Hybrid's escalation band, which `W = 0` scrubbing
    /// makes astronomically rare at natural ages). Rebuilds the line
    /// table, so call it before the other builder methods.
    pub fn with_cold_age(mut self, age_s: f64) -> Self {
        self.table = LineTable::new(self.table.k(), self.table.scrub_interval_s(), age_s);
        self
    }

    /// Seconds since `line`'s last full write.
    fn age(&mut self, line: u64, now_s: f64) -> f64 {
        let st = *self.table.get_mut(line, now_s);
        self.table.full_write_age(&st, now_s)
    }

    /// An R-read that returned `drift_errors` wrong bits.
    fn r_read(&self, drift_errors: u32) -> ReadOutcome {
        ReadOutcome {
            drift_errors,
            ..ReadOutcome::basic(
                self.params.timing.r_read_ns,
                ReadMode::RRead,
                self.energy.r_read_pj,
            )
        }
    }

    /// An R-M-read (R-sensing, then M-sensing of the same cells) whose M
    /// pass returned `drift_errors` wrong bits.
    fn rm_read(&self, drift_errors: u32) -> ReadOutcome {
        ReadOutcome {
            drift_errors,
            ..ReadOutcome::basic(
                self.params.escalation_read_ns,
                ReadMode::RmRead,
                self.energy.r_read_pj + self.energy.m_read_pj,
            )
        }
    }

    /// Programs `line` in full (plus `slc` LWT flag bits), charging wear
    /// when the endurance model is attached.
    fn program(&mut self, line: u64, slc: u32) -> WriteOutcome {
        let mut out = full_line_write(&self.energy, &self.params.timing, slc);
        self.wear_program(line, &mut out);
        out
    }

    fn wear_program(&mut self, line: u64, out: &mut WriteOutcome) {
        if let Some(w) = self.wear.as_mut() {
            w.apply_program(line, &self.params, &self.energy, out);
        }
    }

    /// A counted full-line write: restamps the line's full-write time,
    /// marks LWT sub-interval `sub` written (`None` for untracked
    /// schemes) and programs the line.
    fn full_write(&mut self, line: u64, now_s: f64, sub: Option<u8>, slc: u32) -> WriteOutcome {
        let st = self.table.get_mut(line, now_s);
        st.last_full_write_s = now_s;
        if let Some(s) = sub {
            st.flags.on_write(s);
        }
        self.counters.full_writes += 1;
        self.program(line, slc)
    }

    /// Dead cells of `line` (0 without the endurance model).
    fn stuck_cells(&self, line: u64) -> u32 {
        self.wear.as_ref().map_or(0, |w| w.stuck_cells(line))
    }

    /// Finishes a scrub visit of `line`: stamps the scan and, when
    /// `rewrite`, restamps and reprograms the line (plus `slc` flag bits).
    /// Dead cells shrink the correctable margin, so a line with `stuck`
    /// cells pays the escalated scan latency instead of `scan_ns`.
    fn scrub_visit(
        &mut self,
        line: u64,
        now_s: f64,
        rewrite: bool,
        stuck: u32,
        scan_ns: u64,
        slc: u32,
    ) -> ScrubOutcome {
        let st = self.table.get_mut(line, now_s);
        st.last_scrub_s = now_s;
        if rewrite {
            st.last_full_write_s = now_s;
        }
        ScrubOutcome {
            read_latency_ns: if stuck > 0 {
                self.params.escalation_read_ns
            } else {
                scan_ns
            },
            read_energy_pj: self.energy.scrub_scan_pj,
            rewrite: rewrite.then(|| self.program(line, slc)),
        }
    }

    /// One injected read of `line` aged `age` seconds — R-first, or a
    /// direct M-read when `m_read` — or `None` without fault injection.
    /// Wear-free lines take the plain path bit-for-bit; lines with dead
    /// cells overlay their stuck bits and decode with erasure hints.
    fn injected_read(&mut self, line: u64, age: f64, m_read: bool) -> Option<InjectedRead> {
        let inj = self.injector.as_mut()?;
        let (stuck_wrong, erased) = match self.wear.as_mut() {
            Some(w) => w.stuck_read(line),
            None => (&[][..], &[][..]),
        };
        Some(match (m_read, erased.is_empty()) {
            (false, true) => inj.read_at(age),
            (false, false) => inj.read_at_stuck(age, stuck_wrong, erased),
            (true, true) => inj.read_m_at(age),
            (true, false) => inj.read_m_at_stuck(age, stuck_wrong, erased),
        })
    }

    /// Copies an injected read's decode results onto `out`.
    fn decoded(&mut self, mut out: ReadOutcome, r: &InjectedRead) -> ReadOutcome {
        if r.detected_uncorrectable {
            self.counters.uncorrectable_reads += 1;
        }
        out.ecc_corrected_bits = r.corrected_bits;
        out.detected_uncorrectable = r.detected_uncorrectable;
        out.silent_corruption = r.silent_corruption;
        out.stuck_bits = r.stuck_bits;
        out
    }

    /// The outcome of an injected R-first read: error patterns come from
    /// the fault model and band membership from actual BCH decoding. The
    /// caller schedules the corrective rewrite `r.needs_rewrite` asks for.
    fn injected_outcome(&mut self, r: &InjectedRead) -> ReadOutcome {
        let out = if r.escalated {
            self.counters.rm_reads += 1;
            self.rm_read(r.m_errors)
        } else {
            self.r_read(r.r_errors)
        };
        self.decoded(out, r)
    }

    /// The analytic three-band read path of Hybrid and the LWT schemes.
    fn banded_read(&mut self, age: f64) -> ReadOutcome {
        let errors = self.sampler.bit_errors_r(age);
        if errors <= CORRECT_MAX {
            self.r_read(errors)
        } else if errors <= DETECT_MAX {
            // Detected but uncorrectable under R: retry with M-sensing.
            self.counters.rm_reads += 1;
            let m_errors = self.sampler.bit_errors_m(age);
            self.rm_read(m_errors)
        } else {
            // Beyond detection: the data goes back uncorrected.
            self.counters.uncorrectable_reads += 1;
            self.r_read(errors)
        }
    }
}

impl<P: FaultCapable> LineScheme<P> {
    /// Attaches Monte-Carlo fault injection (`seed` drives the fault stream
    /// independently of the analytic sampler): demand reads sample real
    /// error patterns and decode them with BCH-8. The ReadDuo schemes
    /// escalate failed R-decodes to M-reads, and an escalated read that
    /// survived through ECC schedules a corrective rewrite; LWT's
    /// untracked reads sample the direct M-read pattern. The R-only
    /// baseline surfaces failed decodes as detected-uncorrectable.
    pub fn with_fault_injection(mut self, seed: u64) -> Self {
        self.injector = Some(FaultInjector::new(seed, P::ESCALATES));
        self
    }

    /// Attaches the endurance model: every program ages the line's cells,
    /// dead cells read back stuck-at, and lines whose dead-cell count
    /// exceeds the margin remap onto spares (see [`WearTable`]).
    pub fn with_wear(mut self, cfg: WearConfig) -> Self {
        self.wear = Some(WearTable::new(cfg));
        self
    }

    /// The endurance state, when wear modelling is enabled.
    pub fn wear(&self) -> Option<&WearTable> {
        self.wear.as_ref()
    }
}

// ---------------------------------------------------------------------
// Scrubbing baseline (R-sensing).
// ---------------------------------------------------------------------

/// Efficient scrubbing [2]'s policy: R-metric sensing, rewrite a scanned
/// line once it shows `w` errors (`w = 0`: always).
#[derive(Debug, Clone)]
pub struct ScrubbingPolicy {
    w: u32,
}

/// Efficient scrubbing [2] with R-metric sensing.
pub type ScrubbingScheme = LineScheme<ScrubbingPolicy>;

impl FaultCapable for ScrubbingPolicy {
    const ESCALATES: bool = false;
}

impl ScrubbingScheme {
    /// The paper's comparison configuration `(BCH=8, S=8, W=1)`.
    pub fn paper(seed: u64) -> Self {
        Self::new(seed, 8.0, 1)
    }

    /// The reliability-sound but ruinous `(BCH=8, S=8, W=0)` variant the
    /// paper reports as 2–3× slower than Ideal.
    pub fn paper_w0(seed: u64) -> Self {
        Self::new(seed, 8.0, 0)
    }

    /// Custom interval/threshold.
    pub fn new(seed: u64, interval_s: f64, w: u32) -> Self {
        let table = if w == 0 {
            LineTable::new(2, interval_s, 0.0).with_cold_writes_at_scrub()
        } else {
            LineTable::new(2, interval_s, COLD_AGE_SCRUBBED_S)
        };
        Self::with_policy(seed, table, ScrubbingPolicy { w })
    }
}

impl DeviceModel for ScrubbingScheme {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let age = self.age(line, now_s);
        if let Some(r) = self.injected_read(line, age, false) {
            return self.injected_outcome(&r);
        }
        let errors = self.sampler.bit_errors_r(age);
        if errors > DETECT_MAX {
            self.counters.uncorrectable_reads += 1;
        }
        self.r_read(errors)
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        self.full_write(line, now_s, None, 0)
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        let age = self.age(line, now_s);
        let errors = self.sampler.bit_errors_r(age);
        // A line with stuck bits escalates its scan and is rewritten
        // unconditionally so the spare machinery gets a chance to remap it.
        let stuck = self.stuck_cells(line);
        let w = self.policy.w;
        let rewrite = w == 0 || errors >= w || stuck > 0;
        let scan_ns = self.params.timing.r_read_ns;
        self.scrub_visit(line, now_s, rewrite, stuck, scan_ns, 0)
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        Some(self.table.scrub_interval_s())
    }

    fn prefetch_line(&mut self, line: u64) {
        self.table.prefetch(line);
    }
}

// ---------------------------------------------------------------------
// M-metric baseline.
// ---------------------------------------------------------------------

/// The M-metric baseline's policy: M-sensing only, `W = 1` scrubbing.
#[derive(Debug, Clone)]
pub struct MMetricPolicy;

/// M-metric-only sensing with `(BCH=8, S=640, W=1)`.
pub type MMetricScheme = LineScheme<MMetricPolicy>;

impl MMetricScheme {
    /// The paper's configuration.
    pub fn paper(seed: u64) -> Self {
        Self::with_policy(
            seed,
            LineTable::new(2, 640.0, COLD_AGE_LONG_S),
            MMetricPolicy,
        )
    }
}

impl DeviceModel for MMetricScheme {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let age = self.age(line, now_s);
        let errors = self.sampler.bit_errors_m(age);
        ReadOutcome {
            drift_errors: errors,
            ..ReadOutcome::basic(
                self.params.timing.m_read_ns,
                ReadMode::MRead,
                self.energy.m_read_pj,
            )
        }
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        self.full_write(line, now_s, None, 0)
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        let age = self.age(line, now_s);
        let rewrite = self.sampler.bit_errors_m(age) >= 1;
        let scan_ns = self.params.timing.m_read_ns;
        self.scrub_visit(line, now_s, rewrite, 0, scan_ns, 0)
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        Some(self.table.scrub_interval_s())
    }

    fn prefetch_line(&mut self, line: u64) {
        self.table.prefetch(line);
    }
}

// ---------------------------------------------------------------------
// ReadDuo-Hybrid.
// ---------------------------------------------------------------------

/// ReadDuo-Hybrid's policy: fast R-read, decoupled BCH detection, M-read
/// fallback, and `W = 0` M-scrubbing.
#[derive(Debug, Clone)]
pub struct HybridPolicy;

/// ReadDuo-Hybrid: fast R-read, decoupled BCH detection, M-read fallback;
/// `(BCH=8, S=640, W=0)` scrubbing keeps every line young enough for
/// R-sensing.
pub type HybridScheme = LineScheme<HybridPolicy>;

impl FaultCapable for HybridPolicy {
    const ESCALATES: bool = true;
}

impl HybridScheme {
    /// The paper's configuration.
    pub fn paper(seed: u64) -> Self {
        let table = LineTable::new(2, 640.0, 0.0).with_cold_writes_at_scrub();
        Self::with_policy(seed, table, HybridPolicy)
    }
}

impl DeviceModel for HybridScheme {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let age = self.age(line, now_s);
        if let Some(r) = self.injected_read(line, age, false) {
            let mut out = self.injected_outcome(&r);
            if r.needs_rewrite {
                // The line is only readable through escalation: rewrite it
                // so it re-enters the fast R-readable population.
                out.corrective = Some(self.full_write(line, now_s, None, 0));
            }
            return out;
        }
        self.banded_read(age)
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        self.full_write(line, now_s, None, 0)
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        // W = 0: scan with M (the reliable metric), rewrite unconditionally.
        let stuck = self.stuck_cells(line);
        let scan_ns = self.params.timing.m_read_ns;
        self.scrub_visit(line, now_s, true, stuck, scan_ns, 0)
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        Some(self.table.scrub_interval_s())
    }

    fn prefetch_line(&mut self, line: u64) {
        self.table.prefetch(line);
    }
}

// ---------------------------------------------------------------------
// ReadDuo-LWT-k (and Select-(k:s) on top).
// ---------------------------------------------------------------------

/// ReadDuo-LWT-k's policy: last-write tracking over `k` sub-intervals,
/// `W = 1` M-scrubbing, dynamic R-M-read conversion, and (Select) a
/// differential-write window.
#[derive(Debug, Clone)]
pub struct LwtPolicy {
    k: u8,
    controller: ConversionController,
    conversion_enabled: bool,
    /// Select-(k:s) window in sub-intervals; 0 disables SDW (plain LWT).
    sdw_window: u8,
}

/// ReadDuo-LWT-k: last-write tracking over `k` sub-intervals, `W = 1`
/// M-scrubbing, and dynamic R-M-read conversion.
pub type LwtScheme = LineScheme<LwtPolicy>;

impl FaultCapable for LwtPolicy {
    const ESCALATES: bool = true;
}

impl LwtScheme {
    /// ReadDuo-LWT-k as evaluated (`k = 4` in the headline results).
    pub fn paper(seed: u64, k: u8) -> Self {
        Self::lwt(seed, k, 0, true)
    }

    /// LWT-k with R-M-read conversion disabled (Figure 14's ablation).
    pub fn without_conversion(seed: u64, k: u8) -> Self {
        Self::lwt(seed, k, 0, false)
    }

    /// ReadDuo-Select-(k:s): LWT-k plus selective differential writes with
    /// a full-write window of `s` sub-intervals.
    ///
    /// # Panics
    ///
    /// Panics if `sdw_window` is zero or exceeds `k`.
    pub fn select(seed: u64, k: u8, sdw_window: u8) -> Self {
        assert!(
            sdw_window >= 1 && sdw_window <= k,
            "Select window must be in 1..=k, got {sdw_window}"
        );
        Self::lwt(seed, k, sdw_window, true)
    }

    fn lwt(seed: u64, k: u8, sdw_window: u8, conversion: bool) -> Self {
        let policy = LwtPolicy {
            k,
            controller: ConversionController::paper(),
            conversion_enabled: conversion,
            sdw_window,
        };
        Self::with_policy(seed, LineTable::new(k, 640.0, COLD_AGE_LONG_S), policy)
    }

    /// Number of sub-intervals `k`.
    pub fn k(&self) -> u8 {
        self.policy.k
    }

    /// Current dynamic conversion percentage `T`.
    pub fn t_percent(&self) -> u32 {
        self.policy.controller.t_percent()
    }

    /// A full-line write that re-tracks the line in sub-interval `sub`.
    fn tracked_write(&mut self, line: u64, now_s: f64, sub: Option<u8>) -> WriteOutcome {
        let slc = LwtFlags::storage_bits(self.policy.k);
        self.full_write(line, now_s, sub, slc)
    }
}

impl DeviceModel for LwtScheme {
    fn on_read(&mut self, line: u64, now_s: f64) -> ReadOutcome {
        let st = *self.table.get_mut(line, now_s);
        let sub = self.table.sub_interval(&st, now_s);
        let allows_r = sub.is_some_and(|s| st.flags.read_allows_r(s));
        self.policy.controller.observe_read(!allows_r);
        let age = self.table.full_write_age(&st, now_s);
        if allows_r {
            if let Some(r) = self.injected_read(line, age, false) {
                let mut out = self.injected_outcome(&r);
                if r.needs_rewrite {
                    out.corrective = Some(self.tracked_write(line, now_s, sub));
                }
                return out;
            }
            return self.banded_read(age);
        }
        // Un-tracked: R-sensing aborted after the flag check, M-sensing
        // reissued — an R-M-read.
        self.counters.rm_reads += 1;
        let injected = self.injected_read(line, age, true);
        let errors = match &injected {
            Some(r) => r.m_errors,
            None => self.sampler.bit_errors_m(age),
        };
        let convert = self.policy.conversion_enabled
            && self
                .policy
                .controller
                .should_convert(self.counters.rm_reads);
        // The redundant write re-tracks the line: the conversion is a
        // full-line write even under Select (it is the only write in the
        // window).
        let conversion = convert.then(|| self.tracked_write(line, now_s, sub));
        let out = ReadOutcome {
            conversion,
            untracked: true,
            ..self.rm_read(errors)
        };
        match injected {
            Some(r) => self.decoded(out, &r),
            None => out,
        }
    }

    fn on_write(&mut self, line: u64, now_s: f64) -> WriteOutcome {
        let st = *self.table.get_mut(line, now_s);
        let sub = self.table.sub_interval(&st, now_s);
        // Select-(k:s): differential write when the last full-line write is
        // within `s` sub-intervals; the index-flag (conservatively, the
        // recorded full-write time) measures that distance.
        if self.policy.sdw_window > 0 {
            let window_s = self.policy.sdw_window as f64 * self.table.sub_len_s();
            let full_age = self.table.full_write_age(&st, now_s);
            if full_age < window_s {
                // Differential write: only modified cells; flags are NOT
                // updated (the R-sensing distance keeps measuring from the
                // last full write).
                self.counters.differential_writes += 1;
                let cells = self.sampler.differential_write_cells();
                let mut out = differential_write(&self.energy, &self.params.timing, cells);
                self.wear_program(line, &mut out);
                return out;
            }
        }
        self.tracked_write(line, now_s, sub)
    }

    fn on_scrub(&mut self, line: u64, now_s: f64) -> ScrubOutcome {
        let age = self.age(line, now_s);
        let errors = self.sampler.bit_errors_m(age);
        // Stuck bits eat into the BCH margin: force the rewrite so the
        // wear controller sees the line and can remap it onto a spare.
        let stuck = self.stuck_cells(line);
        let rewrite = errors >= 1 || stuck > 0;
        self.table.get_mut(line, now_s).flags.on_scrub(rewrite);
        let slc = LwtFlags::storage_bits(self.policy.k);
        let scan_ns = self.params.timing.m_read_ns;
        self.scrub_visit(line, now_s, rewrite, stuck, scan_ns, slc)
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        Some(self.table.scrub_interval_s())
    }

    fn prefetch_line(&mut self, line: u64) {
        self.table.prefetch(line);
    }
}

// ---------------------------------------------------------------------
// TLC baseline.
// ---------------------------------------------------------------------

/// The Tri-Level-Cell baseline: drift-safe by construction, no scrubbing,
/// fast reads — but 512 bits cost 432 tri-level cells (SECDED included),
/// the density penalty Figure 11 charges it for.
#[derive(Debug, Clone)]
pub struct TlcScheme {
    energy: EnergyModel,
    params: DeviceParams,
    counters: SchemeCounters,
}

/// Tri-level cells written per 64 B line: 512 data + 64 SECDED bits packed
/// 4 bits per 3 cells.
pub const TLC_LINE_CELLS: u32 = 432;

impl TlcScheme {
    /// The paper's TLC configuration.
    pub fn paper() -> Self {
        Self {
            energy: EnergyModel::paper(),
            params: DeviceParams::paper(),
            counters: SchemeCounters::default(),
        }
    }

    /// Side counters.
    pub fn counters(&self) -> SchemeCounters {
        self.counters
    }
}

impl Default for TlcScheme {
    fn default() -> Self {
        Self::paper()
    }
}

impl DeviceModel for TlcScheme {
    fn on_read(&mut self, _line: u64, _now_s: f64) -> ReadOutcome {
        ReadOutcome::basic(
            self.params.timing.r_read_ns,
            ReadMode::RRead,
            self.energy.r_read_pj,
        )
    }

    fn on_write(&mut self, _line: u64, _now_s: f64) -> WriteOutcome {
        self.counters.full_writes += 1;
        WriteOutcome::basic(
            self.params.timing.write_ns,
            TLC_LINE_CELLS,
            0,
            TLC_LINE_CELLS as f64 * self.energy.write_cell_pj,
        )
    }

    fn on_scrub(&mut self, _line: u64, _now_s: f64) -> ScrubOutcome {
        unreachable!("TLC does not scrub")
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrubbing_w1_rewrites_only_on_errors() {
        let mut s = ScrubbingScheme::paper(1);
        // Freshly written line: scrub immediately after never rewrites.
        let w = s.on_write(5, 100.0);
        assert_eq!(w.cells_written, 296);
        let sc = s.on_scrub(5, 100.5);
        assert!(sc.rewrite.is_none(), "fresh line must not be rewritten");
        // A very old cold line shows errors and gets rewritten (sample a
        // few to dodge randomness).
        let rewrites = (0..50)
            .filter(|&i| s.on_scrub(1000 + i, 1000.0).rewrite.is_some())
            .count();
        assert!(rewrites > 0, "cold lines should trigger rewrites");
    }

    #[test]
    fn scrubbing_w0_always_rewrites() {
        let mut s = ScrubbingScheme::paper_w0(1);
        for i in 0..10 {
            assert!(s.on_scrub(i, 50.0 + i as f64).rewrite.is_some());
        }
    }

    #[test]
    fn m_metric_reads_are_slow_but_clean() {
        let mut s = MMetricScheme::paper(2);
        let r = s.on_read(7, 1000.0);
        assert_eq!(r.mode, ReadMode::MRead);
        assert_eq!(r.latency_ns, 450);
        // Cold line at 1e6 s: M-sensing still reads essentially clean.
        let total: u32 = (0..100)
            .map(|i| s.on_read(100 + i, 1000.0).drift_errors)
            .sum();
        assert!(total < 50, "M errors on cold lines: {total}");
    }

    #[test]
    fn hybrid_mostly_r_reads_young_lines() {
        let mut s = HybridScheme::paper(3);
        let mut modes = (0u32, 0u32, 0u32);
        for i in 0..500 {
            s.on_write(i, 10.0);
            let r = s.on_read(i, 12.0);
            match r.mode {
                ReadMode::RRead => modes.0 += 1,
                ReadMode::MRead => modes.1 += 1,
                ReadMode::RmRead => modes.2 += 1,
            }
        }
        assert!(modes.0 > 490, "young lines must R-read: {modes:?}");
        // Cold lines (written at last scrub, ≤640 s ago) still mostly
        // R-read — that is the whole point of W=0 Hybrid.
        let mut r_reads = 0;
        for i in 0..500u64 {
            if s.on_read(10_000 + i, 1000.0).mode == ReadMode::RRead {
                r_reads += 1;
            }
        }
        assert!(
            r_reads > 400,
            "cold Hybrid reads should stay fast: {r_reads}"
        );
    }

    #[test]
    fn hybrid_scrub_always_rewrites_with_m_scan() {
        let mut s = HybridScheme::paper(4);
        let sc = s.on_scrub(9, 640.0);
        assert_eq!(sc.read_latency_ns, 450);
        assert!(sc.rewrite.is_some());
    }

    #[test]
    fn lwt_untracked_reads_are_rm_and_convert() {
        let mut s = LwtScheme::paper(5, 4);
        // Cold line: untracked → R-M-read.
        let r = s.on_read(1, 100.0);
        assert_eq!(r.mode, ReadMode::RmRead);
        assert!(r.untracked);
        // With T starting at 50, half the R-M-reads convert; after enough
        // reads some conversions must have happened.
        let mut conversions = 0;
        for i in 0..100u64 {
            if s.on_read(100 + i, 100.0).conversion.is_some() {
                conversions += 1;
            }
        }
        assert!(conversions > 20, "conversions: {conversions}");
        // A converted line reads fast afterwards.
        let mut s2 = LwtScheme::paper(6, 4);
        loop {
            let r = s2.on_read(42, 200.0);
            if r.conversion.is_some() {
                break;
            }
        }
        let after = s2.on_read(42, 201.0);
        assert_eq!(after.mode, ReadMode::RRead, "converted line must R-read");
        assert!(!after.untracked);
    }

    #[test]
    fn lwt_tracked_write_enables_r_reads() {
        let mut s = LwtScheme::paper(7, 4);
        s.on_write(3, 50.0);
        let r = s.on_read(3, 60.0);
        assert_eq!(r.mode, ReadMode::RRead);
        assert!(!r.untracked);
        assert_eq!(r.drift_errors, 0, "10 s old line has no drift errors");
    }

    #[test]
    fn lwt_without_conversion_never_converts() {
        let mut s = LwtScheme::without_conversion(8, 4);
        for i in 0..200u64 {
            assert!(s.on_read(i, 100.0).conversion.is_none());
        }
    }

    #[test]
    fn select_differential_within_window_full_outside() {
        let mut s = LwtScheme::select(9, 4, 2);
        // First write: cold line, full.
        let w1 = s.on_write(11, 1000.0);
        assert_eq!(w1.cells_written, 296);
        // Second write 10 s later (within 2×160 s window): differential.
        let w2 = s.on_write(11, 1010.0);
        assert!(w2.cells_written < 296, "differential write expected");
        assert_eq!(w2.slc_bits_written, 0, "diff writes do not touch flags");
        // Write far outside the window: full again.
        let w3 = s.on_write(11, 1000.0 + 640.0);
        assert_eq!(w3.cells_written, 296);
        let c = s.counters();
        assert_eq!(c.differential_writes, 1);
        assert_eq!(c.full_writes, 2);
    }

    #[test]
    fn select_keeps_r_sense_distance_from_full_write() {
        // After a differential write, R-sensing eligibility must still be
        // anchored at the *full* write: a read 400 s after the full write
        // (with diff writes in between) on k=4 must already have aged out
        // of the tracked window if the full write has.
        let mut s = LwtScheme::select(10, 4, 1);
        s.on_write(5, 0.0); // full write at t=0 (cold line)
                            // The scrub at ~some point may interfere; keep within one interval.
        let w = s.on_write(5, 10.0); // differential
        assert!(w.cells_written < 296);
        let r = s.on_read(5, 20.0);
        // Full write at t=0 is recent: R allowed.
        assert_eq!(r.mode, ReadMode::RRead);
    }

    #[test]
    fn tlc_is_drift_free_and_denser_writes() {
        let mut s = TlcScheme::paper();
        let r = s.on_read(1, 1e9);
        assert_eq!(r.drift_errors, 0);
        assert_eq!(r.latency_ns, 150);
        let w = s.on_write(1, 0.0);
        assert_eq!(w.cells_written, TLC_LINE_CELLS);
        assert_eq!(s.scrub_interval_s(), None);
    }

    #[test]
    fn scheme_intervals_match_paper() {
        assert_eq!(ScrubbingScheme::paper(0).scrub_interval_s(), Some(8.0));
        assert_eq!(MMetricScheme::paper(0).scrub_interval_s(), Some(640.0));
        assert_eq!(HybridScheme::paper(0).scrub_interval_s(), Some(640.0));
        assert_eq!(LwtScheme::paper(0, 4).scrub_interval_s(), Some(640.0));
    }

    #[test]
    #[should_panic(expected = "Select window")]
    fn select_window_validated() {
        let _ = LwtScheme::select(0, 4, 5);
    }
}
