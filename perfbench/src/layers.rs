//! Per-layer metrics of one traced repetition, computed from decorator
//! readings (host time) and simulator reports (counts).
//!
//! With `o` the host time a decorated call adds to its caller and `t_in`
//! the interval a decorator records around an empty call (see
//! `probe::Calibration`), a layer's work is its recorded time minus
//! `t_in` per call, and a caller's self time is its wall time minus its
//! callees' work minus `o` per decorated call it made:
//!
//! * engine self = run wall − source work − device work − o × (timed source + device calls)
//! * DRAM tier self = device work − PCM work − o × PCM calls
//! * untraced wall predicted = build + run wall − o × (all decorated calls)

use crate::legs::{Cell, CellRun, Leg, Probe};
use crate::probe::Calibration;
use readduo_core::SchemeKind;
use std::collections::BTreeMap;

/// Every per-layer metric the traced pass reports, with its unit.
pub const METRICS: [(&str, &str); 27] = [
    ("trace.gen_ns_per_op", "ns"),
    ("trace.source_calls_per_op", "count"),
    ("memsim.self_ns_per_op", "ns"),
    ("memsim.floor_ns_per_op", "ns"),
    ("memsim.scrub_calls_per_op", "count"),
    ("core.read_ns", "ns"),
    ("core.write_ns", "ns"),
    ("core.scrub_ns", "ns"),
    ("core.rm_read_frac", "frac"),
    ("core.conversions_per_read", "count"),
    ("core.untracked_frac", "frac"),
    ("core.corrective_rewrites_per_read", "count"),
    ("core.verify_retries", "count"),
    ("core.lines_remapped", "count"),
    ("ecc.errored_read_frac", "frac"),
    ("ecc.corrected_bits_per_read", "count"),
    ("ecc.detected_uncorrectable", "count"),
    ("dram.self_ns_per_access", "ns"),
    ("dram.hit_rate", "frac"),
    ("dram.pcm_access_frac", "frac"),
    ("dram.promotions_per_op", "count"),
    ("dram.writebacks_per_op", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.export_s", "s"),
    ("telemetry.dropped_frac", "frac"),
    ("bench.timer_ns", "ns"),
    ("bench.tracing_overhead", "ratio"),
];

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Host time of one traced cell split by layer (ns), with the call
/// counts the per-call and per-op metrics divide by.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    pub ops: f64,
    pub src_calls: f64,
    pub src_ns: f64,
    pub engine_self_ns: f64,
    pub dram_self_ns: f64,
    pub eng_accesses: f64,
    pub pcm_accesses: f64,
    pub scrub_calls: f64,
    /// PCM scheme work per entry point: `[read, write, scrub]`.
    pub pcm_ns: [f64; 3],
    pub pcm_calls: [f64; 3],
    /// Untraced wall the calibrated layers predict, and the measured one.
    pub predicted_ns: f64,
    pub untraced_ns: f64,
    pub traced_ns: f64,
}

impl Split {
    pub fn of(p: &Probe, traced: &CellRun, untraced: &CellRun, cal: &Calibration) -> Self {
        let o = cal.t_out;
        let src_ns = p.src.work_ns(cal);
        let eng_ns = p.eng.work_ns(cal);
        let pcm_ns = p.pcm.work_ns(cal);
        let (n_src, n_eng, n_pcm) = (
            p.src.calls as f64,
            p.eng.calls() as f64,
            p.pcm.calls() as f64,
        );
        let pcm = [p.pcm.read, p.pcm.write, p.pcm.scrub];
        Split {
            ops: traced.ops() as f64,
            src_calls: p.src_calls as f64,
            src_ns,
            engine_self_ns: p.run_ns as f64 - src_ns - eng_ns - (n_src + n_eng) * o,
            dram_self_ns: eng_ns - pcm_ns - n_pcm * o,
            eng_accesses: (p.eng.read.calls + p.eng.write.calls) as f64,
            pcm_accesses: (p.pcm.read.calls + p.pcm.write.calls) as f64,
            scrub_calls: p.eng.scrub.calls as f64,
            pcm_ns: pcm.map(|t| t.work_ns(cal)),
            pcm_calls: pcm.map(|t| t.calls as f64),
            predicted_ns: (p.build_ns + p.run_ns) as f64 - (n_src + n_eng + n_pcm) * o,
            untraced_ns: untraced.wall_ns as f64,
            traced_ns: traced.wall_ns as f64,
        }
    }

    pub fn add(&mut self, s: &Split) {
        self.ops += s.ops;
        self.src_calls += s.src_calls;
        self.src_ns += s.src_ns;
        self.engine_self_ns += s.engine_self_ns;
        self.dram_self_ns += s.dram_self_ns;
        self.eng_accesses += s.eng_accesses;
        self.pcm_accesses += s.pcm_accesses;
        self.scrub_calls += s.scrub_calls;
        for i in 0..3 {
            self.pcm_ns[i] += s.pcm_ns[i];
            self.pcm_calls[i] += s.pcm_calls[i];
        }
        self.predicted_ns += s.predicted_ns;
        self.untraced_ns += s.untraced_ns;
        self.traced_ns += s.traced_ns;
    }

    /// Mean PCM scheme work per call of entry point `i` (read, write, scrub).
    pub fn pcm_call_ns(&self, i: usize) -> f64 {
        ratio(self.pcm_ns[i], self.pcm_calls[i])
    }

    pub fn engine_ns_per_op(&self) -> f64 {
        ratio(self.engine_self_ns, self.ops)
    }
}

/// Telemetry readings of one repetition (the on/off walls stay zero where
/// telemetry is off).
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryReading {
    pub on_ns: f64,
    pub off_ns: f64,
    pub export_s: f64,
    pub dropped: f64,
    pub kept: f64,
}

/// One traced repetition: a split per cell plus the telemetry reading.
pub struct Rep<'a> {
    pub leg: &'a Leg,
    pub cal: Calibration,
    pub cells: Vec<(&'a Cell, Split, CellRun)>,
    pub tel: TelemetryReading,
}

impl Rep<'_> {
    /// The repetition's value of every metric in [`METRICS`].
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut all = Split::default();
        let mut ideal = Split::default();
        let sum = |f: &dyn Fn(&readduo_memsim::SimReport) -> u64| -> f64 {
            self.cells.iter().map(|(_, _, r)| f(&r.report) as f64).sum()
        };
        let reads = sum(&|r| r.reads);
        let rm = sum(&|r| r.reads_rm);
        let conversions = sum(&|r| r.conversions);
        let untracked = sum(&|r| r.untracked_reads);
        let corrective = sum(&|r| r.corrective_rewrites);
        let verify = sum(&|r| r.verify_retries);
        let remapped = sum(&|r| r.lines_remapped);
        let errored = sum(&|r| r.reads_errored);
        let corrected = sum(&|r| r.ecc_corrected_bits);
        let due = sum(&|r| r.detected_uncorrectable);
        let hits = sum(&|r| r.dram_hits);
        let misses = sum(&|r| r.dram_misses);
        let promotions = sum(&|r| r.dram_promotions);
        let writebacks = sum(&|r| r.dram_writebacks);
        for (c, s, _) in &self.cells {
            all.add(s);
            if c.scheme == SchemeKind::Ideal {
                ideal.add(s);
            }
        }
        // The engine floor is the engine's self time under the Ideal
        // device; a workload without Ideal cells reports its engine self
        // time over all cells.
        let floor = if ideal.ops > 0.0 { ideal } else { all };
        let leg = self.leg;
        let gen_ns = ratio(leg.trace_gen_ns as f64, leg.trace_gen_ops as f64);
        let t = &self.tel;
        let mut m = BTreeMap::new();
        // Materialised traces are generated at set-up (per op generated);
        // a streamed trace generates inside its timed source (per op run).
        m.insert("trace.gen_ns_per_op", gen_ns + ratio(all.src_ns, all.ops));
        m.insert("trace.source_calls_per_op", ratio(all.src_calls, all.ops));
        m.insert("memsim.self_ns_per_op", all.engine_ns_per_op());
        m.insert("memsim.floor_ns_per_op", floor.engine_ns_per_op());
        m.insert("memsim.scrub_calls_per_op", ratio(all.scrub_calls, all.ops));
        m.insert("core.read_ns", all.pcm_call_ns(0));
        m.insert("core.write_ns", all.pcm_call_ns(1));
        m.insert("core.scrub_ns", all.pcm_call_ns(2));
        m.insert("core.rm_read_frac", ratio(rm, reads));
        m.insert("core.conversions_per_read", ratio(conversions, reads));
        m.insert("core.untracked_frac", ratio(untracked, reads));
        m.insert(
            "core.corrective_rewrites_per_read",
            ratio(corrective, reads),
        );
        m.insert("core.verify_retries", verify);
        m.insert("core.lines_remapped", remapped);
        m.insert("ecc.errored_read_frac", ratio(errored, reads));
        m.insert("ecc.corrected_bits_per_read", ratio(corrected, reads));
        m.insert("ecc.detected_uncorrectable", due);
        m.insert(
            "dram.self_ns_per_access",
            ratio(all.dram_self_ns, all.eng_accesses),
        );
        m.insert("dram.hit_rate", ratio(hits, hits + misses));
        m.insert(
            "dram.pcm_access_frac",
            ratio(all.pcm_accesses, all.eng_accesses),
        );
        m.insert("dram.promotions_per_op", ratio(promotions, all.ops));
        m.insert("dram.writebacks_per_op", ratio(writebacks, all.ops));
        // Telemetry is off on the other workloads in both phases: the
        // ratio is 1 by construction there, not measured.
        let overhead = if leg.telemetry {
            ratio(t.on_ns, t.off_ns)
        } else {
            1.0
        };
        m.insert("telemetry.overhead_ratio", overhead);
        m.insert("telemetry.export_s", t.export_s);
        m.insert(
            "telemetry.dropped_frac",
            ratio(t.dropped, t.dropped + t.kept),
        );
        m.insert("bench.timer_ns", self.cal.t_out);
        m.insert(
            "bench.tracing_overhead",
            ratio(all.traced_ns, all.untraced_ns),
        );
        m
    }
}
