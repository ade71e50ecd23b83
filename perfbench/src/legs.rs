//! The three workloads: what each runs, and how one cell of it runs with
//! and without the timing decorators.
//!
//! Every configuration value is pinned here; nothing is read from the
//! environment (the caller removes `READDUO_*` before any of this runs).
//! Every trace, fault, wear and DRAM seed derives from the `--seed`.

use crate::probe::{CountingSource, DeviceTally, Tally, TimedDevice, TimedSource};
use readduo_bench::Harness;
use readduo_core::{SchemeKind, WearConfig};
use readduo_dram::{DramConfig, EvictPolicy, TieredDevice};
use readduo_memsim::{DeviceModel, MemoryConfig, SimReport, Simulator};
use readduo_trace::{OpSource, Trace, TraceCursor, TraceGenerator, Workload};
use std::sync::Arc;
use std::time::Instant;

pub const NAMES: [&str; 3] = ["fig9_matrix", "mcf_stream_tiered", "fault_reads"];

/// Instructions per core of each leg. fig9 runs at the figure's default
/// volume. The stream touches ~73K lines, so LWT's line table (32 B
/// slots) outgrows a 2 MiB L2. The faulty legs are sized so a repetition
/// takes about a second, since every faulty read costs tens of µs; the
/// worn leg runs long enough for cells to die and lines to remap
/// (~15 verify retries and one remap per run).
pub const FIG9_INSTR: u64 = 1_000_000;
pub const STREAM_INSTR: u64 = 4_000_000;
pub const FAULT_SPHINX3_INSTR: u64 = 600_000;
pub const FAULT_MCF_INSTR: u64 = 120_000;
pub const WORN_MCF_INSTR: u64 = 250_000;
pub const CORES: usize = 4;
pub const DRAM_LINES: u64 = 65_536;
pub const WEAR_ACCEL: u64 = 300_000;

/// How a cell's device is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `SchemeKind::build_for` through `Harness::run_on_trace`.
    Plain,
    /// `SchemeKind::build_faulty`: injected errors, BCH-8, escalation.
    Faulty,
    /// `SchemeKind::build_worn`: faults plus accelerated wear-out.
    Worn,
    /// LWT behind the DRAM tier, fed by a streamed trace.
    Tiered,
}

/// One (trace, scheme, device) simulation of a workload.
pub struct Cell {
    pub workload: Workload,
    pub scheme: SchemeKind,
    pub kind: Kind,
    pub harness: Harness,
    /// The materialised trace, or `None` when the cell streams.
    pub trace: Option<Arc<Trace>>,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{}/{}", self.workload.name, self.scheme.label())
    }

    /// The device seed and warm boundary `Harness` derives for a workload.
    fn device_seed(&self) -> u64 {
        self.harness.seed ^ self.workload.name.len() as u64
    }

    fn warm_boundary(&self) -> u64 {
        (self.workload.footprint_lines.max(16) as f64 * self.workload.locality.written_fraction)
            as u64
    }
}

/// Pinned seeds of the optional layers, all derived from the run seed.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub fault: u64,
    pub wear: u64,
    pub dram: u64,
}

impl Seeds {
    pub fn from(seed: u64) -> Self {
        Self {
            fault: mix(seed, 1),
            wear: mix(seed, 2),
            dram: mix(seed, 3),
        }
    }
}

/// SplitMix64 finaliser of `seed + salt`: independent streams per layer.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload ready to run: traces materialised, cells listed.
pub struct Leg {
    pub name: &'static str,
    pub seeds: Seeds,
    pub telemetry: bool,
    pub cells: Vec<Cell>,
    /// Host time spent materialising traces, ns, and the ops they hold.
    pub trace_gen_ns: u64,
    pub trace_gen_ops: u64,
}

impl Leg {
    /// Builds the workload's inputs: materialised traces are generated here,
    /// so their cost is set-up, not timed-phase, cost.
    pub fn setup(name: &str, seed: u64) -> Option<Self> {
        let seeds = Seeds::from(seed);
        let harness = |instr| Harness {
            instructions_per_core: instr,
            cores: CORES,
            seed,
            memory: MemoryConfig::paper(),
        };
        let spec = |w: &str| Workload::by_name(w).expect("SPEC2006 workload");
        let mut leg = Leg {
            name: NAMES.into_iter().find(|n| *n == name)?,
            seeds,
            telemetry: name == "mcf_stream_tiered",
            cells: Vec::new(),
            trace_gen_ns: 0,
            trace_gen_ops: 0,
        };
        readduo_telemetry::set_enabled(leg.telemetry);
        let mut materialise = |h: Harness, w: &Workload| {
            let t = Instant::now();
            let trace =
                Arc::new(TraceGenerator::new(h.seed).generate(w, h.instructions_per_core, h.cores));
            leg.trace_gen_ns += t.elapsed().as_nanos() as u64;
            leg.trace_gen_ops += trace.total_ops() as u64;
            trace
        };
        let mut cells = Vec::new();
        match name {
            "fig9_matrix" => {
                let h = harness(FIG9_INSTR);
                for w in Workload::spec2006() {
                    let trace = materialise(h, &w);
                    for scheme in SchemeKind::headline() {
                        cells.push(Cell {
                            workload: w.clone(),
                            scheme,
                            kind: Kind::Plain,
                            harness: h,
                            trace: Some(Arc::clone(&trace)),
                        });
                    }
                }
            }
            "mcf_stream_tiered" => cells.push(Cell {
                workload: spec("mcf"),
                scheme: SchemeKind::Lwt { k: 4 },
                kind: Kind::Tiered,
                harness: harness(STREAM_INSTR),
                trace: None,
            }),
            "fault_reads" => {
                let (hybrid, lwt) = (SchemeKind::Hybrid, SchemeKind::Lwt { k: 4 });
                let select = SchemeKind::Select { k: 4, s: 2 };
                let mut traces: Vec<(&str, u64, Arc<Trace>)> = Vec::new();
                for (w, instr, scheme, kind) in [
                    ("sphinx3", FAULT_SPHINX3_INSTR, hybrid, Kind::Faulty),
                    ("sphinx3", FAULT_SPHINX3_INSTR, lwt, Kind::Faulty),
                    ("mcf", FAULT_MCF_INSTR, hybrid, Kind::Faulty),
                    ("mcf", FAULT_MCF_INSTR, lwt, Kind::Faulty),
                    ("mcf", WORN_MCF_INSTR, select, Kind::Worn),
                ] {
                    let (workload, h) = (spec(w), harness(instr));
                    let trace = match traces.iter().find(|t| (t.0, t.1) == (w, instr)) {
                        Some(t) => Arc::clone(&t.2),
                        None => {
                            let t = materialise(h, &workload);
                            traces.push((w, instr, Arc::clone(&t)));
                            t
                        }
                    };
                    cells.push(Cell {
                        workload,
                        scheme,
                        kind,
                        harness: h,
                        trace: Some(trace),
                    });
                }
            }
            _ => unreachable!("name checked against NAMES"),
        }
        leg.cells = cells;
        // The first cell's device is the last thing built before its first
        // op dispatches; building it here completes the set-up.
        drop(leg.scheme_device(&leg.cells[0]));
        Some(leg)
    }

    pub fn dram(&self) -> DramConfig {
        DramConfig::new(self.seeds.dram, DRAM_LINES)
            .with_threshold(1)
            .with_policy(EvictPolicy::Lru)
    }

    pub fn wear(&self) -> WearConfig {
        WearConfig::new(self.seeds.wear).with_accel(WEAR_ACCEL)
    }

    /// The PCM scheme device of a cell (for tiered cells: the device the
    /// tier wraps).
    fn scheme_device(&self, c: &Cell) -> Box<dyn DeviceModel> {
        let (seed, warm, fp) = (
            c.device_seed(),
            c.warm_boundary(),
            c.workload.footprint_lines,
        );
        match c.kind {
            Kind::Plain | Kind::Tiered => Some(c.scheme.build_for(seed, warm, fp)),
            Kind::Faulty => c.scheme.build_faulty(seed, self.seeds.fault, warm, fp),
            Kind::Worn => c
                .scheme
                .build_worn(seed, self.seeds.fault, self.wear(), warm, fp),
        }
        .expect("every fault_reads scheme has an injected read path")
    }

    /// Runs a cell undecorated, through the path a user of the library
    /// takes: `Harness::run_on_trace` for the fig9 matrix,
    /// `SchemeKind::build_*` + `Simulator::run_source` otherwise.
    pub fn run_plain(&self, c: &Cell) -> CellRun {
        let t = Instant::now();
        let sim = || Simulator::new(c.harness.memory);
        let (report, delivered) = match (c.kind, &c.trace) {
            (Kind::Plain, Some(trace)) => {
                let r = c.harness.run_on_trace(&c.workload, trace, c.scheme).report;
                (r, trace.total_ops() as u64)
            }
            (Kind::Tiered, None) => {
                let mut dev = c.scheme.build_tiered(
                    c.device_seed(),
                    self.dram(),
                    c.warm_boundary(),
                    c.workload.footprint_lines,
                );
                let mut src = CountingSource::new(c.harness.stream_for(&c.workload));
                let r = sim().run_source(&mut src, dev.as_mut());
                (r, src.delivered)
            }
            (Kind::Faulty | Kind::Worn, Some(trace)) => {
                let mut dev = self.scheme_device(c);
                let mut src = CountingSource::new(TraceCursor::new(trace));
                let r = sim().run_source(&mut src, dev.as_mut());
                (r, src.delivered)
            }
            _ => unreachable!("streamed cells are tiered, materialised cells are not"),
        };
        CellRun {
            report,
            delivered,
            wall_ns: t.elapsed().as_nanos() as u64,
        }
    }

    /// Runs a cell with every layer boundary decorated: the device as the
    /// engine sees it, the PCM scheme device (inside the tier when there is
    /// one; directly nested otherwise, so the DRAM layer's self time reads
    /// ~0 where it does not exist), and a streamed source. A materialised
    /// trace's cursor is counted, not timed; its replay stays in the
    /// engine's self time.
    pub fn run_traced(&self, c: &Cell) -> (CellRun, Probe) {
        let t = Instant::now();
        let pcm = TimedDevice::new(self.scheme_device(c));
        let sim = Simulator::new(c.harness.memory);
        let build_ns = t.elapsed().as_nanos() as u64;
        let (report, delivered, probe) = if c.kind == Kind::Tiered {
            // What `SchemeKind::build_tiered` builds for a single channel,
            // with the scheme device decorated.
            let cfg = self.dram().sliced(1);
            let mut dev = TimedDevice::new(TieredDevice::new(pcm, cfg).with_channel(0));
            let mut src = TimedSource::new(c.harness.stream_for(&c.workload));
            let (r, run_ns) = timed_run(&sim, &mut src, &mut dev);
            let probe = Probe {
                build_ns,
                run_ns,
                src: src.tally,
                src_calls: src.tally.calls,
                eng: dev.tally,
                pcm: dev.inner.inner().tally,
            };
            (r, src.delivered, probe)
        } else {
            let trace = c.trace.as_ref().expect("untiered cells are materialised");
            let mut dev = TimedDevice::new(pcm);
            let mut src = CountingSource::new(TraceCursor::new(trace));
            let (r, run_ns) = timed_run(&sim, &mut src, &mut dev);
            let probe = Probe {
                build_ns,
                run_ns,
                src: Tally::default(),
                src_calls: src.calls,
                eng: dev.tally,
                pcm: dev.inner.tally,
            };
            (r, src.delivered, probe)
        };
        let run = CellRun {
            report,
            delivered,
            wall_ns: probe.build_ns + probe.run_ns,
        };
        (run, probe)
    }
}

fn timed_run<S: OpSource, D: DeviceModel>(
    sim: &Simulator,
    src: &mut S,
    dev: &mut D,
) -> (SimReport, u64) {
    let t = Instant::now();
    let r = sim.run_source(src, dev);
    (r, t.elapsed().as_nanos() as u64)
}

/// One cell's report and what the run cost on the host.
pub struct CellRun {
    pub report: SimReport,
    /// Ops the source handed to the engine.
    pub delivered: u64,
    /// Host time of the whole cell (device build + simulation), ns.
    pub wall_ns: u64,
}

impl CellRun {
    pub fn ops(&self) -> u64 {
        self.report.reads + self.report.writes
    }

    /// The conservation audit every run must pass; returns each violation.
    pub fn audit(&self, c: &Cell) -> Vec<String> {
        let r = &self.report;
        let mut bad = Vec::new();
        if r.reads + r.writes != self.delivered {
            bad.push(format!(
                "reads+writes {} != ops delivered {}",
                r.reads + r.writes,
                self.delivered
            ));
        }
        if r.reads_r + r.reads_m + r.reads_rm != r.reads {
            bad.push(format!(
                "R+M+RM {} != reads {}",
                r.reads_r + r.reads_m + r.reads_rm,
                r.reads
            ));
        }
        if c.kind == Kind::Tiered && r.dram_hits + r.dram_misses != r.reads + r.writes {
            bad.push(format!(
                "dram hits+misses {} != demand ops",
                r.dram_hits + r.dram_misses
            ));
        }
        if r.silent_corruptions != 0 {
            bad.push(format!("{} silent corruptions", r.silent_corruptions));
        }
        bad.into_iter()
            .map(|m| format!("{}: {m}", c.label()))
            .collect()
    }
}

/// Raw decorator readings of one traced cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub build_ns: u64,
    /// Host time of `Simulator::run_source` alone, ns.
    pub run_ns: u64,
    /// The timed source calls (a streamed trace's), and every source call.
    pub src: Tally,
    pub src_calls: u64,
    /// The device boundary the engine calls.
    pub eng: DeviceTally,
    /// The PCM scheme device boundary.
    pub pcm: DeviceTally,
}
