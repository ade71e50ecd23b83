//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each binary under `src/bin/` reproduces one artifact:
//!
//! | binary   | paper artifact |
//! |----------|----------------|
//! | `table3` | Table III — LER vs (E, S), R-sensing |
//! | `table4` | Table IV — LER vs (E, S), M-sensing |
//! | `table5` | Table V — conditions (ii)/(iii) under W=1 |
//! | `table7` | Table VII — subarray area occupancy |
//! | `fig3`   | Figure 3 — motivation: perf & density of prior schemes |
//! | `fig9`   | Figure 9 — normalised execution time |
//! | `fig10`  | Figure 10 — normalised dynamic energy |
//! | `fig11`  | Figure 11 — cells/line and EDAP |
//! | `fig12`  | Figure 12 — sensitivity to sub-interval count k |
//! | `fig13`  | Figure 13 — sensitivity to Select window s |
//! | `fig14`  | Figure 14 — R-M-read conversion ablation |
//! | `fig15`  | Figure 15 — PCM lifetime impact |
//!
//! Every binary prints the series to stdout and writes a CSV under
//! `target/experiments/`. Simulation volume is controlled by the
//! `READDUO_INSTR` environment variable (instructions per core; default
//! one million — enough for stable ratios, small enough for CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use readduo_core::{DeviceHints, DeviceSpec, EdapInputs, SchemeKind, SpecError};
use readduo_memsim::{DeviceModel, MemoryConfig, SimReport, Simulator};
use readduo_pool::Pool;
use readduo_trace::{OpSource, Trace, TraceCursor, TraceGenerator, TraceStream, Workload};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// One (workload, scheme) simulation result.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub workload: &'static str,
    /// Scheme configuration.
    pub scheme: SchemeKind,
    /// Full simulator report.
    pub report: SimReport,
}

/// Where a run's memory ops come from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// Replay an already-generated trace.
    Trace(&'a Trace),
    /// Generate the workload's trace chunk by chunk while the engine
    /// consumes it: peak memory stays bounded by `cores × READDUO_CHUNK`
    /// records regardless of instruction count.
    Stream,
}

/// Where a matrix's memory ops come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixSource {
    /// Generate every workload's trace once, in parallel, then fan the
    /// workload-major cells out over the pool, each trace shared by all of
    /// its workload's specs. Peak memory holds every trace at once.
    Materialised,
    /// One workload at a time: its trace is materialised and shared by the
    /// specs when it fits a 128 MB budget, and otherwise each spec streams
    /// it chunk by chunk ([`Source::Stream`]). At most one workload's trace
    /// is live at a time, so paper-scale volumes (100M–1B
    /// instructions/core) stay runnable.
    Streamed,
}

/// Per-workload trace-materialisation budget of [`MatrixSource::Streamed`]:
/// a workload whose estimated trace fits is generated once and shared by
/// every spec instead of being re-generated per spec. Same reports either
/// way; only the wall clock and the peak RSS differ.
const MATRIX_TRACE_BUDGET_BYTES: u64 = 128 << 20;

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Instructions simulated per core.
    pub instructions_per_core: u64,
    /// Cores used (traces and machine).
    pub cores: usize,
    /// Master seed for traces and scheme RNG streams.
    pub seed: u64,
    /// Memory system configuration.
    pub memory: MemoryConfig,
}

impl Harness {
    /// Builds the default harness; `READDUO_INSTR` overrides the volume
    /// and `READDUO_CHANNELS` re-stripes the paper machine over that many
    /// memory channels (default 1 — the paper's single-channel device).
    pub fn from_env() -> Self {
        let instructions_per_core =
            readduo_env::u64_at_least("READDUO_INSTR", 1).unwrap_or(1_000_000);
        let channels = readduo_env::usize_at_least("READDUO_CHANNELS", 1).unwrap_or(1);
        Self {
            instructions_per_core,
            cores: 4,
            seed: 0x00D5_EAD0_2016,
            memory: MemoryConfig::paper().with_channels(channels),
        }
    }

    /// Generates the trace for one workload (deterministic in the seed).
    ///
    /// Traces are the matrix's shared input: [`run_matrix`] builds each
    /// workload's trace exactly once and every spec simulates against it.
    ///
    /// [`run_matrix`]: Harness::run_matrix
    pub fn trace_for(&self, workload: &Workload) -> Arc<Trace> {
        let _phase = readduo_telemetry::trace::phase(format!("trace-gen/{}", workload.name));
        Arc::new(TraceGenerator::new(self.seed).generate(
            workload,
            self.instructions_per_core,
            self.cores,
        ))
    }

    /// Opens a bounded-memory stream over the same trace [`trace_for`]
    /// would materialise.
    ///
    /// [`trace_for`]: Harness::trace_for
    pub fn stream_for(&self, workload: &Workload) -> TraceStream {
        TraceGenerator::new(self.seed).stream(workload, self.instructions_per_core, self.cores)
    }

    /// Runs one device spec over a workload: the one run path every run
    /// takes. The spec is validated before anything is simulated.
    ///
    /// Single-channel topologies take the plain engine; multi-channel
    /// topologies shard across channels on the ambient pool
    /// ([`Pool::from_env`]), one source replay and one per-channel device
    /// per channel. Reports are bit-for-bit independent of the thread
    /// count, and [`Source::Stream`] is bit-for-bit [`Source::Trace`] over
    /// [`trace_for`]'s output (pinned by `tests/stream_equivalence.rs`).
    ///
    /// [`trace_for`]: Harness::trace_for
    pub fn run(
        &self,
        workload: &Workload,
        spec: &DeviceSpec,
        source: Source<'_>,
    ) -> Result<RunResult, SpecError> {
        let pool = if self.memory.topology.channels > 1 {
            Pool::from_env()
        } else {
            Pool::new(1)
        };
        self.run_on(&pool, workload, spec, source)
    }

    /// [`run`](Harness::run) with an explicit pool for the per-channel
    /// fan-out; the pool only chooses the wall clock, never the report.
    pub fn run_on(
        &self,
        pool: &Pool,
        workload: &Workload,
        spec: &DeviceSpec,
        source: Source<'_>,
    ) -> Result<RunResult, SpecError> {
        spec.validate()?;
        let (phase, label) = run_names(workload, spec, matches!(source, Source::Stream));
        let _phase = readduo_telemetry::trace::phase(phase);
        readduo_telemetry::trace::set_run_label(&label);
        let seed = self.seed ^ workload.name.len() as u64;
        // Lines below the warm boundary are in write steady state; the
        // schemes treat them as recently written (pre-window).
        let hints = DeviceHints {
            warm_boundary: (workload.footprint_lines.max(16) as f64
                * workload.locality.written_fraction) as u64,
            footprint_lines: workload.footprint_lines,
        };
        let channels = self.memory.topology.channels;
        let device = |ch| spec.build(seed, ch, channels, hints);
        let sim = Simulator::new(self.memory);
        let report = match source {
            Source::Trace(trace) => simulate(&sim, pool, |_| TraceCursor::new(trace), device),
            // Each channel re-generates the stream chunk by chunk and
            // filters it to the lines it owns: peak memory stays bounded.
            Source::Stream => simulate(&sim, pool, |_| self.stream_for(workload), device),
        };
        let result = RunResult {
            workload: workload.name,
            scheme: spec.scheme,
            report,
        };
        publish_run_metrics(&result);
        Ok(result)
    }

    /// Generates the workload's trace, then [`run`](Harness::run)s the spec
    /// over it. The spec is validated before the trace is generated.
    pub fn run_one(&self, workload: &Workload, spec: &DeviceSpec) -> Result<RunResult, SpecError> {
        spec.validate()?;
        self.run(workload, spec, Source::Trace(&self.trace_for(workload)))
    }

    /// [`run`](Harness::run) of the bare scheme over an already-generated
    /// trace. Kept, with this signature, for the benchmark in `perfbench/`.
    pub fn run_on_trace(
        &self,
        workload: &Workload,
        trace: &Trace,
        scheme: SchemeKind,
    ) -> RunResult {
        self.run(workload, &scheme.into(), Source::Trace(trace))
            .expect("a bare scheme is always a valid spec")
    }

    /// Runs every spec over every workload: the one matrix path every
    /// figure takes. Every spec is validated before anything is simulated,
    /// and every cell runs through [`run`](Harness::run).
    ///
    /// Results come back workload-major, spec-minor — one row of
    /// `specs.len()` results per workload — regardless of which worker
    /// finished first, and, since every cell seeds its own RNG streams from
    /// `(seed, workload)`, bit-for-bit identical to a sequential run. The
    /// `source` only chooses wall clock and peak memory, never a report
    /// (pinned by `tests/parallel_determinism.rs`).
    pub fn run_matrix(
        &self,
        pool: &Pool,
        specs: &[DeviceSpec],
        workloads: &[Workload],
        source: MatrixSource,
    ) -> Result<Vec<RunResult>, SpecError> {
        self.run_matrix_within(pool, specs, workloads, source, MATRIX_TRACE_BUDGET_BYTES)
    }

    /// [`run_matrix`](Harness::run_matrix) with the streamed matrix's
    /// per-workload trace budget as a parameter, so tests can force the
    /// chunk-by-chunk fallback at test scale.
    fn run_matrix_within(
        &self,
        pool: &Pool,
        specs: &[DeviceSpec],
        workloads: &[Workload],
        source: MatrixSource,
        budget_bytes: u64,
    ) -> Result<Vec<RunResult>, SpecError> {
        for spec in specs {
            spec.validate()?;
        }
        let seq = Pool::new(1);
        let pool = if matrix_uses_pool(pool, specs.len() * workloads.len()) {
            pool
        } else {
            &seq
        };
        let cell = |w: &Workload, spec: &DeviceSpec, src: Source<'_>| {
            self.run(w, spec, src)
                .expect("specs are validated up front")
        };
        Ok(match source {
            MatrixSource::Materialised => {
                let traces = pool.map(workloads.to_vec(), |_, w| self.trace_for(&w));
                let cells: Vec<(usize, usize)> = (0..workloads.len())
                    .flat_map(|w| (0..specs.len()).map(move |s| (w, s)))
                    .collect();
                pool.map(cells, |_, (w, s)| {
                    cell(&workloads[w], &specs[s], Source::Trace(&traces[w]))
                })
            }
            MatrixSource::Streamed => {
                let mut out = Vec::with_capacity(specs.len() * workloads.len());
                for w in workloads {
                    let trace =
                        (self.trace_estimate_bytes(w) <= budget_bytes).then(|| self.trace_for(w));
                    let src = trace.as_deref().map_or(Source::Stream, Source::Trace);
                    out.extend(pool.map(specs.to_vec(), |_, spec| cell(w, &spec, src)));
                }
                out
            }
        })
    }

    /// Estimated bytes a workload's materialised trace occupies: expected
    /// op count (instruction volume × the workload's memory intensity)
    /// times the per-record size.
    fn trace_estimate_bytes(&self, workload: &Workload) -> u64 {
        let ops = (self.instructions_per_core as f64
            * self.cores as f64
            * workload.mpki()
            / 1000.0) as u64;
        ops.saturating_mul(std::mem::size_of::<readduo_trace::MemOp>() as u64)
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Runs every channel of `sim`'s topology: the plain engine for one
/// channel, the sharded engine on `pool` otherwise.
fn simulate<S: OpSource>(
    sim: &Simulator,
    pool: &Pool,
    source: impl Fn(usize) -> S + Sync,
    device: impl Fn(usize) -> Box<dyn DeviceModel> + Sync,
) -> SimReport {
    if sim.config().topology.channels > 1 {
        sim.run_sharded(pool, source, device)
    } else {
        sim.run_source(&mut source(0), device(0).as_mut())
    }
}

/// The telemetry phase and run label of one run, derived from its spec:
/// `sim/…` for a bare scheme over a trace, `sim-stream/…` streamed, and
/// one `-faulty`, `-worn` or `-tiered` suffix per layer (the run label
/// names the layers in parentheses: `mcf/LWT-4 (worn+tiered)`).
fn run_names(workload: &Workload, spec: &DeviceSpec, streamed: bool) -> (String, String) {
    let layers: Vec<&str> = [
        spec.wear.map(|_| "worn").or(spec.faults.map(|_| "faulty")),
        spec.dram.map(|_| "tiered"),
    ]
    .into_iter()
    .flatten()
    .collect();
    let cell = format!("{}/{}", workload.name, spec.scheme);
    let mut phase = String::from(if streamed { "sim-stream" } else { "sim" });
    for layer in &layers {
        phase = format!("{phase}-{layer}");
    }
    let label = if layers.is_empty() {
        cell.clone()
    } else {
        format!("{cell} ({})", layers.join("+"))
    };
    (format!("{phase}/{cell}"), label)
}

/// Publishes one run's report into the telemetry metrics registry:
/// traffic counters plus the full read/retry latency distributions
/// (merged histogram-to-histogram, not re-recorded). No-op while
/// telemetry is disabled.
fn publish_run_metrics(r: &RunResult) {
    if !readduo_telemetry::enabled() {
        return;
    }
    use readduo_telemetry::metrics::{counter_add, hist_merge};
    counter_add("sim.runs", 1);
    counter_add("sim.reads", r.report.reads);
    counter_add("sim.writes", r.report.writes);
    counter_add("sim.reads_rm", r.report.reads_rm);
    counter_add("sim.conversions", r.report.conversions);
    counter_add("sim.write_cancellations", r.report.write_cancellations);
    counter_add("sim.scrubs", r.report.scrubs);
    counter_add("sim.scrubs_skipped", r.report.scrubs_skipped);
    counter_add("sim.corrective_rewrites", r.report.corrective_rewrites);
    counter_add("sim.dram_hits", r.report.dram_hits);
    counter_add("sim.dram_promotions", r.report.dram_promotions);
    counter_add("sim.dram_writebacks", r.report.dram_writebacks);
    hist_merge("sim.read_latency_ns", r.report.read_latency.histogram());
    hist_merge("sim.retry_latency_ns", r.report.retry_latency.histogram());
}

/// Handles `--help`/`-h` for a bench binary: prints what the binary does,
/// then the registry of every recognized `READDUO_*` variable (the
/// binaries take no positional arguments — the environment is the whole
/// interface), and exits.
pub fn handle_help(bin: &str, about: &str) {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        println!("{bin} — {about}");
        println!("\nUsage: {bin} [--help]");
        println!("\nAll configuration is via READDUO_* environment variables:\n");
        print!("{}", readduo_env::help_table());
        std::process::exit(0);
    }
}

/// Drains the telemetry trace and metrics to their configured output
/// files, printing the paths. Call at the end of a binary's `main`; a
/// silent no-op unless `READDUO_TELEMETRY` is on.
pub fn finish_telemetry() {
    match readduo_telemetry::export::finish_to_env() {
        Ok(Some((trace, metrics))) => {
            println!("[telemetry] trace   {trace}");
            println!("[telemetry] metrics {metrics}");
        }
        Ok(None) => {}
        Err(e) => eprintln!("[telemetry] export failed: {e}"),
    }
}

/// Whether a matrix of `tasks` cells should fan out to `pool` at all.
///
/// Spinning up workers and funnelling results through a channel costs more
/// than it saves when there are fewer cells than workers (DESIGN.md,
/// "Parallel sweep executor", records the measurement), so small matrices
/// take the in-place sequential path.
fn matrix_uses_pool(pool: &Pool, tasks: usize) -> bool {
    !pool.is_sequential() && tasks >= pool.workers()
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where unavailable. The high-water mark
/// is what bounds a sweep: it captures the largest simultaneous footprint
/// any run reached, which is the quantity the streaming mode promises to
/// keep independent of instruction count.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Finds the result for a (workload, scheme) pair.
fn result_for<'a>(
    results: &'a [RunResult],
    workload: &str,
    scheme: SchemeKind,
) -> Option<&'a RunResult> {
    results
        .iter()
        .find(|r| r.workload == workload && r.scheme == scheme)
}

/// Per-workload metric ratios of each scheme against a baseline scheme.
///
/// Returns `(workload, Vec<(scheme, ratio)>)` rows in workload order plus a
/// final `"geomean"` row.
pub fn normalized<F: Fn(&SimReport) -> f64>(
    results: &[RunResult],
    baseline: SchemeKind,
    metric: F,
) -> Vec<(String, Vec<(SchemeKind, f64)>)> {
    let mut workloads: Vec<&'static str> = results.iter().map(|r| r.workload).collect();
    workloads.dedup();
    let mut schemes: Vec<SchemeKind> = Vec::new();
    for r in results {
        if !schemes.contains(&r.scheme) {
            schemes.push(r.scheme);
        }
    }
    let mut rows = Vec::new();
    let mut per_scheme_ratios: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for w in &workloads {
        let base = result_for(results, w, baseline)
            .unwrap_or_else(|| panic!("missing baseline run for {w}"));
        let base_v = metric(&base.report);
        let mut row = Vec::new();
        for (si, &s) in schemes.iter().enumerate() {
            let r = result_for(results, w, s)
                .unwrap_or_else(|| panic!("missing {s} run for {w}"));
            let ratio = if base_v > 0.0 {
                metric(&r.report) / base_v
            } else {
                1.0
            };
            per_scheme_ratios[si].push(ratio);
            row.push((s, ratio));
        }
        rows.push((w.to_string(), row));
    }
    let geo: Vec<(SchemeKind, f64)> = schemes
        .iter()
        .zip(&per_scheme_ratios)
        .map(|(&s, v)| (s, readduo_math::geometric_mean(v).unwrap_or(1.0)))
        .collect();
    rows.push(("geomean".into(), geo));
    rows
}

/// EDAP inputs for a result (report + the scheme's storage cost).
pub fn edap_inputs(r: &RunResult) -> EdapInputs {
    EdapInputs::from_report(&r.report, r.scheme.storage().area_cells())
}

/// The output directory for CSV artifacts (`target/experiments`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes CSV rows (first row = header) to `target/experiments/<name>.csv`.
pub fn write_csv(name: &str, rows: &[Vec<String>]) {
    let path = out_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write csv");
    }
    println!("\n[csv] {}", path.display());
}

/// Formats a probability the way the paper's tables do: scientific
/// notation, or `too small` below 1e-15.
pub fn fmt_prob(p: readduo_math::LogProb) -> String {
    let v = p.to_prob();
    if v < 1e-15 {
        "too small".into()
    } else {
        format!("{v:.2E}")
    }
}

/// Renders an aligned text table. An empty header yields an empty string.
/// Rows may be wider or narrower than the header: extra columns are sized
/// from the rows alone, missing cells simply end the row early.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    if header.is_empty() {
        return String::new();
    }
    let cols = rows
        .iter()
        .map(Vec::len)
        .chain(std::iter::once(header.len()))
        .max()
        .expect("chain is non-empty");
    let mut widths: Vec<usize> = vec![0; cols];
    for (i, h) in header.iter().enumerate() {
        widths[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_harness() -> Harness {
        Harness {
            instructions_per_core: 40_000,
            cores: 2,
            seed: 7,
            memory: MemoryConfig::small_test(),
        }
    }

    /// The matrix on `pool` with the production budget.
    fn matrix(
        h: &Harness,
        pool: usize,
        specs: &[DeviceSpec],
        source: MatrixSource,
    ) -> Vec<RunResult> {
        h.run_matrix(&Pool::new(pool), specs, &[Workload::toy()], source)
            .expect("valid specs")
    }

    #[test]
    fn matrix_runs_and_normalises() {
        let h = tiny_harness();
        let specs = [SchemeKind::Ideal.into(), SchemeKind::MMetric.into()];
        let results = matrix(&h, 2, &specs, MatrixSource::Materialised);
        assert_eq!(results.len(), 2);
        let rows = normalized(&results, SchemeKind::Ideal, |r| r.exec_ns as f64);
        assert_eq!(rows.len(), 2, "one workload + geomean");
        let (_, geo) = rows.last().unwrap();
        let ideal = geo.iter().find(|(s, _)| *s == SchemeKind::Ideal).unwrap().1;
        let m = geo.iter().find(|(s, _)| *s == SchemeKind::MMetric).unwrap().1;
        assert!((ideal - 1.0).abs() < 1e-12);
        assert!(m >= 1.0, "M-metric cannot be faster than Ideal: {m}");
    }

    #[test]
    fn matrix_rejects_an_invalid_spec_up_front() {
        let h = tiny_harness();
        let faulty_ideal = DeviceSpec {
            faults: Some(3),
            ..SchemeKind::Ideal.into()
        };
        let specs = [SchemeKind::Hybrid.into(), faulty_ideal];
        let err = h
            .run_matrix(
                &Pool::new(1),
                &specs,
                &[Workload::toy()],
                MatrixSource::Streamed,
            )
            .expect_err("Ideal has no injected read path");
        assert_eq!(err.layer, "fault injection");
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("333"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn empty_header_renders_empty_table() {
        // Regression: `widths.len() - 1` used to underflow here.
        assert_eq!(render_table(&[], &[]), "");
        assert_eq!(render_table(&[], &[vec!["orphan".into()]]), "");
    }

    #[test]
    fn rows_wider_than_header_stay_aligned() {
        // Regression: widths were sized from the header alone, so columns
        // beyond it collapsed to unaligned raw cells.
        let t = render_table(
            &["a".into()],
            &[
                vec!["1".into(), "extra".into(), "tail".into()],
                vec!["22".into(), "x".into()],
                vec![], // missing cells end the row early
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[2], " 1  extra  tail");
        assert_eq!(lines[3], "22      x");
        assert_eq!(lines[4], "");
        // The separator spans every column, not just the header's.
        assert_eq!(lines[1].len(), 2 + 5 + 4 + 2 * 2);
    }

    #[test]
    fn small_matrices_skip_the_pool() {
        // Fewer tasks than workers: pooling costs more than it saves.
        assert!(!matrix_uses_pool(&Pool::new(4), 3));
        assert!(matrix_uses_pool(&Pool::new(4), 4));
        assert!(matrix_uses_pool(&Pool::new(4), 100));
        // A sequential pool never fans out, whatever the size.
        assert!(!matrix_uses_pool(&Pool::new(1), 100));
        assert!(!matrix_uses_pool(&Pool::new(4), 0));
    }

    #[test]
    fn streamed_matrix_matches_materialised_matrix() {
        let h = tiny_harness();
        let specs = [
            SchemeKind::Ideal.into(),
            SchemeKind::Scrubbing.into(),
            SchemeKind::MMetric.into(),
        ];
        let on_trace = matrix(&h, 2, &specs, MatrixSource::Materialised);
        let streamed = matrix(&h, 2, &specs, MatrixSource::Streamed);
        assert_eq!(on_trace.len(), streamed.len());
        for (a, b) in on_trace.iter().zip(&streamed) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.report, b.report, "{}/{}", a.workload, a.scheme);
        }
    }

    #[test]
    fn streamed_matrix_past_its_budget_matches_materialised_matrix() {
        // A zero budget forces the chunk-by-chunk fallback that paper-scale
        // workloads take: every spec re-generates and streams the trace.
        let h = tiny_harness();
        let w = Workload::toy();
        assert!(
            h.trace_estimate_bytes(&w) > 0,
            "the toy trace must exceed a zero budget"
        );
        let lwt = SchemeKind::Lwt { k: 4 };
        let specs = [
            SchemeKind::Ideal.into(),
            SchemeKind::Scrubbing.into(),
            DeviceSpec {
                dram: Some(readduo_dram::DramConfig::new(h.seed, 256)),
                ..lwt.into()
            },
            DeviceSpec {
                faults: Some(3),
                ..SchemeKind::Hybrid.into()
            },
        ];
        let pool = Pool::new(2);
        let workloads = std::slice::from_ref(&w);
        let on_trace = h
            .run_matrix(&pool, &specs, workloads, MatrixSource::Materialised)
            .expect("valid specs");
        let chunked = h
            .run_matrix_within(&pool, &specs, workloads, MatrixSource::Streamed, 0)
            .expect("valid specs");
        assert_eq!(on_trace.len(), specs.len());
        assert_eq!(chunked.len(), specs.len());
        for ((a, b), spec) in on_trace.iter().zip(&chunked).zip(&specs) {
            assert_eq!(a.scheme, spec.scheme, "results are in spec order");
            assert_eq!(a.report, b.report, "{spec:?}");
            assert!(a.report.reads > 0, "{spec:?} ran nothing");
        }
    }

    #[test]
    fn peak_rss_is_readable_and_plausible() {
        let rss = peak_rss_bytes().expect("procfs available on the test host");
        // A running test binary is bigger than 1 MB and (here) smaller
        // than 1 TB.
        assert!(rss > 1 << 20, "VmHWM {rss} implausibly small");
        assert!(rss < 1 << 40, "VmHWM {rss} implausibly large");
    }

    #[test]
    fn run_one_matches_matrix_entry() {
        // The thin wrapper and the pooled matrix path must agree exactly.
        let h = tiny_harness();
        let lone = h
            .run_one(&Workload::toy(), &SchemeKind::Ideal.into())
            .unwrap();
        let matrix = matrix(
            &h,
            2,
            &[SchemeKind::Ideal.into()],
            MatrixSource::Materialised,
        );
        assert_eq!(lone.report, matrix[0].report);
    }

    #[test]
    fn faulty_runs_are_deterministic_and_gated() {
        let h = tiny_harness();
        let w = Workload::toy();
        let faulty = |scheme: SchemeKind| DeviceSpec { faults: Some(3), ..scheme.into() };
        for scheme in [SchemeKind::Ideal, SchemeKind::MMetric] {
            let err = h.run_one(&w, &faulty(scheme)).expect_err("no injected read path");
            assert_eq!(err.layer, "fault injection");
        }
        let a = h.run_one(&w, &faulty(SchemeKind::Hybrid)).unwrap();
        let b = h.run(&w, &faulty(SchemeKind::Hybrid), Source::Stream).unwrap();
        assert_eq!(a.report, b.report);
        assert!(a.report.reads > 0);
    }

    #[test]
    fn run_names_derive_from_the_spec() {
        let w = Workload::toy();
        let lwt = SchemeKind::Lwt { k: 4 };
        let faulty = DeviceSpec { faults: Some(1), ..lwt.into() };
        let worn = DeviceSpec { wear: Some(readduo_core::WearConfig::new(1)), ..faulty };
        let dram = Some(readduo_dram::DramConfig::new(1, 64));
        let names = |spec: DeviceSpec, streamed| run_names(&w, &spec, streamed);
        let pair = |phase: &str, label: &str| (phase.to_string(), label.to_string());
        assert_eq!(names(lwt.into(), false), pair("sim/toy/LWT-4", "toy/LWT-4"));
        assert_eq!(names(lwt.into(), true), pair("sim-stream/toy/LWT-4", "toy/LWT-4"));
        assert_eq!(names(faulty, false), pair("sim-faulty/toy/LWT-4", "toy/LWT-4 (faulty)"));
        assert_eq!(names(worn, false), pair("sim-worn/toy/LWT-4", "toy/LWT-4 (worn)"));
        let tiered = DeviceSpec { dram, ..lwt.into() };
        assert_eq!(names(tiered, false), pair("sim-tiered/toy/LWT-4", "toy/LWT-4 (tiered)"));
        assert_eq!(
            names(DeviceSpec { dram, ..worn }, true),
            pair("sim-stream-worn-tiered/toy/LWT-4", "toy/LWT-4 (worn+tiered)")
        );
    }

    #[test]
    fn prob_formatting_matches_paper_convention() {
        use readduo_math::LogProb;
        assert_eq!(fmt_prob(LogProb::from_prob(0.0)), "too small");
        assert_eq!(fmt_prob(LogProb::new(-60.0)), "too small");
        assert!(fmt_prob(LogProb::from_prob(1.23e-3)).contains("E-3"));
    }
}
