//! End-to-end and per-layer benchmark of the ReadDuo simulator.
//!
//! ```text
//! readduo-perfbench --workload <fig9_matrix|mcf_stream_tiered|fault_reads>
//!                   --seed <n> --seconds <s> --trace <0|1> [--rev <git rev>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no decorator on any
//! layer; `--trace 1` runs the traced pass alone and reports per-layer
//! metrics. Either way the last stdout line is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`) and the full result with
//! its provenance is written under `perfbench/out/`.

mod layers;
mod legs;
mod probe;

use layers::{Rep, Split, TelemetryReading, METRICS};
use legs::{CellRun, Leg};
use probe::median;
use readduo_bench::{normalized, RunResult};
use readduo_core::SchemeKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Separate processes that each set up and exit, for the `setup_s`
/// median (the measuring process adds one more sample).
const SETUP_CHILDREN: usize = 6;

/// How far from 1 the two calibration checks of the traced pass may read
/// (the `ops_per_s` bound in BENCHMARK.json): the calibrated layer times
/// over the untimed wall of all cells, and the engine floor over the
/// untimed wall of the Ideal cells.
const CHECK_BOUND: f64 = 0.25;

/// The paper's Figure 9 geomean overheads over Ideal, in percent, as
/// printed by `crates/bench/src/bin/fig9.rs`.
const FIG9_PAPER: [(SchemeKind, f64); 5] = [
    (SchemeKind::Scrubbing, 21.0),
    (SchemeKind::MMetric, 25.0),
    (SchemeKind::Hybrid, 5.8),
    (SchemeKind::Lwt { k: 4 }, 2.9),
    (SchemeKind::Select { k: 4, s: 2 }, 3.4),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        setup_only: false,
        rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            a.setup_only = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = num(&v)?,
            "--seconds" => a.seconds = num(&v)?,
            "--trace" => a.trace = num(&v)? != 0,
            "--rev" => a.rev = v,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !legs::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", legs::NAMES));
    }
    Ok(a)
}

/// Removes every `READDUO_*` variable from this process (children inherit
/// the cleaned environment) and returns what was set. The library reads
/// some knobs (chunk size, arena and ring capacities, thread count) from
/// the environment; the benchmark pins them all at their defaults.
fn scrub_env() -> BTreeMap<String, String> {
    let set: BTreeMap<String, String> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.into_string().ok()?;
            k.starts_with("READDUO_")
                .then(|| (k, v.to_string_lossy().into_owned()))
        })
        .collect();
    for k in set.keys() {
        std::env::remove_var(k);
    }
    set
}

fn json_str(s: &str) -> String {
    readduo_telemetry::export::json_string(s)
}

fn json_obj<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// Seed, host, revision, pinned configuration and overridden environment.
fn provenance(a: &Args, leg: &Leg, env: &BTreeMap<String, String>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let s = leg.seeds;
    let config = json_obj([
        ("cores", legs::CORES.to_string()),
        ("channels", "1".into()),
        ("threads", "1".into()),
        ("memory", json_str("MemoryConfig::paper()")),
        ("fig9_instr_per_core", legs::FIG9_INSTR.to_string()),
        ("stream_instr_per_core", legs::STREAM_INSTR.to_string()),
        (
            "fault_sphinx3_instr_per_core",
            legs::FAULT_SPHINX3_INSTR.to_string(),
        ),
        (
            "fault_mcf_instr_per_core",
            legs::FAULT_MCF_INSTR.to_string(),
        ),
        ("worn_mcf_instr_per_core", legs::WORN_MCF_INSTR.to_string()),
        ("dram", json_str(&format!("{:?}", leg.dram()))),
        ("wear", json_str(&format!("{:?}", leg.wear()))),
        ("fault_seed", s.fault.to_string()),
        ("telemetry", leg.telemetry.to_string()),
        (
            "trace_ring_events",
            readduo_telemetry::trace::capacity().to_string(),
        ),
        ("stream_chunk", readduo_trace::DEFAULT_CHUNK.to_string()),
    ]);
    let env = json_obj(env.iter().map(|(k, v)| (k.as_str(), json_str(v))));
    json_obj([
        ("workload", json_str(leg.name)),
        ("seed", a.seed.to_string()),
        ("seconds", a.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("rev", json_str(&a.rev)),
        ("config", config),
        ("readduo_env_overridden", env),
    ])
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    readduo_bench::peak_rss_bytes().expect("VmHWM readable from /proc/self/status") as f64
        / (1u64 << 20) as f64
}

/// Tallies of the correctness audit: `failed` counts runs with at least
/// one violation.
#[derive(Default)]
struct Audit {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Audit {
    /// Audits one run, and when `reference` is given, checks that its
    /// report renders byte-identically to the reference run's.
    fn check(&mut self, cell: &legs::Cell, run: &CellRun, reference: Option<(&str, &CellRun)>) {
        let mut bad = run.audit(cell);
        if let Some((what, r)) = reference {
            if format!("{:?}", r.report) != format!("{:?}", run.report) {
                bad.push(format!("{}: {what}", cell.label()));
            }
        }
        self.attempted += 1;
        self.failed += u64::from(!bad.is_empty());
        for b in &bad {
            eprintln!("perfbench: FAILED {b}");
        }
        self.failures.extend(bad);
    }
}

/// Drains the telemetry ring and metrics registry and returns the rendered
/// trace, so every repetition starts from the same empty state.
fn drain_telemetry() -> String {
    let trace = readduo_telemetry::export::render_trace();
    drop(readduo_telemetry::export::render_metrics());
    readduo_telemetry::metrics::reset();
    trace
}

/// The set-up time of a fresh process of this binary, s.
fn setup_sample(a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &a.workload,
            "--seed",
            &a.seed.to_string(),
            "--setup-only",
        ])
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .strip_prefix("setup_s ")
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("set-up child failed: {text}"))
}

/// Mean absolute gap, in percentage points, between the run's geomean
/// overheads over Ideal and the paper's Figure 9.
fn fig9_err_pp(leg: &Leg, runs: &[CellRun]) -> (f64, Vec<(String, f64, f64)>) {
    let results: Vec<RunResult> = leg
        .cells
        .iter()
        .zip(runs)
        .map(|(c, r)| RunResult {
            workload: c.workload.name,
            scheme: c.scheme,
            report: r.report.clone(),
        })
        .collect();
    let rows = normalized(&results, SchemeKind::Ideal, |r| r.exec_ns as f64);
    let (_, geo) = rows.last().expect("geomean row");
    let per: Vec<(String, f64, f64)> = FIG9_PAPER
        .iter()
        .map(|&(s, paper)| {
            let ours = geo
                .iter()
                .find(|(g, _)| *g == s)
                .expect("headline scheme")
                .1;
            (s.label(), (ours - 1.0) * 100.0, paper)
        })
        .collect();
    let err = per
        .iter()
        .map(|(_, ours, paper)| (ours - paper).abs())
        .sum::<f64>()
        / per.len() as f64;
    (err, per)
}

fn write_out(name: &str, body: &str) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn final_line(audit: &Audit, metrics: &[(&str, &str, f64)]) -> String {
    let m = json_obj(metrics.iter().map(|&(name, unit, v)| {
        (
            name,
            json_obj([("value", json_num(v)), ("unit", json_str(unit))]),
        )
    }));
    json_obj([
        (
            "correct",
            (audit.failed == 0 && audit.attempted > 0).to_string(),
        ),
        ("attempted", audit.attempted.to_string()),
        ("failed", audit.failed.to_string()),
        ("metrics", m),
    ])
}

/// `--trace 0`: repeat the workload untraced for `seconds`.
///
/// The host's speed drifts for seconds at a time under co-tenant load,
/// and contention only ever adds time. So `ops_per_s` divides the ops of
/// one repetition by the sum of each cell's *fastest* host time over the
/// run; the median per-repetition rate goes to the output file. Set-up
/// children are spread evenly over the run so their median spans the
/// same host conditions.
fn end_to_end(
    a: &Args,
    leg: &Leg,
    own_setup_s: f64,
    env: &BTreeMap<String, String>,
) -> Result<String, String> {
    let mut setup = vec![own_setup_s];
    let mut audit = Audit::default();
    let mut reference: Vec<CellRun> = Vec::new();
    let mut best = vec![u64::MAX; leg.cells.len()];
    let mut rates = Vec::new();
    let start = Instant::now();
    let run_for = Duration::from_secs(a.seconds);
    loop {
        if setup.len() <= SETUP_CHILDREN
            && start.elapsed() >= run_for * setup.len() as u32 / (SETUP_CHILDREN as u32 + 1)
        {
            setup.push(setup_sample(a)?);
        }
        let (mut ops, mut ns) = (0u64, 0u64);
        for (i, c) in leg.cells.iter().enumerate() {
            let run = leg.run_plain(c);
            ops += run.ops();
            ns += run.wall_ns;
            best[i] = best[i].min(run.wall_ns);
            audit.check(
                c,
                &run,
                reference
                    .get(i)
                    .map(|r| ("report differs between repetitions", r)),
            );
            if reference.len() == i {
                reference.push(run);
            }
        }
        rates.push(ops as f64 / (ns as f64 * 1e-9));
        if start.elapsed() >= run_for && setup.len() > SETUP_CHILDREN {
            break;
        }
    }
    // A user with telemetry on exports once, after the runs; the bounded
    // ring keeps only the newest events meanwhile.
    drop(drain_telemetry());
    let ops: u64 = reference.iter().map(CellRun::ops).sum();
    let ops_per_s = ops as f64 / (best.iter().sum::<u64>() as f64 * 1e-9);
    let median_rate = median(&mut rates.clone());
    let setup_s = median(&mut setup.clone());
    let rss = peak_rss_mb();
    let metrics = [
        ("ops_per_s", "1/s", ops_per_s),
        ("setup_s", "s", setup_s),
        ("peak_rss_mb", "MB", rss),
    ];
    let fail_frac = audit.failed as f64 / audit.attempted as f64;
    let mut extra = String::new();
    if leg.name == "fig9_matrix" {
        let (err, per) = fig9_err_pp(leg, &reference);
        let rows: Vec<String> = per
            .iter()
            .map(|(s, ours, paper)| {
                json_obj([
                    ("scheme", json_str(s)),
                    ("ours_pct", json_num(*ours)),
                    ("paper_pct", json_num(*paper)),
                ])
            })
            .collect();
        let _ = write!(
            extra,
            ", \"fig9_err_pp\": {}, \"fig9_geomean\": [{}]",
            json_num(err),
            rows.join(", ")
        );
        println!(
            "fig9_err_pp {err:.3} (mean |ours - paper| over {} schemes)",
            per.len()
        );
    }
    let cells: Vec<String> = leg
        .cells
        .iter()
        .zip(&reference)
        .zip(&best)
        .map(|((c, r), &ns)| {
            json_obj([
                ("cell", json_str(&c.label())),
                ("ops", r.ops().to_string()),
                ("best_ns", ns.to_string()),
            ])
        })
        .collect();
    let _ = write!(extra, ", \"cells\": [{}]", cells.join(", "));
    let samples = |v: &[f64]| {
        v.iter()
            .map(|&x| json_num(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let body =
        format!(
        "{{\"provenance\": {}, \"metrics\": {}, \"median_rep_ops_per_s\": {}, \"fail_frac\": {}, \
         \"failures\": [{}], \"rep_ops_per_s_samples\": [{}], \"setup_s_samples\": [{}]{extra}}}\n",
        provenance(a, leg, env),
        json_obj(metrics.iter().map(|&(n, _, v)| (n, json_num(v)))),
        json_num(median_rate),
        json_num(fail_frac),
        audit.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", "),
        samples(&rates),
        samples(&setup),
    );
    write_out(&format!("e2e-{}-seed{}.json", leg.name, a.seed), &body);
    println!(
        "{}: {} repetitions, ops_per_s {ops_per_s:.0}, setup_s {setup_s:.4}, peak_rss_mb {rss:.1}, fail_frac {fail_frac}",
        leg.name,
        rates.len()
    );
    Ok(final_line(&audit, &metrics))
}

/// `--trace 1`: the traced pass on its own. Each repetition runs every
/// cell untraced, then decorated; the decorated report must match.
fn traced(a: &Args, leg: &Leg, env: &BTreeMap<String, String>) -> Result<String, String> {
    let cal = probe::calibrate(15, 200_000);
    let mut audit = Audit::default();
    let mut reps: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut per_scheme: BTreeMap<String, Split> = BTreeMap::new();
    // Per cell, the fastest predicted, untimed and engine-self time over
    // the run: the checks compare like with like on a drifting host.
    let mut best = vec![[f64::MAX; 3]; leg.cells.len()];
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    loop {
        let mut rep = Rep {
            leg,
            cal,
            cells: Vec::new(),
            tel: TelemetryReading::default(),
        };
        for (i, c) in leg.cells.iter().enumerate() {
            let plain = leg.run_plain(c);
            audit.check(c, &plain, None);
            // The export a user runs after the simulation; with telemetry
            // off it renders an empty trace.
            let t = Instant::now();
            let json = drain_telemetry();
            rep.tel.export_s += t.elapsed().as_secs_f64();
            audit.attempted += 1;
            match readduo_telemetry::check::validate_chrome_trace(&json) {
                Ok(st) => {
                    rep.tel.dropped += st.dropped as f64;
                    rep.tel.kept += (st.events - st.metas) as f64;
                }
                Err(e) => {
                    audit.failed += 1;
                    audit
                        .failures
                        .push(format!("{}: exported trace invalid: {e}", c.label()));
                }
            }
            if leg.telemetry {
                readduo_telemetry::set_enabled(false);
                let off = leg.run_plain(c);
                readduo_telemetry::set_enabled(true);
                audit.check(c, &off, Some(("telemetry on/off reports differ", &plain)));
                rep.tel.on_ns += plain.wall_ns as f64;
                rep.tel.off_ns += off.wall_ns as f64;
            }
            let (run, p) = leg.run_traced(c);
            audit.check(
                c,
                &run,
                Some(("traced report differs from untimed", &plain)),
            );
            drop(drain_telemetry());
            let split = Split::of(&p, &run, &plain, &cal);
            for (b, v) in best[i].iter_mut().zip([
                split.predicted_ns,
                split.untraced_ns,
                split.engine_self_ns,
            ]) {
                *b = b.min(v);
            }
            per_scheme.entry(c.scheme.label()).or_default().add(&split);
            rep.cells.push((c, split, run));
        }
        reps.push(rep.metrics());
        if Instant::now() >= deadline {
            break;
        }
    }
    let metrics: Vec<(&str, &str, f64)> = METRICS
        .iter()
        .map(|&(name, unit)| {
            let mut v: Vec<f64> = reps.iter().map(|m| m[name]).collect();
            (name, unit, median(&mut v))
        })
        .collect();
    let sum_best = |k: usize, ideal_only: bool| -> f64 {
        leg.cells
            .iter()
            .zip(&best)
            .filter(|(c, _)| !ideal_only || c.scheme == SchemeKind::Ideal)
            .map(|(_, b)| b[k])
            .sum()
    };
    let mut checks = vec![(
        "bench.layer_sum_ratio",
        layers::ratio(sum_best(0, false), sum_best(1, false)),
    )];
    if leg.cells.iter().any(|c| c.scheme == SchemeKind::Ideal) {
        checks.push((
            "bench.floor_agreement",
            layers::ratio(sum_best(2, true), sum_best(1, true)),
        ));
    }
    let checks: Vec<(&str, String)> = checks
        .into_iter()
        .map(|(name, v)| {
            let ok = (v - 1.0).abs() <= CHECK_BOUND;
            eprintln!(
                "  check {name} = {v:.4}: {}",
                if ok { "within bound" } else { "OUTSIDE bound" }
            );
            (
                name,
                json_obj([("value", json_num(v)), ("within_bound", ok.to_string())]),
            )
        })
        .collect();
    let schemes: Vec<(&str, String)> = per_scheme
        .iter()
        .map(|(s, sp)| {
            (
                s.as_str(),
                json_obj([
                    ("memsim.self_ns_per_op", json_num(sp.engine_ns_per_op())),
                    ("core.read_ns", json_num(sp.pcm_call_ns(0))),
                    ("core.write_ns", json_num(sp.pcm_call_ns(1))),
                    ("core.scrub_ns", json_num(sp.pcm_call_ns(2))),
                    ("ops", json_num(sp.ops)),
                ]),
            )
        })
        .collect();
    let body = format!(
        "{{\"provenance\": {}, \"calibration\": {}, \"repetitions\": {}, \"metrics\": {}, \
         \"checks\": {}, \"per_scheme\": {}, \"failures\": [{}]}}\n",
        provenance(a, leg, env),
        json_obj([
            ("t_in_ns", json_num(cal.t_in)),
            ("t_out_ns", json_num(cal.t_out))
        ]),
        reps.len(),
        json_obj(metrics.iter().map(|&(n, _, v)| (n, json_num(v)))),
        json_obj(checks),
        json_obj(schemes),
        audit
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
    );
    write_out(&format!("layers-{}-seed{}.json", leg.name, a.seed), &body);
    for (name, _, v) in &metrics {
        eprintln!("  {name:<36} {v:.6}");
    }
    Ok(final_line(&audit, &metrics))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let env = scrub_env();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let leg = Leg::setup(&a.workload, a.seed).expect("workload name validated");
    let setup_s = start.elapsed().as_secs_f64();
    if a.setup_only {
        println!("setup_s {setup_s}");
        return ExitCode::SUCCESS;
    }
    let result = if a.trace {
        traced(&a, &leg, &env)
    } else {
        end_to_end(&a, &leg, setup_s, &env)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
