//! Paper-scale streaming smoke: runs the largest-footprint workload (mcf)
//! through every headline scheme in streaming mode and asserts the process
//! peak RSS stays under a fixed ceiling — the bounded-memory claim of the
//! streaming replay path, checked rather than assumed.
//!
//! With `--matrix` it instead runs the **full** Figure-9 headline matrix
//! (every scheme × every SPEC2006 workload) as a streamed matrix on one
//! worker, the `fig9@10M` acceptance configuration, so ci.sh can put a
//! wall-clock budget on it.
//!
//! `READDUO_INSTR` sets the volume (ci.sh runs this at 10M instructions
//! per core); `READDUO_RSS_CEILING_MB` overrides the ceiling (default
//! 512 MB).

use readduo_bench::{finish_telemetry, handle_help, peak_rss_bytes, Harness, MatrixSource, Source};
use readduo_core::{DeviceSpec, SchemeKind};
use readduo_pool::Pool;
use readduo_trace::Workload;
use std::time::Instant;

fn main() {
    handle_help(
        "stream_smoke",
        "Paper-scale streaming smoke: mcf through every headline scheme under an RSS ceiling (--matrix: full fig9 matrix)",
    );
    let h = Harness::from_env();
    let ceiling_mb = readduo_env::u64_at_least("READDUO_RSS_CEILING_MB", 1).unwrap_or(512);
    let schemes = SchemeKind::headline();
    let matrix = std::env::args().any(|a| a == "--matrix");
    let (label, wall_ms) = if matrix {
        let workloads = Workload::spec2006();
        eprintln!(
            "streaming fig9 matrix: {} schemes x {} workloads at {} instr/core (RSS ceiling {} MB) …",
            schemes.len(),
            workloads.len(),
            h.instructions_per_core,
            ceiling_mb
        );
        let t = Instant::now();
        let specs: Vec<DeviceSpec> = schemes.iter().map(|&s| s.into()).collect();
        let results = h
            .run_matrix(&Pool::new(1), &specs, &workloads, MatrixSource::Streamed)
            .expect("bare schemes are valid specs");
        assert_eq!(results.len(), schemes.len() * workloads.len());
        assert!(
            results.iter().all(|r| r.report.reads + r.report.writes > 0),
            "empty run in the streamed matrix"
        );
        (
            format!("{} schemes x {} workloads", schemes.len(), workloads.len()),
            t.elapsed().as_secs_f64() * 1e3,
        )
    } else {
        let mcf = Workload::by_name("mcf").expect("mcf is in the SPEC2006 set");
        eprintln!(
            "streaming mcf x {} schemes at {} instr/core (RSS ceiling {} MB) …",
            schemes.len(),
            h.instructions_per_core,
            ceiling_mb
        );
        let t = Instant::now();
        for &scheme in &schemes {
            let t1 = Instant::now();
            let r = h
                .run(&mcf, &scheme.into(), Source::Stream)
                .expect("a bare scheme is always a valid spec");
            eprintln!(
                "  {:<12} {:>7.0} ms  exec {:>12} ns  {} reads / {} writes",
                scheme.label(),
                t1.elapsed().as_secs_f64() * 1e3,
                r.report.exec_ns,
                r.report.reads,
                r.report.writes
            );
            assert!(r.report.reads + r.report.writes > 0, "empty run for {scheme}");
        }
        (
            format!("{} schemes x mcf", schemes.len()),
            t.elapsed().as_secs_f64() * 1e3,
        )
    };
    let rss = peak_rss_bytes().expect("VmHWM readable on Linux CI");
    let rss_mb = rss / (1024 * 1024);
    println!(
        "stream_smoke: {label} @ {} instr/core in {wall_ms:.0} ms, peak RSS {rss_mb} MB (ceiling {ceiling_mb} MB)",
        h.instructions_per_core,
    );
    assert!(
        rss_mb < ceiling_mb,
        "peak RSS {rss_mb} MB breached the {ceiling_mb} MB ceiling — streaming is no longer bounded"
    );
    finish_telemetry();
}
