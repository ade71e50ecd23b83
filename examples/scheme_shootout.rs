//! Scheme shootout on one workload: run every scheme configuration on the
//! benchmark named on the command line (default `mcf`) and print the full
//! metric panel — time, energy, lifetime, read-mode mix, the share of reads
//! to lines with no tracked write time, and R-M-read conversions.
//!
//! ```text
//! cargo run --release --example scheme_shootout -- sphinx3
//! ```

use readduo::core::{DeviceSpec, SchemeKind};
use readduo::memsim::MemoryConfig;
use readduo::trace::Workload;
use readduo_bench::{Harness, MatrixSource};
use readduo_pool::Pool;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mcf".into());
    let workload = Workload::by_name(&name)
        .unwrap_or_else(|| panic!("unknown workload {name}; see Workload::spec2006()"));
    let instr = std::env::var("READDUO_INSTR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500_000u64);

    let harness = Harness {
        instructions_per_core: instr,
        cores: 4,
        seed: 11,
        memory: MemoryConfig::paper(),
    };
    let kinds = [
        SchemeKind::Ideal,
        SchemeKind::Scrubbing,
        SchemeKind::ScrubbingW0,
        SchemeKind::MMetric,
        SchemeKind::Hybrid,
        SchemeKind::Lwt { k: 2 },
        SchemeKind::Lwt { k: 4 },
        SchemeKind::Select { k: 4, s: 1 },
        SchemeKind::Select { k: 4, s: 2 },
        SchemeKind::Tlc,
    ]
    .map(DeviceSpec::from);
    let results = harness
        .run_matrix(
            &Pool::from_env(),
            &kinds,
            &[workload],
            MatrixSource::Materialised,
        )
        .expect("bare schemes are valid specs");

    println!(
        "workload {name}: {} reads, {} writes over {instr} instr/core x 4 cores\n",
        results[0].report.reads, results[0].report.writes
    );
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8} {:>9}",
        "scheme", "exec(ms)", "energy(uJ)", "Mcells", "R%", "M%", "RM%", "untrk%", "conv", "scrubs"
    );
    for r in &results {
        let rep = &r.report;
        let reads = rep.reads.max(1) as f64;
        println!(
            "{:<16} {:>9.3} {:>9.1} {:>9.2} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>8} {:>9}",
            r.scheme.label(),
            rep.exec_seconds() * 1e3,
            rep.energy_total_pj() / 1e6,
            rep.cells_written_total() as f64 / 1e6,
            100.0 * rep.reads_r as f64 / reads,
            100.0 * rep.reads_m as f64 / reads,
            100.0 * rep.reads_rm as f64 / reads,
            100.0 * rep.untracked_fraction(),
            rep.conversions,
            rep.scrubs,
        );
    }
    println!(
        "\nNote Scrubbing-W0: the only *provably* reliable R-sensing \
         configuration, and the paper's argument for why pure R-sensing \
         is untenable (2-3x slowdown)."
    );
}
