//! Figure 10 — normalised dynamic energy of the six headline schemes.

use readduo_bench::{normalized, render_table, write_csv, Harness, MatrixSource};
use readduo_core::{DeviceSpec, SchemeKind};
use readduo_pool::Pool;
use readduo_trace::Workload;

fn main() {
    let harness = Harness::from_env();
    let specs: Vec<DeviceSpec> = SchemeKind::headline()
        .into_iter()
        .map(DeviceSpec::from)
        .collect();
    let workloads = Workload::spec2006();
    eprintln!(
        "running {} schemes x {} workloads at {} instr/core …",
        specs.len(),
        workloads.len(),
        harness.instructions_per_core
    );
    let results = harness
        .run_matrix(
            &Pool::from_env(),
            &specs,
            &workloads,
            MatrixSource::Materialised,
        )
        .expect("bare schemes are valid specs");
    let rows = normalized(&results, SchemeKind::Ideal, |r| r.energy_total_pj());

    let mut header: Vec<String> = vec!["workload".into()];
    header.extend(specs.iter().map(|s| s.scheme.label()));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(w, cols)| {
            let mut row = vec![w.clone()];
            row.extend(cols.iter().map(|(_, v)| format!("{v:.3}")));
            row
        })
        .collect();

    println!("Figure 10: normalised dynamic energy (Ideal = 1.0)\n");
    println!("{}", render_table(&header, &table));
    let (_, geo) = rows.last().unwrap();
    for (s, v) in geo {
        println!("  {s:<12} geomean energy vs Ideal: {:+.1}%", (v - 1.0) * 100.0);
    }
    println!(
        "\npaper reference: Scrubbing +17%, M-metric +5%, Hybrid +8.7%, \
         LWT-4 +1.3%, Select-4:2 -22.2% (0.778x)"
    );

    let mut csv = vec![header];
    csv.extend(table);
    write_csv("fig10", &csv);
}
