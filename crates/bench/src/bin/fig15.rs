//! Figure 15 — PCM lifetime impact: total cell writes per scheme,
//! expressed as relative lifetime (inverse write volume, Ideal = 1.0).

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
    // Lifetime ∝ 1 / cell-write volume.
    let rows = normalized(&results, SchemeKind::Ideal, |r| {
        r.cells_written_total().max(1) as f64
    });

    let mut header: Vec<String> = vec!["workload".into()];
    header.extend(specs.iter().map(|s| s.scheme.label()));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(w, cols)| {
            let mut row = vec![w.clone()];
            row.extend(cols.iter().map(|(_, v)| format!("{:.3}", 1.0 / v)));
            row
        })
        .collect();

    println!("Figure 15: relative PCM lifetime (Ideal = 1.0; higher is better)\n");
    println!("{}", render_table(&header, &table));
    let (_, geo) = rows.last().unwrap();
    for (s, v) in geo {
        println!(
            "  {s:<12} geomean lifetime vs Ideal: {:+.1}%",
            (1.0 / v - 1.0) * 100.0
        );
    }
    println!(
        "\npaper reference: Scrubbing -12.4%, M-metric ~0%, Hybrid -6%, \
         LWT-4 -10%, Select-4:2 +42%"
    );

    let mut csv = vec![header];
    csv.extend(table);
    write_csv("fig15", &csv);
}
