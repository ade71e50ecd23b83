//! Figure 3 — motivation: performance degradation and density penalty of
//! the state-of-the-art mitigation schemes (Scrubbing, M-metric, TLC).

use readduo_bench::{normalized, render_table, write_csv, Harness, MatrixSource};
use readduo_core::{DeviceSpec, SchemeKind};
use readduo_pool::Pool;
use readduo_trace::Workload;

fn main() {
    let harness = Harness::from_env();
    let specs: Vec<DeviceSpec> = [
        SchemeKind::Ideal,
        SchemeKind::Scrubbing,
        SchemeKind::MMetric,
        SchemeKind::Tlc,
    ]
    .map(DeviceSpec::from)
    .to_vec();
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
    let rows = normalized(&results, SchemeKind::Ideal, |r| r.exec_ns as f64);
    let (_, geo) = rows.last().unwrap();

    let header: Vec<String> = vec![
        "scheme".into(),
        "normalized exec time".into(),
        "relative density (bits/area)".into(),
    ];
    let mut table = Vec::new();
    for s in specs.iter().map(|spec| spec.scheme) {
        let exec = geo.iter().find(|(k, _)| *k == s).unwrap().1;
        // Density relative to the plain-MLC ideal: cells per line inverted.
        let density = SchemeKind::Ideal.storage().area_cells() / s.storage().area_cells();
        table.push(vec![
            s.label(),
            format!("{exec:.3}"),
            format!("{density:.3}"),
        ]);
    }

    println!("Figure 3: the state-of-the-art trade-off (geomean over 14 workloads)\n");
    println!("{}", render_table(&header, &table));
    println!(
        "\nThe motivation triangle: Scrubbing and M-metric give up performance; \
         TLC gives up density. ReadDuo (fig9/fig11) refuses both."
    );

    let mut csv = vec![header];
    csv.extend(table);
    write_csv("fig3", &csv);
}
