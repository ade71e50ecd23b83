//! Figure 14 — the R-M-read conversion ablation: LWT-4 with and without
//! converting untracked reads into redundant writes.

use readduo_bench::{normalized, render_table, write_csv, Harness, MatrixSource};
use readduo_core::{DeviceSpec, SchemeKind};
use readduo_pool::Pool;
use readduo_trace::Workload;

fn main() {
    let harness = Harness::from_env();
    let specs: Vec<DeviceSpec> = [
        SchemeKind::Ideal,
        SchemeKind::LwtNoConversion { k: 4 },
        SchemeKind::Lwt { k: 4 },
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

    println!("Figure 14: impact of R-M-read conversion on execution time\n");
    println!("{}", render_table(&header, &table));
    let sphinx = rows.iter().find(|(w, _)| w == "sphinx3").expect("sphinx3 row");
    let no = sphinx.1.iter().find(|(s, _)| *s == SchemeKind::LwtNoConversion { k: 4 }).unwrap().1;
    let yes = sphinx.1.iter().find(|(s, _)| *s == SchemeKind::Lwt { k: 4 }).unwrap().1;
    println!(
        "\nsphinx3 improvement from conversion: {:.1}% (paper: 22%)",
        (no / yes - 1.0) * 100.0
    );
    let (_, geo) = rows.last().unwrap();
    let no_g = geo.iter().find(|(s, _)| *s == SchemeKind::LwtNoConversion { k: 4 }).unwrap().1;
    let yes_g = geo.iter().find(|(s, _)| *s == SchemeKind::Lwt { k: 4 }).unwrap().1;
    println!(
        "overall improvement (geomean): {:.1}% (paper: 2.9%)",
        (no_g / yes_g - 1.0) * 100.0
    );

    let mut csv = vec![header];
    csv.extend(table);
    write_csv("fig14", &csv);
}
