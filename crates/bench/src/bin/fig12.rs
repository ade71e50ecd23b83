//! Figure 12 — sensitivity to the sub-interval count k (LWT-2 vs LWT-4).

use readduo_bench::{normalized, render_table, write_csv, Harness, MatrixSource};
use readduo_core::{DeviceSpec, SchemeKind};
use readduo_pool::Pool;
use readduo_trace::Workload;

fn main() {
    let harness = Harness::from_env();
    let k_points: [u8; 3] = [2, 4, 8];
    let specs: Vec<DeviceSpec> = std::iter::once(SchemeKind::Ideal)
        .chain(k_points.iter().map(|&k| SchemeKind::Lwt { k }))
        .map(DeviceSpec::from)
        .collect();
    let workloads = Workload::spec2006();
    eprintln!(
        "sweeping k over {:?} across {} workloads at {} instr/core …",
        k_points,
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

    println!("Figure 12: impact of sub-interval number k on execution time\n");
    println!("{}", render_table(&header, &table));
    let (_, geo) = rows.last().unwrap();
    let k2 = geo.iter().find(|(s, _)| *s == SchemeKind::Lwt { k: 2 }).unwrap().1;
    let k4 = geo.iter().find(|(s, _)| *s == SchemeKind::Lwt { k: 4 }).unwrap().1;
    println!(
        "\nk=2 → k=4 improvement (geomean): {:.2}% (paper: 0.7% overall, 2.3% for mcf)",
        (k2 / k4 - 1.0) * 100.0
    );
    println!(
        "flag storage cost: k=2: 3 bits, k=4: 6 bits, k=8: 11 bits per line"
    );

    let mut csv = vec![header];
    csv.extend(table);
    write_csv("fig12", &csv);
}
