//! Figure 13 — sensitivity to the Select rewrite window s
//! (Select-4:1 vs Select-4:2).

use readduo_bench::{normalized, render_table, write_csv, Harness, MatrixSource};
use readduo_core::{DeviceSpec, SchemeKind};
use readduo_pool::Pool;
use readduo_trace::Workload;

fn main() {
    let harness = Harness::from_env();
    let s_points: [u8; 3] = [1, 2, 4];
    let specs: Vec<DeviceSpec> = std::iter::once(SchemeKind::Ideal)
        .chain(s_points.iter().map(|&s| SchemeKind::Select { k: 4, s }))
        .map(DeviceSpec::from)
        .collect();
    let workloads = Workload::spec2006();
    eprintln!(
        "sweeping Select window s over {:?} across {} workloads at {} instr/core …",
        s_points,
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

    println!("Figure 13: impact of Select rewrite window s on dynamic energy\n");
    println!("{}", render_table(&header, &table));
    let (_, geo) = rows.last().unwrap();
    let s1 = geo.iter().find(|(s, _)| *s == SchemeKind::Select { k: 4, s: 1 }).unwrap().1;
    let s2 = geo.iter().find(|(s, _)| *s == SchemeKind::Select { k: 4, s: 2 }).unwrap().1;
    println!(
        "\ns=1 → s=2 energy saving (geomean): {:.2}% (paper: 1.2%)",
        (s1 / s2 - 1.0) * 100.0
    );

    let mut csv = vec![header];
    csv.extend(table);
    write_csv("fig13", &csv);
}
