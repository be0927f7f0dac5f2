//! Regenerates every table and figure of the CSSTs paper.
//!
//! ```text
//! repro [--scale F] [--out DIR] <experiment>...
//!
//! experiments: table1 table2 table3 table4 table5 table6 table7
//!              figure10 figure11 blocksize ablation all
//! ```
//!
//! `--scale` multiplies workload sizes (default 1.0); `--out` writes a
//! CSV per experiment in addition to the console rendering. With no
//! experiment named, `all` runs; an unknown name is an error.

use csst_bench::{blocksize, figure10, scalability, tables, Table};
use std::path::PathBuf;

const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "figure10",
    "figure11",
    "blocksize",
    "ablation",
    "all",
];

struct Args {
    scale: f64,
    out: Option<PathBuf>,
    experiments: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = 1.0f64;
    let mut out = None;
    let mut experiments = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--out" => {
                out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale F] [--out DIR] <experiment>...\n\
                     experiments: {}",
                    EXPERIMENTS.join(" ")
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other if EXPERIMENTS.contains(&other) => experiments.push(other.to_string()),
            other => return Err(format!("unknown experiment {other}")),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".into());
    }
    Ok(Args {
        scale,
        out,
        experiments,
    })
}

fn write_out(out: &Option<PathBuf>, name: &str, csv: &str) {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, csv).expect("write csv");
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let wants = |name: &str| args.experiments.iter().any(|e| e == name || e == "all");
    let scale = args.scale;
    eprintln!("# repro at scale {scale}");

    // Tables are cached for figure10.
    type TableRunner = fn(f64) -> Table;
    let mut produced: Vec<(String, Table)> = Vec::new();
    let runners: Vec<(&str, TableRunner)> = vec![
        ("table1", tables::table1),
        ("table2", tables::table2),
        ("table3", tables::table3),
        ("table4", tables::table4),
        ("table5", tables::table5),
        ("table6", tables::table6),
        ("table7", tables::table7),
    ];
    let need_fig10 = wants("figure10");
    for (name, runner) in runners {
        if wants(name) || need_fig10 {
            eprintln!("# running {name}…");
            let table = runner(scale);
            if wants(name) {
                println!("{}", table.render());
            }
            write_out(&args.out, name, &table.to_csv());
            produced.push((name.to_string(), table));
        }
    }

    if need_fig10 {
        let get = |id: &str| -> &Table {
            &produced
                .iter()
                .find(|(n, _)| n == id)
                .expect("table produced")
                .1
        };
        let both: &[&str] = &["VCs", "STs"];
        let graphs: &[&str] = &["Graphs"];
        let groups = figure10::figure10(&[
            ("Data Races", get("table1"), both),
            ("Deadlocks", get("table2"), both),
            ("Memory bugs", get("table3"), both),
            ("X86-TSO consistency", get("table4"), both),
            ("Use-after-free", get("table5"), both),
            ("C11 data races", get("table6"), both),
            ("Linearizability", get("table7"), graphs),
        ]);
        println!("{}", figure10::render(&groups));
        write_out(&args.out, "figure10", &figure10::to_csv(&groups));
    }

    if wants("figure11") {
        eprintln!("# running figure11…");
        let mut cfg = scalability::ScalCfg::default();
        if scale < 1.0 {
            cfg.ells = cfg
                .ells
                .iter()
                .map(|&e| ((e as f64 * scale) as usize).max(100))
                .collect();
            cfg.queries = ((cfg.queries as f64 * scale) as usize).max(100);
        }
        let points = scalability::figure11(&cfg);
        println!("{}", scalability::render(&points));
        write_out(&args.out, "figure11", &scalability::to_csv(&points));
    }

    if wants("ablation") {
        eprintln!("# running ablation (VCs vs anchored VCs vs CSSTs)…");
        let mut cfg = scalability::ScalCfg::default();
        if scale < 1.0 {
            cfg.ells = cfg
                .ells
                .iter()
                .map(|&e| ((e as f64 * scale) as usize).max(100))
                .collect();
            cfg.queries = ((cfg.queries as f64 * scale) as usize).max(100);
        }
        let points = scalability::ablation(&cfg);
        println!("{}", scalability::render(&points));
        write_out(&args.out, "ablation", &scalability::to_csv(&points));
    }

    if wants("blocksize") {
        eprintln!("# running blocksize…");
        let mut cfg = blocksize::BlockCfg::default();
        if scale < 1.0 {
            cfg.ops = ((cfg.ops as f64 * scale) as usize).max(1000);
        }
        let points = blocksize::stress(&cfg);
        println!("{}", blocksize::render(&points));
        write_out(&args.out, "blocksize", &blocksize::to_csv(&points));
    }
}
