//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! ```sh
//! cargo run --release -p ir-bench --bin experiments -- all
//! cargo run --release -p ir-bench --bin experiments -- fig5_6 table7
//! cargo run --release -p ir-bench --bin experiments -- all --scale 0.25
//! ```
//!
//! `--scale σ` picks the collection scale (paper geometry, documents
//! and page size shrink together; default 1/16). `--out DIR` sets the
//! artifact directory (default `results/`).

use ir_bench::exp::{
    ablation, aggregate, chaos, effectiveness, feedback_exp, fig3_table5, fig4, fig5_8, multiuser,
    ordering, scaling, table1_2, table4, table7, ExpContext, Experiment,
};
use std::process::ExitCode;
use std::time::Instant;

/// Every experiment by name, in the order `all` runs them. The usage
/// text, name validation and dispatch all read this one table.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1_2", table1_2::run),
    ("table4", table4::run),
    ("fig3", fig3_table5::run),
    ("fig4", fig4::run),
    ("fig5_6", fig5_8::run_add_only),
    ("fig7_8", fig5_8::run_add_drop),
    ("table7", table7::run),
    ("aggregate", aggregate::run),
    ("effectiveness", effectiveness::run),
    ("ablation", ablation::run),
    ("feedback", feedback_exp::run),
    ("multiuser", multiuser::run),
    ("ordering", ordering::run),
    ("scaling", scaling::run),
    ("chaos", chaos::run),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: experiments [EXPERIMENT ...] [--scale SIGMA] [--out DIR]\nexperiments: all {}",
        names.join(" ")
    )
}

fn run(args: &[String]) -> Result<(), String> {
    let mut scale = 1.0 / 16.0;
    let mut out_dir = "results".to_string();
    let mut names: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v > 0.0 && *v <= 1.0)
                    .ok_or_else(|| format!("--scale needs a number in (0, 1]\n{}", usage()))?;
            }
            "--out" => {
                i += 1;
                out_dir = args
                    .get(i)
                    .ok_or_else(|| format!("--out needs a directory\n{}", usage()))?
                    .clone();
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            name => names.push(name),
        }
        i += 1;
    }
    let mut picked: Vec<&(&str, Experiment)> = Vec::new();
    if names.is_empty() || names.contains(&"all") {
        picked.extend(EXPERIMENTS);
    } else {
        for name in names {
            let entry = EXPERIMENTS
                .iter()
                .find(|(known, _)| *known == name)
                .ok_or_else(|| format!("unknown experiment {name:?}\n{}", usage()))?;
            picked.push(entry);
        }
    }

    let started = Instant::now();
    let ctx = ExpContext::new(scale, &out_dir).map_err(|e| e.to_string())?;
    for (name, experiment) in picked {
        let t = Instant::now();
        ctx.run(*experiment)
            .map_err(|e| format!("experiment {name} failed: {e}"))?;
        println!("[{name} done in {:.1?}]", t.elapsed());
    }
    println!(
        "\nall artifacts written to {}/ (total {:.1?})",
        ctx.out.path().display(),
        started.elapsed()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
