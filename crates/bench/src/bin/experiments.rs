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
//! CSV directory (default `results/`).

use ir_bench::exp::{
    ablation, aggregate, effectiveness, feedback_exp, fig3_table5, fig4, fig5_8, multiuser,
    ordering, scaling, table1_2, table4, table7, ExpContext, ExpResult,
};
use ir_bench::output::OutputDir;
use ir_bench::setup::{pick_representatives, profile_queries, TestBed};
use std::process::ExitCode;
use std::time::Instant;

type Runner = fn(&ExpContext<'_>) -> ExpResult<()>;

/// Every experiment by name, in the order `all` runs them. The usage
/// text, name validation and dispatch all read this one table.
const EXPERIMENTS: &[(&str, Runner)] = &[
    ("table1_2", |c| table1_2::run(c).map(drop)),
    ("table4", |c| table4::run(c).map(drop)),
    ("fig3", |c| fig3_table5::run(c).map(drop)),
    ("fig4", fig4::run),
    ("fig5_6", |c| fig5_8::run_add_only(c).map(drop)),
    ("fig7_8", |c| fig5_8::run_add_drop(c).map(drop)),
    ("table7", |c| table7::run(c).map(drop)),
    ("aggregate", |c| aggregate::run(c).map(drop)),
    ("effectiveness", |c| effectiveness::run(c).map(drop)),
    ("ablation", |c| ablation::run(c).map(drop)),
    ("feedback", |c| feedback_exp::run(c).map(drop)),
    ("multiuser", multiuser::run),
    ("ordering", |c| ordering::run(c).map(drop)),
    ("scaling", |c| scaling::run(c).map(drop)),
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
    let mut picked: Vec<&(&str, Runner)> = Vec::new();
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
    println!("building testbed at scale {scale} (paper geometry) ...");
    let bed = TestBed::at_scale(scale).map_err(|e| format!("testbed construction failed: {e}"))?;
    println!(
        "  {} docs, {} terms, {} postings, {} pages (PageSize {}), built in {:.1?}",
        bed.index.n_docs(),
        bed.index.n_terms(),
        bed.index.total_postings(),
        bed.index.total_pages(),
        bed.index.params().page_size,
        started.elapsed()
    );
    let out =
        OutputDir::new(&out_dir).map_err(|e| format!("cannot create output dir {out_dir}: {e}"))?;
    println!(
        "profiling the {} topic queries (DF vs Full, cold) ...",
        bed.n_queries()
    );
    let profiles = profile_queries(&bed).map_err(|e| format!("profiling failed: {e}"))?;
    let reps = pick_representatives(&profiles);
    println!(
        "representatives: QUERY1=topic {} ({:.0} %), QUERY2=topic {} ({:.0} %), \
         QUERY3=topic {} ({:.0} %), QUERY4=topic {} ({} terms)",
        reps.query1,
        profiles[reps.query1].savings * 100.0,
        reps.query2,
        profiles[reps.query2].savings * 100.0,
        reps.query3,
        profiles[reps.query3].savings * 100.0,
        reps.query4,
        profiles[reps.query4].n_terms
    );
    let ctx = ExpContext {
        bed: &bed,
        out: &out,
        profiles: &profiles,
        reps,
    };

    for (name, runner) in picked {
        let t = Instant::now();
        runner(&ctx).map_err(|e| format!("experiment {name} failed: {e}"))?;
        println!("[{name} done in {:.1?}]", t.elapsed());
    }
    println!(
        "\nall artifacts written to {}/ (total {:.1?})",
        out.path().display(),
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
