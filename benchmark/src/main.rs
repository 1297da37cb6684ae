//! Command line of the buffir benchmark; `benchmark/run.sh` builds and
//! runs it.
//!
//! ```text
//! buffir-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! buffir-benchmark [--seed N] [--scale S] [--trace] [--quick]      all five, a table
//! buffir-benchmark compare A.json B.json
//! buffir-benchmark agree A.json B.json
//! buffir-benchmark manifest                                        prints BENCHMARK.json
//! ```

use buffir_benchmark::catalogue::{manifest, Metric, END_TO_END, PER_LAYER};
use buffir_benchmark::compare::{agree, compare};
use buffir_benchmark::json::{num, obj, text, Doc};
use buffir_benchmark::run::{
    document, end_to_end, global_metrics, run_workload, write_document, Options, Setup,
    WorkloadReport, QUICK_SCALE,
};
use buffir_benchmark::workloads::{find, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Collection scale at defaults. The paper's geometry at σ = 1 takes
/// 21 s to set up here, more than a whole run may; at 1/16 (the
/// repository's `CorpusConfig::small`) three set-ups fit in 3 s.
const DEFAULT_SCALE: f64 = 0.0625;
/// Time budget of the timed passes at defaults (`run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;

struct Cli {
    opts: Options,
    workload: Option<&'static Workload>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let out_dir = std::env::var_os("BENCH_OUT_DIR").map_or("benchmark/out".into(), PathBuf::from);
    let mut cli = Cli {
        opts: Options {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            scale: DEFAULT_SCALE,
            timed: true,
            trace: false,
            quick: false,
            out_dir,
        },
        workload: None,
        out: None,
    };
    let mut scale_given = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(find(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                cli.opts.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} out of range"));
                }
                cli.opts.seconds = s;
            }
            "--scale" => {
                let s: f64 = value("a scale in (0, 1]")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if !(s > 0.0 && s <= 1.0) {
                    return Err(format!("--scale {s} must be in (0, 1]"));
                }
                cli.opts.scale = s;
                scale_given = true;
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or bare `--trace`.
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => cli.opts.quick = true,
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.opts.quick {
        cli.opts.seconds = 0.0;
        if !scale_given {
            cli.opts.scale = QUICK_SCALE;
        }
    }
    // One workload under `--trace 1` is the driver asking for the
    // per-layer metrics alone; the all-workload table shows both.
    cli.opts.timed = cli.workload.is_none() || !cli.opts.trace;
    Ok(cli)
}

fn metric_line(m: &Metric, value: f64) -> (&'static str, serde::Value) {
    (m.name, obj([("value", num(value)), ("unit", text(m.unit))]))
}

/// The one-line result the driver reads: end-to-end metrics untraced,
/// per-layer metrics traced.
fn driver_line(setup: &Setup, r: &WorkloadReport) -> String {
    let metrics: Vec<_> = match (&r.layers, &r.timed) {
        (Some(layers), _) => PER_LAYER
            .iter()
            .zip(layers)
            .map(|(m, (_, v))| metric_line(m, *v))
            .collect(),
        (None, Some(timed)) => {
            let globals = global_metrics(setup);
            END_TO_END
                .iter()
                .map(|m| metric_line(m, end_to_end(timed, &globals, m.name).value))
                .collect()
        }
        (None, None) => Vec::new(),
    };
    Doc(obj([
        ("correct", serde::Value::Bool(r.failed == 0)),
        ("attempted", num(r.attempted.max(1) as f64)),
        ("failed", num(r.failed as f64)),
        ("metrics", obj(metrics)),
    ]))
    .render()
}

fn print_table(setup: &Setup, reports: &[WorkloadReport]) {
    let globals = global_metrics(setup);
    println!(
        "{:<17} {:<26} {:>16} {:<10} detail",
        "workload", "metric", "value", "unit"
    );
    for r in reports {
        if let Some(t) = &r.timed {
            for m in &END_TO_END {
                let measured = end_to_end(t, &globals, m.name);
                let detail = match m.name {
                    "latency_p50_ms" | "latency_p99_ms" => format!(
                        "per-query median over {} passes, {} samples ({} beyond p99)",
                        measured.reps.len(),
                        t.samples_per_pass,
                        t.samples_per_pass / 100
                    ),
                    _ => format!("median of {}", measured.reps.len()),
                };
                println!(
                    "{:<17} {:<26} {:>16.6} {:<10} {detail}",
                    r.workload.name, m.name, measured.value, m.unit
                );
            }
            println!(
                "{:<17} {:<26} {:>16.6} {:<10} {} failed of {} attempted",
                r.workload.name,
                "failed_share",
                r.failed as f64 / r.attempted.max(1) as f64,
                "ratio",
                r.failed,
                r.attempted
            );
            if let Some((_, digest)) = &t.exact {
                println!("{:<17} answer digest {digest:016x}", r.workload.name);
            }
        }
        if let Some(layers) = &r.layers {
            for (m, (_, v)) in PER_LAYER.iter().zip(layers) {
                println!(
                    "{:<17} {:<44} {:>16.6} {}",
                    r.workload.name, m.name, v, m.unit
                );
            }
        }
    }
}

fn load(path: &str) -> Result<serde::Value, String> {
    Doc::load(Path::new(path)).map(|d| d.0)
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            println!("{}", Doc(manifest(DEFAULT_SECONDS)).render());
            Ok(ExitCode::SUCCESS)
        }
        Some(cmd @ ("compare" | "agree")) => {
            let [_, a, b] = args else {
                return Err(format!("usage: {cmd} A.json B.json"));
            };
            let (a, b) = (load(a)?, load(b)?);
            if cmd == "agree" {
                agree(&a, &b)?;
                println!("runs agree");
                return Ok(ExitCode::SUCCESS);
            }
            let (table, problems) = compare(&a, &b);
            print!("{table}");
            println!("{problems} problem(s)");
            Ok(if problems == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => {
            let cli = parse(args)?;
            let setup = Setup::new(&cli.opts)?;
            let selected: Vec<&'static Workload> = match cli.workload {
                Some(w) => vec![w],
                None => WORKLOADS.iter().collect(),
            };
            let mut reports = Vec::new();
            for w in selected {
                eprintln!("running {} ...", w.name);
                reports.push(run_workload(&setup, w, &cli.opts)?);
            }
            if let Some(out) = &cli.out {
                let head = std::env::var("BENCH_GIT_HEAD").unwrap_or_else(|_| "unknown".into());
                write_document(&document(&cli.opts, &setup, &head, &reports), out)?;
            }
            if cli.workload.is_some() {
                println!("{}", driver_line(&setup, &reports[0]));
            } else {
                print_table(&setup, &reports);
            }
            let failed: u64 = reports.iter().map(|r| r.failed).sum();
            Ok(if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("buffir-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
