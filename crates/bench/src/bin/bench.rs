//! The fault-tolerance harness binary.
//!
//! ```sh
//! # Drive every policy × layout combination under seeded faults:
//! cargo run --release -p ir-bench --bin bench -- chaos --seed 193
//! ```
//!
//! The `chaos` report contains no wall-clock numbers: two runs with the
//! same seed and scale print byte-identical output (CI diffs them).
//! Read counts live in the golden CSVs (`experiments` +
//! `scripts/check_goldens.sh`), wall time in `benchmark/`.

use std::process::ExitCode;

const USAGE: &str = "usage: bench chaos [--seed N] [--scale SIGMA]";

fn run_chaos(args: &[String]) -> Result<(), String> {
    let mut seed = 193u64;
    let mut scale = 1.0 / 16.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an unsigned integer")?;
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|v| *v > 0.0 && *v <= 1.0)
                    .ok_or("--scale needs a number in (0, 1]")?;
            }
            other => return Err(format!("unknown chaos flag {other:?}")),
        }
        i += 1;
    }
    print!("{}", ir_bench::chaos::run(seed, scale)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("chaos") => run_chaos(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
