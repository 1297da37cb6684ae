//! # ir-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§5), all runnable through the `experiments` binary:
//!
//! ```sh
//! cargo run --release -p ir-bench --bin experiments -- all
//! cargo run --release -p ir-bench --bin experiments -- fig5_6 --scale 0.25
//! ```
//!
//! Each experiment prints the same rows/series the paper reports and
//! writes CSVs under `results/`. EXPERIMENTS.md records paper-vs-
//! measured for every artifact. Criterion micro-benchmarks live in
//! `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod chaos;
pub mod exp;
pub mod output;
pub mod report;
pub mod setup;
pub mod storage;
pub mod throughput;

pub use setup::TestBed;
