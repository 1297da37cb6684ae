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
//! writes CSVs under `results/`; every read count the repository gates
//! is a row of one of them (`scripts/check_goldens.sh` byte-compares
//! all of them against one run). EXPERIMENTS.md records paper-vs-
//! measured for every artifact. One more experiment, `experiments
//! chaos`, runs the seeded fault-injection matrix ([`exp::chaos`]);
//! wall time is measured by the standalone `benchmark/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp;
pub mod ledger;
pub mod output;
pub mod setup;

pub use setup::TestBed;
