//! The buffir benchmark: see `benchmark/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod catalogue;
pub mod compare;
pub mod json;
pub mod run;
pub mod stream;
pub mod trace;
pub mod workloads;
