//! Benchmark harness regenerating every table and figure of the GSIM
//! paper's evaluation (§IV).
//!
//! Each experiment is a library function returning plain data, consumed
//! by the `repro` binary, which prints paper-style tables. Absolute
//! numbers differ from the paper's host (and our substrate is a
//! bytecode interpreter, not compiled C++), but the *shape* — who wins,
//! by what factor, where crossovers fall — is the reproduction target;
//! see EXPERIMENTS.md. The repository's one performance record is the
//! standalone benchmark in `benchmark/` (`BENCHMARK.json`), which links
//! [`json`] from here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod json;

pub use harness::{measure_preset, RunStats, WorkloadKind};
