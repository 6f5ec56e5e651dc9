//! # temporal-bench
//!
//! Reproduction harness for the paper's evaluation: each `tables::tableN`
//! module regenerates the corresponding paper table; the binaries
//! (`table1`…`table4`, `run_all`) are thin wrappers. Timed end-to-end and
//! per-layer measurements live in the repository's `benchmark/` package.
//!
//! Scaling: `TF_SCALE=1` (default) is the paper's full scale; larger values
//! shrink datasets proportionally (shapes are preserved). Built ledgers are
//! cached under `target/bench-data/`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod harness;
pub mod regress;
pub mod tables;

pub use harness::{Ctx, TableOut};
