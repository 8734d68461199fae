//! # sixgen-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5.6–§7)
//! against the simulated substrate. Each experiment in [`experiments`]
//! prints the paper-style rows and writes a TSV of the underlying series
//! into a results directory; the `repro` binary dispatches them:
//!
//! ```text
//! cargo run --release -p sixgen-bench --bin repro -- all
//! cargo run --release -p sixgen-bench --bin repro -- fig4 --scale 0.5
//! ```
//!
//! Criterion micro-benchmarks of the hot primitives live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod pipeline;
pub mod trajectory;

pub use pipeline::{run_world, PrefixRunResult, WorldRun, WorldRunConfig};
