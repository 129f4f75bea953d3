//! Reproduction harness for the paper's tables and figures.
//!
//! The `repro_*` binaries regenerate each experimental artifact:
//!
//! * `repro_table1` — Table 1 (MC-reduction on the benchmark suite);
//! * `repro_example1` — Example 1 / Figures 1 & 3 (baseline vs. MC
//!   implementations, equation and area comparison);
//! * `repro_example2` — Example 2 / Figure 4 (the hazard the baseline
//!   misses, with the verifier's witness trace);
//! * `repro_figures` — region/analysis facts the figures annotate;
//! * `repro_inverters` — Section III's input-inversion delay bound on the
//!   `C2` implementation;
//! * `repro_pipeline` — per-phase wall-clock profile of the pipeline over
//!   the suite, sequential vs. parallel (`BENCH_pipeline.json`).
//!
//! `loadgen` drives `simc serve` and records the daemon's latency. Speed
//! claims are measured by the `perfbench` workloads, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;
pub mod report;
