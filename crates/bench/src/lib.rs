//! # musa-bench — harness regenerating the paper's evaluation
//!
//! Binaries (run with `--release`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — operator fault-coverage efficiency |
//! | `table2` | Table 2 — test-oriented vs random 10 % sampling |
//! | `sweep_fraction` | E1 — sampling-fraction sweep |
//! | `coverage_curves` | E2 — MFC/RFC curves |
//! | `atpg_topup` | E3 — ATPG effort with/without validation reuse |
//! | `equivalence_ablation` | E4 — MS vs equivalence budget |
//!
//! Every binary is a one-line wrapper over the shared [`cli`] layer:
//! arguments (`--fast`, `--paper`, `--seed N`, `--jobs N`,
//! `--engine E`, `--json`, `--help`) parse in one place, the run
//! routes through [`musa_core::Campaign`], and the default stdout is
//! byte-identical to the pre-redesign binaries (pinned by the diff
//! tests in `tests/cli_diff.rs`). `--json` emits the typed
//! [`musa_core::Report`] instead. The same layer parses the root
//! binary's `musa sample` and `musa bench` subcommands. Criterion
//! micro-benchmarks live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use cli::{
    drive, run_trajectory, BenchCommand, Bin, CliOptions, SampleArgs, TrajectoryArgs,
    BENCH_USAGE,
};
pub use musa_core::paper;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_are_consistent_products() {
        // Sanity: NLFCE ≈ ΔFC% × ΔL% for every Table 1 row (the paper
        // rounds to 3 significant figures).
        for &(circuit, op, dfc, dl, nlfce) in paper::TABLE1 {
            let product = dfc * dl;
            let tolerance = nlfce.abs() * 0.02 + 0.5;
            assert!(
                (product - nlfce).abs() < tolerance,
                "{circuit}/{op}: {dfc}×{dl}={product} vs {nlfce}"
            );
        }
    }

    #[test]
    fn paper_table2_test_oriented_always_wins() {
        for &(circuit, to_ms, to_nlfce, rs_ms, rs_nlfce) in paper::TABLE2 {
            assert!(to_ms > rs_ms, "{circuit} MS");
            assert!(to_nlfce > rs_nlfce, "{circuit} NLFCE");
        }
    }
}
