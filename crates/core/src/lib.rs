//! # musa-core — the DATE'05 mutation-sampling pipeline
//!
//! The paper's contribution, end to end:
//!
//! 1. [`OperatorProfile::measure`] — per-operator stuck-at efficiency
//!    (`ΔFC%`, `ΔL%`, `NLFCE`): **Table 1**;
//! 2. [`OperatorProfile::weights`] — efficiency weights for the
//!    test-oriented sampler;
//! 3. [`run_sampling_experiment`] — sample → generate validation data →
//!    Mutation Score on the full population + gate-level NLFCE:
//!    **Table 2**;
//! 4. [`Table1`] / [`Table2`] — drivers that regenerate the paper's
//!    tables on the benchmark suite;
//! 5. extension experiments [`sweep_fractions`] (E1),
//!    [`coverage_curves`] (E2), [`atpg_topup`] (E3) and
//!    [`equivalence_ablation`] (E4);
//! 6. the [`Campaign`] builder — the typed front door every CLI caller
//!    routes through: validate once, run any [`Task`], get a [`Report`]
//!    with run metadata, a stable text rendering and JSON;
//! 7. the benchmark trajectory ([`run_bench`], `musa bench`) — a fixed
//!    grid of timed workloads summarized with robust statistics,
//!    emitted as `musa.bench.v1` JSON and regression-gated against
//!    committed `BENCH_<n>.json` baselines.
//!
//! Repetition loops and mutant executions are sharded across worker
//! threads by the [`parallel`] module, and every differential-
//! simulation stage can run on the bit-parallel mutant lane engine
//! ([`ExperimentConfig::engine`], 63 mutants + reference per pass);
//! outcomes are bit-identical for every [`ExperimentConfig::jobs`]
//! value and both engines.
//!
//! # Example
//!
//! ```
//! use musa_circuits::Benchmark;
//! use musa_core::{run_sampling_experiment, ExperimentConfig};
//! use musa_testgen::SamplingStrategy;
//!
//! let circuit = Benchmark::C17.load()?;
//! let config = ExperimentConfig::fast(0xC0FFEE);
//! let outcome = run_sampling_experiment(&circuit, SamplingStrategy::random(0.5), &config)?;
//! println!(
//!     "MS = {:.2}%  NLFCE = {:+.0}  ({} vectors)",
//!     outcome.mutation_score_pct, outcome.nlfce, outcome.data_len
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_task;
pub mod campaign;
mod config;
mod data;
mod experiment;
mod extensions;
pub mod json;
pub mod lint_task;
pub mod paper;
pub mod parallel;
mod profile;
mod tables;
pub mod trace_report;

pub use bench_task::{
    bench_history, bench_history_json, compare, next_bench_path, render_bench_history, run_bench,
    BenchCell, BenchMeta, BenchOptions, BenchReport, BenchWorkload, CellInvariants, ComparePolicy,
    HistoryRow, Regression, BENCH_HISTORY_SCHEMA, BENCH_SCHEMA, DEFAULT_BENCHES,
};
pub use campaign::{
    BenchAblation, BenchOutcome, BenchSweep, BenchTopUp, Campaign, CampaignError, MgOutcome,
    Preset, Report, ReportData, RunMeta, Task, DEFAULT_SEED,
};
pub use config::ExperimentConfig;
pub use json::Json;
pub use lint_task::{
    lint_bench, lint_report_json, lint_source, render_lint_text, total_findings,
    LintFindingRow, LintRow, LINT_SCHEMA,
};
pub use data::{
    coverage_of_sessions, coverage_of_sessions_reduced, fault_universe, random_baseline_curve,
    reduced_universe, sessions_to_patterns, FaultSimStats,
};
pub use experiment::{
    run_sampling_experiment, run_sampling_experiment_on, SamplingAggregate, SamplingOutcome,
};
pub use parallel::{available_jobs, par_map, resolve_jobs, split_jobs, try_par_map};
pub use extensions::{
    atpg_topup, atpg_topup_on, coverage_curves, equivalence_ablation, sweep_fractions,
    AblationPoint, CurvePair, SweepPoint, TopUpMode, TopUpOutcome,
};
pub use profile::{OperatorEfficiency, OperatorProfile};
pub use trace_report::{
    chrome_json, render_profile, render_profile_data, trace_json, trace_json_with,
    validate_trace_document, TRACE_SCHEMA,
};
pub use tables::{Table1, Table1Row, Table2, Table2Row, TableError};
