//! # musa — MUtation SAmpling for structural test data
//!
//! Facade crate re-exporting the whole `musa` workspace: a from-scratch
//! reproduction of *“Mutation Sampling Technique for the Generation of
//! Structural Test Data”* (Scholivé, Beroulle, Robach, Flottes, Rouzeyre —
//! DATE 2005).
//!
//! The workspace implements the full mini-EDA flow the paper depends on:
//!
//! * [`hdl`] — the *MiniHDL* behavioral language (AST, parser, checker,
//!   cycle simulator, pretty-printer);
//! * [`netlist`] — gate-level netlists, `.bench` I/O, bit-parallel logic
//!   simulation and stuck-at fault simulation;
//! * [`synth`] — RTL synthesis from MiniHDL to gates;
//! * [`mutation`] — the ten VHDL-style mutation operators, mutant
//!   generation/execution and mutation-score computation;
//! * [`analysis`] — dataflow analyses over the checked AST feeding the
//!   lint catalog (`musa lint`) and the static equivalent-mutant
//!   pre-screen (`--screen static`);
//! * [`testgen`] — pseudo-random and mutation-guided test generation,
//!   mutant sampling strategies, and a PODEM ATPG;
//! * [`circuits`] — behavioral re-implementations of the paper's benchmark
//!   circuits (ITC'99 b01/b03, ISCAS'85 c432/c499, and friends);
//! * [`metrics`] — MS, coverage curves, ΔFC%, ΔL% and NLFCE;
//! * [`core`] — the paper's pipeline: operator-efficiency profiling, the
//!   test-oriented sampling experiments (Tables 1 and 2) and the
//!   [`Campaign`](musa_core::Campaign) front door with typed,
//!   JSON-serializable reports;
//! * [`bench`](mod@bench) — the experiment binaries plus the shared
//!   [`cli`](musa_bench::cli) argument layer they and `musa sample`
//!   parse through.
//!
//! ## Quickstart
//!
//! ```
//! use musa::circuits::Benchmark;
//! use musa::core::{ExperimentConfig, run_sampling_experiment};
//! use musa::testgen::SamplingStrategy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = Benchmark::B01.load()?;
//! let config = ExperimentConfig::fast(0xC0FFEE);
//! let outcome = run_sampling_experiment(&circuit, SamplingStrategy::random(0.10), &config)?;
//! println!("MS = {:.2}%  NLFCE = {:+.0}", outcome.mutation_score_pct, outcome.nlfce);
//! # Ok(())
//! # }
//! ```

pub use musa_analysis as analysis;
pub use musa_bench as bench;
pub use musa_circuits as circuits;
pub use musa_core as core;
pub use musa_hdl as hdl;
pub use musa_metrics as metrics;
pub use musa_mutation as mutation;
pub use musa_netlist as netlist;
pub use musa_prng as prng;
pub use musa_synth as synth;
pub use musa_testgen as testgen;
pub use musa_trace as trace;
