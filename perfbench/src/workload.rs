//! The three workloads: which circuits, which experiment, which preset,
//! plus their set-up and the untraced experiment calls that `wall_s`
//! times. Why each workload exists is in `NOTES.md`.

use musa_circuits::{Benchmark, Circuit};
use musa_core::{run_sampling_experiment_on, ExperimentConfig, OperatorProfile, SamplingOutcome};
use musa_mutation::{generate_mutants, GenerateOptions, Mutant, MutationError, MutationOperator};
use musa_prng::{Prng, SplitMix64};
use musa_testgen::SamplingStrategy;

/// Worker threads every workload runs with.
pub const THREADS: usize = 2;

/// The operators `table1` profiles.
pub const TABLE1_OPERATORS: [MutationOperator; 4] = [
    MutationOperator::Lor,
    MutationOperator::Vr,
    MutationOperator::Cvr,
    MutationOperator::Cr,
];

/// The sampling fraction of the paper's Table 2.
pub const FRACTION: f64 = 0.1;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `OperatorProfile::measure` (Table 1) on b01, b03, c432 and c499.
    Table1,
    /// 10 % random sampling (Table 2) on the wide combinational c432.
    SampleC432,
    /// 10 % random sampling (Table 2) on sequential b03 and b05.
    SampleSeq,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Table1, Workload::SampleC432, Workload::SampleSeq];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::SampleC432 => "sample-c432",
            Workload::SampleSeq => "sample-seq",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The circuits, one experiment call (operation) each.
    pub fn benches(self) -> &'static [Benchmark] {
        match self {
            Workload::Table1 => &[
                Benchmark::B01,
                Benchmark::B03,
                Benchmark::C432,
                Benchmark::C499,
            ],
            Workload::SampleC432 => &[Benchmark::C432],
            Workload::SampleSeq => &[Benchmark::B03, Benchmark::B05],
        }
    }

    /// Passes per run. Pass `k` runs every experiment call with its own
    /// experiment seed (see [`Workload::experiment_seeds`]): one seed's
    /// work varies by tens of percent with the data it happens to
    /// generate, and a run averages that over its passes.
    pub fn passes(self) -> usize {
        match self {
            Workload::Table1 => 3,
            Workload::SampleC432 => 8,
            Workload::SampleSeq => 6,
        }
    }

    /// The experiment seed of each pass: the workload seed itself, then
    /// draws of a `SplitMix64` stream seeded with it.
    pub fn experiment_seeds(self, seed: u64) -> Vec<u64> {
        let mut stream = SplitMix64::new(seed);
        std::iter::once(seed)
            .chain(std::iter::repeat_with(|| stream.next_u64()))
            .take(self.passes())
            .collect()
    }

    /// The paper preset with experiment seed `seed` and [`THREADS`]
    /// workers.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        ExperimentConfig::paper(seed).with_jobs(THREADS)
    }
}

/// One circuit after set-up: loaded and with its mutant population.
pub struct Prepared {
    /// The parsed, checked and synthesized circuit.
    pub circuit: Circuit,
    /// The full mutant population (every operator).
    pub population: Vec<Mutant>,
}

/// Loads every circuit of `workload` and generates its population.
///
/// # Errors
///
/// Returns the load error of a circuit that fails to load.
pub fn set_up(workload: Workload) -> Result<Vec<Prepared>, String> {
    workload
        .benches()
        .iter()
        .map(|bench| {
            let circuit = bench.load().map_err(|e| format!("{bench}: {e}"))?;
            let population =
                generate_mutants(&circuit.checked, &circuit.name, &GenerateOptions::default());
            Ok(Prepared {
                circuit,
                population,
            })
        })
        .collect()
}

/// The result of one experiment call.
#[derive(Debug)]
pub enum Outcome {
    /// Table 1 rows of one circuit.
    Profile(OperatorProfile),
    /// Table 2 cell of one circuit.
    Sampling(SamplingOutcome),
}

impl Outcome {
    /// Every field, floats as exact bit patterns (`Debug` of `f64`
    /// round-trips), for bit-for-bit comparison.
    pub fn full(&self) -> String {
        format!("{self:?}")
    }
}

/// Runs the experiment call of `workload` on one prepared circuit.
///
/// # Errors
///
/// Propagates the experiment's [`MutationError`].
pub fn run_op(
    workload: Workload,
    prepared: &Prepared,
    config: &ExperimentConfig,
) -> Result<Outcome, MutationError> {
    match workload {
        Workload::Table1 => OperatorProfile::measure(&prepared.circuit, &TABLE1_OPERATORS, config)
            .map(Outcome::Profile),
        Workload::SampleC432 | Workload::SampleSeq => run_sampling_experiment_on(
            &prepared.circuit,
            &prepared.population,
            SamplingStrategy::random(FRACTION),
            config,
        )
        .map(Outcome::Sampling),
    }
}
