//! Extension experiments E1–E4 (see `DESIGN.md` §1).
//!
//! The paper's own motivation (§1: validation-data reuse should cut
//! ATPG effort; §5: "further experiments must be conducted") defines
//! these follow-ups:
//!
//! * **E1** — sampling-fraction sweep: MS and NLFCE of both strategies
//!   as the sample grows from 5 % to 100 %.
//! * **E2** — the coverage-versus-length curves behind `ΔFC`/`ΔL`.
//! * **E3** — ATPG top-up: deterministic test generation effort with and
//!   without re-used validation data.
//! * **E4** — equivalence-budget ablation: sensitivity of the Mutation
//!   Score to the equivalent-mutant presumption budget.

use crate::config::ExperimentConfig;
use crate::data::{coverage_of_sessions, fault_universe, random_baseline_curve};
use crate::experiment::{
    classify_once, kills_over_sessions, population_plan, run_sampling_experiment_on,
    score_from_memo, SamplingOutcome,
};
use crate::tables::TableError;
use musa_circuits::{Benchmark, Circuit};
use musa_mutation::{generate_mutants, EquivalencePolicy, GenerateOptions, MutationScore};
use musa_netlist::{fault_simulate_sessions, Fault, Pattern};
use musa_prng::{Prng, SplitMix64};
use musa_testgen::{
    atpg_all, lfsr_patterns, mutation_guided_tests, MgConfig, OperatorWeights, PodemResult,
    SamplingStrategy,
};

// ---------------------------------------------------------------------
// E1 — sampling-fraction sweep
// ---------------------------------------------------------------------

/// One sweep point: both strategies at one fraction.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The sampling fraction.
    pub fraction: f64,
    /// Test-oriented outcome.
    pub test_oriented: SamplingOutcome,
    /// Random outcome.
    pub random: SamplingOutcome,
}

/// Runs E1 on one benchmark.
///
/// # Errors
///
/// Returns a [`TableError`] on load or mutation failures.
pub fn sweep_fractions(
    bench: Benchmark,
    fractions: &[f64],
    config: &ExperimentConfig,
) -> Result<Vec<SweepPoint>, TableError> {
    let circuit = bench.load()?;
    let profile = crate::profile::OperatorProfile::measure(
        &circuit,
        &musa_mutation::MutationOperator::all(),
        config,
    )?;
    let weights = profile.weights();
    let population = generate_mutants(
        &circuit.checked,
        &circuit.name,
        &GenerateOptions::default(),
    );
    let mut points = Vec::with_capacity(fractions.len());
    for &fraction in fractions {
        let test_oriented = run_sampling_experiment_on(
            &circuit,
            &population,
            SamplingStrategy::test_oriented(fraction, weights_clone(&weights)),
            config,
        )?;
        let random = run_sampling_experiment_on(
            &circuit,
            &population,
            SamplingStrategy::random(fraction),
            config,
        )?;
        points.push(SweepPoint {
            fraction,
            test_oriented,
            random,
        });
    }
    Ok(points)
}

fn weights_clone(w: &OperatorWeights) -> OperatorWeights {
    w.clone()
}

// ---------------------------------------------------------------------
// E2 — coverage-versus-length curves
// ---------------------------------------------------------------------

/// The two curves behind one circuit's ΔFC/ΔL computation.
#[derive(Debug, Clone)]
pub struct CurvePair {
    /// Circuit name.
    pub circuit: String,
    /// `(length, coverage)` samples of the mutation-data curve (MFC).
    pub mutation: Vec<(usize, f64)>,
    /// `(length, coverage)` samples of the pseudo-random curve (RFC).
    pub random: Vec<(usize, f64)>,
}

/// Runs E2 on one benchmark: generates validation data from the whole
/// mutant population and samples both coverage curves.
///
/// # Errors
///
/// Returns a [`TableError`] on load or mutation failures.
pub fn coverage_curves(
    bench: Benchmark,
    points: usize,
    config: &ExperimentConfig,
) -> Result<CurvePair, TableError> {
    let circuit = bench.load()?;
    let faults = fault_universe(&circuit);
    let population = generate_mutants(
        &circuit.checked,
        &circuit.name,
        &GenerateOptions::default(),
    );
    let mg = MgConfig {
        seed: config.seed ^ 0xE2,
        ..config.mg
    };
    let generated = mutation_guided_tests(&circuit.checked, &circuit.name, &population, &mg)
        .map_err(TableError::from)?;
    let mutation = coverage_of_sessions(&circuit, &faults, &generated.sessions);
    let random = random_baseline_curve(
        &circuit,
        &faults,
        config.baseline_len(mutation.len()),
        config.seed ^ 0xE2E2,
    );
    Ok(CurvePair {
        circuit: circuit.name.clone(),
        mutation: mutation.sample(points),
        random: random.sample(points),
    })
}

// ---------------------------------------------------------------------
// E3 — ATPG top-up
// ---------------------------------------------------------------------

/// The initial test set handed to the ATPG stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopUpMode {
    /// No initial data: ATPG targets every fault.
    Scratch,
    /// A pseudo-random prefix (the industry default the paper cites).
    RandomFirst,
    /// Re-used mutation validation data (the paper's proposal).
    ValidationFirst,
}

impl TopUpMode {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            TopUpMode::Scratch => "scratch",
            TopUpMode::RandomFirst => "random-first",
            TopUpMode::ValidationFirst => "validation-first",
        }
    }
}

/// Result of one E3 run.
#[derive(Debug, Clone)]
pub struct TopUpOutcome {
    /// Which initial data was used.
    pub mode: TopUpMode,
    /// Vectors applied before ATPG.
    pub initial_vectors: usize,
    /// Faults still undetected after the initial data (= ATPG targets).
    pub atpg_targets: usize,
    /// PODEM backtracks spent (the paper's "test generation effort").
    pub backtracks: u64,
    /// Deterministic vectors ATPG added.
    pub atpg_vectors: usize,
    /// Faults proven untestable.
    pub untestable: usize,
    /// Faults aborted at the backtrack limit.
    pub aborted: usize,
    /// Final fault coverage over the whole universe.
    pub final_coverage: f64,
}

/// Runs E3 on one *combinational* benchmark for all three modes.
///
/// # Errors
///
/// Returns a [`TableError`] on load or mutation failures.
///
/// # Panics
///
/// Panics if the benchmark is sequential (PODEM is combinational; the
/// paper's c432/c499 are the E3 targets).
pub fn atpg_topup(
    bench: Benchmark,
    backtrack_limit: u64,
    config: &ExperimentConfig,
) -> Result<Vec<TopUpOutcome>, TableError> {
    let circuit = bench.load()?;
    atpg_topup_on(&circuit, backtrack_limit, config)
}

/// [`atpg_topup`] over an already-loaded circuit (spares the re-load
/// when the caller has checked combinationality itself).
///
/// # Errors
///
/// Returns a [`TableError`] on mutation failures.
///
/// # Panics
///
/// Panics if the circuit is sequential (PODEM is combinational; the
/// paper's c432/c499 are the E3 targets).
pub fn atpg_topup_on(
    circuit: &Circuit,
    backtrack_limit: u64,
    config: &ExperimentConfig,
) -> Result<Vec<TopUpOutcome>, TableError> {
    assert!(
        circuit.is_combinational(),
        "E3 targets combinational circuits"
    );
    let faults = fault_universe(circuit);
    let mut seeder = SplitMix64::new(config.seed ^ 0xE3);

    // Validation data from the full mutant population.
    let population = generate_mutants(
        &circuit.checked,
        &circuit.name,
        &GenerateOptions::default(),
    );
    let mg = MgConfig {
        seed: seeder.next_u64(),
        ..config.mg
    };
    let generated = mutation_guided_tests(&circuit.checked, &circuit.name, &population, &mg)
        .map_err(TableError::from)?;
    let validation_patterns: Vec<Pattern> = crate::data::sessions_to_patterns(
        circuit,
        &generated.sessions,
    )
    .into_iter()
    .flatten()
    .collect();
    let random_patterns = lfsr_patterns(
        circuit.netlist.inputs().len(),
        validation_patterns.len().max(1),
        seeder.next_u64(),
    );

    let modes: [(TopUpMode, Vec<Pattern>); 3] = [
        (TopUpMode::Scratch, Vec::new()),
        (TopUpMode::RandomFirst, random_patterns),
        (TopUpMode::ValidationFirst, validation_patterns),
    ];
    let mut outcomes = Vec::with_capacity(3);
    for (mode, initial) in modes {
        outcomes.push(top_up_once(circuit, &faults, mode, initial, backtrack_limit));
    }
    Ok(outcomes)
}

fn top_up_once(
    circuit: &Circuit,
    faults: &[Fault],
    mode: TopUpMode,
    initial: Vec<Pattern>,
    backtrack_limit: u64,
) -> TopUpOutcome {
    let nl = &circuit.netlist;
    let initial_vectors = initial.len();
    let after_initial = fault_simulate_sessions(nl, faults, &[initial]);
    let mut undetected: Vec<Fault> = after_initial.undetected();
    let atpg_targets = undetected.len();

    let mut backtracks = 0u64;
    let mut untestable = 0usize;
    let mut aborted = 0usize;
    let mut atpg_vectors = 0usize;
    let mut detected_total = after_initial.detected_count();

    while let Some(fault) = undetected.first().copied() {
        let (results, stats) = atpg_all(nl, &[fault], backtrack_limit);
        backtracks += stats.backtracks;
        match &results[0] {
            PodemResult::Test(pattern) => {
                atpg_vectors += 1;
                // Fault-drop the new pattern against everything pending.
                let drop = fault_simulate_sessions(nl, &undetected, &[vec![pattern.clone()]]);
                let still: Vec<Fault> = drop.undetected();
                detected_total += undetected.len() - still.len();
                undetected = still;
            }
            PodemResult::Untestable => {
                untestable += 1;
                undetected.remove(0);
            }
            PodemResult::Aborted => {
                aborted += 1;
                undetected.remove(0);
            }
        }
    }
    TopUpOutcome {
        mode,
        initial_vectors,
        atpg_targets,
        backtracks,
        atpg_vectors,
        untestable,
        aborted,
        final_coverage: detected_total as f64 / faults.len().max(1) as f64,
    }
}

// ---------------------------------------------------------------------
// E4 — equivalence-budget ablation
// ---------------------------------------------------------------------

/// One E4 point: the Mutation Score under a given equivalence budget.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Random-simulation budget used for the presumption.
    pub budget: usize,
    /// Mutants classified equivalent under this budget.
    pub equivalent: usize,
    /// The resulting score.
    pub score: MutationScore,
}

/// Runs E4 on one benchmark: fixed validation data (random 10 % sample),
/// varying equivalence budget.
///
/// # Errors
///
/// Returns a [`TableError`] on load or mutation failures.
pub fn equivalence_ablation(
    bench: Benchmark,
    budgets: &[usize],
    config: &ExperimentConfig,
) -> Result<Vec<AblationPoint>, TableError> {
    let circuit = bench.load()?;
    let population = generate_mutants(
        &circuit.checked,
        &circuit.name,
        &GenerateOptions::default(),
    );
    let mut seeder = SplitMix64::new(config.seed ^ 0xE4);
    let selected = musa_testgen::sample_mutants(
        &population,
        &SamplingStrategy::random(0.10),
        seeder.next_u64(),
    );
    let subset: Vec<_> = selected.iter().map(|&i| population[i].clone()).collect();
    let mg = MgConfig {
        seed: seeder.next_u64(),
        ..config.mg
    };
    let generated = mutation_guided_tests(&circuit.checked, &circuit.name, &subset, &mg)
        .map_err(TableError::from)?;
    // The ablation varies the *classification budget*; screening would
    // remove exactly the mutants whose class the budget decides, so the
    // whole population runs unscreened here.
    let plan = population_plan(&circuit, &population, config)?;
    let kills = kills_over_sessions(
        &circuit,
        &population,
        plan.as_ref(),
        &generated.sessions,
        config.jobs,
        None,
    )?;

    let mut points = Vec::with_capacity(budgets.len());
    for &budget in budgets {
        let policy = EquivalencePolicy {
            budget,
            ..config.equivalence
        };
        let memo = classify_once(&circuit, &population, [&kills], &policy, None, config.jobs)?;
        let score = score_from_memo(&kills, &memo);
        points.push(AblationPoint {
            budget,
            equivalent: score.equivalent,
            score,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_sweep_runs_and_counts_scale() {
        let points = sweep_fractions(
            Benchmark::C17,
            &[0.2, 1.0],
            &ExperimentConfig::fast(0xE1),
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[0].test_oriented.sampled < points[1].test_oriented.sampled);
        assert_eq!(points[1].test_oriented.sampled, points[1].random.sampled);
    }

    #[test]
    fn e2_curves_have_samples() {
        let pair = coverage_curves(Benchmark::C17, 16, &ExperimentConfig::fast(0xE2)).unwrap();
        assert_eq!(pair.circuit, "c17");
        assert!(!pair.mutation.is_empty());
        assert!(!pair.random.is_empty());
        // Random baseline is longer than the mutation data.
        assert!(pair.random.last().unwrap().0 >= pair.mutation.last().unwrap().0);
    }

    #[test]
    fn e3_validation_first_reduces_effort() {
        let outcomes =
            atpg_topup(Benchmark::C17, 10_000, &ExperimentConfig::fast(0xE3)).unwrap();
        assert_eq!(outcomes.len(), 3);
        let scratch = &outcomes[0];
        let validation = &outcomes[2];
        assert_eq!(scratch.mode, TopUpMode::Scratch);
        assert_eq!(validation.mode, TopUpMode::ValidationFirst);
        // Everything ends at (near) full coverage on c17.
        for o in &outcomes {
            assert!(o.final_coverage > 0.99, "{:?}", o);
        }
        // Re-used data leaves fewer ATPG targets than starting from
        // scratch.
        assert!(validation.atpg_targets < scratch.atpg_targets);
    }

    #[test]
    fn e4_ablation_is_monotone_in_budget() {
        let points = equivalence_ablation(
            Benchmark::C17,
            &[10, 500],
            &ExperimentConfig::fast(0xE4),
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        // More budget can only reduce (or keep) the equivalent count:
        // survivors get more chances to be killed in classification.
        assert!(points[1].equivalent <= points[0].equivalent);
    }
}
