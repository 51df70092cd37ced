//! The sampling experiment — the machinery behind Table 2.
//!
//! Paper §4: sample a fixed fraction of the mutant population (10 %),
//! generate validation data from the *sampled* mutants only, then
//! measure (a) the Mutation Score of that data against the **entire**
//! population and (b) its gate-level NLFCE versus the pseudo-random
//! baseline.
//!
//! # One context, three phases
//!
//! [`run_sampling_experiment_on`] averages many repetitions over one
//! population, and most of what a repetition needs does not depend on
//! it. So the call first builds a per-circuit context: the fault
//! universe, its dominance reduction, the static screen mask and, on the
//! lane engine, **one [`LanePlan`] of the whole population**, compiled
//! once. Then it runs three phases:
//!
//! 1. **Kill pass**, per repetition: sample the population, generate
//!    data from the sample, and run that data session by session against
//!    the full population on the shared plan. Each session masks out the
//!    mutants already killed or statically screened
//!    ([`LanePlan::first_kills_live`]); nothing is recompiled.
//! 2. **Classify once.** A mutant's equivalence class depends only on
//!    the design, the mutant and the policy, never on the repetition. So
//!    the union of every repetition's unscreened survivors is classified
//!    once, in index order and in chunks of [`MAX_LANES`] mutants, into a
//!    **class memo** keyed by mutant index. Screened survivors take
//!    [`survivor_class`].
//! 3. **Score and grade**, per repetition: the Mutation Score from the
//!    memo, then fault simulation of the data and of the random baseline.
//!
//! Lanes never interact and the memo holds exactly the class each
//! repetition would compute for itself, so the outcome is bit-identical
//! to running every repetition alone with a fresh plan per session and
//! its own classification. The test oracle in this module keeps that
//! per-repetition pipeline and pins the equality on every bundled
//! circuit.

use crate::config::ExperimentConfig;
use crate::data::{
    coverage_of_sessions, coverage_of_sessions_reduced, fault_universe, random_baseline_curve,
    reduced_universe, FaultSimStats,
};
use crate::parallel::{par_map, split_jobs, try_par_map};
use musa_analysis::screen_population;
use musa_circuits::Circuit;
use musa_metrics::{Nlfce, NlfceInputs};
use musa_mutation::{
    classify_mutants, execute_mutants_jobs, generate_mutants, survivor_class, Engine,
    EquivalenceClass, EquivalencePolicy, GenerateOptions, KillResult, LaneOptions, LanePlan,
    Mutant, MutationError, MutationScore, MAX_LANES,
};
use musa_prng::{Prng, SplitMix64};
use musa_testgen::{
    mutation_guided_tests, sample_mutants, GeneratedTests, MgConfig, SamplingStrategy,
};

/// Outcome of one sampling experiment (one Table 2 cell pair).
#[derive(Debug, Clone)]
pub struct SamplingOutcome {
    /// Strategy label (`random` / `test-oriented`).
    pub strategy: &'static str,
    /// Total mutant population size (`M`).
    pub population: usize,
    /// Number of sampled mutants the data was generated from.
    pub sampled: usize,
    /// Mutation Score of the generated data on the full population, in
    /// percent (paper's `MS%`).
    pub mutation_score_pct: f64,
    /// The full score breakdown.
    pub score: MutationScore,
    /// Gate-level metrics of the generated data vs the random baseline.
    pub metrics: Nlfce,
    /// NLFCE convenience copy (`metrics.nlfce`).
    pub nlfce: f64,
    /// Total validation-data length.
    pub data_len: usize,
    /// Lane occupancy of the mutation-data fault simulation:
    /// `faults_simulated < faults_total` when dominance reduction
    /// ([`ExperimentConfig::fault_reduce`]) credited faults out of the
    /// lanes. Coverage numbers are identical either way.
    pub fault_sim: FaultSimStats,
    /// Mutants the static pre-screen ([`ExperimentConfig::screen`])
    /// proved equivalent without simulation. They skip every execution
    /// stage and fold into the `E` term with the class full execution
    /// would report, so every score is identical with screening off.
    pub screened: usize,
}

/// Runs one sampling experiment on a circuit.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant execution.
pub fn run_sampling_experiment(
    circuit: &Circuit,
    strategy: SamplingStrategy,
    config: &ExperimentConfig,
) -> Result<SamplingOutcome, MutationError> {
    let population = generate_mutants(
        &circuit.checked,
        &circuit.name,
        &GenerateOptions::default(),
    );
    run_sampling_experiment_on(circuit, &population, strategy, config)
}

/// Same as [`run_sampling_experiment`] but over a pre-generated
/// population (avoids re-enumeration when comparing strategies).
///
/// Averages `config.repetitions` independent repetitions (fresh sample,
/// data and baseline seeds each time): single 10 % samples are noisy.
/// Every repetition's three seeds are pre-drawn from the `SplitMix64`
/// stream in serial order before any worker thread exists (see
/// [`crate::parallel`]).
///
/// The call first builds what no repetition changes: the fault
/// universe, its dominance reduction, the static screen mask and, on
/// the lane engine, one [`LanePlan`] of the whole population. It then
/// runs three phases:
///
/// 1. per repetition, sharded across `config.jobs` worker threads:
///    sample, generate data, and run the kill pass on the shared plan;
/// 2. classify the union of the unscreened survivors once, in chunks of
///    [`MAX_LANES`] mutants sharded across `config.jobs`, into a class
///    memo keyed by mutant index;
/// 3. per repetition: score from the memo, then fault-simulate the data
///    and the random baseline.
///
/// Chunk boundaries and every merge are index-ordered, so the aggregate
/// is bit-identical for every thread count, and equal to running each
/// repetition alone with a fresh plan per session and its own
/// classification.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant execution and
/// classification. Errors surface in call order: an unknown entity while
/// the plan compiles, then the lowest-index failing repetition of
/// phase 1, then the lowest-index failing chunk of phase 2. Phase 3
/// cannot fail.
pub fn run_sampling_experiment_on(
    circuit: &Circuit,
    population: &[Mutant],
    strategy: SamplingStrategy,
    config: &ExperimentConfig,
) -> Result<SamplingOutcome, MutationError> {
    let seeds = repetition_seed_schedule(config);
    let repetitions = seeds.len();
    let context = SamplingContext::new(circuit, population, config)?;
    // Repetitions get the outer share of the thread budget; each
    // repetition's mutant executions split what remains.
    let (outer_jobs, inner_jobs) = split_jobs(config.jobs, repetitions);
    let _trace = musa_trace::span_detail("repetitions", || circuit.name.clone());
    let passes = try_par_map(outer_jobs, &seeds, |_, &[sample, mg, _]| {
        context.kill_pass(&strategy, config, sample, mg, inner_jobs)
    })?;
    let memo = classify_once(
        circuit,
        population,
        passes.iter().map(|pass| &pass.kills),
        &config.equivalence,
        context.screened.as_deref(),
        config.jobs,
    )?;
    let outcomes = par_map(outer_jobs, &passes, |rep, pass| {
        let outcome = context.grade(&strategy, config, pass, &memo, seeds[rep][2]);
        musa_trace::progress(|| {
            format!(
                "{}: repetition {}/{} done",
                circuit.name,
                rep + 1,
                repetitions
            )
        });
        outcome
    });
    let mut aggregate = SamplingAggregate::new();
    for (repetition, outcome) in outcomes.into_iter().enumerate() {
        aggregate.push(repetition, outcome);
    }
    Ok(aggregate.finish())
}

/// The repetition seed schedule: triple `i` — `[sample, mg, baseline]`
/// — is exactly what serial repetition `i` draws from the `SplitMix64`
/// stream. Seed assignment is position-based and drawn before any
/// worker thread exists, so every `jobs` count hands repetition `i`
/// identical seeds.
fn repetition_seed_schedule(config: &ExperimentConfig) -> Vec<[u64; 3]> {
    let mut seeder = SplitMix64::new(config.seed ^ 0xA5A5_5A5A_1234_4321);
    (0..config.repetitions.max(1))
        .map(|_| [seeder.next_u64(), seeder.next_u64(), seeder.next_u64()])
        .collect()
}

/// The static pre-screen mask (`Some` only when screening is on):
/// `mask[i]` flags mutant `i` as statically proven equivalent.
fn screen_mask(
    circuit: &Circuit,
    population: &[Mutant],
    config: &ExperimentConfig,
) -> Option<Vec<bool>> {
    config.screen.then(|| {
        screen_population(&circuit.checked, &circuit.name, population)
            .iter()
            .map(|class| class.is_proven())
            .collect()
    })
}

/// Index-ordered merge of per-repetition [`SamplingOutcome`]s.
///
/// Replaces the former clone-the-last-repetition-and-patch-some-fields
/// scheme, which silently reported repetition *N*'s values for every
/// field it forgot to re-average. Here every field has an explicit,
/// audited policy:
///
/// | field | aggregation |
/// |---|---|
/// | `strategy`, `population` | invariant across repetitions (asserted) |
/// | `mutation_score_pct`, `nlfce`, `metrics.delta_fc_pct`, `metrics.delta_l_pct`, `metrics.nlfce` | arithmetic mean |
/// | `sampled`, `data_len`, `metrics.mutation_len`, `score.killed`, `score.equivalent`, `fault_sim.faults_simulated` | mean, rounded via [`SamplingAggregate::mean_rounded`] |
/// | `score.generated`, `fault_sim.faults_total` | invariant across repetitions (asserted) |
/// | `metrics.random_len_at_equal_fc` | rounded mean when every repetition reports `Some`, else `None` (a single saturated baseline makes the mean meaningless) |
///
/// Outcomes are keyed by repetition index and [`finish`] always reduces
/// in index order, so the merge is **order-independent**: push order —
/// hence worker scheduling — cannot change a single output bit.
///
/// [`finish`]: SamplingAggregate::finish
#[derive(Debug, Default)]
pub struct SamplingAggregate {
    outcomes: Vec<(usize, SamplingOutcome)>,
}

impl SamplingAggregate {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the outcome of repetition `repetition`.
    ///
    /// # Panics
    ///
    /// Panics if the same repetition index is pushed twice.
    pub fn push(&mut self, repetition: usize, outcome: SamplingOutcome) {
        assert!(
            self.outcomes.iter().all(|(r, _)| *r != repetition),
            "repetition {repetition} pushed twice"
        );
        self.outcomes.push((repetition, outcome));
    }

    /// Number of repetitions recorded so far.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no repetition has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// The workspace-wide rounding policy for averaged integer counts:
    /// **round half up** (`⌊mean + 1/2⌋`), computed in exact integer
    /// arithmetic so half-way cases can never wobble with float
    /// representation. `mean_rounded(3, 2)` — lengths 1 and 2 — is 2.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn mean_rounded(sum: usize, n: usize) -> usize {
        assert!(n > 0, "mean of zero repetitions");
        (2 * sum + n) / (2 * n)
    }

    /// Reduces the recorded repetitions, in repetition-index order, to
    /// one aggregated [`SamplingOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if no outcome was pushed, or if a field documented as
    /// invariant differs between repetitions.
    pub fn finish(mut self) -> SamplingOutcome {
        assert!(!self.outcomes.is_empty(), "no repetitions to aggregate");
        self.outcomes.sort_by_key(|(repetition, _)| *repetition);
        let outcomes: Vec<SamplingOutcome> =
            self.outcomes.into_iter().map(|(_, o)| o).collect();
        let first = &outcomes[0];
        let n = outcomes.len();
        let nf = n as f64;
        for o in &outcomes[1..] {
            assert_eq!(o.strategy, first.strategy, "strategy varies between repetitions");
            assert_eq!(
                o.population, first.population,
                "population varies between repetitions"
            );
            assert_eq!(
                o.score.generated, first.score.generated,
                "generated count varies between repetitions"
            );
            assert_eq!(
                o.fault_sim.faults_total, first.fault_sim.faults_total,
                "fault universe varies between repetitions"
            );
            assert_eq!(
                o.screened, first.screened,
                "static screen verdicts vary between repetitions"
            );
        }
        let mean_f = |field: fn(&SamplingOutcome) -> f64| -> f64 {
            outcomes.iter().map(field).sum::<f64>() / nf
        };
        let mean_n = |field: fn(&SamplingOutcome) -> usize| -> usize {
            Self::mean_rounded(outcomes.iter().map(field).sum(), n)
        };
        let nlfce = mean_f(|o| o.nlfce);
        let random_len_at_equal_fc = outcomes
            .iter()
            .map(|o| o.metrics.random_len_at_equal_fc)
            .collect::<Option<Vec<usize>>>()
            .map(|lens| Self::mean_rounded(lens.iter().sum(), n));
        SamplingOutcome {
            strategy: first.strategy,
            population: first.population,
            sampled: mean_n(|o| o.sampled),
            mutation_score_pct: mean_f(|o| o.mutation_score_pct),
            score: MutationScore {
                generated: first.score.generated,
                killed: mean_n(|o| o.score.killed),
                equivalent: mean_n(|o| o.score.equivalent),
            },
            metrics: Nlfce {
                delta_fc_pct: mean_f(|o| o.metrics.delta_fc_pct),
                delta_l_pct: mean_f(|o| o.metrics.delta_l_pct),
                nlfce,
                mutation_len: mean_n(|o| o.metrics.mutation_len),
                random_len_at_equal_fc,
            },
            nlfce,
            data_len: mean_n(|o| o.data_len),
            fault_sim: FaultSimStats {
                faults_simulated: mean_n(|o| o.fault_sim.faults_simulated),
                faults_total: first.fault_sim.faults_total,
            },
            screened: first.screened,
        }
    }
}

/// What every repetition of one [`run_sampling_experiment_on`] call
/// shares: pure analyses of the netlist, the checked design and the
/// population, computed once.
struct SamplingContext<'a> {
    circuit: &'a Circuit,
    population: &'a [Mutant],
    faults: Vec<musa_netlist::Fault>,
    reduction: Option<musa_netlist::FaultReduction>,
    /// `screened[i]` flags mutant `i` as statically proven equivalent.
    screened: Option<Vec<bool>>,
    /// The population's lane plan (`None` on the scalar engine).
    plan: Option<LanePlan<'a>>,
}

/// Phase 1 of one repetition: its sample size, its data and the kills
/// of that data on the full population.
struct KillPass {
    sampled: usize,
    data: GeneratedTests,
    kills: KillResult,
}

impl<'a> SamplingContext<'a> {
    fn new(
        circuit: &'a Circuit,
        population: &'a [Mutant],
        config: &ExperimentConfig,
    ) -> Result<Self, MutationError> {
        let faults = fault_universe(circuit);
        let reduction = config
            .fault_reduce
            .then(|| reduced_universe(circuit, &faults));
        let screened = screen_mask(circuit, population, config);
        if let Some(mask) = &screened {
            let proven = mask.iter().filter(|&&s| s).count();
            musa_trace::count("screened", proven as u64);
        }
        let plan = {
            let _trace = musa_trace::span("mutant_exec");
            population_plan(circuit, population, config)?
        };
        Ok(Self {
            circuit,
            population,
            faults,
            reduction,
            screened,
            plan,
        })
    }

    /// Phase 1: sample, generate data from the sample only, then run
    /// that data against the **full** population.
    fn kill_pass(
        &self,
        strategy: &SamplingStrategy,
        config: &ExperimentConfig,
        sample_seed: u64,
        mg_seed: u64,
        jobs: usize,
    ) -> Result<KillPass, MutationError> {
        let selected = {
            let _trace = musa_trace::span("sample");
            sample_mutants(self.population, strategy, sample_seed)
        };
        let subset: Vec<Mutant> = selected
            .iter()
            .map(|&i| self.population[i].clone())
            .collect();
        let mg = MgConfig {
            seed: mg_seed,
            ..config.mg
        };
        let data = {
            let _trace = musa_trace::span("generate_data");
            mutation_guided_tests(&self.circuit.checked, &self.circuit.name, &subset, &mg)?
        };
        let kills = {
            let _trace = musa_trace::span("mutant_exec");
            kills_over_sessions(
                self.circuit,
                self.population,
                self.plan.as_ref(),
                &data.sessions,
                jobs,
                self.screened.as_deref(),
            )?
        };
        Ok(KillPass {
            sampled: subset.len(),
            data,
            kills,
        })
    }

    /// Phase 3: the Mutation Score from the class memo, then the
    /// gate-level efficiency of the same data. The mutation-data fault
    /// simulation honours the dominance-reduction knob (its final
    /// coverage is exact either way); the baseline stays on full
    /// simulation because its curve interior feeds dFC/dL directly.
    fn grade(
        &self,
        strategy: &SamplingStrategy,
        config: &ExperimentConfig,
        pass: &KillPass,
        memo: &[Option<EquivalenceClass>],
        baseline_seed: u64,
    ) -> SamplingOutcome {
        let score = score_from_memo(&pass.kills, memo);
        let sessions = &pass.data.sessions;
        let (mutation_curve, fault_sim) = {
            let _trace = musa_trace::span("fault_sim");
            match &self.reduction {
                Some(reduction) => coverage_of_sessions_reduced(self.circuit, reduction, sessions),
                None => (
                    coverage_of_sessions(self.circuit, &self.faults, sessions),
                    FaultSimStats::full(self.faults.len()),
                ),
            }
        };
        musa_trace::count("faults_simulated", fault_sim.faults_simulated as u64);
        musa_trace::count("faults_total", fault_sim.faults_total as u64);
        let baseline_len = config.baseline_len(mutation_curve.len());
        let random_curve = {
            let _trace = musa_trace::span("baseline");
            random_baseline_curve(self.circuit, &self.faults, baseline_len, baseline_seed)
        };
        let metrics = NlfceInputs {
            mutation: &mutation_curve,
            random: &random_curve,
        }
        .compute();
        SamplingOutcome {
            strategy: strategy.label(),
            population: self.population.len(),
            sampled: pass.sampled,
            mutation_score_pct: score.percent(),
            score,
            metrics,
            nlfce: metrics.nlfce,
            data_len: pass.data.total_len(),
            fault_sim,
            screened: self
                .screened
                .as_ref()
                .map_or(0, |mask| mask.iter().filter(|&&s| s).count()),
        }
    }
}

/// The population compiled once into lane groups, so every kill pass of
/// the call runs the same tapes (`None` on the scalar engine, which has
/// none).
pub(crate) fn population_plan<'a>(
    circuit: &'a Circuit,
    population: &'a [Mutant],
    config: &ExperimentConfig,
) -> Result<Option<LanePlan<'a>>, MutationError> {
    match config.engine {
        Engine::Scalar => Ok(None),
        Engine::Lanes => {
            let options = LaneOptions::default()
                .with_jobs(config.jobs)
                .with_opt(config.opt);
            LanePlan::new(&circuit.checked, &circuit.name, population, &options).map(Some)
        }
    }
}

/// Executes the whole population against multi-session data with fault
/// dropping across sessions. On the lane engine every session runs on
/// `plan` with the killed and screened mutants masked out, its lane
/// groups sharded across `jobs` worker threads; without a plan, the
/// scalar engine runs each session's live subset. Mutants flagged in
/// `screened` are statically proven unkillable and never occupy a
/// simulation slot (their `first_kill` stays `None`, exactly as
/// exhaustive execution would leave it).
pub(crate) fn kills_over_sessions(
    circuit: &Circuit,
    population: &[Mutant],
    plan: Option<&LanePlan<'_>>,
    sessions: &[Vec<Vec<musa_hdl::Bits>>],
    jobs: usize,
    screened: Option<&[bool]>,
) -> Result<KillResult, MutationError> {
    let mut first_kill: Vec<Option<usize>> = vec![None; population.len()];
    let mut base = 0usize;
    for session in sessions {
        let live: Vec<bool> = (0..population.len())
            .map(|i| first_kill[i].is_none() && !screened.is_some_and(|m| m[i]))
            .collect();
        if live.contains(&true) {
            let kills = match plan {
                Some(plan) => plan.first_kills_live(session, &live, jobs)?.0.first_kill,
                None => scalar_kills_live(circuit, population, &live, session, jobs)?,
            };
            for (slot, kill) in first_kill.iter_mut().zip(kills) {
                if let Some(t) = kill {
                    *slot = Some(base + t);
                }
            }
        }
        base += session.len();
    }
    Ok(KillResult { first_kill })
}

/// The scalar engine on the live subset, mapped back to population
/// indices (`None` for every masked mutant).
fn scalar_kills_live(
    circuit: &Circuit,
    population: &[Mutant],
    live: &[bool],
    session: &[Vec<musa_hdl::Bits>],
    jobs: usize,
) -> Result<Vec<Option<usize>>, MutationError> {
    let indices: Vec<usize> = (0..population.len()).filter(|&i| live[i]).collect();
    let subset: Vec<Mutant> = indices.iter().map(|&i| population[i].clone()).collect();
    let result = execute_mutants_jobs(&circuit.checked, &circuit.name, &subset, session, jobs)?;
    let mut kills = vec![None; population.len()];
    for (&mi, kill) in indices.iter().zip(result.first_kill) {
        kills[mi] = kill;
    }
    Ok(kills)
}

/// Phase 2, the class memo: one class for every mutant that survives
/// any of `kill_passes` (`None` for the rest). A mutant's class depends
/// only on the design, the mutant and the policy, so each survivor is
/// classified once however many passes it survives. The unscreened
/// survivors are cut, in index order, into chunks of [`MAX_LANES`]
/// mutants, one [`classify_mutants`] call each, sharded across `jobs`
/// worker threads; chunk boundaries do not depend on `jobs`. Survivors
/// flagged in `screened` take [`survivor_class`] directly — the class
/// [`classify_mutants`] reports for any mutant that survives every
/// sequence, which a statically proven-equivalent mutant is guaranteed
/// to do.
///
/// # Errors
///
/// The lowest-index failing chunk's [`MutationError`].
pub(crate) fn classify_once<'k>(
    circuit: &Circuit,
    population: &[Mutant],
    kill_passes: impl IntoIterator<Item = &'k KillResult>,
    policy: &EquivalencePolicy,
    screened: Option<&[bool]>,
    jobs: usize,
) -> Result<Vec<Option<EquivalenceClass>>, MutationError> {
    let mut survives = vec![false; population.len()];
    for kills in kill_passes {
        for (survivor, kill) in survives.iter_mut().zip(&kills.first_kill) {
            *survivor |= kill.is_none();
        }
    }
    let to_classify: Vec<usize> = (0..population.len())
        .filter(|&i| survives[i] && !screened.is_some_and(|m| m[i]))
        .collect();
    let chunks: Vec<&[usize]> = to_classify.chunks(MAX_LANES).collect();
    let per_chunk = try_par_map(jobs, &chunks, |_, chunk| {
        // One span per chunk, so the lane plans the chunk compiles fork
        // from an open span of this context.
        let _trace = musa_trace::span("classify");
        let subset: Vec<Mutant> = chunk.iter().map(|&i| population[i].clone()).collect();
        classify_mutants(&circuit.checked, &circuit.name, &subset, policy)
    })?;
    let mut memo = vec![None; population.len()];
    for (&mi, class) in to_classify.iter().zip(per_chunk.into_iter().flatten()) {
        memo[mi] = Some(class);
    }
    if let Some(mask) = screened {
        let info = circuit
            .checked
            .entity_info(&circuit.name)
            .ok_or_else(|| MutationError::EntityNotFound(circuit.name.clone()))?;
        let class = survivor_class(info, policy);
        for mi in (0..population.len()).filter(|&i| survives[i] && mask[i]) {
            memo[mi] = Some(class);
        }
    }
    Ok(memo)
}

/// The Mutation Score of one kill pass: killed mutants are
/// [`EquivalenceClass::Killable`], survivors take their memoized class.
///
/// # Panics
///
/// Panics if a survivor of `kills` has no class in `memo`.
pub(crate) fn score_from_memo(
    kills: &KillResult,
    memo: &[Option<EquivalenceClass>],
) -> MutationScore {
    let classes: Vec<EquivalenceClass> = kills
        .first_kill
        .iter()
        .zip(memo)
        .map(|(kill, class)| match kill {
            Some(_) => EquivalenceClass::Killable,
            None => class.expect("every survivor is in the class memo"),
        })
        .collect();
    MutationScore::from_results(kills, &classes)
}

/// The per-repetition pipeline this module replaced, kept as the test
/// oracle of [`run_sampling_experiment_on`]: every repetition runs
/// alone, rebuilding a lane plan on the live subset for every session
/// and classifying its own survivors.
#[cfg(test)]
mod oracle {
    use super::*;
    use musa_mutation::{execute_mutants_engine_opt, OptLevel};

    pub(super) fn run_sampling_experiment_on(
        circuit: &Circuit,
        population: &[Mutant],
        strategy: SamplingStrategy,
        config: &ExperimentConfig,
    ) -> Result<SamplingOutcome, MutationError> {
        let seeds = repetition_seed_schedule(config);
        let faults = fault_universe(circuit);
        let reduction = config
            .fault_reduce
            .then(|| reduced_universe(circuit, &faults));
        let screened = screen_mask(circuit, population, config);
        let (outer_jobs, inner_jobs) = split_jobs(config.jobs, seeds.len());
        let outcomes = try_par_map(outer_jobs, &seeds, |_, &[sample, mg, baseline]| {
            run_sampling_once(
                circuit,
                population,
                &strategy,
                config,
                &faults,
                reduction.as_ref(),
                screened.as_deref(),
                [sample, mg, baseline],
                inner_jobs,
            )
        })?;
        let mut aggregate = SamplingAggregate::new();
        for (repetition, outcome) in outcomes.into_iter().enumerate() {
            aggregate.push(repetition, outcome);
        }
        Ok(aggregate.finish())
    }

    #[allow(clippy::too_many_arguments)]
    fn run_sampling_once(
        circuit: &Circuit,
        population: &[Mutant],
        strategy: &SamplingStrategy,
        config: &ExperimentConfig,
        faults: &[musa_netlist::Fault],
        reduction: Option<&musa_netlist::FaultReduction>,
        screened: Option<&[bool]>,
        [sample_seed, mg_seed, baseline_seed]: [u64; 3],
        jobs: usize,
    ) -> Result<SamplingOutcome, MutationError> {
        let selected = sample_mutants(population, strategy, sample_seed);
        let subset: Vec<Mutant> = selected.iter().map(|&i| population[i].clone()).collect();
        let mg = MgConfig {
            seed: mg_seed,
            ..config.mg
        };
        let generated = mutation_guided_tests(&circuit.checked, &circuit.name, &subset, &mg)?;
        let kills = kills_over_sessions(
            circuit,
            population,
            &generated.sessions,
            jobs,
            config.engine,
            config.opt,
            screened,
        )?;
        let classes = classify_survivors(circuit, population, &kills, config, screened)?;
        let score = MutationScore::from_results(&kills, &classes);
        let (mutation_curve, fault_sim) = match reduction {
            Some(reduction) => {
                coverage_of_sessions_reduced(circuit, reduction, &generated.sessions)
            }
            None => (
                coverage_of_sessions(circuit, faults, &generated.sessions),
                FaultSimStats::full(faults.len()),
            ),
        };
        let baseline_len = config.baseline_len(mutation_curve.len());
        let random_curve = random_baseline_curve(circuit, faults, baseline_len, baseline_seed);
        let metrics = NlfceInputs {
            mutation: &mutation_curve,
            random: &random_curve,
        }
        .compute();
        Ok(SamplingOutcome {
            strategy: strategy.label(),
            population: population.len(),
            sampled: subset.len(),
            mutation_score_pct: score.percent(),
            score,
            metrics,
            nlfce: metrics.nlfce,
            data_len: generated.total_len(),
            fault_sim,
            screened: screened.map_or(0, |mask| mask.iter().filter(|&&s| s).count()),
        })
    }

    /// A fresh engine call on the live subset of every session.
    fn kills_over_sessions(
        circuit: &Circuit,
        population: &[Mutant],
        sessions: &[Vec<Vec<musa_hdl::Bits>>],
        jobs: usize,
        engine: Engine,
        opt: OptLevel,
        screened: Option<&[bool]>,
    ) -> Result<KillResult, MutationError> {
        let mut first_kill: Vec<Option<usize>> = vec![None; population.len()];
        let mut base = 0usize;
        for session in sessions {
            let live: Vec<usize> = (0..population.len())
                .filter(|&i| first_kill[i].is_none() && !screened.is_some_and(|m| m[i]))
                .collect();
            if live.is_empty() {
                base += session.len();
                continue;
            }
            let subset: Vec<Mutant> = live.iter().map(|&i| population[i].clone()).collect();
            let result = execute_mutants_engine_opt(
                &circuit.checked,
                &circuit.name,
                &subset,
                session,
                jobs,
                engine,
                opt,
            )?;
            for (slot, &mi) in live.iter().enumerate() {
                if let Some(t) = result.first_kill[slot] {
                    first_kill[mi] = Some(base + t);
                }
            }
            base += session.len();
        }
        Ok(KillResult { first_kill })
    }

    /// One classification of this repetition's survivors.
    fn classify_survivors(
        circuit: &Circuit,
        population: &[Mutant],
        kills: &KillResult,
        config: &ExperimentConfig,
        screened: Option<&[bool]>,
    ) -> Result<Vec<EquivalenceClass>, MutationError> {
        let survivors: Vec<usize> = kills.alive();
        let to_simulate: Vec<usize> = survivors
            .iter()
            .copied()
            .filter(|&i| !screened.is_some_and(|m| m[i]))
            .collect();
        let subset: Vec<Mutant> = to_simulate.iter().map(|&i| population[i].clone()).collect();
        let survivor_classes = classify_mutants(
            &circuit.checked,
            &circuit.name,
            &subset,
            &config.equivalence,
        )?;
        let mut classes = vec![EquivalenceClass::Killable; population.len()];
        for (slot, &mi) in to_simulate.iter().enumerate() {
            classes[mi] = survivor_classes[slot];
        }
        if let Some(mask) = screened {
            let info = circuit
                .checked
                .entity_info(&circuit.name)
                .ok_or_else(|| MutationError::EntityNotFound(circuit.name.clone()))?;
            let class = survivor_class(info, &config.equivalence);
            for &mi in survivors.iter().filter(|&&i| mask[i]) {
                classes[mi] = class;
            }
        }
        Ok(classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_circuits::Benchmark;
    use musa_testgen::OperatorWeights;
    use proptest::prelude::*;

    /// A synthetic outcome whose every field is derived from `k`, so
    /// repetitions are guaranteed to differ wherever aggregation must
    /// actually aggregate.
    fn synthetic(k: usize) -> SamplingOutcome {
        SamplingOutcome {
            strategy: "random",
            population: 100,
            sampled: 10 + k,
            mutation_score_pct: 50.0 + k as f64,
            score: MutationScore {
                generated: 100,
                killed: 40 + 2 * k,
                equivalent: k,
            },
            metrics: Nlfce {
                delta_fc_pct: 1.0 + k as f64,
                delta_l_pct: 10.0 + k as f64,
                nlfce: 100.0 + k as f64,
                mutation_len: 20 + k,
                random_len_at_equal_fc: Some(200 + k),
            },
            nlfce: 100.0 + k as f64,
            data_len: 30 + k,
            fault_sim: FaultSimStats {
                faults_simulated: 50 + k,
                faults_total: 80,
            },
            // Invariant across repetitions (screening is one pass over
            // the shared population), like `population` above.
            screened: 7,
        }
    }

    /// Byte-identical comparison: `Debug` for `f64` round-trips the
    /// exact bit pattern, so equal strings mean equal bits everywhere.
    fn assert_identical(a: &SamplingOutcome, b: &SamplingOutcome, what: &str) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
    }

    #[test]
    fn aggregate_averages_every_field_not_just_the_headline_ones() {
        // Regression: the old merge cloned the LAST repetition and only
        // re-averaged MS/NLFCE/ΔFC/ΔL/data_len, so sampled, kill
        // counts and curve lengths silently reported repetition N.
        let mut agg = SamplingAggregate::new();
        agg.push(0, synthetic(0));
        agg.push(1, synthetic(4));
        let mean = agg.finish();
        assert_eq!(mean.strategy, "random");
        assert_eq!(mean.population, 100);
        assert_eq!(mean.sampled, 12, "sampled must be the mean, not rep N's");
        assert_eq!(mean.score.generated, 100);
        assert_eq!(mean.score.killed, 44, "killed must be the mean, not rep N's");
        assert_eq!(mean.score.equivalent, 2);
        assert_eq!(mean.metrics.mutation_len, 22);
        assert_eq!(mean.metrics.random_len_at_equal_fc, Some(202));
        assert_eq!(mean.data_len, 32);
        assert_eq!(mean.fault_sim.faults_simulated, 52);
        assert_eq!(mean.fault_sim.faults_total, 80);
        assert_eq!(mean.screened, 7);
        assert!((mean.mutation_score_pct - 52.0).abs() < 1e-12);
        assert!((mean.nlfce - 102.0).abs() < 1e-12);
        assert!((mean.metrics.nlfce - 102.0).abs() < 1e-12);
        assert!((mean.metrics.delta_fc_pct - 3.0).abs() < 1e-12);
        assert!((mean.metrics.delta_l_pct - 12.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_drops_saturation_length_when_any_rep_lacks_it() {
        let mut agg = SamplingAggregate::new();
        agg.push(0, synthetic(0));
        let mut unsaturated = synthetic(2);
        unsaturated.metrics.random_len_at_equal_fc = None;
        agg.push(1, unsaturated);
        assert_eq!(agg.finish().metrics.random_len_at_equal_fc, None);
    }

    #[test]
    fn mean_rounding_policy_is_half_up_in_exact_arithmetic() {
        // Lengths 1 and 2 average to 1.5: policy says round half UP.
        assert_eq!(SamplingAggregate::mean_rounded(3, 2), 2);
        // And never half-down on the other side of an integer.
        assert_eq!(SamplingAggregate::mean_rounded(5, 2), 3);
        assert_eq!(SamplingAggregate::mean_rounded(4, 2), 2);
        assert_eq!(SamplingAggregate::mean_rounded(0, 3), 0);
        assert_eq!(SamplingAggregate::mean_rounded(10, 4), 3); // 2.5 -> 3
        // The half-way case that decides Table 1's vector-count column.
        let mut agg = SamplingAggregate::new();
        let mut a = synthetic(0);
        a.data_len = 1;
        let mut b = synthetic(1);
        b.data_len = 2;
        agg.push(0, a);
        agg.push(1, b);
        assert_eq!(agg.finish().data_len, 2);
    }

    #[test]
    #[should_panic(expected = "no repetitions to aggregate")]
    fn finish_on_the_empty_aggregate_panics_with_a_clear_message() {
        // The contract is explicit: an aggregate holds at least one
        // repetition before `finish` (the experiment loop guarantees
        // `repetitions.max(1)`); finishing empty is a caller bug and
        // must fail loudly, not return a fabricated outcome.
        let agg = SamplingAggregate::new();
        assert!(agg.is_empty());
        assert_eq!(agg.len(), 0);
        let _ = agg.finish();
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn aggregate_rejects_duplicate_repetition_indices() {
        let mut agg = SamplingAggregate::new();
        agg.push(0, synthetic(0));
        agg.push(0, synthetic(1));
    }

    #[test]
    fn parallel_jobs_are_bit_identical_to_serial_on_c17_and_b01() {
        for bench in [Benchmark::C17, Benchmark::B01] {
            let circuit = bench.load().unwrap();
            let population = generate_mutants(
                &circuit.checked,
                &circuit.name,
                &GenerateOptions::default(),
            );
            let config = ExperimentConfig::fast(0xD0_0D);
            let serial = run_sampling_experiment_on(
                &circuit,
                &population,
                SamplingStrategy::random(0.4),
                &config.with_jobs(1),
            )
            .unwrap();
            for jobs in [2, 8] {
                let parallel = run_sampling_experiment_on(
                    &circuit,
                    &population,
                    SamplingStrategy::random(0.4),
                    &config.with_jobs(jobs),
                )
                .unwrap();
                assert_identical(
                    &serial,
                    &parallel,
                    &format!("{bench}: jobs=1 vs jobs={jobs}"),
                );
            }
        }
    }

    #[test]
    fn lane_engine_outcome_is_bit_identical_to_scalar() {
        for bench in [Benchmark::C17, Benchmark::B01] {
            let circuit = bench.load().unwrap();
            let population = generate_mutants(
                &circuit.checked,
                &circuit.name,
                &GenerateOptions::default(),
            );
            let config = ExperimentConfig::fast(0xE6);
            let scalar = run_sampling_experiment_on(
                &circuit,
                &population,
                SamplingStrategy::random(0.4),
                &config,
            )
            .unwrap();
            for jobs in [1, 4] {
                let lanes = run_sampling_experiment_on(
                    &circuit,
                    &population,
                    SamplingStrategy::random(0.4),
                    &config.with_engine(Engine::Lanes).with_jobs(jobs),
                )
                .unwrap();
                assert_identical(
                    &scalar,
                    &lanes,
                    &format!("{bench}: scalar vs lanes (jobs={jobs})"),
                );
            }
        }
    }

    #[test]
    fn kill_results_are_identical_across_job_counts_on_b01_and_c17() {
        for bench in [Benchmark::B01, Benchmark::C17] {
            let circuit = bench.load().unwrap();
            let population = generate_mutants(
                &circuit.checked,
                &circuit.name,
                &GenerateOptions::default(),
            );
            let info = circuit.checked.entity_info(&circuit.name).unwrap();
            let sequence = musa_testgen::random_sequence(info, 24, 0xBEEF);
            let serial = musa_mutation::execute_mutants(
                &circuit.checked,
                &circuit.name,
                &population,
                &sequence,
            )
            .unwrap();
            for jobs in [0, 2, 8] {
                let sharded = musa_mutation::execute_mutants_jobs(
                    &circuit.checked,
                    &circuit.name,
                    &population,
                    &sequence,
                    jobs,
                )
                .unwrap();
                assert_eq!(
                    sharded.first_kill, serial.first_kill,
                    "{bench}: jobs={jobs}"
                );
            }
        }
    }

    proptest! {
        /// The merge is order-independent: pushing the same repetitions
        /// in any arrival order yields a byte-identical aggregate —
        /// the property that makes worker scheduling unobservable.
        #[test]
        fn aggregate_is_push_order_independent(
            values in proptest::collection::vec(0usize..1000, 2..9),
            rotation in 1usize..8,
        ) {
            let n = values.len();
            let mut in_order = SamplingAggregate::new();
            for (i, &v) in values.iter().enumerate() {
                in_order.push(i, synthetic(v));
            }
            let mut rotated = SamplingAggregate::new();
            for off in 0..n {
                let i = (off + rotation) % n;
                rotated.push(i, synthetic(values[i]));
            }
            let a = in_order.finish();
            let b = rotated.finish();
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    fn population_of(circuit: &Circuit) -> Vec<Mutant> {
        generate_mutants(&circuit.checked, &circuit.name, &GenerateOptions::default())
    }

    fn both_strategies() -> [SamplingStrategy; 2] {
        [
            SamplingStrategy::random(0.1),
            SamplingStrategy::test_oriented(0.1, OperatorWeights::new()),
        ]
    }

    /// Three repetitions of the fast preset: enough for survivors to
    /// repeat across repetitions, so the class memo is really shared.
    fn three_rep_config(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            repetitions: 3,
            ..ExperimentConfig::fast(seed)
        }
    }

    /// The shared plan, the masked kill pass and the class memo change
    /// no output bit: on every bundled circuit of the given kind, for
    /// both strategies, screen on and off and 1 or 2 jobs, the
    /// three-phase call equals the per-repetition oracle.
    fn assert_three_phases_match_the_oracle(combinational: bool) {
        for bench in Benchmark::all() {
            let circuit = bench.load().unwrap();
            if circuit.is_combinational() != combinational {
                continue;
            }
            let population = population_of(&circuit);
            for strategy in both_strategies() {
                for screen in [true, false] {
                    let config = three_rep_config(0x0AC1E).with_screen(screen);
                    let expected = oracle::run_sampling_experiment_on(
                        &circuit,
                        &population,
                        strategy.clone(),
                        &config.with_jobs(1),
                    )
                    .unwrap();
                    for jobs in [1, 2] {
                        let actual = run_sampling_experiment_on(
                            &circuit,
                            &population,
                            strategy.clone(),
                            &config.with_jobs(jobs),
                        )
                        .unwrap();
                        assert_identical(
                            &expected,
                            &actual,
                            &format!(
                                "{bench}: {} screen={screen} jobs={jobs}",
                                strategy.label()
                            ),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn three_phase_pipeline_matches_the_per_repetition_oracle_on_combinational_circuits() {
        assert_three_phases_match_the_oracle(true);
    }

    #[test]
    fn three_phase_pipeline_matches_the_per_repetition_oracle_on_sequential_circuits() {
        assert_three_phases_match_the_oracle(false);
    }

    #[test]
    fn scalar_engine_pipeline_matches_the_per_repetition_oracle() {
        for bench in [Benchmark::C17, Benchmark::B01] {
            let circuit = bench.load().unwrap();
            let population = population_of(&circuit);
            for strategy in both_strategies() {
                let config = three_rep_config(0x5CA1).with_engine(Engine::Scalar);
                let expected = oracle::run_sampling_experiment_on(
                    &circuit,
                    &population,
                    strategy.clone(),
                    &config.with_jobs(1),
                )
                .unwrap();
                for jobs in [1, 2] {
                    let actual = run_sampling_experiment_on(
                        &circuit,
                        &population,
                        strategy.clone(),
                        &config.with_jobs(jobs),
                    )
                    .unwrap();
                    assert_identical(
                        &expected,
                        &actual,
                        &format!("{bench}: scalar {} jobs={jobs}", strategy.label()),
                    );
                }
            }
        }
    }

    #[test]
    fn foreign_mutant_fails_like_the_per_repetition_oracle() {
        // c880 mutants target sites c17 does not have.
        let c17 = Benchmark::C17.load().unwrap();
        let c880 = Benchmark::C880.load().unwrap();
        let foreign = population_of(&c880);
        let mut population = population_of(&c17);
        population.insert(3, foreign[foreign.len() - 1].clone());
        for engine in [Engine::Lanes, Engine::Scalar] {
            for screen in [true, false] {
                let config = three_rep_config(0xF0E)
                    .with_engine(engine)
                    .with_screen(screen)
                    .with_jobs(2);
                let run = |pipeline: fn(
                    &Circuit,
                    &[Mutant],
                    SamplingStrategy,
                    &ExperimentConfig,
                ) -> Result<SamplingOutcome, MutationError>| {
                    pipeline(&c17, &population, SamplingStrategy::random(0.5), &config)
                        .expect_err("a foreign mutant cannot run")
                };
                let expected = run(oracle::run_sampling_experiment_on);
                let actual = run(run_sampling_experiment_on);
                assert_eq!(
                    std::mem::discriminant(&actual),
                    std::mem::discriminant(&expected),
                    "{engine} screen={screen}: {actual:?} vs {expected:?}"
                );
            }
        }
    }

    #[test]
    fn random_sampling_experiment_runs_on_c17() {
        let c17 = Benchmark::C17.load().unwrap();
        let outcome = run_sampling_experiment(
            &c17,
            SamplingStrategy::random(0.5),
            &ExperimentConfig::fast(0x21),
        )
        .unwrap();
        assert_eq!(outcome.strategy, "random");
        assert!(outcome.population > 0);
        assert_eq!(
            outcome.sampled,
            ((outcome.population as f64 * 0.5).round() as usize).max(1)
        );
        assert!(outcome.mutation_score_pct > 0.0);
        assert!(outcome.mutation_score_pct <= 100.0);
        assert!(outcome.data_len > 0);
    }

    #[test]
    fn full_fraction_scores_at_least_any_subset() {
        let c17 = Benchmark::C17.load().unwrap();
        let config = ExperimentConfig::fast(0x33);
        let population = generate_mutants(
            &c17.checked,
            &c17.name,
            &GenerateOptions::default(),
        );
        let all = run_sampling_experiment_on(
            &c17,
            &population,
            SamplingStrategy::random(1.0),
            &config,
        )
        .unwrap();
        let tenth = run_sampling_experiment_on(
            &c17,
            &population,
            SamplingStrategy::random(0.10),
            &config,
        )
        .unwrap();
        assert!(
            all.mutation_score_pct + 1e-9 >= tenth.mutation_score_pct,
            "all={} tenth={}",
            all.mutation_score_pct,
            tenth.mutation_score_pct
        );
    }

    #[test]
    fn strategies_share_the_population_and_budget() {
        let c17 = Benchmark::C17.load().unwrap();
        let config = ExperimentConfig::fast(0x44);
        let population = generate_mutants(
            &c17.checked,
            &c17.name,
            &GenerateOptions::default(),
        );
        let random = run_sampling_experiment_on(
            &c17,
            &population,
            SamplingStrategy::random(0.25),
            &config,
        )
        .unwrap();
        let oriented = run_sampling_experiment_on(
            &c17,
            &population,
            SamplingStrategy::test_oriented(0.25, OperatorWeights::new()),
            &config,
        )
        .unwrap();
        assert_eq!(random.population, oriented.population);
        assert_eq!(random.sampled, oriented.sampled);
    }

    #[test]
    fn sequential_circuit_experiment_runs() {
        let b01 = Benchmark::B01.load().unwrap();
        let outcome = run_sampling_experiment(
            &b01,
            SamplingStrategy::random(0.3),
            &ExperimentConfig::fast(0x55),
        )
        .unwrap();
        assert!(outcome.mutation_score_pct > 0.0);
        assert!(outcome.data_len > 0);
    }
}
