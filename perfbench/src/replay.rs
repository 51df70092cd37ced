//! The traced replay: each workload's set-up and experiment calls,
//! recomposed from the layers' public functions in the program's call
//! order, with a span around every call into a layer and work counters
//! beside it.
//!
//! The replay mirrors `Circuit::from_source`,
//! `OperatorProfile::measure` and `run_sampling_experiment_on` step by
//! step: same seed schedules, same thread budget, same index-ordered
//! merges. Its results must equal the untraced calls bit for bit; the
//! benchmark compares them on every traced run, so a replay that falls
//! behind a refactor of those functions fails loudly.

use crate::spans::Ctx;
use crate::workload::{Outcome, Prepared, Workload, FRACTION, TABLE1_OPERATORS};
use musa_analysis::screen_population;
use musa_circuits::{Benchmark, Circuit};
use musa_core::{
    coverage_of_sessions_reduced, fault_universe, random_baseline_curve, reduced_universe,
    split_jobs, try_par_map, ExperimentConfig, FaultSimStats, OperatorEfficiency, OperatorProfile,
    SamplingAggregate, SamplingOutcome,
};
use musa_hdl::CheckedDesign;
use musa_metrics::{CoverageCurve, Nlfce, NlfceInputs};
use musa_mutation::{
    classify_mutants, execute_mutants_engine_opt, generate_mutants, survivor_class,
    EquivalenceClass, GenerateOptions, KillResult, Mutant, MutationError, MutationOperator,
    MutationScore, TestSequence,
};
use musa_netlist::{Fault, FaultReduction};
use musa_prng::{Prng, SplitMix64};
use musa_testgen::{mutation_guided_tests, sample_mutants, MgConfig, SamplingStrategy};

/// Set-up of one circuit: `Benchmark::load` then `generate_mutants`.
///
/// # Errors
///
/// Describes a parse, check or synthesis failure.
pub fn set_up_circuit(ctx: Ctx<'_>, bench: Benchmark) -> Result<Prepared, String> {
    let name = bench.name();
    let checked = ctx.span("hdl.check", |_| {
        musa_hdl::parse(bench.source()).and_then(CheckedDesign::new)
    });
    let checked = checked.map_err(|e| format!("{name}: {e}"))?;
    let netlist = ctx
        .span("synth.synthesize", |_| {
            musa_synth::synthesize(&checked, name)
        })
        .map_err(|e| format!("{name}: {e}"))?;
    ctx.count("synth.gates", netlist.gate_count() as f64);
    let circuit = Circuit {
        name: name.to_string(),
        checked,
        netlist,
    };
    let population = ctx.span("mutation.generate", |_| {
        generate_mutants(&circuit.checked, &circuit.name, &GenerateOptions::default())
    });
    ctx.count("mutation.generate.mutants", population.len() as f64);
    Ok(Prepared {
        circuit,
        population,
    })
}

/// The experiment call of `workload` on one prepared circuit.
///
/// # Errors
///
/// Propagates the experiment's [`MutationError`].
pub fn run_op(
    ctx: Ctx<'_>,
    workload: Workload,
    prepared: &Prepared,
    config: &ExperimentConfig,
) -> Result<Outcome, MutationError> {
    match workload {
        Workload::Table1 => {
            profile(ctx, &prepared.circuit, &TABLE1_OPERATORS, config).map(Outcome::Profile)
        }
        Workload::SampleC432 | Workload::SampleSeq => sampling(
            ctx,
            &prepared.circuit,
            &prepared.population,
            &SamplingStrategy::random(FRACTION),
            config,
        )
        .map(Outcome::Sampling),
    }
}

fn universe(
    ctx: Ctx<'_>,
    circuit: &Circuit,
    config: &ExperimentConfig,
) -> (Vec<Fault>, Option<FaultReduction>) {
    ctx.span("netlist.universe", |_| {
        let faults = fault_universe(circuit);
        ctx.count("netlist.faults", faults.len() as f64);
        let reduction = config
            .fault_reduce
            .then(|| reduced_universe(circuit, &faults));
        (faults, reduction)
    })
}

/// Gate-level metrics of one repetition's data against its random
/// baseline: the tail that Table 1 and Table 2 share.
fn gate_level(
    ctx: Ctx<'_>,
    circuit: &Circuit,
    config: &ExperimentConfig,
    faults: &[Fault],
    reduction: Option<&FaultReduction>,
    sessions: &[TestSequence],
    baseline_seed: u64,
) -> (CoverageCurve, FaultSimStats, Nlfce) {
    let (mutation_curve, fault_sim) = ctx.span("netlist.fsim_data", |_| match reduction {
        Some(reduction) => coverage_of_sessions_reduced(circuit, reduction, sessions),
        None => (
            musa_core::coverage_of_sessions(circuit, faults, sessions),
            FaultSimStats::full(faults.len()),
        ),
    });
    ctx.count(
        "netlist.fsim_data.fault_vectors",
        (fault_sim.faults_simulated * mutation_curve.len()) as f64,
    );
    ctx.count(
        "netlist.fsim_data.faults_simulated",
        fault_sim.faults_simulated as f64,
    );
    ctx.count(
        "netlist.fsim_data.faults_total",
        fault_sim.faults_total as f64,
    );
    let baseline_len = config.baseline_len(mutation_curve.len());
    let random_curve = ctx.span("netlist.fsim_baseline", |_| {
        random_baseline_curve(circuit, faults, baseline_len, baseline_seed)
    });
    ctx.count(
        "netlist.fsim_baseline.fault_vectors",
        (faults.len() * baseline_len) as f64,
    );
    let metrics = NlfceInputs {
        mutation: &mutation_curve,
        random: &random_curve,
    }
    .compute();
    (mutation_curve, fault_sim, metrics)
}

fn mg(
    ctx: Ctx<'_>,
    circuit: &Circuit,
    mutants: &[Mutant],
    config: &MgConfig,
) -> Result<musa_testgen::GeneratedTests, MutationError> {
    let generated = ctx.span("testgen.mg", |_| {
        mutation_guided_tests(&circuit.checked, &circuit.name, mutants, config)
    })?;
    ctx.count("testgen.mg.vectors", generated.total_len() as f64);
    ctx.count("testgen.mg.killed", generated.killed_count() as f64);
    Ok(generated)
}

/// Replay of `OperatorProfile::measure`.
fn profile(
    ctx: Ctx<'_>,
    circuit: &Circuit,
    operators: &[MutationOperator],
    config: &ExperimentConfig,
) -> Result<OperatorProfile, MutationError> {
    let (faults, reduction) = universe(ctx, circuit, config);
    // The seed schedules below copy the program's private ones; a change
    // there shows as a replay mismatch.
    let mut seeder = SplitMix64::new(config.seed ^ 0x9E37_79B9_7F4A_7C15);
    let repetitions = config.repetitions.max(1);
    struct Cell {
        op_slot: usize,
        mg_seed: u64,
        baseline_seed: u64,
    }
    let mut populations: Vec<(MutationOperator, Vec<Mutant>)> = Vec::new();
    let mut cells: Vec<Cell> = Vec::new();
    for &operator in operators {
        let mutants = ctx.span("mutation.generate", |_| {
            generate_mutants(
                &circuit.checked,
                &circuit.name,
                &GenerateOptions::only(operator),
            )
        });
        if mutants.is_empty() {
            continue;
        }
        for _ in 0..repetitions {
            cells.push(Cell {
                op_slot: populations.len(),
                mg_seed: seeder.next_u64(),
                baseline_seed: seeder.next_u64(),
            });
        }
        populations.push((operator, mutants));
    }

    struct Rep {
        metrics: Nlfce,
        data_len: usize,
        coverage: f64,
        fault_sim: FaultSimStats,
    }
    let reps = try_par_map(config.jobs, &cells, |_, cell| {
        let mg_config = MgConfig {
            seed: cell.mg_seed,
            ..config.mg
        };
        let generated = mg(ctx, circuit, &populations[cell.op_slot].1, &mg_config)?;
        let (curve, fault_sim, metrics) = gate_level(
            ctx,
            circuit,
            config,
            &faults,
            reduction.as_ref(),
            &generated.sessions,
            cell.baseline_seed,
        );
        Ok::<Rep, MutationError>(Rep {
            metrics,
            data_len: generated.total_len(),
            coverage: curve.final_coverage(),
            fault_sim,
        })
    })?;

    let mut rows = Vec::with_capacity(populations.len());
    for (slot, (operator, mutants)) in populations.iter().enumerate() {
        let reps: Vec<&Rep> = cells
            .iter()
            .zip(&reps)
            .filter(|(cell, _)| cell.op_slot == slot)
            .map(|(_, r)| r)
            .collect();
        let n = reps.len() as f64;
        let mean_n = |sum: usize| SamplingAggregate::mean_rounded(sum, reps.len());
        let data_len = mean_n(reps.iter().map(|r| r.data_len).sum());
        let random_len_at_equal_fc = reps
            .iter()
            .map(|r| r.metrics.random_len_at_equal_fc)
            .collect::<Option<Vec<usize>>>()
            .map(|lens| mean_n(lens.iter().sum()));
        rows.push(OperatorEfficiency {
            operator: *operator,
            mutants: mutants.len(),
            data_len,
            mutation_fault_coverage: reps.iter().map(|r| r.coverage).sum::<f64>() / n,
            metrics: Nlfce {
                delta_fc_pct: reps.iter().map(|r| r.metrics.delta_fc_pct).sum::<f64>() / n,
                delta_l_pct: reps.iter().map(|r| r.metrics.delta_l_pct).sum::<f64>() / n,
                nlfce: reps.iter().map(|r| r.metrics.nlfce).sum::<f64>() / n,
                mutation_len: data_len,
                random_len_at_equal_fc,
            },
            fault_sim: FaultSimStats {
                faults_simulated: mean_n(reps.iter().map(|r| r.fault_sim.faults_simulated).sum()),
                faults_total: faults.len(),
            },
        });
    }
    Ok(OperatorProfile {
        circuit: circuit.name.clone(),
        rows,
    })
}

/// Replay of `run_sampling_experiment_on`.
fn sampling(
    ctx: Ctx<'_>,
    circuit: &Circuit,
    population: &[Mutant],
    strategy: &SamplingStrategy,
    config: &ExperimentConfig,
) -> Result<SamplingOutcome, MutationError> {
    let mut seeder = SplitMix64::new(config.seed ^ 0xA5A5_5A5A_1234_4321);
    let seeds: Vec<[u64; 3]> = (0..config.repetitions.max(1))
        .map(|_| [seeder.next_u64(), seeder.next_u64(), seeder.next_u64()])
        .collect();
    let (faults, reduction) = universe(ctx, circuit, config);
    let screened: Option<Vec<bool>> = config.screen.then(|| {
        ctx.span("analysis.screen", |_| {
            screen_population(&circuit.checked, &circuit.name, population)
                .iter()
                .map(|class| class.is_proven())
                .collect()
        })
    });
    let proven = screened
        .as_ref()
        .map_or(0, |m| m.iter().filter(|&&s| s).count());
    ctx.count("analysis.screen.proven", proven as f64);
    let (outer_jobs, inner_jobs) = split_jobs(config.jobs, seeds.len());
    let outcomes = try_par_map(
        outer_jobs,
        &seeds,
        |_, &[sample_seed, mg_seed, baseline_seed]| {
            let selected = ctx.span("testgen.sample", |_| {
                sample_mutants(population, strategy, sample_seed)
            });
            let subset: Vec<Mutant> = selected.iter().map(|&i| population[i].clone()).collect();
            let mg_config = MgConfig {
                seed: mg_seed,
                ..config.mg
            };
            let generated = mg(ctx, circuit, &subset, &mg_config)?;
            let kills = kills_over_sessions(
                ctx,
                circuit,
                population,
                &generated.sessions,
                inner_jobs,
                config,
                screened.as_deref(),
            )?;
            let classes = classify_survivors(
                ctx,
                circuit,
                population,
                &kills,
                config,
                screened.as_deref(),
            )?;
            let score = MutationScore::from_results(&kills, &classes);
            let (_, fault_sim, metrics) = gate_level(
                ctx,
                circuit,
                config,
                &faults,
                reduction.as_ref(),
                &generated.sessions,
                baseline_seed,
            );
            Ok::<SamplingOutcome, MutationError>(SamplingOutcome {
                strategy: strategy.label(),
                population: population.len(),
                sampled: subset.len(),
                mutation_score_pct: score.percent(),
                score,
                metrics,
                nlfce: metrics.nlfce,
                data_len: generated.total_len(),
                fault_sim,
                screened: proven,
            })
        },
    )?;
    let mut aggregate = SamplingAggregate::new();
    for (repetition, outcome) in outcomes.into_iter().enumerate() {
        aggregate.push(repetition, outcome);
    }
    Ok(aggregate.finish())
}

/// Replay of `kills_over_sessions`: the population runs session by
/// session, killed and statically proven mutants dropping out.
fn kills_over_sessions(
    ctx: Ctx<'_>,
    circuit: &Circuit,
    population: &[Mutant],
    sessions: &[TestSequence],
    jobs: usize,
    config: &ExperimentConfig,
    screened: Option<&[bool]>,
) -> Result<KillResult, MutationError> {
    let mut first_kill: Vec<Option<usize>> = vec![None; population.len()];
    let mut base = 0usize;
    for session in sessions {
        let live: Vec<usize> = (0..population.len())
            .filter(|&i| first_kill[i].is_none() && !screened.is_some_and(|m| m[i]))
            .collect();
        if !live.is_empty() {
            let subset: Vec<Mutant> = live.iter().map(|&i| population[i].clone()).collect();
            let result = ctx.span("mutation.exec", |_| {
                execute_mutants_engine_opt(
                    &circuit.checked,
                    &circuit.name,
                    &subset,
                    session,
                    jobs,
                    config.engine,
                    config.opt,
                )
            })?;
            ctx.count(
                "mutation.exec.mutant_vectors",
                (live.len() * session.len()) as f64,
            );
            ctx.count("mutation.exec.killed", result.killed_count() as f64);
            for (slot, &mi) in live.iter().enumerate() {
                if let Some(t) = result.first_kill[slot] {
                    first_kill[mi] = Some(base + t);
                }
            }
        }
        base += session.len();
    }
    Ok(KillResult { first_kill })
}

/// Replay of `classify_survivors`: only unproven survivors spend the
/// equivalence budget; proven ones take [`survivor_class`].
fn classify_survivors(
    ctx: Ctx<'_>,
    circuit: &Circuit,
    population: &[Mutant],
    kills: &KillResult,
    config: &ExperimentConfig,
    screened: Option<&[bool]>,
) -> Result<Vec<EquivalenceClass>, MutationError> {
    let survivors = kills.alive();
    let to_simulate: Vec<usize> = survivors
        .iter()
        .copied()
        .filter(|&i| !screened.is_some_and(|m| m[i]))
        .collect();
    let subset: Vec<Mutant> = to_simulate.iter().map(|&i| population[i].clone()).collect();
    let survivor_classes = ctx.span("mutation.classify", |_| {
        classify_mutants(
            &circuit.checked,
            &circuit.name,
            &subset,
            &config.equivalence,
        )
    })?;
    ctx.count("mutation.classify.survivors", subset.len() as f64);
    let killable = survivor_classes
        .iter()
        .filter(|&&c| c == EquivalenceClass::Killable)
        .count();
    ctx.count("mutation.classify.killable", killable as f64);
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
