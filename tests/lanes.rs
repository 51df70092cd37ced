//! Differential tests of the bit-parallel lane engine against the
//! scalar engine: `KillResult`s must be bit-identical on every bundled
//! circuit, for every lane count and job count.

use musa::circuits::Benchmark;
use musa::hdl::Bits;
use musa::mutation::{
    execute_mutants_engine, execute_mutants_jobs, execute_mutants_lanes_opts, generate_mutants,
    Engine, GenerateOptions, LaneOptions, LanePlan, Mutant, OptLevel, MAX_LANES,
};
use musa::prng::{Prng, SplitMix64};
use proptest::prelude::*;
use std::sync::OnceLock;

fn circuits() -> &'static Vec<(musa::circuits::Circuit, Vec<Mutant>)> {
    static CACHE: OnceLock<Vec<(musa::circuits::Circuit, Vec<Mutant>)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Benchmark::all()
            .into_iter()
            .map(|bench| {
                let circuit = bench.load().expect("benchmark loads");
                let population = generate_mutants(
                    &circuit.checked,
                    &circuit.name,
                    &GenerateOptions::default(),
                );
                assert!(!population.is_empty(), "{bench}: empty population");
                (circuit, population)
            })
            .collect()
    })
}

fn random_sequence_for(
    circuit: &musa::circuits::Circuit,
    cycles: usize,
    seed: u64,
) -> Vec<Vec<Bits>> {
    let info = circuit.info();
    let mut rng = SplitMix64::new(seed);
    (0..cycles)
        .map(|_| {
            info.data_inputs
                .iter()
                .map(|&p| {
                    let w = info.symbol(p).width;
                    Bits::new(w, rng.bits(w))
                })
                .collect()
        })
        .collect()
}

/// Every `stride`-th mutant: bounds the scalar baseline's cost on the
/// larger populations while touching every operator region of the walk.
fn subsample(population: &[Mutant], limit: usize) -> Vec<Mutant> {
    let stride = population.len().div_ceil(limit).max(1);
    population.iter().step_by(stride).cloned().collect()
}

#[test]
fn lane_engine_is_bit_identical_on_every_bundled_circuit() {
    for (circuit, population) in circuits() {
        let mutants = subsample(population, 48);
        let sequence = random_sequence_for(circuit, 16, 0x1A4E ^ circuit.name.len() as u64);
        let scalar =
            execute_mutants_jobs(&circuit.checked, &circuit.name, &mutants, &sequence, 1)
                .unwrap();
        for lanes_per_pass in [1, 2, 63] {
            for jobs in [1, 8] {
                let opts = LaneOptions { lanes_per_pass, jobs, ..LaneOptions::default() };
                let (lanes, _) = execute_mutants_lanes_opts(
                    &circuit.checked,
                    &circuit.name,
                    &mutants,
                    &sequence,
                    &opts,
                )
                .unwrap();
                assert_eq!(
                    lanes.first_kill, scalar.first_kill,
                    "{}: lanes={lanes_per_pass} jobs={jobs}",
                    circuit.name
                );
            }
        }
    }
}

#[test]
fn full_population_takes_ceil_n_over_63_passes_on_b01() {
    let (circuit, population) = &circuits()[1]; // b01 (all() is smallest-first)
    assert_eq!(circuit.name, "b01");
    let sequence = random_sequence_for(circuit, 8, 0xB01);
    let (kills, stats) = execute_mutants_lanes_opts(
        &circuit.checked,
        &circuit.name,
        population,
        &sequence,
        &LaneOptions::default(),
    )
    .unwrap();
    assert_eq!(kills.first_kill.len(), population.len());
    assert_eq!(
        stats.passes,
        population.len().div_ceil(MAX_LANES),
        "population {} must cost ⌈N/63⌉ passes, not N",
        population.len()
    );
}

#[test]
fn engine_dispatch_is_identical_through_the_public_entry_point() {
    let (circuit, population) = &circuits()[0]; // c17
    let sequence = random_sequence_for(circuit, 12, 0xC17);
    let scalar = execute_mutants_engine(
        &circuit.checked,
        &circuit.name,
        population,
        &sequence,
        2,
        Engine::Scalar,
    )
    .unwrap();
    let lanes = execute_mutants_engine(
        &circuit.checked,
        &circuit.name,
        population,
        &sequence,
        2,
        Engine::Lanes,
    )
    .unwrap();
    assert_eq!(scalar.first_kill, lanes.first_kill);
}

/// Per-circuit `(full, off)` plans over the FULL population, compiled
/// once — the property test below only varies the stimulus.
fn opt_plans() -> &'static Vec<(LanePlan<'static>, LanePlan<'static>)> {
    static CACHE: OnceLock<Vec<(LanePlan<'static>, LanePlan<'static>)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        circuits()
            .iter()
            .map(|(circuit, population)| {
                let plan = |opt| {
                    LanePlan::new(
                        &circuit.checked,
                        &circuit.name,
                        population,
                        &LaneOptions::default().with_opt(opt),
                    )
                    .expect("plan compiles")
                };
                (plan(OptLevel::Full), plan(OptLevel::Off))
            })
            .collect()
    })
}

proptest! {
    /// The optimizer is semantics-preserving on every bundled circuit's
    /// FULL mutant population: for random stimulus, the optimized
    /// pipeline reproduces the unoptimized pipeline's first-kill vector
    /// bit for bit (and the unoptimized side really ran untouched
    /// tapes).
    #[test]
    fn optimizer_preserves_kills_on_full_populations(
        seed in any::<u64>(),
        cycles in 2usize..12,
    ) {
        for ((circuit, population), (full, off)) in circuits().iter().zip(opt_plans()) {
            let sequence = random_sequence_for(circuit, cycles, seed);
            let (kills_full, stats_full) = full.first_kills(&sequence).unwrap();
            let (kills_off, stats_off) = off.first_kills(&sequence).unwrap();
            prop_assert_eq!(
                &kills_full.first_kill, &kills_off.first_kill,
                "{}: optimized and unoptimized kills diverged", circuit.name,
            );
            prop_assert_eq!(kills_full.first_kill.len(), population.len());
            prop_assert!(stats_full.instrs_after <= stats_full.instrs_before);
            prop_assert_eq!(stats_off.instrs_after, stats_off.instrs_before);
        }
    }
}

proptest! {
    /// For random circuits, mutant subsets and stimuli, the lane engine
    /// reproduces the scalar engine's first-kill vector bit for bit.
    #[test]
    fn lane_kill_results_match_scalar_for_random_sequences(
        seed in any::<u64>(),
        pick in 0usize..Benchmark::all().len(),
        cycles in 2usize..9,
    ) {
        let (circuit, population) = &circuits()[pick];
        let mut rng = SplitMix64::new(seed);
        let offset = (rng.next_u64() as usize) % population.len();
        let mutants: Vec<Mutant> = population
            .iter()
            .cycle()
            .skip(offset)
            .step_by((population.len() / 10).max(1))
            .take(10.min(population.len()))
            .cloned()
            .collect();
        let sequence = random_sequence_for(circuit, cycles, rng.next_u64());
        let scalar = execute_mutants_jobs(
            &circuit.checked, &circuit.name, &mutants, &sequence, 1,
        ).unwrap();
        let (lanes, stats) = execute_mutants_lanes_opts(
            &circuit.checked, &circuit.name, &mutants, &sequence,
            &LaneOptions::default(),
        ).unwrap();
        prop_assert_eq!(&lanes.first_kill, &scalar.first_kill, "{}", circuit.name);
        prop_assert_eq!(stats.passes, 1, "10 mutants fit one pass");
    }
}

/// The masks every live-mask check runs: all dead, all live, one live
/// lane, the first whole lane group dead, and fixed-seed random masks
/// of high and low density.
fn live_masks(n: usize, lanes: usize, seed: u64) -> Vec<(String, Vec<bool>)> {
    let mut rng = SplitMix64::new(seed);
    let mut masks = vec![
        ("all dead".to_string(), vec![false; n]),
        ("all live".to_string(), vec![true; n]),
        ("one live lane".to_string(), (0..n).map(|i| i == n / 2).collect()),
        ("first group dead".to_string(), (0..n).map(|i| i >= lanes).collect()),
    ];
    for (k, one_in) in [2u64, 7].into_iter().enumerate() {
        let mask = (0..n).map(|_| rng.below(one_in) == 0).collect();
        masks.push((format!("random #{k} (1 in {one_in} live)"), mask));
    }
    masks
}

/// Live-mask execution on a plan of the whole population equals a
/// plan compiled on the live subset alone, mapped back, with every
/// masked mutant reading `None`; only groups holding a live mutant cost
/// a pass.
#[test]
fn live_mask_execution_matches_the_compacted_live_subset() {
    for (circuit, population) in circuits() {
        let mutants = subsample(population, 100);
        let n = mutants.len();
        let sequence = random_sequence_for(circuit, 12, 0x11FE ^ n as u64);
        for lanes_per_pass in [1, 2, 63] {
            for jobs in [1, 2] {
                let options = LaneOptions { lanes_per_pass, jobs, ..LaneOptions::default() };
                let plan =
                    LanePlan::new(&circuit.checked, &circuit.name, &mutants, &options).unwrap();
                assert_eq!(plan.group_count(), n.div_ceil(lanes_per_pass), "{}", circuit.name);
                for (what, live) in live_masks(n, lanes_per_pass, n as u64) {
                    let at =
                        format!("{}: {what}, lanes={lanes_per_pass} jobs={jobs}", circuit.name);
                    let (masked, stats) =
                        plan.first_kills_live(&sequence, &live, jobs).unwrap();
                    let indices: Vec<usize> = (0..n).filter(|&i| live[i]).collect();
                    let subset: Vec<Mutant> =
                        indices.iter().map(|&i| mutants[i].clone()).collect();
                    let (compact, _) =
                        LanePlan::new(&circuit.checked, &circuit.name, &subset, &options)
                            .unwrap()
                            .first_kills(&sequence)
                            .unwrap();
                    let mut expected = vec![None; n];
                    for (&mi, kill) in indices.iter().zip(&compact.first_kill) {
                        expected[mi] = *kill;
                    }
                    assert_eq!(masked.first_kill, expected, "{at}");
                    let live_groups =
                        live.chunks(lanes_per_pass).filter(|g| g.contains(&true)).count();
                    assert_eq!(stats.passes, live_groups, "{at}: dead groups cost no pass");
                    assert_eq!(stats.live_lanes, indices.len(), "{at}: live lanes");
                }
            }
        }
    }
}
