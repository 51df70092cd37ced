//! Differential test of the lane-packed equivalence classifier
//! ([`classify_mutants`]) against its scalar oracle
//! ([`classify_mutants_scalar`]) on every bundled circuit.
//!
//! Each circuit contributes a fixed-seed slice of its mutant population
//! (the whole population when it is small), large enough that the first
//! sequence runs at least two lane groups. Under
//! [`EquivalencePolicy::fast`] the sequential circuits take the random
//! reset-sequence path, where survivors are presumed equivalent. c17 is
//! the only bundled circuit small enough for the exhaustive path and
//! none of its mutants survives it, so a 9-input priority encoder with
//! redundant logic covers proven equivalence.

use musa_circuits::Benchmark;
use musa_hdl::{parse, CheckedDesign};
use musa_mutation::{
    classify_mutants, classify_mutants_scalar, generate_mutants, EquivalenceClass,
    EquivalencePolicy, GenerateOptions, Mutant, MAX_LANES,
};
use musa_prng::{Prng, SplitMix64};

/// Mutants classified per circuit: three lane groups' worth.
const SLICE: usize = 3 * MAX_LANES;

fn checked(bench: Benchmark) -> CheckedDesign {
    CheckedDesign::new(parse(bench.source()).unwrap()).unwrap()
}

/// Two 3-channel request buses, bus `a` over bus `b`: the lowest enabled
/// channel wins. 9 input bits, so `fast` enumerates them all.
const PRIORITY: &str = "
    entity prio is
      port(a : in bits(3); b : in bits(3); e : in bits(3);
           pa : out bit; any : out bit; chan : out bits(2));
      comb
        var va : bits(3) := 0;
        var vb : bits(3) := 0;
        var win : bits(3) := 0;
      begin
        va := a and e;
        vb := b and e;
        pa <= orr(va);
        any <= orr(va) or orr(vb);
        if orr(va) = 1 then
          win := va;
        else
          win := vb;
        end if;
        if win[0] = 1 then
          chan <= 0;
        elsif win[1] = 1 then
          chan <= 1;
        elsif win[2] = 1 then
          chan <= 2;
        else
          chan <= 3;
        end if;
      end;
    end prio;
";

/// A fixed-seed slice of `population` in population order: all of it
/// when it holds at most `len` mutants.
fn slice(population: &[Mutant], len: usize, seed: u64) -> Vec<Mutant> {
    let mut index: Vec<usize> = (0..population.len()).collect();
    let mut rng = SplitMix64::new(seed);
    for i in 0..len.min(index.len()) {
        let j = i + rng.below((index.len() - i) as u64) as usize;
        index.swap(i, j);
    }
    index.truncate(len);
    index.sort_unstable();
    index.into_iter().map(|i| population[i].clone()).collect()
}

#[test]
fn lane_classifier_matches_the_scalar_oracle_on_every_bundled_circuit() {
    let policy = EquivalencePolicy::fast(0x5EED);
    let mut seen = Vec::new();
    for bench in Benchmark::all() {
        let d = checked(bench);
        let population = generate_mutants(&d, bench.name(), &GenerateOptions::default());
        let mutants = slice(&population, SLICE, bench as u64);
        assert!(
            mutants.len() > MAX_LANES || mutants.len() == population.len(),
            "{}: slice of {} must span two lane groups",
            bench.name(),
            mutants.len()
        );
        let lanes = classify_mutants(&d, bench.name(), &mutants, &policy).unwrap();
        let scalar = classify_mutants_scalar(&d, bench.name(), &mutants, &policy).unwrap();
        assert_eq!(lanes, scalar, "{}: lane classes diverge from the oracle", bench.name());
        seen.extend(lanes.into_iter().map(|class| (bench, class)));
    }
    let has = |bench: Benchmark, class: EquivalenceClass| seen.contains(&(bench, class));
    assert!(
        has(Benchmark::B01, EquivalenceClass::PresumedEquivalent)
            || has(Benchmark::B03, EquivalenceClass::PresumedEquivalent),
        "sequential presumption path"
    );
    assert!(has(Benchmark::C432, EquivalenceClass::Killable), "killable path");
}

#[test]
fn lane_classifier_matches_the_scalar_oracle_on_the_exhaustive_path() {
    let policy = EquivalencePolicy::fast(0x5EED);
    let d = CheckedDesign::new(parse(PRIORITY).unwrap()).unwrap();
    let mutants = generate_mutants(&d, "prio", &GenerateOptions::default());
    assert!(mutants.len() > MAX_LANES, "population {} spans two lane groups", mutants.len());
    let lanes = classify_mutants(&d, "prio", &mutants, &policy).unwrap();
    let scalar = classify_mutants_scalar(&d, "prio", &mutants, &policy).unwrap();
    assert_eq!(lanes, scalar);
    assert!(lanes.contains(&EquivalenceClass::ProvenEquivalent), "proven equivalents");
    assert!(lanes.contains(&EquivalenceClass::Killable), "killable mutants");
}

#[test]
fn lane_classifier_reports_the_oracles_errors() {
    let policy = EquivalencePolicy::fast(3);
    let d = checked(Benchmark::C17);
    let own = generate_mutants(&d, "c17", &GenerateOptions::default());

    let lanes = classify_mutants(&d, "zz", &own, &policy);
    let scalar = classify_mutants_scalar(&d, "zz", &own, &policy);
    assert!(scalar.is_err(), "unknown entity");
    assert_eq!(format!("{lanes:?}"), format!("{scalar:?}"));

    // Mutants of c880 target sites c17 does not have; two of them sit
    // among c17's own, so the lowest-index failure must be reported.
    let foreign_design = checked(Benchmark::C880);
    let foreign = generate_mutants(&foreign_design, "c880", &GenerateOptions::default());
    let mut mixed = own[..MAX_LANES + 5].to_vec();
    mixed.insert(MAX_LANES + 2, foreign[foreign.len() - 1].clone());
    mixed.insert(7, foreign[foreign.len() - 2].clone());
    let lanes = classify_mutants(&d, "c17", &mixed, &policy);
    let scalar = classify_mutants_scalar(&d, "c17", &mixed, &policy);
    assert!(scalar.is_err(), "foreign mutant");
    assert_eq!(format!("{lanes:?}"), format!("{scalar:?}"));
}
