//! Result digests: the paper's numbers of one experiment call as exact
//! float bit patterns, and the pinned digests they are checked against.
//!
//! A digest line reads
//! `<circuit>/<row> ms=<bits|-> dfc=<bits> dl=<bits> nlfce=<bits> len=<n>`,
//! one per Table 1 operator row or Table 2 cell. `pins.txt` holds the
//! lines measured for two seeds per workload, prefixed by
//! `<workload> <seed>`.

use crate::workload::Outcome;
use musa_metrics::Nlfce;

/// The pinned digests, `<workload> <seed> <digest line>` per line;
/// lines starting with `#` are comments.
pub const PINS: &str = include_str!("../pins.txt");

fn line(key: &str, ms: Option<f64>, m: &Nlfce, len: usize) -> String {
    let ms = ms.map_or("-".to_string(), |v| format!("{:016x}", v.to_bits()));
    format!(
        "{key} ms={ms} dfc={:016x} dl={:016x} nlfce={:016x} len={len}",
        m.delta_fc_pct.to_bits(),
        m.delta_l_pct.to_bits(),
        m.nlfce.to_bits()
    )
}

/// The digest lines of `outcome`, the experiment call on `circuit`.
pub fn digest(circuit: &str, outcome: &Outcome) -> Vec<String> {
    match outcome {
        Outcome::Profile(p) => p
            .rows
            .iter()
            .map(|r| {
                line(
                    &format!("{circuit}/{}", r.operator),
                    None,
                    &r.metrics,
                    r.data_len,
                )
            })
            .collect(),
        Outcome::Sampling(s) => vec![line(
            &format!("{circuit}/{}", s.strategy),
            Some(s.mutation_score_pct),
            &s.metrics,
            s.data_len,
        )],
    }
}

/// Checks digest lines of `circuit` against the pins for
/// `(workload, seed)`. Returns `Ok(false)` when the seed has no pins,
/// `Ok(true)` when the lines match them exactly.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check_pins(
    pins: &str,
    workload: &str,
    seed: u64,
    circuit: &str,
    lines: &[String],
) -> Result<bool, String> {
    let prefix = format!("{workload} {seed} ");
    let seed_pins: Vec<&str> = pins
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .collect();
    if seed_pins.is_empty() {
        return Ok(false);
    }
    let circuit_prefix = format!("{circuit}/");
    let expected: Vec<&str> = seed_pins
        .into_iter()
        .filter(|l| l.starts_with(&circuit_prefix))
        .collect();
    if expected.len() != lines.len() {
        return Err(format!(
            "{circuit}: {} digest lines, {} pinned",
            lines.len(),
            expected.len()
        ));
    }
    for (got, want) in lines.iter().zip(expected) {
        if got != want {
            return Err(format!("{circuit}: got `{got}`, pinned `{want}`"));
        }
    }
    Ok(true)
}

/// Range checks every outcome must pass, pinned or not.
///
/// # Errors
///
/// Names the first value out of range.
pub fn check_invariants(outcome: &Outcome) -> Result<(), String> {
    let finite =
        |m: &Nlfce| m.delta_fc_pct.is_finite() && m.delta_l_pct.is_finite() && m.nlfce.is_finite();
    match outcome {
        Outcome::Profile(p) => {
            if p.rows.is_empty() {
                return Err(format!("{}: no operator rows", p.circuit));
            }
            for r in &p.rows {
                if r.mutants == 0 || r.data_len == 0 || !finite(&r.metrics) {
                    return Err(format!("{}/{}: bad row {r:?}", p.circuit, r.operator));
                }
                if !(0.0..=1.0).contains(&r.mutation_fault_coverage) {
                    return Err(format!(
                        "{}/{}: coverage out of range",
                        p.circuit, r.operator
                    ));
                }
            }
        }
        Outcome::Sampling(s) => {
            if s.population == 0 || s.sampled == 0 || s.data_len == 0 || !finite(&s.metrics) {
                return Err(format!("bad sampling outcome {s:?}"));
            }
            if !(0.0..=100.0).contains(&s.mutation_score_pct) {
                return Err(format!("MS {} out of range", s.mutation_score_pct));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_op, set_up, Workload};

    #[test]
    fn digest_check_rejects_a_perturbed_result() {
        let w = Workload::SampleC432;
        let prepared = set_up(w).unwrap();
        let mut config = w.config(7);
        config.repetitions = 1;
        let Outcome::Sampling(mut outcome) = run_op(w, &prepared[0], &config).unwrap() else {
            panic!("sampling workload gave a profile");
        };
        let lines = digest("c432", &Outcome::Sampling(outcome.clone()));
        let pins: String = lines
            .iter()
            .map(|l| format!("sample-c432 7 {l}\n"))
            .collect();
        assert_eq!(
            check_pins(&pins, "sample-c432", 7, "c432", &lines),
            Ok(true)
        );
        assert_eq!(
            check_pins(&pins, "sample-c432", 8, "c432", &lines),
            Ok(false)
        );

        // One ulp on ΔL is a different result.
        outcome.metrics.delta_l_pct = f64::from_bits(outcome.metrics.delta_l_pct.to_bits() ^ 1);
        let perturbed = digest("c432", &Outcome::Sampling(outcome.clone()));
        assert!(check_pins(&pins, "sample-c432", 7, "c432", &perturbed).is_err());
        // So is a vector more of data.
        outcome.metrics.delta_l_pct = f64::from_bits(outcome.metrics.delta_l_pct.to_bits() ^ 1);
        outcome.data_len += 1;
        let longer = digest("c432", &Outcome::Sampling(outcome));
        assert!(check_pins(&pins, "sample-c432", 7, "c432", &longer).is_err());
    }

    #[test]
    fn default_seed_matches_its_pins() {
        let w = Workload::SampleC432;
        let prepared = set_up(w).unwrap();
        let seed = musa_core::DEFAULT_SEED;
        let outcome = run_op(w, &prepared[0], &w.config(seed)).unwrap();
        let lines = digest("c432", &outcome);
        assert_eq!(check_pins(PINS, w.name(), seed, "c432", &lines), Ok(true));
    }

    #[test]
    fn missing_or_extra_rows_are_rejected() {
        let pins = "table1 1 b01/LOR ms=- dfc=0 dl=0 nlfce=0 len=1\n\
                    table1 1 b01/VR ms=- dfc=0 dl=0 nlfce=0 len=2\n";
        let one = vec!["b01/LOR ms=- dfc=0 dl=0 nlfce=0 len=1".to_string()];
        assert!(check_pins(pins, "table1", 1, "b01", &one).is_err());
        assert!(check_pins(pins, "table1", 1, "b03", &one).is_err());
    }

    #[test]
    fn every_pinned_line_is_well_formed() {
        for l in PINS.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = l.split(' ').collect();
            assert_eq!(fields.len(), 8, "{l}");
            assert!(Workload::from_name(fields[0]).is_some(), "{l}");
            assert!(fields[1].parse::<u64>().is_ok(), "{l}");
        }
    }
}
