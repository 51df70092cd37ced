//! Mutant execution: differential simulation against the original.
//!
//! A mutant is **killed** by a test sequence when, starting from reset,
//! any primary output differs from the original design at any cycle —
//! the strong-mutation criterion the paper's Mutation Score uses.

use crate::mutant::{Mutant, MutationError};
use musa_hdl::{Bits, CheckedDesign, Simulator};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which mutant-execution engine grades a population.
///
/// Both engines produce **bit-identical** [`KillResult`]s for every
/// population, sequence, lane count and job count; the knob exists for
/// differential testing and because the scalar engine accepts arbitrary
/// (even stillborn) mutants while the lane engine is built for
/// validated populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum Engine {
    /// One full `Simulator` pass per mutant, early-exiting at its first
    /// kill. The reference baseline.
    Scalar,
    /// The bit-parallel lane engine ([`crate::lanes`]): up to 63 mutants
    /// plus the reference machine per simulation pass. The default —
    /// promoted after soaking behind `--engine lanes` with the
    /// differential suites pinning bit-identity against scalar.
    #[default]
    Lanes,
}

impl Engine {
    /// The CLI spelling (`scalar` / `lanes`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Lanes => "lanes",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Engine::Scalar),
            "lanes" => Ok(Engine::Lanes),
            other => Err(format!("unknown engine `{other}` (expected scalar|lanes)")),
        }
    }
}

/// Lane-tape optimization level.
///
/// `Full` (the default) runs the tape-to-tape pass pipeline
/// ([`crate::lanes`]' `opt` module: constant folding, copy/select
/// propagation, select-chain flattening, CSE, dead-store + dead-code
/// elimination with register compaction) and lowers the result through
/// superinstruction fusion; `Off` executes the raw compiler output
/// one-op-at-a-time, exactly like the pre-optimizer engine. The two
/// settings are **bit-identical** for every population, sequence and
/// job count — every pass is semantics-preserving per lane — so the
/// knob exists for differential testing and benchmarking. The scalar
/// engine ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum OptLevel {
    /// Optimize tapes and fuse hot instruction pairs. The default.
    #[default]
    Full,
    /// Interpret the raw compiler output (the benchmarking baseline).
    Off,
}

impl OptLevel {
    /// The CLI spelling (`full` / `off`).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Full => "full",
            OptLevel::Off => "off",
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for OptLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(OptLevel::Full),
            "off" => Ok(OptLevel::Off),
            other => Err(format!("unknown opt level `{other}` (expected full|off)")),
        }
    }
}

/// A test sequence: one `Vec<Bits>` (data inputs, declaration order) per
/// clock cycle. Combinational circuits treat each vector independently.
pub type TestSequence = Vec<Vec<Bits>>;

/// Result of executing a mutant population against one test sequence.
#[derive(Debug, Clone)]
pub struct KillResult {
    /// For every mutant (by index), the first killing vector, if any.
    pub first_kill: Vec<Option<usize>>,
}

impl KillResult {
    /// Number of killed mutants.
    pub fn killed_count(&self) -> usize {
        self.first_kill.iter().filter(|k| k.is_some()).count()
    }

    /// Indices of the mutants still alive.
    pub fn alive(&self) -> Vec<usize> {
        self.first_kill
            .iter()
            .enumerate()
            .filter(|(_, k)| k.is_none())
            .map(|(i, _)| i)
            .collect()
    }
}

/// Runs the original design over `sequence` and returns its output
/// transcript.
///
/// # Errors
///
/// Returns an error when the entity does not exist.
pub fn reference_transcript(
    checked: &CheckedDesign,
    entity: &str,
    sequence: &[Vec<Bits>],
) -> Result<Vec<Vec<Bits>>, MutationError> {
    let mut sim = Simulator::new(checked, entity)
        .map_err(|_| MutationError::EntityNotFound(entity.to_string()))?;
    Ok(sim.run(sequence))
}

/// Executes every mutant against the sequence, with early exit at the
/// first differing cycle.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant application (a mutant that
/// does not belong to this design).
pub fn execute_mutants(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    sequence: &[Vec<Bits>],
) -> Result<KillResult, MutationError> {
    execute_mutants_jobs(checked, entity, mutants, sequence, 1)
}

/// [`execute_mutants`] sharded across `jobs` worker threads (`0` = one
/// per available CPU).
///
/// The reference transcript is computed once and shared read-only by
/// every worker; mutants are pulled off an atomic counter for load
/// balancing (mutant cost varies with how early the kill lands) and
/// `first_kill` is merged back **by mutant index**, so the result is
/// bit-identical to the serial loop for every thread count. On error
/// the lowest-index failure is reported, exactly as the serial loop
/// would.
///
/// The work queue itself is `try_shard`, shared with the lane
/// engine's group sharding. It mirrors
/// `musa_core::parallel::try_par_map` (same work-queue,
/// deposit-by-index and lowest-index-error contract), re-implemented
/// here because `musa_core` sits *above* this crate in the dependency
/// graph — keep the two in sync.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant application (a mutant that
/// does not belong to this design).
pub fn execute_mutants_jobs(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    sequence: &[Vec<Bits>],
    jobs: usize,
) -> Result<KillResult, MutationError> {
    let reference = reference_transcript(checked, entity, sequence)?;
    let first_kill = try_shard(jobs, mutants.len(), |i| {
        run_one(checked, entity, &mutants[i], sequence, &reference)
    })?;
    Ok(KillResult { first_kill })
}

/// Runs `count` independent work items across `jobs` worker threads
/// (`0` = one per CPU; `<= 1` runs serially in index order), pulling
/// items off an atomic counter for load balancing and depositing
/// results **by index**. The merged output — including which error is
/// reported when several items fail (the lowest-index one) — is
/// therefore identical for every thread count. Shared by the scalar
/// mutant loop and the lane engine's group sharding.
pub(crate) fn try_shard<T: Send>(
    jobs: usize,
    count: usize,
    run: impl Fn(usize) -> Result<T, MutationError> + Sync,
) -> Result<Vec<T>, MutationError> {
    let jobs = resolve_jobs(jobs).min(count.max(1));
    // Trace fork point: item-indexed child contexts, captured serially
    // so the recorded structure is job-count-invariant (see
    // `musa_core::parallel::try_par_map` — keep the two in sync).
    let fork = musa_trace::ForkScope::capture();
    if jobs <= 1 {
        return (0..count)
            .map(|i| {
                let _trace = fork.enter(i);
                run(i)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, MutationError>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = {
                    let _trace = fork.enter(i);
                    run(i)
                };
                *slots[i].lock().expect("worker deposits its own slot") = Some(result);
            });
        }
    });
    let mut merged = Vec::with_capacity(count);
    for slot in slots {
        match slot.into_inner().expect("scope joined all workers") {
            Some(Ok(value)) => merged.push(value),
            Some(Err(e)) => return Err(e),
            None => unreachable!("every slot is filled before the scope exits"),
        }
    }
    Ok(merged)
}

/// [`execute_mutants_jobs`] with a selectable [`Engine`]. The outcome
/// is bit-identical across engines; `jobs` shards mutants (scalar) or
/// whole lane groups (lanes) across worker threads.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant application (a mutant that
/// does not belong to this design), lowest mutant index first.
pub fn execute_mutants_engine(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    sequence: &[Vec<Bits>],
    jobs: usize,
    engine: Engine,
) -> Result<KillResult, MutationError> {
    execute_mutants_engine_opt(checked, entity, mutants, sequence, jobs, engine, OptLevel::Full)
}

/// [`execute_mutants_engine`] with an explicit lane-tape [`OptLevel`].
/// Bit-identical across opt levels (and engines — the scalar engine has
/// no tapes to optimize and ignores the knob).
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant application (a mutant that
/// does not belong to this design), lowest mutant index first.
pub fn execute_mutants_engine_opt(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    sequence: &[Vec<Bits>],
    jobs: usize,
    engine: Engine,
    opt: OptLevel,
) -> Result<KillResult, MutationError> {
    match engine {
        Engine::Scalar => execute_mutants_jobs(checked, entity, mutants, sequence, jobs),
        Engine::Lanes => crate::lanes::execute_mutants_lanes_opts(
            checked,
            entity,
            mutants,
            sequence,
            &crate::lanes::LaneOptions::default().with_jobs(jobs).with_opt(opt),
        )
        .map(|(kills, _)| kills),
    }
}

/// `0` means one worker per available CPU; anything else is literal.
pub(crate) fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

/// Executes a single mutant; returns the first killing vector index.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant application.
pub fn run_one(
    checked: &CheckedDesign,
    entity: &str,
    mutant: &Mutant,
    sequence: &[Vec<Bits>],
    reference: &[Vec<Bits>],
) -> Result<Option<usize>, MutationError> {
    let mutated = mutant.apply(checked)?;
    let mut sim = Simulator::new(&mutated, entity)
        .map_err(|_| MutationError::EntityNotFound(entity.to_string()))?;
    sim.reset();
    for (t, vector) in sequence.iter().enumerate() {
        let outs = sim.step(vector);
        if outs != reference[t] {
            return Ok(Some(t));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_mutants, GenerateOptions};
    use crate::operator::MutationOperator;
    use musa_hdl::parse;

    fn checked(src: &str) -> CheckedDesign {
        CheckedDesign::new(parse(src).unwrap()).unwrap()
    }

    fn bit(v: u64) -> Bits {
        Bits::new(1, v)
    }

    const GATE: &str = "
        entity g is
          port(a : in bit; b : in bit; y : out bit);
        comb begin
          y <= a and b;
        end;
        end;
    ";

    #[test]
    fn exhaustive_vectors_kill_all_and_gate_lor_mutants() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        assert_eq!(mutants.len(), 5);
        let sequence: TestSequence = (0..4u64)
            .map(|p| vec![bit(p & 1), bit((p >> 1) & 1)])
            .collect();
        let result = execute_mutants(&d, "g", &mutants, &sequence).unwrap();
        // and→{or,xor,nand,nor,xnor} all differ from AND somewhere.
        assert_eq!(result.killed_count(), 5);
        assert!(result.alive().is_empty());
    }

    #[test]
    fn insufficient_vectors_leave_survivors() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        // a=0,b=0: AND=0, OR=0, XOR=0 — only NAND/NOR/XNOR (value 1) die.
        let sequence: TestSequence = vec![vec![bit(0), bit(0)]];
        let result = execute_mutants(&d, "g", &mutants, &sequence).unwrap();
        assert_eq!(result.killed_count(), 3);
        assert_eq!(result.alive().len(), 2);
    }

    #[test]
    fn first_kill_is_earliest_cycle() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        // or-mutant (index 0) first differs at a=1,b=0 (cycle 2 here).
        let sequence: TestSequence = vec![
            vec![bit(0), bit(0)],
            vec![bit(1), bit(1)],
            vec![bit(1), bit(0)],
        ];
        let result = execute_mutants(&d, "g", &mutants, &sequence).unwrap();
        let or_idx = mutants
            .iter()
            .position(|m| m.description.contains("-> or"))
            .unwrap();
        assert_eq!(result.first_kill[or_idx], Some(2));
    }

    #[test]
    fn sequential_mutants_respect_state_history() {
        let src = "
            entity t is
              port(clk : in bit; en : in bit; q : out bit);
            signal r : bit;
            seq(clk) begin
              if en = 1 then r <= not r; end if;
            end;
            comb begin q <= r; end;
            end;
        ";
        let d = checked(src);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::only(MutationOperator::Csr));
        assert_eq!(mutants.len(), 2); // en stuck 0 / stuck 1
        // Toggle twice: the stuck-0 mutant freezes q at 0 (differs at
        // t=1); stuck-1 behaves identically while en=1.
        let sequence: TestSequence = vec![vec![bit(1)], vec![bit(1)], vec![bit(1)]];
        let result = execute_mutants(&d, "t", &mutants, &sequence).unwrap();
        let stuck0 = mutants
            .iter()
            .position(|m| m.description.contains("stuck at 0"))
            .unwrap();
        let stuck1 = 1 - stuck0;
        assert_eq!(result.first_kill[stuck0], Some(1));
        assert_eq!(result.first_kill[stuck1], None, "stuck-1 identical when en held high");
    }

    #[test]
    fn sharded_execution_matches_serial_for_every_job_count() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        assert!(mutants.len() > 4, "need a population worth sharding");
        let sequence: TestSequence = (0..4u64)
            .map(|p| vec![bit(p & 1), bit((p >> 1) & 1)])
            .collect();
        let serial = execute_mutants(&d, "g", &mutants, &sequence).unwrap();
        for jobs in [0, 2, 3, 8, 64] {
            let sharded =
                execute_mutants_jobs(&d, "g", &mutants, &sequence, jobs).unwrap();
            assert_eq!(sharded.first_kill, serial.first_kill, "jobs={jobs}");
        }
    }

    #[test]
    fn engine_knob_parses_and_dispatches_identically() {
        assert_eq!("scalar".parse::<Engine>().unwrap(), Engine::Scalar);
        assert_eq!("lanes".parse::<Engine>().unwrap(), Engine::Lanes);
        assert!("turbo".parse::<Engine>().is_err());
        assert_eq!(Engine::default(), Engine::Lanes);
        assert_eq!(Engine::Lanes.to_string(), "lanes");

        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let sequence: TestSequence = (0..4u64)
            .map(|p| vec![bit(p & 1), bit((p >> 1) & 1)])
            .collect();
        let scalar =
            execute_mutants_engine(&d, "g", &mutants, &sequence, 1, Engine::Scalar).unwrap();
        for jobs in [1, 4] {
            let lanes =
                execute_mutants_engine(&d, "g", &mutants, &sequence, jobs, Engine::Lanes)
                    .unwrap();
            assert_eq!(lanes.first_kill, scalar.first_kill, "jobs={jobs}");
        }
    }

    #[test]
    fn opt_knob_parses_and_dispatches_identically() {
        assert_eq!("full".parse::<OptLevel>().unwrap(), OptLevel::Full);
        assert_eq!("off".parse::<OptLevel>().unwrap(), OptLevel::Off);
        assert!("fast".parse::<OptLevel>().is_err());
        assert_eq!(OptLevel::default(), OptLevel::Full);
        assert_eq!(OptLevel::Off.to_string(), "off");

        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let sequence: TestSequence = (0..4u64)
            .map(|p| vec![bit(p & 1), bit((p >> 1) & 1)])
            .collect();
        let scalar =
            execute_mutants_engine(&d, "g", &mutants, &sequence, 1, Engine::Scalar).unwrap();
        for opt in [OptLevel::Full, OptLevel::Off] {
            let lanes = execute_mutants_engine_opt(
                &d, "g", &mutants, &sequence, 1, Engine::Lanes, opt,
            )
            .unwrap();
            assert_eq!(lanes.first_kill, scalar.first_kill, "opt={opt}");
        }
    }

    #[test]
    fn reference_transcript_errors_on_bad_entity() {
        let d = checked(GATE);
        assert!(reference_transcript(&d, "zz", &[]).is_err());
    }

    #[test]
    fn empty_sequence_kills_nothing() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let result = execute_mutants(&d, "g", &mutants, &[]).unwrap();
        assert_eq!(result.killed_count(), 0);
    }
}
