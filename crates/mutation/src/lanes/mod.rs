//! Bit-parallel behavioral mutant lanes: up to 63 mutants + the
//! reference machine evaluated in **one** simulation pass.
//!
//! This is the behavioral-layer counterpart of `musa_netlist::fsim`'s
//! 63-faults-plus-good-machine word packing. The population is batched
//! into lane groups of at most 63 mutants of the same entity; each
//! group compiles the entity **once** into a flat instruction tape over
//! 64-lane words with every mutation site folded in as a mask-driven
//! lane select, then steps all lanes through reset
//! and the test sequence together. Per-lane first-kill cycles fall out
//! of XOR-ing each output lane against lane 0, so a population of `N`
//! mutants costs `⌈N/63⌉` simulation passes instead of `N` — and lane
//! groups shard across worker threads, so lanes compose multiplicatively
//! with `jobs`.
//!
//! Results are **bit-identical** to the scalar engine
//! ([`crate::execute_mutants_jobs`]) for every lane count and job
//! count. Mutants the tape cannot represent (an unknown site, a rewrite
//! that does not fit its node, a replacement the checker would reject)
//! are executed through the scalar engine lane-by-lane, so even
//! pathological inputs keep exact behavioural parity; populations from
//! [`crate::generate_mutants`] with validation on never need that path.

mod compile;
mod exec;
mod opt;
mod tape;
// The structural tape checker runs (and therefore compiles) only in
// debug builds, mirroring the `debug_assertions` hook in `compile`.
#[cfg(debug_assertions)]
mod verify;

use crate::execute::{reference_transcript, run_one, try_shard, KillResult, OptLevel};
use crate::mutant::{Mutant, MutationError};
use compile::{compile_group, BaseCompile, CompileError, Compiled, Executable};
use musa_hdl::{Bits, CheckedDesign, Simulator};
use tape::{LaneVm, LANES};

/// Maximum number of mutants per simulation pass (lane 0 is the
/// reference machine).
pub const MAX_LANES: usize = LANES - 1;

/// Knobs of the lane engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOptions {
    /// Mutants packed per pass, clamped to `1..=`[`MAX_LANES`]. Lower
    /// values exist for differential testing; 63 is the throughput
    /// setting.
    pub lanes_per_pass: usize,
    /// Worker threads sharding the lane groups (`0` = one per CPU).
    pub jobs: usize,
    /// Tape-optimizer level. [`OptLevel::Full`] (the default) runs the
    /// pass pipeline and the fusing lowering; [`OptLevel::Off`] skips
    /// both and interprets the compiler's raw tapes — the pre-pipeline
    /// engine, kept for differential testing and the `lanes-noopt`
    /// benchmark cells. Bit-identical either way.
    pub opt: OptLevel,
}

impl Default for LaneOptions {
    fn default() -> Self {
        Self { lanes_per_pass: MAX_LANES, jobs: 1, opt: OptLevel::default() }
    }
}

impl LaneOptions {
    /// Options with the given worker-thread count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Options with the given tape-optimizer level.
    #[must_use]
    pub fn with_opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }

    fn lanes(&self) -> usize {
        self.lanes_per_pass.clamp(1, MAX_LANES)
    }
}

/// Execution counters, used by tests and benchmarks to assert the
/// engine's complexity claims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Simulation passes executed: `⌈N/lanes⌉` on the happy path, plus
    /// one per scalar-fallback mutant (whether from an uncompilable
    /// rewrite inside a compiled group or a single-mutant cycle split).
    pub passes: usize,
    /// Total simulation steps executed across all passes; early exit
    /// (lane groups stop once every mutant is killed, scalar fallbacks
    /// at their own first kill) makes this less than
    /// `passes × sequence_len`.
    pub steps: usize,
    /// SSA instructions the compiler produced across the executed lane
    /// groups (both tapes, before the optimizer).
    pub instrs_before: usize,
    /// Executor ops after the pass pipeline, constant pooling and
    /// superinstruction fusion — what each step actually evaluates. At
    /// [`OptLevel::Off`] this equals `instrs_before`.
    pub instrs_after: usize,
    /// Live mutant lanes at the start of each executed pass, summed (a
    /// scalar-fallback pass carries its one mutant). Lane occupancy is
    /// `live_lanes / (MAX_LANES × passes)`.
    pub live_lanes: usize,
}

impl LaneStats {
    /// Publishes the totals into the installed tracer's counter
    /// registry (`lane_passes` / `lane_steps` / `lane_live_lanes`); a
    /// no-op when tracing is off. Called once per execution, after the
    /// per-group merge, so the counters always equal the returned stats
    /// exactly.
    fn emit(self) {
        musa_trace::count("lane_passes", self.passes as u64);
        musa_trace::count("lane_steps", self.steps as u64);
        musa_trace::count("lane_live_lanes", self.live_lanes as u64);
    }

    /// Folds one group's counters into the execution totals.
    fn absorb(&mut self, group: LaneStats) {
        self.passes += group.passes;
        self.steps += group.steps;
        self.instrs_before += group.instrs_before;
        self.instrs_after += group.instrs_after;
        self.live_lanes += group.live_lanes;
    }
}

/// [`crate::execute_mutants`] on the lane engine with default options.
///
/// # Errors
///
/// Propagates [`MutationError`] exactly as the scalar engine does.
pub fn execute_mutants_lanes(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    sequence: &[Vec<Bits>],
) -> Result<KillResult, MutationError> {
    execute_mutants_lanes_opts(checked, entity, mutants, sequence, &LaneOptions::default())
        .map(|(kills, _)| kills)
}

/// The lane engine with explicit options, returning its [`LaneStats`].
///
/// # Errors
///
/// Propagates [`MutationError`] exactly as the scalar engine does: the
/// lowest-index failing mutant is reported.
pub fn execute_mutants_lanes_opts(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    sequence: &[Vec<Bits>],
    options: &LaneOptions,
) -> Result<(KillResult, LaneStats), MutationError> {
    LanePlan::new(checked, entity, mutants, options)?.first_kills(sequence)
}

/// Full kill matrix on the lane engine: `rows[mutant][t]` is `true`
/// when the mutant's outputs differ from the reference at cycle `t`.
/// No early exit — every cycle is graded (the mutation-guided
/// generator's combinational path consumes whole rows).
///
/// # Errors
///
/// Propagates [`MutationError`] exactly as the scalar engine does.
pub fn kill_rows_lanes(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    sequence: &[Vec<Bits>],
    options: &LaneOptions,
) -> Result<Vec<Vec<bool>>, MutationError> {
    LanePlan::new(checked, entity, mutants, options)?
        .kill_rows(sequence)
        .map(|(rows, _)| rows)
}

/// A population compiled once and executable against **any number of
/// test sequences** — the compiled-tape cache behind the lane engine.
///
/// [`execute_mutants_lanes`] / [`kill_rows_lanes`] compile the
/// population's lane groups and throw the tapes away after one
/// sequence. Callers that grade the *same* population against many
/// sequences — the mutation-guided generator's candidate pools, custom
/// sweeps — build one `LanePlan` instead and amortise compilation:
///
/// * the group-independent *reference prefix* (read-dependency sets,
///   base evaluation order, power-on lanes) is computed **once per
///   population** and shared by every ≤63-mutant group compile, and
/// * each group's mutant-folded tape is compiled **once per plan** and
///   re-run per sequence (compile-time cycle splitting included), so a
///   pool of `P` candidate sequences costs one compile instead of `P`.
///
/// [`LanePlan::first_kills_live`] runs any live subset of the population
/// on the same tapes, so a kill pass over several sessions compiles once
/// instead of once per session.
///
/// Results are bit-identical to the one-shot entry points for every
/// sequence, lane count and job count.
#[derive(Debug)]
pub struct LanePlan<'a> {
    checked: &'a CheckedDesign,
    entity: String,
    mutants: &'a [Mutant],
    groups: Vec<PlanGroup>,
    jobs: usize,
}

/// One executable unit of a [`LanePlan`].
///
/// Nearly every group is a `Tape`, so boxing the compiled payload to
/// shrink the rare `ScalarOne` variant would buy nothing but an extra
/// indirection on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum PlanGroup {
    /// A compiled lane group covering `mutants[start..start + len]`.
    Tape {
        compiled: Compiled,
        start: usize,
        len: usize,
    },
    /// A single mutant whose union dependency graph cycles even alone;
    /// the scalar engine reports it (stillborn under re-checking).
    ScalarOne { slot: usize },
}

impl<'a> LanePlan<'a> {
    /// Compiles the population's lane groups (sharded across
    /// `options.jobs` worker threads, merged back by group index).
    ///
    /// # Errors
    ///
    /// Returns [`MutationError::EntityNotFound`] when the design has no
    /// such entity — before touching any mutant, exactly like the
    /// scalar engine's up-front reference transcript does. Per-mutant
    /// failures (unknown sites, stillborn rewrites) surface at
    /// execution time, matching the scalar engine's error behaviour.
    pub fn new(
        checked: &'a CheckedDesign,
        entity: &str,
        mutants: &'a [Mutant],
        options: &LaneOptions,
    ) -> Result<Self, MutationError> {
        let base = match BaseCompile::new(checked, entity) {
            Ok(base) => base,
            Err(CompileError::EntityNotFound) => {
                return Err(MutationError::EntityNotFound(entity.to_string()));
            }
            // A checked design schedules its comb processes
            // acyclically, so a base-graph cycle means the lane
            // scheduler disagrees with the checker. Degrade to the
            // scalar engine per mutant (what the old per-group bisect
            // bottomed out at) instead of misreporting the entity.
            Err(CompileError::Cycle) => {
                return Ok(Self {
                    checked,
                    entity: entity.to_string(),
                    mutants,
                    groups: (0..mutants.len())
                        .map(|slot| PlanGroup::ScalarOne { slot })
                        .collect(),
                    jobs: options.jobs,
                });
            }
        };
        let lanes = options.lanes();
        let ranges: Vec<(usize, usize)> = (0..mutants.len())
            .step_by(lanes.max(1))
            .map(|start| (start, lanes.min(mutants.len() - start)))
            .collect();
        let nested = try_shard(options.jobs, ranges.len(), |i| {
            let _trace = musa_trace::span("lane_compile");
            let compiled = compile_range(checked, entity, mutants, ranges[i], &base, options.opt);
            musa_trace::progress(|| {
                format!("{entity}: lane group {}/{} compiled", i + 1, ranges.len())
            });
            compiled
        })?;
        Ok(Self {
            checked,
            entity: entity.to_string(),
            mutants,
            groups: nested.into_iter().flatten().collect(),
            jobs: options.jobs,
        })
    }

    /// Number of executable groups (compiled tapes plus scalar
    /// fallbacks) in the plan.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// First killing vector per mutant, exactly like
    /// [`execute_mutants_lanes_opts`], re-using the compiled tapes.
    ///
    /// # Errors
    ///
    /// Propagates [`MutationError`] exactly as the scalar engine does:
    /// the lowest-index failing mutant is reported.
    pub fn first_kills(
        &self,
        sequence: &[Vec<Bits>],
    ) -> Result<(KillResult, LaneStats), MutationError> {
        self.first_kills_live(sequence, &vec![true; self.mutants.len()], self.jobs)
    }

    /// First killing vector of every **live** mutant (`live[i]` for
    /// mutant `i`), with the groups sharded across `jobs` worker
    /// threads. A masked mutant never enters its group's alive set and
    /// reports `None`. A group with no live lane is skipped (no reset,
    /// no pass counted), and a scalar fallback runs only for a live
    /// mutant. Lanes never interact, so every live mutant's kill equals
    /// what [`LanePlan::first_kills`] on a plan of the live subset alone
    /// reports.
    ///
    /// # Errors
    ///
    /// Propagates [`MutationError`] exactly as the scalar engine does on
    /// the live subset: the lowest-index failing live mutant is
    /// reported.
    ///
    /// # Panics
    ///
    /// Panics if `live` does not have one flag per mutant.
    pub fn first_kills_live(
        &self,
        sequence: &[Vec<Bits>],
        live: &[bool],
        jobs: usize,
    ) -> Result<(KillResult, LaneStats), MutationError> {
        assert_eq!(live.len(), self.mutants.len(), "one live flag per mutant");
        let reference = self.reference_if_needed(sequence, live)?;
        let per_group = try_shard(jobs, self.groups.len(), |i| {
            self.run_first_kill(&self.groups[i], sequence, reference.as_deref(), live)
        })?;
        let mut first_kill = Vec::with_capacity(self.mutants.len());
        let mut stats = LaneStats::default();
        for (kills, group_stats) in per_group {
            first_kill.extend(kills);
            stats.absorb(group_stats);
        }
        // Counter emission happens here, on the calling context, so the
        // totals land once per execution whatever the job count.
        stats.emit();
        Ok((KillResult { first_kill }, stats))
    }

    /// Full kill matrix, exactly like [`kill_rows_lanes`], re-using the
    /// compiled tapes.
    ///
    /// # Errors
    ///
    /// Propagates [`MutationError`] exactly as the scalar engine does.
    pub fn kill_rows(
        &self,
        sequence: &[Vec<Bits>],
    ) -> Result<(Vec<Vec<bool>>, LaneStats), MutationError> {
        let reference = self.reference_if_needed(sequence, &vec![true; self.mutants.len()])?;
        let per_group = try_shard(self.jobs, self.groups.len(), |i| {
            self.run_rows(&self.groups[i], sequence, reference.as_deref())
        })?;
        let mut rows = Vec::with_capacity(self.mutants.len());
        let mut stats = LaneStats::default();
        for (group_rows, group_stats) in per_group {
            rows.extend(group_rows);
            stats.absorb(group_stats);
        }
        stats.emit();
        Ok((rows, stats))
    }

    /// The scalar reference transcript, computed **once per sequence**
    /// and shared by every group that runs a live scalar fallback.
    fn reference_if_needed(
        &self,
        sequence: &[Vec<Bits>],
        live: &[bool],
    ) -> Result<Option<Vec<Vec<Bits>>>, MutationError> {
        let needed = self.groups.iter().any(|g| match g {
            PlanGroup::Tape { compiled, start, .. } => {
                compiled.fallback.iter().any(|&slot| live[start + slot])
            }
            PlanGroup::ScalarOne { slot } => live[*slot],
        });
        if !needed {
            return Ok(None);
        }
        reference_transcript(self.checked, &self.entity, sequence).map(Some)
    }

    fn run_first_kill(
        &self,
        group: &PlanGroup,
        sequence: &[Vec<Bits>],
        reference: Option<&[Vec<Bits>]>,
        live: &[bool],
    ) -> Result<(Vec<Option<usize>>, LaneStats), MutationError> {
        match group {
            PlanGroup::ScalarOne { slot } if !live[*slot] => Ok((vec![None], LaneStats::default())),
            PlanGroup::ScalarOne { slot } => {
                let _trace = musa_trace::span("scalar_fallback");
                let reference = reference.expect("scalar groups force a reference");
                let kill =
                    run_one(self.checked, &self.entity, &self.mutants[*slot], sequence, reference)?;
                let steps = kill.map_or(sequence.len(), |t| t + 1);
                let stats = LaneStats { passes: 1, steps, live_lanes: 1, ..LaneStats::default() };
                Ok((vec![kill], stats))
            }
            PlanGroup::Tape { compiled, start, len } => {
                let live = &live[*start..start + len];
                let mut first_kill = vec![None; *len];
                let mut stats = LaneStats::default();
                // Lane `slot + 1` carries mutant `start + slot`; lane 0
                // is the reference machine.
                let mut alive = live
                    .iter()
                    .enumerate()
                    .filter(|&(slot, &l)| l && !compiled.fallback.contains(&slot))
                    .fold(0u64, |mask, (slot, _)| mask | 1u64 << (slot + 1));
                if alive != 0 {
                    let mut sim = GroupSim::new(compiled, *len);
                    stats.passes = 1;
                    stats.instrs_before = compiled.instrs_before;
                    stats.instrs_after = compiled.instrs_after;
                    stats.live_lanes = alive.count_ones() as usize;
                    let _trace = musa_trace::span("lane_interpret");
                    sim.reset();
                    for (t, vector) in sequence.iter().enumerate() {
                        if alive == 0 {
                            break; // every mutant in the batch is killed
                        }
                        // Killed lanes drop out of the diff scan entirely.
                        let newly = sim.step(vector, alive);
                        stats.steps += 1;
                        let mut bits = newly;
                        while bits != 0 {
                            let lane = bits.trailing_zeros() as usize;
                            first_kill[lane - 1] = Some(t);
                            bits &= bits - 1;
                        }
                        alive &= !newly;
                    }
                }
                let fallbacks: Vec<usize> =
                    compiled.fallback.iter().copied().filter(|&slot| live[slot]).collect();
                if !fallbacks.is_empty() {
                    let _trace = musa_trace::span("scalar_fallback");
                    for slot in fallbacks {
                        let reference = reference.expect("fallbacks force a reference");
                        let kill = run_one(
                            self.checked,
                            &self.entity,
                            &self.mutants[start + slot],
                            sequence,
                            reference,
                        )?;
                        stats.passes += 1;
                        stats.steps += kill.map_or(sequence.len(), |t| t + 1);
                        stats.live_lanes += 1;
                        first_kill[slot] = kill;
                    }
                }
                Ok((first_kill, stats))
            }
        }
    }

    fn run_rows(
        &self,
        group: &PlanGroup,
        sequence: &[Vec<Bits>],
        reference: Option<&[Vec<Bits>]>,
    ) -> Result<(Vec<Vec<bool>>, LaneStats), MutationError> {
        match group {
            PlanGroup::ScalarOne { slot } => {
                let _trace = musa_trace::span("scalar_fallback");
                let stats = LaneStats {
                    passes: 1,
                    steps: sequence.len(),
                    live_lanes: 1,
                    ..LaneStats::default()
                };
                let reference = reference.expect("scalar groups force a reference");
                let row =
                    scalar_row(self.checked, &self.entity, &self.mutants[*slot], sequence, reference)?;
                Ok((vec![row], stats))
            }
            PlanGroup::Tape { compiled, start, len } => {
                let mut sim = GroupSim::new(compiled, *len);
                let mut stats = LaneStats {
                    passes: 1,
                    instrs_before: compiled.instrs_before,
                    instrs_after: compiled.instrs_after,
                    live_lanes: len - compiled.fallback.len(),
                    ..LaneStats::default()
                };
                let mut rows = vec![vec![false; sequence.len()]; *len];
                {
                    let _trace = musa_trace::span("lane_interpret");
                    sim.reset();
                    for (t, vector) in sequence.iter().enumerate() {
                        let diff = sim.step(vector, sim.used_mask);
                        stats.steps += 1;
                        for (slot, row) in rows.iter_mut().enumerate() {
                            row[t] = diff & (1u64 << (slot + 1)) != 0;
                        }
                    }
                }
                if !compiled.fallback.is_empty() {
                    let _trace = musa_trace::span("scalar_fallback");
                    for &slot in &compiled.fallback {
                        let reference = reference.expect("fallbacks force a reference");
                        rows[slot] = scalar_row(
                            self.checked,
                            &self.entity,
                            &self.mutants[start + slot],
                            sequence,
                            reference,
                        )?;
                        stats.passes += 1;
                        stats.steps += sequence.len();
                        stats.live_lanes += 1;
                    }
                }
                Ok((rows, stats))
            }
        }
    }
}

/// Compiles one contiguous mutant range, bisecting on joint
/// combinational cycles exactly like the old per-run path did: two
/// mutants' added read edges can cycle jointly even though each alone
/// is fine.
fn compile_range(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    (start, len): (usize, usize),
    base: &BaseCompile,
    opt: OptLevel,
) -> Result<Vec<PlanGroup>, MutationError> {
    let refs: Vec<&Mutant> = mutants[start..start + len].iter().collect();
    match compile_group(checked, entity, &refs, base, opt) {
        Ok(compiled) => Ok(vec![PlanGroup::Tape { compiled, start, len }]),
        Err(CompileError::Cycle) if len > 1 => {
            let mid = len / 2;
            let mut left = compile_range(checked, entity, mutants, (start, mid), base, opt)?;
            let right =
                compile_range(checked, entity, mutants, (start + mid, len - mid), base, opt)?;
            left.extend(right);
            Ok(left)
        }
        Err(CompileError::Cycle) => Ok(vec![PlanGroup::ScalarOne { slot: start }]),
        Err(CompileError::EntityNotFound) => {
            Err(MutationError::EntityNotFound(entity.to_string()))
        }
    }
}

/// One compiled lane group stepping through a test sequence.
struct GroupSim<'a> {
    vm: LaneVm,
    compiled: &'a Compiled,
    used_mask: u64,
}

impl<'a> GroupSim<'a> {
    fn new(compiled: &'a Compiled, group_len: usize) -> Self {
        let mut vm = LaneVm::new(&compiled.init, compiled.scratch, compiled.scratch_scalar);
        if let Executable::Lowered { consts, .. } = &compiled.exec {
            // The pool registers sit below every op destination and are
            // loop-invariant, so one seeding serves all sweeps.
            vm.seed_consts(consts);
        }
        let used_mask = if group_len + 1 >= LANES {
            !1u64
        } else {
            ((1u64 << (group_len + 1)) - 1) & !1
        };
        Self { vm, compiled, used_mask }
    }

    /// One combinational settle, on whichever engine the opt level
    /// compiled: the fused executor or the raw-tape interpreter.
    fn settle(&mut self) {
        match &self.compiled.exec {
            Executable::Raw { comb, .. } => self.vm.run(comb),
            Executable::Lowered { comb, .. } => {
                self.vm.run_scalar(&comb.pre);
                self.vm.run_exec(&comb.main);
            }
        }
    }

    /// One clock edge (next-state computation plus register commit).
    fn clock(&mut self) {
        match &self.compiled.exec {
            Executable::Raw { edge, .. } => self.vm.run(edge),
            Executable::Lowered { edge, .. } => {
                self.vm.run_scalar(&edge.pre);
                self.vm.run_exec(&edge.main);
            }
        }
    }

    fn reset(&mut self) {
        self.vm.reset(&self.compiled.init);
        self.settle();
    }

    /// Applies one test vector with the scalar simulator's protocol
    /// (inputs, settle, sample, clock) and returns the mask of lanes in
    /// `scan` whose sampled outputs differ from lane 0.
    ///
    /// `scan` limits the output XOR comparison to the lanes the caller
    /// still cares about: the first-kill path passes its shrinking
    /// alive mask, so long sequences stop scanning dead mutants
    /// mid-sequence; the kill-matrix path passes every used lane.
    fn step(&mut self, inputs: &[Bits], scan: u64) -> u64 {
        assert_eq!(
            inputs.len(),
            self.compiled.data_inputs.len(),
            "expected {} input values",
            self.compiled.data_inputs.len()
        );
        for (&(sym, width), bits) in self.compiled.data_inputs.iter().zip(inputs) {
            assert_eq!(width, bits.width(), "width mismatch on data input");
            self.vm.state[sym.0 as usize] = [bits.raw(); LANES];
        }
        self.settle();
        let mut diff = 0u64;
        let scan = scan & self.used_mask;
        for &sym in &self.compiled.outputs {
            let lanes = &self.vm.state[sym.0 as usize];
            let reference = lanes[0];
            let mut pending = scan & !diff;
            while pending != 0 {
                let l = pending.trailing_zeros() as usize;
                diff |= u64::from(lanes[l] != reference) << l;
                pending &= pending - 1;
            }
        }
        if !self.compiled.combinational {
            self.clock();
            self.settle();
        }
        diff
    }
}

/// Scalar fallback for one row of the kill matrix (the reference
/// transcript is computed once per plan execution and shared).
fn scalar_row(
    checked: &CheckedDesign,
    entity: &str,
    mutant: &Mutant,
    sequence: &[Vec<Bits>],
    reference: &[Vec<Bits>],
) -> Result<Vec<bool>, MutationError> {
    let mutated = mutant.apply(checked)?;
    let mut sim = Simulator::new(&mutated, entity)
        .map_err(|_| MutationError::EntityNotFound(entity.to_string()))?;
    sim.reset();
    Ok(sequence
        .iter()
        .zip(reference)
        .map(|(vector, expected)| sim.step(vector) != *expected)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::{execute_mutants, TestSequence};
    use crate::generate::{generate_mutants, GenerateOptions};
    use crate::mutant::{MutantId, Rewrite};
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

    const COUNTER: &str = "
        entity t is
          port(clk : in bit; rst : in bit; en : in bit; q : out bits(3));
        signal c : bits(3);
        seq(clk) begin
          if rst = 1 then
            c <= 0;
          elsif en = 1 then
            c <= c + 1;
          end if;
        end;
        comb begin q <= c; end;
        end;
    ";

    fn exhaustive_pairs() -> TestSequence {
        (0..4u64).map(|p| vec![bit(p & 1), bit((p >> 1) & 1)]).collect()
    }

    #[test]
    fn lane_engine_matches_scalar_on_the_gate() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let sequence = exhaustive_pairs();
        let scalar = execute_mutants(&d, "g", &mutants, &sequence).unwrap();
        let lanes = execute_mutants_lanes(&d, "g", &mutants, &sequence).unwrap();
        assert_eq!(lanes.first_kill, scalar.first_kill);
    }

    #[test]
    fn lane_engine_matches_scalar_on_a_sequential_counter() {
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        assert!(mutants.len() > 20, "population {}", mutants.len());
        let mut rng = 0x1234_5678_9ABC_DEF0u64;
        let sequence: TestSequence = (0..24)
            .map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                vec![bit((rng >> 60) & 1), bit((rng >> 61) & 1)]
            })
            .collect();
        let scalar = execute_mutants(&d, "t", &mutants, &sequence).unwrap();
        for lanes_per_pass in [1, 2, 63] {
            let opts = LaneOptions { lanes_per_pass, jobs: 1, ..LaneOptions::default() };
            let (lanes, _) =
                execute_mutants_lanes_opts(&d, "t", &mutants, &sequence, &opts).unwrap();
            assert_eq!(
                lanes.first_kill, scalar.first_kill,
                "lanes_per_pass={lanes_per_pass}"
            );
        }
    }

    #[test]
    fn population_of_n_takes_ceil_n_over_63_passes() {
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let n = mutants.len();
        let sequence: TestSequence = vec![vec![bit(0), bit(1)]; 4];
        let opts = LaneOptions::default();
        let (_, stats) =
            execute_mutants_lanes_opts(&d, "t", &mutants, &sequence, &opts).unwrap();
        assert_eq!(
            stats.passes,
            n.div_ceil(MAX_LANES),
            "population {n} must take ⌈N/63⌉ passes"
        );
        // And at one mutant per pass the engine degenerates to N passes.
        let opts = LaneOptions { lanes_per_pass: 1, jobs: 1, ..LaneOptions::default() };
        let (_, stats) =
            execute_mutants_lanes_opts(&d, "t", &mutants, &sequence, &opts).unwrap();
        assert_eq!(stats.passes, n);
    }

    #[test]
    fn lane_group_early_exits_once_every_mutant_is_killed() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        // The exhaustive four vectors kill all five LOR mutants by t=2;
        // padding the sequence must not cost extra steps.
        let mut sequence = exhaustive_pairs();
        let kill_by = {
            let scalar = execute_mutants(&d, "g", &mutants, &sequence).unwrap();
            scalar.first_kill.iter().map(|k| k.unwrap()).max().unwrap()
        };
        for _ in 0..100 {
            sequence.push(vec![bit(0), bit(0)]);
        }
        let (lanes, stats) = execute_mutants_lanes_opts(
            &d,
            "g",
            &mutants,
            &sequence,
            &LaneOptions::default(),
        )
        .unwrap();
        assert_eq!(lanes.killed_count(), mutants.len());
        assert_eq!(
            stats.steps,
            kill_by + 1,
            "group must stop right after its last first-kill"
        );
    }

    #[test]
    fn two_mutants_on_the_same_site_stay_in_their_lanes() {
        // Mask-select correctness: several rewrites of the SAME binary
        // site must not bleed into each other's lanes (regression guard
        // for the MaskSel chaining order).
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        assert_eq!(mutants.len(), 5, "five same-site alternatives");
        assert!(
            mutants.windows(2).all(|w| w[0].site == w[1].site),
            "all five target one site"
        );
        let sequence = exhaustive_pairs();
        let scalar = execute_mutants(&d, "g", &mutants, &sequence).unwrap();
        let lanes = execute_mutants_lanes(&d, "g", &mutants, &sequence).unwrap();
        assert_eq!(lanes.first_kill, scalar.first_kill);
        // And per-kill cycles differ between the alternatives, so a
        // lane-bleed would be visible.
        assert!(scalar.first_kill.iter().collect::<std::collections::HashSet<_>>().len() > 1);
    }

    #[test]
    fn same_site_uoi_and_lor_mix_is_lane_exact() {
        let d = checked(GATE);
        let mut mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        let site = mutants[0].site;
        mutants.push(Mutant {
            id: MutantId(99),
            operator: MutationOperator::Uoi,
            site,
            rewrite: Rewrite::InsertNot,
            description: "UOI on the shared site".into(),
        });
        let sequence = exhaustive_pairs();
        let scalar = execute_mutants(&d, "g", &mutants, &sequence).unwrap();
        let lanes = execute_mutants_lanes(&d, "g", &mutants, &sequence).unwrap();
        assert_eq!(lanes.first_kill, scalar.first_kill);
    }

    #[test]
    fn kill_rows_match_per_cycle_differences() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let sequence = exhaustive_pairs();
        let rows =
            kill_rows_lanes(&d, "g", &mutants, &sequence, &LaneOptions::default()).unwrap();
        assert_eq!(rows.len(), mutants.len());
        for (mi, row) in rows.iter().enumerate() {
            let reference = reference_transcript(&d, "g", &sequence).unwrap();
            let mutated = mutants[mi].apply(&d).unwrap();
            let mut sim = Simulator::new(&mutated, "g").unwrap();
            for (t, vector) in sequence.iter().enumerate() {
                assert_eq!(
                    row[t],
                    sim.step(vector) != reference[t],
                    "mutant {mi} cycle {t}"
                );
            }
        }
    }

    #[test]
    fn slice_targets_dynamic_indices_and_reductions_match_scalar() {
        // Constructs no bundled benchmark exercises together: slice
        // writes, a dynamically indexed write under a guard, reductions
        // and shifts — with the full operator population (including CR
        // mutants inside the target index expression).
        let d = checked(
            "entity m is
               port(clk : in bit; a : in bits(4); s : in bits(2); y : out bits(8); p : out bit);
             signal r : bits(8);
             signal hot : bits(4);
             seq(clk) begin
               r[7:4] <= a;
               r[3:0] <= r[7:4];
             end;
             comb begin
               hot <= 0;
               if orr(a) = 1 then
                 hot[s] <= 1;
               end if;
             end;
             comb begin
               y <= r xor (hot & (a srl 1));
               p <= xorr(r) xor andr(a);
             end;
             end;",
        );
        let mutants = generate_mutants(&d, "m", &GenerateOptions::default());
        assert!(mutants.len() > 40, "population {}", mutants.len());
        let mut rng = 0xFEEDu64;
        let sequence: TestSequence = (0..20)
            .map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(99);
                vec![Bits::new(4, rng >> 50), Bits::new(2, rng >> 40)]
            })
            .collect();
        let scalar = execute_mutants(&d, "m", &mutants, &sequence).unwrap();
        for lanes_per_pass in [1, 63] {
            let opts = LaneOptions { lanes_per_pass, jobs: 1, ..LaneOptions::default() };
            let (lanes, _) =
                execute_mutants_lanes_opts(&d, "m", &mutants, &sequence, &opts).unwrap();
            assert_eq!(
                lanes.first_kill, scalar.first_kill,
                "lanes_per_pass={lanes_per_pass}"
            );
        }
    }

    #[test]
    fn jobs_shard_lane_groups_identically() {
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let sequence: TestSequence =
            (0..16).map(|i| vec![bit(u64::from(i % 7 == 0)), bit(1)]).collect();
        let serial = execute_mutants_lanes(&d, "t", &mutants, &sequence).unwrap();
        for jobs in [0, 2, 8] {
            let opts = LaneOptions { lanes_per_pass: 4, jobs, ..LaneOptions::default() };
            let (sharded, _) =
                execute_mutants_lanes_opts(&d, "t", &mutants, &sequence, &opts).unwrap();
            assert_eq!(sharded.first_kill, serial.first_kill, "jobs={jobs}");
        }
    }

    #[test]
    fn lane_plan_is_reusable_across_sequences() {
        // The compiled-tape cache: one plan graded against several
        // sequences must match a fresh engine call per sequence, for
        // both the first-kill and the kill-matrix path.
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let plan = LanePlan::new(&d, "t", &mutants, &LaneOptions::default()).unwrap();
        assert_eq!(plan.group_count(), mutants.len().div_ceil(MAX_LANES));
        let mut rng = 0xCAFEu64;
        for round in 0..3 {
            let sequence: TestSequence = (0..10)
                .map(|_| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(7);
                    vec![bit((rng >> 60) & 1), bit((rng >> 61) & 1)]
                })
                .collect();
            let fresh = execute_mutants_lanes(&d, "t", &mutants, &sequence).unwrap();
            let (cached, _) = plan.first_kills(&sequence).unwrap();
            assert_eq!(cached.first_kill, fresh.first_kill, "round {round}");
            let fresh_rows =
                kill_rows_lanes(&d, "t", &mutants, &sequence, &LaneOptions::default()).unwrap();
            let (cached_rows, _) = plan.kill_rows(&sequence).unwrap();
            assert_eq!(cached_rows, fresh_rows, "round {round} rows");
        }
    }

    #[test]
    fn lane_plan_rejects_unknown_entities_up_front() {
        let d = checked(GATE);
        let err = LanePlan::new(&d, "zz", &[], &LaneOptions::default()).unwrap_err();
        assert!(matches!(err, MutationError::EntityNotFound(_)));
    }

    #[test]
    fn invalid_mutants_fall_back_to_scalar_errors() {
        use musa_hdl::ast::NodeId;
        let d = checked(GATE);
        let bogus = Mutant {
            id: MutantId(0),
            operator: MutationOperator::Cr,
            site: NodeId(999_999),
            rewrite: Rewrite::Literal { value: 0 },
            description: String::new(),
        };
        let err = execute_mutants_lanes(&d, "g", &[bogus], &exhaustive_pairs()).unwrap_err();
        assert!(matches!(err, MutationError::SiteNotFound(_)), "{err}");
    }

    #[test]
    fn stillborn_sdl_mutant_errors_exactly_like_scalar() {
        // Deleting the only driver of a combinational output violates
        // full assignment: the scalar engine rejects the mutant as
        // stillborn at apply time, and the lane engine must report the
        // very same error instead of silently simulating the deletion.
        let d = checked(GATE);
        let site = d.design().entities[0].processes[0].body[0].id();
        let sdl = Mutant {
            id: MutantId(0),
            operator: MutationOperator::Sdl,
            site,
            rewrite: Rewrite::DeleteStmt,
            description: "delete the y driver".into(),
        };
        let sequence = exhaustive_pairs();
        let scalar = execute_mutants(&d, "g", std::slice::from_ref(&sdl), &sequence);
        let lanes = execute_mutants_lanes(&d, "g", std::slice::from_ref(&sdl), &sequence);
        assert!(
            matches!(scalar, Err(MutationError::Stillborn(_))),
            "scalar: {scalar:?}"
        );
        assert_eq!(
            format!("{scalar:?}"),
            format!("{lanes:?}"),
            "engines must agree on the stillborn error"
        );
    }

    #[test]
    fn stillborn_duplicate_case_choice_errors_exactly_like_scalar() {
        let d = checked(
            "entity c is
               port(a : in bits(2); y : out bit);
             comb begin
               case a is
                 when 0 => y <= 1;
                 when 1 => y <= 0;
                 when others => y <= 0;
               end case;
             end;
             end;",
        );
        // Rewriting choice 0 to 1 collides with the second arm: stillborn.
        let entity = d.design().entities[0].clone();
        let mut arm_site = None;
        musa_hdl::ast::walk_stmts(&entity.processes[0].body, &mut |s| {
            if let musa_hdl::ast::Stmt::Case { arms, .. } = s {
                arm_site = Some(arms[0].id);
            }
        });
        let dup = Mutant {
            id: MutantId(0),
            operator: MutationOperator::Cr,
            site: arm_site.unwrap(),
            rewrite: Rewrite::CaseChoice { index: 0, value: 1 },
            description: "case choice 0 -> 1 (duplicate)".into(),
        };
        let sequence: TestSequence = (0..4u64).map(|v| vec![Bits::new(2, v)]).collect();
        let scalar = execute_mutants(&d, "c", std::slice::from_ref(&dup), &sequence);
        let lanes = execute_mutants_lanes(&d, "c", std::slice::from_ref(&dup), &sequence);
        assert!(
            matches!(scalar, Err(MutationError::Stillborn(_))),
            "scalar: {scalar:?}"
        );
        assert_eq!(format!("{scalar:?}"), format!("{lanes:?}"));
    }

    #[test]
    fn unknown_entity_is_reported_before_any_work() {
        let d = checked(GATE);
        let err = execute_mutants_lanes(&d, "zz", &[], &[]).unwrap_err();
        assert!(matches!(err, MutationError::EntityNotFound(_)));
    }

    #[test]
    fn empty_population_and_empty_sequence_are_harmless() {
        let d = checked(GATE);
        let kills = execute_mutants_lanes(&d, "g", &[], &exhaustive_pairs()).unwrap();
        assert!(kills.first_kill.is_empty());
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let kills = execute_mutants_lanes(&d, "g", &mutants, &[]).unwrap();
        assert_eq!(kills.killed_count(), 0);
    }

    /// The central pipeline contract: for every entity shape the suite
    /// exercises, the optimized engine, the unoptimized engine and the
    /// scalar engine agree bit-for-bit on first kills *and* whole kill
    /// matrices.
    #[test]
    fn optimizer_is_bit_identical_to_unoptimized_and_scalar() {
        let dyn_entity = "entity m is
           port(clk : in bit; a : in bits(4); s : in bits(2); y : out bits(8); p : out bit);
         signal r : bits(8);
         signal hot : bits(4);
         seq(clk) begin
           r[7:4] <= a;
           r[3:0] <= r[7:4];
         end;
         comb begin
           hot <= 0;
           if orr(a) = 1 then
             hot[s] <= 1;
           end if;
         end;
         comb begin
           y <= r xor (hot & (a srl 1));
           p <= xorr(r) xor andr(a);
         end;
         end;";
        let mut rng = 0x0D15_EA5Eu64;
        for (src, entity, widths) in [
            (GATE, "g", vec![1u32, 1]),
            (COUNTER, "t", vec![1, 1]),
            (dyn_entity, "m", vec![4, 2]),
        ] {
            let d = checked(src);
            let mutants = generate_mutants(&d, entity, &GenerateOptions::default());
            let sequence: TestSequence = (0..24)
                .map(|_| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(13);
                    widths
                        .iter()
                        .enumerate()
                        .map(|(i, &w)| Bits::new(w, rng >> (40 + 4 * i)))
                        .collect()
                })
                .collect();
            let scalar = execute_mutants(&d, entity, &mutants, &sequence).unwrap();
            let full = LaneOptions::default().with_opt(OptLevel::Full);
            let off = LaneOptions::default().with_opt(OptLevel::Off);
            let (opt_kills, _) =
                execute_mutants_lanes_opts(&d, entity, &mutants, &sequence, &full).unwrap();
            let (raw_kills, _) =
                execute_mutants_lanes_opts(&d, entity, &mutants, &sequence, &off).unwrap();
            assert_eq!(opt_kills.first_kill, scalar.first_kill, "{entity}: full vs scalar");
            assert_eq!(raw_kills.first_kill, scalar.first_kill, "{entity}: off vs scalar");
            let opt_rows = kill_rows_lanes(&d, entity, &mutants, &sequence, &full).unwrap();
            let raw_rows = kill_rows_lanes(&d, entity, &mutants, &sequence, &off).unwrap();
            assert_eq!(opt_rows, raw_rows, "{entity}: kill matrices diverge");
        }
    }

    #[test]
    fn optimizer_shrinks_the_executed_stream() {
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let sequence: TestSequence = vec![vec![bit(0), bit(1)]; 4];
        let full = LaneOptions::default();
        let (_, opt_stats) =
            execute_mutants_lanes_opts(&d, "t", &mutants, &sequence, &full).unwrap();
        assert!(
            opt_stats.instrs_after < opt_stats.instrs_before,
            "pipeline must shrink the tape: {opt_stats:?}"
        );
        let off = LaneOptions::default().with_opt(OptLevel::Off);
        let (_, raw_stats) =
            execute_mutants_lanes_opts(&d, "t", &mutants, &sequence, &off).unwrap();
        assert_eq!(
            raw_stats.instrs_after, raw_stats.instrs_before,
            "off is a 1:1 transliteration"
        );
        assert_eq!(raw_stats.instrs_before, opt_stats.instrs_before, "same compiler output");
    }
}
