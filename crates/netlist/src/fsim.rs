//! Stuck-at fault simulation with fault dropping.
//!
//! Every call compiles the netlist once into a levelized gate [`Tape`]
//! (flat gate kinds, dense `u32` operands, per-net fan-out lists in
//! topological position) and resolves each fault to a dense net, pin or
//! flop-D slot. Two engines run on that tape:
//!
//! * **combinational** circuits use *parallel-pattern single-fault
//!   propagation* (PPSFP, Waicukauski et al., 1985): the good machine is
//!   evaluated once per 64-pattern batch; each undetected fault is then
//!   skipped when no live lane excites it, and otherwise only its
//!   fan-out cone is re-evaluated, in topological order, event by event
//!   (Ulrich & Baker, 1974) — propagation stops wherever the faulty word
//!   equals the good one, and only the touched nets are restored;
//! * **sequential** circuits use *parallel-fault* simulation: the good
//!   machine in lane 0 and up to 63 faulty machines in the remaining
//!   lanes, all driven by the same vector sequence from the reset state,
//!   with the faults injected through dense per-net and per-pin 63-lane
//!   stuck-at masks.
//!
//! Both record, for every fault, the index of the **first** detecting
//! vector, from which coverage-versus-length curves are derived. The
//! [`LogicSim`]/[`Injections`] pair stays the good-machine simulator of
//! [`good_outputs`] and the serial reference the tests check against.
//!
//! Each call emits two work counters to the installed trace:
//! `fsim_gate_evals` (gate evaluations, good machine included) and
//! `fsim_faults_excited` (PPSFP: fault × batch pairs whose site differed
//! from the good machine in some live lane; parallel-fault: faults loaded
//! into a lane, once per session).

use crate::dominance::{FaultPlan, FaultReduction};
use crate::fault::Fault;
use crate::netlist::Netlist;
use crate::sim::{Injections, LogicSim};
use crate::tape::{word, Site, Tape};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One primary-input assignment (one bit per PI, in `Netlist::inputs`
/// order).
pub type Pattern = Vec<bool>;

/// Result of a fault-simulation run.
#[derive(Debug, Clone)]
pub struct FaultSimResult {
    /// The graded fault list (as passed in).
    pub faults: Vec<Fault>,
    /// For every fault, the index of the first detecting vector.
    pub first_detected: Vec<Option<usize>>,
    /// Number of vectors applied.
    pub vectors_applied: usize,
    /// Number of faults that actually occupied simulation lanes. Equal
    /// to `faults.len()` for the full engines; smaller under dominance
    /// reduction ([`fault_simulate_reduced`]), where credited faults
    /// never enter a lane.
    pub faults_simulated: usize,
}

impl FaultSimResult {
    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.first_detected.iter().filter(|d| d.is_some()).count()
    }

    /// Final fault coverage in `[0, 1]` (detected / total).
    ///
    /// Returns 1.0 for an empty fault list (nothing to detect).
    pub fn coverage(&self) -> f64 {
        if self.faults.is_empty() {
            1.0
        } else {
            self.detected_count() as f64 / self.faults.len() as f64
        }
    }

    /// Cumulative coverage after each applied vector:
    /// `curve()[t]` = coverage achieved by vectors `0..=t`.
    ///
    /// For an empty fault list the curve is 1.0 throughout, matching
    /// [`FaultSimResult::coverage`] (nothing to detect), so
    /// `curve.last()` always agrees with the final coverage.
    pub fn coverage_curve(&self) -> Vec<f64> {
        if self.faults.is_empty() {
            return vec![1.0; self.vectors_applied];
        }
        let total = self.faults.len() as f64;
        let mut per_vector = vec![0usize; self.vectors_applied];
        for first in self.first_detected.iter().flatten() {
            // A first-detection index at or past `vectors_applied` means
            // a caller's session accounting drifted; silently skipping
            // it would under-count coverage.
            debug_assert!(
                *first < per_vector.len(),
                "first_detected index {first} >= vectors_applied {}",
                self.vectors_applied
            );
            if *first < per_vector.len() {
                per_vector[*first] += 1;
            }
        }
        let mut cumulative = 0usize;
        per_vector
            .into_iter()
            .map(|d| {
                cumulative += d;
                cumulative as f64 / total
            })
            .collect()
    }

    /// The undetected faults.
    pub fn undetected(&self) -> Vec<Fault> {
        self.faults
            .iter()
            .zip(&self.first_detected)
            .filter(|(_, d)| d.is_none())
            .map(|(&f, _)| f)
            .collect()
    }
}

/// Simulates `faults` against `vectors` and reports first detections.
///
/// Dispatches to PPSFP for combinational circuits and parallel-fault for
/// sequential ones. Detection means: some primary output differs from the
/// good circuit at some vector (sequential machines start from reset and
/// never re-synchronise).
///
/// # Panics
///
/// Panics if any pattern length differs from the circuit's input count.
pub fn fault_simulate(nl: &Netlist, faults: &[Fault], vectors: &[Pattern]) -> FaultSimResult {
    let indices: Vec<usize> = (0..faults.len()).collect();
    let tape = Tape::compile(nl);
    let (first_detected, total) =
        simulate_subset_sessions(nl, &tape, faults, &indices, &[vectors]);
    FaultSimResult {
        faults: faults.to_vec(),
        first_detected,
        vectors_applied: total,
        faults_simulated: faults.len(),
    }
}

/// Simulates `faults` against a *test set*: several vector sequences,
/// each applied from the reset state, with fault dropping across
/// sessions. First-detection indices are cumulative over the
/// concatenation of all sessions.
///
/// # Panics
///
/// Panics if any pattern length differs from the circuit's input count.
pub fn fault_simulate_sessions(
    nl: &Netlist,
    faults: &[Fault],
    sessions: &[Vec<Pattern>],
) -> FaultSimResult {
    let indices: Vec<usize> = (0..faults.len()).collect();
    let _trace = musa_trace::span("fault_simulate");
    let tape = Tape::compile(nl);
    let (first_detected, total) = simulate_subset_sessions(nl, &tape, faults, &indices, sessions);
    FaultSimResult {
        faults: faults.to_vec(),
        first_detected,
        vectors_applied: total,
        faults_simulated: faults.len(),
    }
}

/// Simulates the faults at `indices` (into `faults`) across `sessions`
/// with fault dropping; returns their cumulative first-detection
/// indices (parallel to `indices`) and the total vector count.
///
/// `tape` is `nl` compiled, shared by all sessions. A combinational circuit
/// has no state to reset, so its sessions run as one pattern stream and
/// share 64-pattern batches across session boundaries.
fn simulate_subset_sessions<S: AsRef<[Pattern]>>(
    nl: &Netlist,
    tape: &Tape,
    faults: &[Fault],
    indices: &[usize],
    sessions: &[S],
) -> (Vec<Option<usize>>, usize) {
    let width = nl.inputs().len();
    for pattern in sessions.iter().flat_map(AsRef::as_ref) {
        assert_eq!(pattern.len(), width, "pattern width mismatch");
    }
    let total = sessions.iter().map(|s| s.as_ref().len()).sum();
    let mut first: Vec<Option<usize>> = vec![None; indices.len()];
    if indices.is_empty() {
        return (first, total);
    }
    let sites: Vec<(Site, bool)> = indices
        .iter()
        .map(|&i| (tape.site(nl, &faults[i]), faults[i].stuck_at_one))
        .collect();
    let mut work = Work::default();
    if nl.is_combinational() {
        let stream = sessions.iter().flat_map(AsRef::as_ref);
        Ppsfp::new(tape).run(&sites, stream, &mut first, &mut work);
    } else {
        let mut engine = ParallelFault::new(tape);
        let mut base = 0usize;
        for session in sessions {
            let session = session.as_ref();
            if first.iter().any(Option::is_none) {
                engine.run(&sites, session, base, &mut first, &mut work);
            }
            base += session.len();
        }
    }
    musa_trace::count("fsim_gate_evals", work.gate_evals);
    musa_trace::count("fsim_faults_excited", work.faults_excited);
    (first, total)
}

/// [`fault_simulate`] over a dominance-reduced fault list: only
/// representatives (and residuals) occupy lanes, while the result
/// still covers **every** fault of the list. See
/// [`fault_simulate_sessions_reduced`] for the exactness contract.
///
/// # Panics
///
/// Panics if any pattern length differs from the circuit's input count.
pub fn fault_simulate_reduced(
    nl: &Netlist,
    reduction: &FaultReduction,
    vectors: &[Pattern],
) -> FaultSimResult {
    fault_simulate_sessions_reduced(nl, reduction, std::slice::from_ref(&vectors.to_vec()))
}

/// [`fault_simulate_sessions`] over a dominance-reduced fault list.
///
/// Four stages:
///
/// 1. the reduction's kept representatives are simulated exactly as the
///    full engine would simulate them (per-fault results are
///    independent of batch composition, so their first-detection
///    indices are bit-identical to a full run);
/// 2. observed faults (stems with a NOT/BUF-only path to a primary
///    output) get their **exact** first-detection index — or their
///    undetected verdict — from the good-machine output trace, since
///    such a fault is detected precisely at its first excitation;
/// 3. every dropped fault whose credit set saw a detection is credited
///    the earliest such index — by dominance the same test prefix
///    detects it, so the *verdict* is sound and the index is an upper
///    bound on its true first detection;
/// 4. dropped faults with **no** detected credit source are residually
///    simulated, so no verdict is ever guessed.
///
/// Hence `detected_count()`, `coverage()` and `undetected()` match full
/// simulation exactly, while [`FaultSimResult::faults_simulated`]
/// (kept + residuals) stays below `faults_total` whenever credit
/// lands. Only credited faults' `first_detected` indices may exceed
/// their full-simulation values; consumers reading coverage-curve
/// interiors should use the full engine.
///
/// # Panics
///
/// Panics if any pattern length differs from the circuit's input count.
pub fn fault_simulate_sessions_reduced(
    nl: &Netlist,
    reduction: &FaultReduction,
    sessions: &[Vec<Pattern>],
) -> FaultSimResult {
    let faults = reduction.faults();
    let kept = reduction.simulated_indices();
    let tape = Tape::compile(nl);
    let (kept_first, total) = {
        let _trace = musa_trace::span("fault_simulate");
        simulate_subset_sessions(nl, &tape, faults, &kept, sessions)
    };
    let mut first_detected: Vec<Option<usize>> = vec![None; faults.len()];
    for (slot, &fi) in kept.iter().enumerate() {
        first_detected[fi] = kept_first[slot];
    }

    // Observed faults: exact results from the good-machine output
    // trace (a fault on a directly-observed net is detected at its
    // first excitation, which the good trace pinpoints).
    let observed: Vec<(usize, usize, bool)> = (0..faults.len())
        .filter_map(|i| match *reduction.plan(i) {
            FaultPlan::Observe { output, expect } => Some((i, output, expect)),
            _ => None,
        })
        .collect();
    if !observed.is_empty() {
        let mut base = 0usize;
        for session in sessions {
            if observed.iter().all(|&(i, ..)| first_detected[i].is_some()) {
                base += session.len();
                continue;
            }
            let good = good_outputs(nl, session);
            for &(i, output, expect) in &observed {
                if first_detected[i].is_some() {
                    continue;
                }
                if let Some(t) = good.iter().position(|outs| outs[output] == expect) {
                    first_detected[i] = Some(base + t);
                }
            }
            base += session.len();
        }
    }

    // Credit dropped faults from their dominated representatives.
    let mut residual: Vec<usize> = Vec::new();
    for i in 0..faults.len() {
        if let FaultPlan::Credit(sources) = reduction.plan(i) {
            match sources.iter().filter_map(|&s| first_detected[s]).min() {
                Some(t) => first_detected[i] = Some(t),
                None => residual.push(i),
            }
        }
    }

    // Residual pass: uncredited drops get real lanes — their verdict
    // (typically "undetected") is never inferred.
    let _trace = musa_trace::span("fault_residual");
    let (residual_first, residual_total) =
        simulate_subset_sessions(nl, &tape, faults, &residual, sessions);
    debug_assert!(residual.is_empty() || residual_total == total);
    for (slot, &fi) in residual.iter().enumerate() {
        first_detected[fi] = residual_first[slot];
    }

    FaultSimResult {
        faults: faults.to_vec(),
        first_detected,
        vectors_applied: total,
        faults_simulated: kept.len() + residual.len(),
    }
}

/// Good-circuit output transcript (used by test generators for response
/// comparison and by the sequential engine internally).
pub fn good_outputs(nl: &Netlist, vectors: &[Pattern]) -> Vec<Vec<bool>> {
    let mut sim = LogicSim::new(nl);
    sim.reset();
    let none = Injections::none();
    vectors
        .iter()
        .map(|v| {
            sim.step_broadcast(v, &none)
                .into_iter()
                .map(|w| w & 1 == 1)
                .collect()
        })
        .collect()
}

/// Work done by one simulation call, accumulated locally and emitted as
/// trace counters once at the end of the call.
#[derive(Debug, Default)]
struct Work {
    /// Gate evaluations, good machine included.
    gate_evals: u64,
    /// Fault propagations started (see the module docs).
    faults_excited: u64,
}

/// Parallel-pattern single-fault propagation for combinational circuits,
/// restricted to each fault's live fan-out cone.
struct Ppsfp<'t> {
    tape: &'t Tape,
    /// Good-machine net words of the current batch.
    good: Vec<u64>,
    /// Faulty-machine net words; equal to `good` between faults.
    faulty: Vec<u64>,
    /// Pending gate positions, smallest (earliest in topological order)
    /// first.
    pending: BinaryHeap<Reverse<u32>>,
    /// Per gate position: already pending.
    queued: Vec<bool>,
    /// Nets whose faulty word differs from the good one.
    touched: Vec<u32>,
}

impl<'t> Ppsfp<'t> {
    fn new(tape: &'t Tape) -> Self {
        Self {
            tape,
            good: vec![0; tape.net_count()],
            faulty: vec![0; tape.net_count()],
            pending: BinaryHeap::new(),
            queued: vec![false; tape.gate_count()],
            touched: Vec::new(),
        }
    }

    /// Runs the undetected faults of `sites` over the pattern stream,
    /// writing first detections into `first`.
    fn run<'p>(
        &mut self,
        sites: &[(Site, bool)],
        patterns: impl Iterator<Item = &'p Pattern>,
        first: &mut [Option<usize>],
        work: &mut Work,
    ) {
        let mut patterns = patterns.peekable();
        let mut words = vec![0u64; self.tape.inputs.len()];
        let mut base = 0usize;
        let mut live = first.iter().filter(|d| d.is_none()).count();
        while live > 0 && patterns.peek().is_some() {
            // Pack the batch into per-input words: lane k = pattern base+k.
            words.fill(0);
            let mut lanes = 0usize;
            for pattern in patterns.by_ref().take(64) {
                for (w, &bit) in words.iter_mut().zip(pattern) {
                    *w |= u64::from(bit) << lanes;
                }
                lanes += 1;
            }
            let lane_mask = if lanes == 64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            self.tape.eval_good(&mut self.good, &words);
            self.faulty.copy_from_slice(&self.good);
            work.gate_evals += self.tape.gate_count() as u64;

            for (slot, &(site, stuck)) in sites.iter().enumerate() {
                if first[slot].is_some() {
                    continue; // fault dropping
                }
                let diff = self.propagate(site, stuck, lane_mask, work);
                if diff != 0 {
                    first[slot] = Some(base + diff.trailing_zeros() as usize);
                    live -= 1;
                }
            }
            base += lanes;
        }
    }

    /// Propagates one fault through its fan-out cone and returns the
    /// lanes in which some primary output differs from the good machine.
    fn propagate(&mut self, site: Site, stuck: bool, lane_mask: u64, work: &mut Work) -> u64 {
        let tape = self.tape;
        let forced = word(stuck);
        // The first net the fault changes, and its faulty word. Lanes
        // outside `lane_mask` are left good, so they never propagate.
        let (net, value) = match site {
            Site::Net(n) => {
                let n = n as usize;
                let excited = (self.good[n] ^ forced) & lane_mask;
                if excited == 0 {
                    return 0;
                }
                work.faults_excited += 1;
                (n, self.good[n] ^ excited)
            }
            Site::Pin { gate, slot } => {
                let (gate, slot) = (gate as usize, slot as usize);
                let src = self.good[tape.operand(slot)];
                let excited = (src ^ forced) & lane_mask;
                if excited == 0 {
                    return 0;
                }
                work.faults_excited += 1;
                work.gate_evals += 1;
                let out = tape.out(gate);
                let value = tape.eval_forced(gate, &self.good, slot, src ^ excited);
                if value == self.good[out] {
                    return 0;
                }
                (out, value)
            }
            Site::DffPin(_) | Site::Inert => return 0,
        };

        let mut detected = self.set(net, value);
        while let Some(Reverse(pos)) = self.pending.pop() {
            let pos = pos as usize;
            self.queued[pos] = false;
            work.gate_evals += 1;
            let out = tape.out(pos);
            let value = tape.eval(pos, &self.faulty);
            if value != self.good[out] {
                detected |= self.set(out, value);
            }
        }
        for &net in &self.touched {
            self.faulty[net as usize] = self.good[net as usize];
        }
        self.touched.clear();
        detected
    }

    /// Stores a faulty word that differs from the good one, schedules the
    /// net's readers and returns the observed difference.
    fn set(&mut self, net: usize, value: u64) -> u64 {
        self.faulty[net] = value;
        self.touched.push(net as u32);
        for &reader in self.tape.fanout(net) {
            if !self.queued[reader as usize] {
                self.queued[reader as usize] = true;
                self.pending.push(Reverse(reader));
            }
        }
        if self.tape.is_observed(net) {
            value ^ self.good[net]
        } else {
            0
        }
    }
}

/// Parallel-fault simulation for sequential circuits: lane 0 is the good
/// machine, lanes 1..=63 carry one fault each, injected through dense
/// stuck-at masks.
struct ParallelFault<'t> {
    tape: &'t Tape,
    values: Vec<u64>,
    state: Vec<u64>,
    /// Per-net stuck-at masks.
    net_sa0: Vec<u64>,
    net_sa1: Vec<u64>,
    /// Per-operand-slot stuck-at masks.
    pin_sa0: Vec<u64>,
    pin_sa1: Vec<u64>,
    /// Per-flop D-pin stuck-at masks.
    d_sa0: Vec<u64>,
    d_sa1: Vec<u64>,
    /// Per gate position: some operand slot carries a fault. Only those
    /// gates pay for the per-pin masks; evaluating every gate masked
    /// makes sequential grading about 1.8× slower.
    pinned: Vec<bool>,
}

impl<'t> ParallelFault<'t> {
    fn new(tape: &'t Tape) -> Self {
        let (nets, pins, flops) = (tape.net_count(), tape.operand_count(), tape.flops.len());
        Self {
            tape,
            values: vec![0; nets],
            state: vec![0; flops],
            net_sa0: vec![0; nets],
            net_sa1: vec![0; nets],
            pin_sa0: vec![0; pins],
            pin_sa1: vec![0; pins],
            d_sa0: vec![0; flops],
            d_sa1: vec![0; flops],
            pinned: vec![false; tape.gate_count()],
        }
    }

    /// Sets `lanes` of a site's stuck-at slot; `None` clears the slot.
    fn inject(&mut self, site: Site, stuck: Option<bool>, lanes: u64) {
        let (sa0, sa1, index) = match site {
            Site::Net(n) => (&mut self.net_sa0, &mut self.net_sa1, n as usize),
            Site::Pin { gate, slot } => {
                self.pinned[gate as usize] = stuck.is_some();
                (&mut self.pin_sa0, &mut self.pin_sa1, slot as usize)
            }
            Site::DffPin(ff) => (&mut self.d_sa0, &mut self.d_sa1, ff as usize),
            Site::Inert => return,
        };
        match stuck {
            Some(true) => sa1[index] |= lanes,
            Some(false) => sa0[index] |= lanes,
            None => (sa0[index], sa1[index]) = (0, 0),
        }
    }

    /// Runs the undetected faults of `sites` over one session from the
    /// reset state; detections land at `base + t`.
    fn run(
        &mut self,
        sites: &[(Site, bool)],
        vectors: &[Pattern],
        base: usize,
        first: &mut [Option<usize>],
        work: &mut Work,
    ) {
        let pending: Vec<usize> = (0..sites.len()).filter(|&i| first[i].is_none()).collect();
        for chunk in pending.chunks(63) {
            for (lane, &fi) in chunk.iter().enumerate() {
                let (site, stuck) = sites[fi];
                self.inject(site, Some(stuck), 1u64 << (lane + 1));
            }
            work.faults_excited += chunk.len() as u64;
            let active_mask = if chunk.len() == 63 {
                !1
            } else {
                ((1u64 << (chunk.len() + 1)) - 1) & !1
            };
            let detected = self.run_chunk(vectors, active_mask, work);
            for (lane, &fi) in chunk.iter().enumerate() {
                if let Some(t) = detected[lane] {
                    first[fi] = Some(base + t);
                }
                self.inject(sites[fi].0, None, 0);
            }
        }
    }

    /// A net word under the injected stem faults.
    #[inline]
    fn forced(&self, net: usize, w: u64) -> u64 {
        (w | self.net_sa1[net]) & !self.net_sa0[net]
    }

    /// Clocks one batch of injected faults through `vectors`; returns the
    /// first detection of each fault lane (lane k + 1 at index k).
    fn run_chunk(
        &mut self,
        vectors: &[Pattern],
        active_mask: u64,
        work: &mut Work,
    ) -> [Option<usize>; 63] {
        let tape = self.tape;
        let mut first = [None; 63];
        for (slot, flop) in self.state.iter_mut().zip(&tape.flops) {
            *slot = flop.init;
        }
        let mut detected = 0u64;
        for (t, pattern) in vectors.iter().enumerate() {
            for &(net, w) in &tape.consts {
                self.values[net as usize] = self.forced(net as usize, w);
            }
            for (flop, &w) in tape.flops.iter().zip(&self.state) {
                self.values[flop.q as usize] = self.forced(flop.q as usize, w);
            }
            for (&net, &bit) in tape.inputs.iter().zip(pattern) {
                self.values[net as usize] = self.forced(net as usize, word(bit));
            }
            for pos in 0..tape.gate_count() {
                let w = if self.pinned[pos] {
                    tape.eval_masked(pos, &self.values, &self.pin_sa0, &self.pin_sa1)
                } else {
                    tape.eval(pos, &self.values)
                };
                let out = tape.out(pos);
                self.values[out] = self.forced(out, w);
            }
            work.gate_evals += tape.gate_count() as u64;

            let mut diff = 0u64;
            for &out in &tape.outputs {
                // Lanes differing from lane 0 (the good machine).
                let w = self.values[out as usize];
                diff |= w ^ 0u64.wrapping_sub(w & 1);
            }
            let mut newly = diff & active_mask & !detected;
            detected |= newly;
            while newly != 0 {
                first[newly.trailing_zeros() as usize - 1] = Some(t);
                newly &= newly - 1;
            }
            if detected == active_mask {
                break; // whole batch detected
            }
            for (i, flop) in tape.flops.iter().enumerate() {
                // The D pin can itself carry a branch fault.
                self.state[i] = (self.values[flop.d as usize] | self.d_sa1[i]) & !self.d_sa0[i];
            }
        }
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{parse_bench, C17};
    use crate::fault::{collapsed_faults, full_faults, Fault};
    use crate::netlist::{GateKind, Netlist};

    fn exhaustive_patterns(n: usize) -> Vec<Pattern> {
        (0..1u64 << n)
            .map(|p| (0..n).map(|i| (p >> i) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn c17_exhaustive_reaches_full_coverage() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let result = fault_simulate(&nl, &faults, &exhaustive_patterns(5));
        assert_eq!(
            result.detected_count(),
            faults.len(),
            "undetected: {:?}",
            result
                .undetected()
                .iter()
                .map(|f| f.describe(&nl))
                .collect::<Vec<_>>()
        );
        assert!((result.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn c17_full_universe_also_covered() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = full_faults(&nl);
        let result = fault_simulate(&nl, &faults, &exhaustive_patterns(5));
        assert_eq!(result.detected_count(), faults.len());
    }

    #[test]
    fn coverage_curve_is_monotone_and_ends_at_coverage() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let result = fault_simulate(&nl, &faults, &exhaustive_patterns(5));
        let curve = result.coverage_curve();
        assert_eq!(curve.len(), 32);
        for w in curve.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!((curve.last().unwrap() - result.coverage()).abs() < 1e-12);
    }

    #[test]
    fn no_vectors_detects_nothing() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let result = fault_simulate(&nl, &faults, &[]);
        assert_eq!(result.detected_count(), 0);
        assert_eq!(result.coverage(), 0.0);
        assert!(result.coverage_curve().is_empty());
    }

    #[test]
    fn empty_fault_list_is_fully_covered() {
        let nl = parse_bench(C17, "c17").unwrap();
        let result = fault_simulate(&nl, &[], &exhaustive_patterns(5));
        assert_eq!(result.coverage(), 1.0);
    }

    #[test]
    fn empty_fault_list_curve_is_one_throughout() {
        // Regression: coverage() reports 1.0 for an empty list but the
        // curve used to divide by max(1) and end at 0.0 — the two must
        // agree.
        let nl = parse_bench(C17, "c17").unwrap();
        let result = fault_simulate(&nl, &[], &exhaustive_patterns(5));
        let curve = result.coverage_curve();
        assert_eq!(curve.len(), 32);
        assert!(curve.iter().all(|&c| c == 1.0), "{curve:?}");
        assert_eq!(*curve.last().unwrap(), result.coverage());
        // No vectors: both the curve and the vector count stay empty.
        let empty = fault_simulate(&nl, &[], &[]);
        assert!(empty.coverage_curve().is_empty());
        assert_eq!(empty.coverage(), 1.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "first_detected index")]
    fn out_of_range_first_detection_fails_loudly_in_debug() {
        // Session-accounting drift (a first-detection index at or past
        // vectors_applied) must not silently under-count coverage.
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let mut result = fault_simulate(&nl, &faults, &exhaustive_patterns(5));
        result.first_detected[0] = Some(result.vectors_applied);
        let _ = result.coverage_curve();
    }

    #[test]
    fn first_detection_is_earliest() {
        // y = AND(a,b); fault y s-a-0 detected only by a=b=1.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate("y", GateKind::And, vec![a, b]);
        nl.mark_output(y);
        let nl = nl.freeze().unwrap();
        let fault = vec![Fault::net_sa0(y)];
        let vectors: Vec<Pattern> = vec![
            vec![false, false],
            vec![true, true], // first detecting vector: index 1
            vec![true, true],
        ];
        let result = fault_simulate(&nl, &fault, &vectors);
        assert_eq!(result.first_detected[0], Some(1));
    }

    #[test]
    fn detection_across_batch_boundary() {
        // 70 vectors: only vector 68 detects (exercises the second batch).
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate("y", GateKind::And, vec![a, b]);
        nl.mark_output(y);
        let nl = nl.freeze().unwrap();
        let fault = vec![Fault::net_sa0(y)];
        let mut vectors: Vec<Pattern> = vec![vec![false, false]; 70];
        vectors[68] = vec![true, true];
        let result = fault_simulate(&nl, &fault, &vectors);
        assert_eq!(result.first_detected[0], Some(68));
    }

    #[test]
    fn sequential_fault_detection() {
        // Toggle flop: q = DFF(xor(q, en)), output q.
        let src = "
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(q, en)
";
        let nl = parse_bench(src, "t").unwrap();
        let faults = collapsed_faults(&nl);
        // en=1 for 4 cycles toggles q: 0,1,0,1 — plenty to expose faults.
        let vectors: Vec<Pattern> = vec![vec![true]; 4];
        let result = fault_simulate(&nl, &faults, &vectors);
        assert!(
            result.detected_count() > 0,
            "at least some faults must be detected"
        );
        // q s-a-1: good q starts 0, faulty shows 1 at t=0.
        let q = nl.net_by_name("q").unwrap();
        let idx = faults
            .iter()
            .position(|f| *f == Fault::net_sa1(q))
            .expect("q s-a-1 must be a representative");
        assert_eq!(result.first_detected[idx], Some(0));
    }

    #[test]
    fn sequential_matches_single_fault_reference() {
        // Cross-check parallel-fault against naive one-fault-at-a-time.
        let src = "
INPUT(a)
INPUT(b)
OUTPUT(q)
OUTPUT(y)
q = DFF(d)
d = AND(a, q2)
q2 = NAND(b, q)
y = OR(q, b)
";
        let nl = parse_bench(src, "m").unwrap();
        let faults = collapsed_faults(&nl);
        let vectors: Vec<Pattern> = vec![
            vec![true, false],
            vec![true, true],
            vec![false, true],
            vec![true, true],
            vec![false, false],
            vec![true, true],
        ];
        let fast = fault_simulate(&nl, &faults, &vectors);

        // Naive reference: run each fault alone in lane 1.
        let good = good_outputs(&nl, &vectors);
        for (fi, fault) in faults.iter().enumerate() {
            let mut sim = LogicSim::new(&nl);
            sim.reset();
            let inj = Injections::single(fault);
            let mut first = None;
            for (t, v) in vectors.iter().enumerate() {
                let outs = sim.step_broadcast(v, &inj);
                let bad: Vec<bool> = outs.iter().map(|w| w & 1 == 1).collect();
                if bad != good[t] {
                    first = Some(t);
                    break;
                }
            }
            assert_eq!(
                fast.first_detected[fi],
                first,
                "fault {} disagrees",
                fault.describe(&nl)
            );
        }
    }

    #[test]
    fn ppsfp_matches_naive_serial_reference() {
        // Regression guard: fault forcing during one injection must not
        // corrupt the applied stimulus for later injections in the same
        // batch (input-net faults are the sensitive case).
        use crate::sim::{Injections, LogicSim};
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = full_faults(&nl);
        let patterns: Vec<Pattern> = (0..20u64)
            .map(|p| (0..5).map(|i| (p.wrapping_mul(0x9E37) >> i) & 1 == 1).collect())
            .collect();
        let fast = fault_simulate(&nl, &faults, &patterns);
        for (fi, fault) in faults.iter().enumerate() {
            let mut first = None;
            for (t, p) in patterns.iter().enumerate() {
                let mut sim = LogicSim::new(&nl);
                sim.set_inputs_broadcast(p);
                sim.eval(&Injections::none());
                let good: Vec<u64> = sim.outputs().iter().map(|w| w & 1).collect();
                sim.eval(&Injections::single(fault));
                let bad: Vec<u64> = sim.outputs().iter().map(|w| w & 1).collect();
                if good != bad {
                    first = Some(t);
                    break;
                }
            }
            assert_eq!(
                fast.first_detected[fi],
                first,
                "fault {} disagrees with the serial reference",
                fault.describe(&nl)
            );
        }
    }

    #[test]
    fn work_counters_on_c17_exhaustive() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let tracer = musa_trace::Tracer::new();
        {
            let _installed = tracer.install();
            fault_simulate_sessions(&nl, &faults, &[exhaustive_patterns(5)]);
        }
        let counters = tracer.finish().unwrap().counters;
        let count = |name| counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        let gate_evals = count("fsim_gate_evals").unwrap();
        // One batch: every fault is excited by some of the 32 patterns.
        assert_eq!(count("fsim_faults_excited"), Some(22));
        // 6 good-machine gates plus 58 in the faults' live cones.
        assert_eq!(gate_evals, 64);
        // The full re-evaluation engine paid faults x gates x batches
        // (plus the good machine).
        let batches = 1;
        assert!(gate_evals < (faults.len() * nl.gate_count() * batches) as u64);
    }

    #[test]
    fn sessions_accumulate_with_fault_dropping() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let all = exhaustive_patterns(5);
        // Split the exhaustive set into two sessions.
        let s1: Vec<Pattern> = all[..10].to_vec();
        let s2: Vec<Pattern> = all[10..].to_vec();
        let split = fault_simulate_sessions(&nl, &faults, &[s1, s2]);
        let whole = fault_simulate(&nl, &faults, &all);
        assert_eq!(split.vectors_applied, 32);
        // Combinational circuits: session boundaries are irrelevant, so
        // first-detection indices must match the single-run result.
        assert_eq!(split.first_detected, whole.first_detected);
    }

    #[test]
    fn sessions_reset_sequential_state() {
        let src = "
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(q, en)
";
        let nl = parse_bench(src, "t").unwrap();
        let faults = collapsed_faults(&nl);
        // Two short sessions; the second starts from reset again.
        let sessions = vec![vec![vec![true]; 2], vec![vec![false]; 2]];
        let result = fault_simulate_sessions(&nl, &faults, &sessions);
        assert_eq!(result.vectors_applied, 4);
        assert!(result.detected_count() > 0);
        // Indices from the second session land at 2 and 3.
        for d in result.first_detected.iter().flatten() {
            assert!(*d < 4);
        }
    }

    /// Asserts the reduced-simulation contract against full simulation:
    /// identical verdicts for every fault, exact indices for kept and
    /// residual faults, and upper-bound indices for credited ones.
    fn assert_reduced_matches(
        nl: &Netlist,
        faults: &[Fault],
        sessions: &[Vec<Pattern>],
        expect_reduction: bool,
    ) -> usize {
        use crate::dominance::{reduce_faults, FaultPlan};
        let full = fault_simulate_sessions(nl, faults, sessions);
        let red = reduce_faults(nl, faults);
        let reduced = fault_simulate_sessions_reduced(nl, &red, sessions);
        assert_eq!(reduced.faults, full.faults);
        assert_eq!(reduced.vectors_applied, full.vectors_applied);
        assert_eq!(
            reduced.detected_count(),
            full.detected_count(),
            "detected counts must match exactly"
        );
        assert_eq!(reduced.coverage().to_bits(), full.coverage().to_bits());
        for (i, (r, f)) in reduced
            .first_detected
            .iter()
            .zip(&full.first_detected)
            .enumerate()
        {
            match red.plan(i) {
                FaultPlan::Simulate => {
                    assert_eq!(r, f, "kept fault {} must be exact", faults[i].describe(nl));
                }
                FaultPlan::Observe { .. } => {
                    assert_eq!(
                        r,
                        f,
                        "observed fault {} must be exact",
                        faults[i].describe(nl)
                    );
                }
                FaultPlan::Credit(_) => match (r, f) {
                    (Some(rt), Some(ft)) => assert!(
                        rt >= ft,
                        "credited index is an upper bound ({} : {rt} < {ft})",
                        faults[i].describe(nl)
                    ),
                    (None, None) => {}
                    _ => panic!(
                        "verdict mismatch on {}: reduced {r:?} vs full {f:?}",
                        faults[i].describe(nl)
                    ),
                },
            }
        }
        assert!(reduced.faults_simulated <= reduced.faults.len());
        assert_eq!(full.faults_simulated, full.faults.len());
        if expect_reduction {
            assert!(
                reduced.faults_simulated < reduced.faults.len(),
                "expected a strict lane reduction: {} of {}",
                reduced.faults_simulated,
                reduced.faults.len()
            );
        }
        reduced.faults_simulated
    }

    #[test]
    fn reduced_matches_full_on_c17_exhaustive_and_sparse() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let all = exhaustive_patterns(5);
        assert_reduced_matches(&nl, &faults, std::slice::from_ref(&all), true);
        // Split sessions and a sparse prefix (leaves undetected faults,
        // exercising the residual pass; credit may or may not land, so
        // no strict-reduction expectation).
        assert_reduced_matches(&nl, &faults, &[all[..3].to_vec(), all[3..7].to_vec()], true);
        assert_reduced_matches(&nl, &faults, &[vec![vec![false; 5]; 2]], false);
        // No vectors at all: nothing is credited, every dropped fault
        // is residually simulated — exactness beats lane savings.
        assert_reduced_matches(&nl, &faults, &[], false);
    }

    #[test]
    fn reduced_matches_full_on_a_sequential_machine() {
        let src = "
INPUT(a)
INPUT(b)
OUTPUT(q)
OUTPUT(y)
q = DFF(d)
d = AND(a, q2)
q2 = NAND(b, q)
y = OR(q, b)
";
        let nl = parse_bench(src, "m").unwrap();
        let faults = collapsed_faults(&nl);
        // Several deterministic sequences, including ones that leave
        // faults undetected.
        let mut rng = 0x5EED_CAFE_u64;
        let mut best = usize::MAX;
        for len in [1usize, 3, 6, 12] {
            let vectors: Vec<Pattern> = (0..len)
                .map(|_| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    vec![(rng >> 61) & 1 == 1, (rng >> 62) & 1 == 1]
                })
                .collect();
            best = best.min(assert_reduced_matches(
                &nl,
                &faults,
                std::slice::from_ref(&vectors),
                false,
            ));
            let half = vectors.len() / 2;
            best = best.min(assert_reduced_matches(
                &nl,
                &faults,
                &[vectors[..half].to_vec(), vectors[half..].to_vec()],
                false,
            ));
        }
        // The state-free output cone (y = OR(q, b)) must reduce once
        // its dominated representatives are detected.
        assert!(best < faults.len(), "no sequence achieved a lane reduction");
    }

    #[test]
    fn reduced_matches_full_on_the_uncollapsed_universe() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = full_faults(&nl);
        assert_reduced_matches(&nl, &faults, &[exhaustive_patterns(5)], true);
    }

    #[test]
    fn more_than_63_sequential_faults_are_batched() {
        // Enough structure to exceed one parallel-fault batch.
        let mut src = String::from("INPUT(x0)\nOUTPUT(q)\n");
        let mut prev = "x0".to_string();
        for i in 0..40 {
            src.push_str(&format!("g{i} = NOT({prev})\n"));
            prev = format!("g{i}");
        }
        src.push_str(&format!("q = DFF({prev})\n"));
        let nl = parse_bench(&src, "chain").unwrap();
        let faults = full_faults(&nl);
        assert!(faults.len() > 63);
        let vectors: Vec<Pattern> = (0..6).map(|i| vec![i % 2 == 0]).collect();
        let result = fault_simulate(&nl, &faults, &vectors);
        // The inverter chain propagates everything to the flop; most
        // faults must be seen within a few cycles.
        assert!(result.detected_count() > faults.len() / 2);
    }
}
