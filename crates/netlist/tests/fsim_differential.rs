//! Differential test of the fault simulator against the naive serial
//! reference — [`LogicSim`] plus [`Injections::single`], one fault and
//! one pattern at a time — on random netlists.
//!
//! The generator is a [`Strategy`] of the in-tree proptest shim, so the
//! cases come from a fixed per-test seed. Its netlists mix n-input
//! XOR/XNOR gates, constant nets, gates that read one net on several
//! pins, primary outputs that also feed other gates and, when
//! sequential, flip-flops whose D net fans out (branch faults on D
//! pins). Every fault of [`full_faults`] is graded over one to three
//! sessions whose lengths often leave a final batch shorter than 64
//! vectors.

use musa_netlist::{
    fault_simulate, fault_simulate_sessions, full_faults, Fault, FaultSite, GateKind, Injections,
    LogicSim, NetId, Netlist, Node, Pattern,
};
use proptest::{Strategy, TestRng};

/// Cases per property: enough to hit every structural feature many
/// times, few enough for the unoptimized test profile.
const CASES: usize = 48;

const KINDS: [GateKind; 8] = [
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
    GateKind::Buf,
];

/// Strategy for a random frozen netlist.
struct RandomNetlist {
    /// Whether the netlist gets flip-flops.
    sequential: bool,
}

impl Strategy for RandomNetlist {
    type Value = Netlist;

    fn generate(&self, rng: &mut TestRng) -> Netlist {
        let mut nl = Netlist::new("random");
        let mut nets: Vec<NetId> = Vec::new();
        for i in 0..2 + rng.below(5) {
            nets.push(nl.add_input(format!("i{i}")));
        }
        for (name, value) in [("k0", false), ("k1", true)] {
            if rng.below(3) == 0 {
                nets.push(nl.add_const(name, value));
            }
        }
        let flops: Vec<NetId> = if self.sequential {
            (0..1 + rng.below(3))
                .map(|i| nl.add_dff(format!("q{i}"), rng.below(2) == 1))
                .collect()
        } else {
            Vec::new()
        };
        nets.extend(&flops);
        let mut gates = Vec::new();
        for g in 0..4 + rng.below(12) {
            let kind = KINDS[rng.below(KINDS.len() as u64) as usize];
            let arity = match kind {
                GateKind::Not | GateKind::Buf => 1,
                _ => 2 + rng.below(3) as usize,
            };
            // Lean towards recent nets so that cones get deep.
            let inputs = (0..arity)
                .map(|_| {
                    if rng.below(2) == 0 {
                        let back = rng.below(nets.len().min(6) as u64) as usize;
                        nets[nets.len() - 1 - back]
                    } else {
                        nets[rng.below(nets.len() as u64) as usize]
                    }
                })
                .collect();
            let net = nl.add_gate(format!("g{g}"), kind, inputs);
            nets.push(net);
            gates.push(net);
        }
        for &ff in &flops {
            nl.connect_dff(ff, gates[rng.below(gates.len() as u64) as usize]);
        }
        // The last gate, plus up to two nets of any kind — often ones
        // that also feed other gates.
        nl.mark_output(*gates.last().expect("at least four gates"));
        for _ in 0..rng.below(3) {
            nl.mark_output(nets[rng.below(nets.len() as u64) as usize]);
        }
        nl.freeze()
            .expect("generated netlists are acyclic and well formed")
    }
}

/// One to three sessions of random patterns, each up to 99 long.
fn random_sessions(nl: &Netlist, rng: &mut TestRng) -> Vec<Vec<Pattern>> {
    (0..1 + rng.below(3))
        .map(|_| {
            (0..rng.below(100))
                .map(|_| (0..nl.inputs().len()).map(|_| rng.below(2) == 1).collect())
                .collect()
        })
        .collect()
}

/// First detections of the serial reference within one session: each
/// fault alone, one pattern at a time, from reset.
fn serial_reference(nl: &Netlist, faults: &[Fault], session: &[Pattern]) -> Vec<Option<usize>> {
    let none = Injections::none();
    faults
        .iter()
        .map(|fault| {
            let inj = Injections::single(fault);
            let mut good = LogicSim::new(nl);
            let mut bad = LogicSim::new(nl);
            session.iter().position(|pattern| {
                let g = good.step_broadcast(pattern, &none);
                let b = bad.step_broadcast(pattern, &inj);
                g.iter().zip(&b).any(|(g, b)| (g ^ b) & 1 == 1)
            })
        })
        .collect()
}

/// Cumulative first detections over sessions applied one after another,
/// each from reset: the first session that detects a fault decides.
fn cumulative(per_session: &[Vec<Option<usize>>], sessions: &[Vec<Pattern>]) -> Vec<Option<usize>> {
    let mut first = vec![None; per_session[0].len()];
    let mut base = 0;
    for (detections, session) in per_session.iter().zip(sessions) {
        for (slot, t) in first.iter_mut().zip(detections) {
            *slot = slot.or(t.map(|t| base + t));
        }
        base += session.len();
    }
    first
}

/// How often the features the generator promises occurred.
#[derive(Debug, Default)]
struct Tally {
    wide_xor: usize,
    consts: usize,
    branch_faults: usize,
    d_pin_faults: usize,
    fanning_outputs: usize,
    short_final_batch: usize,
    multi_session: usize,
    detected: usize,
    undetected: usize,
}

impl Tally {
    fn record(
        &mut self,
        nl: &Netlist,
        faults: &[Fault],
        sessions: &[Vec<Pattern>],
        first: &[Option<usize>],
    ) {
        let fanouts = nl.fanouts();
        let wide_xor = |n: NetId| {
            matches!(nl.node(n), Node::Gate { kind: GateKind::Xor | GateKind::Xnor, inputs }
                if inputs.len() > 2)
        };
        let total: usize = sessions.iter().map(Vec::len).sum();
        self.wide_xor += usize::from(nl.nets().any(wide_xor));
        self.consts += usize::from(nl.nets().any(|n| matches!(nl.node(n), Node::Const(_))));
        self.branch_faults +=
            usize::from(faults.iter().any(
                |f| matches!(f.site, FaultSite::Pin { gate, .. } if !nl.dffs().contains(&gate)),
            ));
        self.d_pin_faults +=
            usize::from(faults.iter().any(
                |f| matches!(f.site, FaultSite::Pin { gate, .. } if nl.dffs().contains(&gate)),
            ));
        self.fanning_outputs += usize::from(
            nl.outputs()
                .iter()
                .any(|o| !fanouts[o.0 as usize].is_empty()),
        );
        self.short_final_batch += usize::from(total > 64 && total % 64 != 0);
        self.multi_session += usize::from(sessions.len() > 1);
        self.detected += first.iter().filter(|d| d.is_some()).count();
        self.undetected += first.iter().filter(|d| d.is_none()).count();
    }
}

/// Grades every fault of every case and checks each first detection
/// against the serial reference.
fn check(sequential: bool, seed_name: &str) -> Tally {
    let mut rng = TestRng::for_test(seed_name);
    let mut tally = Tally::default();
    for case in 0..CASES {
        let nl = RandomNetlist { sequential }.generate(&mut rng);
        let faults = full_faults(&nl);
        let sessions = random_sessions(&nl, &mut rng);
        let per_session: Vec<Vec<Option<usize>>> = sessions
            .iter()
            .map(|session| serial_reference(&nl, &faults, session))
            .collect();
        let expected = cumulative(&per_session, &sessions);
        let graded = fault_simulate_sessions(&nl, &faults, &sessions);
        for (i, fault) in faults.iter().enumerate() {
            assert_eq!(
                graded.first_detected[i],
                expected[i],
                "case {case}: fault {} disagrees with the serial reference",
                fault.describe(&nl)
            );
        }
        let single = fault_simulate(&nl, &faults, &sessions[0]);
        assert_eq!(
            single.first_detected, per_session[0],
            "case {case}, one session"
        );
        tally.record(&nl, &faults, &sessions, &expected);
    }
    // The generator must have produced every feature it promises.
    assert!(tally.wide_xor > 0 && tally.consts > 0, "{tally:?}");
    assert!(
        tally.branch_faults > 0 && tally.fanning_outputs > 0,
        "{tally:?}"
    );
    assert!(
        tally.short_final_batch > 0 && tally.multi_session > 0,
        "{tally:?}"
    );
    assert!(tally.detected > 0 && tally.undetected > 0, "{tally:?}");
    tally
}

#[test]
fn ppsfp_matches_serial_reference_on_random_combinational_netlists() {
    let tally = check(false, "ppsfp_random_netlists");
    assert_eq!(tally.d_pin_faults, 0, "{tally:?}");
}

#[test]
fn parallel_fault_matches_serial_reference_on_random_sequential_netlists() {
    let tally = check(true, "parallel_fault_random_netlists");
    assert!(tally.d_pin_faults > 0, "{tally:?}");
}
