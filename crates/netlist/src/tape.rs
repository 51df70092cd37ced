//! A netlist compiled for fault simulation.
//!
//! [`Tape`] levelizes the combinational core once into flat arrays: gate
//! kinds in topological order, dense `u32` operand offsets into a shared
//! operand pool, per-net fan-out lists already sorted by topological
//! position, and the source nets (inputs, constants, flops) split out.
//! Net values live in a plain `Vec<u64>` indexed by net id, so
//! evaluating a gate folds `GateKind::eval_iter` over a slice of operand
//! ids — no `Node` match, no scratch vector and no hashing.
//!
//! Fault sites resolve to [`Site`]s: a net id, an operand slot of a tape
//! gate, or a flop's D pin. The fault engines in [`crate::fsim`] use
//! those as indices into dense per-net and per-pin stuck-at slots.

use crate::fault::{Fault, FaultSite};
use crate::netlist::{GateKind, Netlist, Node};

/// A resolved stuck-at fault location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// Stem fault on a net.
    Net(u32),
    /// Branch fault on operand `slot` (an index into the operand pool)
    /// of the tape gate at position `gate`.
    Pin {
        /// Topological position of the reading gate.
        gate: u32,
        /// Operand slot of the faulty pin.
        slot: u32,
    },
    /// Branch fault on the D pin of flop `ff` (an index into
    /// [`Netlist::dffs`]); it only acts when the flop is clocked.
    DffPin(u32),
    /// A site the netlist does not have (out-of-range net or pin): the
    /// fault never changes a value.
    Inert,
}

/// One flip-flop of the tape.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flop {
    /// Output (state) net.
    pub q: u32,
    /// Data-input net.
    pub d: u32,
    /// Power-on word (all lanes).
    pub init: u64,
}

/// The compiled form of a frozen [`Netlist`].
#[derive(Debug, Clone)]
pub(crate) struct Tape {
    /// Gate kinds, in topological order.
    kinds: Vec<GateKind>,
    /// Output net of every tape gate.
    outs: Vec<u32>,
    /// Operand pool offsets: gate `g` reads `ops[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    /// Operand net ids of all gates, concatenated.
    ops: Vec<u32>,
    /// Fan-out offsets: net `n` feeds the gates at positions
    /// `fanout[fan_starts[n]..fan_starts[n + 1]]`.
    fan_starts: Vec<u32>,
    /// Reading-gate positions of all nets, ascending per net.
    fanout: Vec<u32>,
    /// For every net: its tape position if a gate drives it, its flop
    /// index if a flop drives it, unused otherwise.
    driver: Vec<u32>,
    /// Primary-output flag per net.
    observed: Vec<bool>,
    /// Primary inputs, in `Netlist::inputs` order.
    pub inputs: Vec<u32>,
    /// Primary outputs, in declaration order.
    pub outputs: Vec<u32>,
    /// Constant nets and their words.
    pub consts: Vec<(u32, u64)>,
    /// Flip-flops, in `Netlist::dffs` order.
    pub flops: Vec<Flop>,
}

impl Tape {
    /// Compiles a frozen netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist was not frozen.
    pub fn compile(nl: &Netlist) -> Self {
        let topo = nl.topo_order();
        let net_count = nl.net_count();
        let mut driver = vec![u32::MAX; net_count];
        let mut kinds = Vec::with_capacity(topo.len());
        let mut outs = Vec::with_capacity(topo.len());
        let mut starts = Vec::with_capacity(topo.len() + 1);
        let mut ops = Vec::new();
        starts.push(0);
        for (pos, &g) in topo.iter().enumerate() {
            if let Node::Gate { kind, inputs } = nl.node(g) {
                driver[g.0 as usize] = pos as u32;
                kinds.push(*kind);
                outs.push(g.0);
                ops.extend(inputs.iter().map(|n| n.0));
                starts.push(ops.len() as u32);
            }
        }

        // Fan-out lists in topological position: walking the gates in
        // tape order appends each reader in ascending position.
        let mut fan_starts = vec![0u32; net_count + 1];
        for window in starts.windows(2) {
            let operands = &ops[window[0] as usize..window[1] as usize];
            for (i, &src) in operands.iter().enumerate() {
                if !operands[..i].contains(&src) {
                    fan_starts[src as usize + 1] += 1;
                }
            }
        }
        for n in 0..net_count {
            fan_starts[n + 1] += fan_starts[n];
        }
        let mut fill = fan_starts.clone();
        let mut fanout = vec![0u32; fan_starts[net_count] as usize];
        for (g, window) in starts.windows(2).enumerate() {
            let operands = &ops[window[0] as usize..window[1] as usize];
            for (i, &src) in operands.iter().enumerate() {
                if !operands[..i].contains(&src) {
                    fanout[fill[src as usize] as usize] = g as u32;
                    fill[src as usize] += 1;
                }
            }
        }

        let mut observed = vec![false; net_count];
        for &o in nl.outputs() {
            observed[o.0 as usize] = true;
        }
        let consts = nl
            .nets()
            .filter_map(|n| match nl.node(n) {
                Node::Const(v) => Some((n.0, word(*v))),
                _ => None,
            })
            .collect();
        let flops = nl
            .dffs()
            .iter()
            .enumerate()
            .map(|(i, &ff)| match nl.node(ff) {
                Node::Dff { d, init } => {
                    driver[ff.0 as usize] = i as u32;
                    Flop {
                        q: ff.0,
                        d: d.0,
                        init: word(*init),
                    }
                }
                _ => unreachable!("dff list holds only flops"),
            })
            .collect();
        Self {
            kinds,
            outs,
            starts,
            ops,
            fan_starts,
            fanout,
            driver,
            observed,
            inputs: nl.inputs().iter().map(|n| n.0).collect(),
            outputs: nl.outputs().iter().map(|n| n.0).collect(),
            consts,
            flops,
        }
    }

    /// Number of nets (the length of a value vector).
    pub fn net_count(&self) -> usize {
        self.observed.len()
    }

    /// Number of gates on the tape.
    pub fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// Size of the operand pool (the length of a per-pin slot vector).
    pub fn operand_count(&self) -> usize {
        self.ops.len()
    }

    /// Output net of the gate at `pos`.
    #[inline]
    pub fn out(&self, pos: usize) -> usize {
        self.outs[pos] as usize
    }

    /// Operand-pool range of the gate at `pos`.
    #[inline]
    fn operand_range(&self, pos: usize) -> std::ops::Range<usize> {
        self.starts[pos] as usize..self.starts[pos + 1] as usize
    }

    /// Net read through operand slot `slot`.
    #[inline]
    pub fn operand(&self, slot: usize) -> usize {
        self.ops[slot] as usize
    }

    /// Positions of the gates reading `net`, ascending.
    #[inline]
    pub fn fanout(&self, net: usize) -> &[u32] {
        &self.fanout[self.fan_starts[net] as usize..self.fan_starts[net + 1] as usize]
    }

    /// `true` when `net` is a primary output.
    #[inline]
    pub fn is_observed(&self, net: usize) -> bool {
        self.observed[net]
    }

    /// Evaluates the gate at `pos` over `values`.
    #[inline]
    pub fn eval(&self, pos: usize, values: &[u64]) -> u64 {
        let range = self.operand_range(pos);
        let words = self.ops[range].iter().map(|&n| values[n as usize]);
        self.kinds[pos].eval_iter(words)
    }

    /// Evaluates the gate at `pos` with operand slot `slot` replaced by
    /// `forced`.
    pub fn eval_forced(&self, pos: usize, values: &[u64], slot: usize, forced: u64) -> u64 {
        let range = self.operand_range(pos);
        let words = range.map(|s| {
            if s == slot {
                forced
            } else {
                values[self.ops[s] as usize]
            }
        });
        self.kinds[pos].eval_iter(words)
    }

    /// Evaluates the gate at `pos` with every operand slot forced
    /// through the per-pin stuck-at masks.
    pub fn eval_masked(&self, pos: usize, values: &[u64], sa0: &[u64], sa1: &[u64]) -> u64 {
        let range = self.operand_range(pos);
        let words = range.map(|s| (values[self.ops[s] as usize] | sa1[s]) & !sa0[s]);
        self.kinds[pos].eval_iter(words)
    }

    /// Writes the constant and `inputs` words into `values`, then
    /// evaluates every gate in order: the fault-free machine of a
    /// combinational circuit.
    pub fn eval_good(&self, values: &mut [u64], inputs: &[u64]) {
        for &(net, w) in &self.consts {
            values[net as usize] = w;
        }
        for (&net, &w) in self.inputs.iter().zip(inputs) {
            values[net as usize] = w;
        }
        for pos in 0..self.gate_count() {
            values[self.outs[pos] as usize] = self.eval(pos, values);
        }
    }

    /// Resolves a fault's site against the tape.
    pub fn site(&self, nl: &Netlist, fault: &Fault) -> Site {
        match fault.site {
            FaultSite::Net(n) if (n.0 as usize) < self.net_count() => Site::Net(n.0),
            FaultSite::Pin { gate, pin } if (gate.0 as usize) < self.net_count() => {
                let index = self.driver[gate.0 as usize];
                match nl.node(gate) {
                    Node::Gate { inputs, .. } if (pin as usize) < inputs.len() => Site::Pin {
                        gate: index,
                        slot: self.starts[index as usize] + pin,
                    },
                    Node::Dff { .. } if pin == 0 => Site::DffPin(index),
                    _ => Site::Inert,
                }
            }
            _ => Site::Inert,
        }
    }
}

/// The all-lanes word of a logic value.
#[inline]
pub(crate) fn word(v: bool) -> u64 {
    if v {
        u64::MAX
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{parse_bench, C17};
    use crate::sim::{Injections, LogicSim};

    #[test]
    fn good_machine_matches_logic_sim_on_c17() {
        let nl = parse_bench(C17, "c17").unwrap();
        let tape = Tape::compile(&nl);
        let inputs = [
            0x0123_4567_89AB_CDEF,
            0xF0F0,
            0xDEAD_BEEF,
            !0x55,
            0x1234_5678u64,
        ];
        let mut values = vec![0; tape.net_count()];
        tape.eval_good(&mut values, &inputs);
        let mut sim = LogicSim::new(&nl);
        sim.set_inputs(&inputs);
        sim.eval(&Injections::none());
        for net in nl.nets() {
            assert_eq!(
                values[net.0 as usize],
                sim.value(net),
                "{}",
                nl.net_name(net)
            );
        }
    }

    #[test]
    fn fanout_lists_are_ascending_and_deduplicated() {
        let src = "
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
x = AND(a, a, b)
y = XOR(x, a)
z = NOT(x)
";
        let nl = parse_bench(src, "t").unwrap();
        let tape = Tape::compile(&nl);
        let a = nl.net_by_name("a").unwrap().0 as usize;
        let x = nl.net_by_name("x").unwrap().0 as usize;
        assert_eq!(tape.fanout(a).len(), 2, "AND(a, a, b) reads a once");
        assert_eq!(tape.fanout(x).len(), 2);
        for net in 0..tape.net_count() {
            assert!(tape.fanout(net).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sites_resolve_to_dense_slots_or_inert() {
        let src = "
INPUT(a)
OUTPUT(q)
q = DFF(d)
d = AND(a, q)
";
        let nl = parse_bench(src, "t").unwrap();
        let tape = Tape::compile(&nl);
        let d = nl.net_by_name("d").unwrap();
        let q = nl.net_by_name("q").unwrap();
        let a = nl.net_by_name("a").unwrap();
        let pin = |gate, pin| Fault {
            site: FaultSite::Pin { gate, pin },
            stuck_at_one: false,
        };
        assert_eq!(tape.site(&nl, &Fault::net_sa1(q)), Site::Net(q.0));
        assert_eq!(tape.site(&nl, &pin(d, 1)), Site::Pin { gate: 0, slot: 1 });
        assert_eq!(tape.site(&nl, &pin(q, 0)), Site::DffPin(0));
        assert_eq!(tape.site(&nl, &pin(q, 1)), Site::Inert);
        assert_eq!(tape.site(&nl, &pin(d, 2)), Site::Inert);
        assert_eq!(tape.site(&nl, &pin(a, 0)), Site::Inert);
        let far = crate::netlist::NetId(99);
        assert_eq!(tape.site(&nl, &Fault::net_sa0(far)), Site::Inert);
    }
}
