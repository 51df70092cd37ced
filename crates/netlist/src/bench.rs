//! Reader and writer for the ISCAS `.bench` netlist format.
//!
//! The de-facto benchmark interchange format:
//!
//! ```text
//! # c17 fragment
//! INPUT(G1)
//! INPUT(G3)
//! OUTPUT(G22)
//! G10 = NAND(G1, G3)
//! G22 = NAND(G10, G3)
//! ```
//!
//! Extensions accepted by this reader: `DFF(d)` flops (as in the ISCAS'89
//! sequential benchmarks), `BUFF`/`BUF`, `CONST0`/`CONST1` nullary
//! drivers, and `#` comments.

use crate::netlist::{GateKind, NetId, Netlist, NetlistError};
use std::collections::HashMap;
use std::fmt;

/// Error reading a `.bench` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchError {
    /// Syntactic problem on a specific line (1-based).
    Syntax {
        /// Line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// The netlist parsed but failed validation.
    Invalid(NetlistError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Syntax { line, message } => {
                write!(f, "bench syntax error on line {line}: {message}")
            }
            BenchError::Invalid(e) => write!(f, "invalid bench netlist: {e}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for BenchError {
    fn from(e: NetlistError) -> Self {
        BenchError::Invalid(e)
    }
}

/// Parses `.bench` text into a frozen [`Netlist`].
///
/// # Errors
///
/// Returns [`BenchError::Syntax`] for malformed lines and
/// [`BenchError::Invalid`] when the described circuit is ill-formed
/// (dangling nets, loops, …).
///
/// # Examples
///
/// ```
/// let nl = musa_netlist::parse_bench(
///     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
///     "tiny",
/// )?;
/// assert_eq!(nl.gate_count(), 1);
/// # Ok::<(), musa_netlist::BenchError>(())
/// ```
pub fn parse_bench(text: &str, name: &str) -> Result<Netlist, BenchError> {
    struct PendingGate {
        out: String,
        func: String,
        args: Vec<String>,
        line: usize,
    }

    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut gates: Vec<PendingGate> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let code = raw.split('#').next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        let syntax = |message: &str| BenchError::Syntax {
            line,
            message: message.to_string(),
        };
        if let Some(rest) = code.strip_prefix("INPUT") {
            inputs.push(parse_paren_arg(rest).ok_or_else(|| syntax("expected INPUT(name)"))?);
        } else if let Some(rest) = code.strip_prefix("OUTPUT") {
            outputs.push(parse_paren_arg(rest).ok_or_else(|| syntax("expected OUTPUT(name)"))?);
        } else if let Some(eq) = code.find('=') {
            let out = code[..eq].trim().to_string();
            let rhs = code[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| syntax("expected FUNC(args)"))?;
            let close = rhs
                .rfind(')')
                .filter(|&c| c > open)
                .ok_or_else(|| syntax("missing `)`"))?;
            let func = rhs[..open].trim().to_ascii_uppercase();
            let args: Vec<String> = rhs[open + 1..close]
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            if out.is_empty() {
                return Err(syntax("missing output name"));
            }
            gates.push(PendingGate {
                out,
                func,
                args,
                line,
            });
        } else {
            return Err(syntax("unrecognised line"));
        }
    }

    let mut nl = Netlist::new(name);
    let mut ids: HashMap<String, NetId> = HashMap::new();
    for input in &inputs {
        ids.insert(input.clone(), nl.add_input(input.clone()));
    }
    // First pass: declare all gate/flop outputs so forward references work.
    for gate in &gates {
        if ids.contains_key(&gate.out) {
            return Err(BenchError::Syntax {
                line: gate.line,
                message: format!("net `{}` is defined twice", gate.out),
            });
        }
        let id = match gate.func.as_str() {
            "DFF" | "DFF0" => nl.add_dff(gate.out.clone(), false),
            "DFF1" => nl.add_dff(gate.out.clone(), true),
            "CONST0" => nl.add_const(gate.out.clone(), false),
            "CONST1" => nl.add_const(gate.out.clone(), true),
            _ => {
                // Placeholder; inputs filled in the second pass.
                nl.add_gate(gate.out.clone(), GateKind::Buf, Vec::new())
            }
        };
        ids.insert(gate.out.clone(), id);
    }
    // Second pass: resolve arguments.
    let mut resolved: Vec<(NetId, GateKind, Vec<NetId>)> = Vec::new();
    for gate in &gates {
        let out_id = ids[&gate.out];
        let args: Vec<NetId> = gate
            .args
            .iter()
            .map(|a| {
                ids.get(a).copied().ok_or(BenchError::Syntax {
                    line: gate.line,
                    message: format!("unknown net `{a}`"),
                })
            })
            .collect::<Result<_, _>>()?;
        let kind = match gate.func.as_str() {
            "AND" => GateKind::And,
            "OR" => GateKind::Or,
            "NAND" => GateKind::Nand,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "NOT" | "INV" => GateKind::Not,
            "BUF" | "BUFF" => GateKind::Buf,
            "DFF" | "DFF0" | "DFF1" => {
                if args.len() != 1 {
                    return Err(BenchError::Syntax {
                        line: gate.line,
                        message: "DFF takes exactly one argument".to_string(),
                    });
                }
                nl.connect_dff(out_id, args[0]);
                continue;
            }
            "CONST0" | "CONST1" => continue,
            other => {
                return Err(BenchError::Syntax {
                    line: gate.line,
                    message: format!("unknown function `{other}`"),
                });
            }
        };
        resolved.push((out_id, kind, args));
    }
    // Rewrite placeholder gates with their real kind and inputs. The
    // rebuild inserts nets in the same order, so ids are preserved and
    // forward references remain valid as-is.
    let mut rebuilt = Netlist::new(name);
    for net in nl.nets() {
        let name = nl.net_name(net).to_string();
        let new = match nl.node(net) {
            crate::netlist::Node::Input => rebuilt.add_input(name),
            crate::netlist::Node::Const(v) => rebuilt.add_const(name, *v),
            crate::netlist::Node::Dff { init, .. } => rebuilt.add_dff(name, *init),
            crate::netlist::Node::Gate { .. } => {
                let (_, kind, args) = resolved
                    .iter()
                    .find(|(o, _, _)| *o == net)
                    .expect("placeholder gate must be resolved");
                rebuilt.add_gate(name, *kind, args.clone())
            }
        };
        debug_assert_eq!(new, net, "rebuild must preserve net ids");
    }
    for net in nl.nets() {
        if let crate::netlist::Node::Dff { d, .. } = nl.node(net) {
            rebuilt.connect_dff(net, *d);
        }
    }
    for output in &outputs {
        let id = ids.get(output).ok_or(BenchError::Syntax {
            line: 0,
            message: format!("OUTPUT names unknown net `{output}`"),
        })?;
        rebuilt.mark_output(*id);
    }
    Ok(rebuilt.freeze()?)
}

fn parse_paren_arg(rest: &str) -> Option<String> {
    let rest = rest.trim();
    let inner = rest.strip_prefix('(')?.strip_suffix(')')?;
    let name = inner.trim();
    if name.is_empty() {
        None
    } else {
        Some(name.to_string())
    }
}

/// Renders a netlist in `.bench` format.
///
/// The output parses back ([`parse_bench`]) to an equivalent circuit.
pub fn write_bench(nl: &Netlist) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {}", nl.name());
    let _ = writeln!(
        out,
        "# {} inputs, {} outputs, {} gates, {} flops",
        nl.inputs().len(),
        nl.outputs().len(),
        nl.gate_count(),
        nl.dff_count()
    );
    for &input in nl.inputs() {
        let _ = writeln!(out, "INPUT({})", nl.net_name(input));
    }
    for &output in nl.outputs() {
        let _ = writeln!(out, "OUTPUT({})", nl.net_name(output));
    }
    for net in nl.nets() {
        match nl.node(net) {
            crate::netlist::Node::Input => {}
            crate::netlist::Node::Const(v) => {
                let _ = writeln!(
                    out,
                    "{} = CONST{}()",
                    nl.net_name(net),
                    if *v { 1 } else { 0 }
                );
            }
            crate::netlist::Node::Dff { d, init } => {
                // Extension: DFF1 carries a power-on value of 1 (plain
                // DFF stays compatible with historical readers).
                let func = if *init { "DFF1" } else { "DFF" };
                let _ = writeln!(out, "{} = {}({})", nl.net_name(net), func, nl.net_name(*d));
            }
            crate::netlist::Node::Gate { kind, inputs } => {
                let args: Vec<&str> = inputs.iter().map(|&i| nl.net_name(i)).collect();
                let _ = writeln!(
                    out,
                    "{} = {}({})",
                    nl.net_name(net),
                    kind.bench_name(),
                    args.join(", ")
                );
            }
        }
    }
    out
}

/// The classic ISCAS'85 c17 netlist (6 NAND gates) in `.bench` format.
///
/// The smallest historical benchmark; used pervasively in tests and
/// examples across the workspace.
pub const C17: &str = "
# c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_c17() {
        let nl = parse_bench(C17, "c17").unwrap();
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.gate_count(), 6);
        assert!(nl.is_combinational());
        assert_eq!(nl.depth(), 3);
    }

    #[test]
    fn roundtrips_c17() {
        let nl = parse_bench(C17, "c17").unwrap();
        let text = write_bench(&nl);
        let nl2 = parse_bench(&text, "c17").unwrap();
        assert_eq!(nl.gate_count(), nl2.gate_count());
        assert_eq!(nl.inputs().len(), nl2.inputs().len());
        assert_eq!(nl.outputs().len(), nl2.outputs().len());
        // Same evaluation order structure.
        assert_eq!(nl.depth(), nl2.depth());
    }

    #[test]
    fn parses_sequential_with_forward_reference() {
        let src = "
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(q, en)
";
        let nl = parse_bench(src, "toggle").unwrap();
        assert_eq!(nl.dff_count(), 1);
        assert!(!nl.is_combinational());
        let text = write_bench(&nl);
        let nl2 = parse_bench(&text, "toggle").unwrap();
        assert_eq!(nl2.dff_count(), 1);
    }

    #[test]
    fn dff_init_survives_roundtrip() {
        let mut nl = crate::netlist::Netlist::new("init");
        let en = nl.add_input("en");
        let q1 = nl.add_dff("q1", true);
        let q0 = nl.add_dff("q0", false);
        let d = nl.add_gate("d", crate::netlist::GateKind::Xor, vec![q1, en]);
        nl.connect_dff(q1, d);
        nl.connect_dff(q0, d);
        nl.mark_output(q1);
        nl.mark_output(q0);
        let nl = nl.freeze().unwrap();
        let text = write_bench(&nl);
        assert!(text.contains("DFF1("), "{text}");
        let reparsed = parse_bench(&text, "init").unwrap();
        let q1r = reparsed.net_by_name("q1").unwrap();
        let q0r = reparsed.net_by_name("q0").unwrap();
        assert!(matches!(
            reparsed.node(q1r),
            crate::netlist::Node::Dff { init: true, .. }
        ));
        assert!(matches!(
            reparsed.node(q0r),
            crate::netlist::Node::Dff { init: false, .. }
        ));
    }

    #[test]
    fn parses_constants_and_buffers() {
        let src = "
INPUT(a)
OUTPUT(y)
one = CONST1()
b = BUFF(a)
y = AND(b, one)
";
        let nl = parse_bench(src, "k").unwrap();
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.net_count(), 4);
    }

    #[test]
    fn rejects_unknown_function() {
        let err = parse_bench("INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n", "x").unwrap_err();
        assert!(matches!(err, BenchError::Syntax { .. }));
        assert!(err.to_string().contains("FROB"));
    }

    #[test]
    fn rejects_unknown_net() {
        let err = parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, zz)\n", "x").unwrap_err();
        assert!(err.to_string().contains("zz"));
    }

    #[test]
    fn rejects_unknown_output() {
        let err = parse_bench("INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n", "x").unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_bench("INPUT a\n", "x").is_err());
        assert!(parse_bench("wibble\n", "x").is_err());
        assert!(parse_bench("y = AND(a", "x").is_err());
        assert!(parse_bench("INPUT(a)\nq = DFF(a, a)\nOUTPUT(q)\n", "x").is_err());
        // `)` before `(`, and a net driven twice: line-numbered syntax
        // errors, not panics.
        assert_eq!(
            parse_bench("INPUT(a)\ny = )AND(a\n", "x").unwrap_err(),
            BenchError::Syntax {
                line: 2,
                message: "missing `)`".to_string()
            }
        );
        assert_eq!(
            parse_bench(
                "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n",
                "x"
            )
            .unwrap_err(),
            BenchError::Syntax {
                line: 5,
                message: "net `y` is defined twice".to_string()
            }
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let nl = parse_bench(
            "# header\n\nINPUT(a)  # trailing\nOUTPUT(y)\ny = NOT(a)\n",
            "c",
        )
        .unwrap();
        assert_eq!(nl.gate_count(), 1);
    }
}
