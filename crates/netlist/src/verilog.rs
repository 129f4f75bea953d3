//! Structural Verilog export.
//!
//! Emits one module per netlist using a small companion library of
//! asynchronous primitives (`simc_celement`, behavioural, plus plain
//! gate-level AND/OR/NAND/NOR/NOT/BUF instances). The output is accepted
//! by standard simulators; C-element initialization uses an `initial`
//! block, as customary for async netlists in simulation flows.

use std::fmt::Write as _;

use crate::gate::GateKind;
use crate::model::{NetId, Netlist};

/// Renders the companion primitive library (include once per design).
pub fn primitive_library() -> String {
    r"// Asynchronous primitive library (simulation model).
module simc_celement (output reg q, output qn, input set, input reset);
  assign qn = ~q;
  always @(set or reset) begin
    if (set & ~reset) q <= 1'b1;
    else if (~set & reset) q <= 1'b0;
  end
endmodule
"
    .to_string()
}

/// Renders `nl` as a structural Verilog module named `name`.
///
/// Primary inputs become module inputs; bound outputs become module
/// outputs; every other net is a wire. Inversion bubbles are expanded
/// into expression-level negations on instance connections (Verilog has
/// no input bubbles), which keeps the gate count identical.
pub fn to_verilog(nl: &Netlist, name: &str) -> String {
    let mut out = String::new();
    let ident = |n: NetId| sanitize(nl.net_name(n));

    let inputs: Vec<String> = nl.inputs().iter().map(|&n| ident(n)).collect();
    let outputs: Vec<String> = nl.outputs().iter().map(|(_, n)| ident(*n)).collect();
    let mut ports = inputs.clone();
    ports.extend(outputs.iter().cloned());

    let _ = writeln!(out, "module {} (", sanitize(name));
    let _ = writeln!(out, "  {}", ports.join(", "));
    let _ = writeln!(out, ");");
    if !inputs.is_empty() {
        let _ = writeln!(out, "  input {};", inputs.join(", "));
    }
    if !outputs.is_empty() {
        let _ = writeln!(out, "  output {};", outputs.join(", "));
    }
    // Wires: every gate output that is not a module output.
    let mut wires = Vec::new();
    for g in nl.gate_ids() {
        let net = nl.gate_output(g);
        let w = ident(net);
        if !outputs.contains(&w) {
            wires.push(w);
        }
        if let Some(comp) = nl.gate_comp_output(g) {
            let w = ident(comp);
            if !outputs.contains(&w) {
                wires.push(w);
            }
        }
    }
    if !wires.is_empty() {
        let _ = writeln!(out, "  wire {};", wires.join(", "));
    }
    let _ = writeln!(out);

    for g in nl.gate_ids() {
        let output = ident(nl.gate_output(g));
        let operand = |i: usize, inverted: u64| {
            let base = ident(nl.gate_inputs(g)[i]);
            if inverted >> i & 1 == 1 {
                format!("~{base}")
            } else {
                base
            }
        };
        match nl.gate_kind(g) {
            GateKind::And { inverted } => {
                let ops: Vec<String> = (0..nl.gate_inputs(g).len())
                    .map(|i| operand(i, inverted))
                    .collect();
                let _ = writeln!(out, "  assign {output} = {};", ops.join(" & "));
            }
            GateKind::Or { inverted } => {
                let ops: Vec<String> = (0..nl.gate_inputs(g).len())
                    .map(|i| operand(i, inverted))
                    .collect();
                let _ = writeln!(out, "  assign {output} = {};", ops.join(" | "));
            }
            GateKind::Nand { inverted } => {
                let ops: Vec<String> = (0..nl.gate_inputs(g).len())
                    .map(|i| operand(i, inverted))
                    .collect();
                let _ = writeln!(out, "  assign {output} = ~({});", ops.join(" & "));
            }
            GateKind::Nor { inverted } => {
                let ops: Vec<String> = (0..nl.gate_inputs(g).len())
                    .map(|i| operand(i, inverted))
                    .collect();
                let _ = writeln!(out, "  assign {output} = ~({});", ops.join(" | "));
            }
            GateKind::Not => {
                let _ = writeln!(out, "  assign {output} = ~{};", operand(0, 0));
            }
            GateKind::Buf => {
                let _ = writeln!(out, "  assign {output} = {};", operand(0, 0));
            }
            GateKind::Complex { feedback } => {
                let sop = nl
                    .gate_sop(g)
                    .expect("complex gate carries its SOP");
                let num_inputs = nl.gate_inputs(g).len();
                let term = |care: u64, value: u64| -> String {
                    let mut lits = Vec::new();
                    for i in 0..=num_inputs {
                        if care >> i & 1 == 0 {
                            continue;
                        }
                        let base = if i == num_inputs {
                            assert!(feedback, "feedback literal without feedback");
                            output.clone()
                        } else {
                            ident(nl.gate_inputs(g)[i])
                        };
                        if value >> i & 1 == 1 {
                            lits.push(base);
                        } else {
                            lits.push(format!("~{base}"));
                        }
                    }
                    if lits.is_empty() {
                        "1'b1".to_string()
                    } else {
                        lits.join(" & ")
                    }
                };
                let terms: Vec<String> =
                    sop.iter().map(|&(c, v)| format!("({})", term(c, v))).collect();
                let _ = writeln!(out, "  assign {output} = {};", terms.join(" | "));
            }
            GateKind::CElement { inverted } => {
                let qn = nl
                    .gate_comp_output(g)
                    .map(&ident)
                    .unwrap_or_else(|| format!("{output}__qn_unused"));
                if nl.gate_comp_output(g).is_none() {
                    let _ = writeln!(out, "  wire {qn};");
                }
                let _ = writeln!(
                    out,
                    "  simc_celement u_{output} (.q({output}), .qn({qn}), .set({}), .reset({}));",
                    operand(0, inverted),
                    operand(1, inverted)
                );
            }
        }
    }

    // Latch initialization for simulation: only C-elements are
    // instantiated as `u_<net>`; feedback complex gates are `assign`s.
    let latch_inits: Vec<String> = nl
        .gate_ids()
        .filter(|&g| matches!(nl.gate_kind(g), GateKind::CElement { .. }))
        .map(|g| {
            format!(
                "    u_{}.q = 1'b{};",
                ident(nl.gate_output(g)),
                u8::from(nl.initial_value(nl.gate_output(g)))
            )
        })
        .collect();
    if !latch_inits.is_empty() {
        let _ = writeln!(out, "\n  initial begin");
        for line in latch_inits {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "  end");
    }
    let _ = writeln!(out, "endmodule");
    out
}

/// Makes a net name a legal Verilog identifier.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, 'n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn celem_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let set = nl.add_and("set_c", &[(a, true), (b, true)]).unwrap();
        let reset = nl.add_and("reset_c", &[(a, false), (b, false)]).unwrap();
        let c = nl.add_c_element("c", set, reset, false).unwrap();
        nl.bind_output("c", c).unwrap();
        nl
    }

    #[test]
    fn emits_module_structure() {
        let v = to_verilog(&celem_netlist(), "celem");
        assert!(v.contains("module celem ("), "{v}");
        assert!(v.contains("input a, b;"), "{v}");
        assert!(v.contains("output c;"), "{v}");
        assert!(v.contains("assign set_c = a & b;"), "{v}");
        assert!(v.contains("assign reset_c = ~a & ~b;"), "{v}");
        assert!(v.contains("simc_celement u_c"), "{v}");
        assert!(v.contains("u_c.q = 1'b0;"), "{v}");
        assert!(v.ends_with("endmodule\n"), "{v}");
    }

    #[test]
    fn library_defines_celement() {
        let lib = primitive_library();
        assert!(lib.contains("module simc_celement"));
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize("S(a)1"), "S_a_1");
        assert_eq!(sanitize("2bad"), "n2bad");
        assert_eq!(sanitize("ok_name"), "ok_name");
    }

    #[test]
    fn initial_block_names_only_instantiated_cells() {
        // A feedback complex gate (q = a·b + q·(a + b)) is an `assign`, so
        // it has no `u_q` instance for the initial block to set.
        let mut nl = Netlist::new();
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let majority = [(0b011, 0b011), (0b101, 0b101), (0b110, 0b110)];
        let q = nl.add_complex("q", &[a, b], &majority, true, false).unwrap();
        nl.bind_output("q", q).unwrap();
        let r = nl.add_c_element("r", a, b, false).unwrap();
        nl.bind_output("r", r).unwrap();
        let v = to_verilog(&nl, "m");
        let instances: Vec<&str> = v
            .lines()
            .filter_map(|l| l.trim().strip_prefix("simc_celement "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let initialised: Vec<&str> =
            v.lines().filter_map(|l| l.trim().split_once(".q = ")).map(|(u, _)| u).collect();
        assert_eq!(instances, ["u_r"], "{v}");
        assert_eq!(initialised, ["u_r"], "{v}");
    }

    #[test]
    fn latch_bubbles_become_negations() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let q_net = nl.add_net("q").unwrap();
        nl.drive_c_element_with(q_net, (a, true), (b, false), false).unwrap();
        nl.bind_output("q", q_net).unwrap();
        let v = to_verilog(&nl, "m");
        assert!(v.contains(".reset(~b)"), "{v}");
    }
}
