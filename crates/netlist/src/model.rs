//! The structural netlist model.

use std::collections::HashMap;
use std::fmt;

use crate::error::NetlistError;
use crate::gate::GateKind;

/// Maximum number of gates the verifier's bitset state supports.
pub(crate) const MAX_GATES: usize = 128;

/// Index of a net (wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
pub(crate) struct GateData {
    pub(crate) kind: GateKind,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
    /// Complementary rail (RS flip-flops only): always `!output`, switching
    /// atomically with it — the paper treats latches as internally
    /// hazard-free elements.
    pub(crate) comp_output: Option<NetId>,
    /// Sum-of-products for [`GateKind::Complex`] gates: `(care, value)`
    /// masks over the input positions (plus the feedback position, if
    /// any, as the highest bit used).
    pub(crate) sop: Option<Vec<(u64, u64)>>,
}

/// A gate-level circuit: named nets, primary inputs, gates and bindings
/// from specification signal names to implementing nets.
///
/// # Example
///
/// ```
/// use simc_netlist::Netlist;
///
/// # fn main() -> Result<(), simc_netlist::NetlistError> {
/// let mut nl = Netlist::new();
/// let a = nl.add_input("a")?;
/// let b = nl.add_input("b")?;
/// // c = latch(set = a·b, reset = ā·b̄), a Muller C-element
/// let set = nl.add_and("set_c", &[(a, true), (b, true)])?;
/// let reset = nl.add_and("reset_c", &[(a, false), (b, false)])?;
/// let c = nl.add_c_element("c", set, reset, false)?;
/// nl.bind_output("c", c)?;
/// assert_eq!(nl.gate_count(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    net_names: Vec<String>,
    by_name: HashMap<String, NetId>,
    gates: Vec<GateData>,
    driver: Vec<Option<GateId>>,
    inputs: Vec<NetId>,
    /// spec signal name → implementing net
    outputs: Vec<(String, NetId)>,
    /// Initial value per net (inputs overridden at verify time).
    init: Vec<bool>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// The primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The output bindings: `(spec signal name, net)`.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// The name of a net.
    pub fn net_name(&self, n: NetId) -> &str {
        &self.net_names[n.index()]
    }

    /// Looks a net up by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// The gate driving `n`, if any.
    pub fn driver(&self, n: NetId) -> Option<GateId> {
        self.driver[n.index()]
    }

    /// The kind of gate `g`.
    pub fn gate_kind(&self, g: GateId) -> GateKind {
        self.gates[g.index()].kind
    }

    /// The input nets of gate `g`.
    pub fn gate_inputs(&self, g: GateId) -> &[NetId] {
        &self.gates[g.index()].inputs
    }

    /// The output net of gate `g`.
    pub fn gate_output(&self, g: GateId) -> NetId {
        self.gates[g.index()].output
    }

    /// All gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(|i| GateId(i as u32))
    }

    /// All net ids, in declaration order.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.net_names.len()).map(|i| NetId(i as u32))
    }

    /// The declared initial value of a net.
    pub fn initial_value(&self, n: NetId) -> bool {
        self.init[n.index()]
    }

    /// Sets the initial value of a net (inputs and latch outputs;
    /// combinational outputs are restabilized by the verifier).
    pub fn set_initial_value(&mut self, n: NetId, value: bool) {
        self.init[n.index()] = value;
    }

    /// Declares a primary input net.
    ///
    /// # Errors
    ///
    /// Fails on duplicate net names.
    pub fn add_input(&mut self, name: &str) -> Result<NetId, NetlistError> {
        let id = self.add_net(name)?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Creates an undriven, non-input net (to be driven by a gate later).
    ///
    /// # Errors
    ///
    /// Fails on duplicate net names.
    pub fn add_net(&mut self, name: &str) -> Result<NetId, NetlistError> {
        if self.by_name.contains_key(name) {
            return Err(NetlistError::DuplicateNet(name.to_string()));
        }
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        self.driver.push(None);
        self.init.push(false);
        Ok(id)
    }

    /// Adds an AND gate over `(net, polarity)` inputs (`false` = inverted
    /// bubble) driving a fresh net named `name`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or zero inputs.
    pub fn add_and(&mut self, name: &str, inputs: &[(NetId, bool)]) -> Result<NetId, NetlistError> {
        self.add_logic(name, inputs, true)
    }

    /// Adds an OR gate over `(net, polarity)` inputs driving a fresh net.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or zero inputs.
    pub fn add_or(&mut self, name: &str, inputs: &[(NetId, bool)]) -> Result<NetId, NetlistError> {
        self.add_logic(name, inputs, false)
    }

    fn add_logic(
        &mut self,
        name: &str,
        inputs: &[(NetId, bool)],
        is_and: bool,
    ) -> Result<NetId, NetlistError> {
        if inputs.is_empty() {
            return Err(NetlistError::BadArity {
                gate: name.to_string(),
                got: 0,
                expected: "at least 1",
            });
        }
        let out = self.add_net(name)?;
        let mut inverted = 0u64;
        let mut nets = Vec::with_capacity(inputs.len());
        for (i, &(net, polarity)) in inputs.iter().enumerate() {
            if !polarity {
                inverted |= 1 << i;
            }
            nets.push(net);
        }
        let kind = if is_and {
            GateKind::And { inverted }
        } else {
            GateKind::Or { inverted }
        };
        self.attach_gate(kind, nets, out)?;
        Ok(out)
    }

    /// Adds an inverter driving a fresh net.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names.
    pub fn add_not(&mut self, name: &str, input: NetId) -> Result<NetId, NetlistError> {
        let out = self.add_net(name)?;
        self.attach_gate(GateKind::Not, vec![input], out)?;
        Ok(out)
    }

    /// Adds a buffer (explicit wire delay) driving a fresh net.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names.
    pub fn add_buf(&mut self, name: &str, input: NetId) -> Result<NetId, NetlistError> {
        let out = self.add_net(name)?;
        self.attach_gate(GateKind::Buf, vec![input], out)?;
        Ok(out)
    }

    /// Adds a Muller C-element used as set/reset memory with the given
    /// initial value.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names.
    pub fn add_c_element(
        &mut self,
        name: &str,
        set: NetId,
        reset: NetId,
        init: bool,
    ) -> Result<NetId, NetlistError> {
        let out = self.add_net(name)?;
        self.attach_gate(GateKind::CElement { inverted: 0 }, vec![set, reset], out)?;
        self.init[out.index()] = init;
        Ok(out)
    }

    /// Adds a NAND gate over `(net, polarity)` inputs driving a fresh net.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or zero inputs.
    pub fn add_nand(&mut self, name: &str, inputs: &[(NetId, bool)]) -> Result<NetId, NetlistError> {
        self.add_negated(name, inputs, true)
    }

    /// Adds a NOR gate over `(net, polarity)` inputs driving a fresh net.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or zero inputs.
    pub fn add_nor(&mut self, name: &str, inputs: &[(NetId, bool)]) -> Result<NetId, NetlistError> {
        self.add_negated(name, inputs, false)
    }

    fn add_negated(
        &mut self,
        name: &str,
        inputs: &[(NetId, bool)],
        is_nand: bool,
    ) -> Result<NetId, NetlistError> {
        if inputs.is_empty() {
            return Err(NetlistError::BadArity {
                gate: name.to_string(),
                got: 0,
                expected: "at least 1",
            });
        }
        let out = self.add_net(name)?;
        let mut inverted = 0u64;
        let mut nets = Vec::with_capacity(inputs.len());
        for (i, &(net, polarity)) in inputs.iter().enumerate() {
            if !polarity {
                inverted |= 1 << i;
            }
            nets.push(net);
        }
        let kind = if is_nand {
            GateKind::Nand { inverted }
        } else {
            GateKind::Nor { inverted }
        };
        self.attach_gate(kind, nets, out)?;
        Ok(out)
    }

    /// Adds an RS flip-flop as one atomic memory element with dual-rail
    /// outputs `(q, q̄)`. `set` and `reset` are active-high; `init` is Q's
    /// initial value. The rails switch together — the paper's
    /// implementation structures treat latches as internally hazard-free
    /// primitives.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names.
    pub fn add_rs_latch(
        &mut self,
        name: &str,
        set: NetId,
        reset: NetId,
        init: bool,
    ) -> Result<(NetId, NetId), NetlistError> {
        let q = self.add_net(name)?;
        let qn = self.add_net(&format!("{name}_n"))?;
        let gate = self.attach_gate(GateKind::CElement { inverted: 0 }, vec![set, reset], q)?;
        self.gates[gate.index()].comp_output = Some(qn);
        self.driver[qn.index()] = Some(gate);
        self.init[q.index()] = init;
        self.init[qn.index()] = !init;
        Ok((q, qn))
    }

    /// The complementary output net of gate `g`, if it is an RS flip-flop.
    pub fn gate_comp_output(&self, g: GateId) -> Option<NetId> {
        self.gates[g.index()].comp_output
    }

    /// The stored sum-of-products of a [`GateKind::Complex`] gate.
    pub fn gate_sop(&self, g: GateId) -> Option<&[(u64, u64)]> {
        self.gates[g.index()].sop.as_deref()
    }

    /// Evaluates gate `g`'s target value from explicit input values and
    /// (for sequential gates) the current output — the single entry point
    /// that also handles [`GateKind::Complex`] gates' stored SOPs.
    pub fn eval_gate(&self, g: GateId, inputs: &[bool], current: bool) -> bool {
        match self.gates[g.index()].kind {
            GateKind::Complex { feedback } => {
                let sop = self.gates[g.index()]
                    .sop
                    .as_ref()
                    .expect("complex gate carries its SOP");
                let mut bits = 0u64;
                for (i, &v) in inputs.iter().enumerate() {
                    if v {
                        bits |= 1 << i;
                    }
                }
                if feedback && current {
                    bits |= 1 << inputs.len();
                }
                sop.iter().any(|&(care, value)| bits & care == value)
            }
            kind => kind.eval(inputs, current),
        }
    }

    /// Adds an atomic complex gate computing the given sum-of-products
    /// over `inputs` (masks index input positions; with `feedback`, the
    /// position `inputs.len()` refers to the gate's own output). `init` is
    /// the initial output value for feedback gates.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or zero inputs.
    pub fn add_complex(
        &mut self,
        name: &str,
        inputs: &[NetId],
        sop: &[(u64, u64)],
        feedback: bool,
        init: bool,
    ) -> Result<NetId, NetlistError> {
        if inputs.is_empty() {
            return Err(NetlistError::BadArity {
                gate: name.to_string(),
                got: 0,
                expected: "at least 1",
            });
        }
        let out = self.add_net(name)?;
        let gate =
            self.attach_gate(GateKind::Complex { feedback }, inputs.to_vec(), out)?;
        self.gates[gate.index()].sop = Some(sop.to_vec());
        self.init[out.index()] = init;
        Ok(out)
    }

    /// [`Netlist::add_complex`] driving a *pre-created* net.
    ///
    /// # Errors
    ///
    /// Fails if `out` is already driven or is a primary input.
    pub fn drive_complex(
        &mut self,
        out: NetId,
        inputs: &[NetId],
        sop: &[(u64, u64)],
        feedback: bool,
        init: bool,
    ) -> Result<(), NetlistError> {
        let gate =
            self.attach_gate(GateKind::Complex { feedback }, inputs.to_vec(), out)?;
        self.gates[gate.index()].sop = Some(sop.to_vec());
        self.init[out.index()] = init;
        Ok(())
    }

    /// Attaches a C-element driving the *pre-created* net `out` (used when
    /// latch outputs must exist before their excitation logic is built).
    ///
    /// # Errors
    ///
    /// Fails if `out` is already driven or is a primary input.
    pub fn drive_c_element(
        &mut self,
        out: NetId,
        set: NetId,
        reset: NetId,
        init: bool,
    ) -> Result<(), NetlistError> {
        self.drive_c_element_with(out, (set, true), (reset, true), init)
    }

    /// [`Netlist::drive_c_element`] with explicit input polarities
    /// (`false` = bundled inversion bubble): the degenerate single-literal
    /// excitation functions of the paper connect literals *directly* to
    /// the latch, inverse literals through a bundled input inversion.
    ///
    /// # Errors
    ///
    /// Fails if `out` is already driven or is a primary input.
    pub fn drive_c_element_with(
        &mut self,
        out: NetId,
        set: (NetId, bool),
        reset: (NetId, bool),
        init: bool,
    ) -> Result<(), NetlistError> {
        let mut inverted = 0u64;
        if !set.1 {
            inverted |= 1;
        }
        if !reset.1 {
            inverted |= 2;
        }
        self.attach_gate(GateKind::CElement { inverted }, vec![set.0, reset.0], out)?;
        self.init[out.index()] = init;
        Ok(())
    }

    /// Attaches an RS flip-flop driving the pre-created rails `q` and `qn`.
    ///
    /// # Errors
    ///
    /// Fails if `q` or `qn` is already driven or is a primary input.
    pub fn drive_rs_latch(
        &mut self,
        q: NetId,
        qn: NetId,
        set: NetId,
        reset: NetId,
        init: bool,
    ) -> Result<(), NetlistError> {
        self.drive_rs_latch_with(q, qn, (set, true), (reset, true), init)
    }

    /// [`Netlist::drive_rs_latch`] with explicit input polarities
    /// (`false` = bundled inversion bubble).
    ///
    /// # Errors
    ///
    /// Fails if `q` or `qn` is already driven or is a primary input.
    pub fn drive_rs_latch_with(
        &mut self,
        q: NetId,
        qn: NetId,
        set: (NetId, bool),
        reset: (NetId, bool),
        init: bool,
    ) -> Result<(), NetlistError> {
        if self.inputs.contains(&qn) {
            return Err(NetlistError::DrivenInput(self.net_name(qn).to_string()));
        }
        if self.driver[qn.index()].is_some() {
            return Err(NetlistError::MultipleDrivers(self.net_name(qn).to_string()));
        }
        let mut inverted = 0u64;
        if !set.1 {
            inverted |= 1;
        }
        if !reset.1 {
            inverted |= 2;
        }
        let gate =
            self.attach_gate(GateKind::CElement { inverted }, vec![set.0, reset.0], q)?;
        self.gates[gate.index()].comp_output = Some(qn);
        self.driver[qn.index()] = Some(gate);
        self.init[q.index()] = init;
        self.init[qn.index()] = !init;
        Ok(())
    }

    /// Binds a spec signal name to the net implementing it.
    ///
    /// # Errors
    ///
    /// Fails if the net does not exist.
    pub fn bind_output(&mut self, signal: &str, net: NetId) -> Result<(), NetlistError> {
        if net.index() >= self.net_count() {
            return Err(NetlistError::UnknownNet(format!("net #{}", net.index())));
        }
        self.outputs.push((signal.to_string(), net));
        Ok(())
    }

    /// Attaches a gate of an explicit [`GateKind`] driving the
    /// *pre-created* net `out` — the general form behind the `drive_*`
    /// helpers, used by netlist readers (EDIF) that must reproduce gates
    /// in their original order against nets created up front.
    ///
    /// [`GateKind::Complex`] gates carry a stored SOP, and RS flip-flops
    /// a complementary rail; build those through
    /// [`Netlist::drive_complex`] / [`Netlist::drive_rs_latch_with`].
    /// Initial values are *not* touched; set them afterwards with
    /// [`Netlist::set_initial_value`].
    ///
    /// # Errors
    ///
    /// Fails if `out` is already driven or is a primary input, on zero
    /// inputs, on the wrong arity for the kind, or for
    /// [`GateKind::Complex`].
    pub fn drive_gate(
        &mut self,
        out: NetId,
        kind: GateKind,
        inputs: &[NetId],
    ) -> Result<GateId, NetlistError> {
        if let Some(n) =
            std::iter::once(&out).chain(inputs).find(|n| n.index() >= self.net_count())
        {
            return Err(NetlistError::UnknownNet(format!("net #{}", n.index())));
        }
        let expected: Option<(usize, &'static str)> = match kind {
            GateKind::Not | GateKind::Buf => Some((1, "exactly 1")),
            GateKind::CElement { .. } => Some((2, "exactly 2 (set, reset)")),
            GateKind::Complex { .. } => {
                return Err(NetlistError::BadArity {
                    gate: format!("{} driving `{}`", kind.name(), self.net_name(out)),
                    got: inputs.len(),
                    expected: "a stored SOP: use drive_complex",
                })
            }
            GateKind::And { .. }
            | GateKind::Or { .. }
            | GateKind::Nand { .. }
            | GateKind::Nor { .. } => None,
        };
        if let Some((arity, expected)) = expected {
            if inputs.len() != arity {
                return Err(NetlistError::BadArity {
                    gate: format!("{} driving `{}`", kind.name(), self.net_name(out)),
                    got: inputs.len(),
                    expected,
                });
            }
        } else if inputs.is_empty() {
            return Err(NetlistError::BadArity {
                gate: format!("{} driving `{}`", kind.name(), self.net_name(out)),
                got: 0,
                expected: "at least 1",
            });
        }
        self.attach_gate(kind, inputs.to_vec(), out)
    }

    fn attach_gate(
        &mut self,
        kind: GateKind,
        inputs: Vec<NetId>,
        output: NetId,
    ) -> Result<GateId, NetlistError> {
        if self.gates.len() >= MAX_GATES {
            return Err(NetlistError::TooManyGates {
                got: self.gates.len() + 1,
                max: MAX_GATES,
            });
        }
        if self.inputs.contains(&output) {
            return Err(NetlistError::DrivenInput(self.net_name(output).to_string()));
        }
        if self.driver[output.index()].is_some() {
            return Err(NetlistError::MultipleDrivers(self.net_name(output).to_string()));
        }
        let id = GateId(self.gates.len() as u32);
        self.gates.push(GateData { kind, inputs, output, comp_output: None, sop: None });
        self.driver[output.index()] = Some(id);
        Ok(id)
    }

    /// Stabilizes combinational gate outputs from the current initial
    /// values of inputs and latches, returning the full initial net
    /// valuation.
    ///
    /// # Errors
    ///
    /// Fails with [`NetlistError::UnstableInit`] if values do not settle
    /// (a combinational cycle).
    pub fn stabilized_initial_values(&self) -> Result<Vec<bool>, NetlistError> {
        let mut values = self.init.clone();
        for _ in 0..=self.gates.len() + 1 {
            let mut changed = false;
            for (gi, g) in self.gates.iter().enumerate() {
                if g.kind.is_sequential() {
                    if let Some(comp) = g.comp_output {
                        values[comp.index()] = !values[g.output.index()];
                    }
                    continue; // latches keep their declared init
                }
                let ins: Vec<bool> = g.inputs.iter().map(|n| values[n.index()]).collect();
                let v = self.eval_gate(
                    GateId(gi as u32),
                    &ins,
                    values[g.output.index()],
                );
                if values[g.output.index()] != v {
                    values[g.output.index()] = v;
                    changed = true;
                }
            }
            if !changed {
                return Ok(values);
            }
        }
        Err(NetlistError::UnstableInit)
    }

    /// Rebuilds the netlist with every AND/OR/NAND/NOR gate of more than
    /// `max_fanin` inputs split into a balanced tree of `max_fanin`-input
    /// gates (technology constraint of a basic-gate library).
    ///
    /// The paper's hazard-freedom theorems cover the flat two-level
    /// structure; decomposition introduces internal nodes whose
    /// acknowledgement is *not* guaranteed — re-verify the result (see the
    /// `ablation` bench).
    ///
    /// # Errors
    ///
    /// Fails only on internal wiring errors.
    ///
    /// # Panics
    ///
    /// Panics if `max_fanin < 2`.
    pub fn decomposed(&self, max_fanin: usize) -> Result<Netlist, NetlistError> {
        assert!(max_fanin >= 2, "gates need at least two inputs");
        let mut out = Netlist::new();
        // Recreate every net under its original name, preserving ids'
        // order so inputs/outputs carry over directly.
        let mut map: Vec<NetId> = Vec::with_capacity(self.net_count());
        for i in 0..self.net_count() {
            let old = NetId(i as u32);
            let new = if self.inputs.contains(&old) {
                out.add_input(self.net_name(old))?
            } else {
                out.add_net(self.net_name(old))?
            };
            out.init[new.index()] = self.init[old.index()];
            map.push(new);
        }
        let mut fresh = 0usize;
        for g in self.gate_ids() {
            let kind = self.gate_kind(g);
            let inputs: Vec<NetId> = self.gate_inputs(g).iter().map(|&n| map[n.index()]).collect();
            let output = map[self.gate_output(g).index()];
            match kind {
                GateKind::And { inverted } | GateKind::Nand { inverted }
                    if inputs.len() > max_fanin =>
                {
                    let negated = matches!(kind, GateKind::Nand { .. });
                    let top = out.tree(&inputs, inverted, max_fanin, true, &mut fresh)?;
                    let top_kind = if negated {
                        GateKind::Nand { inverted: 0 }
                    } else {
                        GateKind::And { inverted: 0 }
                    };
                    out.attach_gate(top_kind, top, output)?;
                }
                GateKind::Or { inverted } | GateKind::Nor { inverted }
                    if inputs.len() > max_fanin =>
                {
                    let negated = matches!(kind, GateKind::Nor { .. });
                    let top = out.tree(&inputs, inverted, max_fanin, false, &mut fresh)?;
                    let top_kind = if negated {
                        GateKind::Nor { inverted: 0 }
                    } else {
                        GateKind::Or { inverted: 0 }
                    };
                    out.attach_gate(top_kind, top, output)?;
                }
                _ => {
                    let gate = out.attach_gate(kind, inputs, output)?;
                    out.gates[gate.index()].sop = self.gates[g.index()].sop.clone();
                    if let Some(comp) = self.gate_comp_output(g) {
                        let comp_new = map[comp.index()];
                        out.gates[gate.index()].comp_output = Some(comp_new);
                        out.driver[comp_new.index()] = Some(gate);
                    }
                }
            }
        }
        for (signal, net) in &self.outputs {
            out.bind_output(signal, map[net.index()])?;
        }
        Ok(out)
    }

    /// Splits `inputs` (with leaf inversion bubbles) into subtrees of at
    /// most `max_fanin` nets and returns the top-level operand list.
    fn tree(
        &mut self,
        inputs: &[NetId],
        inverted: u64,
        max_fanin: usize,
        is_and: bool,
        fresh: &mut usize,
    ) -> Result<Vec<NetId>, NetlistError> {
        let mut level: Vec<(NetId, bool)> = inputs
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, inverted >> i & 1 == 1))
            .collect();
        while level.len() > max_fanin {
            let mut next = Vec::with_capacity(level.len() / max_fanin + 1);
            for chunk in level.chunks(max_fanin) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                    continue;
                }
                let mut mask = 0u64;
                let nets: Vec<NetId> = chunk
                    .iter()
                    .enumerate()
                    .map(|(i, &(n, inv))| {
                        if inv {
                            mask |= 1 << i;
                        }
                        n
                    })
                    .collect();
                let name = format!("dec{}", *fresh);
                *fresh += 1;
                let net = self.add_net(&name)?;
                let kind = if is_and {
                    GateKind::And { inverted: mask }
                } else {
                    GateKind::Or { inverted: mask }
                };
                self.attach_gate(kind, nets, net)?;
                next.push((net, false));
            }
            level = next;
        }
        // Top-level operands: fold residual bubbles into the top gate via
        // dedicated 1-input gates only when a bubble remains.
        let mut top = Vec::with_capacity(level.len());
        for (net, inv) in level {
            if inv {
                let name = format!("dec{}", *fresh);
                *fresh += 1;
                let inverted_net = self.add_net(&name)?;
                self.attach_gate(GateKind::Not, vec![net], inverted_net)?;
                top.push(inverted_net);
            } else {
                top.push(net);
            }
        }
        Ok(top)
    }

    /// Exports the netlist in Graphviz `dot` format: boxes for gates,
    /// ovals for primary inputs, dashed edges for inverted connections.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph netlist {\n  rankdir=LR;\n");
        for &input in &self.inputs {
            out.push_str(&format!(
                "  n{} [label=\"{}\", shape=oval];\n",
                input.index(),
                self.net_name(input)
            ));
        }
        for g in self.gate_ids() {
            let output = self.gate_output(g);
            out.push_str(&format!(
                "  n{} [label=\"{}\\n{}\", shape=box];\n",
                output.index(),
                self.net_name(output),
                self.gate_kind(g).name()
            ));
            let inverted = match self.gate_kind(g) {
                GateKind::And { inverted }
                | GateKind::Or { inverted }
                | GateKind::Nand { inverted }
                | GateKind::Nor { inverted }
                | GateKind::CElement { inverted } => inverted,
                GateKind::Not => 1,
                GateKind::Buf | GateKind::Complex { .. } => 0,
            };
            for (i, &input) in self.gate_inputs(g).iter().enumerate() {
                let style = if inverted >> i & 1 == 1 { " [style=dashed]" } else { "" };
                out.push_str(&format!(
                    "  n{} -> n{}{};\n",
                    input.index(),
                    output.index(),
                    style
                ));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Gate and literal statistics: `(ands, ors, latch rails, others,
    /// total input literals)`.
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats::default();
        for g in &self.gates {
            match g.kind {
                GateKind::And { .. } | GateKind::Nand { .. } => s.and_gates += 1,
                GateKind::Or { .. } | GateKind::Nor { .. } => s.or_gates += 1,
                GateKind::CElement { .. } => s.latch_rails += 1,
                GateKind::Complex { .. } | GateKind::Not | GateKind::Buf => {
                    s.other_gates += 1
                }
            }
            s.literals += g.inputs.len();
        }
        s
    }
}

/// Size statistics for a netlist (area proxies used in the experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetlistStats {
    /// Number of AND gates.
    pub and_gates: usize,
    /// Number of OR gates.
    pub or_gates: usize,
    /// Number of latch rails (a C-element is one rail, an RS latch two).
    pub latch_rails: usize,
    /// Inverters and buffers.
    pub other_gates: usize,
    /// Total gate-input literals.
    pub literals: usize,
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} AND, {} OR, {} latch rails, {} other, {} literals",
            self.and_gates, self.or_gates, self.latch_rails, self.other_gates, self.literals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_happy_path() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let set = nl.add_and("set", &[(a, true), (b, true)]).unwrap();
        let reset = nl.add_and("reset", &[(a, false), (b, false)]).unwrap();
        let q = nl.add_c_element("c", set, reset, false).unwrap();
        nl.bind_output("c", q).unwrap();
        assert_eq!(nl.gate_count(), 3);
        assert_eq!(nl.net_count(), 5);
        assert_eq!(nl.net_name(q), "c");
        assert_eq!(nl.net_by_name("set"), Some(set));
        assert!(nl.driver(a).is_none());
        assert!(nl.driver(q).is_some());
        let stats = nl.stats();
        assert_eq!(stats.and_gates, 2);
        assert_eq!(stats.latch_rails, 1);
        assert_eq!(stats.literals, 6);
    }

    #[test]
    fn duplicate_and_driven_input_rejected() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a").unwrap();
        assert!(matches!(nl.add_input("a"), Err(NetlistError::DuplicateNet(_))));
        assert!(matches!(
            nl.attach_gate(GateKind::Not, vec![a], a),
            Err(NetlistError::DrivenInput(_))
        ));
    }

    #[test]
    fn zero_input_gate_rejected() {
        let mut nl = Netlist::new();
        assert!(matches!(
            nl.add_and("g", &[]),
            Err(NetlistError::BadArity { .. })
        ));
    }

    #[test]
    fn initial_value_stabilization() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a").unwrap();
        let na = nl.add_not("na", a).unwrap();
        let q = nl.add_c_element("q", a, na, true).unwrap();
        nl.set_initial_value(a, false);
        let values = nl.stabilized_initial_values().unwrap();
        assert!(!values[a.index()]);
        assert!(values[na.index()]); // inverter settles to ¬a = 1
        assert!(values[q.index()]); // latch keeps declared init
    }

    #[test]
    fn combinational_cycle_detected() {
        // A one-inverter ring (x = ¬x) never settles.
        let mut nl = Netlist::new();
        let x = nl.add_net("x").unwrap();
        nl.attach_gate(GateKind::Not, vec![x], x).unwrap();
        assert_eq!(nl.stabilized_initial_values(), Err(NetlistError::UnstableInit));
    }

    #[test]
    fn dot_export_names_everything() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let set = nl.add_and("set", &[(a, true), (b, false)]).unwrap();
        let reset = nl.add_and("reset", &[(a, false), (b, false)]).unwrap();
        let q = nl.add_c_element("q", set, reset, false).unwrap();
        nl.bind_output("q", q).unwrap();
        let dot = nl.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("set"));
        assert!(dot.contains("c-element"));
        assert!(dot.contains("style=dashed"), "inverted inputs marked");
    }

    #[test]
    fn decomposition_bounds_fanin() {
        let mut nl = Netlist::new();
        let ins: Vec<NetId> = (0..5)
            .map(|i| nl.add_input(&format!("i{i}")).unwrap())
            .collect();
        let wide = nl
            .add_and(
                "wide",
                &[
                    (ins[0], true),
                    (ins[1], false),
                    (ins[2], true),
                    (ins[3], true),
                    (ins[4], false),
                ],
            )
            .unwrap();
        let q = nl.add_c_element("q", wide, ins[0], false).unwrap();
        nl.bind_output("q", q).unwrap();
        let small = nl.decomposed(2).unwrap();
        for g in small.gate_ids() {
            assert!(small.gate_inputs(g).len() <= 2, "{:?}", small.gate_kind(g));
        }
        // Same Boolean function: exhaustive check over input assignments.
        for assignment in 0u32..32 {
            let mut a = nl.clone();
            let mut b = small.clone();
            for (i, &net) in ins.iter().enumerate() {
                let v = assignment >> i & 1 == 1;
                a.set_initial_value(net, v);
                let net_b = b.net_by_name(&format!("i{i}")).unwrap();
                b.set_initial_value(net_b, v);
            }
            let va = a.stabilized_initial_values().unwrap();
            let vb = b.stabilized_initial_values().unwrap();
            let wa = va[a.net_by_name("wide").unwrap().index()];
            let wb = vb[b.net_by_name("wide").unwrap().index()];
            assert_eq!(wa, wb, "assignment {assignment:#b}");
        }
    }

    #[test]
    fn decomposition_preserves_small_gates() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let set = nl.add_and("set", &[(a, true), (b, true)]).unwrap();
        let reset = nl.add_and("reset", &[(a, false), (b, false)]).unwrap();
        let q = nl.add_c_element("c", set, reset, false).unwrap();
        nl.bind_output("c", q).unwrap();
        let same = nl.decomposed(2).unwrap();
        assert_eq!(same.gate_count(), nl.gate_count());
        assert_eq!(same.net_count(), nl.net_count());
    }

    #[test]
    fn cross_coupled_inverters_settle() {
        // Two inverters in a loop have a stable point the relaxation finds.
        let mut nl = Netlist::new();
        let x = nl.add_net("x").unwrap();
        let y = nl.add_not("y", x).unwrap();
        nl.attach_gate(GateKind::Not, vec![y], x).unwrap();
        let values = nl.stabilized_initial_values().unwrap();
        assert_ne!(values[x.index()], values[y.index()]);
    }
}
