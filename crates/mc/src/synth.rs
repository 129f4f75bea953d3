//! Standard C- and RS-implementation synthesis (Section III / Figure 2).
//!
//! Every non-input signal `a` becomes a *signal network*: one AND gate per
//! region cube, an OR gate combining the up-cubes into the up-excitation
//! function `S_a` (and likewise `R_a`), and a C-element (or dual-rail RS
//! flip-flop) restoring the signal. Theorem 3 / Theorem 5 guarantee the
//! result is semi-modular when the covers are monotonous; the paper's
//! degenerate simplifications (single cube → no OR gate; single literal →
//! no AND gate) are applied.

use simc_cube::{Cover, Cube};
use simc_netlist::{NetId, Netlist};
use simc_sg::{Dir, SignalId, SignalKind, StateGraph};

use crate::cover::{FunctionCover, McCheck};
use crate::error::McError;

/// The restoring memory element to target (Figure 2a vs. 2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Standard C-implementation: Muller C-elements; inverse literals are
    /// input bubbles on the AND gates (justified by the paper's
    /// `d_inv^max < D_sn^min` argument).
    CElement,
    /// Standard RS-implementation: dual-rail RS flip-flops; inverse
    /// occurrences of non-input signals use the flip-flops' Q̄ rails, so
    /// only input signals need conversion bubbles.
    RsLatch,
}

impl Target {
    /// The stable name of the target: `c-element` or `rs-latch`. Cache,
    /// flight and memo keys hash these bytes, and `simc batch` and the
    /// `X-Simc-Target` header of `simc serve` spell targets this way.
    pub fn tag(self) -> &'static str {
        match self {
            Target::CElement => "c-element",
            Target::RsLatch => "rs-latch",
        }
    }
}

impl std::str::FromStr for Target {
    /// The diagnostic for an unknown name.
    type Err = String;

    /// Parses a [`Target::tag`].
    fn from_str(tag: &str) -> Result<Target, String> {
        match tag {
            "c-element" => Ok(Target::CElement),
            "rs-latch" => Ok(Target::RsLatch),
            other => Err(format!("unknown target `{other}` (expected `c-element` or `rs-latch`)")),
        }
    }
}

/// One synthesized signal network.
#[derive(Debug, Clone)]
pub struct SignalNetwork {
    /// The implemented signal.
    pub signal: SignalId,
    /// The signal's name in the spec.
    pub name: String,
    /// Cover of the up-excitation function `S_a`.
    pub set: FunctionCover,
    /// Cover of the down-excitation function `R_a`.
    pub reset: FunctionCover,
    /// The signal's initial value.
    pub initial: bool,
}

/// A complete synthesized implementation: one [`SignalNetwork`] per
/// non-input signal, plus the target latch style.
#[derive(Debug, Clone)]
pub struct Implementation {
    target: Target,
    signal_names: Vec<String>,
    input_names: Vec<String>,
    non_input_kinds: Vec<(String, bool)>,
    networks: Vec<SignalNetwork>,
}

impl Implementation {
    /// The synthesized signal networks.
    pub fn networks(&self) -> &[SignalNetwork] {
        &self.networks
    }

    /// The latch style.
    pub fn target(&self) -> Target {
        self.target
    }

    /// Renders the implementation in the paper's equation style, e.g.
    ///
    /// ```text
    /// S(d)1 = a b'
    /// S(d)2 = b' c
    /// Sd = S(d)1 + S(d)2
    /// Rd = a' b' c'
    /// d = Sd Rd' + d (Sd + Rd')
    /// ```
    pub fn equations(&self) -> String {
        let names: Vec<&str> = self.signal_names.iter().map(String::as_str).collect();
        let mut out = String::new();
        for nw in &self.networks {
            for (prefix, cover) in [("S", &nw.set), ("R", &nw.reset)] {
                match cover {
                    FunctionCover::SingleLiteral(c) => {
                        out.push_str(&format!("{prefix}{} = {}\n", nw.name, c.render(&names)));
                    }
                    FunctionCover::PerRegion { .. } | FunctionCover::Plain(_) => {
                        let cubes = dedupe(cover.cubes().iter().copied());
                        if cubes.len() == 1 {
                            out.push_str(&format!(
                                "{prefix}{} = {}\n",
                                nw.name,
                                cubes[0].render(&names)
                            ));
                        } else {
                            for (i, c) in cubes.iter().enumerate() {
                                out.push_str(&format!(
                                    "{prefix}({}){} = {}\n",
                                    nw.name,
                                    i + 1,
                                    c.render(&names)
                                ));
                            }
                            let terms: Vec<String> = (1..=cubes.len())
                                .map(|i| format!("{prefix}({}){}", nw.name, i))
                                .collect();
                            out.push_str(&format!(
                                "{prefix}{} = {}\n",
                                nw.name,
                                terms.join(" + ")
                            ));
                        }
                    }
                }
            }
            out.push_str(&format!(
                "{} = S{n} R{n}' + {} (S{n} + R{n}')\n",
                nw.name,
                nw.name,
                n = nw.name
            ));
        }
        out
    }

    /// Total number of product terms (AND gates before simplification).
    pub fn cube_count(&self) -> usize {
        self.networks
            .iter()
            .flat_map(|nw| [&nw.set, &nw.reset])
            .map(|c| dedupe(c.cubes().iter().copied()).len())
            .sum()
    }

    /// Total literal count over all cubes (an area proxy).
    pub fn literal_count(&self) -> u32 {
        self.networks
            .iter()
            .flat_map(|nw| [&nw.set, &nw.reset])
            .flat_map(|c| c.cubes())
            .map(|c| c.literal_count())
            .sum()
    }

    /// Builds the gate-level netlist of the implementation.
    ///
    /// # Errors
    ///
    /// Fails only on internal wiring errors (duplicate names, gate budget).
    pub fn to_netlist(&self) -> Result<Netlist, McError> {
        self.build_netlist(false)
    }

    /// Builds the netlist with every input inversion implemented as a
    /// *separate inverter gate* instead of a bundled bubble — the paper's
    /// circuit `C2`. Under the unbounded delay model this is *not*
    /// speed-independent; the paper argues it is hazard-free whenever
    /// `d_inv^max < D_sn^min`, which the timed simulator
    /// ([`simc_netlist::timed`]) lets you check quantitatively.
    ///
    /// Shared per signal: one inverter per inverted net, reused across
    /// gates.
    ///
    /// # Errors
    ///
    /// Fails only on internal wiring errors (duplicate names, gate budget).
    pub fn to_netlist_with_explicit_inverters(&self) -> Result<Netlist, McError> {
        self.build_netlist(true)
    }

    fn build_netlist(&self, explicit_inverters: bool) -> Result<Netlist, McError> {
        let mut nl = Netlist::new();
        // Primary inputs.
        for name in &self.input_names {
            nl.add_input(name)?;
        }
        // Pre-create latch output nets (and Q̄ rails for the RS target).
        let mut q_nets: Vec<(String, NetId, Option<NetId>, bool)> = Vec::new();
        for (name, init) in &self.non_input_kinds {
            let q = nl.add_net(name)?;
            let qn = match self.target {
                Target::RsLatch => Some(nl.add_net(&format!("{name}_n"))?),
                Target::CElement => None,
            };
            q_nets.push((name.clone(), q, qn, *init));
        }
        let literal_net = |nl: &mut Netlist, sig: usize, positive: bool| -> (NetId, bool) {
            let name = &self.signal_names[sig];
            if self.target == Target::RsLatch && !positive {
                // Prefer the Q̄ rail for inverse non-input literals.
                if let Some(qn) = nl.net_by_name(&format!("{name}_n")) {
                    return (qn, true);
                }
            }
            let net = nl.net_by_name(name).expect("literal net exists");
            if explicit_inverters && !positive {
                // The paper's C2 variant: a shared separate inverter.
                let inv_name = format!("{name}_inv");
                let inv = nl
                    .net_by_name(&inv_name)
                    .unwrap_or_else(|| nl.add_not(&inv_name, net).expect("inverter wires"));
                return (inv, true);
            }
            (net, positive)
        };

        for nw in &self.networks {
            let (_, q, qn, init) = q_nets
                .iter()
                .find(|(n, ..)| *n == nw.name)
                .cloned()
                .expect("latch net pre-created");
            let mut set = self.function_net(&mut nl, &nw.name, "S", &nw.set, &literal_net)?;
            let mut reset = self.function_net(&mut nl, &nw.name, "R", &nw.reset, &literal_net)?;
            if explicit_inverters {
                // C2: latch input bubbles become separate inverters too.
                for input in [&mut set, &mut reset] {
                    if !input.1 {
                        let name = format!("{}_inv", nl.net_name(input.0));
                        let inv = match nl.net_by_name(&name) {
                            Some(n) => n,
                            None => nl.add_not(&name, input.0)?,
                        };
                        *input = (inv, true);
                    }
                }
            }
            match (self.target, qn) {
                (Target::RsLatch, Some(qn)) => {
                    nl.drive_rs_latch_with(q, qn, set, reset, init)?
                }
                _ => nl.drive_c_element_with(q, set, reset, init)?,
            }
            nl.bind_output(&nw.name, q)?;
        }
        Ok(nl)
    }

    /// Wires one excitation function, applying the degenerate
    /// simplifications, and returns the net feeding the latch input with
    /// its polarity (`false` = a bundled inversion bubble at the latch —
    /// the paper's direct connection of an inverse single literal).
    fn function_net(
        &self,
        nl: &mut Netlist,
        signal: &str,
        prefix: &str,
        cover: &FunctionCover,
        literal_net: &dyn Fn(&mut Netlist, usize, bool) -> (NetId, bool),
    ) -> Result<(NetId, bool), McError> {
        let cubes = dedupe(cover.cubes().iter().copied());
        let wire_cube = |nl: &mut Netlist,
                         cube: &Cube,
                         name: &str,
                         allow_inverse: bool|
         -> Result<(NetId, bool), McError> {
            let inputs: Vec<(NetId, bool)> = cube
                .literals()
                .map(|(sig, pol)| literal_net(nl, sig, pol))
                .collect();
            // Single literal: direct connection, no gate — negative
            // polarity becomes a latch input bubble when allowed.
            if inputs.len() == 1 && (inputs[0].1 || allow_inverse) {
                return Ok(inputs[0]);
            }
            Ok((nl.add_and(name, &inputs)?, true))
        };
        match cubes.len() {
            // The synthesis paths always produce at least one cube per
            // excitation function, but `build_from_covers` is public (the
            // fuzzer's fault injection feeds it perturbed covers), so an
            // empty function is a reportable error rather than unreachable.
            0 => Err(McError::DegenerateFunction { signal: signal.to_string() }),
            1 => wire_cube(nl, &cubes[0], &format!("{prefix}_{signal}"), true),
            _ => {
                let mut term_nets = Vec::with_capacity(cubes.len());
                for (i, c) in cubes.iter().enumerate() {
                    let (net, pol) =
                        wire_cube(nl, c, &format!("{prefix}_{signal}_{}", i + 1), false)?;
                    debug_assert!(pol);
                    term_nets.push((net, true));
                }
                Ok((nl.add_or(&format!("{prefix}_{signal}"), &term_nets)?, true))
            }
        }
    }
}

fn dedupe(cubes: impl Iterator<Item = Cube>) -> Vec<Cube> {
    let mut out: Vec<Cube> = Vec::new();
    for c in cubes {
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// Synthesizes the standard implementation of `sg` in the given target
/// style (Section III), requiring the MC requirement to hold.
///
/// # Errors
///
/// Fails if `sg` is not output semi-modular or violates the MC
/// requirement — run [`reduce_to_mc`](crate::assign::reduce_to_mc) first.
pub fn synthesize(sg: &StateGraph, target: Target) -> Result<Implementation, McError> {
    let _span = simc_obs::span("synth");
    if !sg.analysis().is_output_semimodular() {
        return Err(McError::NotOutputSemimodular);
    }
    let check = McCheck::new(sg);
    let report = check.report();
    if !report.satisfied() {
        return Err(McError::NotMonotonous { violations: report.violation_count() });
    }
    build_implementation(sg, &check, target)
}

/// Builds an [`Implementation`] from precomputed function covers; shared
/// with the baseline synthesizer, and public so external harnesses (the
/// fuzzer's fault-injection mode) can rebuild implementations from
/// deliberately perturbed covers.
pub fn build_from_covers(
    sg: &StateGraph,
    covers: Vec<(SignalId, FunctionCover, FunctionCover)>,
    target: Target,
) -> Implementation {
    let signal_names: Vec<String> = sg
        .signal_ids()
        .map(|s| sg.signal(s).name().to_string())
        .collect();
    let input_names: Vec<String> = sg
        .input_signals()
        .iter()
        .map(|&s| sg.signal(s).name().to_string())
        .collect();
    let non_input_kinds: Vec<(String, bool)> = sg
        .non_input_signals()
        .iter()
        .map(|&s| {
            (
                sg.signal(s).name().to_string(),
                sg.code(sg.initial()).value(s),
            )
        })
        .collect();
    let networks = covers
        .into_iter()
        .map(|(signal, set, reset)| SignalNetwork {
            signal,
            name: sg.signal(signal).name().to_string(),
            set,
            reset,
            initial: sg.code(sg.initial()).value(signal),
        })
        .collect();
    Implementation { target, signal_names, input_names, non_input_kinds, networks }
}

fn build_implementation(
    sg: &StateGraph,
    check: &McCheck<'_>,
    target: Target,
) -> Result<Implementation, McError> {
    let mut covers = Vec::new();
    for a in sg.non_input_signals() {
        let set = check
            .function_cover(a, Dir::Rise)
            .map_err(|v| McError::NotMonotonous { violations: v.len() })?;
        let reset = check
            .function_cover(a, Dir::Fall)
            .map_err(|v| McError::NotMonotonous { violations: v.len() })?;
        covers.push((a, set, reset));
    }
    Ok(build_from_covers(sg, covers, target))
}

/// Convenience: a [`Cover`] view of a function (for minimizer interop).
pub fn cover_of(function: &FunctionCover) -> Cover {
    Cover::from_cubes(dedupe(function.cubes().iter().copied()))
}

/// Used by equations/tests: whether a spec signal is synthesized.
pub fn is_synthesized(sg: &StateGraph, sig: SignalId) -> bool {
    sg.signal(sig).kind() != SignalKind::Input
}

#[cfg(test)]
mod tests {
    use super::*;
    use simc_benchmarks::figures;
    use simc_netlist::{verify, VerifyOptions};

    #[test]
    fn c_element_c_implementation() {
        let sg = figures::c_element();
        let implementation = synthesize(&sg, Target::CElement).unwrap();
        let eqs = implementation.equations();
        assert!(eqs.contains("Sc = a b"), "{eqs}");
        assert!(eqs.contains("Rc = a' b'"), "{eqs}");
        assert!(eqs.contains("c = Sc Rc' + c (Sc + Rc')"), "{eqs}");
        let nl = implementation.to_netlist().unwrap();
        let report = verify(&nl, &sg, VerifyOptions::default()).unwrap();
        assert!(report.is_ok(), "{:?}", report.violations);
    }

    #[test]
    fn c_element_rs_implementation() {
        let sg = figures::c_element();
        let implementation = synthesize(&sg, Target::RsLatch).unwrap();
        let nl = implementation.to_netlist().unwrap();
        let report = verify(&nl, &sg, VerifyOptions::default()).unwrap();
        assert!(report.is_ok(), "{:?}", report.violations);
        // The RS netlist has the Q̄ rail available.
        assert!(nl.net_by_name("c_n").is_some());
    }

    #[test]
    fn toggle_degenerates_to_wires() {
        // Sb = a, Rb = a': single literals — for the C target the set side
        // is a direct wire, the reset side one 1-input AND (inverter).
        let sg = figures::toggle();
        let implementation = synthesize(&sg, Target::CElement).unwrap();
        let nl = implementation.to_netlist().unwrap();
        let stats = nl.stats();
        assert_eq!(stats.latch_rails, 1);
        assert!(stats.and_gates <= 1, "{stats}");
        assert_eq!(stats.or_gates, 0);
        let report = verify(&nl, &sg, VerifyOptions::default()).unwrap();
        assert!(report.is_ok(), "{:?}", report.violations);
    }

    #[test]
    fn figure3_synthesizes_and_verifies_hazard_free() {
        // Theorem 3, demonstrated end to end: the MC-reduced Figure 3
        // yields a semi-modular standard C-implementation.
        let sg = figures::figure3();
        let implementation = synthesize(&sg, Target::CElement).unwrap();
        let eqs = implementation.equations();
        // d = x̄ (degenerate direct connection through the latch).
        assert!(eqs.contains("Sd = x'"), "{eqs}");
        let nl = implementation.to_netlist().unwrap();
        let report = verify(&nl, &sg, VerifyOptions::default()).unwrap();
        assert!(
            report.is_ok(),
            "{}",
            report
                .violations
                .iter()
                .map(|v| report.describe(&nl, &sg, v))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn figure3_rs_implementation_verifies() {
        let sg = figures::figure3();
        let implementation = synthesize(&sg, Target::RsLatch).unwrap();
        let nl = implementation.to_netlist().unwrap();
        let report = verify(&nl, &sg, VerifyOptions::default()).unwrap();
        assert!(report.is_ok(), "{:?}", report.violations);
    }

    #[test]
    fn figure1_refuses_synthesis() {
        let sg = figures::figure1();
        let err = synthesize(&sg, Target::CElement).unwrap_err();
        assert!(matches!(err, McError::NotMonotonous { .. }));
    }

    #[test]
    fn explicit_inverters_variant() {
        use simc_netlist::GateKind;
        let sg = figures::figure3();
        let implementation = synthesize(&sg, Target::CElement).unwrap();
        let c1 = implementation.to_netlist().unwrap();
        let c2 = implementation.to_netlist_with_explicit_inverters().unwrap();
        let invs = |nl: &simc_netlist::Netlist| {
            nl.gate_ids()
                .filter(|&g| matches!(nl.gate_kind(g), GateKind::Not))
                .count()
        };
        assert_eq!(invs(&c1), 0, "C1 bundles inversions");
        assert!(invs(&c2) > 0, "C2 has separate inverters");
        assert!(c2.gate_count() > c1.gate_count());
        // Inverters are shared: at most one per inverted net.
        let mut seen = std::collections::HashSet::new();
        for g in c2.gate_ids() {
            if matches!(c2.gate_kind(g), GateKind::Not) {
                let input = c2.gate_inputs(g)[0];
                assert!(seen.insert(input), "duplicate inverter on one net");
            }
        }
    }

    #[test]
    fn rs_target_uses_complement_rails() {
        // Inverse non-input literals use the Q̄ rails: the RS netlist of
        // figure 3 contains no input bubbles on non-input signals' nets
        // beyond the latch wiring.
        let sg = figures::figure3();
        let rs = synthesize(&sg, Target::RsLatch)
            .unwrap()
            .to_netlist()
            .unwrap();
        assert!(rs.net_by_name("x_n").is_some());
        assert!(rs.net_by_name("c_n").is_some());
    }

    #[test]
    fn area_metrics() {
        let sg = figures::c_element();
        let implementation = synthesize(&sg, Target::CElement).unwrap();
        assert_eq!(implementation.cube_count(), 2); // set + reset
        assert_eq!(implementation.literal_count(), 4); // ab + a'b'
    }

    #[test]
    fn target_tags_round_trip() {
        for target in [Target::CElement, Target::RsLatch] {
            assert_eq!(target.tag().parse::<Target>(), Ok(target));
        }
        assert_eq!(
            "nand".parse::<Target>(),
            Err("unknown target `nand` (expected `c-element` or `rs-latch`)".to_string())
        );
    }
}
