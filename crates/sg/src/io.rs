//! State-graph interchange in the SIS/petrify `.sg` format.
//!
//! The format lists explicit transitions between named states:
//!
//! ```text
//! .model example
//! .inputs a
//! .outputs b
//! .state graph
//! s0 a+ s1
//! s1 b+ s2
//! s2 a- s3
//! s3 b- s0
//! .marking {s0}
//! .end
//! ```
//!
//! Binary codes are reconstructed from transition consistency (each `x+`
//! flips signal `x` from 0 to 1), so round trips through
//! [`write_sg`]/[`parse_sg`] are exact.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::error::SgError;
use crate::graph::{SgBuilder, StateGraph, StateId};
use crate::signal::{Dir, SignalId, SignalKind, Transition};
use crate::StateCode;

/// Serializes a state graph in `.sg` format. Signals are declared by
/// kind in id order within each kind; states are named `s0, s1, …` by id
/// and the initial state carries the marking. Signals that never switch
/// take their value from the initial code: those at 1 are listed on an
/// `.initial.state` line, since no transition shows it.
pub fn write_sg(sg: &StateGraph, model_name: &str) -> String {
    let mut out = format!(".model {model_name}\n");
    for (directive, kind) in [
        ("inputs", SignalKind::Input),
        ("outputs", SignalKind::Output),
        ("internal", SignalKind::Internal),
    ] {
        let names = signal_names(sg, |s| sg.signal(s).kind() == kind);
        if !names.is_empty() {
            let _ = writeln!(out, ".{directive} {names}");
        }
    }
    let switching = sg
        .state_ids()
        .flat_map(|s| sg.succs(s))
        .fold(0u64, |mask, (t, _)| mask | (1 << t.signal.index()));
    let idle_high = sg.code(sg.initial()).bits() & !switching;
    if idle_high != 0 {
        let names = signal_names(sg, |s| (idle_high >> s.index()) & 1 == 1);
        let _ = writeln!(out, ".initial.state {names}");
    }
    out.push_str(".state graph\n");
    for s in sg.state_ids() {
        for &(t, next) in sg.succs(s) {
            let _ = writeln!(
                out,
                "s{} {}{} s{}",
                s.index(),
                sg.signal(t.signal).name(),
                t.dir.sign(),
                next.index()
            );
        }
    }
    let _ = writeln!(out, ".marking {{s{}}}\n.end", sg.initial().index());
    out
}

/// Space-separated names of the signals `keep` selects, in id order.
fn signal_names(sg: &StateGraph, keep: impl Fn(SignalId) -> bool) -> String {
    let names: Vec<&str> = sg
        .signal_ids()
        .filter(|&s| keep(s))
        .map(|s| sg.signal(s).name())
        .collect();
    names.join(" ")
}

/// The canonical form of a state graph, built in memory.
///
/// Signals are declared inputs first, then outputs, then internal
/// signals, name-sorted within each kind, with every state code's bits
/// permuted to match. States are renumbered by breadth-first discovery
/// order from the initial state, visiting each state's outgoing edges
/// ordered by (signal name, rise before fall); each state's successors
/// are listed in that order, and its predecessors in the order those
/// edges appear when sources are taken by canonical number. Everything is
/// keyed on signal *names*, so two graphs that differ only in internal
/// state or signal numbering have equal canonical graphs.
///
/// This is exactly the graph [`parse_sg`] reconstructs from
/// [`canonical_sg`]'s text, and the function is idempotent.
pub fn canonical_graph(sg: &StateGraph) -> StateGraph {
    let signal_count = sg.signal_count();
    let kind_rank = |s: SignalId| match sg.signal(s).kind() {
        SignalKind::Input => 0,
        SignalKind::Output => 1,
        SignalKind::Internal => 2,
    };
    let mut declared: Vec<SignalId> = sg.signal_ids().collect();
    declared.sort_by(|&a, &b| {
        kind_rank(a)
            .cmp(&kind_rank(b))
            .then_with(|| sg.signal(a).name().cmp(sg.signal(b).name()))
    });
    let mut builder = SgBuilder::new();
    let mut renamed = vec![SignalId::new(0); signal_count];
    for &old in &declared {
        let signal = sg.signal(old);
        renamed[old.index()] = builder
            .add_signal(signal.name(), signal.kind())
            .expect("a built graph has distinct signal names within the cap");
    }
    let permute = |code: StateCode| {
        (0..signal_count)
            .filter(|&i| (code.bits() >> i) & 1 == 1)
            .fold(0u64, |bits, i| bits | (1 << renamed[i].index()))
    };

    // Edges are visited by (signal name, rise before fall).
    let mut by_name: Vec<SignalId> = sg.signal_ids().collect();
    by_name.sort_by(|&a, &b| sg.signal(a).name().cmp(sg.signal(b).name()));
    let mut name_rank = vec![0usize; signal_count];
    for (rank, s) in by_name.into_iter().enumerate() {
        name_rank[s.index()] = rank;
    }
    let edge_order =
        |t: &Transition| 2 * name_rank[t.signal.index()] + usize::from(t.dir == Dir::Fall);

    // Renumber by BFS, collecting edges grouped by source in the new
    // numbering. `SgBuilder` guarantees full reachability from the
    // initial state, so the traversal discovers every state.
    let n = sg.state_count();
    let mut renumber = vec![usize::MAX; n];
    let mut bfs = Vec::with_capacity(n);
    let mut edges = Vec::with_capacity(sg.edge_count());
    let mut sorted: Vec<(Transition, StateId)> = Vec::new();
    renumber[sg.initial().index()] = 0;
    bfs.push(sg.initial());
    let mut head = 0;
    while head < bfs.len() {
        let s = bfs[head];
        sorted.clear();
        sorted.extend_from_slice(sg.succs(s));
        sorted.sort_by_key(|(t, _)| edge_order(t));
        for &(t, next) in &sorted {
            if renumber[next.index()] == usize::MAX {
                renumber[next.index()] = bfs.len();
                bfs.push(next);
            }
            let t = Transition { signal: renamed[t.signal.index()], dir: t.dir };
            edges.push((StateId::new(head), t, StateId::new(renumber[next.index()])));
        }
        head += 1;
    }
    // The builder numbers states in the order they are added.
    for &s in &bfs {
        builder.add_state(StateCode::from_bits(permute(sg.code(s))));
    }
    for (from, t, to) in edges {
        builder
            .add_edge(from, t, to)
            .expect("renaming and renumbering keep every edge consistent");
    }
    builder.set_initial(StateId::new(0));
    builder.build().expect("every state is reachable from the initial one")
}

/// Serializes a state graph in *canonical* `.sg` form: [`write_sg`] of
/// its [`canonical_graph`]. Two in-memory graphs that differ only in
/// internal state or signal numbering serialize to identical bytes, and
/// [`parse_sg`] reconstructs exactly the canonical graph, so
/// canonicalizing a reparsed canonical graph reproduces the text byte
/// for byte.
///
/// This is the **single canonical form** shared by content-addressed
/// cache keys and by the fuzzer's `.sg` repro emission, so hashing and
/// repro replay always agree on the graph they describe.
pub fn canonical_sg(sg: &StateGraph, model_name: &str) -> String {
    write_sg(&canonical_graph(sg), model_name)
}

/// Parses a state graph from `.sg` text.
///
/// Signal values are inferred from transition consistency starting at the
/// marked state; disconnected or inconsistent graphs are rejected. A
/// signal that never switches is 0 unless an `.initial.state` line names
/// it; naming a switching signal that its transitions show at 0 there is
/// an error. Text with a marking but no transitions is a one-state graph.
///
/// # Errors
///
/// Returns [`SgError::Parse`] with a 1-based line number for malformed
/// text, and other [`SgError`] variants for unknown signals, a missing
/// marking, or inconsistent transition labelling.
pub fn parse_sg(text: &str) -> Result<StateGraph, SgError> {
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut internal: Vec<String> = Vec::new();
    let mut arcs: Vec<(usize, String, String, String)> = Vec::new();
    let mut marking: Option<String> = None;
    let mut initial_values: Vec<(usize, String)> = Vec::new();
    let mut in_graph = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        if let Some(rest) = line.strip_prefix('.') {
            in_graph = false;
            let mut parts = rest.split_whitespace();
            match parts.next().unwrap_or("") {
                "model" | "name" => {}
                "inputs" => inputs.extend(parts.map(String::from)),
                "outputs" => outputs.extend(parts.map(String::from)),
                "internal" => internal.extend(parts.map(String::from)),
                "state" => in_graph = true, // ".state graph"
                "initial.state" => {
                    initial_values.extend(parts.map(|name| (lineno, name.to_string())));
                }
                "marking" => {
                    let m = parts.collect::<Vec<_>>().join(" ");
                    marking = Some(m.replace(['{', '}'], " ").trim().to_string());
                }
                "end" => break,
                other => {
                    return Err(SgError::Parse {
                        line: lineno,
                        message: format!("unknown directive `.{other}`"),
                    })
                }
            }
        } else if in_graph {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            if tokens.len() != 3 {
                return Err(SgError::Parse {
                    line: lineno,
                    message: format!(
                        "expected `state transition state`, got `{line}`"
                    ),
                });
            }
            arcs.push((
                lineno,
                tokens[0].to_string(),
                tokens[1].to_string(),
                tokens[2].to_string(),
            ));
        } else {
            return Err(SgError::Parse {
                line: lineno,
                message: format!("unexpected text outside .state graph: `{line}`"),
            });
        }
    }

    let initial_name = marking.ok_or(SgError::Empty)?;
    if arcs.is_empty() && initial_name.is_empty() {
        return Err(SgError::Empty);
    }

    let mut builder = SgBuilder::new();
    let mut signal_ids = HashMap::new();
    for (name, kind) in inputs
        .iter()
        .map(|n| (n, SignalKind::Input))
        .chain(outputs.iter().map(|n| (n, SignalKind::Output)))
        .chain(internal.iter().map(|n| (n, SignalKind::Internal)))
    {
        let id = builder.add_signal(name, kind)?;
        signal_ids.insert(name.clone(), id);
    }

    // Parse arc labels.
    let mut parsed: Vec<(String, Transition, String)> = Vec::with_capacity(arcs.len());
    for (lineno, from, label, to) in arcs {
        // Occurrence suffixes (`a+/2`) come after the sign; drop them.
        let base_label = label.split('/').next().unwrap_or(&label);
        let (sig_name, dir) = if let Some(s) = base_label.strip_suffix('+') {
            (s, Dir::Rise)
        } else if let Some(s) = base_label.strip_suffix('-') {
            (s, Dir::Fall)
        } else {
            return Err(SgError::Parse {
                line: lineno,
                message: format!("transition label `{label}` has no +/- sign"),
            });
        };
        let sig = *signal_ids
            .get(sig_name)
            .ok_or_else(|| SgError::UnknownSignal(sig_name.to_string()))?;
        parsed.push((from, Transition { signal: sig, dir }, to));
    }

    // Infer codes by BFS from the initial state: initial code is chosen so
    // every first-seen transition is consistent.
    let mut state_names: Vec<String> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let intern = |name: &str, names: &mut Vec<String>, index: &mut HashMap<String, usize>| {
        *index.entry(name.to_string()).or_insert_with(|| {
            names.push(name.to_string());
            names.len() - 1
        })
    };
    let mut adjacency: Vec<Vec<(Transition, usize)>> = Vec::new();
    for (from, t, to) in &parsed {
        let fi = intern(from, &mut state_names, &mut index);
        let ti = intern(to, &mut state_names, &mut index);
        if adjacency.len() < state_names.len() {
            adjacency.resize(state_names.len(), Vec::new());
        }
        adjacency[fi].push((*t, ti));
    }
    if parsed.is_empty() && !initial_name.contains(char::is_whitespace) {
        // A graph without transitions is its marked state alone.
        intern(&initial_name, &mut state_names, &mut index);
        adjacency.push(Vec::new());
    }
    let &initial = index
        .get(initial_name.trim())
        .ok_or_else(|| SgError::UnknownInitialState(initial_name.clone()))?;

    // First pass: assign the initial code from first-seen directions.
    let mut initial_code = StateCode::zero();
    {
        let mut known = vec![false; builder_signal_count(&signal_ids)];
        let mut seen = vec![false; state_names.len()];
        let mut queue = std::collections::VecDeque::from([initial]);
        seen[initial] = true;
        // Track each state's offset from the initial code (XOR mask).
        let mut offset: Vec<u64> = vec![0; state_names.len()];
        while let Some(s) = queue.pop_front() {
            for &(t, next) in &adjacency[s] {
                let bit = 1u64 << t.signal.index();
                // Value of the signal at s, relative to initial: initial ^ offset.
                if !known[t.signal.index()] {
                    known[t.signal.index()] = true;
                    // t requires value_before at s: initial_bit ^ offset_bit = before
                    let before = t.dir.value_before();
                    let offset_bit = offset[s] & bit != 0;
                    initial_code = initial_code
                        .with_value(t.signal, before != offset_bit);
                }
                if !seen[next] {
                    seen[next] = true;
                    offset[next] = offset[s] ^ bit;
                    queue.push_back(next);
                }
            }
        }
        for (line, name) in &initial_values {
            let &sig = signal_ids.get(name).ok_or_else(|| SgError::Parse {
                line: *line,
                message: format!("unknown signal `{name}` in .initial.state"),
            })?;
            if known[sig.index()] && !initial_code.value(sig) {
                return Err(SgError::Parse {
                    line: *line,
                    message: format!(
                        ".initial.state sets `{name}`, which its transitions show at 0"
                    ),
                });
            }
            initial_code = initial_code.with_value(sig, true);
        }
        // Second pass consistency is checked by the builder's edge rules.
        let mut ids = Vec::with_capacity(state_names.len());
        for i in 0..state_names.len() {
            if !seen[i] {
                return Err(SgError::Unreachable(state_names[i].clone()));
            }
            ids.push(builder.add_state(StateCode::from_bits(
                initial_code.bits() ^ offset[i],
            )));
        }
        for (s, edges) in adjacency.iter().enumerate() {
            for &(t, next) in edges {
                builder.add_edge(ids[s], t, ids[next])?;
            }
        }
        builder.set_initial(ids[initial]);
    }
    builder.build()
}

fn builder_signal_count(map: &HashMap<String, crate::signal::SignalId>) -> usize {
    map.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::StateGraph;

    fn toggle() -> StateGraph {
        StateGraph::from_starred_codes(
            &[("a", SignalKind::Input), ("b", SignalKind::Output)],
            &["0*0", "10*", "1*1", "01*"],
            "0*0",
        )
        .unwrap()
    }

    #[test]
    fn round_trip_toggle() {
        let sg = toggle();
        let text = write_sg(&sg, "toggle");
        assert!(text.contains(".state graph"));
        let back = parse_sg(&text).unwrap();
        assert_eq!(back.state_count(), sg.state_count());
        assert_eq!(back.edge_count(), sg.edge_count());
        assert_eq!(back.code(back.initial()), sg.code(sg.initial()));
        assert!(crate::equiv::weak_bisimilar(&sg, &back, &[], &[]));
    }

    #[test]
    fn parse_handwritten() {
        let sg = parse_sg(
            "
.model t
.inputs a
.outputs b
.state graph
s0 a+ s1
s1 b+ s2
s2 a- s3
s3 b- s0
.marking {s2}
.end
",
        )
        .unwrap();
        assert_eq!(sg.state_count(), 4);
        // Initial is s2 where a=1, b=1 (a+ and b+ happened before it).
        let a = sg.signal_by_name("a").unwrap();
        let b = sg.signal_by_name("b").unwrap();
        assert!(sg.code(sg.initial()).value(a));
        assert!(sg.code(sg.initial()).value(b));
    }

    #[test]
    fn inconsistent_labelling_rejected() {
        let err = parse_sg(
            "
.model bad
.inputs a
.state graph
s0 a+ s1
s1 a+ s0
.marking {s0}
.end
",
        )
        .unwrap_err();
        assert!(matches!(err, SgError::MislabelledEdge { .. } | SgError::InconsistentEdge { .. }));
    }

    #[test]
    fn unknown_signal_rejected() {
        let err = parse_sg(
            ".model x\n.inputs a\n.state graph\ns0 q+ s1\ns1 q- s0\n.marking {s0}\n.end\n",
        )
        .unwrap_err();
        assert!(matches!(err, SgError::UnknownSignal(_)));
    }

    #[test]
    fn missing_marking_rejected() {
        let err = parse_sg(
            ".model x\n.inputs a\n.state graph\ns0 a+ s1\ns1 a- s0\n.end\n",
        )
        .unwrap_err();
        assert!(matches!(err, SgError::Empty));
    }

    #[test]
    fn marked_state_without_transitions_is_a_one_state_graph() {
        let text = ".model x\n.inputs a\n.outputs b\n.initial.state b\n.state graph\n\
                    .marking {s0}\n.end\n";
        let sg = parse_sg(text).unwrap();
        assert_eq!((sg.state_count(), sg.edge_count()), (1, 0));
        let b = sg.signal_by_name("b").unwrap();
        assert!(sg.code(sg.initial()).value(b));
        assert_eq!(write_sg(&sg, "x"), text);
        for unmarked in [".model x\n.inputs a\n.state graph\n.end\n", ".marking {}\n"] {
            assert!(
                matches!(parse_sg(unmarked), Err(SgError::Empty)),
                "{unmarked}"
            );
        }
    }

    #[test]
    fn malformed_edge_line_reports_line_number() {
        let err = parse_sg(
            ".model x\n.inputs a\n.state graph\nthis is not an edge line at all\n.end\n",
        )
        .unwrap_err();
        match err {
            SgError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("expected"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn unsigned_label_reports_line_number() {
        let err = parse_sg(
            ".model x\n.inputs a\n.state graph\ns0 a s1\n.marking {s0}\n.end\n",
        )
        .unwrap_err();
        match err {
            SgError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("+/-"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn unknown_directive_reports_line_number() {
        let err = parse_sg(".model x\n.bogus\n").unwrap_err();
        assert!(matches!(err, SgError::Parse { line: 2, .. }), "{err:?}");
    }

    /// A toggle of `a` beside `c`, which never switches, with `initial`
    /// as its `.initial.state` line.
    fn idle(initial: &str) -> String {
        format!(
            ".model x\n.inputs a c\n{initial}.state graph\n\
             s0 a+ s1\ns1 a- s0\n.marking {{s0}}\n.end\n"
        )
    }

    #[test]
    fn initial_state_sets_never_switching_signals() {
        let high = idle(".initial.state c\n");
        let sg = parse_sg(&high).unwrap();
        let c = sg.signal_by_name("c").unwrap();
        assert!(sg.state_ids().all(|s| sg.code(s).value(c)));
        assert_eq!(write_sg(&sg, "x"), high);
        let sg = parse_sg(&idle("")).unwrap();
        assert!(sg.state_ids().all(|s| !sg.code(s).value(c)));
        assert_eq!(write_sg(&sg, "x"), idle(""));
    }

    #[test]
    fn initial_state_contradicting_transitions_rejected() {
        let err = parse_sg(&idle(".initial.state a\n")).unwrap_err();
        assert!(matches!(err, SgError::Parse { line: 3, .. }), "{err:?}");
        let err = parse_sg(&idle(".initial.state q\n")).unwrap_err();
        assert!(matches!(err, SgError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn occurrence_suffixes_accepted() {
        // petrify writes a+/2 for repeated transitions; codes still work.
        let sg = parse_sg(
            "
.model t
.inputs a
.outputs b
.state graph
s0 a+ s1
s1 b+ s2
s2 a- s3
s3 a+/2 s4
s4 a-/2 s5
s5 b- s0
.marking {s0}
.end
",
        )
        .unwrap();
        assert_eq!(sg.state_count(), 6);
    }
}
