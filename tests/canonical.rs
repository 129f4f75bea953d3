//! The in-memory canonical form (`canonical_graph`) is the graph the
//! canonical `.sg` text (`canonical_sg`) parses back to, field by field;
//! the pipeline builds on it without reparsing, so cold, cached and
//! in-memory runs must agree on every state code and every cache key.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use simc::cache::{Cache, Key, MemCache};
use simc::fuzz::{random_recipe, GenConfig, Rng};
use simc::pipeline::Pipeline;
use simc::sg::{
    canonical_graph, canonical_sg, parse_sg, write_sg, SgBuilder, SignalKind, StateCode, StateGraph,
};

/// The first field in which two graphs differ, for a readable failure on
/// graphs too large to print.
fn first_difference(a: &StateGraph, b: &StateGraph) -> Option<String> {
    if a.signal_count() != b.signal_count() || a.state_count() != b.state_count() {
        return Some(format!(
            "{} signals and {} states against {} and {}",
            a.signal_count(),
            a.state_count(),
            b.signal_count(),
            b.state_count()
        ));
    }
    if let Some(sig) = a.signal_ids().find(|&s| a.signal(s) != b.signal(s)) {
        return Some(format!(
            "signal {}: {:?} against {:?}",
            sig.index(),
            a.signal(sig),
            b.signal(sig)
        ));
    }
    if a.initial() != b.initial() {
        return Some(format!("initial {} against {}", a.initial(), b.initial()));
    }
    a.state_ids().find_map(|s| {
        if a.code(s) != b.code(s) {
            Some(format!("{s}: code {:?} against {:?}", a.code(s), b.code(s)))
        } else if a.succs(s) != b.succs(s) {
            Some(format!(
                "{s}: succs {:?} against {:?}",
                a.succs(s),
                b.succs(s)
            ))
        } else if a.preds(s) != b.preds(s) {
            Some(format!(
                "{s}: preds {:?} against {:?}",
                a.preds(s),
                b.preds(s)
            ))
        } else {
            None
        }
    })
}

/// Pins the three identities of the canonical form on `sg` and returns
/// its canonical graph.
fn assert_canonical_agrees(name: &str, sg: &StateGraph) -> StateGraph {
    let canonical = canonical_graph(sg);
    let text = canonical_sg(sg, name);
    let reparsed = parse_sg(&text).unwrap_or_else(|e| panic!("{name}: reparse failed: {e}"));
    assert!(
        canonical == reparsed,
        "{name}: canonical_graph differs from parse_sg(canonical_sg): {:?}",
        first_difference(&canonical, &reparsed)
    );
    assert!(
        write_sg(&canonical, name) == text,
        "{name}: write_sg(canonical_graph) != canonical_sg"
    );
    let again = canonical_graph(&canonical);
    assert!(
        again == canonical,
        "{name}: canonical_graph is not idempotent: {:?}",
        first_difference(&again, &canonical)
    );
    canonical
}

/// The `.g` text with the arc lines of its `.graph` section shuffled: the
/// same net reached through different bytes and transition numbering.
fn shuffle_arcs(text: &str, rng: &mut Rng) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let start = lines
        .iter()
        .position(|l| *l == ".graph")
        .map_or(lines.len(), |i| i + 1);
    let end = lines[start..]
        .iter()
        .position(|l| l.starts_with('.'))
        .map_or(lines.len(), |i| start + i);
    let mut arcs = lines[start..end].to_vec();
    for i in (1..arcs.len()).rev() {
        arcs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    lines[..start]
        .iter()
        .chain(&arcs)
        .chain(&lines[end..])
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn suite_specs_canonicalize_in_memory() {
    for benchmark in simc::benchmarks::suite::all() {
        let sg = benchmark
            .stg
            .to_state_graph()
            .expect("suite spec elaborates");
        assert_canonical_agrees(benchmark.name, &sg);
    }
}

#[test]
fn scale_rings_canonicalize_in_memory() {
    for width in 1..=6 {
        let sg = simc::benchmarks::scale::ring(width)
            .unwrap()
            .to_state_graph()
            .unwrap();
        assert_canonical_agrees(&format!("ring-{width}"), &sg);
    }
    // The wider committed rings (2^17 states and more) take over half a
    // minute together in an unoptimized test build; `scale-ring-13` is
    // the benchmarked one.
    for ring in simc::benchmarks::scale::all()
        .into_iter()
        .filter(|r| r.width <= 13)
    {
        let sg = ring.stg.to_state_graph().expect("ring elaborates");
        assert_canonical_agrees(ring.name, &sg);
    }
}

#[test]
fn regression_bank_canonicalizes_in_memory() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("regression bank present") {
        let path = entry.expect("bank entry readable").path();
        if path.extension().and_then(|e| e.to_str()) != Some("sg") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("bank file readable");
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let sg = parse_sg(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_canonical_agrees(&name, &sg);
        seen += 1;
    }
    assert_eq!(seen, 6, "the bank holds six .sg cases");
}

#[test]
fn fuzz_specs_canonicalize_in_memory_and_ignore_arc_order() {
    for case in 0..200 {
        let mut rng = Rng::for_case(0xCA90, case);
        let cfg = GenConfig {
            signals: rng.range(1, 5) as usize,
            concurrency: rng.range(0, 100),
            csc_injection: rng.percent(25),
        };
        let recipe = random_recipe(&mut rng, cfg);
        let text = simc::fuzz::gen::to_stg(&recipe)
            .expect("recipe builds")
            .to_g_string();
        let shuffled = shuffle_arcs(&text, &mut rng);
        let elaborate = |g: &str| simc::stg::parse_g(g).unwrap().to_state_graph().unwrap();
        let name = format!("fuzz-{case}");
        let canonical = assert_canonical_agrees(&name, &elaborate(&text));
        let from_shuffled = canonical_graph(&elaborate(&shuffled));
        assert!(
            canonical == from_shuffled,
            "{name}: shuffled arcs give another canonical graph: {:?}",
            first_difference(&canonical, &from_shuffled)
        );
    }
}

/// A graph with no transitions: its initial state alone, with the input
/// `a` held at 1 and the input `b` at 0.
fn one_state() -> StateGraph {
    let mut builder = SgBuilder::new();
    let a = builder.add_signal("a", SignalKind::Input).unwrap();
    builder.add_signal("b", SignalKind::Input).unwrap();
    let only = builder.add_state(StateCode::zero().with_value(a, true));
    builder.set_initial(only);
    builder.build().expect("a one-state graph builds")
}

#[test]
fn one_state_graph_canonicalizes_in_memory() {
    let canonical = assert_canonical_agrees("one-state", &one_state());
    assert_eq!((canonical.state_count(), canonical.edge_count()), (1, 0));
}

#[test]
fn one_state_graph_runs_alike_from_memory_and_from_its_text() {
    let sg = one_state();
    let from_sg = run(Pipeline::from_sg(sg.clone()));
    let from_text = run(Pipeline::from_text(canonical_sg(&sg, "one_state")));
    assert_eq!(
        from_sg, from_text,
        "in-memory source differs from its canonical text"
    );
    assert!(from_sg.3, "the implementation verifies");
}

/// A ring over `a`/`b` beside an input `c` that never switches and
/// starts at 1: no transition shows `c`'s value.
const IDLE_HIGH: &str = "\
.model idle_high
.inputs a c
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.initial.state c
.end
";

/// What a pipeline run computed, down to every state code.
fn run(mut pipeline: Pipeline) -> (StateGraph, StateGraph, String, bool) {
    let elaborated = pipeline.elaborated().expect("elaborates").sg().clone();
    let implemented = pipeline.implemented().expect("implements");
    let working = implemented.working_sg().clone();
    let equations = implemented.implementation().equations();
    (
        elaborated,
        working,
        equations,
        pipeline.verified().expect("verifies").is_ok(),
    )
}

#[test]
fn never_switching_signal_keeps_its_value_on_every_path() {
    let direct = simc::stg::parse_g(IDLE_HIGH)
        .unwrap()
        .to_state_graph()
        .unwrap();
    let c = direct.signal_by_name("c").expect("c declared");
    assert!(
        direct.state_ids().all(|s| direct.code(s).value(c)),
        "c elaborates to 1"
    );

    let cache: Arc<dyn Cache> = Arc::new(MemCache::new(1 << 20));
    let cold = run(Pipeline::from_text(IDLE_HIGH));
    let cached = run(Pipeline::from_text(IDLE_HIGH).with_cache(Arc::clone(&cache)));
    let warm = run(Pipeline::from_text(IDLE_HIGH).with_cache(cache));
    let from_sg = run(Pipeline::from_sg(direct.clone()));
    let c = cold.0.signal_by_name("c").expect("c declared");
    assert!(
        cold.0.state_ids().all(|s| cold.0.code(s).value(c)),
        "c stays 1 when canonical"
    );
    assert!(cold.3, "the implementation verifies");
    assert_eq!(cold, cached, "cold cached run differs from uncached");
    assert_eq!(
        cold, warm,
        "warm run (revived from the cache) differs from cold"
    );
    assert_eq!(cold, from_sg, "in-memory source differs from text");

    let text = canonical_sg(&direct, "m");
    assert!(text.contains("\n.initial.state c\n"), "{text}");
    assert_eq!(parse_sg(&text).expect("reparses"), canonical_graph(&direct));
}

/// A cache that records the keys it is asked to store.
#[derive(Default)]
struct Recorder {
    entries: Mutex<Vec<(Key, Vec<u8>)>>,
}

impl Cache for Recorder {
    fn get(&self, key: &Key) -> Option<Vec<u8>> {
        let entries = self.entries.lock().unwrap();
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    fn put(&self, key: &Key, value: &[u8]) {
        self.entries.lock().unwrap().push((*key, value.to_vec()));
    }
}

#[test]
fn regions_key_is_unchanged_so_disk_caches_stay_warm() {
    let benchmark = simc::benchmarks::suite::all()
        .into_iter()
        .find(|b| b.name == "nak-pa")
        .expect("nak-pa in the suite");
    let recorder = Arc::new(Recorder::default());
    let mut pipeline = Pipeline::from_text(benchmark.stg.to_g_string())
        .with_cache(Arc::clone(&recorder) as Arc<dyn Cache>);
    let regions = pipeline
        .regioned()
        .expect("regions")
        .regions()
        .to_cache_bytes();
    let stored: HashMap<String, Vec<u8>> = recorder
        .entries
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.hex(), v.clone()))
        .collect();
    // The `regions.v1` key of nak-pa as computed before elaboration
    // stopped reparsing its canonical text.
    assert_eq!(
        stored.get("71987d2318d7070c1435d808896c4941"),
        Some(&regions),
        "regions stored under another key: {:?}",
        stored.keys().collect::<Vec<_>>()
    );
}
