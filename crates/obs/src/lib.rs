//! Pipeline observability: hierarchical spans and typed counters.
//!
//! The synthesis pipeline — SAT solving, the MC cover search, the beam
//! search over state-signal insertions, exhaustive composed-state
//! verification — was a black box per phase: `BENCH_pipeline.json` could
//! say *that* the assignment phase dominates, never *why*. This crate is
//! the shared substrate every hot-path crate reports into:
//!
//! * **Typed counters** ([`Counter`]): a fixed, closed set of work
//!   metrics (SAT conflicts/decisions/propagations per solve, beam nodes
//!   expanded/pruned/deduped, cover cubes checked/rejected, composed
//!   states and events explored, peak BFS frontier, …). Counters are
//!   process-global atomics updated with commutative operations only
//!   (saturating add, max), so *per-thread aggregation merges
//!   deterministically*: for a workload whose total work is
//!   thread-count-invariant (which the `simc` parallel drivers guarantee
//!   — see `simc-mc::parallel`), counter reports are byte-identical for
//!   1, 2 or 8 worker threads.
//! * **Hierarchical spans** ([`span`]): wall-clock phase → sub-phase
//!   timings attributed by a per-thread span stack (`reduce`,
//!   `reduce/expand`, `cover`, `verify`, …). Timings are inherently
//!   non-deterministic, so reporters keep them strictly separate from
//!   the counters section.
//! * **Scoped captures** ([`scope`]): a thread-local [`StatsScope`]
//!   recording the counters added on one thread between open and finish.
//!   Long-running multi-tenant callers (the `simc serve` worker pool)
//!   use one scope per request so concurrent requests' stats never bleed
//!   together; the process-global counters are unaffected, so single-shot
//!   CLI `--stats` output is byte-identical with or without scopes.
//! * **Reporters** ([`Report`]): a deterministic human-readable
//!   rendering and a hand-rolled JSON emitter (the workspace builds with
//!   no serialization dependency), plus a matching minimal JSON parser
//!   ([`json`]) used to round-trip-validate emitted documents.
//!
//! # Zero overhead when disabled
//!
//! Both subsystems are off by default. Every recording entry point
//! checks one relaxed atomic flag and returns immediately when disabled
//! — no allocation, no `Instant::now()`, no thread-local access — so
//! instrumented hot paths cost one predictable branch. The CI smoke gate
//! (`scripts/ci.sh`) pins the claim by comparing a stats-off
//! `repro_pipeline` run against the committed baseline.
//!
//! # Example
//!
//! ```
//! use simc_obs as obs;
//!
//! obs::set_stats(true);
//! obs::reset();
//! {
//!     let outer = obs::span("phase");
//!     let inner = obs::span("sub");
//!     obs::add(obs::Counter::SatSolves, 2);
//!     inner.finish();
//!     outer.finish();
//! }
//! let report = obs::report();
//! assert_eq!(report.counter(obs::Counter::SatSolves), 2);
//! assert!(report.spans.iter().any(|s| s.path == "phase/sub"));
//! obs::set_stats(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a counter merges across threads (and across snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Contributions add up (total work).
    Sum,
    /// Contributions take the maximum (a peak / high-water mark).
    Max,
}

macro_rules! counters {
    ($( $variant:ident => ($name:literal, $kind:ident) ),+ $(,)?) => {
        /// The closed set of pipeline work metrics.
        ///
        /// Names are dotted `phase.metric` paths; the prefix groups the
        /// counters of one subsystem in reports.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $(
                #[doc = concat!("`", $name, "`")]
                $variant,
            )+
        }

        impl Counter {
            /// Every counter, in report order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),+];

            /// The dotted report name.
            pub fn name(self) -> &'static str {
                match self { $(Counter::$variant => $name),+ }
            }

            /// The merge discipline.
            pub fn kind(self) -> Kind {
                match self { $(Counter::$variant => Kind::$kind),+ }
            }
        }
    };
}

counters! {
    // STG reachability (spec → state graph).
    ReachStates => ("reach.states", Sum),
    ReachEdges => ("reach.edges", Sum),
    // Region decomposition.
    RegionDecompositions => ("regions.decompositions", Sum),
    RegionsFound => ("regions.excitation_regions", Sum),
    // The CDCL SAT solver, per `solve()` call.
    SatSolves => ("sat.solves", Sum),
    SatVars => ("sat.vars", Sum),
    SatClauses => ("sat.clauses", Sum),
    SatConflicts => ("sat.conflicts", Sum),
    SatDecisions => ("sat.decisions", Sum),
    SatPropagations => ("sat.propagations", Sum),
    // Incremental-solver activity: learned-clause database churn and
    // assumption-based reuse of a warm solver.
    SatLearnedKept => ("sat.learned_kept", Sum),
    SatLearnedDeleted => ("sat.learned_deleted", Sum),
    SatDbReductions => ("sat.db_reductions", Sum),
    SatMinimizedLits => ("sat.minimized_lits", Sum),
    SatAssumptionReuses => ("sat.assumption_reuses", Sum),
    // The MC cover search.
    CoverCubesChecked => ("cover.cubes_checked", Sum),
    CoverCubesRejected => ("cover.cubes_rejected", Sum),
    CoverSatSearches => ("cover.sat_searches", Sum),
    CoverDegenerate => ("cover.degenerate_covers", Sum),
    // The beam search over state-signal insertions (`reduce_to_mc`).
    BeamNodesExpanded => ("beam.nodes_expanded", Sum),
    BeamModelsExamined => ("beam.models_examined", Sum),
    BeamCandidatesKept => ("beam.candidates_kept", Sum),
    BeamDeduped => ("beam.deduped", Sum),
    BeamPruned => ("beam.pruned", Sum),
    BeamSignalsInserted => ("beam.signals_inserted", Sum),
    // Portfolio fallback races when a beam node finds no candidate under
    // the primary solver configuration; wins are per fallback config.
    PortfolioRaces => ("portfolio.races", Sum),
    PortfolioWinsCfg1 => ("portfolio.wins_cfg1", Sum),
    PortfolioWinsCfg2 => ("portfolio.wins_cfg2", Sum),
    PortfolioWinsCfg3 => ("portfolio.wins_cfg3", Sum),
    // The symbolic state-space layer: interning arenas and frontier BFS.
    ArenaStatesInterned => ("arena.states_interned", Sum),
    ArenaPeakBytes => ("arena.peak_bytes", Max),
    ReachFrontierDeduped => ("reach.frontier_deduped", Sum),
    // Exhaustive composed-state verification.
    VerifyStates => ("verify.states_explored", Sum),
    VerifyEvents => ("verify.events_explored", Sum),
    VerifyPeakFrontier => ("verify.peak_frontier", Max),
    VerifyViolations => ("verify.violations", Sum),
    // Stubborn-set partial-order reduction inside verification: states
    // where the reduced successor set was explored vs. fully expanded.
    VerifyStubbornReduced => ("verify.stubborn_reduced", Sum),
    VerifyFullExpansions => ("verify.full_expansions", Sum),
    // Monte-Carlo random walks.
    WalkSteps => ("walk.steps", Sum),
    WalkViolations => ("walk.violations", Sum),
    // Differential fuzzing.
    FuzzCases => ("fuzz.cases", Sum),
    FuzzOracleChecks => ("fuzz.oracle_checks", Sum),
    FuzzFailures => ("fuzz.failures", Sum),
    FuzzSkippedReductions => ("fuzz.skipped_reductions", Sum),
    FuzzFaultsInjected => ("fuzz.faults_injected", Sum),
    FuzzFaultsDetected => ("fuzz.faults_detected", Sum),
    FuzzShrinkSteps => ("fuzz.shrink_steps", Sum),
    // Coverage-guided fuzzing campaigns: corpus growth and the
    // fresh-vs-mutated generation split.
    FuzzCorpusSize => ("fuzz.corpus_size", Max),
    FuzzNewCoverage => ("fuzz.new_coverage", Sum),
    FuzzMutations => ("fuzz.mutations", Sum),
    FuzzGenFresh => ("fuzz.gen_fresh", Sum),
    // The content-addressed artifact cache.
    CacheHits => ("cache.hits", Sum),
    CacheMisses => ("cache.misses", Sum),
    CacheEvictions => ("cache.evictions", Sum),
    CacheBytesWritten => ("cache.bytes_written", Sum),
    // The `simc serve` daemon: request-level outcomes. `computations`
    // counts single-flight leaders (pipelines actually run);
    // `inflight_joined` counts duplicate submissions that shared a
    // leader's in-flight result instead of recomputing.
    ServeRequests => ("serve.requests", Sum),
    ServeComputations => ("serve.computations", Sum),
    ServeInflightJoined => ("serve.inflight_joined", Sum),
    ServeShedOverload => ("serve.shed_overload", Sum),
    ServeDeadlineExceeded => ("serve.deadline_exceeded", Sum),
    ServeErrors => ("serve.errors", Sum),
    // Interchange-format conversions (`simc convert`, `/v1/convert`):
    // emits/parses count actual format work, so a warm cache shows
    // `convert.emits: 0` on repeat conversions.
    ConvertEmits => ("convert.emits", Sum),
    ConvertParses => ("convert.parses", Sum),
    ConvertBytesEmitted => ("convert.bytes_emitted", Sum),
}

const N_COUNTERS: usize = Counter::ALL.len();

static COUNTERS_ON: AtomicBool = AtomicBool::new(false);
static TIMING_ON: AtomicBool = AtomicBool::new(false);

static CELLS: [AtomicU64; N_COUNTERS] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; N_COUNTERS]
};

/// Accumulated wall-clock of one span path.
#[derive(Debug, Clone, Default)]
struct SpanCell {
    calls: u64,
    nanos: u128,
}

static SPANS: Mutex<BTreeMap<String, SpanCell>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// The open span names on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };

    /// The counter cells of the innermost [`StatsScope`] open on this
    /// thread, if any (see [`scope`]).
    static SCOPE_CELLS: RefCell<Option<Box<[u64; N_COUNTERS]>>> = const { RefCell::new(None) };
}

/// Whether counter recording is on.
#[inline]
pub fn counters_enabled() -> bool {
    COUNTERS_ON.load(Ordering::Relaxed)
}

/// Whether span timing is on.
#[inline]
pub fn timing_enabled() -> bool {
    TIMING_ON.load(Ordering::Relaxed)
}

/// Turns counter recording on or off.
pub fn set_counters(on: bool) {
    COUNTERS_ON.store(on, Ordering::Relaxed);
}

/// Turns span timing on or off.
pub fn set_timing(on: bool) {
    TIMING_ON.store(on, Ordering::Relaxed);
}

/// Turns both counters and span timing on or off (`--stats`).
pub fn set_stats(on: bool) {
    set_counters(on);
    set_timing(on);
}

/// Adds `n` to a [`Kind::Sum`] counter (saturating; no-op when disabled).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if !counters_enabled() {
        return;
    }
    debug_assert_eq!(counter.kind(), Kind::Sum);
    CELLS[counter as usize].fetch_add(n, Ordering::Relaxed);
    SCOPE_CELLS.with(|cells| {
        if let Some(cells) = cells.borrow_mut().as_mut() {
            cells[counter as usize] = cells[counter as usize].saturating_add(n);
        }
    });
}

/// Raises a [`Kind::Max`] counter to at least `v` (no-op when disabled).
#[inline]
pub fn record_max(counter: Counter, v: u64) {
    if !counters_enabled() {
        return;
    }
    debug_assert_eq!(counter.kind(), Kind::Max);
    CELLS[counter as usize].fetch_max(v, Ordering::Relaxed);
    SCOPE_CELLS.with(|cells| {
        if let Some(cells) = cells.borrow_mut().as_mut() {
            cells[counter as usize] = cells[counter as usize].max(v);
        }
    });
}

/// The current value of one counter.
pub fn value(counter: Counter) -> u64 {
    CELLS[counter as usize].load(Ordering::Relaxed)
}

/// Zeroes every counter and clears every span accumulator.
pub fn reset() {
    for cell in &CELLS {
        cell.store(0, Ordering::Relaxed);
    }
    SPANS.lock().expect("span registry poisoned").clear();
}

/// A scoped capture of the counters recorded **on the current thread**
/// between [`scope`] and [`StatsScope::finish`].
///
/// The process-global counters keep accumulating as before — a scope
/// never changes what `--stats` reports — but concurrent scopes on
/// different threads each see only their own thread's contributions.
/// `simc serve` opens one scope per request so per-request stats from
/// concurrent requests do not bleed together the way a global snapshot
/// diff would.
///
/// Scopes nest: an inner scope shadows the outer one while open, and
/// `finish` folds the inner counts back into the outer scope (sums add,
/// maxima merge), so the outer scope's totals stay complete.
///
/// Work recorded on *other* threads is not attributed to any scope,
/// except where the thread that spawned them folds their counts back in
/// with [`absorb`], as `simc`'s parallel maps do: a scope open around a
/// threaded pipeline run sees all of its work.
#[derive(Debug)]
#[must_use = "a scope captures counters until it is finished or dropped"]
pub struct StatsScope {
    /// The enclosing scope's cells, restored (and merged into) on finish.
    outer: Option<Box<[u64; N_COUNTERS]>>,
    finished: bool,
}

/// Opens a [`StatsScope`] on the current thread. Recording still honours
/// the global enable flag: with counters disabled the scope stays empty.
pub fn scope() -> StatsScope {
    let outer = SCOPE_CELLS.with(|cells| {
        cells.borrow_mut().replace(Box::new([0u64; N_COUNTERS]))
    });
    StatsScope { outer, finished: false }
}

/// Merges `v` into a scope's cell for `c` by the counter's [`Kind`].
fn fold(cells: &mut [u64; N_COUNTERS], c: Counter, v: u64) {
    let cell = &mut cells[c as usize];
    *cell = match c.kind() {
        Kind::Sum => cell.saturating_add(v),
        Kind::Max => (*cell).max(v),
    };
}

/// Whether a [`StatsScope`] is open on the current thread.
pub fn scope_open() -> bool {
    SCOPE_CELLS.with(|cells| cells.borrow().is_some())
}

/// Folds `counts`, as another thread's [`StatsScope::finish`] returned
/// them, into the scope open on the current thread (sums add, maxima
/// merge). A no-op when no scope is open. The process-global counters
/// are unaffected: the other thread already recorded into them.
pub fn absorb(counts: &[(Counter, u64)]) {
    SCOPE_CELLS.with(|cells| {
        if let Some(cells) = cells.borrow_mut().as_mut() {
            for &(c, v) in counts {
                fold(cells, c, v);
            }
        }
    });
}

impl StatsScope {
    fn close(&mut self) -> Vec<(Counter, u64)> {
        if self.finished {
            return Vec::new();
        }
        self.finished = true;
        let mine = SCOPE_CELLS.with(|cells| {
            let mut slot = cells.borrow_mut();
            let mine = slot.take().unwrap_or_else(|| Box::new([0u64; N_COUNTERS]));
            if let Some(mut outer) = self.outer.take() {
                for &c in Counter::ALL {
                    fold(&mut outer, c, mine[c as usize]);
                }
                *slot = Some(outer);
            }
            mine
        });
        Counter::ALL.iter().map(|&c| (c, mine[c as usize])).collect()
    }

    /// Closes the scope and returns every counter's value as recorded on
    /// this thread while the scope was open (zeros included, in
    /// [`Counter::ALL`] order, like [`Report::counters`]).
    pub fn finish(mut self) -> Vec<(Counter, u64)> {
        self.close()
    }
}

impl Drop for StatsScope {
    fn drop(&mut self) {
        self.close();
    }
}

/// An open hierarchical span. Obtain with [`span`]; close with
/// [`Span::finish`] (or by dropping it).
///
/// The span's path is its name prefixed by every span already open *on
/// the same thread* (`parent/child`), so phases nest naturally on the
/// driver thread while worker-thread spans become their own roots —
/// unless the worker runs under its caller's [`SpanPath`] through
/// [`with_span_path`], as `simc`'s parallel maps do.
#[derive(Debug)]
#[must_use = "a span measures the time until it is finished or dropped"]
pub struct Span {
    /// `None` when timing was disabled at open time.
    start: Option<Instant>,
    path: Option<String>,
    finished: bool,
}

impl Span {
    fn close(&mut self) -> Duration {
        if self.finished {
            return Duration::ZERO;
        }
        self.finished = true;
        let Some(start) = self.start else {
            return Duration::ZERO;
        };
        let elapsed = start.elapsed();
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        if let Some(path) = self.path.take() {
            let mut spans = SPANS.lock().expect("span registry poisoned");
            let cell = spans.entry(path).or_default();
            cell.calls += 1;
            cell.nanos += elapsed.as_nanos();
        }
        elapsed
    }

    /// Closes the span, recording its wall-clock, and returns the
    /// elapsed time ([`Duration::ZERO`] when timing is disabled).
    pub fn finish(mut self) -> Duration {
        self.close()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Opens a span named `name` under the spans currently open on this
/// thread. When timing is disabled this is a no-op guard.
pub fn span(name: &'static str) -> Span {
    if !timing_enabled() {
        return Span { start: None, path: None, finished: false };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let mut path = String::with_capacity(
            stack.iter().map(|s| s.len() + 1).sum::<usize>() + name.len(),
        );
        for parent in stack.iter() {
            path.push_str(parent);
            path.push('/');
        }
        path.push_str(name);
        stack.push(name);
        path
    });
    Span { start: Some(Instant::now()), path: Some(path), finished: false }
}

/// The names of the spans open on one thread, outermost first: what a
/// worker thread adopts with [`with_span_path`] so that its spans nest
/// under the caller's. Empty when timing is disabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanPath(Vec<&'static str>);

/// The spans open on the current thread (see [`SpanPath`]).
pub fn span_path() -> SpanPath {
    if !timing_enabled() {
        return SpanPath::default();
    }
    SpanPath(SPAN_STACK.with(|stack| stack.borrow().clone()))
}

/// Runs `f` with `path` as the current thread's open spans, so a span
/// opened inside `f` is recorded under `path` rather than as a root.
/// The thread's own open spans are restored afterwards, also when `f`
/// panics.
pub fn with_span_path<R>(path: &SpanPath, f: impl FnOnce() -> R) -> R {
    struct Restore(Vec<&'static str>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let own = std::mem::take(&mut self.0);
            SPAN_STACK.with(|stack| *stack.borrow_mut() = own);
        }
    }
    if path.0.is_empty() {
        return f();
    }
    let own = SPAN_STACK.with(|stack| std::mem::replace(&mut *stack.borrow_mut(), path.0.clone()));
    let _restore = Restore(own);
    f()
}

/// Accumulated wall-clock statistics of one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// `parent/child` path.
    pub path: String,
    /// Number of times the span was entered.
    pub calls: u64,
    /// Total wall-clock seconds across all calls.
    pub seconds: f64,
}

/// A snapshot of every counter and span accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// `(counter, value)` for every counter, in [`Counter::ALL`] order
    /// (zeros included, so renderings are structurally stable).
    pub counters: Vec<(Counter, u64)>,
    /// Span statistics sorted by path.
    pub spans: Vec<SpanStat>,
}

/// Snapshots the current counters and spans.
pub fn report() -> Report {
    let counters = Counter::ALL.iter().map(|&c| (c, value(c))).collect();
    let spans = SPANS
        .lock()
        .expect("span registry poisoned")
        .iter()
        .map(|(path, cell)| SpanStat {
            path: path.clone(),
            calls: cell.calls,
            seconds: cell.nanos as f64 * 1e-9,
        })
        .collect();
    Report { counters, spans }
}

impl Report {
    /// The snapshot value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == counter)
            .map_or(0, |&(_, v)| v)
    }

    /// The span statistics for an exact path, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// The direct children of `path` (one level deeper only).
    pub fn children(&self, path: &str) -> Vec<&SpanStat> {
        self.spans
            .iter()
            .filter(|s| {
                s.path.strip_prefix(path).and_then(|r| r.strip_prefix('/')).is_some_and(
                    |rest| !rest.contains('/'),
                )
            })
            .collect()
    }

    /// Renders the counters section only — deterministic for a
    /// deterministic workload, byte-identical across thread counts.
    pub fn counters_text(&self) -> String {
        let width = Counter::ALL.iter().map(|c| c.name().len()).max().unwrap_or(0);
        let mut out = String::from("counters:\n");
        for &(c, v) in &self.counters {
            let _ = writeln!(out, "  {:<width$}  {v}", c.name());
        }
        out
    }

    /// Renders counters plus span timings for humans. The span section
    /// carries wall-clock and is *not* expected to be deterministic.
    pub fn render(&self) -> String {
        let mut out = self.counters_text();
        if !self.spans.is_empty() {
            out.push_str("spans (wall-clock):\n");
            let width = self.spans.iter().map(|s| s.path.len()).max().unwrap_or(0);
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<width$}  {:>5} call{}  {:>12.6}s",
                    s.path,
                    s.calls,
                    if s.calls == 1 { " " } else { "s" },
                    s.seconds
                );
            }
        }
        out
    }

    /// Emits the report as a JSON document (hand-rolled; round-trips
    /// through [`json::parse`]).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {\n");
        for (i, &(c, v)) in self.counters.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}: {v}{}",
                json::escape(c.name()),
                if i + 1 < self.counters.len() { "," } else { "" }
            );
        }
        out.push_str("  },\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"path\": {}, \"calls\": {}, \"seconds\": {:.9} }}{}",
                json::escape(&s.path),
                s.calls,
                s.seconds,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Obs state is process-global; serialize the tests that touch it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_is_a_no_op() {
        let _g = lock();
        set_stats(false);
        reset();
        add(Counter::SatSolves, 5);
        record_max(Counter::VerifyPeakFrontier, 9);
        let s = span("ghost");
        assert_eq!(s.finish(), Duration::ZERO);
        let r = report();
        assert_eq!(r.counter(Counter::SatSolves), 0);
        assert_eq!(r.counter(Counter::VerifyPeakFrontier), 0);
        assert!(r.spans.is_empty());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = lock();
        set_stats(true);
        reset();
        add(Counter::SatConflicts, 3);
        add(Counter::SatConflicts, 4);
        record_max(Counter::VerifyPeakFrontier, 2);
        record_max(Counter::VerifyPeakFrontier, 7);
        record_max(Counter::VerifyPeakFrontier, 5);
        assert_eq!(value(Counter::SatConflicts), 7);
        assert_eq!(value(Counter::VerifyPeakFrontier), 7);
        reset();
        assert_eq!(value(Counter::SatConflicts), 0);
        set_stats(false);
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _g = lock();
        set_stats(true);
        reset();
        let outer = span("a");
        {
            let inner = span("b");
            std::thread::sleep(Duration::from_millis(2));
            inner.finish();
        }
        let elapsed = outer.finish();
        let r = report();
        let a = r.span("a").expect("outer recorded");
        let ab = r.span("a/b").expect("inner recorded under outer");
        assert_eq!(a.calls, 1);
        assert_eq!(ab.calls, 1);
        assert!(ab.seconds <= a.seconds + 1e-9);
        assert!((a.seconds - elapsed.as_secs_f64()).abs() < 1e-6);
        assert_eq!(r.children("a").len(), 1);
        set_stats(false);
    }

    #[test]
    fn dropped_span_still_records() {
        let _g = lock();
        set_stats(true);
        reset();
        {
            let _s = span("dropped");
        }
        assert!(report().span("dropped").is_some());
        set_stats(false);
    }

    #[test]
    fn worker_thread_spans_are_roots() {
        let _g = lock();
        set_stats(true);
        reset();
        let outer = span("driver");
        std::thread::scope(|scope| {
            scope.spawn(|| span("worker").finish()).join().unwrap();
        });
        outer.finish();
        let r = report();
        assert!(r.span("worker").is_some(), "worker span is its own root");
        assert!(r.span("driver/worker").is_none());
        set_stats(false);
    }

    #[test]
    fn workers_under_the_callers_path_nest_under_it() {
        let _g = lock();
        set_stats(true);
        reset();
        let outer = span("driver");
        let path = span_path();
        assert_eq!(path, SpanPath(vec!["driver"]));
        std::thread::scope(|scope| {
            scope.spawn(|| with_span_path(&path, || span("worker").finish())).join().unwrap();
        });
        outer.finish();
        let r = report();
        assert!(r.span("driver/worker").is_some(), "worker span nests under the caller's");
        assert!(r.span("worker").is_none());
        // The caller's own stack is untouched: a later span is a root.
        span("after").finish();
        assert!(report().span("after").is_some());
        set_stats(false);
        assert_eq!(span_path(), SpanPath::default(), "empty when timing is off");
    }

    #[test]
    fn concurrent_sums_merge_deterministically() {
        let _g = lock();
        set_stats(true);
        reset();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        add(Counter::BeamModelsExamined, 1);
                    }
                });
            }
        });
        assert_eq!(value(Counter::BeamModelsExamined), 8000);
        set_stats(false);
    }

    #[test]
    fn scopes_capture_per_thread_without_bleeding() {
        let _g = lock();
        set_stats(true);
        reset();
        let captured: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=2u64)
                .map(|n| {
                    s.spawn(move || {
                        let scope = scope();
                        add(Counter::ServeRequests, n);
                        record_max(Counter::VerifyPeakFrontier, 10 * n);
                        scope.finish()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let get = |snap: &[(Counter, u64)], c: Counter| {
            snap.iter().find(|&&(x, _)| x == c).map(|&(_, v)| v).unwrap()
        };
        // Each scope saw only its own thread's contributions...
        let mut requests: Vec<u64> =
            captured.iter().map(|s| get(s, Counter::ServeRequests)).collect();
        requests.sort_unstable();
        assert_eq!(requests, vec![1, 2]);
        // ...while the globals kept the merged totals.
        assert_eq!(value(Counter::ServeRequests), 3);
        assert_eq!(value(Counter::VerifyPeakFrontier), 20);
        set_stats(false);
    }

    #[test]
    fn absorbed_worker_counts_join_the_open_scope() {
        let _g = lock();
        set_stats(true);
        reset();
        let outer = scope();
        assert!(scope_open());
        add(Counter::ServeRequests, 1);
        let worker = std::thread::scope(|s| {
            s.spawn(|| {
                let scope = scope();
                add(Counter::ServeRequests, 2);
                record_max(Counter::VerifyPeakFrontier, 7);
                scope.finish()
            })
            .join()
            .unwrap()
        });
        absorb(&worker);
        let snap = outer.finish();
        assert!(!scope_open());
        let get = |c: Counter| snap.iter().find(|&&(x, _)| x == c).map(|&(_, v)| v).unwrap();
        assert_eq!(get(Counter::ServeRequests), 3);
        assert_eq!(get(Counter::VerifyPeakFrontier), 7);
        // The globals counted the worker once, when it recorded.
        assert_eq!(value(Counter::ServeRequests), 3);
        absorb(&worker);
        assert_eq!(value(Counter::ServeRequests), 3, "no scope: nothing to fold into");
        set_stats(false);
    }

    #[test]
    fn nested_scopes_fold_into_the_outer() {
        let _g = lock();
        set_stats(true);
        reset();
        let outer = scope();
        add(Counter::ServeRequests, 1);
        {
            let inner = scope();
            add(Counter::ServeRequests, 5);
            record_max(Counter::VerifyPeakFrontier, 7);
            let snap = inner.finish();
            assert_eq!(snap.iter().find(|(c, _)| *c == Counter::ServeRequests).unwrap().1, 5);
        }
        add(Counter::ServeRequests, 2);
        let snap = outer.finish();
        let get = |c: Counter| snap.iter().find(|&&(x, _)| x == c).map(|&(_, v)| v).unwrap();
        assert_eq!(get(Counter::ServeRequests), 8, "inner counts fold back into the outer");
        assert_eq!(get(Counter::VerifyPeakFrontier), 7);
        set_stats(false);
    }

    #[test]
    fn disabled_scope_stays_empty() {
        let _g = lock();
        set_stats(false);
        reset();
        let scope = scope();
        add(Counter::ServeRequests, 4);
        let snap = scope.finish();
        assert!(snap.iter().all(|&(_, v)| v == 0));
    }

    #[test]
    fn report_renders_and_round_trips() {
        let _g = lock();
        set_stats(true);
        reset();
        add(Counter::SatSolves, 2);
        span("phase \"q\"").finish();
        let r = report();
        let text = r.render();
        assert!(text.contains("sat.solves"), "{text}");
        assert!(text.contains("spans (wall-clock):"), "{text}");
        let doc = json::parse(&r.to_json()).expect("emitted JSON parses");
        let counters = doc.get("counters").and_then(json::Value::as_object).unwrap();
        assert_eq!(
            counters.get("sat.solves").and_then(json::Value::as_u64),
            Some(2)
        );
        let spans = doc.get("spans").and_then(json::Value::as_array).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("path").and_then(json::Value::as_str),
            Some("phase \"q\"")
        );
        set_stats(false);
    }

    #[test]
    fn counters_text_is_structurally_stable() {
        let _g = lock();
        set_stats(true);
        reset();
        let empty = report().counters_text();
        // Every counter appears even at zero, so two equal workloads
        // render byte-identically.
        for c in Counter::ALL {
            assert!(empty.contains(c.name()), "{} missing", c.name());
        }
        set_stats(false);
    }
}
