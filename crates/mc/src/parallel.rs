//! Parallel synthesis driver.
//!
//! The MC pipeline is embarrassingly parallel at two levels: the cover
//! search of each excitation function is independent of every other
//! function's, and whole benchmarks are independent of each other. This
//! module exploits both with nothing but `std::thread::scope` — no
//! external thread-pool dependency — while keeping results byte-identical
//! to the sequential path: work items are claimed off a shared atomic
//! counter, but every result is written back to the slot of its item, so
//! the output order never depends on thread scheduling.

use simc_sg::{Dir, StateGraph};

use crate::cover::{McCheck, McReport};
use crate::error::McError;
use crate::synth::{build_from_covers, Implementation, Target};

/// Estimated work (in [`parallel_map_sized`]'s abstract units — roughly
/// "state visits") below which a whole map is cheaper than spawning even
/// one scoped thread, so it always runs inline. Calibrated on the
/// benchmark suite: a trivial cover report costs a few microseconds,
/// spawning and joining a scoped pool costs tens.
pub const INLINE_WORK_UNITS: u64 = 4096;

/// [`parallel_map`] with an estimated total work size: maps whose
/// `work_units` fall below [`INLINE_WORK_UNITS`] run inline regardless of
/// `threads`, so trivially small jobs — a cover report on a 30-state
/// benchmark — never pay thread-spawn overhead that exceeds the work
/// itself. Results are identical either way; only wall-clock changes.
pub fn parallel_map_sized<T, R, F>(items: &[T], threads: usize, work_units: u64, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = if work_units < INLINE_WORK_UNITS { 1 } else { threads };
    parallel_map(items, threads, f)
}

/// Maps `f` over `items` on `threads` OS threads, preserving input order.
///
/// Work is distributed dynamically (an atomic next-item counter), so
/// uneven item costs — one hard SAT search among many trivial ones — do
/// not idle whole threads. With `threads <= 1`, or fewer than two items,
/// runs inline with no thread spawned. Callers that can estimate their
/// work cheaply should prefer [`parallel_map_sized`].
///
/// # Panics
///
/// Propagates the first worker panic.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // CPU-bound work gains nothing from more workers than hardware
    // threads — oversubscription just adds scheduler overhead (a 4-worker
    // request on a 1-core machine ran the beam search ~2× slower). The
    // clamp never changes results, only wall-clock.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    parallel_map_exact(items, threads.min(hw), f)
}

/// [`parallel_map`] without the hardware clamp: runs on exactly
/// `threads` threads (clamped to the item count only), the calling
/// thread and `threads − 1` spawned workers, all claiming items off one
/// counter. Tests use it to exercise the scoped-thread machinery
/// regardless of the machine running them, and `simc serve` uses it for
/// its worker pool — pool workers *block* (on sockets, queues and
/// in-flight computations they joined), so unlike the CPU-bound cover
/// search they must be allowed to outnumber hardware threads.
///
/// Workers run under the caller's open spans ([`simc_obs::span_path`]),
/// so a span opened inside `f` gets the same path on every thread, and
/// when the caller has a [`simc_obs::StatsScope`] open, each worker
/// captures its counters in a scope of its own that the caller absorbs,
/// so the caller's scope sees all of the map's work.
pub fn parallel_map_exact<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let claim = || {
        let mut claimed = Vec::new();
        loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= items.len() {
                return claimed;
            }
            claimed.push((i, f(&items[i])));
        }
    };
    let path = simc_obs::span_path();
    let scoped = simc_obs::scope_open();
    let worker = || {
        simc_obs::with_span_path(&path, || {
            let scope = scoped.then(simc_obs::scope);
            let claimed = claim();
            (claimed, scope.map(simc_obs::StatsScope::finish))
        })
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        for (i, r) in claim() {
            slots[i] = Some(r);
        }
        for handle in handles {
            let (claimed, counts) = handle.join().expect("synthesis worker panicked");
            for (i, r) in claimed {
                slots[i] = Some(r);
            }
            if let Some(counts) = counts {
                simc_obs::absorb(&counts);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every item claimed")).collect()
}

/// A synthesis driver that fans independent cover searches across a
/// scoped thread pool.
///
/// All entry points produce results identical to their sequential
/// counterparts ([`McCheck::report`], [`synthesize`](crate::synth::synthesize))
/// for every thread count — parallelism changes wall-clock time only.
#[derive(Debug, Clone, Copy)]
pub struct ParallelSynth {
    threads: usize,
}

impl ParallelSynth {
    /// A driver using `threads` worker threads (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ParallelSynth { threads: threads.max(1) }
    }

    /// The sequential driver (one thread, runs inline).
    pub fn sequential() -> Self {
        ParallelSynth::new(1)
    }

    /// A driver sized to the machine's available parallelism.
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        ParallelSynth::new(threads)
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// [`McCheck::report`] with the per-function cover searches — one per
    /// non-input signal and direction, each of which fans into per-ER MC
    /// cube searches — run concurrently.
    pub fn report(&self, check: &McCheck<'_>) -> McReport {
        let _span = simc_obs::span("cover");
        let functions: Vec<(simc_sg::SignalId, Dir)> = check
            .sg()
            .non_input_signals()
            .iter()
            .flat_map(|&a| [(a, Dir::Rise), (a, Dir::Fall)])
            .collect();
        // Each function's search walks the state set a bounded number of
        // times; states × functions approximates the total work well
        // enough to keep suite-sized reports inline.
        let work = check.sg().state_count() as u64 * functions.len() as u64;
        let entries =
            parallel_map_sized(&functions, self.threads, work, |&(a, dir)| crate::cover::McEntry {
                signal: a,
                dir,
                result: check.function_cover(a, dir),
            });
        McReport::from_entries(entries)
    }

    /// [`synthesize`](crate::synth::synthesize) with the function covers
    /// computed concurrently (and, unlike the sequential path, computed
    /// once rather than once for the report and once for the netlist).
    ///
    /// # Errors
    ///
    /// Same conditions as sequential synthesis: output semi-modularity and
    /// the MC requirement.
    pub fn synthesize(&self, sg: &StateGraph, target: Target) -> Result<Implementation, McError> {
        let _span = simc_obs::span("synth");
        if !sg.analysis().is_output_semimodular() {
            return Err(McError::NotOutputSemimodular);
        }
        let check = McCheck::new(sg);
        let report = self.report(&check);
        if !report.satisfied() {
            return Err(McError::NotMonotonous { violations: report.violation_count() });
        }
        // Entries come in (signal; up, down) order — pair them back up.
        let mut covers = Vec::with_capacity(report.entries().len() / 2);
        let mut entries = report.entries().iter();
        while let (Some(up), Some(down)) = (entries.next(), entries.next()) {
            debug_assert_eq!(up.signal, down.signal);
            let set = up.result.clone().expect("satisfied report");
            let reset = down.result.clone().expect("satisfied report");
            covers.push((up.signal, set, reset));
        }
        Ok(build_from_covers(sg, covers, target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simc_benchmarks::figures;

    #[test]
    fn parallel_map_preserves_order() {
        // `parallel_map_exact` so the scoped-thread machinery actually
        // runs even on single-core machines (the public entry point
        // clamps to hardware parallelism).
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 8] {
            let out = parallel_map_exact(&items, threads, |&i| i * 2);
            assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_exact(&empty, 8, |&i| i).is_empty());
        assert_eq!(parallel_map_exact(&[7u32], 8, |&i| i + 1), vec![8]);
    }

    #[test]
    fn item_spans_nest_under_the_callers_span() {
        // Every item waits at a barrier until all three threads hold one,
        // so the caller and both workers each run an item.
        let barrier = std::sync::Barrier::new(3);
        simc_obs::set_stats(true);
        let scope = simc_obs::scope();
        let outer = simc_obs::span("map_caller");
        let threads = parallel_map_exact(&[0u8; 3], 3, |_| {
            barrier.wait();
            let span = simc_obs::span("map_item");
            simc_obs::add(simc_obs::Counter::PortfolioRaces, 1);
            span.finish();
            std::thread::current().id()
        });
        outer.finish();
        let counts = scope.finish();
        simc_obs::set_stats(false);
        let distinct: std::collections::HashSet<_> = threads.into_iter().collect();
        assert_eq!(distinct.len(), 3, "the caller and two workers each ran an item");
        let report = simc_obs::report();
        let nested = report.span("map_caller/map_item").expect("item spans nest");
        assert_eq!(nested.calls, 3);
        assert!(report.span("map_item").is_none(), "no item span is a root");
        let races = counts.iter().find(|&&(c, _)| c == simc_obs::Counter::PortfolioRaces);
        assert_eq!(races.map(|&(_, v)| v), Some(3), "the caller's scope saw every item");
    }

    #[test]
    fn sized_map_runs_small_work_inline() {
        // Below the inline threshold the sized variant must not spawn —
        // observable through identical results and no panics; above it,
        // it defers to `parallel_map`.
        let items: Vec<usize> = (0..10).collect();
        let small = parallel_map_sized(&items, 8, INLINE_WORK_UNITS - 1, |&i| i + 1);
        let large = parallel_map_sized(&items, 8, INLINE_WORK_UNITS, |&i| i + 1);
        assert_eq!(small, large);
    }

    #[test]
    fn parallel_report_matches_sequential() {
        for sg in [figures::toggle(), figures::c_element(), figures::figure1(), figures::figure3()] {
            let check = McCheck::new(&sg);
            let sequential = check.report();
            for threads in [1, 2, 8] {
                let parallel = ParallelSynth::new(threads).report(&check);
                assert_eq!(parallel, sequential, "{threads} threads");
            }
        }
    }

    #[test]
    fn parallel_synthesis_matches_sequential() {
        for sg in [figures::toggle(), figures::c_element(), figures::figure3()] {
            let sequential = crate::synth::synthesize(&sg, Target::CElement).unwrap();
            for threads in [1, 2, 8] {
                let parallel =
                    ParallelSynth::new(threads).synthesize(&sg, Target::CElement).unwrap();
                assert_eq!(parallel.equations(), sequential.equations());
            }
        }
    }

    #[test]
    fn parallel_synthesis_refuses_what_sequential_refuses() {
        let sg = figures::figure1();
        let err = ParallelSynth::new(4).synthesize(&sg, Target::CElement).unwrap_err();
        assert!(matches!(err, McError::NotMonotonous { .. }));
    }
}
