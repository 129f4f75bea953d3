//! Typed staged front end for the DAC'94 synthesis flow.
//!
//! [`Pipeline`] is the supported way to drive the pipeline end to end:
//!
//! ```
//! use simc_pipeline::Pipeline;
//!
//! # fn main() -> Result<(), simc_pipeline::Error> {
//! let sg = simc_benchmarks::figures::toggle();
//! let mut pipeline = Pipeline::from_sg(sg).with_threads(2);
//! let covered = pipeline.covered()?;
//! assert!(covered.report().satisfied());
//! let verified = pipeline.verified()?;
//! assert!(verified.is_ok());
//! # Ok(())
//! # }
//! ```
//!
//! The stages form a chain of typed artifacts — [`Elaborated`] →
//! [`Regioned`] → [`Covered`] → [`Implemented`] → [`Verified`] — and each
//! runs **at most once per session**: asking for a later stage computes
//! and memoizes every earlier one, and asking again returns the stored
//! artifact. With [`Pipeline::with_cache`] the expensive stages are
//! additionally memoized *across* sessions in a content-addressed
//! [`Cache`]: elaboration, the region bundle, the
//! minimized per-signal covers of the MC report, MC-reduction and the
//! verification verdict. Keys hash the **canonical** serialized input
//! plus the stage options, so isomorphic inputs share artifacts and
//! cached and uncached runs produce byte-identical results at any thread
//! count. Elaboration builds the canonical graph in memory
//! ([`simc_sg::canonical_graph`]); its `.sg` text
//! ([`simc_sg::canonical_sg`]) is rendered only when a cache needs keys
//! or a caller asks for it, and text is parsed back only to revive a
//! cached graph.
//!
//! The older per-crate entry points (`simc_mc::synth::synthesize`,
//! `simc_netlist::verify`, …) remain supported; the pipeline is a thin
//! orchestration layer over them plus the cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;

use std::sync::{Arc, OnceLock};

use simc_cache::{domains, Cache, Key, KeyHasher};
use simc_formats::{Artifact, SourceKind, CANONICAL_MODEL};
use simc_mc::assign::{reduce_to_mc, ReduceOptions};
use simc_mc::parallel::ParallelSynth;
use simc_mc::synth::{build_from_covers, Implementation, Target};
use simc_mc::{McCheck, McReport};
use simc_netlist::{verify, Netlist, VerifyOptions};
use simc_sg::{canonical_graph, parse_sg, write_sg, Regions, StateGraph};

pub use error::{Error, ErrorKind};

/// What the pipeline was constructed from.
enum Source {
    /// Raw `.g` (STG) or `.sg` text, auto-detected.
    Text(String),
    /// An in-memory state graph.
    Sg(StateGraph),
}

/// A canonical state graph and its `.sg` text, rendered on first use.
#[derive(Debug)]
struct Canonical {
    sg: StateGraph,
    text: OnceLock<String>,
}

impl Canonical {
    /// Wraps a graph already in canonical form.
    fn new(sg: StateGraph) -> Arc<Self> {
        Arc::new(Canonical { sg, text: OnceLock::new() })
    }

    /// Wraps a graph revived from its canonical text.
    fn revived(sg: StateGraph, text: String) -> Arc<Self> {
        Arc::new(Canonical { sg, text: OnceLock::from(text) })
    }

    /// The canonical text: `write_sg` of a canonical graph is its
    /// `canonical_sg`.
    fn text(&self) -> &str {
        self.text.get_or_init(|| write_sg(&self.sg, CANONICAL_MODEL))
    }
}

/// The elaborated state space: a canonical state graph.
///
/// All later stages (and all cache keys) are expressed relative to the
/// canonical numbering, so a pipeline fed equivalent inputs — the same
/// `.g` text, the reparsed output of a previous run, an isomorphic
/// in-memory graph — lands on the same artifacts.
#[derive(Debug)]
pub struct Elaborated {
    canonical: Arc<Canonical>,
}

impl Elaborated {
    /// The canonical state graph.
    pub fn sg(&self) -> &StateGraph {
        &self.canonical.sg
    }

    /// The canonical `.sg` serialization (the bytes cache keys hash),
    /// rendered on the first call unless a cache already needed it.
    pub fn canonical_text(&self) -> &str {
        self.canonical.text()
    }
}

/// The region decomposition of the elaborated graph.
#[derive(Debug)]
pub struct Regioned {
    regions: Regions,
}

impl Regioned {
    /// The ER/QR/CFR bundle.
    pub fn regions(&self) -> &Regions {
        &self.regions
    }
}

/// The monotonous-cover check of the elaborated graph: minimized
/// per-signal covers or the per-region failures.
#[derive(Debug)]
pub struct Covered {
    report: McReport,
}

impl Covered {
    /// The MC report.
    pub fn report(&self) -> &McReport {
        &self.report
    }
}

/// The synthesized implementation.
///
/// When the elaborated graph violates the MC requirement the pipeline
/// first runs MC-reduction (state-signal insertion) and synthesizes from
/// the reduced graph; [`Implemented::working_sg`] is the graph the
/// netlist actually implements.
#[derive(Debug)]
pub struct Implemented {
    implementation: Implementation,
    netlist: Netlist,
    /// The elaborated graph itself when nothing was inserted.
    working: Arc<Canonical>,
    working_report: McReport,
    added: usize,
    reduce_log: Vec<String>,
}

impl Implemented {
    /// The gate-level implementation (equations, networks).
    pub fn implementation(&self) -> &Implementation {
        &self.implementation
    }

    /// The flat netlist of the implementation.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The (possibly reduced) graph the netlist implements.
    pub fn working_sg(&self) -> &StateGraph {
        &self.working.sg
    }

    /// Canonical serialization of [`Implemented::working_sg`], rendered
    /// on the first call unless a cache already needed it.
    pub fn working_canonical_text(&self) -> &str {
        self.working.text()
    }

    /// The (satisfied) MC report of [`Implemented::working_sg`] whose
    /// covers the implementation was built from.
    pub fn working_report(&self) -> &McReport {
        &self.working_report
    }

    /// Number of state signals MC-reduction inserted (0 when the input
    /// already satisfied the MC requirement).
    pub fn added_signals(&self) -> usize {
        self.added
    }

    /// One log line per insertion performed by MC-reduction.
    pub fn reduce_log(&self) -> &[String] {
        &self.reduce_log
    }
}

/// The speed-independence verification verdict.
///
/// Violation descriptions are pre-rendered strings so a verdict revived
/// from the cache prints byte-identically to a freshly computed one.
#[derive(Debug)]
pub struct Verified {
    ok: bool,
    explored: usize,
    violations: Vec<String>,
}

impl Verified {
    /// Whether the implementation is hazard-free.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Composed states explored by the verifier.
    pub fn explored(&self) -> usize {
        self.explored
    }

    /// Human-readable descriptions of each violation found.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// The staged synthesis driver. See the [crate docs](crate) for the
/// stage chain and caching semantics.
pub struct Pipeline {
    source: Option<Source>,
    threads: usize,
    cache: Option<Arc<dyn Cache>>,
    target: Target,
    reduce_options: ReduceOptions,
    verify_options: VerifyOptions,
    deadline: Option<std::time::Instant>,
    elaborated: Option<Elaborated>,
    regioned: Option<Regioned>,
    covered: Option<Covered>,
    implemented: Option<Implemented>,
    verified: Option<Verified>,
}

impl Pipeline {
    fn new(source: Source) -> Self {
        Pipeline {
            source: Some(source),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache: None,
            target: Target::CElement,
            reduce_options: ReduceOptions::default(),
            verify_options: VerifyOptions::default(),
            deadline: None,
            elaborated: None,
            regioned: None,
            covered: None,
            implemented: None,
            verified: None,
        }
    }

    /// Starts a pipeline from an in-memory state graph.
    pub fn from_sg(sg: StateGraph) -> Self {
        Pipeline::new(Source::Sg(sg))
    }

    /// Starts a pipeline from specification text: an STG in `.g` format
    /// or a state graph in `.sg` format, auto-detected via the
    /// `.state graph` section marker. Parsing and reachability run at
    /// [`Pipeline::elaborated`] time (and are cache-memoized).
    pub fn from_text(text: impl Into<String>) -> Self {
        Pipeline::new(Source::Text(text.into()))
    }

    /// Sets the worker-thread count for the cover search and for the
    /// MC-reduction's beam search (results are byte-identical for every
    /// thread count). The default is the machine's available
    /// parallelism; callers that already run pipelines side by side (the
    /// `simc serve` pool, `simc batch`, the fuzz oracle) pin it to 1.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a content-addressed artifact cache shared with other
    /// pipelines (and, with a disk backend, other processes).
    pub fn with_cache(mut self, cache: Arc<dyn Cache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Selects the latch style of the implementation (default:
    /// [`Target::CElement`]).
    pub fn with_target(mut self, target: Target) -> Self {
        self.target = target;
        self
    }

    /// Overrides the MC-reduction search budgets. Their `threads` field
    /// is ignored: the reduction runs on [`Pipeline::with_threads`]'s
    /// count.
    pub fn with_reduce_options(mut self, options: ReduceOptions) -> Self {
        self.reduce_options = options;
        self
    }

    /// Overrides the verifier's exploration budgets.
    pub fn with_verify_options(mut self, options: VerifyOptions) -> Self {
        self.verify_options = options;
        self
    }

    /// Sets a wall-clock deadline checked before every not-yet-memoized
    /// stage. A stage whose turn comes after the deadline fails with
    /// [`Error::DeadlineExceeded`] ([`ErrorKind::ResourceLimit`]) —
    /// the same refusal contract as the search budgets, so callers like
    /// `simc serve` map both onto one overload-shedding status. Already
    /// computed stages keep returning their artifacts; a stage that
    /// *started* before the deadline runs to completion (the check is a
    /// between-stage barrier, not preemption).
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fails with [`Error::DeadlineExceeded`] when a deadline is set and
    /// already past; called in front of each uncomputed stage.
    fn check_deadline(&self, stage: &'static str) -> Result<(), Error> {
        match self.deadline {
            Some(deadline) if std::time::Instant::now() >= deadline => {
                Err(Error::DeadlineExceeded { stage })
            }
            _ => Ok(()),
        }
    }

    /// Stage 1 — parse (if text) and elaborate the state space, then
    /// canonicalize in memory. For text sources the elaboration result
    /// is cached under a hash of the raw input bytes, as canonical text
    /// that a hit parses back.
    pub fn elaborated(&mut self) -> Result<&Elaborated, Error> {
        if self.elaborated.is_none() {
            self.check_deadline("elaborate")?;
            let source = self.source.as_ref().expect("source present until elaborated");
            let canonical = match source {
                Source::Sg(sg) => Canonical::new(canonical_graph(sg)),
                Source::Text(text) => memoized(
                    self.cache.as_deref(),
                    || simc_cache::key_of(domains::ELABORATE, &[text.as_bytes()]),
                    |bytes| {
                        let text = codec::decode_sg_text(bytes)?;
                        Some(Canonical::revived(parse_sg(&text).ok()?, text))
                    },
                    || Ok(Canonical::new(canonical_graph(&elaborate_text(text)?))),
                    |canonical| canonical.text().as_bytes().to_vec(),
                )?,
            };
            self.source = None;
            self.elaborated = Some(Elaborated { canonical });
        }
        Ok(self.elaborated.as_ref().expect("just elaborated"))
    }

    /// Stage 2 — the region decomposition (cached).
    pub fn regioned(&mut self) -> Result<&Regioned, Error> {
        if self.regioned.is_none() {
            self.elaborated()?;
            self.check_deadline("regions")?;
            let elaborated = self.elaborated.as_ref().expect("elaborated");
            let sg = elaborated.sg();
            let regions = memoized(
                self.cache.as_deref(),
                || simc_cache::key_of(domains::REGIONS, &[elaborated.canonical_text().as_bytes()]),
                |bytes| Regions::from_cache_bytes(bytes, sg.state_count(), sg.signal_count()),
                || Ok(sg.regions()),
                Regions::to_cache_bytes,
            )?;
            self.regioned = Some(Regioned { regions });
        }
        Ok(self.regioned.as_ref().expect("just regioned"))
    }

    /// Stage 3 — the monotonous-cover check with minimized per-signal
    /// covers (cached; thread-count-invariant).
    pub fn covered(&mut self) -> Result<&Covered, Error> {
        if self.covered.is_none() {
            self.regioned()?;
            self.check_deadline("cover")?;
            let elaborated = self.elaborated.as_ref().expect("elaborated");
            let regions = &self.regioned.as_ref().expect("regioned").regions;
            let report = report_for(
                &elaborated.canonical,
                Some(regions),
                self.threads,
                self.cache.as_deref(),
            )?;
            self.covered = Some(Covered { report });
        }
        Ok(self.covered.as_ref().expect("just covered"))
    }

    /// Stage 4 — synthesis: MC-reduce if required, then build the
    /// standard implementation from the (cached) covers.
    pub fn implemented(&mut self) -> Result<&Implemented, Error> {
        if self.implemented.is_none() {
            self.covered()?;
            self.check_deadline("implement")?;
            let elaborated = self.elaborated.as_ref().expect("elaborated");
            let report = &self.covered.as_ref().expect("covered").report;
            let (working, added, reduce_log, working_report) = if report.satisfied() {
                (Arc::clone(&elaborated.canonical), 0, Vec::new(), report.clone())
            } else {
                let (working, added, log) = self.reduce_stage()?;
                let report = report_for(&working, None, self.threads, self.cache.as_deref())?;
                if !report.satisfied() {
                    return Err(Error::Mc(simc_mc::McError::NotMonotonous {
                        violations: report.violation_count(),
                    }));
                }
                (working, added, log, report)
            };
            let implementation =
                implementation_from_report(&working.sg, &working_report, self.target);
            let netlist = implementation.to_netlist().map_err(Error::Mc)?;
            self.implemented = Some(Implemented {
                implementation,
                netlist,
                working,
                working_report,
                added,
                reduce_log,
            });
        }
        Ok(self.implemented.as_ref().expect("just implemented"))
    }

    /// Stage 5 — exhaustive speed-independence verification of the
    /// implementation against its working graph (verdict cached).
    pub fn verified(&mut self) -> Result<&Verified, Error> {
        if self.verified.is_none() {
            self.implemented()?;
            self.check_deadline("verify")?;
            let implemented = self.implemented.as_ref().expect("implemented");
            let (netlist, working) = (&implemented.netlist, implemented.working_sg());
            let options = self.verify_options;
            let verified = memoized(
                self.cache.as_deref(),
                || {
                    let mut hasher = KeyHasher::new(domains::VERDICT);
                    hasher.update(implemented.working_canonical_text().as_bytes());
                    hasher.update(target_tag(self.target).as_bytes());
                    hasher.update_u64(options.max_states as u64);
                    hasher.update_u64(options.max_violations as u64);
                    hasher.update_u64(u64::from(options.flag_clashes));
                    hasher.update_u64(u64::from(options.reduction));
                    hasher.finish()
                },
                |bytes| {
                    codec::decode_verdict(bytes)
                        .map(|(ok, explored, violations)| Verified { ok, explored, violations })
                },
                || {
                    let report = verify(netlist, working, options).map_err(Error::Netlist)?;
                    let violations = report
                        .violations
                        .iter()
                        .map(|v| report.describe(netlist, working, v))
                        .collect();
                    Ok(Verified { ok: report.is_ok(), explored: report.explored, violations })
                },
                |verified| {
                    codec::encode_verdict(verified.ok, verified.explored, &verified.violations)
                },
            )?;
            self.verified = Some(verified);
        }
        Ok(self.verified.as_ref().expect("just verified"))
    }

    /// Emits the pipeline's artifact in a registered interchange format
    /// (see `simc_formats::all`), running only the stages the format
    /// needs: state-graph formats stop after elaboration, netlist
    /// formats run synthesis. The converted text is cached under the
    /// `convert.v1` domain keyed on the canonical `.sg` bytes, the
    /// format id and the target, so a warm cache answers without
    /// synthesizing at all.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] ([`ErrorKind::Parse`]) for unknown format ids
    /// or unsupported directions, otherwise whatever the underlying
    /// stages fail with.
    pub fn converted(&mut self, format_id: &str) -> Result<String, Error> {
        let format = simc_formats::by_id(format_id).map_err(Error::Format)?;
        self.elaborated()?;
        self.check_deadline("convert")?;
        let elaborated = self.elaborated.as_ref().expect("elaborated");
        let keyed = self.cache.clone().map(|cache| {
            let key = simc_cache::key_of(
                domains::CONVERT,
                &[
                    elaborated.canonical_text().as_bytes(),
                    format.id().as_bytes(),
                    b"emit",
                    target_tag(self.target).as_bytes(),
                ],
            );
            (cache, key)
        });
        // Look up before deciding to synthesize: a warm cache must not
        // run the netlist stages at all.
        if let Some((cache, key)) = &keyed {
            if let Some(Ok(text)) = simc_cache::lookup(cache.as_ref(), key).map(String::from_utf8) {
                return Ok(text);
            }
        }
        let text = match format.source() {
            SourceKind::StateGraph => {
                let elaborated = self.elaborated.as_ref().expect("elaborated");
                format.emit(&Artifact::Sg(elaborated.sg())).map_err(Error::Format)?
            }
            SourceKind::Netlist => {
                let netlist = self.implemented()?.netlist();
                format.emit(&Artifact::Netlist(netlist)).map_err(Error::Format)?
            }
        };
        simc_obs::add(simc_obs::Counter::ConvertEmits, 1);
        simc_obs::add(simc_obs::Counter::ConvertBytesEmitted, text.len() as u64);
        if let Some((cache, key)) = &keyed {
            simc_cache::store(cache.as_ref(), key, text.as_bytes());
        }
        Ok(text)
    }

    /// The MC-reduction sub-stage of [`Pipeline::implemented`] (cached):
    /// the canonical reduced graph, the insertion count and the log.
    fn reduce_stage(&self) -> Result<(Arc<Canonical>, usize, Vec<String>), Error> {
        let elaborated = self.elaborated.as_ref().expect("elaborated");
        let opts = ReduceOptions { threads: self.threads, ..self.reduce_options };
        memoized(
            self.cache.as_deref(),
            || {
                let mut hasher = KeyHasher::new(domains::REDUCE);
                hasher.update(elaborated.canonical_text().as_bytes());
                for field in [opts.max_signals, opts.max_candidates, opts.beam_width, opts.branch] {
                    hasher.update_u64(field as u64);
                }
                hasher.finish()
            },
            |bytes| {
                let (text, added, log) = codec::decode_reduce(bytes)?;
                Some((Canonical::revived(parse_sg(&text).ok()?, text), added, log))
            },
            || {
                let result = reduce_to_mc(elaborated.sg(), opts).map_err(Error::Mc)?;
                // Work in the canonical numbering, like every other stage.
                Ok((Canonical::new(canonical_graph(&result.sg)), result.added, result.log))
            },
            |(working, added, log)| codec::encode_reduce(working.text(), *added, log),
        )
    }
}

/// Revives a stage artifact from `cache` or computes it, storing what
/// it computes. Without a cache the key is never built: keys hash
/// canonical text, which an uncached pipeline never renders.
fn memoized<T>(
    cache: Option<&dyn Cache>,
    key: impl FnOnce() -> Key,
    decode: impl FnOnce(&[u8]) -> Option<T>,
    compute: impl FnOnce() -> Result<T, Error>,
    encode: impl FnOnce(&T) -> Vec<u8>,
) -> Result<T, Error> {
    let Some(cache) = cache else {
        return compute();
    };
    let key = key();
    if let Some(value) = simc_cache::lookup(cache, &key).and_then(|bytes| decode(&bytes)) {
        return Ok(value);
    }
    let value = compute()?;
    simc_cache::store(cache, &key, &encode(&value));
    Ok(value)
}

/// Parses `.g`/`.sg` text and elaborates the state space.
fn elaborate_text(text: &str) -> Result<StateGraph, Error> {
    if text.contains(".state graph") {
        return parse_sg(text).map_err(Error::Sg);
    }
    let stg = simc_stg::parse_g(text).map_err(Error::Stg)?;
    stg.to_state_graph().map_err(Error::Stg)
}

/// Computes (or revives) the MC report of a canonical graph. `regions`
/// skips the decomposition when the caller already holds it; the report
/// itself is cached under a key independent of the thread count.
fn report_for(
    canonical: &Canonical,
    regions: Option<&Regions>,
    threads: usize,
    cache: Option<&dyn Cache>,
) -> Result<McReport, Error> {
    let sg = &canonical.sg;
    memoized(
        cache,
        || simc_cache::key_of(domains::MC_REPORT, &[canonical.text().as_bytes()]),
        |bytes| codec::decode_report(bytes, sg.state_count(), sg.signal_count()),
        || {
            let check = match regions {
                Some(regions) => McCheck::from_parts(sg, regions.clone()),
                None => McCheck::new(sg),
            };
            Ok(ParallelSynth::new(threads).report(&check))
        },
        codec::encode_report,
    )
}

/// Pairs the up/down entries of a satisfied report and builds the
/// implementation without re-running the cover search.
fn implementation_from_report(
    sg: &StateGraph,
    report: &McReport,
    target: Target,
) -> Implementation {
    let mut covers = Vec::with_capacity(report.entries().len() / 2);
    let mut entries = report.entries().iter();
    while let (Some(up), Some(down)) = (entries.next(), entries.next()) {
        debug_assert_eq!(up.signal, down.signal);
        let set = up.result.clone().expect("satisfied report");
        let reset = down.result.clone().expect("satisfied report");
        covers.push((up.signal, set, reset));
    }
    build_from_covers(sg, covers, target)
}

/// Stable tag naming a target in cache keys.
fn target_tag(target: Target) -> &'static str {
    match target {
        Target::CElement => "c-element",
        Target::RsLatch => "rs-latch",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simc_benchmarks::figures;

    #[test]
    fn stages_chain_and_memoize() {
        let mut pipeline = Pipeline::from_sg(figures::toggle());
        let canonical = pipeline.elaborated().expect("elaborates").canonical_text().to_string();
        assert!(pipeline.covered().expect("covers").report().satisfied());
        assert!(pipeline.verified().expect("verifies").is_ok());
        // Stage artifacts are memoized: the canonical text is stable.
        assert_eq!(pipeline.elaborated().expect("memoized").canonical_text(), canonical);
    }

    #[test]
    fn cached_run_matches_uncached_byte_for_byte() {
        let cache: Arc<dyn Cache> = Arc::new(simc_cache::MemCache::new(1 << 20));
        let sg = figures::figure4(); // violates MC -> exercises reduction
        let mut plain = Pipeline::from_sg(sg.clone());
        let mut cold = Pipeline::from_sg(sg.clone()).with_cache(Arc::clone(&cache));
        let mut warm = Pipeline::from_sg(sg).with_cache(Arc::clone(&cache));
        let equations = |p: &mut Pipeline| {
            let implemented = p.implemented().expect("implements");
            (
                implemented.implementation().equations(),
                implemented.added_signals(),
                p.verified().expect("verifies").is_ok(),
            )
        };
        let reference = equations(&mut plain);
        assert_eq!(equations(&mut cold), reference);
        assert_eq!(equations(&mut warm), reference);
    }

    #[test]
    fn text_and_sg_sources_share_canonical_form() {
        let sg = figures::figure1();
        let text = simc_sg::write_sg(&sg, "renamed_model");
        let mut from_sg = Pipeline::from_sg(sg);
        let mut from_text = Pipeline::from_text(text);
        assert_eq!(
            from_sg.elaborated().expect("sg").canonical_text(),
            from_text.elaborated().expect("text").canonical_text(),
        );
    }

    #[test]
    fn expired_deadline_is_a_resource_limit_refusal() {
        let mut pipeline = Pipeline::from_sg(figures::toggle())
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let err = pipeline.verified().expect_err("deadline already past");
        assert_eq!(err.kind(), ErrorKind::ResourceLimit);
        assert!(err.to_string().contains("deadline exceeded"), "{err}");
        // Already-memoized stages stay available after the refusal.
        let mut warm = Pipeline::from_sg(figures::toggle());
        warm.covered().expect("covers");
        let mut warm = warm
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        assert!(warm.covered().is_ok(), "memoized stage survives an expired deadline");
        assert!(warm.verified().is_err(), "uncomputed stage still refuses");
    }

    #[test]
    fn parse_errors_carry_parse_kind() {
        let mut pipeline = Pipeline::from_text(".model x\n.state graph\nbad line\n.end\n");
        let err = pipeline.elaborated().expect_err("malformed");
        assert_eq!(err.kind(), ErrorKind::Parse);
        assert!(err.to_string().contains("line"), "{err}");
    }
}
