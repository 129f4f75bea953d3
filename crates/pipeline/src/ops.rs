//! The operations of the flow, one function each: [`analyze`],
//! [`synth`], [`verify`] and [`convert`].
//!
//! `simc analyze|synth|verify|convert`, every `simc batch` job and every
//! `simc serve` endpoint run through these functions. Each runs the
//! stages its operation needs on a [`Pipeline`] and returns a typed
//! outcome holding everything any front end reports, so the front ends
//! only parse their input and render the outcome. A failure is the
//! pipeline [`Error`]; its [`ErrorKind`](crate::ErrorKind) carries the
//! exit code and HTTP status.

use simc_formats::{EdifFormat, Format};
use simc_netlist::NetlistStats;

use crate::{Error, Implemented, Pipeline, Verified};

/// The graph properties and the MC check of an elaborated spec: what
/// `analyze` reports.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// States of the elaborated graph.
    pub states: usize,
    /// Edges of the elaborated graph.
    pub edges: usize,
    /// Input signal names, in signal order.
    pub inputs: Vec<String>,
    /// Non-input signal names, in signal order.
    pub non_inputs: Vec<String>,
    /// Semi-modularity.
    pub semimodular: bool,
    /// Semi-modularity with respect to the non-input signals.
    pub output_semimodular: bool,
    /// Distributivity with respect to the non-input signals.
    pub output_distributive: bool,
    /// Complete state coding.
    pub csc: bool,
    /// Unique state coding.
    pub usc: bool,
    /// Number of excitation regions.
    pub excitation_regions: usize,
    /// Output persistency of the excitation regions.
    pub output_persistent: bool,
    /// Whether the graph satisfies the MC requirement as it stands.
    pub mc_satisfied: bool,
    /// The MC report rendered against the graph.
    pub mc_report: String,
}

/// What every front end counts of a synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// States of the elaborated graph.
    pub states: usize,
    /// Whether the elaborated graph satisfied the MC requirement before
    /// any state signal was inserted.
    pub mc_satisfied: bool,
    /// States of the graph the netlist implements.
    pub working_states: usize,
    /// State signals MC-reduction inserted.
    pub added_signals: usize,
    /// Product terms of the implementation.
    pub cubes: usize,
    /// Literals over those product terms.
    pub literals: u32,
    /// Gate counts of the netlist.
    pub gates: NetlistStats,
}

/// The standard implementation and its counts: what `synth` reports.
#[derive(Debug, Clone, Copy)]
pub struct Synthesis<'p> {
    /// The implementation, its netlist and the graph it implements.
    pub implemented: &'p Implemented,
    /// Its counts.
    pub counts: Counts,
}

/// The verdict on the standard implementation and its counts: what
/// `verify` reports.
#[derive(Debug, Clone, Copy)]
pub struct Verification<'p> {
    /// The verdict.
    pub verified: &'p Verified,
    /// The counts of the implementation it judges.
    pub counts: Counts,
}

/// Elaborates the spec, decomposes its regions and checks the MC
/// requirement.
///
/// # Errors
///
/// Whatever those stages fail with.
pub fn analyze(pipeline: &mut Pipeline) -> Result<Analysis, Error> {
    pipeline.covered()?;
    let sg = pipeline.elaborated.as_ref().expect("elaborated").sg();
    let regions = pipeline.regioned.as_ref().expect("regioned").regions();
    let report = pipeline.covered.as_ref().expect("covered").report();
    let names = |signals: Vec<_>| signals.into_iter().map(|s| sg.signal(s).name().to_string());
    let analysis = sg.analysis();
    Ok(Analysis {
        states: sg.state_count(),
        edges: sg.edge_count(),
        inputs: names(sg.input_signals()).collect(),
        non_inputs: names(sg.non_input_signals()).collect(),
        semimodular: analysis.is_semimodular(),
        output_semimodular: analysis.is_output_semimodular(),
        output_distributive: analysis.is_output_distributive(),
        csc: analysis.has_csc(),
        usc: analysis.has_usc(),
        excitation_regions: regions.er_count(),
        output_persistent: regions.is_output_persistent(sg),
        mc_satisfied: report.satisfied(),
        mc_report: report.render(sg),
    })
}

/// Builds the standard implementation, inserting state signals first
/// when the spec violates the MC requirement.
///
/// # Errors
///
/// Whatever the stages up to [`Pipeline::implemented`] fail with.
pub fn synth(pipeline: &mut Pipeline) -> Result<Synthesis<'_>, Error> {
    pipeline.implemented()?;
    let pipeline = &*pipeline;
    Ok(Synthesis { implemented: implemented(pipeline), counts: counts(pipeline) })
}

/// Builds the standard implementation (as [`synth`]) and verifies it
/// speed-independent against the graph it implements.
///
/// # Errors
///
/// Whatever the stages up to [`Pipeline::verified`] fail with. A
/// hazardous verdict is not an error: see [`Verified::failure_kind`].
pub fn verify(pipeline: &mut Pipeline) -> Result<Verification<'_>, Error> {
    pipeline.verified()?;
    let pipeline = &*pipeline;
    let verified = pipeline.verified.as_ref().expect("verified");
    Ok(Verification { verified, counts: counts(pipeline) })
}

/// Emits the pipeline's input in `format`. A spec runs the stages the
/// format needs ([`Pipeline::converted`]); an EDIF netlist (see
/// [`Pipeline::is_netlist`]) is parsed back and re-emitted without
/// synthesis.
///
/// # Errors
///
/// [`Error::Format`] for a malformed netlist or an unsupported
/// direction, otherwise whatever [`Pipeline::converted`] fails with.
pub fn convert(pipeline: &mut Pipeline, format: &dyn Format) -> Result<String, Error> {
    match pipeline.netlist_text() {
        Some(text) => {
            simc_formats::reemit_cached(pipeline.cache.as_deref(), text, &EdifFormat, format)
                .map_err(Error::Format)
        }
        None => pipeline.converted(format.id()),
    }
}

fn implemented(pipeline: &Pipeline) -> &Implemented {
    pipeline.implemented.as_ref().expect("implemented")
}

/// The counts of an implemented pipeline.
fn counts(pipeline: &Pipeline) -> Counts {
    let implemented = implemented(pipeline);
    let implementation = implemented.implementation();
    Counts {
        states: pipeline.elaborated.as_ref().expect("elaborated").sg().state_count(),
        mc_satisfied: pipeline.covered.as_ref().expect("covered").report().satisfied(),
        working_states: implemented.working_sg().state_count(),
        added_signals: implemented.added_signals(),
        cubes: implementation.cube_count(),
        literals: implementation.literal_count(),
        gates: implemented.netlist().stats(),
    }
}
