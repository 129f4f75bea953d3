//! Interchange formats behind one `Format` registry.
//!
//! The synthesis pipeline produces two artifact kinds — state graphs and
//! gate-level netlists — and until now each exporter (`--dot`, the
//! Verilog backend, the canonical `.sg` serializer) grew its own ad-hoc
//! CLI plumbing. This crate centralizes *interchange*: every textual
//! format the tool can emit or read implements [`Format`] and registers
//! in one static table, so the CLI (`simc convert --list`), the daemon
//! (`GET /v1/formats`), cache keys and tests all enumerate the same
//! source of truth.
//!
//! Formats shipped:
//!
//! * **`sg`** — the native state-graph text form; the identity format.
//!   Emission is [`simc_sg::canonical_sg`] under the fixed
//!   [`CANONICAL_MODEL`] name, so emitted bytes double as cache-key
//!   material.
//! * **`edif`** — EDIF 2.0.0 netlists, writer *and* reader
//!   ([`write_edif`] / [`read_edif`]), with typed, line-numbered
//!   [`EdifError`]s. The round-trip contract is byte equality of
//!   [`canonical_netlist`] forms.
//! * **`spice`** — a behavioural SPICE deck, one subcircuit per cell
//!   ([`write_spice`]). Emit-only.
//! * **`dot`** — Graphviz, for both artifact kinds. Emit-only.
//! * **`verilog`** — structural Verilog netlists: the asynchronous
//!   primitive library followed by one `simc_top` module
//!   ([`simc_netlist::to_verilog`]). Emit-only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod edif;
mod error;
pub mod sexpr;
mod spice;

pub use canon::canonical_netlist;
pub use edif::{read_edif, write_edif};
pub use error::{EdifError, FormatError};
pub use spice::write_spice;

use simc_cache::{key_of, lookup, store, Cache};
use simc_netlist::Netlist;
use simc_obs::{add, Counter};
use simc_sg::{canonical_sg, parse_sg, StateGraph};

/// The model name used whenever a state graph is serialized for
/// interchange or cache keying, making canonical bytes independent of
/// the spec's own title line.
pub const CANONICAL_MODEL: &str = "simc_canonical";

/// A borrowed pipeline artifact handed to [`Format::emit`].
#[derive(Clone, Copy)]
pub enum Artifact<'a> {
    /// A (canonicalized or raw) state graph.
    Sg(&'a StateGraph),
    /// A synthesized gate-level netlist.
    Netlist(&'a Netlist),
}

/// An owned artifact produced by [`Format::parse`].
pub enum Parsed {
    /// The text described a state graph.
    Sg(Box<StateGraph>),
    /// The text described a netlist.
    Netlist(Box<Netlist>),
}

/// Which artifact kind a format primarily describes — this decides how
/// far the pipeline must run before the format can emit (state graphs
/// come from elaboration, netlists require synthesis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// The format serializes state graphs.
    StateGraph,
    /// The format serializes gate-level netlists.
    Netlist,
}

impl SourceKind {
    /// The stable name used in listings (`state-graph` / `netlist`).
    pub fn name(self) -> &'static str {
        match self {
            SourceKind::StateGraph => "state-graph",
            SourceKind::Netlist => "netlist",
        }
    }
}

/// One interchange format: a stable id, an emitter, optionally a parser.
///
/// Implementations are zero-sized and registered in [`all`]; everything
/// downstream (CLI flags, HTTP endpoints, cache-key material) derives
/// from this trait so adding a format is one registry entry.
pub trait Format: Sync {
    /// The stable identifier used by `--to`, URLs and cache keys.
    fn id(&self) -> &'static str;

    /// A one-line description for listings.
    fn description(&self) -> &'static str;

    /// The artifact kind this format serializes.
    fn source(&self) -> SourceKind;

    /// Serializes the artifact. Deterministic: equal artifacts produce
    /// equal bytes.
    ///
    /// # Errors
    ///
    /// [`FormatError::Unsupported`] when the artifact kind is not the
    /// format's [`Format::source`] (and the format cannot adapt), or a
    /// format-specific failure.
    fn emit(&self, artifact: &Artifact<'_>) -> Result<String, FormatError>;

    /// Reads the format back into an artifact, if supported.
    ///
    /// # Errors
    ///
    /// [`FormatError::Unsupported`] by default; parsing formats return
    /// their typed errors (e.g. [`EdifError`] with line numbers).
    fn parse(&self, text: &str) -> Result<Parsed, FormatError> {
        let _ = text;
        Err(FormatError::Unsupported { format: self.id(), operation: "parsing" })
    }

    /// Whether [`Format::parse`] is implemented.
    fn parses(&self) -> bool {
        false
    }
}

/// The native `.sg` state-graph text form (the identity format).
pub struct SgFormat;

impl Format for SgFormat {
    fn id(&self) -> &'static str {
        "sg"
    }

    fn description(&self) -> &'static str {
        "native state-graph text (canonical form)"
    }

    fn source(&self) -> SourceKind {
        SourceKind::StateGraph
    }

    fn emit(&self, artifact: &Artifact<'_>) -> Result<String, FormatError> {
        match artifact {
            Artifact::Sg(sg) => Ok(canonical_sg(sg, CANONICAL_MODEL)),
            Artifact::Netlist(_) => {
                Err(FormatError::Unsupported { format: "sg", operation: "emitting a netlist" })
            }
        }
    }

    fn parse(&self, text: &str) -> Result<Parsed, FormatError> {
        let sg = parse_sg(text)?;
        add(Counter::ConvertParses, 1);
        Ok(Parsed::Sg(Box::new(sg)))
    }

    fn parses(&self) -> bool {
        true
    }
}

/// EDIF 2.0.0 netlists (writer and reader).
pub struct EdifFormat;

impl Format for EdifFormat {
    fn id(&self) -> &'static str {
        "edif"
    }

    fn description(&self) -> &'static str {
        "EDIF 2.0.0 netlist (read/write)"
    }

    fn source(&self) -> SourceKind {
        SourceKind::Netlist
    }

    fn emit(&self, artifact: &Artifact<'_>) -> Result<String, FormatError> {
        match artifact {
            Artifact::Netlist(nl) => write_edif(nl),
            Artifact::Sg(_) => Err(FormatError::Unsupported {
                format: "edif",
                operation: "emitting a state graph (synthesize first)",
            }),
        }
    }

    fn parse(&self, text: &str) -> Result<Parsed, FormatError> {
        let nl = read_edif(text)?;
        add(Counter::ConvertParses, 1);
        Ok(Parsed::Netlist(Box::new(nl)))
    }

    fn parses(&self) -> bool {
        true
    }
}

/// Behavioural SPICE decks (emit-only).
pub struct SpiceFormat;

impl Format for SpiceFormat {
    fn id(&self) -> &'static str {
        "spice"
    }

    fn description(&self) -> &'static str {
        "behavioural SPICE deck (write-only)"
    }

    fn source(&self) -> SourceKind {
        SourceKind::Netlist
    }

    fn emit(&self, artifact: &Artifact<'_>) -> Result<String, FormatError> {
        match artifact {
            Artifact::Netlist(nl) => Ok(write_spice(nl)),
            Artifact::Sg(_) => Err(FormatError::Unsupported {
                format: "spice",
                operation: "emitting a state graph (synthesize first)",
            }),
        }
    }
}

/// Graphviz `dot`, for state graphs and netlists alike (emit-only).
pub struct DotFormat;

impl Format for DotFormat {
    fn id(&self) -> &'static str {
        "dot"
    }

    fn description(&self) -> &'static str {
        "Graphviz dot, state graphs and netlists (write-only)"
    }

    fn source(&self) -> SourceKind {
        SourceKind::Netlist
    }

    fn emit(&self, artifact: &Artifact<'_>) -> Result<String, FormatError> {
        Ok(match artifact {
            Artifact::Sg(sg) => sg.to_dot(),
            Artifact::Netlist(nl) => nl.to_dot(),
        })
    }
}

/// Structural Verilog: the primitive library, then the netlist as
/// module `simc_top` (emit-only).
pub struct VerilogFormat;

impl Format for VerilogFormat {
    fn id(&self) -> &'static str {
        "verilog"
    }

    fn description(&self) -> &'static str {
        "structural Verilog netlist with its primitive library (write-only)"
    }

    fn source(&self) -> SourceKind {
        SourceKind::Netlist
    }

    fn emit(&self, artifact: &Artifact<'_>) -> Result<String, FormatError> {
        match artifact {
            Artifact::Netlist(nl) => {
                Ok(simc_netlist::primitive_library() + &simc_netlist::to_verilog(nl, "simc_top"))
            }
            Artifact::Sg(_) => Err(FormatError::Unsupported {
                format: "verilog",
                operation: "emitting a state graph (synthesize first)",
            }),
        }
    }
}

/// The format registry: one entry per shipped format, in listing order.
const REGISTRY: &[&dyn Format] = &[
    &SgFormat,
    &EdifFormat,
    &SpiceFormat,
    &DotFormat,
    &VerilogFormat,
];

/// All registered formats, in listing order.
pub fn all() -> &'static [&'static dyn Format] {
    REGISTRY
}

/// Looks a format up by its stable id.
///
/// # Errors
///
/// [`FormatError::UnknownFormat`] when no format has that id.
pub fn by_id(id: &str) -> Result<&'static dyn Format, FormatError> {
    REGISTRY
        .iter()
        .copied()
        .find(|f| f.id() == id)
        .ok_or_else(|| FormatError::UnknownFormat(id.to_string()))
}

/// The deterministic JSON listing of the registry — byte-identical
/// between `simc convert --list` and the daemon's `GET /v1/formats`.
pub fn listing_json() -> String {
    let mut out = String::from("{\n  \"formats\": [\n");
    for (i, format) in REGISTRY.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"source\": \"{}\", \"parses\": {}, \"description\": \"{}\"}}{}\n",
            format.id(),
            format.source().name(),
            format.parses(),
            format.description(),
            if i + 1 < REGISTRY.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A cheap sniff for EDIF input: the only accepted spec syntaxes (`.sg`
/// text, STG `.g` text) never start with `(`.
pub fn looks_like_edif(text: &str) -> bool {
    text.trim_start().starts_with('(')
}

/// Parses `input` with `from` and re-emits it with `to`, memoizing the
/// result in `cache` under the `convert.v1` domain (keyed on the raw
/// input bytes and both format ids, so any textual change re-converts).
///
/// This is the conversion path for inputs that are already netlists
/// (EDIF): no pipeline run is needed, and a warm cache answers without
/// parsing at all.
///
/// # Errors
///
/// Parse errors from `from`, or [`FormatError::Unsupported`] when `to`
/// cannot emit the parsed artifact kind.
pub fn reemit_cached(
    cache: Option<&dyn Cache>,
    input: &str,
    from: &dyn Format,
    to: &dyn Format,
) -> Result<String, FormatError> {
    let key = key_of(
        simc_cache::domains::CONVERT,
        &[input.as_bytes(), from.id().as_bytes(), to.id().as_bytes(), b"parse"],
    );
    if let Some(cache) = cache {
        if let Some(bytes) = lookup(cache, &key) {
            if let Ok(text) = String::from_utf8(bytes) {
                return Ok(text);
            }
        }
    }
    let parsed = from.parse(input)?;
    let artifact = match &parsed {
        Parsed::Sg(sg) => Artifact::Sg(sg),
        Parsed::Netlist(nl) => Artifact::Netlist(nl),
    };
    let text = to.emit(&artifact)?;
    add(Counter::ConvertEmits, 1);
    add(Counter::ConvertBytesEmitted, text.len() as u64);
    if let Some(cache) = cache {
        store(cache, &key, text.as_bytes());
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simc_cache::MemCache;

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let ids: Vec<&str> = all().iter().map(|f| f.id()).collect();
        assert_eq!(ids, ["sg", "edif", "spice", "dot", "verilog"]);
        for id in ids {
            assert_eq!(by_id(id).unwrap().id(), id);
        }
        assert!(matches!(by_id("vhdl"), Err(FormatError::UnknownFormat(_))));
    }

    #[test]
    fn listing_names_every_format_once() {
        let listing = listing_json();
        for format in all() {
            assert_eq!(
                listing.matches(&format!("\"id\": \"{}\"", format.id())).count(),
                1,
                "{listing}"
            );
        }
        assert!(listing.ends_with("}\n"), "{listing}");
        assert!(listing.contains("\"parses\": true"), "{listing}");
        assert!(listing.contains("\"parses\": false"), "{listing}");
    }

    #[test]
    fn edif_reemission_is_cached_and_stable() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.drive_gate(y, simc_netlist::GateKind::Not, &[a]).unwrap();
        nl.bind_output("y", y).unwrap();
        let edif = write_edif(&nl).unwrap();

        let cache = MemCache::new(1 << 16);
        let first = reemit_cached(Some(&cache), &edif, &EdifFormat, &EdifFormat).unwrap();
        assert_eq!(first, edif);
        let second = reemit_cached(Some(&cache), &edif, &EdifFormat, &EdifFormat).unwrap();
        assert_eq!(second, edif);
        // Cross-format conversion from a parsed EDIF works too.
        let deck = reemit_cached(Some(&cache), &edif, &EdifFormat, &SpiceFormat).unwrap();
        assert!(deck.contains(".subckt INV"), "{deck}");
    }

    #[test]
    fn sg_emit_rejects_netlists_with_a_typed_error() {
        let nl = Netlist::new();
        assert!(matches!(
            SgFormat.emit(&Artifact::Netlist(&nl)),
            Err(FormatError::Unsupported { format: "sg", .. })
        ));
        assert!(matches!(
            SpiceFormat.parse("x"),
            Err(FormatError::Unsupported { format: "spice", .. })
        ));
    }

    #[test]
    fn verilog_emits_the_library_then_the_top_module() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.drive_gate(y, simc_netlist::GateKind::Not, &[a]).unwrap();
        nl.bind_output("y", y).unwrap();
        let text = VerilogFormat.emit(&Artifact::Netlist(&nl)).unwrap();
        assert_eq!(
            text,
            simc_netlist::primitive_library() + &simc_netlist::to_verilog(&nl, "simc_top")
        );
        let sg = parse_sg(".inputs a\n.state graph\ns0 a+ s1\ns1 a- s0\n.marking {s0}\n").unwrap();
        assert!(matches!(
            VerilogFormat.emit(&Artifact::Sg(&sg)),
            Err(FormatError::Unsupported {
                format: "verilog",
                ..
            })
        ));
    }
}
