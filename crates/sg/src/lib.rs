//! State graphs for speed-independent circuit synthesis.
//!
//! A *state graph* (SG) is the fundamental structure for representing
//! asynchronous circuit behaviour in the theory of Kondratyev, Kishinevsky,
//! Lin, Vanbekbergen and Yakovlev, *"Basic Gate Implementation of
//! Speed-Independent Circuits"* (DAC 1994). This crate provides:
//!
//! * the SG model itself — signals, binary-encoded states, single-signal
//!   transitions under the interleaved concurrency model
//!   ([`StateGraph`], [`SgBuilder`]);
//! * the paper's *starred-code* notation (`0*0*00`, `100*0*`, …) used to
//!   print SGs in its figures ([`StateGraph::from_starred_codes`]);
//! * behavioural analysis — conflict and detonant states, (output)
//!   semi-modularity, distributivity, persistency, Complete State Coding
//!   ([`props`]);
//! * region analysis — excitation regions, quiescent regions,
//!   constant-function regions, minimal states, unique entry, trigger
//!   signals, ordered/concurrent signals ([`regions`]).
//!
//! # Example
//!
//! Rebuild the SG of Figure 1 of the paper and ask basic questions about it:
//!
//! ```
//! use simc_sg::{SignalKind, StateGraph};
//!
//! # fn main() -> Result<(), simc_sg::SgError> {
//! let sg = StateGraph::from_starred_codes(
//!     &[("a", SignalKind::Input), ("b", SignalKind::Input),
//!       ("c", SignalKind::Output), ("d", SignalKind::Output)],
//!     &["0*0*00", "100*0*", "010*0", "1*010*", "100*1", "0*110",
//!       "1*0*11", "1110*", "1*111", "011*1", "01*01", "0001*",
//!       "0010*", "00*11"],
//!     "0*0*00",
//! )?;
//! assert_eq!(sg.state_count(), 14);
//! assert!(!sg.analysis().is_semimodular());       // input conflict in 0*0*00
//! assert!(sg.analysis().is_output_semimodular()); // but outputs never disabled
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod bitset;
mod code;
pub mod equiv;
mod error;
mod graph;
pub mod io;
pub mod props;
pub mod regions;
mod signal;

pub use arena::{ArenaKey, StateArena};
pub use bitset::{BitSet, BitSlice};
pub use code::StateCode;
pub use error::SgError;
pub use graph::{SgBuilder, StateGraph, StateId};
pub use io::{canonical_graph, canonical_sg, parse_sg, write_sg};
pub use props::Analysis;
pub use regions::{ErId, ExcitationRegion, Regions};
pub use signal::{Dir, Signal, SignalId, SignalKind, Transition};
