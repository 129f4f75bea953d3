//! The unified pipeline error: every per-crate error type behind one
//! `#[non_exhaustive]` enum with a stable [`ErrorKind`] and a full
//! `std::error::Error::source` chain.

use std::fmt;

use simc_cube::CoverError;
use simc_formats::FormatError;
use simc_mc::McError;
use simc_netlist::NetlistError;
use simc_sg::SgError;
use simc_stg::StgError;

/// Coarse, stable classification of a pipeline [`Error`].
///
/// Kinds are the supported way to branch on failures — callers match the
/// kind (exit codes, retry/skip policy) and render the error itself for
/// diagnostics. New kinds may be added; match with a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The input specification is malformed or semantically unusable
    /// (parse errors, inconsistent labelling, failed reachability). The
    /// CLI answers it as a usage failure (exit 2).
    Parse,
    /// Synthesis failed on a well-formed input: no speed-independent
    /// implementation exists or the search could not find one.
    Synthesis,
    /// The verifier could not run (distinct from a *negative verdict*,
    /// which [`crate::Verified`] reports as data, not as an error).
    Verification,
    /// A configured budget was exhausted (MC-reduction signal budget,
    /// verifier state budget). Retrying with larger budgets may succeed.
    ResourceLimit,
    /// An operating-system I/O failure.
    Io,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Synthesis => "synthesis",
            ErrorKind::Verification => "verification",
            ErrorKind::ResourceLimit => "resource limit",
            ErrorKind::Io => "io",
        };
        f.write_str(name)
    }
}

impl ErrorKind {
    /// The status table of the front ends: the `simc` exit code and the
    /// `simc serve` HTTP status that answer a failure of this kind. A
    /// hazardous verdict is answered as [`ErrorKind::Verification`]
    /// (see [`crate::Verified::failure_kind`]).
    fn codes(self) -> (u8, u16) {
        match self {
            ErrorKind::Parse => (2, 400),
            ErrorKind::Synthesis | ErrorKind::Verification => (1, 422),
            ErrorKind::ResourceLimit => (1, 429),
            ErrorKind::Io => (1, 500),
        }
    }

    /// The `simc` exit code of this kind.
    pub fn exit_code(self) -> u8 {
        self.codes().0
    }

    /// The `simc serve` HTTP status of this kind.
    pub fn http_status(self) -> u16 {
        self.codes().1
    }
}

/// Any failure of the staged pipeline.
///
/// Wraps the per-crate error types (`StgError`, `SgError`, `McError`,
/// `CoverError`, `NetlistError`) so callers handle one type with one
/// [`Error::kind`] policy while the original error stays reachable
/// through [`std::error::Error::source`] for diagnostics.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Signal-transition-graph parsing or reachability failure.
    Stg(StgError),
    /// State-graph parsing or construction failure.
    Sg(SgError),
    /// MC checking, reduction or synthesis failure.
    Mc(McError),
    /// Cover minimization failure (outside an `McError` context).
    Cover(CoverError),
    /// Netlist construction or verifier failure.
    Netlist(NetlistError),
    /// Interchange-format failure: an unknown format id, an unsupported
    /// conversion direction, or a malformed EDIF input.
    Format(FormatError),
    /// Operating-system I/O failure.
    Io(std::io::Error),
    /// A per-request deadline expired before the named stage could run
    /// (see `Pipeline::with_deadline`). Like the budget refusals this is
    /// a [`ErrorKind::ResourceLimit`]: the request was well-formed and a
    /// retry with a larger deadline may succeed.
    DeadlineExceeded {
        /// The pipeline stage the deadline expired in front of.
        stage: &'static str,
    },
}

impl Error {
    /// The stable coarse classification of this error.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Error::Stg(_) | Error::Sg(_) => ErrorKind::Parse,
            // Both reduction refusals are budget-bound searches giving
            // up, not proofs that no implementation exists — a retry
            // with larger budgets may succeed.
            Error::Mc(McError::SignalBudgetExceeded { .. })
            | Error::Mc(McError::InsertionFailed { .. }) => ErrorKind::ResourceLimit,
            Error::Mc(_) | Error::Cover(_) => ErrorKind::Synthesis,
            Error::Netlist(NetlistError::TooManyStates(_)) => ErrorKind::ResourceLimit,
            Error::Netlist(_) => ErrorKind::Verification,
            // Format failures are request problems — a bad id or bad
            // input text — so they share the exit-2 / HTTP-400 path.
            Error::Format(_) => ErrorKind::Parse,
            Error::Io(_) => ErrorKind::Io,
            Error::DeadlineExceeded { .. } => ErrorKind::ResourceLimit,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Stg(e) => write!(f, "{e}"),
            Error::Sg(e) => write!(f, "{e}"),
            Error::Mc(e) => write!(f, "{e}"),
            Error::Cover(e) => write!(f, "{e}"),
            Error::Netlist(e) => write!(f, "{e}"),
            Error::Format(e) => write!(f, "{e}"),
            Error::Io(e) => write!(f, "{e}"),
            Error::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded before the `{stage}` stage")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Stg(e) => Some(e),
            Error::Sg(e) => Some(e),
            Error::Mc(e) => Some(e),
            Error::Cover(e) => Some(e),
            Error::Netlist(e) => Some(e),
            Error::Format(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::DeadlineExceeded { .. } => None,
        }
    }
}

impl From<StgError> for Error {
    fn from(e: StgError) -> Self {
        Error::Stg(e)
    }
}

impl From<SgError> for Error {
    fn from(e: SgError) -> Self {
        Error::Sg(e)
    }
}

impl From<McError> for Error {
    fn from(e: McError) -> Self {
        Error::Mc(e)
    }
}

impl From<CoverError> for Error {
    fn from(e: CoverError) -> Self {
        Error::Cover(e)
    }
}

impl From<NetlistError> for Error {
    fn from(e: NetlistError) -> Self {
        Error::Netlist(e)
    }
}

impl From<FormatError> for Error {
    fn from(e: FormatError) -> Self {
        Error::Format(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The status table, pinned row by row. The match has no wildcard,
    /// so a new kind does not compile until it has a row here.
    #[test]
    fn every_kind_has_its_exit_code_and_http_status() {
        let row = |kind: ErrorKind| match kind {
            ErrorKind::Parse => (2, 400),
            ErrorKind::Synthesis => (1, 422),
            ErrorKind::Verification => (1, 422),
            ErrorKind::ResourceLimit => (1, 429),
            ErrorKind::Io => (1, 500),
        };
        let kinds = [
            ErrorKind::Parse,
            ErrorKind::Synthesis,
            ErrorKind::Verification,
            ErrorKind::ResourceLimit,
            ErrorKind::Io,
        ];
        for kind in kinds {
            assert_eq!((kind.exit_code(), kind.http_status()), row(kind), "{kind}");
        }
    }
}
