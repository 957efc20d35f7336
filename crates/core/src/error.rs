//! Runtime errors of the evaluators.
//!
//! For type-checked programs most variants are unreachable — the
//! progress/preservation property tests in this crate rely on that. The
//! exceptions the paper acknowledges: divergence (modelled by fuel
//! exhaustion) and partial primitives (`list.nth` out of range).

use crate::prim::PrimError;
use crate::types::{Effect, Name};
use std::fmt;

/// An error raised during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The step budget ran out — the program (or this handler) diverges.
    FuelExhausted,
    /// The evaluation nested calls deeper than the call-depth budget
    /// (carried), which bounds native stack use.
    CallDepthExceeded(u32),
    /// A local variable was not bound (unreachable after lowering).
    UnknownLocal(Name),
    /// A global variable is not defined (unreachable after type check).
    UnknownGlobal(Name),
    /// A function is not defined (unreachable after type check).
    UnknownFun(Name),
    /// A page is not defined (unreachable after type check).
    UnknownPage(Name),
    /// A non-function was applied (unreachable after type check).
    NotAFunction(String),
    /// Wrong number of call arguments (unreachable after type check).
    ArityMismatch {
        /// Number of parameters expected.
        expected: usize,
        /// Number of arguments found.
        found: usize,
    },
    /// A value had the wrong shape (unreachable after type check).
    TypeMismatch {
        /// What the operation needed.
        expected: &'static str,
        /// What it got, rendered.
        found: String,
    },
    /// Tuple projection out of range (unreachable after type check).
    ProjOutOfRange {
        /// 1-based index requested.
        index: u32,
        /// Tuple arity.
        len: usize,
    },
    /// A primitive failed (e.g. `list.nth` out of range).
    Prim(PrimError),
    /// An effectful operation ran in the wrong mode — the dynamic witness
    /// of the type-and-effect discipline (unreachable after type check).
    EffectViolation {
        /// The offending operation.
        op: &'static str,
        /// The mode it ran in.
        mode: Effect,
    },
    /// The small-step machine met a term it has no rule for (e.g. a
    /// non-value where the calculus requires a value).
    NotInKernel(&'static str),
    /// An evaluator invariant was broken (unreachable; reported as a
    /// typed error instead of aborting the process).
    Internal(&'static str),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::FuelExhausted => f.write_str("evaluation fuel exhausted"),
            RuntimeError::CallDepthExceeded(limit) => {
                write!(f, "call depth exceeded the budget of {limit} nested calls")
            }
            RuntimeError::UnknownLocal(n) => write!(f, "unbound local `{n}`"),
            RuntimeError::UnknownGlobal(n) => write!(f, "unknown global `{n}`"),
            RuntimeError::UnknownFun(n) => write!(f, "unknown function `{n}`"),
            RuntimeError::UnknownPage(n) => write!(f, "unknown page `{n}`"),
            RuntimeError::NotAFunction(v) => write!(f, "cannot call non-function {v}"),
            RuntimeError::ArityMismatch { expected, found } => {
                write!(f, "expected {expected} argument(s), found {found}")
            }
            RuntimeError::TypeMismatch { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            RuntimeError::ProjOutOfRange { index, len } => {
                write!(
                    f,
                    "projection .{index} out of range for tuple of size {len}"
                )
            }
            RuntimeError::Prim(e) => write!(f, "{e}"),
            RuntimeError::EffectViolation { op, mode } => {
                write!(f, "`{op}` is not permitted in {mode} mode")
            }
            RuntimeError::NotInKernel(what) => {
                write!(f, "`{what}` is outside the substitution kernel")
            }
            RuntimeError::Internal(what) => {
                write!(f, "internal evaluator invariant broken: {what}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<PrimError> for RuntimeError {
    fn from(e: PrimError) -> Self {
        RuntimeError::Prim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RuntimeError::EffectViolation {
            op: "g := e",
            mode: Effect::Render,
        };
        assert_eq!(e.to_string(), "`g := e` is not permitted in render mode");
        let e = RuntimeError::ArityMismatch {
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("expected 2"));
    }
}
