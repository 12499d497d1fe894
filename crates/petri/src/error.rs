//! Error types for the Petri net kernel.

use std::error::Error;
use std::fmt;

/// Errors produced by net construction and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PetriError {
    /// A place id referenced a place that does not exist in the net.
    UnknownPlace(u32),
    /// A transition id referenced a transition that does not exist.
    UnknownTransition(u32),
    /// A transition was declared with an empty preset *and* empty postset.
    DegenerateTransition,
    /// The net was found (or proven) unbounded during exploration.
    Unbounded {
        /// A place witnessing the unboundedness, if identified.
        witness: Option<u32>,
    },
    /// An operation requiring a safe initial marking was applied to a net
    /// whose initial marking puts more than one token in some place.
    UnsafeInitialMarking(u32),
    /// An operation requiring a marked graph was applied to a net that is
    /// not a marked graph.
    NotMarkedGraph,
    /// Hiding was requested for a transition with a self-loop
    /// (`preset ∩ postset ≠ ∅`), which would create a divergence
    /// (Section 4.4 of the paper).
    HideSelfLoop(u32),
    /// Two nets passed to a binary operator violated a precondition
    /// (described by the message).
    Precondition(String),
    /// A token count would overflow `u32` at the given place.
    TokenOverflow {
        /// The place whose count overflowed.
        place: u32,
    },
    /// A token removal from a place holding too few tokens.
    TokenUnderflow {
        /// The place whose count would go negative.
        place: u32,
    },
    /// Two markings defined over different place counts were combined.
    MarkingLengthMismatch {
        /// Place count of the left-hand marking.
        left: usize,
        /// Place count of the right-hand marking.
        right: usize,
    },
    /// An arena index exceeded the 32-bit id space.
    IndexOverflow {
        /// The offending index.
        index: usize,
    },
    /// The allocator refused a growth request (pathological load); the
    /// structure that reported this is unchanged and still usable.
    AllocationFailed {
        /// The size of the refused allocation, in bytes.
        bytes: usize,
    },
}

impl fmt::Display for PetriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PetriError::UnknownPlace(id) => write!(f, "unknown place id {id}"),
            PetriError::UnknownTransition(id) => write!(f, "unknown transition id {id}"),
            PetriError::DegenerateTransition => {
                write!(f, "transition has empty preset and postset")
            }
            PetriError::Unbounded { witness: Some(p) } => {
                write!(f, "net is unbounded (witness place {p})")
            }
            PetriError::Unbounded { witness: None } => write!(f, "net is unbounded"),
            PetriError::UnsafeInitialMarking(p) => {
                write!(f, "initial marking is not safe at place {p}")
            }
            PetriError::NotMarkedGraph => write!(f, "net is not a marked graph"),
            PetriError::HideSelfLoop(t) => {
                write!(
                    f,
                    "cannot hide transition {t}: it has a self-loop (divergence)"
                )
            }
            PetriError::Precondition(msg) => write!(f, "precondition violated: {msg}"),
            PetriError::TokenOverflow { place } => {
                write!(f, "token count overflow at place {place}")
            }
            PetriError::TokenUnderflow { place } => {
                write!(f, "token count underflow at place {place}")
            }
            PetriError::MarkingLengthMismatch { left, right } => {
                write!(f, "markings over different nets ({left} vs {right} places)")
            }
            PetriError::IndexOverflow { index } => {
                write!(f, "index {index} overflows the 32-bit id space")
            }
            PetriError::AllocationFailed { bytes } => {
                write!(f, "allocator refused a {bytes}-byte growth request")
            }
        }
    }
}

impl Error for PetriError {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = PetriError::UnknownPlace(3);
        assert_eq!(e.to_string(), "unknown place id 3");
        let e = PetriError::Unbounded { witness: Some(1) };
        assert!(e.to_string().contains("witness place 1"));
        let e = PetriError::TokenUnderflow { place: 4 };
        assert!(e.to_string().contains("underflow at place 4"));
        let e = PetriError::MarkingLengthMismatch { left: 2, right: 3 };
        assert!(e.to_string().contains("2 vs 3"));
        let e = PetriError::IndexOverflow { index: 9 };
        assert!(e.to_string().contains("9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PetriError>();
    }
}
