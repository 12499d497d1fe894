//! The communicating Petri net **algebra** of de Jong & Lin (DAC 1994).
//!
//! This crate is the paper's primary contribution: a process algebra whose
//! carriers are *general* labeled Petri nets (not unfoldings, not safe-net
//! restrictions), with
//!
//! * the **action operators** `nil`, action prefix and renaming
//!   (Definitions 4.2–4.4) — see [`ops`];
//! * **non-deterministic choice** via root-unwinding
//!   (Definitions 4.5/4.6, Figure 1) — see [`mod@choice`];
//! * **parallel composition** with rendez-vous synchronization on the
//!   common alphabet (Definition 4.7, Theorem 4.5, Figure 2) — see
//!   [`mod@parallel`];
//! * **hiding as generalized net contraction** (Definition 4.10,
//!   Theorem 4.7, Figure 3), the paper's novel operator — see [`hide`];
//! * the **circuit algebra** `C = (I, O, N)` layered on top
//!   (Section 5.1) — see [`circuit`];
//! * **compositional synthesis** (`hide(M1‖M2, A2\A1)`, Theorem 5.1,
//!   closure Propositions 5.2–5.4) — see [`synthesis`];
//! * **receptiveness verification** (Propositions 5.5/5.6 and the
//!   polynomial structural check of Theorem 5.7) — see [`verify`].
//!
//! Every operator is validated against the trace-language oracle in
//! `cpn-trace`: the property-test suite checks the paper's equations
//! (`L(N1‖N2) = L(N1)‖L(N2)`, `L(hide(N,a)) = hide(L(N),a)`, …) on
//! randomly generated nets up to a trace depth.
//!
//! # Example: composing and hiding
//!
//! ```
//! use cpn_core::{hide_label, parallel};
//! use cpn_petri::PetriNet;
//! use cpn_trace::Language;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // N1 = (a.c)*    N2 = (c.b)*   synchronize on c, then hide it.
//! let mut n1: PetriNet<&str> = PetriNet::new();
//! let p = n1.add_place("p");
//! let q = n1.add_place("q");
//! n1.add_transition([p], "a", [q])?;
//! n1.add_transition([q], "c", [p])?;
//! n1.set_initial(p, 1);
//!
//! let mut n2: PetriNet<&str> = PetriNet::new();
//! let r = n2.add_place("r");
//! let s = n2.add_place("s");
//! n2.add_transition([r], "c", [s])?;
//! n2.add_transition([s], "b", [r])?;
//! n2.set_initial(r, 1);
//!
//! let composed = parallel(&n1, &n2)?;
//! let hidden = hide_label(&composed, &"c", 1_000)?;
//! let lang = Language::from_net(&hidden, 3, 10_000)?;
//! assert!(lang.contains(&["a", "b", "a"][..])); // c happens silently
//! # Ok(())
//! # }
//! ```

// The algebra is a library layer: its public API must degrade via typed
// errors, never panic (tests are exempt).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod choice;
pub mod circuit;
pub mod contract;
pub mod error;
pub mod hide;
pub mod library;
pub mod ops;
pub mod parallel;
pub mod synthesis;
pub mod verify;

pub use choice::{choice, choice_general, root_unwinding, RootUnwinding};
pub use circuit::Circuit;
pub use contract::{reduce_for_analysis, NetEditor, ReductionStats};
pub use error::CoreError;
pub use library::{DerivationStats, DerivationStore, ModuleDef, ModuleInstance, ModuleLib};

pub use hide::{
    hide_label, hide_label_bounded, hide_labels, hide_labels_bounded, hide_relabel,
    hide_transition, project, project_bounded,
};
pub use ops::{nil, prefix, prefix_general, rename, rename_injective};
pub use parallel::{
    common_alphabet, parallel, parallel_tracked, parallel_tracked_common, parallel_with_sync,
    Composition, SyncTransition,
};
pub use synthesis::{
    closure_report, reduce_against_environment, verify_against_environment, ClosureReport,
    EnvironmentCheck, Reduction,
};
pub use verify::{
    check_receptiveness, check_receptiveness_structural_mg, check_receptiveness_stubborn,
    ReceptivenessFailure, ReceptivenessReport, Side,
};

// Former names of `check_receptiveness` and `reduce_against_environment`,
// kept because the `cpnbench` benchmark harness imports them and may not
// change with the code it measures. New code uses the names above.
#[doc(hidden)]
pub use synthesis::reduce_against_environment as reduce_against_environment_fused_bounded;
#[doc(hidden)]
pub use verify::check_receptiveness as check_receptiveness_composed_bounded;
