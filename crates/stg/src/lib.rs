//! Signal Transition Graphs (STGs): the signal-interpreted Petri nets of
//! Section 2.2 of de Jong & Lin (DAC 1994).
//!
//! An STG is a labeled Petri net whose actions are **signal transitions**:
//! `s+` (rise), `s-` (fall), and the shorthand extensions of \[9\] —
//! `s~` (toggle), stable, unstable and don't-care — plus dummy ε
//! transitions. Signals carry an input/output direction, giving the
//! circuit-algebra interface of Section 5.1.
//!
//! Provided here:
//!
//! * [`signal`] — signals, directions, edges and the [`StgLabel`] label
//!   type plugged into the generic net algebra.
//! * [`stg`] — the [`Stg`] wrapper: declaration-checked construction,
//!   classical well-formedness (strongly-connected + live + safe,
//!   Definition 2.3), boolean **guards** on transitions (the Section 2.2
//!   extension used by the paper's protocol translator), and the
//!   STG-level composition/hiding wrappers.
//! * [`state_graph`] — the encoded state graph, consistent-state-
//!   assignment checking, and USC/CSC diagnostics.
//! * [`logic`] — next-state function derivation (two-level covers) for
//!   output signals, the downstream synthesis step the paper delegates
//!   to Chu's work.
//!
//! # Example
//!
//! ```
//! use cpn_stg::{Edge, SignalDir, Stg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 2-phase handshake: req+ ack+ req- ack-.
//! let mut stg = Stg::new();
//! let req = stg.add_signal("req", SignalDir::Input);
//! let ack = stg.add_signal("ack", SignalDir::Output);
//! let p0 = stg.add_place("p0");
//! let p1 = stg.add_place("p1");
//! let p2 = stg.add_place("p2");
//! let p3 = stg.add_place("p3");
//! stg.add_signal_transition([p0], (req.clone(), Edge::Rise), [p1])?;
//! stg.add_signal_transition([p1], (ack.clone(), Edge::Rise), [p2])?;
//! stg.add_signal_transition([p2], (req, Edge::Fall), [p3])?;
//! stg.add_signal_transition([p3], (ack, Edge::Fall), [p0])?;
//! stg.set_initial(p0, 1);
//!
//! let report = stg.classical_report(&cpn_petri::Budget::default());
//! assert!(report.is_complete());
//! assert!(report.value().is_classical()); // strongly connected, live, safe
//! # Ok(())
//! # }
//! ```

// The STG layer sits on user-facing verification paths: its public API
// must degrade via typed errors, never panic (tests are exempt).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod arbiter;
pub mod logic;
pub mod protocol;
pub mod signal;
pub mod state_graph;
pub mod stg;

pub use logic::{derive_logic, Cube, LogicError, NextStateFunction};
pub use signal::{Edge, Signal, SignalDir, StgLabel};
pub use state_graph::{ConsistencyViolation, CscViolation, StateGraph};
pub use stg::{ClassicalReport, Guard, Stg, StgError};
