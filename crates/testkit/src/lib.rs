//! # cpn-testkit — hermetic deterministic correctness tooling
//!
//! The workspace's replacement for `rand`, `proptest` and `criterion`:
//! everything here is implemented in-tree against `std` only, so
//! `cargo build --offline` resolves with zero external crates and every
//! test run is reproducible from a single seed.
//!
//! ## Pieces
//!
//! * [`rng`] — [`SplitMix64`] and the xoshiro256\*\*-based [`TestRng`],
//!   the seeded generators behind both the simulator and the property
//!   harness.
//! * [`gen`] — the [`Strategy`] trait (generation + integrated
//!   shrinking) and generic combinators (`usize_in`, `vec_of`, tuples).
//! * [`harness`] — [`check`]/[`check_with`] plus the [`prop_assert!`],
//!   [`prop_assert_eq!`] and [`prop_assume!`] macros. Failures shrink
//!   greedily and panic with the minimized counterexample and a case
//!   seed; `CPN_TESTKIT_SEED=<seed>` replays that exact case.
//! * [`net_gen`] / [`stg_gen`] / [`cip_gen`] / [`fault_gen`] — domain generators for
//!   bounded Petri nets (safe or multiset-marked), strongly-connected
//!   marked-graph rings (optionally live-safe), STGs and CIP modules.
//! * [`workload`] — parametric large-scale exploration nets with
//!   closed-form state counts (`sync_pipeline_net`, `sync_mesh`,
//!   `cip_chain`), the inputs for the kernel benchmarks; `cip_chain`
//!   also returns its internal wires for the hiding and reduction
//!   suites.
//! * [`oracle`] — the reference implementations the fast paths'
//!   equivalence suites compare against: the interpreted explorer, the
//!   one-rebuild-per-contraction hiding loop and the full-refinement
//!   `NetId` canonicalizer.
//! * [`mutate`] — seeded corruption of text documents ([`DocMutator`]:
//!   truncation, byte flips, garbage splices, brace floods) for parser
//!   robustness tests.
//! * [`chaos`] — seeded transport fault injection ([`ChaosInjector`]:
//!   truncated frames, oversized length prefixes, garbage bytes,
//!   mid-request disconnects, stalled writes) for soak-testing framed
//!   network protocols.
//! * [`bench`](mod@bench) (feature `bench`) — a `std::time::Instant` micro-bench
//!   harness with a fast smoke mode for `cargo test` and a calibrated
//!   timing mode under `CPN_BENCH_FULL=1`.
//!
//! ## Example
//!
//! ```
//! use cpn_testkit::{check, prop_assert, NetStrategy};
//!
//! // Every generated net round-trips through its own arena indices.
//! check("places_match", &NetStrategy::new(4, 4, 3), |raw| {
//!     let net = raw.build_indexed();
//!     prop_assert!(net.place_count() == raw.places);
//!     Ok(())
//! });
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod fault_gen;
pub mod gen;
pub mod harness;
pub mod modules;
pub mod mutate;
pub mod net_gen;
pub mod oracle;
pub mod rng;
pub mod stg_gen;

/// CIP module generation.
pub mod cip_gen;

pub mod workload;

#[cfg(feature = "bench")]
pub mod bench;

pub use chaos::{
    corrupt_exchange, corrupt_frame, BurstFault, ChaosInjector, TransportFault, WriteStep,
};
pub use fault_gen::{FaultStrategy, RawFault};
pub use gen::{any_bool, just, u32_in, usize_in, vec_of, Strategy};
pub use harness::{check, check_with, Config, PropFail, PropResult};
pub use modules::{ModuleScenario, PlanStep};
pub use mutate::{DocMutator, Mutant, MutationKind};
pub use net_gen::{NetStrategy, RawNet, RawRing, RawTransition, RingStrategy};
pub use rng::{mix_seed, SplitMix64, TestRng};
pub use stg_gen::{RawStg, StgStrategy};

pub use cip_gen::{CipStrategy, RawCip, RawStage};
pub use workload::{cip_chain, sync_mesh, sync_mesh_states, sync_pipeline_net};
