//! Coverability analysis (Karp–Miller) for boundedness detection.
//!
//! The paper restricts itself to finite and bounded nets (Section 2.1).
//! Rather than assuming boundedness, the kernel *decides* it: the
//! Karp–Miller construction accelerates strictly-growing markings to ω and
//! terminates on every net, reporting either a finite token bound or an
//! unboundedness witness.

use crate::budget::{Bounded, Budget, Meter, Resource};
use crate::compiled::{CompiledNet, EnableScratch, OMEGA};
use crate::label::Label;
use crate::net::{PetriNet, PlaceId};
use crate::store::MarkingStore;

/// Token count in an ω-marking: a finite count or ω (arbitrarily many).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tokens {
    /// A concrete token count.
    Finite(u32),
    /// The ω symbol: this place can hold arbitrarily many tokens.
    Omega,
}

/// An ω-marking: a marking extended with ω components.
pub type OmegaMarking = Vec<Tokens>;

/// Result of the coverability construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverabilityOutcome {
    /// The net is bounded; `bound` is the largest finite token count seen
    /// on any place in any coverable marking.
    Bounded {
        /// Maximum per-place token count over the coverability set.
        bound: u32,
    },
    /// The net is unbounded; `witnesses` are places that acquired ω.
    Unbounded {
        /// Places that can hold arbitrarily many tokens.
        witnesses: Vec<PlaceId>,
    },
}

/// The Karp–Miller coverability tree (stored as the set of maximal
/// ω-markings plus the verdict).
///
/// # Example
///
/// ```
/// use cpn_petri::{Budget, CoverabilityOutcome, CoverabilityTree, PetriNet};
///
/// # fn main() -> Result<(), cpn_petri::PetriError> {
/// let mut net: PetriNet<&str> = PetriNet::new();
/// let p = net.add_place("p");
/// let out = net.add_place("out");
/// net.add_transition([p], "pump", [p, out])?; // p keeps its token, out grows
/// net.set_initial(p, 1);
/// let tree = CoverabilityTree::build_bounded(&net, &Budget::states(10_000)).into_value();
/// assert!(matches!(tree.outcome(), CoverabilityOutcome::Unbounded { .. }));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CoverabilityTree {
    markings: Vec<OmegaMarking>,
    outcome: CoverabilityOutcome,
}

impl CoverabilityTree {
    /// Runs the Karp–Miller construction on `net`, degrading gracefully.
    ///
    /// The budget's state cap bounds tree nodes; its transition cap
    /// bounds ω-firings examined. The construction always terminates in
    /// theory, but the budget guards against pathological blowup in
    /// practice. When the budget runs out, or the node store refuses a
    /// node ([`Resource::Storage`]), the partial tree is returned in
    /// [`Bounded::Exhausted`]: an `Unbounded` outcome on a partial
    /// tree is definite (ω witnesses are real), but a `Bounded { bound }`
    /// outcome only covers the explored prefix.
    pub fn build_bounded<L: Label>(
        net: &PetriNet<L>,
        budget: &Budget,
    ) -> Bounded<CoverabilityTree> {
        Self::build_compiled(&net.compile(), net.initial_marking().as_slice(), budget)
    }

    /// [`build_bounded`](Self::build_bounded) on a pre-compiled net from
    /// the initial marking `m0`, producing the same tree as on the
    /// source net.
    ///
    /// The entry point for callers that amortize [`PetriNet::compile`]
    /// across many constructions, as
    /// [`reachability_bounded_compiled`](crate::reachability_bounded_compiled)
    /// is for reachability.
    pub fn build_compiled(
        compiled: &CompiledNet,
        m0: &[u32],
        budget: &Budget,
    ) -> Bounded<CoverabilityTree> {
        let mut meter = Meter::new(budget);

        // ω-markings live in the interned arena with the sentinel
        // encoding of `compiled`: ω is [`OMEGA`], finite counts clamp at
        // `OMEGA - 1` (see `CompiledNet::fire_omega_into`). Under that
        // encoding "x covers y" is a plain elementwise `x >= y`, so the
        // tree needs no boxed `Tokens` rows until it is materialized for
        // the public [`markings`](Self::markings) accessor.
        let mut store = MarkingStore::new(compiled.place_count());
        let interned = store.intern(m0);
        debug_assert_eq!(interned, (0, true));
        // Parent pointers drive the acceleration check; `u32::MAX` marks
        // the root.
        let mut parent: Vec<u32> = vec![u32::MAX];
        // The root node always exists, even under a zero budget.
        meter.take_state();

        let mut next: Vec<u32> = Vec::with_capacity(store.stride());
        let mut occ: Vec<u64> = Vec::new();
        let mut scratch = EnableScratch::default();
        let mut enabled: Vec<u32> = Vec::new();
        let mut work = vec![0u32];
        'explore: while let Some(cur) = work.pop() {
            // Per-node deadline/cancel poll (coarse-ticked in the meter).
            if meter.should_stop() {
                break 'explore;
            }
            compiled.occupancy_into(store.get(cur as usize), &mut occ);
            // Only enabled transitions are charged, in ascending order,
            // as the reachability kernel charges them.
            compiled.enabled_into(&occ, &mut scratch, &mut enabled);
            for &t in &enabled {
                if !meter.take_transition() {
                    break 'explore;
                }
                compiled.fire_omega_into(store.get(cur as usize), t, &mut next);
                // Acceleration: if next strictly covers an ancestor, set
                // the strictly-larger components to ω.
                let mut anc = cur;
                loop {
                    let a = store.get(anc as usize);
                    if next.iter().zip(a).all(|(&x, &y)| x >= y) && next.as_slice() != a {
                        for (slot, &old) in next.iter_mut().zip(a) {
                            if *slot > old {
                                // strictly larger here
                                *slot = OMEGA;
                            }
                        }
                    }
                    let up = parent[anc as usize];
                    if up == u32::MAX {
                        break;
                    }
                    anc = up;
                }
                let hash = MarkingStore::hash_slice(&next);
                if store.find_hashed(&next, hash).is_some() {
                    continue;
                }
                if !meter.take_state() {
                    break 'explore;
                }
                let Ok(id) = store.insert_new_hashed(&next, hash) else {
                    // The 32-bit id space or the allocator is exhausted;
                    // hand back the prefix explored so far.
                    meter.stop(Resource::Storage);
                    break 'explore;
                };
                parent.push(cur);
                work.push(id);
            }
        }

        let markings: Vec<OmegaMarking> = store
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&w| {
                        if w == OMEGA {
                            Tokens::Omega
                        } else {
                            Tokens::Finite(w)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut witnesses: Vec<PlaceId> = Vec::new();
        for p in (0..compiled.place_count()).map(PlaceId::from_index) {
            if markings.iter().any(|m| m[p.index()] == Tokens::Omega) {
                witnesses.push(p);
            }
        }
        let outcome = if witnesses.is_empty() {
            let bound = markings
                .iter()
                .flat_map(|m| m.iter())
                .filter_map(|t| match t {
                    Tokens::Finite(n) => Some(*n),
                    Tokens::Omega => None,
                })
                .max()
                .unwrap_or(0);
            CoverabilityOutcome::Bounded { bound }
        } else {
            CoverabilityOutcome::Unbounded { witnesses }
        };
        meter.finish(CoverabilityTree { markings, outcome })
    }

    /// The verdict: bounded with a bound, or unbounded with witnesses.
    pub fn outcome(&self) -> &CoverabilityOutcome {
        &self.outcome
    }

    /// Whether the net was proven bounded.
    pub fn is_bounded(&self) -> bool {
        matches!(self.outcome, CoverabilityOutcome::Bounded { .. })
    }

    /// The ω-markings discovered (the coverability set representation).
    pub fn markings(&self) -> &[OmegaMarking] {
        &self.markings
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn bounded_cycle_reports_bound() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        net.set_initial(p, 2);
        let built = CoverabilityTree::build_bounded(&net, &Budget::states(10_000));
        assert!(built.is_complete());
        let tree = built.into_value();
        assert_eq!(tree.outcome(), &CoverabilityOutcome::Bounded { bound: 2 });
        assert!(tree.is_bounded());
    }

    #[test]
    fn pump_is_unbounded_with_witness() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let out = net.add_place("out");
        net.add_transition([p], "pump", [p, out]).unwrap();
        net.set_initial(p, 1);
        let tree = CoverabilityTree::build_bounded(&net, &Budget::states(10_000)).into_value();
        match tree.outcome() {
            CoverabilityOutcome::Unbounded { witnesses } => {
                assert_eq!(witnesses, &vec![out]);
            }
            other => panic!("expected unbounded, got {other:?}"),
        }
    }

    #[test]
    fn producer_consumer_unbounded_buffer() {
        // Producer cycle fills a buffer place; consumer cycle drains it.
        let mut net: PetriNet<&str> = PetriNet::new();
        let pp = net.add_place("prod");
        let buf = net.add_place("buf");
        let cc = net.add_place("cons");
        net.add_transition([pp], "produce", [pp, buf]).unwrap();
        net.add_transition([cc, buf], "consume", [cc]).unwrap();
        net.set_initial(pp, 1);
        net.set_initial(cc, 1);
        let tree = CoverabilityTree::build_bounded(&net, &Budget::states(10_000)).into_value();
        assert!(!tree.is_bounded());
    }

    #[test]
    fn safe_net_bound_is_one() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.set_initial(p, 1);
        let tree = CoverabilityTree::build_bounded(&net, &Budget::states(100)).into_value();
        assert_eq!(tree.outcome(), &CoverabilityOutcome::Bounded { bound: 1 });
    }

    #[test]
    fn budget_respected_with_partial_tree() {
        // A net that needs 2 nodes under a 1-node budget stops early and
        // still hands back the explored prefix.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.set_initial(p, 1);
        let built = CoverabilityTree::build_bounded(&net, &Budget::states(1));
        let info = *built.exhausted().expect("budget of 1 is exhausted");
        assert_eq!(info.states_explored, 1);
        assert_eq!(built.value().markings().len(), 1);
    }

    /// `n` independent toggles `a_i <-> b_i`, every `a_i` marked:
    /// `2n` transitions, `n` of them enabled in every marking.
    fn toggles(n: usize) -> PetriNet<String> {
        let mut net: PetriNet<String> = PetriNet::new();
        for i in 0..n {
            let a = net.add_place(format!("a{i}"));
            let b = net.add_place(format!("b{i}"));
            net.add_transition([a], format!("on{i}"), [b]).unwrap();
            net.add_transition([b], format!("off{i}"), [a]).unwrap();
            net.set_initial(a, 1);
        }
        net
    }

    #[test]
    fn only_enabled_transitions_are_charged() {
        // A 4-cycle enables one of its four transitions in each of its
        // four markings: four firings build the whole tree.
        let mut ring: PetriNet<&str> = PetriNet::new();
        let ps: Vec<PlaceId> = (0..4).map(|i| ring.add_place(format!("p{i}"))).collect();
        for i in 0..4 {
            ring.add_transition([ps[i]], "t", [ps[(i + 1) % 4]])
                .unwrap();
        }
        ring.set_initial(ps[0], 1);
        let built = CoverabilityTree::build_bounded(&ring, &Budget::new(usize::MAX, 4));
        assert!(built.is_complete(), "stopped: {:?}", built.exhausted());
        assert_eq!(built.value().markings().len(), 4);

        // The same cap means the same work as in the reachability
        // kernel: under a 3-state cap both stop at the third firing.
        let net = toggles(3);
        let budget = Budget::states(3);
        let tree = CoverabilityTree::build_bounded(&net, &budget);
        let info = *tree.exhausted().expect("3 states cannot hold the tree");
        assert_eq!(info.resource, Resource::States);
        assert_eq!(info.transitions_explored, 3);
        let compiled = net.compile();
        let rg = crate::reachability_bounded_compiled(
            &compiled,
            net.initial_marking().as_slice(),
            &budget,
        );
        let kernel = *rg.exhausted().expect("3 states cannot hold the graph");
        assert_eq!(kernel.transitions_explored, info.transitions_explored);
    }
}
