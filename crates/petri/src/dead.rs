//! Dead-transition detection and removal.
//!
//! Section 5.2 of the paper: after compositional synthesis
//! (`hide(M1‖M2, …)`) many synchronization-transition duplicates are dead
//! and "can be eliminated", structurally in polynomial time for marked
//! graphs and free-choice nets. This module provides both the exact
//! reachability-based detection (any bounded net) and the structural
//! marked-graph detection (polynomial, no state space).

use crate::error::PetriError;
use crate::graph::DiGraph;
use crate::label::Label;
use crate::net::{PetriNet, TransitionId};
use crate::reachability::StateSpace;
use std::collections::BTreeSet;

/// Transitions that never fire, read from the fired bits of an explored
/// [`StateSpace`] — or of a [`ReachabilityGraph`](crate::ReachabilityGraph),
/// which dereferences to one. Exact for bounded nets on a complete
/// exploration.
///
/// # Example
///
/// ```
/// use cpn_petri::{dead_transitions_rg, Budget, PetriNet};
///
/// # fn main() -> Result<(), cpn_petri::PetriError> {
/// let mut net: PetriNet<&str> = PetriNet::new();
/// let p = net.add_place("p");
/// let q = net.add_place("q");
/// let r = net.add_place("r");
/// net.add_transition([p], "a", [q])?;
/// let dead = net.add_transition([r], "never", [q])?;
/// net.set_initial(p, 1);
/// let rg = net.reachability_bounded(&Budget::default());
/// assert!(rg.is_complete());
/// assert_eq!(dead_transitions_rg(&net, rg.value()), [dead].into());
/// # Ok(())
/// # }
/// ```
pub fn dead_transitions_rg<L: Label>(
    net: &PetriNet<L>,
    space: &StateSpace,
) -> BTreeSet<TransitionId> {
    net.transition_ids().filter(|&t| !space.fired(t)).collect()
}

/// Structural dead-transition detection for **marked graphs**:
///
/// 1. Every transition on a token-free directed cycle is dead (the cycle
///    token count is invariant, so no token can ever appear on it).
/// 2. A transition with an initially empty input place whose unique
///    producer is dead is itself dead; this propagates to a fixpoint.
///
/// For strongly-connected marked graphs this is exact (liveness ⇔ every
/// cycle holds a token); on general marked graphs it is sound and, by the
/// propagation step, complete for acyclic feeding as well. The paired
/// property test in this module cross-checks it against the exact
/// reachability-based detection.
///
/// # Errors
///
/// Returns [`PetriError::NotMarkedGraph`] if some place does not have
/// exactly one producer and one consumer.
pub fn dead_transitions_structural_mg<L: Label>(
    net: &PetriNet<L>,
) -> Result<BTreeSet<TransitionId>, PetriError> {
    let flows = net.marked_graph_flows()?;
    let m0 = net.initial_marking();

    // Graph over transitions through token-free places.
    let mut g = DiGraph::new(net.transition_count());
    for (p, &(prod, cons)) in flows.iter().enumerate() {
        if m0.as_slice()[p] == 0 {
            g.add_edge(prod.index(), cons.index());
        }
    }

    // Transitions inside a cycle of that graph are dead (rule 1).
    let mut dead = vec![false; net.transition_count()];
    for comp in g.tarjan_scc() {
        let cyclic = comp.len() > 1 || g.successors(comp[0]).contains(&comp[0]);
        if cyclic {
            for &t in &comp {
                dead[t] = true;
            }
        }
    }

    // Propagation (rule 2): consumer of an empty place with a dead
    // producer is dead.
    loop {
        let mut changed = false;
        for (p, &(prod, cons)) in flows.iter().enumerate() {
            if m0.as_slice()[p] == 0 && dead[prod.index()] && !dead[cons.index()] {
                dead[cons.index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    Ok(dead
        .iter()
        .enumerate()
        .filter(|(_, &d)| d)
        .map(|(i, _)| TransitionId::from_index(i))
        .collect())
}

/// Removes the given dead transitions and then drops places that became
/// isolated (no adjacent transition and no initial token).
///
/// Returns the pruned net; place ids are *not* stable across this call
/// (the mapping from `without_isolated_places` is discarded because dead
/// removal is a terminal cleanup step in the synthesis pipelines). Each
/// step copies the net only when it has something to drop, so a net
/// with nothing dead and no isolated place comes back as it is.
pub fn remove_dead<L: Label>(net: PetriNet<L>, dead: &BTreeSet<TransitionId>) -> PetriNet<L> {
    let live = if dead.is_empty() {
        net
    } else {
        net.without_transitions(dead)
    };
    if live.has_isolated_place() {
        live.without_isolated_places().0
    } else {
        live
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::net::PlaceId;

    #[test]
    fn token_free_cycle_is_dead() {
        // Live cycle (p marked) plus a token-free cycle r1/r2.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let r1 = net.add_place("r1");
        let r2 = net.add_place("r2");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        let c = net.add_transition([r1], "c", [r2]).unwrap();
        let d = net.add_transition([r2], "d", [r1]).unwrap();
        net.set_initial(p, 1);

        let dead = dead_transitions_structural_mg(&net).unwrap();
        assert_eq!(dead, BTreeSet::from([c, d]));

        let rg = net
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        assert_eq!(dead_transitions_rg(&net, &rg), dead);
    }

    #[test]
    fn structural_mg_rejects_choice() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "x", [q]).unwrap();
        net.add_transition([p], "y", [q]).unwrap();
        assert_eq!(
            dead_transitions_structural_mg(&net),
            Err(PetriError::NotMarkedGraph)
        );
    }

    #[test]
    fn propagation_through_empty_chain() {
        // Dead cycle feeds a chain: every chain transition is dead too.
        // To stay a marked graph each place needs exactly one producer
        // and consumer, so close the chain back into the dead cycle.
        let mut net: PetriNet<&str> = PetriNet::new();
        let r1 = net.add_place("r1");
        let r2 = net.add_place("r2");
        let s = net.add_place("s");
        let s2 = net.add_place("s2");
        let c = net.add_transition([r1], "c", [r2, s]).unwrap();
        let d = net.add_transition([r2], "d", [r1]).unwrap();
        let e = net.add_transition([s], "e", [s2]).unwrap();
        let f = net.add_transition([s2], "f", []).unwrap();
        let dead = dead_transitions_structural_mg(&net);
        // s2's consumer f has postset ∅ — still one producer/consumer per
        // place, so this is a marked graph.
        let dead = dead.unwrap();
        assert_eq!(dead, BTreeSet::from([c, d, e, f]));
    }

    #[test]
    fn live_marked_graph_has_no_dead() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let pa = net.add_place("pa");
        let pb = net.add_place("pb");
        net.add_transition([p0], "fork", [pa, pb]).unwrap();
        net.add_transition([pa, pb], "join", [p0]).unwrap();
        net.set_initial(p0, 1);
        assert!(dead_transitions_structural_mg(&net).unwrap().is_empty());
    }

    #[test]
    fn remove_dead_prunes_places() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let r1 = net.add_place("r1");
        let r2 = net.add_place("r2");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        net.add_transition([r1], "c", [r2]).unwrap();
        net.add_transition([r2], "d", [r1]).unwrap();
        net.set_initial(p, 1);
        let dead = dead_transitions_structural_mg(&net).unwrap();
        let pruned = remove_dead(net, &dead);
        assert_eq!(pruned.transition_count(), 2);
        assert_eq!(pruned.place_count(), 2);
        pruned.validate().unwrap();

        // A dead transition whose places stay in use: only it goes.
        let mut net = pruned;
        let (p, q) = (PlaceId::from_index(0), PlaceId::from_index(1));
        let c = net.add_transition([p, q], "c", [p]).unwrap();
        let dead = BTreeSet::from([c]);
        let reference = net.without_transitions(&dead).without_isolated_places().0;
        let pruned = remove_dead(net, &dead);
        assert_eq!(pruned, reference);
        assert_eq!((pruned.place_count(), pruned.transition_count()), (2, 2));
    }

    #[test]
    fn remove_dead_with_nothing_dead() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        net.set_initial(p, 1);
        // Nothing to drop: the net comes back equal.
        let kept = remove_dead(net.clone(), &BTreeSet::new());
        assert_eq!(kept, net);
        assert_eq!(kept.place_count(), 2);
        // An isolated unmarked place is still dropped; a marked one is
        // kept.
        let mut with_isolated = net.clone();
        with_isolated.add_place("lonely");
        let marked = with_isolated.add_place("marked");
        with_isolated.set_initial(marked, 1);
        let pruned = remove_dead(with_isolated, &BTreeSet::new());
        assert_eq!(pruned.place_count(), 3);
        assert_eq!(pruned.transition_count(), 2);
        assert!(pruned.places().all(|(_, pl)| pl.name() != "lonely"));
        pruned.validate().unwrap();
    }

    #[test]
    fn structural_agrees_with_rg_on_random_marked_graphs() {
        // Deterministic pseudo-random marked graphs: rings with chords.
        for seed in 0u64..20 {
            let mut net: PetriNet<String> = PetriNet::new();
            let n = 3 + (seed % 4) as usize;
            let places: Vec<_> = (0..n).map(|i| net.add_place(format!("p{i}"))).collect();
            // Ring of transitions t_i: p_i -> p_{i+1}
            for i in 0..n {
                net.add_transition([places[i]], format!("t{i}"), [places[(i + 1) % n]])
                    .unwrap();
            }
            // Mark places by a seed-dependent pattern (possibly none).
            let mut any = false;
            for (i, &p) in places.iter().enumerate() {
                if (seed >> i) & 1 == 1 {
                    net.set_initial(p, 1);
                    any = true;
                }
            }
            let structural = dead_transitions_structural_mg(&net).unwrap();
            let rg = net
                .reachability_bounded(&Budget::default())
                .complete()
                .unwrap();
            let exact = dead_transitions_rg(&net, &rg);
            assert_eq!(structural, exact, "seed {seed}, marked={any}");
        }
    }
}
