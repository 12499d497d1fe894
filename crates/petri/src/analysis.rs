//! Behavioural analysis on the reachability graph: liveness, safety,
//! boundedness, deadlock-freedom and reversibility.
//!
//! These are the properties Definition 2.3 of the paper demands of a
//! classical STG ("strongly-connected live and safe") and the properties
//! whose closure under the algebra Section 5.2 discusses (Props 5.2/5.3).

use crate::graph::DiGraph;
use crate::label::Label;
use crate::net::{PetriNet, TransitionId};
use crate::reachability::ReachabilityGraph;

/// Per-transition liveness classification (a compact slice of the
/// classical L0–L4 hierarchy sufficient for the paper's needs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LivenessLevel {
    /// The transition can never fire (dead, L0).
    Dead,
    /// The transition can fire but may become permanently disabled.
    Quasi,
    /// From every reachable marking the transition can eventually fire
    /// again (live, L4).
    Live,
}

/// The result of [`PetriNet::analysis`]: behavioural properties derived
/// from a complete reachability graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Analysis {
    /// The smallest `k` such that the net is `k`-bounded (max tokens in
    /// any place over all reachable markings).
    pub bound: u32,
    /// Whether every reachable marking is safe (`bound ≤ 1`).
    pub safe: bool,
    /// Whether every transition is live.
    pub live: bool,
    /// Whether no reachable marking is a deadlock.
    pub deadlock_free: bool,
    /// Whether the initial marking is reachable from every reachable
    /// marking (the net is reversible / `M0` is a home marking).
    pub reversible: bool,
    /// Per-transition liveness, indexed by transition arena order.
    pub transition_liveness: Vec<LivenessLevel>,
}

impl Analysis {
    /// Transitions that can never fire.
    pub fn dead_transitions(&self) -> Vec<TransitionId> {
        self.transition_liveness
            .iter()
            .enumerate()
            .filter(|(_, l)| **l == LivenessLevel::Dead)
            .map(|(i, _)| TransitionId::from_index(i))
            .collect()
    }

    /// Transitions that are not live (dead or quasi-live).
    pub fn non_live_transitions(&self) -> Vec<TransitionId> {
        self.transition_liveness
            .iter()
            .enumerate()
            .filter(|(_, l)| **l != LivenessLevel::Live)
            .map(|(i, _)| TransitionId::from_index(i))
            .collect()
    }
}

impl<L: Label> PetriNet<L> {
    /// Computes behavioural properties from a (complete) reachability
    /// graph previously built with
    /// [`reachability_bounded`](PetriNet::reachability_bounded).
    ///
    /// Liveness uses the terminal-SCC characterization: a transition is
    /// live iff every terminal strongly-connected component of the
    /// reachability graph contains a state in which it fires.
    ///
    /// # Panics
    ///
    /// Panics if `rg` was built from a different net (detected via place
    /// counts and transition indices).
    pub fn analysis(&self, rg: &ReachabilityGraph) -> Analysis {
        let bound = rg.token_bound();
        let safe = bound <= 1;
        let deadlock_free = rg.deadlock_states().is_empty();

        let g: DiGraph = rg.as_digraph();
        let sccs = g.tarjan_scc();
        let terminal = g.terminal_sccs(&sccs);

        // For each transition: does it fire anywhere at all, and does it
        // fire inside every terminal SCC?
        let tcount = self.transition_count();
        let mut fires_somewhere = vec![false; tcount];
        let mut comp_of = vec![usize::MAX; rg.state_count()];
        for (ci, comp) in sccs.iter().enumerate() {
            for &s in comp {
                comp_of[s] = ci;
            }
        }
        // fires_in_comp[ci] is a bitset over transitions (as Vec<bool>).
        let mut fires_in_comp: Vec<Vec<bool>> = vec![vec![false; tcount]; sccs.len()];
        for (from, t, _to) in rg.all_edges() {
            assert!(
                t.index() < tcount,
                "reachability graph from a different net"
            );
            fires_somewhere[t.index()] = true;
            fires_in_comp[comp_of[from.index()]][t.index()] = true;
        }

        let transition_liveness: Vec<LivenessLevel> = (0..tcount)
            .map(|ti| {
                if !fires_somewhere[ti] {
                    LivenessLevel::Dead
                } else if terminal.iter().all(|&ci| fires_in_comp[ci][ti]) {
                    LivenessLevel::Live
                } else {
                    LivenessLevel::Quasi
                }
            })
            .collect();

        let live = !transition_liveness.is_empty()
            && transition_liveness
                .iter()
                .all(|l| *l == LivenessLevel::Live);

        // Reversible iff the initial state is reachable from every state,
        // i.e. every state reaches s0 — check on the reversed graph.
        let back = g.reversed().reachable_from(rg.initial_state().index());
        let reversible = back.iter().all(|&b| b);

        Analysis {
            bound,
            safe,
            live: live || tcount == 0,
            deadlock_free,
            reversible,
            transition_liveness,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    fn analyze(net: &PetriNet<&'static str>) -> Analysis {
        let rg = net
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        net.analysis(&rg)
    }

    #[test]
    fn live_safe_cycle() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        net.set_initial(p, 1);
        let a = analyze(&net);
        assert!(a.safe && a.live && a.deadlock_free && a.reversible);
        assert_eq!(a.bound, 1);
        assert!(a.dead_transitions().is_empty());
    }

    #[test]
    fn dead_transition_detected() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let r = net.add_place("r");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        let dead = net.add_transition([r], "never", [p]).unwrap();
        net.set_initial(p, 1);
        let a = analyze(&net);
        assert!(!a.live);
        assert_eq!(a.dead_transitions(), vec![dead]);
        assert_eq!(a.transition_liveness[dead.index()], LivenessLevel::Dead);
    }

    #[test]
    fn quasi_live_choice_into_deadlock() {
        // a leads to a sink; b loops. a is quasi-live (fires once, then
        // never again on the loop side); b is quasi-live too since taking
        // a kills it.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let sink = net.add_place("sink");
        net.add_transition([p], "a", [sink]).unwrap();
        net.add_transition([p], "b", [p]).unwrap();
        net.set_initial(p, 1);
        let a = analyze(&net);
        assert!(!a.live);
        assert!(!a.deadlock_free);
        assert_eq!(
            a.transition_liveness,
            vec![LivenessLevel::Quasi, LivenessLevel::Quasi]
        );
    }

    #[test]
    fn unsafe_net_reported() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        net.set_initial(p, 3);
        let a = analyze(&net);
        assert!(!a.safe);
        assert_eq!(a.bound, 3);
        assert!(a.live);
    }

    #[test]
    fn non_reversible_progression() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.set_initial(p, 1);
        let a = analyze(&net);
        assert!(!a.reversible);
        assert!(!a.deadlock_free);
    }

    #[test]
    fn empty_net_is_vacuously_fine() {
        let net: PetriNet<&str> = PetriNet::new();
        let a = analyze(&net);
        assert!(a.live && a.safe && a.reversible);
        assert_eq!(a.bound, 0);
    }
}
