//! Siphons, traps and Commoner's liveness condition.
//!
//! Section 5.1 of the paper: "many properties can be checked
//! structurally for marked graphs and free-choice nets in polynomial
//! time, but which require exponential time for general Petri nets."
//! Siphon/trap analysis is the classical machinery behind those checks:
//!
//! * a **siphon** is a place set that, once empty, stays empty
//!   (`•S ⊆ S•`); at a deadlocked marking the unmarked places form one;
//! * a **trap** is a place set that, once marked, stays marked
//!   (`S• ⊆ •S`);
//! * **Commoner's condition**: a free-choice net is live iff every
//!   (minimal) siphon contains an initially marked trap.
//!
//! Maximal-siphon/trap extraction is polynomial (fixpoint deletion);
//! minimal-siphon enumeration is exponential in the worst case and runs
//! under an explicit budget.

use crate::budget::{Bounded, Budget, Meter, Verdict};
use crate::error::PetriError;
use crate::label::Label;
use crate::net::{PetriNet, PlaceId};
use std::collections::BTreeSet;

/// Whether `set` is a siphon: every transition with an output place in
/// the set also has an input place in the set.
pub fn is_siphon<L: Label>(net: &PetriNet<L>, set: &BTreeSet<PlaceId>) -> bool {
    net.transitions().all(|(_, t)| {
        t.postset().iter().all(|p| !set.contains(p)) || t.preset().iter().any(|p| set.contains(p))
    })
}

/// Whether `set` is a trap: every transition with an input place in the
/// set also has an output place in the set.
pub fn is_trap<L: Label>(net: &PetriNet<L>, set: &BTreeSet<PlaceId>) -> bool {
    net.transitions().all(|(_, t)| {
        t.preset().iter().all(|p| !set.contains(p)) || t.postset().iter().any(|p| set.contains(p))
    })
}

/// The maximal siphon contained in `subset` (possibly empty), computed
/// by fixpoint deletion in polynomial time.
pub fn max_siphon_in<L: Label>(net: &PetriNet<L>, subset: &BTreeSet<PlaceId>) -> BTreeSet<PlaceId> {
    let mut s = subset.clone();
    loop {
        let mut removed = false;
        for (_, t) in net.transitions() {
            if t.preset().iter().all(|p| !s.contains(p)) {
                for p in t.postset() {
                    if s.remove(p) {
                        removed = true;
                    }
                }
            }
        }
        if !removed {
            return s;
        }
    }
}

/// The maximal trap contained in `subset` (possibly empty).
pub fn max_trap_in<L: Label>(net: &PetriNet<L>, subset: &BTreeSet<PlaceId>) -> BTreeSet<PlaceId> {
    let mut s = subset.clone();
    loop {
        let mut removed = false;
        for (_, t) in net.transitions() {
            if t.postset().iter().all(|p| !s.contains(p)) {
                for p in t.preset() {
                    if s.remove(p) {
                        removed = true;
                    }
                }
            }
        }
        if !removed {
            return s;
        }
    }
}

/// At a dead marking, the unmarked places form a siphon (the classical
/// deadlock witness). Returns it, or `None` if the marking enables some
/// transition (i.e. is not dead).
pub fn deadlock_siphon<L: Label>(
    net: &PetriNet<L>,
    marking: &crate::Marking,
) -> Option<BTreeSet<PlaceId>> {
    if !net.enabled_transitions(marking).is_empty() {
        return None;
    }
    let unmarked: BTreeSet<PlaceId> = net
        .place_ids()
        .filter(|&p| marking.tokens(p) == 0)
        .collect();
    debug_assert!(is_siphon(net, &unmarked), "deadlock theorem");
    Some(unmarked)
}

/// Enumerates the minimal siphons of the net (by support inclusion),
/// depth-first under `budget`, metering one state per search node.
///
/// When the budget runs out the search stops and the
/// [`Bounded::Exhausted`] partial holds the siphons found so far: each
/// is a genuine siphon and minimal among those found, but siphons the
/// search had not reached are missing, so a listed one may still contain
/// a smaller siphon.
pub fn minimal_siphons<L: Label>(
    net: &PetriNet<L>,
    budget: &Budget,
) -> Bounded<Vec<BTreeSet<PlaceId>>> {
    // DFS over partial sets: a siphon must, for every place p it
    // contains and every producer t of p, contain some place of •t.
    // Branch on the unsatisfied (place, producer) obligations.
    let mut found: Vec<BTreeSet<PlaceId>> = Vec::new();
    let mut meter = Meter::new(budget);

    fn violation<L: Label>(net: &PetriNet<L>, s: &BTreeSet<PlaceId>) -> Option<Vec<PlaceId>> {
        for (_, t) in net.transitions() {
            if t.postset().iter().any(|p| s.contains(p))
                && !t.preset().iter().any(|p| s.contains(p))
            {
                return Some(t.preset().iter().copied().collect());
            }
        }
        None
    }

    /// Returns `false` once the meter has stopped the search.
    fn dfs<L: Label>(
        net: &PetriNet<L>,
        s: BTreeSet<PlaceId>,
        found: &mut Vec<BTreeSet<PlaceId>>,
        meter: &mut Meter,
    ) -> bool {
        if !meter.take_state() {
            return false;
        }
        // Prune: a superset of an already-found siphon is never minimal.
        if found.iter().any(|f| f.is_subset(&s)) {
            return true;
        }
        match violation(net, &s) {
            None => {
                found.retain(|f| !s.is_subset(f));
                found.push(s);
                true
            }
            // An empty choice list means a source transition feeds the
            // set: no siphon here.
            Some(choices) => choices.into_iter().all(|c| {
                let mut next = s.clone();
                next.insert(c);
                dfs(net, next, found, meter)
            }),
        }
    }

    for p in net.place_ids() {
        if !dfs(net, BTreeSet::from([p]), &mut found, &mut meter) {
            break;
        }
    }
    // Deduplicate and keep only minimal supports.
    found.sort();
    found.dedup();
    let snapshot = found.clone();
    found.retain(|s| !snapshot.iter().any(|o| o != s && o.is_subset(s)));
    meter.finish(found)
}

/// Commoner's condition for free-choice nets: **live iff every minimal
/// siphon contains an initially marked trap**.
///
/// The siphons come from [`minimal_siphons`] under `budget`. The verdict
/// is [`Verdict::Fails`] with the first siphon whose maximal trap holds
/// no initial token, and [`Verdict::Holds`] when the complete enumeration
/// finds none. Such a siphon proves the net not live even when the
/// search stopped early (by Commoner's theorem every siphon needs a
/// marked trap, minimal or not), so a stop yields [`Verdict::Unknown`]
/// only when no siphon found so far fails.
///
/// # Errors
///
/// [`PetriError::Precondition`] if the net is not free-choice (the
/// condition is only exact there); running out of `budget` is **not**
/// an error.
pub fn commoner_live<L: Label>(
    net: &PetriNet<L>,
    budget: &Budget,
) -> Result<Verdict<BTreeSet<PlaceId>>, PetriError> {
    if !net.structural().is_free_choice {
        return Err(PetriError::Precondition(
            "commoner's condition is exact for free-choice nets only".to_owned(),
        ));
    }
    let m0 = net.initial_marking();
    let siphons = minimal_siphons(net, budget);
    let failing = siphons.value().iter().find(|siphon| {
        // An isolated place is a vacuous siphon (and trap); the theorem
        // is stated for nets whose places touch some transition, so a
        // disconnected place must not force a non-live verdict.
        let isolated = siphon
            .iter()
            .all(|&p| net.producers(p).is_empty() && net.consumers(p).is_empty());
        !isolated && max_trap_in(net, siphon).iter().all(|&p| m0.tokens(p) == 0)
    });
    Ok(match (failing, siphons.exhausted()) {
        (Some(siphon), _) => Verdict::Fails(siphon.clone()),
        (None, None) => Verdict::Holds,
        (None, Some(info)) => Verdict::Unknown(*info),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::budget::Resource;

    fn cycle() -> (PetriNet<&'static str>, PlaceId, PlaceId) {
        let mut net = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        net.set_initial(p, 1);
        (net, p, q)
    }

    /// Two disjoint unmarked cycles `p ⇄ q` and `r ⇄ s`.
    fn two_cycles() -> PetriNet<&'static str> {
        let mut net = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let r = net.add_place("r");
        let s = net.add_place("s");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        net.add_transition([r], "c", [s]).unwrap();
        net.add_transition([s], "d", [r]).unwrap();
        net
    }

    /// The cycle `p0 → p1 → p2 → p0` with `p_i` marked iff bit `i` of
    /// `mask` is set.
    fn three_cycle(mask: u32) -> PetriNet<&'static str> {
        let mut net = PetriNet::new();
        let ps: Vec<PlaceId> = (0..3).map(|i| net.add_place(format!("p{i}"))).collect();
        net.add_transition([ps[0]], "a", [ps[1]]).unwrap();
        net.add_transition([ps[1]], "b", [ps[2]]).unwrap();
        net.add_transition([ps[2]], "c", [ps[0]]).unwrap();
        for (i, &p) in ps.iter().enumerate() {
            if mask & (1 << i) != 0 {
                net.set_initial(p, 1);
            }
        }
        net
    }

    /// The draining-branch net of `examples/structural_analysis.rs`: `p`
    /// feeds two consumers, and `leak`'s branch never returns the token.
    fn draining_branch() -> PetriNet<&'static str> {
        let mut net = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let sink = net.add_place("sink");
        net.add_transition([p], "leak", [sink]).unwrap();
        net.add_transition([p], "loop", [q]).unwrap();
        net.add_transition([q], "back", [p]).unwrap();
        net.add_transition([sink], "spin", [sink]).unwrap();
        net.set_initial(p, 1);
        net
    }

    #[test]
    fn cycle_is_its_own_siphon_and_trap() {
        let (net, p, q) = cycle();
        let s = BTreeSet::from([p, q]);
        assert!(is_siphon(&net, &s));
        assert!(is_trap(&net, &s));
        assert!(!is_siphon(&net, &BTreeSet::from([p])));
    }

    #[test]
    fn max_siphon_shrinks_to_fixpoint() {
        // p gets tokens from a source-ish structure: q alone is no
        // siphon once its producer's preset is outside.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let r = net.add_place("r");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [r]).unwrap();
        net.add_transition([r], "c", [p]).unwrap();
        let all: BTreeSet<PlaceId> = net.place_ids().collect();
        assert_eq!(max_siphon_in(&net, &all), all);
        let partial = BTreeSet::from([q, r]);
        assert!(max_siphon_in(&net, &partial).is_empty());
    }

    #[test]
    fn deadlock_yields_unmarked_siphon() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "go", [q]).unwrap();
        net.add_transition([q, p], "stuck", [p]).unwrap();
        net.set_initial(p, 1);
        // After `go`, p is empty and nothing fires.
        let dead = net
            .fire(&net.initial_marking(), crate::TransitionId::from_index(0))
            .unwrap();
        let siphon = deadlock_siphon(&net, &dead).expect("dead marking");
        assert!(siphon.contains(&p));
        assert!(deadlock_siphon(&net, &net.initial_marking()).is_none());
    }

    #[test]
    fn minimal_siphons_of_two_cycles() {
        let net = two_cycles();
        let [p, q, r, s] = [0, 1, 2, 3].map(PlaceId::from_index);
        let siphons = minimal_siphons(&net, &Budget::states(10_000))
            .complete()
            .unwrap();
        assert_eq!(siphons.len(), 2);
        assert!(siphons.contains(&BTreeSet::from([p, q])));
        assert!(siphons.contains(&BTreeSet::from([r, s])));
    }

    #[test]
    fn commoner_agrees_with_reachability_on_free_choice_nets() {
        // Family: two cycles sharing a free-choice place, with varying
        // markings — liveness flips with the marking.
        for mask in 0u32..8 {
            let net = three_cycle(mask);
            let structural = commoner_live(&net, &Budget::states(100_000)).unwrap();
            assert!(structural.is_definite(), "mask {mask}");
            let rg = net
                .reachability_bounded(&Budget::default())
                .complete()
                .unwrap();
            let behavioural = net.analysis(&rg).live;
            assert_eq!(structural.holds(), behavioural, "mask {mask}");
        }
    }

    #[test]
    fn commoner_detects_starved_choice() {
        // Free-choice net where one branch drains a siphon without a
        // marked trap.
        let net = draining_branch();
        assert!(commoner_live(&net, &Budget::states(100_000))
            .unwrap()
            .fails());
        let rg = net
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        assert!(!net.analysis(&rg).live);
    }

    #[test]
    fn commoner_rejects_non_free_choice() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let r = net.add_place("r");
        net.add_transition([p], "t1", [r]).unwrap();
        net.add_transition([p, q], "t2", [r]).unwrap();
        assert!(matches!(
            commoner_live(&net, &Budget::states(1000)),
            Err(PetriError::Precondition(_))
        ));
    }

    #[test]
    fn budget_enforced() {
        let (net, ..) = cycle();
        let partial = minimal_siphons(&net, &Budget::states(1));
        assert_eq!(
            partial.exhausted().map(|e| e.resource),
            Some(Resource::States)
        );
    }

    #[test]
    fn commoner_budget_sweep_agrees_with_full_budget() {
        let nets: Vec<PetriNet<&str>> = [cycle().0, two_cycles(), draining_branch()]
            .into_iter()
            .chain((0..8).map(three_cycle))
            .collect();
        let (mut unknown, mut early_fails) = (0, 0);
        for net in &nets {
            let full = commoner_live(net, &Budget::default()).unwrap();
            assert!(full.is_definite(), "{net}");
            let m0 = net.initial_marking();
            for budget in [0, 1, 2, 5]
                .map(Budget::states)
                .into_iter()
                .chain([Budget::default()])
            {
                let verdict = commoner_live(net, &budget).unwrap();
                assert!(verdict.agrees_with(&full), "{budget:?}: {verdict}\n{net}");
                if let Verdict::Fails(siphon) = &verdict {
                    assert!(is_siphon(net, siphon));
                    assert!(max_trap_in(net, siphon).iter().all(|&p| m0.tokens(p) == 0));
                    if !minimal_siphons(net, &budget).is_complete() {
                        early_fails += 1;
                    }
                }
                if verdict.is_unknown() {
                    unknown += 1;
                }
            }
        }
        assert!(unknown > 0, "no budget was small enough to matter");
        assert!(early_fails > 0, "no failing siphon was found on a prefix");

        // The draining branch: the search meets `{p, q}` at its second
        // node, so budgets from 2 on fail with it even though the search
        // stops before it is done.
        let net = draining_branch();
        let [p, q] = [0, 1].map(PlaceId::from_index);
        for cap in [0, 1] {
            assert!(commoner_live(&net, &Budget::states(cap))
                .unwrap()
                .is_unknown());
        }
        for cap in [2, 5] {
            assert!(!minimal_siphons(&net, &Budget::states(cap)).is_complete());
            assert_eq!(
                commoner_live(&net, &Budget::states(cap)).unwrap(),
                Verdict::Fails(BTreeSet::from([p, q]))
            );
        }
    }
}
