//! A two-user mutual-exclusion arbiter — the paper's example of why the
//! algebra must handle **general** Petri nets (Section 5.1):
//!
//! > "important systems like arbiters cannot be modeled in these
//! > subclasses of marked graphs and free-choice nets. For this, general
//! > Petri nets should be allowed for an STG."
//!
//! The arbiter grants at most one of two clients at a time through a
//! shared mutex place consumed by both grant transitions — a non-free-
//! choice conflict by construction. Mutual exclusion is certified three
//! ways in the tests: by reachability, by a P-semiflow covering the
//! critical section, and by composition with client models.

use crate::signal::{Edge, SignalDir};
use crate::stg::{Stg, StgError};
use cpn_petri::PlaceId;

/// Builds the two-user arbiter STG.
///
/// Interface per client `i ∈ {1, 2}`: input `r{i}` (request), output
/// `g{i}` (grant), 4-phase: `r+ g+ r- g-`.
pub fn arbiter() -> Stg {
    arbiter_n(2)
}

/// Builds an `n`-user arbiter: `n` request/grant client ports competing
/// for one shared mutex place.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn arbiter_n(n: usize) -> Stg {
    assert!(n > 0, "an arbiter needs at least one client");
    match try_arbiter_n(n) {
        Ok(stg) => stg,
        Err(e) => panic!("arbiter model construction: {e}"),
    }
}

fn try_arbiter_n(n: usize) -> Result<Stg, StgError> {
    let mut stg = Stg::new();
    let mutex = stg.add_place("mutex");
    stg.set_initial(mutex, 1);
    for i in 1..=n {
        let r = stg.add_signal(format!("r{i}"), SignalDir::Input);
        let g = stg.add_signal(format!("g{i}"), SignalDir::Output);
        let idle = stg.add_place(format!("idle{i}"));
        let req = stg.add_place(format!("req{i}"));
        let granted = stg.add_place(format!("granted{i}"));
        let done = stg.add_place(format!("done{i}"));
        stg.set_initial(idle, 1);
        stg.add_signal_transition([idle], (r.clone(), Edge::Rise), [req])?;
        // The grant consumes the shared mutex: the non-free-choice core.
        stg.add_signal_transition([req, mutex], (g.clone(), Edge::Rise), [granted])?;
        stg.add_signal_transition([granted], (r, Edge::Fall), [done])?;
        stg.add_signal_transition([done], (g, Edge::Fall), [idle, mutex])?;
    }
    Ok(stg)
}

/// A client of the arbiter: raises its request, waits for the grant,
/// uses the resource (`use{i}~` toward its own environment), releases.
///
/// # Panics
///
/// Panics on a model-construction bug (cannot occur).
pub fn client(i: usize) -> Stg {
    match try_client(i) {
        Ok(stg) => stg,
        Err(e) => panic!("client model construction: {e}"),
    }
}

fn try_client(i: usize) -> Result<Stg, StgError> {
    let mut stg = Stg::new();
    let r = stg.add_signal(format!("r{i}"), SignalDir::Output);
    let g = stg.add_signal(format!("g{i}"), SignalDir::Input);
    let use_sig = stg.add_signal(format!("use{i}"), SignalDir::Output);
    let p0 = stg.add_place("p0");
    let p1 = stg.add_place("p1");
    let p2 = stg.add_place("p2");
    let p3 = stg.add_place("p3");
    let p4 = stg.add_place("p4");
    stg.set_initial(p0, 1);
    stg.add_signal_transition([p0], (r.clone(), Edge::Rise), [p1])?;
    stg.add_signal_transition([p1], (g.clone(), Edge::Rise), [p2])?;
    stg.add_signal_transition([p2], (use_sig, Edge::Toggle), [p3])?;
    stg.add_signal_transition([p3], (r, Edge::Fall), [p4])?;
    stg.add_signal_transition([p4], (g, Edge::Fall), [p0])?;
    Ok(stg)
}

/// The critical-section place set of the arbiter: `granted{i}`,
/// `done{i}` and the mutex — the support of the mutual-exclusion
/// invariant.
pub fn critical_section_places(stg: &Stg) -> Vec<PlaceId> {
    stg.net()
        .places()
        .filter(|(_, p)| {
            p.name() == "mutex" || p.name().starts_with("granted") || p.name().starts_with("done")
        })
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use cpn_petri::{semiflows_p, Budget, NetClass, PetriError};

    #[test]
    fn arbiter_is_a_general_net() {
        let a = arbiter();
        let rep = a.net().structural();
        assert_eq!(rep.class, NetClass::General, "the paper's point");
        assert!(!rep.is_free_choice);
        assert!(!rep.is_marked_graph);
        assert!(rep.strongly_connected);
    }

    #[test]
    fn arbiter_is_live_and_safe() {
        let a = arbiter();
        let rep = a.classical_report(&Budget::default()).complete().unwrap();
        assert!(rep.live && rep.safe);
    }

    #[test]
    fn mutual_exclusion_holds_in_every_reachable_marking() {
        let a = arbiter();
        let rg = a
            .net()
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        let granted: Vec<_> = a
            .net()
            .places()
            .filter(|(_, p)| p.name().starts_with("granted") || p.name().starts_with("done"))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(granted.len(), 4);
        for s in rg.state_ids() {
            let m = rg.marking(s);
            let in_cs: u32 = granted.iter().map(|&p| m.tokens(p)).sum();
            assert!(in_cs <= 1, "two clients in the critical section: {m}");
        }
    }

    #[test]
    fn mutual_exclusion_certified_by_semiflow() {
        // The invariant mutex + granted1 + done1 + granted2 + done2 = 1
        // is a P-semiflow: a *structural* certificate, no state space.
        let a = arbiter();
        let cs = critical_section_places(&a);
        let flows = semiflows_p(a.net(), 100_000).unwrap();
        let found = flows.iter().any(|f| {
            let support = f.support();
            cs.iter().all(|p| support.contains(&p.index())) && support.len() == cs.len()
        });
        assert!(found, "critical-section semiflow exists: {flows:?}");
    }

    #[test]
    fn free_choice_analysis_rightly_refuses() {
        // Commoner's condition is exact for free-choice nets only; the
        // arbiter is the counterexample class the paper warns about.
        let a = arbiter();
        assert!(matches!(
            cpn_petri::commoner_live(a.net(), &Budget::states(100_000)),
            Err(PetriError::Precondition(_))
        ));
    }

    #[test]
    fn arbiter_with_two_clients_is_receptive_and_exclusive() {
        let opts = Budget::default();
        let a = arbiter();
        let system_env = client(1).compose(&client(2)).unwrap();
        let verdict = a
            .check_receptiveness(&system_env, &Budget::default())
            .unwrap();
        assert!(verdict.holds(), "{verdict:?}");

        let system = a.compose(&system_env).unwrap();
        let rg = system.net().reachability_bounded(&opts).complete().unwrap();
        let analysis = system.net().analysis(&rg);
        assert!(analysis.live && analysis.safe);
        // use1~ and use2~ never concurrent: no marking enables both.
        let use_enabled = |m: &cpn_petri::Marking, i: usize| {
            system.net().transitions().any(|(tid, _)| {
                system
                    .net()
                    .label_of(tid)
                    .signal_name()
                    .is_some_and(|s| s.name() == format!("use{i}"))
                    && system.net().is_enabled(m, tid)
            })
        };
        for s in rg.state_ids() {
            let m = rg.marking(s);
            assert!(
                !(use_enabled(&m, 1) && use_enabled(&m, 2)),
                "both clients using the resource at {m}"
            );
        }
    }

    #[test]
    fn n_user_arbiter_scales_and_stays_exclusive() {
        for n in [1usize, 3, 4] {
            let a = arbiter_n(n);
            let rep = a.classical_report(&Budget::default()).complete().unwrap();
            assert!(rep.live && rep.safe, "n = {n}");
            let rg = a
                .net()
                .reachability_bounded(&Budget::default())
                .complete()
                .unwrap();
            let cs: Vec<_> = a
                .net()
                .places()
                .filter(|(_, p)| p.name().starts_with("granted") || p.name().starts_with("done"))
                .map(|(id, _)| id)
                .collect();
            for s in rg.state_ids() {
                let m = rg.marking(s);
                let in_cs: u32 = cs.iter().map(|&p| m.tokens(p)).sum();
                assert!(in_cs <= 1, "n = {n}: exclusion violated at {m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_user_arbiter_panics() {
        arbiter_n(0);
    }

    #[test]
    fn client_alone_is_classical() {
        let c = client(1);
        let rep = c.classical_report(&Budget::default()).complete().unwrap();
        assert!(rep.is_classical());
    }
}
