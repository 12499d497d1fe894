//! Property tests: the kernel's independent analyses must agree with
//! each other on random nets — coverability vs. reachability bounds,
//! semiflow certificates vs. Karp–Miller, structural marked-graph
//! results vs. behavioural ones, Commoner vs. reachability liveness.
//!
//! Driven by the deterministic `cpn-testkit` harness: failures print a
//! case seed, replayable via `CPN_TESTKIT_SEED=<seed>`.

use cpn_petri::invariant::covered_by_p_semiflows;
use cpn_petri::{
    commoner_live, dead_transitions_rg, dead_transitions_structural_mg, mg_live_structural,
    mg_place_bounds, mg_safe_structural, Budget, CoverabilityOutcome, CoverabilityTree, PetriNet,
    PlaceId,
};
use cpn_testkit::{
    check, prop_assert, prop_assert_eq, prop_assume, u32_in, usize_in, vec_of, NetStrategy,
    RingStrategy,
};

/// Random nets: 2–5 places, 1–5 uniquely-labeled transitions, up to two
/// tokens per place (the historical `proptest` strategy, verbatim).
fn raw_net() -> NetStrategy {
    NetStrategy::new(5, 5, 1).max_tokens(2)
}

/// Random marked-graph rings of length 3–6 with 0/1 tokens per place.
fn raw_mg() -> RingStrategy {
    RingStrategy::new(3, 6, 1)
}

/// A state machine (singleton presets/postsets ⇒ free-choice) over four
/// places from an arc list.
fn build_state_machine(arcs: &[(usize, usize)], marks: &[u32]) -> PetriNet<String> {
    let mut net: PetriNet<String> = PetriNet::new();
    let ps: Vec<PlaceId> = (0..4).map(|i| net.add_place(format!("p{i}"))).collect();
    for (i, &(a, b)) in arcs.iter().enumerate() {
        net.add_transition([ps[a]], format!("t{i}"), [ps[b]])
            .unwrap();
    }
    for (i, &m) in marks.iter().enumerate() {
        net.set_initial(ps[i], m);
    }
    net
}

#[test]
fn coverability_bound_matches_reachability() {
    check(
        "coverability_bound_matches_reachability",
        &raw_net(),
        |raw| {
            let net = raw.build_indexed();
            // The compiled entry builds the same tree, partial ones
            // included: a 2-node budget stops every net with more.
            let (compiled, m0) = (net.compile(), net.initial_marking());
            for budget in [Budget::states(40_000), Budget::states(2)] {
                let source = CoverabilityTree::build_bounded(&net, &budget);
                let pre = CoverabilityTree::build_compiled(&compiled, m0.as_slice(), &budget);
                prop_assert_eq!(source.exhausted(), pre.exhausted());
                prop_assert_eq!(source.value().markings(), pre.value().markings());
                prop_assert_eq!(source.value().outcome(), pre.value().outcome());
            }
            let Some(tree) =
                CoverabilityTree::build_bounded(&net, &Budget::states(40_000)).complete()
            else {
                return Ok(()); // budget: skip pathological instances
            };
            match tree.outcome() {
                CoverabilityOutcome::Bounded { bound } => {
                    // The KM bound must equal the exact reachable bound.
                    let rg = net
                        .reachability_bounded(&Budget::states(200_000))
                        .complete()
                        .expect("bounded nets explore fully");
                    prop_assert_eq!(*bound, rg.token_bound());
                }
                CoverabilityOutcome::Unbounded { witnesses } => {
                    prop_assert!(!witnesses.is_empty());
                    // An unbounded net cannot be covered by P-semiflows.
                    if let Some(covered) = covered_by_p_semiflows(&net, 5_000) {
                        prop_assert!(!covered, "semiflow cover contradicts ω");
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn semiflow_cover_implies_km_bounded() {
    check("semiflow_cover_implies_km_bounded", &raw_net(), |raw| {
        let net = raw.build_indexed();
        let Some(true) = covered_by_p_semiflows(&net, 5_000) else {
            return Ok(());
        };
        let tree = CoverabilityTree::build_bounded(&net, &Budget::states(100_000))
            .complete()
            .expect("covered nets have finite coverability sets");
        prop_assert!(tree.is_bounded());
        Ok(())
    });
}

#[test]
fn structural_mg_dead_matches_rg() {
    check("structural_mg_dead_matches_rg", &raw_mg(), |ring| {
        let net = ring.build();
        let structural = dead_transitions_structural_mg(&net).unwrap();
        let rg = net
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        let exact = dead_transitions_rg(&net, &rg);
        prop_assert_eq!(structural, exact);
        Ok(())
    });
}

#[test]
fn structural_mg_liveness_and_safety_match_rg() {
    check(
        "structural_mg_liveness_and_safety_match_rg",
        &raw_mg(),
        |ring| {
            let net = ring.build();
            let rg = net
                .reachability_bounded(&Budget::default())
                .complete()
                .unwrap();
            let analysis = net.analysis(&rg);
            prop_assert_eq!(mg_live_structural(&net).unwrap(), analysis.live);
            if analysis.live {
                prop_assert_eq!(mg_safe_structural(&net).unwrap(), analysis.safe);
                let bounds = mg_place_bounds(&net).unwrap();
                let max = bounds.iter().map(|b| b.unwrap()).max().unwrap();
                prop_assert_eq!(max, u64::from(analysis.bound));
            }
            Ok(())
        },
    );
}

#[test]
fn commoner_matches_rg_on_random_state_machines() {
    let strategy = (
        vec_of((usize_in(0..4), usize_in(0..4)), 2..=7),
        vec_of(u32_in(0..2), 4..=4),
    );
    check(
        "commoner_matches_rg_on_random_state_machines",
        &strategy,
        |(arcs, marks)| {
            let net = build_state_machine(arcs, marks);
            prop_assume!(net.structural().is_free_choice);
            let Ok(structural) = commoner_live(&net, &Budget::states(100_000)) else {
                return Ok(());
            };
            if structural.is_unknown() {
                return Ok(());
            }
            let rg = net
                .reachability_bounded(&Budget::states(100_000))
                .complete()
                .unwrap();
            let behavioural = net.analysis(&rg).live;
            prop_assert_eq!(structural.holds(), behavioural, "net:\n{}", net);
            Ok(())
        },
    );
}

/// Regression (formerly `analyses.proptest-regressions`, seed
/// `a8d59970…`): the three-transition cycle `p1→p2→p0→p1` with the only
/// token on p2 — Commoner and the reachability graph must agree.
#[test]
fn regression_commoner_cycle_with_token_on_p2() {
    let arcs = [(1, 2), (2, 0), (0, 1)];
    let marks = [0, 0, 1, 0];
    let net = build_state_machine(&arcs, &marks);
    assert!(net.structural().is_free_choice);
    let structural = commoner_live(&net, &Budget::states(100_000)).unwrap();
    assert!(structural.is_definite());
    let rg = net
        .reachability_bounded(&Budget::states(100_000))
        .complete()
        .unwrap();
    let behavioural = net.analysis(&rg).live;
    assert_eq!(structural.holds(), behavioural, "net:\n{net}");
}

// ----------------------------------------------------------------------
// Deadline / cancellation degradation
// ----------------------------------------------------------------------

/// `n` independent 2-place toggles: the reachability graph has `2^n`
/// states, so any realistic wall-clock deadline trips long before the
/// exploration completes.
fn toggle_net(n: usize) -> PetriNet<String> {
    let mut net: PetriNet<String> = PetriNet::new();
    for i in 0..n {
        let a = net.add_place(format!("a{i}"));
        let b = net.add_place(format!("b{i}"));
        net.set_initial(a, 1);
        net.add_transition([a], format!("up{i}"), [b])
            .expect("toggle up");
        net.add_transition([b], format!("down{i}"), [a])
            .expect("toggle down");
    }
    net
}

#[test]
fn deadline_exceeded_exploration_returns_exhausted_with_partial_results() {
    use cpn_petri::{Bounded, Resource};
    let net = toggle_net(24); // 2^24 states — unreachable under any deadline here
    let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
    match net.reachability_bounded(&budget) {
        Bounded::Exhausted { partial, info } => {
            assert_eq!(info.resource, Resource::Deadline);
            // Partial results are intact: a well-formed graph prefix
            // containing at least the initial state, every edge target
            // inside the explored prefix.
            assert!(partial.state_count() >= 1);
            for s in 0..partial.state_count() {
                for &(_, dst) in partial.edges(cpn_petri::StateId::from_index(s)) {
                    assert!(dst.index() < partial.state_count());
                }
            }
        }
        Bounded::Complete(_) => panic!("zero deadline cannot complete a 2^24 exploration"),
    }
}

#[test]
fn short_deadline_terminates_explosive_exploration_promptly() {
    let net = toggle_net(24);
    let budget = Budget::unlimited().with_deadline(std::time::Duration::from_millis(50));
    let started = std::time::Instant::now();
    let out = net.reachability_bounded(&budget);
    // Generous bound: the poll interval is 1024 meter events, so the
    // overshoot past 50ms is bounded by one interval's work.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "deadline did not bound the exploration"
    );
    assert!(!out.is_complete());
}

#[test]
fn cancelled_exploration_stops_with_cancelled_resource() {
    use cpn_petri::{Bounded, CancelScope, Resource};
    let scope = CancelScope::new();
    scope.cancel(); // cancelled before it starts: stops at the first poll
    let net = toggle_net(24);
    let budget = Budget::unlimited().with_cancel(scope.token());
    match net.reachability_bounded(&budget) {
        Bounded::Exhausted { info, .. } => assert_eq!(info.resource, Resource::Cancelled),
        Bounded::Complete(_) => panic!("cancelled exploration cannot complete"),
    }
}

#[test]
fn deadline_applies_to_coverability_and_spilled_exploration() {
    // An expired deadline stops coverability and the exploration kernel
    // (which every explorer, large state spaces included, now runs on).
    use cpn_petri::{reachability_bounded_compiled, Resource};
    let net = toggle_net(24);
    let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
    assert!(!CoverabilityTree::build_bounded(&net, &budget).is_complete());
    let out =
        reachability_bounded_compiled(&net.compile(), net.initial_marking().as_slice(), &budget);
    assert_eq!(
        out.exhausted().map(|e| e.resource),
        Some(Resource::Deadline)
    );
}
