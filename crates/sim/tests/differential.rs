//! Differential oracle: the step simulator against the reachability
//! graph on generated bounded nets — the two independent implementations
//! of the token game must agree on enabled sets and successor markings
//! at every state, and every marking a random walk visits must be a node
//! of the graph (located via the O(1) `find_state` index).
//!
//! Driven by the deterministic `cpn-testkit` harness at ≥100 cases:
//! failures print a case seed, replayable via `CPN_TESTKIT_SEED=<seed>`.

use cpn_petri::{Budget, TransitionId};
use cpn_sim::Simulator;
use cpn_testkit::{check_with, prop_assert, prop_assert_eq, Config, NetStrategy};
use std::collections::BTreeSet;

/// ≥100 cases per suite, still overridable via `CPN_TESTKIT_CASES`.
fn cases() -> Config {
    let config = Config::from_env();
    if std::env::var("CPN_TESTKIT_CASES").is_ok() {
        config
    } else {
        config.with_cases(128)
    }
}

/// Random nets: 2–5 places, 1–5 uniquely-labeled transitions, up to two
/// tokens per place. Unbounded instances are discarded (the graph side
/// of the differential needs a finite state space).
fn raw_net() -> NetStrategy {
    NetStrategy::new(5, 5, 1).max_tokens(2)
}

#[test]
fn enabled_sets_and_successors_agree_at_every_state() {
    check_with(
        "enabled_sets_and_successors_agree_at_every_state",
        &cases(),
        &raw_net(),
        |raw| {
            let net = raw.build_indexed();
            let Some(rg) = net.reachability_bounded(&Budget::states(50_000)).complete() else {
                return Err(cpn_testkit::PropFail::Discard);
            };
            for s in rg.state_ids() {
                let m = rg.marking(s);
                // The net's enabled set vs. the edges the BFS recorded.
                let enabled: BTreeSet<TransitionId> =
                    net.enabled_transitions(&m).into_iter().collect();
                let edge_set: BTreeSet<TransitionId> =
                    rg.edges(s).iter().map(|&(t, _)| t).collect();
                prop_assert_eq!(enabled, edge_set, "enabled set differs at {}", s);
                // Each edge's target is exactly the fired marking, and
                // the index locates it.
                for &(t, to) in rg.edges(s) {
                    let next = net.fire(&m, t).expect("edge transition enabled");
                    prop_assert_eq!(next, rg.marking(to));
                    prop_assert_eq!(rg.find_state(&next), Some(to));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn random_walks_stay_inside_the_reachability_graph() {
    check_with(
        "random_walks_stay_inside_the_reachability_graph",
        &cases(),
        &raw_net(),
        |raw| {
            let net = raw.build_indexed();
            let Some(rg) = net.reachability_bounded(&Budget::states(50_000)).complete() else {
                return Err(cpn_testkit::PropFail::Discard);
            };
            let mut sim = Simulator::new(&net, 0xD1FF);
            let mut state = rg
                .find_state(sim.marking())
                .expect("initial marking is the initial state");
            prop_assert_eq!(state, rg.initial_state());
            for _ in 0..64 {
                let Some(fired) = sim.step() else {
                    // Deadlocked: the graph must agree no edge leaves here.
                    prop_assert!(
                        rg.edges(state).is_empty(),
                        "simulator deadlocked but {} has edges",
                        state
                    );
                    break;
                };
                // The move must be an edge of the graph, and the reached
                // marking that edge's target.
                let next = rg.find_state(sim.marking());
                prop_assert!(
                    next.is_some(),
                    "walk left the reachability graph after firing t{}",
                    fired.index()
                );
                let next = next.unwrap();
                prop_assert!(
                    rg.edges(state).contains(&(fired, next)),
                    "fired t{} from {} to {} but the graph has no such edge",
                    fired.index(),
                    state,
                    next
                );
                state = next;
            }
            Ok(())
        },
    );
}
