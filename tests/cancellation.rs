//! A caller's cancel token reaches every state-space analysis that takes
//! a [`Budget`]: cancelled before the call, each one stops with
//! [`Resource::Cancelled`] and returns the partial its doc promises for
//! a stop before any state was explored.

use cpn::cip::protocol::protocol_cip_restricted;
use cpn::cip::HandshakeProtocol;
use cpn::core::closure_report;
use cpn::petri::{
    commoner_live, minimal_siphons, Bounded, Budget, CancelScope, PetriNet, Resource,
};
use cpn::stg::protocol::{receiver, sender, sender_restricted, translator};

/// The resource that stopped a bounded build, if any.
fn stop<T>(built: &Bounded<T>) -> Option<Resource> {
    built.exhausted().map(|e| e.resource)
}

/// The cycle `p → q → p` through `a` then `b`, marked at `p`.
fn cycle(a: &'static str, b: &'static str) -> PetriNet<&'static str> {
    let mut net = PetriNet::new();
    let p = net.add_place("p");
    let q = net.add_place("q");
    net.add_transition([p], a, [q]).expect("fresh places");
    net.add_transition([q], b, [p]).expect("fresh places");
    net.set_initial(p, 1);
    net
}

/// One analysis run under a budget: the resource that stopped it
/// (`None` when it finished), and whether its result is the documented
/// partial of a stop before the first explored state.
type Run = fn(&Budget) -> (Option<Resource>, bool);

const ANALYSES: [(&str, Run); 8] = [
    ("minimal_siphons", |budget| {
        // Nothing found before the first search node.
        let out = minimal_siphons(&cycle("a", "b"), budget);
        (stop(&out), out.value().is_empty())
    }),
    ("commoner_live", |budget| {
        // An `Unknown` verdict carries no partial.
        let verdict = commoner_live(&cycle("a", "b"), budget).expect("free-choice");
        (verdict.exhausted().map(|e| e.resource), true)
    }),
    ("closure_report", |budget| {
        // The structural fields stay definite.
        let (n1, n2) = (cycle("a", "b"), cycle("b", "c"));
        let out = closure_report(&n1, &n2, budget).expect("composable");
        let report = out.value();
        (
            stop(&out),
            report.operands_marked_graph && report.composition_marked_graph,
        )
    }),
    ("Stg::classical_report", |budget| {
        // The structural field stays definite; consistency is not checked.
        let out = sender().classical_report(budget);
        let report = out.value();
        (
            stop(&out),
            report.strongly_connected && report.consistent.is_none(),
        )
    }),
    ("Stg::remove_dead", |budget| {
        // The STG unchanged.
        let stg = sender().compose(&translator()).expect("composable");
        let out = stg.remove_dead(budget);
        (stop(&out), out.value().net().same_structure(stg.net()))
    }),
    ("Stg::prune_against", |budget| {
        // The STG unchanged.
        let rx = receiver();
        let out = rx.prune_against(&translator(), budget).expect("composable");
        (stop(&out), out.value().net().same_structure(rx.net()))
    }),
    ("Stg::reduce_against", |budget| {
        // The composition, nothing pruned or projected.
        let (tr, env) = (translator(), sender_restricted());
        let out = tr.reduce_against(&env, budget, 10_000).expect("reducible");
        let composed = tr.compose(&env).expect("composable");
        (stop(&out), out.value().net().same_structure(composed.net()))
    }),
    ("ExpandedSystem::reduce_module_against_rest", |budget| {
        // The translator composed with the sender and receiver, nothing
        // pruned or projected.
        let sys = protocol_cip_restricted()
            .expect("valid CIP")
            .expand(HandshakeProtocol::FourPhase)
            .expect("expandable");
        let out = sys
            .reduce_module_against_rest(1, budget, 10_000)
            .expect("reducible");
        let stgs = sys.stgs();
        let rest = stgs[0].compose(&stgs[2]).expect("composable");
        let composed = stgs[1].compose(&rest).expect("composable");
        (stop(&out), out.value().net().same_structure(composed.net()))
    }),
];

#[test]
fn every_analysis_completes_under_the_default_budget() {
    for (name, run) in ANALYSES {
        assert_eq!(run(&Budget::default()).0, None, "{name}");
    }
}

#[test]
fn cancel_token_stops_every_analysis_with_its_documented_partial() {
    for (name, run) in ANALYSES {
        let scope = CancelScope::new();
        scope.cancel();
        let (stopped_by, documented) = run(&Budget::default().with_cancel(scope.token()));
        assert_eq!(stopped_by, Some(Resource::Cancelled), "{name}");
        assert!(documented, "{name}: the partial is not the documented one");
    }
}
