//! Property tests: the paper's trace-preservation theorems checked on
//! randomly generated nets against the `cpn-trace` oracle.
//!
//! * Proposition 4.2 — `L(a.N) = {ε,a} ∪ {a}·L(N)`
//! * Proposition 4.3 — `L(rename(N, b→c)) = rename(L(N), b→c)`
//! * Proposition 4.4 — `L(N1 + N2) = L(N1) ∪ L(N2)`
//! * Theorem 4.5     — `L(N1 ‖ N2) = L(N1) ‖ L(N2)`
//! * Theorem 4.7     — `L(hide(N, a)) = hide(L(N), a)`
//! * Proposition 4.6 — hiding order independence (up to traces)
//! * Proposition 5.2 — safety closed under the operators
//! * Theorem 5.1     — `project(L(M1‖M2), A_i) ⊆ L(M_i)`
//!
//! Each law body is a plain function over `cpn-testkit` raw nets, so the
//! randomized suites and the named regression cases (formerly
//! `laws.proptest-regressions`) exercise the identical code path.

use cpn_core::{choice, choice_general, hide_label, hide_transition, parallel, prefix, rename};
use cpn_petri::{Budget, PetriNet, TransitionId};
use cpn_testkit::{
    check, prop_assert, prop_assume, u32_in, vec_of, NetStrategy, PropFail, PropResult, RawNet,
    RawTransition,
};
use cpn_trace::Language;
use std::collections::{BTreeMap, BTreeSet};

const LABELS: [&str; 4] = ["a", "b", "c", "tau"];
const DEPTH: usize = 4;
const TRACE_BUDGET: usize = 200_000;

fn strategy(max_places: usize, max_transitions: usize) -> NetStrategy {
    NetStrategy::new(max_places, max_transitions, LABELS.len())
}

fn build(raw: &RawNet) -> PetriNet<&'static str> {
    raw.build_labels(&LABELS)
}

fn lang(net: &PetriNet<&'static str>, depth: usize) -> Option<Language<&'static str>> {
    Language::from_net(net, depth, TRACE_BUDGET).ok()
}

/// Runs a law body directly (for the named regression cases): a
/// discarded precondition is vacuous, a failure panics.
fn assert_law(name: &str, result: PropResult) {
    match result {
        Ok(()) | Err(PropFail::Discard) => {}
        Err(PropFail::Fail(msg)) => panic!("law {name} violated: {msg}"),
    }
}

fn law_4_2_prefix(raw: &RawNet) -> PropResult {
    let n = build(raw);
    let prefixed = prefix("x", &n).expect("safe marking by construction");
    let lhs = lang(&prefixed, DEPTH);
    let rhs = lang(&n, DEPTH - 1).map(|l| l.prefix_action("x"));
    prop_assume!(lhs.is_some() && rhs.is_some());
    prop_assert!(lhs.unwrap().eq_up_to(&rhs.unwrap(), DEPTH));
    Ok(())
}

fn law_4_3_rename(raw: &RawNet) -> PropResult {
    let n = build(raw);
    let renamed = rename(&n, &BTreeMap::from([("a", "z")]));
    let lhs = lang(&renamed, DEPTH);
    let rhs = lang(&n, DEPTH).map(|l| l.rename(|x| if *x == "a" { "z" } else { *x }));
    prop_assume!(lhs.is_some() && rhs.is_some());
    prop_assert!(lhs.unwrap().eq_up_to(&rhs.unwrap(), DEPTH));
    Ok(())
}

fn law_4_4_choice(raw1: &RawNet, raw2: &RawNet) -> PropResult {
    let n1 = build(raw1);
    let n2 = build(raw2);
    let both = choice(&n1, &n2).expect("safe markings by construction");
    let lhs = lang(&both, DEPTH);
    let (l1, l2) = (lang(&n1, DEPTH), lang(&n2, DEPTH));
    prop_assume!(lhs.is_some() && l1.is_some() && l2.is_some());
    prop_assert!(
        lhs.unwrap()
            .eq_up_to(&l1.unwrap().union(&l2.unwrap()), DEPTH),
        "L(N1+N2) = L(N1) ∪ L(N2)"
    );
    Ok(())
}

fn law_4_4_choice_general_multiset(raw1: &RawNet, raw2: &RawNet, boosts: &[u32]) -> PropResult {
    // The general construction must satisfy the union law even with
    // multiset initial markings (which Def 4.6 proper rejects).
    let mut n1 = build(raw1);
    for (i, &b) in boosts.iter().enumerate() {
        if i < n1.place_count() && b > 0 {
            let p = cpn_petri::PlaceId::from_index(i);
            n1.set_initial(p, n1.initial_marking().tokens(p) + b);
        }
    }
    let n2 = build(raw2);
    let both = choice_general(&n1, &n2).unwrap();
    let lhs = lang(&both, DEPTH);
    let (l1, l2) = (lang(&n1, DEPTH), lang(&n2, DEPTH));
    prop_assume!(lhs.is_some() && l1.is_some() && l2.is_some());
    prop_assert!(
        lhs.unwrap()
            .eq_up_to(&l1.unwrap().union(&l2.unwrap()), DEPTH),
        "general choice union law"
    );
    Ok(())
}

fn law_4_5_parallel(raw1: &RawNet, raw2: &RawNet) -> PropResult {
    let n1 = build(raw1);
    let n2 = build(raw2);
    let composed = parallel(&n1, &n2).unwrap();
    let lhs = lang(&composed, DEPTH);
    let (l1, l2) = (lang(&n1, DEPTH), lang(&n2, DEPTH));
    prop_assume!(lhs.is_some() && l1.is_some() && l2.is_some());
    prop_assert!(
        lhs.unwrap()
            .eq_up_to(&l1.unwrap().parallel(&l2.unwrap()), DEPTH),
        "L(N1‖N2) = L(N1)‖L(N2)"
    );
    Ok(())
}

fn law_4_7_hide(raw: &RawNet) -> PropResult {
    let n = build(raw);
    let depth = 3usize;
    // Divergent nets (hidden cycles / self-loops) are rightfully
    // rejected by the operator; skip those inputs.
    let Ok(hidden) = hide_label(&n, &"tau", 200) else {
        return Ok(());
    };
    let lhs = lang(&hidden, depth);
    // Hiding shortens traces: extract the source language deep enough
    // that every surviving trace of length ≤ depth has its witness.
    let slack = depth * (1 + n.transition_count()) + 2;
    let rhs = Language::from_net(&n, slack, TRACE_BUDGET)
        .ok()
        .map(|l| l.hide(&BTreeSet::from(["tau"])));
    prop_assume!(lhs.is_some() && rhs.is_some());
    prop_assert!(
        lhs.as_ref()
            .unwrap()
            .eq_up_to(&rhs.as_ref().unwrap().truncate(depth), depth),
        "Theorem 4.7 on\n{n}\nlhs {}\nrhs {}",
        lhs.unwrap(),
        rhs.unwrap()
    );
    Ok(())
}

fn law_4_6_hide_order_independence(raw: &RawNet) -> PropResult {
    let n = build(raw);
    let taus: Vec<TransitionId> = n.transitions_with_label(&"tau").collect();
    prop_assume!(taus.len() >= 2);
    let Ok(first) = hide_transition(&n, taus[0]) else {
        return Ok(());
    };
    let Ok(second) = hide_transition(&n, taus[1]) else {
        return Ok(());
    };
    let (Ok(via0), Ok(via1)) = (
        hide_label(&first, &"tau", 200),
        hide_label(&second, &"tau", 200),
    ) else {
        return Ok(());
    };
    let (l0, l1) = (lang(&via0, 3), lang(&via1, 3));
    prop_assume!(l0.is_some() && l1.is_some());
    prop_assert!(l0.unwrap().eq_up_to(&l1.unwrap(), 3), "Proposition 4.6");
    Ok(())
}

fn law_5_2_safety_closure(raw1: &RawNet, raw2: &RawNet) -> PropResult {
    let n1 = build(raw1);
    let n2 = build(raw2);
    let budget = Budget::states(20_000);
    let safe = |n: &PetriNet<&'static str>| -> Option<bool> {
        n.reachability_bounded(&budget)
            .complete()
            .map(|rg| n.analysis(&rg).safe)
    };
    prop_assume!(safe(&n1) == Some(true) && safe(&n2) == Some(true));

    let composed = parallel(&n1, &n2).unwrap();
    if let Some(s) = safe(&composed) {
        prop_assert!(s, "safety closed under parallel composition");
    }
    let both = choice(&n1, &n2).expect("safe markings");
    if let Some(s) = safe(&both) {
        prop_assert!(s, "safety closed under choice");
    }
    if let Ok(hidden) = hide_label(&n1, &"tau", 200) {
        if let Some(s) = safe(&hidden) {
            prop_assert!(s, "safety closed under hiding:\n{n1}\n{hidden}");
        }
    }
    Ok(())
}

fn law_5_4_marked_graphs_closed(raw1: &RawNet, raw2: &RawNet) -> PropResult {
    // Marked graphs are closed under action prefix, renaming and
    // parallel composition (Prop 5.4). Parallel composition needs the
    // synchronization to be conflict-free, which holds when each
    // common label has at most one transition per operand — filter
    // the generated nets accordingly.
    let n1 = build(raw1);
    let n2 = build(raw2);
    prop_assume!(n1.structural().is_marked_graph);
    prop_assume!(n2.structural().is_marked_graph);

    let renamed = rename(&n1, &BTreeMap::from([("a", "z")]));
    prop_assert!(renamed.structural().is_marked_graph, "renaming");

    // Prefix closure holds on term-built nets whose initial places
    // are roots (no producers yet) — the prefix transition becomes
    // their unique producer. On a cyclic MG the initial place would
    // gain a second producer, so the claim is read on the term
    // algebra, as the paper builds its nets.
    let roots_unproduced = n1
        .initial_places()
        .iter()
        .all(|&p| n1.producers(p).is_empty());
    if roots_unproduced {
        let prefixed = prefix("fresh", &n1).expect("safe marking");
        prop_assert!(prefixed.structural().is_marked_graph, "prefix");
    }

    let common: Vec<&str> = cpn_core::common_alphabet(&n1, &n2).into_iter().collect();
    let unique_sync = common.iter().all(|l| {
        n1.transitions_with_label(l).count() <= 1 && n2.transitions_with_label(l).count() <= 1
    });
    prop_assume!(unique_sync);
    let composed = parallel(&n1, &n2).unwrap();
    prop_assert!(
        composed.structural().is_marked_graph,
        "parallel composition of MGs with conflict-free sync"
    );
    Ok(())
}

fn law_5_1_projection_containment(raw1: &RawNet, raw2: &RawNet) -> PropResult {
    let n1 = build(raw1);
    let n2 = build(raw2);
    let composed = parallel(&n1, &n2).unwrap();
    let lc = lang(&composed, DEPTH);
    let l1 = lang(&n1, DEPTH);
    prop_assume!(lc.is_some() && l1.is_some());
    let projected = lc.unwrap().project(&n1.alphabet());
    prop_assert!(
        projected.subset_up_to(&l1.unwrap(), DEPTH),
        "project(L(M1‖M2), A1) ⊆ L(M1)"
    );
    Ok(())
}

#[test]
fn prop_4_2_prefix() {
    check("prop_4_2_prefix", &strategy(4, 4), law_4_2_prefix);
}

#[test]
fn prop_4_3_rename() {
    check("prop_4_3_rename", &strategy(4, 4), law_4_3_rename);
}

#[test]
fn prop_4_4_choice() {
    check(
        "prop_4_4_choice",
        &(strategy(3, 3), strategy(3, 3)),
        |(raw1, raw2)| law_4_4_choice(raw1, raw2),
    );
}

#[test]
fn prop_4_4_choice_general_multiset() {
    let s = (strategy(3, 3), strategy(3, 3), vec_of(u32_in(0..3), 3..=3));
    check(
        "prop_4_4_choice_general_multiset",
        &s,
        |(raw1, raw2, boosts)| law_4_4_choice_general_multiset(raw1, raw2, boosts),
    );
}

#[test]
fn thm_4_5_parallel() {
    check(
        "thm_4_5_parallel",
        &(strategy(3, 3), strategy(3, 3)),
        |(raw1, raw2)| law_4_5_parallel(raw1, raw2),
    );
}

#[test]
fn thm_4_7_hide() {
    check("thm_4_7_hide", &strategy(4, 4), law_4_7_hide);
}

#[test]
fn prop_4_6_hide_order_independence() {
    check(
        "prop_4_6_hide_order_independence",
        &strategy(4, 4),
        law_4_6_hide_order_independence,
    );
}

#[test]
fn prop_5_2_safety_closure() {
    check(
        "prop_5_2_safety_closure",
        &(strategy(3, 3), strategy(3, 3)),
        |(raw1, raw2)| law_5_2_safety_closure(raw1, raw2),
    );
}

#[test]
fn prop_5_4_marked_graphs_closed() {
    check(
        "prop_5_4_marked_graphs_closed",
        &(strategy(3, 3), strategy(3, 3)),
        |(raw1, raw2)| law_5_4_marked_graphs_closed(raw1, raw2),
    );
}

#[test]
fn thm_5_1_projection_containment() {
    check(
        "thm_5_1_projection_containment",
        &(strategy(3, 3), strategy(3, 3)),
        |(raw1, raw2)| law_5_1_projection_containment(raw1, raw2),
    );
}

// ---------------------------------------------------------------------
// Named regression cases, converted from `laws.proptest-regressions`.
// Each historical shrunk counterexample runs through every law of the
// matching arity so a regression in any of them resurfaces here.
// ---------------------------------------------------------------------

fn t(pre: &[usize], label: usize, post: &[usize]) -> RawTransition {
    RawTransition {
        pre: pre.to_vec(),
        label,
        post: post.to_vec(),
    }
}

fn check_all_one_net_laws(raw: &RawNet) {
    assert_law("4.2 prefix", law_4_2_prefix(raw));
    assert_law("4.3 rename", law_4_3_rename(raw));
    assert_law("4.7 hide", law_4_7_hide(raw));
    assert_law("4.6 hide order", law_4_6_hide_order_independence(raw));
}

fn check_all_two_net_laws(raw1: &RawNet, raw2: &RawNet) {
    assert_law("4.4 choice", law_4_4_choice(raw1, raw2));
    assert_law(
        "4.4 choice general",
        law_4_4_choice_general_multiset(raw1, raw2, &[0, 0, 0]),
    );
    assert_law("4.5 parallel", law_4_5_parallel(raw1, raw2));
    assert_law("5.2 safety", law_5_2_safety_closure(raw1, raw2));
    assert_law(
        "5.4 marked graphs",
        law_5_4_marked_graphs_closed(raw1, raw2),
    );
    assert_law("5.1 projection", law_5_1_projection_containment(raw1, raw2));
}

/// Formerly proptest seed `6099808f…`: a two-place net whose `c`-labeled
/// join consumes both tokens, paired with a bare `a` self-loop net.
#[test]
fn regression_join_consumes_both_tokens() {
    let raw1 = RawNet {
        places: 2,
        transitions: vec![t(&[1, 0], 2, &[0]), t(&[0], 0, &[0])],
        marking: vec![1, 1],
    };
    let raw2 = RawNet {
        places: 2,
        transitions: vec![t(&[0], 0, &[0])],
        marking: vec![0, 0],
    };
    check_all_two_net_laws(&raw1, &raw2);
}

/// Formerly proptest seed `6b25a8a8…`: two `tau` transitions sharing the
/// marked source place, one forking into both places of an `a`-join —
/// the shape that once broke hiding.
#[test]
fn regression_tau_fork_into_join() {
    let raw = RawNet {
        places: 4,
        transitions: vec![t(&[3], 3, &[0]), t(&[1, 0], 0, &[1]), t(&[3], 3, &[1, 0])],
        marking: vec![0, 0, 0, 1],
    };
    check_all_one_net_laws(&raw);
}

/// Formerly proptest seed `714e9a47…`: two unmarked two-place nets with
/// the same `a` alphabet but different cycle structure (synchronization
/// on an initially dead label).
#[test]
fn regression_sync_on_dead_label() {
    let raw1 = RawNet {
        places: 2,
        transitions: vec![t(&[0], 0, &[1]), t(&[1], 0, &[0])],
        marking: vec![0, 0],
    };
    let raw2 = RawNet {
        places: 2,
        transitions: vec![t(&[0], 0, &[0]), t(&[1], 0, &[1])],
        marking: vec![0, 0],
    };
    check_all_two_net_laws(&raw1, &raw2);
}
