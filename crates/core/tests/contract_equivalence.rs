//! Differential property suite for the contraction engine: the
//! [`NetEditor`]-backed hiding pipeline must be **bit-identical** to the
//! reference chain of single-step `hide_transition` rebuilds
//! ([`oracle::hide_labels`]) — same places in the same order,
//! same transitions in the same order, same marking, same alphabet, and
//! the same [`Bounded::Exhausted`] prefix (net *and* statistics) when a
//! budget runs out mid-label. Full `PetriNet` equality is strictly
//! stronger than the trace-language equality the paper's theorems
//! require, so the suite checks language equality for free.
//!
//! On top of the differential contract:
//!
//! * Proposition 4.6 order independence re-checked on **non-safe** nets
//!   (multiset initial markings), which the engine must handle the same
//!   as the reference;
//! * the structural reduction rules ([`NetEditor::reduce`]) are checked
//!   trace-preserving against the `cpn-trace` oracle on generated nets;
//! * [`NetEditor::reduce`] and [`NetEditor::reduce_with`] are checked
//!   bit-identical (net and [`ReductionStats`](cpn_core::ReductionStats))
//!   to the rebuild-per-rule reference, [`oracle::reduce`] and
//!   [`oracle::reduce_with`]: on fresh editors, and for `reduce` also
//!   after random sequences of partial hides and reductions, where the
//!   duplicates sit at the arena's end but mid-way in transition order.
//!
//! All randomized cases replay under `CPN_TESTKIT_SEED`.

use cpn_core::{hide_label, hide_labels_bounded, hide_transition, CoreError, NetEditor};
use cpn_petri::{AlphaSet, Budget, Meter, PetriNet, TransitionId};
use cpn_testkit::oracle;
use cpn_testkit::{
    check, prop_assert, prop_assume, u32_in, usize_in, vec_of, NetStrategy, PropFail, PropResult,
    RawNet,
};
use cpn_trace::Language;
use std::collections::BTreeSet;

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

fn assert_law(name: &str, result: PropResult) {
    match result {
        Ok(()) | Err(PropFail::Discard) => {}
        Err(PropFail::Fail(msg)) => panic!("law {name} violated: {msg}"),
    }
}

/// Error *variants* must agree; the attached ids may differ (the legacy
/// path reports post-rebuild transition numbers, the engine reports
/// arena slots).
fn error_variant(e: &CoreError) -> String {
    match e {
        CoreError::Net(pe) => format!("Net({:?})", std::mem::discriminant(pe)),
        other => format!("{:?}", std::mem::discriminant(other)),
    }
}

/// The differential contract: engine vs reference, for one hide set and
/// one budget. On success both sides must produce the *same* value
/// (complete or exhausted, net and statistics); on failure the same
/// error variant at the same point.
fn engines_agree(
    net: &PetriNet<&'static str>,
    labels: &BTreeSet<&'static str>,
    contraction_cap: usize,
) -> PropResult {
    let budget = Budget::new(usize::MAX, contraction_cap);
    let v2 = hide_labels_bounded(net, labels, &budget);
    let legacy = oracle::hide_labels(net, labels, &budget);
    match (v2, legacy) {
        (Ok(v2), Ok(legacy)) => {
            prop_assert!(
                v2 == legacy,
                "engine diverged from reference on\n{net}\nhide {labels:?} cap {contraction_cap}\nv2: {v2:?}\nlegacy: {legacy:?}"
            );
        }
        (Err(v2), Err(legacy)) => {
            prop_assert!(
                error_variant(&v2) == error_variant(&legacy),
                "error variants diverged: v2 {v2:?} vs legacy {legacy:?}"
            );
        }
        (v2, legacy) => {
            return Err(PropFail::Fail(format!(
                "one engine failed where the other succeeded on\n{net}\nv2: {v2:?}\nlegacy: {legacy:?}"
            )));
        }
    }
    Ok(())
}

/// Engine ≡ reference across a budget sweep: caps 0..4 exercise the
/// `Bounded::Exhausted` prefixes (including exhaustion mid-label on
/// multi-label sets), the large cap the complete results.
fn law_engine_matches_legacy(raw: &RawNet) -> PropResult {
    let net = build(raw);
    let single = BTreeSet::from(["tau"]);
    let multi = BTreeSet::from(["c", "tau"]);
    for cap in [0usize, 1, 2, 3, 200] {
        engines_agree(&net, &single, cap)?;
        engines_agree(&net, &multi, cap)?;
    }
    Ok(())
}

/// Proposition 4.6 on non-safe nets: contract two *different* `tau`
/// transitions first, finish hiding with the engine, and demand equal
/// trace languages.
fn law_order_independence_nonsafe(raw: &RawNet) -> PropResult {
    let net = build(raw);
    let taus: Vec<TransitionId> = net.transitions_with_label(&"tau").collect();
    prop_assume!(taus.len() >= 2);
    let Ok(first) = hide_transition(&net, taus[0]) else {
        return Ok(());
    };
    let Ok(second) = hide_transition(&net, taus[1]) else {
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
    prop_assert!(
        l0.unwrap().eq_up_to(&l1.unwrap(), 3),
        "Proposition 4.6 (non-safe) on\n{net}"
    );
    Ok(())
}

/// The structural reduction rules preserve the trace language exactly.
fn law_reduce_preserves_language(raw: &RawNet) -> PropResult {
    let net = build(raw);
    let mut editor = NetEditor::from_net(&net);
    let stats = editor.reduce();
    let reduced = match editor.finish() {
        Ok(n) => n,
        Err(e) => return Err(PropFail::Fail(format!("finish failed: {e}"))),
    };
    prop_assert!(
        reduced.place_count() <= net.place_count()
            && reduced.transition_count() <= net.transition_count(),
        "reduction may only shrink"
    );
    let (l0, l1) = (lang(&net, DEPTH), lang(&reduced, DEPTH));
    prop_assume!(l0.is_some() && l1.is_some());
    prop_assert!(
        l0.unwrap().eq_up_to(&l1.unwrap(), DEPTH),
        "reduction changed the language ({stats:?}) on\n{net}\nreduced\n{reduced}"
    );
    Ok(())
}

/// `reduce` on `editor` against [`oracle::reduce`] on the net the editor
/// holds: the same reduced net and the same statistics.
fn reduce_agrees(editor: &mut NetEditor<&'static str>) -> PropResult {
    let finish = |editor: &NetEditor<&'static str>| {
        editor
            .finish()
            .map_err(|e| PropFail::Fail(format!("finish failed: {e}")))
    };
    let before = finish(editor)?;
    let stats = editor.reduce();
    let after = finish(editor)?;
    let want = oracle::reduce(&before)
        .map_err(|e| PropFail::Fail(format!("reference reduce failed: {e}")))?;
    prop_assert!(
        want == (after.clone(), stats),
        "reduce diverged from the reference on\n{before}\neditor ({stats:?}):\n{after}\nreference ({:?}):\n{}",
        want.1,
        want.0
    );
    Ok(())
}

fn law_reduce_matches_oracle(raw: &RawNet) -> PropResult {
    reduce_agrees(&mut NetEditor::from_net(&build(raw)))
}

/// Each step either hides up to three transitions of one label or
/// checks a `reduce` against the reference; a last `reduce` is checked
/// after the sequence. A contraction error ends the sequence early.
fn law_reduce_after_contractions_matches_oracle((raw, steps): &(RawNet, Vec<usize>)) -> PropResult {
    let net = build(raw);
    let mut editor = NetEditor::from_net(&net);
    for &step in steps {
        let Some(label) = LABELS.get(step % (LABELS.len() + 1)) else {
            reduce_agrees(&mut editor)?;
            continue;
        };
        let cap = 1 + step / (LABELS.len() + 1) % 3;
        let mut meter = Meter::new(&Budget::new(usize::MAX, cap));
        if editor.hide_label(label, &mut meter).is_err() {
            break;
        }
    }
    reduce_agrees(&mut editor)
}

/// `reduce_with` on a fresh editor against [`oracle::reduce_with`],
/// keeping the labels whose bit is set in `mask`.
fn law_reduce_with_matches_oracle((raw, mask): &(RawNet, u32)) -> PropResult {
    let net = build(raw);
    let keep: AlphaSet = LABELS
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask >> i & 1 == 1)
        .filter_map(|(_, l)| net.sym_of(l))
        .collect();
    let mut editor = NetEditor::from_net(&net);
    let stats = editor.reduce_with(&keep);
    let after = editor
        .finish()
        .map_err(|e| PropFail::Fail(format!("finish failed: {e}")))?;
    let want = oracle::reduce_with(&net, &keep)
        .map_err(|e| PropFail::Fail(format!("reference reduce_with failed: {e}")))?;
    prop_assert!(
        want == (after.clone(), stats),
        "reduce_with (mask {mask:#x}) diverged from the reference on\n{net}\neditor ({stats:?}):\n{after}\nreference ({:?}):\n{}",
        want.1,
        want.0
    );
    Ok(())
}

#[test]
fn engine_matches_legacy_on_safe_nets() {
    check(
        "engine_matches_legacy_on_safe_nets",
        &strategy(4, 4),
        law_engine_matches_legacy,
    );
}

#[test]
fn engine_matches_legacy_on_nonsafe_nets() {
    check(
        "engine_matches_legacy_on_nonsafe_nets",
        &strategy(4, 4).max_tokens(3),
        law_engine_matches_legacy,
    );
}

#[test]
fn prop_4_6_order_independence_nonsafe() {
    check(
        "prop_4_6_order_independence_nonsafe",
        &strategy(4, 4).max_tokens(3),
        law_order_independence_nonsafe,
    );
}

#[test]
fn reduction_rules_preserve_language() {
    check(
        "reduction_rules_preserve_language",
        &strategy(4, 4),
        law_reduce_preserves_language,
    );
}

#[test]
fn reduction_rules_preserve_language_nonsafe() {
    check(
        "reduction_rules_preserve_language_nonsafe",
        &strategy(4, 4).max_tokens(3),
        law_reduce_preserves_language,
    );
}

#[test]
fn reduce_matches_oracle_on_safe_nets() {
    check(
        "reduce_matches_oracle_on_safe_nets",
        &strategy(5, 5),
        law_reduce_matches_oracle,
    );
}

#[test]
fn reduce_matches_oracle_on_nonsafe_nets() {
    check(
        "reduce_matches_oracle_on_nonsafe_nets",
        &strategy(5, 5).max_tokens(3),
        law_reduce_matches_oracle,
    );
}

#[test]
fn reduce_after_contractions_matches_oracle_on_safe_nets() {
    check(
        "reduce_after_contractions_matches_oracle_on_safe_nets",
        &(strategy(4, 4), vec_of(usize_in(0..15), 1..=6)),
        law_reduce_after_contractions_matches_oracle,
    );
}

#[test]
fn reduce_after_contractions_matches_oracle_on_nonsafe_nets() {
    check(
        "reduce_after_contractions_matches_oracle_on_nonsafe_nets",
        &(strategy(4, 4).max_tokens(3), vec_of(usize_in(0..15), 1..=6)),
        law_reduce_after_contractions_matches_oracle,
    );
}

#[test]
fn reduce_with_matches_oracle_on_safe_nets() {
    check(
        "reduce_with_matches_oracle_on_safe_nets",
        &(strategy(5, 5), u32_in(0..16)),
        law_reduce_with_matches_oracle,
    );
}

#[test]
fn reduce_with_matches_oracle_on_nonsafe_nets() {
    check(
        "reduce_with_matches_oracle_on_nonsafe_nets",
        &(strategy(5, 5).max_tokens(3), u32_in(0..16)),
        law_reduce_with_matches_oracle,
    );
}

// ---------------------------------------------------------------------
// Named regressions: nets whose hiding paths exercise specific engine
// behaviours deterministically.
// ---------------------------------------------------------------------

/// tau-chain: exhaustion lands mid-label at every cap, so the
/// `Bounded::Exhausted` parity (net + statistics) is exercised on a
/// known multi-round contraction.
#[test]
fn regression_tau_chain_budget_prefixes() {
    let mut net: PetriNet<&str> = PetriNet::new();
    let mut prev = net.add_place("p0");
    net.set_initial(prev, 1);
    for i in 0..4 {
        let next = net.add_place(Box::leak(format!("p{}", i + 1).into_boxed_str()));
        let label = if i == 0 { "a" } else { "tau" };
        net.add_transition([prev], label, [next]).unwrap();
        prev = next;
    }
    for (labels, cap) in [
        (BTreeSet::from(["tau"]), 1usize),
        (BTreeSet::from(["tau"]), 2),
        (BTreeSet::from(["tau"]), 3),
        (BTreeSet::from(["a", "tau"]), 2),
    ] {
        assert_law("tau chain budget sweep", engines_agree(&net, &labels, cap));
    }
}

/// A contraction that duplicates a transition carrying the hidden label
/// itself: the worklist must re-enqueue the duplicate (legacy re-scans).
#[test]
fn regression_duplicate_of_hidden_label_reenqueues() {
    // tau1: s -> m; tau2: m -> e, and a second consumer of m so tau2 is
    // duplicated when tau1 is contracted.
    let mut net: PetriNet<&str> = PetriNet::new();
    let s = net.add_place("s");
    let m = net.add_place("m");
    let e = net.add_place("e");
    let o = net.add_place("o");
    net.add_transition([s], "tau", [m]).unwrap();
    net.add_transition([m], "tau", [e]).unwrap();
    net.add_transition([e], "a", [s]).unwrap();
    net.add_transition([m], "b", [o]).unwrap();
    net.set_initial(s, 1);
    for cap in [0usize, 1, 2, 3, 4, 200] {
        assert_law(
            "duplicate re-enqueue",
            engines_agree(&net, &BTreeSet::from(["tau"]), cap),
        );
    }
}

/// Two series-transition fusions that exclude each other: fusing
/// either `tau` into `t` puts `k` into `t`'s postset, which closes the
/// overlap gate for the other. The one whose place comes first in arena
/// order must be fused.
#[test]
fn regression_series_fusion_visit_order() {
    let mut net: PetriNet<&str> = PetriNet::new();
    let s = net.add_place("s");
    let i = net.add_place("i");
    let j = net.add_place("j");
    let k = net.add_place("k");
    net.add_transition([s], "t", [i, j]).unwrap();
    net.add_transition([j], "tau", [k]).unwrap();
    net.add_transition([i], "c", [k]).unwrap();
    net.set_initial(s, 1);
    let keep: AlphaSet = [net.sym_of(&"t").unwrap()].into_iter().collect();
    let mut editor = NetEditor::from_net(&net);
    let stats = editor.reduce_with(&keep);
    assert_eq!(stats.series_transitions, 1);
    let reduced = editor.finish().unwrap();
    assert_eq!(
        oracle::reduce_with(&net, &keep).unwrap(),
        (reduced.clone(), stats)
    );
    assert!(reduced.transitions_with_label(&"tau").next().is_some());
    assert!(reduced.transitions_with_label(&"c").next().is_none());
}

/// Divergence (hidden self-loop after one contraction) must surface as
/// the same error variant from both engines.
#[test]
fn regression_divergence_error_parity() {
    let mut net: PetriNet<&str> = PetriNet::new();
    let p = net.add_place("p");
    let q = net.add_place("q");
    net.add_transition([p], "tau", [q]).unwrap();
    net.add_transition([q], "tau", [p]).unwrap();
    net.set_initial(p, 1);
    assert_law(
        "divergence parity",
        engines_agree(&net, &BTreeSet::from(["tau"]), 200),
    );
    let budget = Budget::new(usize::MAX, 200);
    assert!(hide_labels_bounded(&net, &BTreeSet::from(["tau"]), &budget).is_err());
}
