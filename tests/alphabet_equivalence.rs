//! Differential property suite for the interned alphabet layer.
//!
//! Every symbolized hot path must agree with a *generic* reference
//! computed at the label level: traces are materialized to `Vec<L>`,
//! filtered/combined with plain `BTreeSet<L>` operations, and only then
//! compared against what the `Sym`-encoded pipeline produced. The suite
//! covers
//!
//! * hiding: the symbolized contraction engine vs the single-step
//!   rebuild reference, across a contraction-budget sweep (exercising
//!   the `Bounded::Exhausted` prefixes) on safe *and* non-safe nets;
//! * projection: `Language::project`/`project_syms` vs label-level
//!   trace filtering, and net-level [`project`] vs language projection;
//! * parallel composition: `L(N1‖N2)` vs the Theorem 4.5 set
//!   `{t over A1∪A2 : t|A1 ∈ L(N1), t|A2 ∈ L(N2)}` enumerated
//!   generically;
//! * `Language` set ops (`union`, `intersection`) vs label-level set
//!   algebra, across interners that number the same labels differently.
//!
//! All randomized cases replay under `CPN_TESTKIT_SEED`.

use cpn_core::{common_alphabet, hide_labels_bounded, parallel, project, rename_injective};
use cpn_petri::{Budget, PetriNet};
use cpn_testkit::oracle;
use cpn_testkit::{check, prop_assert, prop_assume, NetStrategy, PropFail, PropResult, RawNet};
use cpn_trace::Language;
use std::collections::{BTreeMap, BTreeSet};

const LABELS: [&str; 4] = ["a", "b", "c", "tau"];
const DEPTH: usize = 3;
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

/// The label-level view of a language: owned traces, no symbols.
fn label_traces(l: &Language<&'static str>) -> BTreeSet<Vec<&'static str>> {
    l.iter().collect()
}

/// Rebuilds a net with its transitions added in **reverse** order, so
/// the rebuilt net's interner numbers the labels differently whenever
/// the original used two or more. The language is unchanged.
fn rebuilt_reversed(net: &PetriNet<&'static str>) -> PetriNet<&'static str> {
    let mut out: PetriNet<&'static str> = PetriNet::new();
    let m0 = net.initial_marking();
    for (old, place) in net.places() {
        let p = out.add_place(place.name().to_owned());
        out.set_initial(p, m0.tokens(old));
    }
    let recs: Vec<_> = net.transitions().collect();
    for (tid, t) in recs.into_iter().rev() {
        out.add_transition(
            t.preset().iter().copied(),
            *net.label_of(tid),
            t.postset().iter().copied(),
        )
        .expect("same arcs, same places");
    }
    for l in net.alphabet() {
        let s = out.intern_label(&l);
        out.declare_sym(s);
    }
    out
}

// ---------------------------------------------------------------------
// Hiding: symbolized engine vs generic reference, budget sweep.
// ---------------------------------------------------------------------

fn law_hide_sweep_matches_reference(raw: &RawNet) -> PropResult {
    let net = build(raw);
    for labels in [BTreeSet::from(["tau"]), BTreeSet::from(["c", "tau"])] {
        for cap in [0usize, 1, 2, 3, 200] {
            let budget = Budget::new(usize::MAX, cap);
            let symbolized = hide_labels_bounded(&net, &labels, &budget);
            let reference = oracle::hide_labels(&net, &labels, &budget);
            match (symbolized, reference) {
                (Ok(s), Ok(r)) => prop_assert!(
                    s == r,
                    "symbolized hide diverged on\n{net}\nhide {labels:?} cap {cap}\nsym: {s:?}\nref: {r:?}"
                ),
                (Err(_), Err(_)) => {}
                (s, r) => {
                    return Err(PropFail::Fail(format!(
                        "one hide path failed where the other succeeded on\n{net}\nsym: {s:?}\nref: {r:?}"
                    )))
                }
            }
        }
    }
    Ok(())
}

#[test]
fn hide_sweep_matches_reference_on_safe_nets() {
    check(
        "hide_sweep_matches_reference_on_safe_nets",
        &strategy(4, 4),
        law_hide_sweep_matches_reference,
    );
}

#[test]
fn hide_sweep_matches_reference_on_nonsafe_nets() {
    check(
        "hide_sweep_matches_reference_on_nonsafe_nets",
        &strategy(4, 4).max_tokens(3),
        law_hide_sweep_matches_reference,
    );
}

// ---------------------------------------------------------------------
// Projection: bitset path vs label-level filtering.
// ---------------------------------------------------------------------

fn law_language_project_matches_label_filter(raw: &RawNet) -> PropResult {
    let net = build(raw);
    let Some(l) = lang(&net, DEPTH) else {
        return Err(PropFail::Discard);
    };
    for keep in [
        BTreeSet::from(["a"]),
        BTreeSet::from(["a", "b"]),
        BTreeSet::from(["a", "b", "c"]),
        BTreeSet::new(),
    ] {
        let projected = l.project(&keep);
        // Generic reference: filter the label traces directly.
        let reference: BTreeSet<Vec<&'static str>> = label_traces(&l)
            .into_iter()
            .map(|t| t.into_iter().filter(|x| keep.contains(x)).collect())
            .collect();
        prop_assert!(
            label_traces(&projected) == reference,
            "project({keep:?}) diverged from label-level filtering on\n{net}"
        );
        let expected_alphabet: BTreeSet<&'static str> =
            net.alphabet().intersection(&keep).copied().collect();
        prop_assert!(
            projected.alphabet() == expected_alphabet,
            "projected alphabet wrong for keep {keep:?} on\n{net}"
        );
        // project_syms is the same operation, symbol-encoded end to end.
        let keep_syms = keep.iter().filter_map(|x| l.interner().get(x)).collect();
        prop_assert!(
            projected == l.project_syms(&keep_syms),
            "project and project_syms disagree for {keep:?} on\n{net}"
        );
    }
    Ok(())
}

#[test]
fn language_projection_matches_label_filtering() {
    check(
        "language_projection_matches_label_filtering",
        &strategy(4, 4),
        law_language_project_matches_label_filter,
    );
}

#[test]
fn language_projection_matches_label_filtering_nonsafe() {
    check(
        "language_projection_matches_label_filtering_nonsafe",
        &strategy(4, 4).max_tokens(3),
        law_language_project_matches_label_filter,
    );
}

/// Net-level projection (contraction of everything outside `keep`) must
/// agree with language-level projection when the hide succeeds — the
/// paper's `L(hide(N, A)) = hide(L(N), A)`.
fn law_net_project_matches_language_project(raw: &RawNet) -> PropResult {
    let net = build(raw);
    let keep = BTreeSet::from(["a", "b"]);
    let Ok(projected_net) = project(&net, &keep, 200) else {
        return Err(PropFail::Discard);
    };
    let (Some(l_proj), Some(l_full)) = (lang(&projected_net, DEPTH), lang(&net, DEPTH)) else {
        return Err(PropFail::Discard);
    };
    // Sound at equal depth: projecting a depth-D trace yields a trace of
    // length ≤ D, which the projected net must accept.
    prop_assert!(
        l_full.project(&keep).subset_up_to(&l_proj, DEPTH),
        "projection of L(N) escapes L(project(N)) on\n{net}\nprojected\n{projected_net}"
    );
    // The converse needs deeper exploration of the original: a length-3
    // projected trace may stem from a longer original trace whose extra
    // events are all hidden. 3 hidden events per visible one covers the
    // generated nets (≤ 4 transitions, no hidden cycles — those error).
    let deep = DEPTH + 3 * net.transition_count();
    let Some(l_deep) = lang(&net, deep) else {
        return Err(PropFail::Discard);
    };
    prop_assert!(
        l_proj.eq_up_to(&l_deep.project(&keep), DEPTH),
        "net projection diverged from language projection on\n{net}\nprojected\n{projected_net}"
    );
    Ok(())
}

#[test]
fn net_projection_matches_language_projection() {
    check(
        "net_projection_matches_language_projection",
        &strategy(4, 4),
        law_net_project_matches_language_project,
    );
}

// ---------------------------------------------------------------------
// Parallel composition: Theorem 4.5 enumerated generically.
// ---------------------------------------------------------------------

/// All traces over `alphabet` of length ≤ depth, by plain enumeration.
fn all_traces(alphabet: &BTreeSet<&'static str>, depth: usize) -> Vec<Vec<&'static str>> {
    let mut out: Vec<Vec<&'static str>> = vec![Vec::new()];
    let mut frontier = out.clone();
    for _ in 0..depth {
        let mut next = Vec::new();
        for t in &frontier {
            for l in alphabet {
                let mut ext = t.clone();
                ext.push(l);
                next.push(ext);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

fn law_parallel_matches_theorem_4_5(raw: &RawNet) -> PropResult {
    // The same structure under two label sets: the alphabets overlap on
    // {c, tau} (synchronized) and differ elsewhere (interleaved), and
    // the two interners number the shared labels differently.
    let n1 = build(raw);
    let n2 = raw.build_labels(&["c", "tau", "d", "e"]);
    let Ok(composed) = parallel(&n1, &n2) else {
        return Err(PropFail::Discard);
    };
    let (Some(lc), Some(l1), Some(l2)) =
        (lang(&composed, DEPTH), lang(&n1, DEPTH), lang(&n2, DEPTH))
    else {
        return Err(PropFail::Discard);
    };
    let a1 = n1.alphabet();
    let a2 = n2.alphabet();
    let union: BTreeSet<&'static str> = a1.union(&a2).copied().collect();
    prop_assume!(!union.is_empty());
    // Generic membership test: project at the label level and ask the
    // component languages.
    let t1 = label_traces(&l1);
    let t2 = label_traces(&l2);
    let reference: BTreeSet<Vec<&'static str>> = all_traces(&union, DEPTH)
        .into_iter()
        .filter(|t| {
            let p1: Vec<&'static str> = t.iter().copied().filter(|x| a1.contains(x)).collect();
            let p2: Vec<&'static str> = t.iter().copied().filter(|x| a2.contains(x)).collect();
            p1.len() <= DEPTH && p2.len() <= DEPTH && t1.contains(&p1) && t2.contains(&p2)
        })
        .collect();
    prop_assert!(
        label_traces(&lc) == reference,
        "Theorem 4.5 failed on\n{n1}\n‖\n{n2}\ncommon {:?}",
        common_alphabet(&n1, &n2)
    );
    // The symbolized language-level composition agrees too.
    prop_assert!(
        lc.eq_up_to(&l1.parallel(&l2), DEPTH),
        "L(N1‖N2) != L(N1)‖L(N2) on\n{n1}\n‖\n{n2}"
    );
    Ok(())
}

#[test]
fn parallel_matches_theorem_4_5() {
    let s = strategy(3, 3);
    check("parallel_matches_theorem_4_5", &s, |raw| {
        law_parallel_matches_theorem_4_5(raw)
    });
}

#[test]
fn parallel_matches_theorem_4_5_nonsafe() {
    let s = strategy(3, 3).max_tokens(2);
    check("parallel_matches_theorem_4_5_nonsafe", &s, |raw| {
        law_parallel_matches_theorem_4_5(raw)
    });
}

// ---------------------------------------------------------------------
// Language set ops across differently-numbered interners.
// ---------------------------------------------------------------------

fn law_set_ops_are_interner_independent(raw: &RawNet) -> PropResult {
    let net = build(raw);
    let rev = rebuilt_reversed(&net);
    let (Some(l), Some(lr)) = (lang(&net, DEPTH), lang(&rev, DEPTH)) else {
        return Err(PropFail::Discard);
    };
    // Same language, different symbol numbering.
    prop_assert!(l == lr, "reversed rebuild changed the language on\n{net}");
    // Union/intersection with a differently-interned operand must equal
    // the label-level set algebra.
    let tl = label_traces(&l);
    let tr = label_traces(&lr);
    let u = l.union(&lr);
    let i = l.intersection(&lr);
    let ref_union: BTreeSet<Vec<&'static str>> = tl.union(&tr).cloned().collect();
    let ref_inter: BTreeSet<Vec<&'static str>> = tl.intersection(&tr).cloned().collect();
    prop_assert!(
        label_traces(&u) == ref_union,
        "union diverged from label-level reference on\n{net}"
    );
    prop_assert!(
        label_traces(&i) == ref_inter,
        "intersection diverged from label-level reference on\n{net}"
    );
    // Hide is projection's complement; check it against project.
    let hidden = BTreeSet::from(["tau"]);
    let keep: BTreeSet<&'static str> = net
        .alphabet()
        .into_iter()
        .filter(|x| !hidden.contains(x))
        .collect();
    prop_assert!(
        l.hide(&hidden) == l.project(&keep),
        "hide({hidden:?}) != project(complement) on\n{net}"
    );
    Ok(())
}

#[test]
fn set_ops_are_interner_independent() {
    check(
        "set_ops_are_interner_independent",
        &strategy(4, 4),
        law_set_ops_are_interner_independent,
    );
}

#[test]
fn set_ops_are_interner_independent_nonsafe() {
    check(
        "set_ops_are_interner_independent_nonsafe",
        &strategy(4, 4).max_tokens(3),
        law_set_ops_are_interner_independent,
    );
}

// ---------------------------------------------------------------------
// Named regression: common_alphabet across disjoint interners.
// ---------------------------------------------------------------------

#[test]
fn common_alphabet_resolves_across_interners() {
    // n1 interns b then a; n2 interns a then c. The common alphabet is
    // {a} even though "a" is Sym(1) on the left and Sym(0) on the right.
    let mut n1: PetriNet<&str> = PetriNet::new();
    let p = n1.add_place("p");
    n1.add_transition([p], "b", [p]).unwrap();
    n1.add_transition([p], "a", [p]).unwrap();
    n1.set_initial(p, 1);
    let mut n2: PetriNet<&str> = PetriNet::new();
    let q = n2.add_place("q");
    n2.add_transition([q], "a", [q]).unwrap();
    n2.add_transition([q], "c", [q]).unwrap();
    n2.set_initial(q, 1);
    assert_eq!(common_alphabet(&n1, &n2), BTreeSet::from(["a"]));
    assert_eq!(common_alphabet(&n2, &n1), BTreeSet::from(["a"]));
}

// ---------------------------------------------------------------------
// Named regressions: injective renaming and cross-interner equality
// edge cases — colliding labels, empty alphabets, non-ASCII labels.
// ---------------------------------------------------------------------

fn ab_cycle() -> PetriNet<&'static str> {
    let mut net: PetriNet<&str> = PetriNet::new();
    let p = net.add_place("p");
    let q = net.add_place("q");
    net.add_transition([p], "a", [q]).unwrap();
    net.add_transition([q], "b", [p]).unwrap();
    net.set_initial(p, 1);
    net
}

#[test]
fn rename_injective_rejects_collapsing_maps() {
    let net = ab_cycle();

    // Two alphabet keys funnelled onto one value collapse {a, b}.
    let err = rename_injective(&net, &BTreeMap::from([("a", "x"), ("b", "x")]))
        .expect_err("a and b both map to x");
    assert!(
        matches!(&err, cpn_petri::PetriError::Precondition(m) if m.contains('x')),
        "wrong error: {err}"
    );

    // A value colliding with an alphabet label the map leaves fixed is
    // the sneaky collapse: {a → b} merges a into the existing b.
    let err = rename_injective(&net, &BTreeMap::from([("a", "b")]))
        .expect_err("a maps onto the unrenamed b");
    assert!(
        matches!(&err, cpn_petri::PetriError::Precondition(m) if m.contains('b')),
        "wrong error: {err}"
    );

    // A swap is injective: both labels move, nothing merges. The traces
    // are exactly the originals with the two labels exchanged.
    let swapped = rename_injective(&net, &BTreeMap::from([("a", "b"), ("b", "a")])).unwrap();
    let l = lang(&net, DEPTH).unwrap();
    let ls = lang(&swapped, DEPTH).unwrap();
    let reference: BTreeSet<Vec<&'static str>> = label_traces(&l)
        .into_iter()
        .map(|t| {
            t.into_iter()
                .map(|x| match x {
                    "a" => "b",
                    "b" => "a",
                    other => other,
                })
                .collect()
        })
        .collect();
    assert_eq!(label_traces(&ls), reference, "swap is not a pure relabel");

    // Keys outside the alphabet rename nothing and never collide — even
    // when their value is an existing label.
    let noop = rename_injective(&net, &BTreeMap::from([("z", "b")])).unwrap();
    assert_eq!(lang(&noop, DEPTH).unwrap(), l, "out-of-alphabet key acted");

    // Renaming onto a fresh label is always fine and keeps the traces.
    let fresh = rename_injective(&net, &BTreeMap::from([("a", "z")])).unwrap();
    assert!(fresh.alphabet().contains(&"z") && !fresh.alphabet().contains(&"a"));
}

#[test]
fn rename_injective_round_trips_non_ascii_labels() {
    // Nothing in the interner or the rename path may assume ASCII or
    // single-byte labels.
    let mut net: PetriNet<String> = PetriNet::new();
    let p = net.add_place("π");
    let q = net.add_place("ρ");
    net.add_transition([p], "σ↑".to_owned(), [q]).unwrap();
    net.add_transition([q], "τ₀".to_owned(), [p]).unwrap();
    net.set_initial(p, 1);

    // Collision detection sees multi-byte labels like any other.
    let err = rename_injective(&net, &BTreeMap::from([("σ↑".to_owned(), "τ₀".to_owned())]))
        .expect_err("σ↑ maps onto the unrenamed τ₀");
    assert!(
        matches!(&err, cpn_petri::PetriError::Precondition(m) if m.contains("τ₀")),
        "wrong error: {err}"
    );

    // There and back again: the round trip restores the exact language
    // even though the final interner numbered the labels afresh.
    let there =
        rename_injective(&net, &BTreeMap::from([("σ↑".to_owned(), "σ↓".to_owned())])).unwrap();
    assert!(there.alphabet().contains("σ↓"));
    let back = rename_injective(
        &there,
        &BTreeMap::from([("σ↓".to_owned(), "σ↑".to_owned())]),
    )
    .unwrap();
    let l0 = Language::from_net(&net, DEPTH, TRACE_BUDGET).unwrap();
    let l2 = Language::from_net(&back, DEPTH, TRACE_BUDGET).unwrap();
    assert_eq!(l0, l2, "rename round trip changed the language");
}

#[test]
fn language_equality_tracks_alphabets_not_numbering() {
    // Numbering alone never distinguishes: the reversed rebuild interns
    // the same labels in the opposite order.
    let net = ab_cycle();
    let l = lang(&net, DEPTH).unwrap();
    let lr = lang(&rebuilt_reversed(&net), DEPTH).unwrap();
    assert_eq!(l, lr, "symbol numbering leaked into equality");
    // But the interners themselves are order-sensitive by design.
    assert!(
        net.interner().get(&"a") != rebuilt_reversed(&net).interner().get(&"a"),
        "reversed rebuild failed to renumber"
    );

    // Alphabets do distinguish, even with identical trace sets: a dead
    // transition contributes its label to the alphabet and nothing else.
    let mut with_dead = ab_cycle();
    let dead = with_dead.add_place("dead");
    with_dead.add_transition([dead], "c", [dead]).unwrap();
    let ld = lang(&with_dead, DEPTH).unwrap();
    assert_eq!(
        label_traces(&ld),
        label_traces(&l),
        "dead transition fired somehow"
    );
    assert!(l != ld, "alphabet difference {{c}} must break equality");
}

#[test]
fn empty_alphabet_languages_compare_equal() {
    // Transition-free nets have the one-trace language {ε} over an empty
    // alphabet — regardless of place structure or interner contents.
    let mut n1: PetriNet<&str> = PetriNet::new();
    let p = n1.add_place("p");
    n1.set_initial(p, 1);
    let mut n2: PetriNet<&str> = PetriNet::new();
    n2.add_place("x");
    n2.add_place("y");
    // Interned but never declared: the interner is non-empty while the
    // alphabet stays empty. Equality must look at the alphabet.
    n2.intern_label(&"ghost");

    let l1 = lang(&n1, DEPTH).unwrap();
    let l2 = lang(&n2, DEPTH).unwrap();
    assert_eq!(label_traces(&l1), BTreeSet::from([Vec::new()]));
    assert_eq!(l1, l2, "empty-alphabet languages diverged");
    assert!(l1.alphabet().is_empty() && l2.alphabet().is_empty());

    // Hiding or projecting nothing on an empty language is the identity.
    assert_eq!(l1.hide(&BTreeSet::new()), l1);
    assert_eq!(l1.project(&BTreeSet::new()), l1);
}

#[test]
fn alpha_set_equality_ignores_capacity() {
    use cpn_petri::{AlphaSet, Sym};
    // Two sets holding {0, 3}, one built after touching symbol 131 (three
    // words of backing storage), one never grown past a single word.
    let mut small = AlphaSet::new();
    small.insert(Sym::from_index(0));
    small.insert(Sym::from_index(3));
    let mut big = AlphaSet::new();
    big.insert(Sym::from_index(131));
    big.insert(Sym::from_index(0));
    big.insert(Sym::from_index(3));
    assert!(small != big);
    assert!(big.remove(Sym::from_index(131)), "131 was inserted");
    assert_eq!(small, big, "trailing zero words leaked into equality");
    assert_eq!(small.len(), 2);
}
