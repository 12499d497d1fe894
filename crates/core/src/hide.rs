//! Hiding as **generalized net contraction** (Definition 4.10,
//! Proposition 4.6, Theorem 4.7 and Figure 3 of the paper) — the novel
//! operator of the algebra.
//!
//! Classical approaches hide an action by relabeling its transitions to a
//! silent ε and paying for it during state-space analysis. Here the
//! transition is **removed from the net**, in analogy with the ε-closure
//! of automata:
//!
//! For a transition `t = (p, a, q)` to hide,
//!
//! 1. new places `p × q` replace the places of `p` (places of `q` stay);
//! 2. every successor of `t` (a transition consuming from `q`) is
//!    duplicated;
//! 3. the duplicates consume **all** the new places (a complete virtual
//!    firing of `t`);
//! 4. every other occurrence of a place `p' ∈ p` is replaced by its row
//!    `{p'} × q`;
//! 5. each duplicate re-emits the places of `q` it did not itself consume
//!    (the rest of the virtual firing materializes);
//! 6. `t` is deleted.
//!
//! A token in row `{p'} × q` means "a token in `p'` that may at any time
//! be read as a completed firing of `t`"; keeping the real `q` places
//! separate from the products preserves every choice and conflict of the
//! original net (the reason for the duplication — see the discussion under
//! Figure 3). The construction is trace-preserving
//! (`L(hide(N,a)) = hide(L(N),a)`, Theorem 4.7) and order-independent
//! (Proposition 4.6); both are property-tested against the `cpn-trace`
//! oracle.

use cpn_petri::{Bounded, Budget, Label, Meter, PetriError, PetriNet, PlaceId, TransitionId};
use std::collections::{BTreeMap, BTreeSet};

/// Contracts a single transition out of the net (Definition 4.10).
///
/// # Errors
///
/// * [`PetriError::UnknownTransition`] if `t` is out of range.
/// * [`PetriError::HideSelfLoop`] if `t` has a self-loop (hiding it would
///   create a divergence, which trace semantics cannot observe).
/// * [`PetriError::Precondition`] if `t` has an empty preset or postset —
///   the contraction needs both sides (the paper's nets are
///   strongly-connected, where this always holds).
///
/// # Example
///
/// ```
/// use cpn_core::hide_transition;
/// use cpn_petri::{PetriNet, TransitionId};
/// # fn main() -> Result<(), cpn_petri::PetriError> {
/// // a → τ → b; contracting τ leaves a → b over a merged place.
/// let mut net: PetriNet<&str> = PetriNet::new();
/// let p0 = net.add_place("p0");
/// let p1 = net.add_place("p1");
/// let p2 = net.add_place("p2");
/// let p3 = net.add_place("p3");
/// net.add_transition([p0], "a", [p1])?;
/// let tau = net.add_transition([p1], "tau", [p2])?;
/// net.add_transition([p2], "b", [p3])?;
/// net.set_initial(p0, 1);
/// let hidden = hide_transition(&net, tau)?;
/// assert_eq!(hidden.transition_count(), 3); // a, b, and b's duplicate
/// # Ok(())
/// # }
/// ```
pub fn hide_transition<L: Label>(
    net: &PetriNet<L>,
    t: TransitionId,
) -> Result<PetriNet<L>, PetriError> {
    if t.index() >= net.transition_count() {
        return Err(PetriError::UnknownTransition(t.index() as u32));
    }
    let tr = net.transition(t);
    if tr.has_self_loop() {
        return Err(PetriError::HideSelfLoop(t.index() as u32));
    }
    let p: BTreeSet<PlaceId> = tr.preset().clone();
    let q: BTreeSet<PlaceId> = tr.postset().clone();
    if p.is_empty() || q.is_empty() {
        return Err(PetriError::Precondition(
            "contraction needs a non-empty preset and postset".to_owned(),
        ));
    }
    // A transition consuming from both p and q would need its virtual
    // variant to take *two* tokens from a product place (one for the
    // pending firing of t, one for its own p-input) — inexpressible with
    // set-valued arcs. The paper's construction implicitly excludes this
    // shape (its nets never feed a transition from both sides of a hidden
    // transition); we reject it explicitly.
    for (uid, u) in net.transitions() {
        if uid != t
            && u.preset().intersection(&p).next().is_some()
            && u.preset().intersection(&q).next().is_some()
        {
            return Err(PetriError::Precondition(format!(
                "transition {uid} consumes from both the preset and the postset of the hidden transition"
            )));
        }
    }

    // The rebuild shares the source net's symbol space: transitions carry
    // their syms across, no label is re-interned.
    let mut out = PetriNet::with_interner(net.interner().clone());
    let m0 = net.initial_marking();

    // Kept places: everything except the preset p (the postset q stays).
    let mut keep: BTreeMap<PlaceId, PlaceId> = BTreeMap::new();
    for (old, place) in net.places() {
        if !p.contains(&old) {
            let new = out.add_place(place.name().to_owned());
            out.set_initial(new, m0.tokens(old));
            keep.insert(old, new);
        }
    }
    // Product places (p_i, q_j), marked with M0(p_i): a pending token in
    // p_i is visible in its entire row.
    let mut product: BTreeMap<(PlaceId, PlaceId), PlaceId> = BTreeMap::new();
    for &pi in &p {
        for &qj in &q {
            let id = out.add_place(format!(
                "({},{})",
                net.place(pi).name(),
                net.place(qj).name()
            ));
            out.set_initial(id, m0.tokens(pi));
            product.insert((pi, qj), id);
        }
    }
    for s in net.alphabet_syms().iter() {
        out.declare_sym(s);
    }

    // H_p: replace places of p by their product rows; keep the rest.
    let row = |pi: PlaceId| -> Vec<PlaceId> { q.iter().map(|&qj| product[&(pi, qj)]).collect() };
    let map_set = |s: &BTreeSet<PlaceId>| -> BTreeSet<PlaceId> {
        let mut r = BTreeSet::new();
        for &x in s {
            if p.contains(&x) {
                r.extend(row(x));
            } else {
                r.insert(keep[&x]);
            }
        }
        r
    };
    let all_products: BTreeSet<PlaceId> = product.values().copied().collect();

    for (uid, u) in net.transitions() {
        if uid == t {
            continue;
        }
        let pre = map_set(u.preset());
        let post = map_set(u.postset());
        let consumes_q = u.preset().intersection(&q).next().is_some();
        // Real-token variant: also covers untouched and p-adjacent
        // transitions (map_set is the identity on them).
        out.add_transition_sym(pre.clone(), u.sym(), post.clone())?;
        if consumes_q {
            // Virtual variant: consume the complete pending firing of t
            // plus the non-q part of the preset; re-emit the q places the
            // transition does not consume itself.
            let mut vpre: BTreeSet<PlaceId> = all_products.clone();
            for &x in u.preset() {
                if !q.contains(&x) {
                    if p.contains(&x) {
                        vpre.extend(row(x));
                    } else {
                        vpre.insert(keep[&x]);
                    }
                }
            }
            let mut vpost = post;
            for &qj in &q {
                if !u.preset().contains(&qj) {
                    vpost.insert(keep[&qj]);
                }
            }
            // Guard against degenerate duplicates identical to the real
            // variant (happens in the pure marked-graph collapse case).
            if vpre != pre {
                out.add_transition_sym(vpre, u.sym(), vpost)?;
            }
        }
    }

    Ok(out)
}

/// Hides an action label: contracts **every** transition carrying it
/// (including duplicates created along the way) and removes the label
/// from the alphabet.
///
/// Proposition 4.6: the result is independent of the contraction order —
/// property-tested up to trace equivalence.
///
/// `budget` bounds the number of contractions; chains of hidden
/// transitions feeding each other can grow the net before it shrinks, and
/// hidden *cycles* are divergences the operator must reject.
///
/// # Errors
///
/// * [`PetriError::HideSelfLoop`] if hiding runs into a divergence (a
///   hidden transition whose contraction leaves a silent self-loop).
/// * [`PetriError::Precondition`] if `budget` contractions were not
///   enough.
pub fn hide_label<L: Label>(
    net: &PetriNet<L>,
    label: &L,
    budget: usize,
) -> Result<PetriNet<L>, PetriError> {
    let bounded =
        hide_label_bounded(net, label, &Budget::new(usize::MAX, budget)).map_err(|e| match e {
            crate::CoreError::Net(e) => e,
            other => PetriError::Precondition(other.to_string()),
        })?;
    match bounded {
        Bounded::Complete(done) => Ok(done),
        Bounded::Exhausted { .. } => Err(PetriError::Precondition(format!(
            "hiding of {label} did not converge within {budget} contractions"
        ))),
    }
}

/// Hides a label under a [`Budget`], degrading gracefully: when the
/// budget's transition cap (contractions) runs out before the label is
/// fully contracted, the partially hidden net is returned in
/// [`Bounded::Exhausted`] instead of a hard error. In the partial net
/// the label is still declared and some of its transitions remain.
///
/// # Errors
///
/// Structural errors ([`PetriError::HideSelfLoop`] on divergence, the
/// contraction preconditions) are real failures and still surface, via
/// [`CoreError`](crate::CoreError).
pub fn hide_label_bounded<L: Label>(
    net: &PetriNet<L>,
    label: &L,
    budget: &Budget,
) -> Result<Bounded<PetriNet<L>>, crate::CoreError> {
    hide_labels_bounded(net, &BTreeSet::from([label.clone()]), budget)
}

/// Hides a set of labels (equivalent to successive [`hide_label`]
/// applications, each with its own `budget` of contractions), executed
/// on one [`NetEditor`](crate::NetEditor) so the intermediate nets are
/// never materialized.
///
/// # Errors
///
/// Propagates the errors of [`hide_label`].
pub fn hide_labels<L: Label>(
    net: &PetriNet<L>,
    labels: &BTreeSet<L>,
    budget: usize,
) -> Result<PetriNet<L>, PetriError> {
    let mut editor = crate::NetEditor::from_net(net);
    let per_label = Budget::new(usize::MAX, budget);
    for l in labels {
        let mut meter = Meter::new(&per_label);
        if !editor.hide_label(l, &mut meter)? {
            return Err(PetriError::Precondition(format!(
                "hiding of {l} did not converge within {budget} contractions"
            )));
        }
    }
    editor.finish()
}

/// Hides a set of labels under one shared [`Budget`]: the transition cap
/// bounds the *total* number of contractions across all labels. On
/// exhaustion the partially contracted net is returned in
/// [`Bounded::Exhausted`] with statistics on how far hiding got.
///
/// Runs on the [`NetEditor`](crate::NetEditor) contraction engine: the
/// label→transitions index doubles as the worklist, so a contraction
/// that *duplicates* a transition carrying a hidden label (a successor
/// of the contracted transition can carry the label itself) re-enqueues
/// the duplicate through the same index update that registers it — no
/// per-round rescan is needed, and path-key selection keeps the
/// contraction order (hence the result, including any
/// [`Bounded::Exhausted`] prefix) bit-identical to the reference rescan
/// loop, `cpn_testkit::oracle::hide_labels`.
///
/// # Errors
///
/// Structural contraction errors surface as
/// [`CoreError`](crate::CoreError); running out of budget does not.
pub fn hide_labels_bounded<L: Label>(
    net: &PetriNet<L>,
    labels: &BTreeSet<L>,
    budget: &Budget,
) -> Result<Bounded<PetriNet<L>>, crate::CoreError> {
    let mut meter = Meter::new(budget);
    let mut editor = crate::NetEditor::from_net(net);
    for l in labels {
        if !editor.hide_label(l, &mut meter)? {
            // Exhausted mid-label: the label stays declared and its
            // remaining transitions survive into the partial net.
            return Ok(meter.finish(editor.finish()?));
        }
    }
    Ok(meter.finish(editor.finish()?))
}

/// Projection onto a label set: hides everything **not** in `keep`
/// (Section 4.4: hiding is the opposite of projection). This is the
/// `project(N_send ‖ N_tr, A_tr)` operation of the paper's Section 6
/// design example.
///
/// # Errors
///
/// Propagates the errors of [`hide_label`].
pub fn project<L: Label>(
    net: &PetriNet<L>,
    keep: &BTreeSet<L>,
    budget: usize,
) -> Result<PetriNet<L>, PetriError> {
    let hidden: BTreeSet<L> = net
        .alphabet()
        .into_iter()
        .filter(|l| !keep.contains(l))
        .collect();
    hide_labels(net, &hidden, budget)
}

/// Budgeted projection: hides everything not in `keep` under one shared
/// [`Budget`], returning a partial result on exhaustion.
///
/// # Errors
///
/// Propagates the structural errors of [`hide_labels_bounded`].
pub fn project_bounded<L: Label>(
    net: &PetriNet<L>,
    keep: &BTreeSet<L>,
    budget: &Budget,
) -> Result<Bounded<PetriNet<L>>, crate::CoreError> {
    let hidden: BTreeSet<L> = net
        .alphabet()
        .into_iter()
        .filter(|l| !keep.contains(l))
        .collect();
    hide_labels_bounded(net, &hidden, budget)
}

/// The `hide'` refinement of Section 5.3: instead of contracting, the
/// hidden transitions are **relabeled** to the designated silent label
/// (ε at the STG level). One dummy transition remains per hidden
/// transition, preserving the information whether a synchronization is
/// reached through internal steps — which the receptiveness check needs.
pub fn hide_relabel<L: Label>(net: &PetriNet<L>, labels: &BTreeSet<L>, silent: L) -> PetriNet<L> {
    let mut out = net.map_labels(|l| {
        if labels.contains(l) {
            silent.clone()
        } else {
            l.clone()
        }
    });
    for l in labels {
        out.undeclare_label(l);
    }
    out.declare_label(silent);
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use cpn_trace::Language;

    fn lang(net: &PetriNet<&'static str>, d: usize) -> Language<&'static str> {
        Language::from_net(net, d, 1_000_000).unwrap()
    }

    /// Oracle comparison: L(hide(N, a)) = hide(L(N), a) up to `depth`.
    /// The source language is extracted deeper because hiding shortens
    /// traces.
    fn check_theorem_4_7(net: &PetriNet<&'static str>, label: &'static str, depth: usize) {
        let hidden_net = hide_label(net, &label, 10_000).unwrap();
        let lhs = Language::from_net(&hidden_net, depth, 1_000_000).unwrap();
        let slack = depth * 3 + 2;
        let rhs = Language::from_net(net, slack, 1_000_000)
            .unwrap()
            .hide(&BTreeSet::from([label]));
        assert!(
            lhs.eq_up_to(&rhs.truncate(depth), depth),
            "Theorem 4.7 failed for {label} on\n{net}\nlhs {lhs}\nrhs {rhs}"
        );
    }

    #[test]
    fn chain_collapse_marked_graph_special_case() {
        // p0 -a-> p1 -tau-> p2 -b-> p3: the simple collapse of Fig 3(c).
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        let p3 = net.add_place("p3");
        net.add_transition([p0], "a", [p1]).unwrap();
        net.add_transition([p1], "tau", [p2]).unwrap();
        net.add_transition([p2], "b", [p3]).unwrap();
        net.set_initial(p0, 1);
        check_theorem_4_7(&net, "tau", 3);
    }

    #[test]
    fn hiding_in_cycle() {
        // (a.tau.b)* — hiding tau leaves (a.b)*.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        net.add_transition([p0], "a", [p1]).unwrap();
        net.add_transition([p1], "tau", [p2]).unwrap();
        net.add_transition([p2], "b", [p0]).unwrap();
        net.set_initial(p0, 1);
        check_theorem_4_7(&net, "tau", 4);
    }

    #[test]
    fn hiding_a_fork() {
        // tau forks into two concurrent places.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let qa = net.add_place("qa");
        let qb = net.add_place("qb");
        let e = net.add_place("e");
        net.add_transition([p0], "tau", [qa, qb]).unwrap();
        net.add_transition([qa], "a", [e]).unwrap();
        net.add_transition([qb], "b", [e]).unwrap();
        net.set_initial(p0, 1);
        check_theorem_4_7(&net, "tau", 3);
    }

    #[test]
    fn hiding_a_join() {
        // tau joins two concurrent places.
        let mut net: PetriNet<&str> = PetriNet::new();
        let pa = net.add_place("pa");
        let pb = net.add_place("pb");
        let q0 = net.add_place("q0");
        let e = net.add_place("e");
        net.add_transition([pa, pb], "tau", [q0]).unwrap();
        net.add_transition([q0], "c", [e]).unwrap();
        net.set_initial(pa, 1);
        net.set_initial(pb, 1);
        check_theorem_4_7(&net, "tau", 2);
    }

    #[test]
    fn hiding_with_conflict_on_preset() {
        // p0 is contested: tau and the observable x both consume it.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let q0 = net.add_place("q0");
        let r = net.add_place("r");
        net.add_transition([p0], "tau", [q0]).unwrap();
        net.add_transition([p0], "x", [r]).unwrap();
        net.add_transition([q0], "a", [p0]).unwrap();
        net.set_initial(p0, 1);
        check_theorem_4_7(&net, "tau", 4);
    }

    #[test]
    fn hiding_with_real_and_virtual_q_tokens() {
        // q0 is marked initially AND reachable through tau: the consumer
        // must work for both, and the p-conflicting transition must not
        // steal the real q token (the case that breaks naive merging).
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let q0 = net.add_place("q0");
        let s = net.add_place("s");
        let r = net.add_place("r");
        net.add_transition([p0], "tau", [q0]).unwrap();
        net.add_transition([q0], "u", [s]).unwrap();
        net.add_transition([p0], "v", [r]).unwrap();
        net.set_initial(q0, 1);
        // p0 is empty: v must be disabled even though q0 is marked.
        let hidden = hide_label(&net, &"tau", 100).unwrap();
        let l = lang(&hidden, 2);
        assert!(l.contains(&["u"]));
        assert!(!l.contains(&["v"]), "v stole the real q token:\n{hidden}");
        check_theorem_4_7(&net, "tau", 3);
    }

    #[test]
    fn hiding_multi_output_with_choice_on_q() {
        // tau: p -> {q1, q2}; consumers on q1 and q2 plus a p-conflict.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let q1 = net.add_place("q1");
        let q2 = net.add_place("q2");
        let s1 = net.add_place("s1");
        let s2 = net.add_place("s2");
        let r = net.add_place("r");
        net.add_transition([p0], "tau", [q1, q2]).unwrap();
        net.add_transition([q1], "a", [s1]).unwrap();
        net.add_transition([q2], "b", [s2]).unwrap();
        net.add_transition([p0], "x", [r]).unwrap();
        net.set_initial(p0, 1);
        check_theorem_4_7(&net, "tau", 3);
    }

    #[test]
    fn hiding_two_transitions_same_label() {
        // Two tau transitions in sequence-ish arrangement.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        let p3 = net.add_place("p3");
        net.add_transition([p0], "tau", [p1]).unwrap();
        net.add_transition([p1], "a", [p2]).unwrap();
        net.add_transition([p2], "tau", [p3]).unwrap();
        net.add_transition([p3], "b", [p0]).unwrap();
        net.set_initial(p0, 1);
        check_theorem_4_7(&net, "tau", 4);
    }

    #[test]
    fn order_independence_prop_4_6() {
        // Hide both tau transitions in either order: same trace set.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        net.add_transition([p0], "tau", [p1]).unwrap();
        net.add_transition([p1], "tau", [p2]).unwrap();
        net.add_transition([p2], "a", [p0]).unwrap();
        net.set_initial(p0, 1);
        // Contract a *different* transition first in each run, then let
        // hide_label finish the job (contraction can spawn duplicates of
        // the hidden label, so the full closure is what Prop 4.6 is
        // about).
        let t0 = cpn_petri::TransitionId::from_index(0);
        let via0 = hide_transition(&net, t0).unwrap();
        let done0 = hide_label(&via0, &"tau", 1000).unwrap();

        let t1 = cpn_petri::TransitionId::from_index(1);
        let via1 = hide_transition(&net, t1).unwrap();
        let done1 = hide_label(&via1, &"tau", 1000).unwrap();

        let l0 = lang(&done0, 4);
        let l1 = lang(&done1, 4);
        assert!(l0.eq_up_to(&l1, 4), "Proposition 4.6");
    }

    #[test]
    fn self_loop_rejected_as_divergence() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let t = net.add_transition([p], "tau", [p, q]).unwrap();
        net.set_initial(p, 1);
        assert!(matches!(
            hide_transition(&net, t),
            Err(PetriError::HideSelfLoop(_))
        ));
    }

    #[test]
    fn hidden_cycle_is_a_divergence() {
        // tau: p→q, tau: q→p — hiding the label must fail, not loop.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "tau", [q]).unwrap();
        net.add_transition([q], "tau", [p]).unwrap();
        net.set_initial(p, 1);
        let err = hide_label(&net, &"tau", 100).unwrap_err();
        assert!(
            matches!(
                err,
                PetriError::HideSelfLoop(_) | PetriError::Precondition(_)
            ),
            "unexpected: {err}"
        );
    }

    #[test]
    fn project_keeps_only_requested_labels() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        net.add_transition([p0], "a", [p1]).unwrap();
        net.add_transition([p1], "internal", [p2]).unwrap();
        net.add_transition([p2], "b", [p0]).unwrap();
        net.set_initial(p0, 1);
        let projected = project(&net, &BTreeSet::from(["a", "b"]), 1000).unwrap();
        assert_eq!(
            projected.alphabet(),
            BTreeSet::from(["a", "b"]),
            "alphabet reduced"
        );
        let l = lang(&projected, 4);
        assert!(l.contains(&["a", "b", "a", "b"]));
    }

    #[test]
    fn hide_relabel_keeps_structure() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        net.add_transition([p0], "a", [p1]).unwrap();
        net.add_transition([p1], "b", [p0]).unwrap();
        net.set_initial(p0, 1);
        let relabeled = hide_relabel(&net, &BTreeSet::from(["a"]), "ε");
        assert_eq!(relabeled.transition_count(), 2);
        assert!(relabeled.alphabet().contains(&"ε"));
        assert!(!relabeled.alphabet().contains(&"a"));
        let l = lang(&relabeled, 2);
        assert!(l.contains(&["ε", "b"]));
    }

    #[test]
    fn hide_missing_label_is_identity_plus_alphabet() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        net.add_transition([p], "a", [p]).unwrap();
        net.set_initial(p, 1);
        net.declare_label("ghost");
        let hidden = hide_label(&net, &"ghost", 10).unwrap();
        assert_eq!(hidden.transition_count(), 1);
        assert!(!hidden.alphabet().contains(&"ghost"));
    }
}
