//! Compositional synthesis (Section 5.2 of the paper).
//!
//! When a module's environment is known, the module may be *reduced
//! against it*: instead of synthesizing `M1`, synthesize
//! `hide(M1 ‖ M2, A2 \ A1)` — the composition restricted to `M1`'s own
//! alphabet. By Theorem 5.1 the result's traces are **contained** in
//! `L(M1)`, i.e. the reduced module has more implementation freedom. The
//! cross-product of synchronization transitions leaves many dead
//! duplicates, which are removed (polynomially for marked graphs).
//!
//! This module also provides empirical checkers for the closure
//! properties the paper states: safety is closed under all operators
//! (Prop 5.2), liveness under all but parallel composition (Prop 5.3),
//! and marked graphs under prefix, renaming and parallel composition
//! (Prop 5.4).

use crate::contract::NetEditor;
use crate::parallel::{parallel, parallel_tracked_common, Composition};
use crate::verify::{obligations, scan_obligations, ReceptivenessReport};
use cpn_petri::{
    dead_transitions_rg, remove_dead, Bounded, Budget, Exhausted, Label, Meter, PetriError,
    PetriNet, StateSpace, Verdict,
};
use std::collections::BTreeSet;
use std::fmt;

/// Outcome of [`reduce_against_environment`] and of the reduction half
/// of [`verify_against_environment`].
#[derive(Clone, Debug, PartialEq)]
pub struct Reduction<L: Label> {
    /// The reduced module: `hide(M ‖ env, A_env \ A_M)` with dead
    /// transitions removed.
    pub net: PetriNet<L>,
    /// Number of dead transitions eliminated after composition.
    pub dead_removed: usize,
    /// Size of the composed net before projection, for reporting.
    pub composed_transitions: usize,
}

/// Both answers of [`verify_against_environment`].
#[derive(Clone, Debug)]
pub struct EnvironmentCheck<L: Label> {
    /// Receptiveness of the composition (Propositions 5.5/5.6).
    pub receptiveness: Verdict<ReceptivenessReport<L>>,
    /// The module reduced against its environment, or why hiding failed.
    pub reduction: Result<Bounded<Reduction<L>>, PetriError>,
}

/// Answers both of Section 5's questions about a composition `M1 ‖ M2`
/// (built by [`parallel_tracked_common`]) from one exploration of it:
/// receptiveness, the verdict
/// [`check_receptiveness`](crate::check_receptiveness) gives for the same
/// outputs and budget, and the module reduced against its environment
/// (Section 5.2): `hide(M1 ‖ M2, A \ keep)` with dead transitions removed.
///
/// The reduction runs on one [`NetEditor`]: the dead duplicates of the
/// synchronization cross-product, proved dead by the one exploration
/// (which transitions fired is all it reads), are removed **before**
/// hiding, which keeps the hiding step small, and the structural
/// reduction rules ([`NetEditor::reduce`]) run between hidden labels to
/// stop product-place accretion. Hiding can
/// strand further transitions, so a cleanup reachability pass removes
/// those — skipped outright when hiding and reduction changed nothing
/// since the pruning (the editor's edit counter says so). The reduction
/// rules may remove structurally dead or duplicated elements, so the net
/// can be smaller than a plain compose/prune/hide chain would leave it,
/// never behaviorally different.
///
/// The full [`Budget`] lattice applies to both reachability passes and
/// between hidden labels — state caps, wall-clock deadlines and
/// cooperative cancellation. A budget stop ends the pipeline, and the
/// partial result, flagged [`Bounded::Exhausted`], is a sound
/// intermediate of it:
///
/// * If the composition's reachability pass stops early, the partial
///   result is the composition itself, with nothing pruned or hidden (a
///   transition is only removable when the *whole* graph proves it dead).
/// * If a deadline or cancellation interrupts between hidden labels, the
///   labels not yet hidden stay visible.
/// * If the post-hiding cleanup pass stops early, its dead transitions
///   stay in the net; this only costs minimality.
///
/// Each hidden label gets its own `hide_budget` of contractions. Hiding
/// divergence ([`PetriError::HideSelfLoop`]), or a label that does not
/// hide within `hide_budget` contractions ([`PetriError::Precondition`]),
/// fails the reduction but not the verdict; running out of `budget` is
/// **not** an error.
pub fn verify_against_environment<L: Label>(
    comp: &Composition<L>,
    keep: &BTreeSet<L>,
    left_outputs: &BTreeSet<L>,
    right_outputs: &BTreeSet<L>,
    budget: &Budget,
    hide_budget: usize,
) -> EnvironmentCheck<L> {
    let obs = obligations(comp, left_outputs, right_outputs);
    let built = comp.net.state_space_bounded(budget);
    EnvironmentCheck {
        receptiveness: scan_obligations(comp, &obs, &built),
        reduction: reduce_explored(&comp.net, keep, &built, budget, hide_budget),
    }
}

/// The reduction half of [`verify_against_environment`], on the
/// composition's already explored state space.
fn reduce_explored<L: Label>(
    composed: &PetriNet<L>,
    keep: &BTreeSet<L>,
    built: &Bounded<StateSpace>,
    budget: &Budget,
    hide_budget: usize,
) -> Result<Bounded<Reduction<L>>, PetriError> {
    let composed_transitions = composed.transition_count();
    let mut stop = built.exhausted().copied();
    let mut dead_removed = 0usize;

    let mut editor = NetEditor::from_net(composed);
    if let Bounded::Complete(space) = built {
        // Original transition ids are still valid arena slots here (the
        // editor has performed no contraction yet).
        let dead = dead_transitions_rg(composed, space);
        dead_removed = dead.len();
        editor.remove_transitions(&dead);
    }
    let edits_after_prune = editor.edits();

    let hidden: BTreeSet<L> = composed
        .alphabet()
        .into_iter()
        .filter(|l| !keep.contains(l))
        .collect();
    let per_label = Budget::new(usize::MAX, hide_budget);
    for l in &hidden {
        if stop.is_none() {
            if let Some(resource) = budget.interrupted() {
                stop = Some(Exhausted {
                    resource,
                    states_explored: 0,
                    transitions_explored: 0,
                    budget: *budget,
                });
            }
        }
        if stop.is_some() {
            break;
        }
        let mut meter = Meter::new(&per_label);
        if !editor.hide_label(l, &mut meter)? {
            return Err(PetriError::Precondition(format!(
                "hiding of {l} did not converge within {hide_budget} contractions"
            )));
        }
        // Interleaved structural cleanup: keeps the worklist small for
        // the next label instead of letting product places accrete.
        editor.reduce();
    }

    let mut net = editor.finish()?;
    // Out of budget (skip the cleanup pass) or nothing changed since
    // pruning (the pass provably finds nothing).
    if stop.is_none() && editor.edits() != edits_after_prune {
        match net.state_space_bounded(budget) {
            Bounded::Complete(space) => {
                let dead2 = dead_transitions_rg(&net, &space);
                dead_removed += dead2.len();
                net = remove_dead(net, &dead2);
            }
            Bounded::Exhausted { info, .. } => stop = Some(info),
        }
    }
    let reduction = Reduction {
        net,
        dead_removed,
        composed_transitions,
    };
    Ok(match stop {
        None => Bounded::Complete(reduction),
        Some(info) => Bounded::Exhausted {
            partial: reduction,
            info,
        },
    })
}

/// Reduces `module` against a known environment (Section 5.2):
/// `hide(module ‖ env, A_env \ A_module)`, with dead transitions removed.
///
/// The composition step restricts the module's behaviour to what the
/// environment can actually drive (Theorem 5.1:
/// `project(L(M1‖M2), A1) ⊆ L(M1)`), so downstream synthesis sees fewer
/// cases. This is [`verify_against_environment`] with the module's
/// alphabet kept and no outputs to check; it describes the pipeline and
/// its budget stops.
///
/// # Errors
///
/// Propagates composition errors and hiding divergence
/// ([`PetriError::HideSelfLoop`]), and a [`PetriError::Precondition`]
/// when a label does not hide within `hide_budget` contractions; running
/// out of `budget` is **not** an error.
///
/// # Example
///
/// ```
/// use cpn_core::reduce_against_environment;
/// use cpn_petri::{Budget, PetriNet};
///
/// # fn main() -> Result<(), cpn_petri::PetriError> {
/// // A module offering two services; an environment that declares both
/// // but only ever drives one.
/// let mut m: PetriNet<&str> = PetriNet::new();
/// let idle = m.add_place("idle");
/// let busy = m.add_place("busy");
/// m.add_transition([idle], "req1", [busy])?;
/// m.add_transition([busy], "done1", [idle])?;
/// m.add_transition([idle], "req2", [busy])?;
/// m.add_transition([busy], "done2", [idle])?;
/// m.set_initial(idle, 1);
///
/// let mut env: PetriNet<&str> = PetriNet::new();
/// let e = env.add_place("e");
/// let w = env.add_place("w");
/// env.add_transition([e], "req1", [w])?;
/// env.add_transition([w], "done1", [e])?;
/// env.declare_label("req2");   // known but never offered: blocks it
/// env.declare_label("done2");
/// env.set_initial(e, 1);
///
/// let red = reduce_against_environment(&m, &env, &Budget::default(), 1_000)?;
/// assert!(red.is_complete());
/// assert!(red.value().net.transition_count() < m.transition_count());
/// # Ok(())
/// # }
/// ```
pub fn reduce_against_environment<L: Label>(
    module: &PetriNet<L>,
    env: &PetriNet<L>,
    budget: &Budget,
    hide_budget: usize,
) -> Result<Bounded<Reduction<L>>, PetriError> {
    let comp = parallel_tracked_common(module, env)?;
    let none = BTreeSet::new();
    verify_against_environment(&comp, &module.alphabet(), &none, &none, budget, hide_budget)
        .reduction
}

/// Empirical closure evidence for the paper's Propositions 5.2–5.4 on a
/// concrete pair of nets: applies parallel composition and reports which
/// properties were preserved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClosureReport {
    /// Both operands safe.
    pub operands_safe: bool,
    /// Both operands live.
    pub operands_live: bool,
    /// Both operands marked graphs.
    pub operands_marked_graph: bool,
    /// Composition safe (Prop 5.2 predicts: yes when operands are).
    pub composition_safe: bool,
    /// Composition live (Prop 5.3: *not* guaranteed).
    pub composition_live: bool,
    /// Composition a marked graph (Prop 5.4 predicts: yes when operands
    /// are).
    pub composition_marked_graph: bool,
}

impl fmt::Display for ClosureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operands: safe={} live={} mg={} | composition: safe={} live={} mg={}",
            self.operands_safe,
            self.operands_live,
            self.operands_marked_graph,
            self.composition_safe,
            self.composition_live,
            self.composition_marked_graph
        )
    }
}

/// Builds a [`ClosureReport`] for `n1 ‖ n2`, exploring each operand and
/// the composition under `budget`.
///
/// If any of the three explorations stops early the report is
/// [`Bounded::Exhausted`], carrying the first stop, and only some of its
/// fields are definite: the structural ones (`*_marked_graph`), and a
/// `false` in `operands_safe` or `composition_safe` (the explored prefix
/// already holds an unsafe marking). The liveness fields of a partial
/// report mean nothing.
///
/// # Errors
///
/// Propagates composition errors; running out of `budget` is **not** an
/// error.
pub fn closure_report<L: Label>(
    n1: &PetriNet<L>,
    n2: &PetriNet<L>,
    budget: &Budget,
) -> Result<Bounded<ClosureReport>, PetriError> {
    let mut stop = None;
    let mut analyse = |net: &PetriNet<L>| {
        let built = net.reachability_bounded(budget);
        stop = stop.or(built.exhausted().copied());
        net.analysis(built.value())
    };
    let a1 = analyse(n1);
    let a2 = analyse(n2);
    let composed = parallel(n1, n2)?;
    let ac = analyse(&composed);
    let report = ClosureReport {
        operands_safe: a1.safe && a2.safe,
        operands_live: a1.live && a2.live,
        operands_marked_graph: n1.structural().is_marked_graph && n2.structural().is_marked_graph,
        composition_safe: ac.safe,
        composition_live: ac.live,
        composition_marked_graph: composed.structural().is_marked_graph,
    };
    Ok(match stop {
        None => Bounded::Complete(report),
        Some(info) => Bounded::Exhausted {
            partial: report,
            info,
        },
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use cpn_trace::Language;

    fn cycle(a: &'static str, b: &'static str) -> PetriNet<&'static str> {
        let mut net = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], a, [q]).unwrap();
        net.add_transition([q], b, [p]).unwrap();
        net.set_initial(p, 1);
        net
    }

    /// A module offering two request kinds; an environment using only one.
    fn two_service_module() -> PetriNet<&'static str> {
        let mut net = PetriNet::new();
        let idle = net.add_place("idle");
        let w1 = net.add_place("w1");
        let w2 = net.add_place("w2");
        net.add_transition([idle], "req1", [w1]).unwrap();
        net.add_transition([w1], "done1", [idle]).unwrap();
        net.add_transition([idle], "req2", [w2]).unwrap();
        net.add_transition([w2], "done2", [idle]).unwrap();
        net.set_initial(idle, 1);
        net
    }

    /// The reduction under the default budget, which these small nets
    /// never exhaust.
    fn reduce(m: &PetriNet<&'static str>, env: &PetriNet<&'static str>) -> Reduction<&'static str> {
        reduce_against_environment(m, env, &Budget::default(), 1000)
            .unwrap()
            .complete()
            .expect("the default budget completes the reduction")
    }

    fn env_using_only_req1() -> PetriNet<&'static str> {
        let mut net = PetriNet::new();
        let e0 = net.add_place("e0");
        let e1 = net.add_place("e1");
        net.add_transition([e0], "req1", [e1]).unwrap();
        net.add_transition([e1], "done1", [e0]).unwrap();
        net.set_initial(e0, 1);
        // The environment *knows* the second service but never drives it:
        // the labels are in its alphabet without transitions, so the
        // composition blocks them (Definition 4.7). Without the explicit
        // declaration req2/done2 would be private to the module and run
        // unconstrained — the reason the net tuple carries A explicitly.
        net.declare_label("req2");
        net.declare_label("done2");
        net
    }

    #[test]
    fn reduction_drops_unused_service() {
        let m = two_service_module();
        let env = env_using_only_req1();
        let red = reduce(&m, &env);
        // req2/done2 are never driven: they disappear entirely.
        let l = Language::from_net(&red.net, 4, 100_000).unwrap();
        assert!(l.contains(&["req1", "done1", "req1", "done1"]));
        assert!(!l
            .iter()
            .any(|t| t.contains(&"req2") || t.contains(&"done2")));
        assert!(red.net.transition_count() < m.transition_count());
    }

    #[test]
    fn theorem_5_1_trace_containment() {
        let m = two_service_module();
        let env = env_using_only_req1();
        let red = reduce(&m, &env);
        let reduced_lang = Language::from_net(&red.net, 5, 100_000).unwrap();
        let module_lang = Language::from_net(&m, 5, 100_000).unwrap();
        assert!(
            reduced_lang.subset_up_to(&module_lang, 5),
            "project(L(M‖E), A_M) ⊆ L(M)"
        );
    }

    #[test]
    fn closure_props_5_2_to_5_4_on_synchronized_cycles() {
        // Shared label b: composition synchronizes and stays a live safe
        // marked graph here.
        let n1 = cycle("a", "b");
        let n2 = cycle("b", "c");
        let rep = closure_report(&n1, &n2, &Budget::default())
            .unwrap()
            .complete()
            .unwrap();
        assert!(rep.operands_safe && rep.composition_safe, "Prop 5.2");
        assert!(
            rep.operands_marked_graph && rep.composition_marked_graph,
            "Prop 5.4"
        );
        assert!(rep.operands_live && rep.composition_live);
    }

    #[test]
    fn liveness_not_closed_under_composition() {
        // a.b-cycle vs b.a-cycle: both live, but mutual waiting deadlocks
        // the composition — the paper's caveat in Prop 5.3.
        let n1 = cycle("a", "b");
        let n2 = cycle("b", "a");
        let rep = closure_report(&n1, &n2, &Budget::default())
            .unwrap()
            .complete()
            .unwrap();
        assert!(rep.operands_live);
        assert!(!rep.composition_live, "{rep}");
        // Safety still holds (Prop 5.2).
        assert!(rep.composition_safe);
    }

    #[test]
    fn reduction_against_synchronized_environment_is_harmless() {
        // Environment synchronizes on `a` but allows everything the
        // module does: the reduction must not lose behaviour.
        let m = cycle("a", "b");
        let env = cycle("a", "x");
        let red = reduce(&m, &env);
        let lm = Language::from_net(&m, 4, 100_000).unwrap();
        let lr = Language::from_net(&red.net, 4, 100_000).unwrap();
        assert!(lr.eq_up_to(&lm, 4), "reduced {lr} vs module {lm}");
    }

    #[test]
    fn reduction_of_fully_independent_environment_diverges() {
        // An environment sharing no labels keeps cycling internally;
        // hiding its whole alphabet is a divergence, which the hiding
        // operator must reject rather than mask (Section 4.4).
        let m = cycle("a", "b");
        let env = cycle("x", "y");
        let err = reduce_against_environment(&m, &env, &Budget::default(), 1000).unwrap_err();
        assert!(
            matches!(err, PetriError::HideSelfLoop(_)),
            "expected divergence, got {err}"
        );
    }

    #[test]
    fn budget_stop_ends_the_reduction_before_hiding() {
        // `c` is private to the environment, so a completed reduction
        // hides it; a state budget the composition's reachability pass
        // cannot meet ends the pipeline with the composition itself.
        let m = cycle("a", "b");
        let env = cycle("a", "c");
        let composed = parallel(&m, &env).unwrap();

        let stopped = reduce_against_environment(&m, &env, &Budget::states(1), 1000).unwrap();
        let Bounded::Exhausted { partial, .. } = stopped else {
            panic!("one state cannot cover the composition");
        };
        assert!(partial.net.alphabet().contains(&"c"), "nothing was hidden");
        assert_eq!(partial.dead_removed, 0, "nothing was pruned");
        assert!(partial.net.same_structure(&composed));

        let done = reduce_against_environment(&m, &env, &Budget::states(1000), 1000).unwrap();
        let Bounded::Complete(red) = done else {
            panic!("1000 states cover the composition");
        };
        assert!(!red.net.alphabet().contains(&"c"), "c is hidden");
        assert!(red.net.alphabet().contains(&"a") && red.net.alphabet().contains(&"b"));
    }
}
