//! Property tests for the robustness layer: seeded fault injection on
//! generated models, and the budget-monotonicity oracle for the
//! tri-state verdicts.
//!
//! Driven by the deterministic `cpn-testkit` harness: failures print a
//! case seed, replayable via `CPN_TESTKIT_SEED=<seed>`.

use cpn::petri::{Bounded, Budget, Verdict};
use cpn::sim::fault::{behavior_preserved, judge_mg_net};
use cpn::sim::{Detection, FaultClass, FaultPlan};
use cpn::trace::Language;
use cpn_testkit::{
    check_with, prop_assert, usize_in, Config, FaultStrategy, RingStrategy, StgStrategy,
};
use std::collections::BTreeSet;

fn cases() -> Config {
    let config = Config::from_env();
    if std::env::var("CPN_TESTKIT_CASES").is_ok() {
        config
    } else {
        config.with_cases(96)
    }
}

/// The net-level slice of the taxonomy (what applies to a bare ring).
const NET_CLASSES: [FaultClass; 4] = [
    FaultClass::TokenLoss,
    FaultClass::TokenDup,
    FaultClass::ArcDrop,
    FaultClass::ArcDup,
];

#[test]
fn ring_faults_detected_or_benign() {
    let strategy = (
        RingStrategy::new(2, 7, 1).live_safe(),
        FaultStrategy::new(NET_CLASSES.len(), 8),
    );
    check_with(
        "ring_faults_detected_or_benign",
        &cases(),
        &strategy,
        |(ring, pick)| {
            let net = ring.build();
            let class = NET_CLASSES[pick.class];
            let plan = FaultPlan::new(0xFA01);
            let Some((mutant, fault)) = plan.mutate_net(class, &net, pick.trial) else {
                // Inapplicable (e.g. nothing to mutate on this ring).
                return Ok(());
            };
            let detection = judge_mg_net(&net, &mutant);
            prop_assert!(
                detection.is_accounted(),
                "missed fault on ring n={}: {fault}",
                ring.n
            );
            // A detection must never fire on a provably unchanged net.
            if let Detection::Benign { .. } = detection {
                prop_assert!(
                    behavior_preserved(&net, &mutant).is_some(),
                    "benign verdict without a preservation proof"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn stg_faults_deterministic_per_seed() {
    // The same (seed, class, trial) triple applied twice produces the
    // same mutation — the replayability contract of FaultPlan.
    let strategy = (StgStrategy::new(4, 4), FaultStrategy::new(8, 4));
    check_with(
        "stg_faults_deterministic_per_seed",
        &cases(),
        &strategy,
        |(raw, pick)| {
            let stg = raw.build();
            let class = FaultClass::ALL[pick.class];
            let plan = FaultPlan::new(0xFA02);
            let a = plan.mutate_stg(class, &stg, pick.trial);
            let b = plan.mutate_stg(class, &stg, pick.trial);
            match (a, b) {
                (Some((na, fa)), Some((nb, fb))) => {
                    prop_assert!(fa.description == fb.description, "fault drifted");
                    prop_assert!(
                        na.net().transition_count() == nb.net().transition_count(),
                        "mutant drifted"
                    );
                }
                (None, None) => {}
                _ => prop_assert!(false, "applicability drifted"),
            }
            Ok(())
        },
    );
}

/// A ring pair sharing its labels: producer and consumer synchronize on
/// every transition, so receptiveness of the pair is exactly phase
/// agreement.
fn ring_pair(
    stages: usize,
    offset: usize,
) -> (cpn::petri::PetriNet<String>, cpn::petri::PetriNet<String>) {
    let mk = |start: usize, prefix: &str| {
        let mut net: cpn::petri::PetriNet<String> = cpn::petri::PetriNet::new();
        let ps: Vec<_> = (0..stages)
            .map(|i| net.add_place(format!("{prefix}{i}")))
            .collect();
        for i in 0..stages {
            net.add_transition([ps[i]], format!("x{i}"), [ps[(i + 1) % stages]])
                .unwrap();
        }
        net.set_initial(ps[start % stages], 1);
        net
    };
    (mk(0, "a"), mk(offset, "b"))
}

#[test]
fn tiny_budget_verdicts_never_contradict_large_ones() {
    let strategy = (usize_in(2..8), usize_in(0..8), usize_in(1..12));
    check_with(
        "tiny_budget_verdicts_never_contradict_large_ones",
        &cases(),
        &strategy,
        |&(stages, offset, tiny)| {
            let (p, c) = ring_pair(stages, offset);
            let comp = cpn::core::parallel_tracked_common(&p, &c).unwrap();
            let outputs: BTreeSet<String> = (0..stages).map(|i| format!("x{i}")).collect();
            let small = cpn::core::check_receptiveness(
                &comp,
                &outputs,
                &BTreeSet::new(),
                &Budget::states(tiny),
            );
            let large = cpn::core::check_receptiveness(
                &comp,
                &outputs,
                &BTreeSet::new(),
                &Budget::default(),
            );
            prop_assert!(
                small.agrees_with(&large),
                "verdict flipped: tiny budget {tiny} said {small}, full budget said {large}"
            );
            // The large budget is decisive on these small models.
            prop_assert!(!large.is_unknown(), "reference verdict must be definite");
            // And definite small-budget verdicts must match exactly.
            if !small.is_unknown() {
                prop_assert!(small.holds() == large.holds(), "definite verdicts disagree");
            }
            Ok(())
        },
    );
}

#[test]
fn partial_languages_are_prefixes_of_complete_ones() {
    let strategy = (RingStrategy::new(2, 6, 1).live_safe(), usize_in(1..6));
    check_with(
        "partial_languages_are_prefixes_of_complete_ones",
        &cases(),
        &strategy,
        |(ring, tiny)| {
            let net = ring.build();
            let depth = 4;
            let full = Language::from_net_bounded(&net, depth, &Budget::default())
                .complete()
                .expect("rings are tiny");
            match Language::from_net_bounded(&net, depth, &Budget::states(*tiny)) {
                Bounded::Complete(lang) => {
                    prop_assert!(lang.eq_up_to(&full, depth), "complete result must be exact")
                }
                Bounded::Exhausted { partial, info } => {
                    prop_assert!(
                        partial.iter().all(|t| full.contains(&t)),
                        "partial language invented a trace (stopped at {info})"
                    );
                }
            }
            Ok(())
        },
    );
}

/// Structural-and-semantic net equality that does not depend on interner
/// layout: the symbolized rebuild clones the original's interner while
/// the generic reference re-interns from scratch, so raw `Sym` values
/// may differ even when the nets are the same.
fn assert_net_equiv<L: cpn::petri::Label + std::fmt::Debug>(
    a: &cpn::petri::PetriNet<L>,
    b: &cpn::petri::PetriNet<L>,
    what: &str,
) {
    assert_eq!(a.place_count(), b.place_count(), "{what}: place count");
    let (ma, mb) = (a.initial_marking(), b.initial_marking());
    for ((pa, la), (pb, lb)) in a.places().zip(b.places()) {
        assert_eq!(la.name(), lb.name(), "{what}: place name");
        assert_eq!(ma.tokens(pa), mb.tokens(pb), "{what}: initial tokens");
    }
    assert_eq!(
        a.transition_count(),
        b.transition_count(),
        "{what}: transition count"
    );
    for ((ta, tra), (tb, trb)) in a.transitions().zip(b.transitions()) {
        assert_eq!(a.label_of(ta), b.label_of(tb), "{what}: label");
        assert_eq!(tra.preset(), trb.preset(), "{what}: preset");
        assert_eq!(tra.postset(), trb.postset(), "{what}: postset");
    }
    assert_eq!(a.alphabet(), b.alphabet(), "{what}: alphabet");
}

fn assert_stg_equiv(a: &cpn::stg::Stg, b: &cpn::stg::Stg, what: &str) {
    assert_net_equiv(a.net(), b.net(), what);
    assert_eq!(a.signals(), b.signals(), "{what}: signal declarations");
    for (t, _) in a.net().transitions() {
        assert_eq!(a.guard(t), b.guard(t), "{what}: guard of {t:?}");
    }
}

#[test]
fn symbolized_injectors_match_generic_reference() {
    // The symbolized rebuild path (interner-sharing, `Sym`-keyed scans)
    // must be observably identical to the retired generic path for the
    // same (seed, class, trial): same applicability, same mutation site,
    // same mutant. The generic path is kept under `fault::reference`
    // exactly as this differential oracle.
    use cpn::sim::fault::reference;

    let plan = FaultPlan::new(0xFA03);
    let stg_models = [
        ("sender", cpn::stg::protocol::sender()),
        ("translator", cpn::stg::protocol::translator()),
        ("receiver", cpn::stg::protocol::receiver()),
    ];
    for (name, stg) in &stg_models {
        for trial in 0..8u64 {
            for class in [FaultClass::EdgeFlip, FaultClass::StuckWire] {
                let new = plan.mutate_stg(class, stg, trial);
                let mut rng = plan.rng_for(class, trial);
                let old = match class {
                    FaultClass::EdgeFlip => reference::inject_edge_flip(stg, &mut rng),
                    _ => reference::inject_stuck_wire(stg, &mut rng),
                };
                match (new, old) {
                    (Some((sn, fn_)), Some((so, fo))) => {
                        assert_eq!(fn_.description, fo.description, "{name}/{class}/{trial}");
                        assert_stg_equiv(&sn, &so, &format!("{name}/{class}/{trial}"));
                    }
                    (None, None) => {}
                    (n, o) => panic!(
                        "{name}/{class}/{trial}: applicability drifted (new {:?}, old {:?})",
                        n.is_some(),
                        o.is_some()
                    ),
                }
            }
        }
    }

    // Net-level arc classes over live-safe rings of several sizes.
    for n in 2..7usize {
        let ring = cpn_testkit::RawRing {
            n,
            marks: (0..n).map(|i| u32::from(i == 0)).collect(),
        };
        let net = ring.build();
        for trial in 0..8u64 {
            for class in [FaultClass::ArcDrop, FaultClass::ArcDup] {
                let new = plan.mutate_net(class, &net, trial);
                let mut rng = plan.rng_for(class, trial);
                let old = match class {
                    FaultClass::ArcDrop => reference::inject_arc_drop(&net, &mut rng),
                    _ => reference::inject_arc_dup(&net, &mut rng),
                };
                match (new, old) {
                    (Some((nn, fn_)), Some((no, fo))) => {
                        assert_eq!(fn_.description, fo.description, "ring{n}/{class}/{trial}");
                        assert_net_equiv(&nn, &no, &format!("ring{n}/{class}/{trial}"));
                    }
                    (None, None) => {}
                    _ => panic!("ring{n}/{class}/{trial}: applicability drifted"),
                }
            }
        }
    }
}

#[test]
fn unknown_verdict_reports_spent_budget() {
    // Exhaustion statistics are part of the degradation contract: an
    // Unknown must say how much was explored and which cap was hit.
    let (p, c) = ring_pair(6, 0);
    let comp = cpn::core::parallel_tracked_common(&p, &c).unwrap();
    let outputs: BTreeSet<String> = (0..6).map(|i| format!("x{i}")).collect();
    let verdict =
        cpn::core::check_receptiveness(&comp, &outputs, &BTreeSet::new(), &Budget::states(2));
    let Verdict::Unknown(info) = verdict else {
        panic!("budget of 2 states cannot decide a 6-stage ring: {verdict}");
    };
    assert!(info.states_explored >= 1);
    assert_eq!(info.budget.max_states, 2);
}
