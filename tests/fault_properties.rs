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

/// The pre-symbolization injector path, kept verbatim as the
/// differential oracle of `symbolized_injectors_match_generic_reference`:
/// each symbolized injector of `cpn::sim::fault` must produce the same
/// mutant (same site, same structure, same labels) from the same
/// `(seed, class, trial)`. It shares no code with the injectors it
/// checks.
mod reference {
    use cpn::petri::{Label, PetriNet, PlaceId};
    use cpn::sim::{Fault, FaultClass};
    use cpn::stg::{Edge, Signal, Stg, StgLabel};
    use cpn_testkit::TestRng;
    use std::collections::{BTreeMap, BTreeSet};

    /// Which side of a transition an arc fault touches.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum ArcSide {
        Pre,
        Post,
    }

    fn place_name<L: Label>(net: &PetriNet<L>, p: PlaceId) -> String {
        net.places()
            .find(|&(id, _)| id == p)
            .map(|(_, pl)| pl.name().to_owned())
            .unwrap_or_else(|| format!("p#{}", p.index()))
    }

    /// Generic rebuild: fresh interner, one label clone per transition.
    pub fn rebuild_net_generic<L: Label>(
        net: &PetriNet<L>,
        mut tweak: impl FnMut(usize, &mut Vec<PlaceId>, &mut Vec<PlaceId>),
    ) -> Option<PetriNet<L>> {
        let mut out: PetriNet<L> = PetriNet::new();
        let m0 = net.initial_marking();
        let mut pmap: BTreeMap<PlaceId, PlaceId> = BTreeMap::new();
        for (old, place) in net.places() {
            let new = out.add_place(place.name().to_owned());
            out.set_initial(new, m0.tokens(old));
            pmap.insert(old, new);
        }
        for (i, (tid, t)) in net.transitions().enumerate() {
            let mut pre: Vec<PlaceId> = t.preset().iter().map(|p| pmap[p]).collect();
            let mut post: Vec<PlaceId> = t.postset().iter().map(|p| pmap[p]).collect();
            tweak(i, &mut pre, &mut post);
            out.add_transition(pre, net.label_of(tid).clone(), post)
                .ok()?;
        }
        Some(out)
    }

    /// Generic STG rebuild with label-valued `keep`/`relabel` closures.
    pub fn rebuild_stg_generic(
        stg: &Stg,
        mut keep: impl FnMut(usize, &StgLabel) -> bool,
        mut relabel: impl FnMut(usize, StgLabel) -> StgLabel,
    ) -> Option<Stg> {
        let mut net: PetriNet<StgLabel> = PetriNet::new();
        let m0 = stg.net().initial_marking();
        let mut pmap: BTreeMap<PlaceId, PlaceId> = BTreeMap::new();
        for (old, place) in stg.net().places() {
            let new = net.add_place(place.name().to_owned());
            net.set_initial(new, m0.tokens(old));
            pmap.insert(old, new);
        }
        let mut guards = BTreeMap::new();
        for (i, (tid, t)) in stg.net().transitions().enumerate() {
            if !keep(i, stg.net().label_of(tid)) {
                continue;
            }
            let pre: Vec<PlaceId> = t.preset().iter().map(|p| pmap[p]).collect();
            let post: Vec<PlaceId> = t.postset().iter().map(|p| pmap[p]).collect();
            let new_tid = net
                .add_transition(pre, relabel(i, stg.net().label_of(tid).clone()), post)
                .ok()?;
            let g = stg.guard(tid);
            if !g.is_true() {
                guards.insert(new_tid, g);
            }
        }
        Stg::from_parts(net, stg.signals().clone(), guards).ok()
    }

    /// `cpn::sim::fault::inject_arc_drop` on the generic rebuild.
    pub fn inject_arc_drop<L: Label>(
        net: &PetriNet<L>,
        rng: &mut TestRng,
    ) -> Option<(PetriNet<L>, Fault)> {
        let mut candidates: Vec<(usize, ArcSide, PlaceId)> = Vec::new();
        for (i, (_, t)) in net.transitions().enumerate() {
            if t.preset().len() + t.postset().len() < 2 {
                continue;
            }
            for &p in t.preset() {
                candidates.push((i, ArcSide::Pre, p));
            }
            for &p in t.postset() {
                candidates.push((i, ArcSide::Post, p));
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let (ti, side, victim) = *rng.choose(&candidates);
        let out = rebuild_net_generic(net, |i, pre, post| {
            if i == ti {
                match side {
                    ArcSide::Pre => pre.retain(|&p| p != victim),
                    ArcSide::Post => post.retain(|&p| p != victim),
                }
            }
        })?;
        let name = place_name(net, victim);
        let side_name = if side == ArcSide::Pre {
            "preset"
        } else {
            "postset"
        };
        Some((
            out,
            Fault {
                class: FaultClass::ArcDrop,
                description: format!("dropped {name} from the {side_name} of transition #{ti}"),
            },
        ))
    }

    /// `cpn::sim::fault::inject_arc_dup` on the generic rebuild.
    pub fn inject_arc_dup<L: Label>(
        net: &PetriNet<L>,
        rng: &mut TestRng,
    ) -> Option<(PetriNet<L>, Fault)> {
        let all_places: Vec<PlaceId> = net.places().map(|(p, _)| p).collect();
        let mut candidates: Vec<(usize, ArcSide, PlaceId)> = Vec::new();
        for (i, (_, t)) in net.transitions().enumerate() {
            for &p in &all_places {
                if !t.preset().contains(&p) {
                    candidates.push((i, ArcSide::Pre, p));
                }
                if !t.postset().contains(&p) {
                    candidates.push((i, ArcSide::Post, p));
                }
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let (ti, side, extra) = *rng.choose(&candidates);
        let out = rebuild_net_generic(net, |i, pre, post| {
            if i == ti {
                match side {
                    ArcSide::Pre => pre.push(extra),
                    ArcSide::Post => post.push(extra),
                }
            }
        })?;
        let name = place_name(net, extra);
        let side_name = if side == ArcSide::Pre {
            "preset"
        } else {
            "postset"
        };
        Some((
            out,
            Fault {
                class: FaultClass::ArcDup,
                description: format!(
                    "added stray arc {name} to the {side_name} of transition #{ti}"
                ),
            },
        ))
    }

    /// `cpn::sim::fault::inject_edge_flip` on the generic rebuild.
    pub fn inject_edge_flip(stg: &Stg, rng: &mut TestRng) -> Option<(Stg, Fault)> {
        let flippable: Vec<usize> = stg
            .net()
            .transitions()
            .enumerate()
            .filter(|(_, (tid, _))| {
                matches!(
                    stg.net().label_of(*tid).edge(),
                    Some(Edge::Rise | Edge::Fall)
                )
            })
            .map(|(i, _)| i)
            .collect();
        if flippable.is_empty() {
            return None;
        }
        let ti = *rng.choose(&flippable);
        let mut description = String::new();
        let out = rebuild_stg_generic(
            stg,
            |_, _| true,
            |i, label| {
                if i != ti {
                    return label;
                }
                let StgLabel::Signal(s, e) = label else {
                    return label;
                };
                let flipped = if e == Edge::Rise {
                    Edge::Fall
                } else {
                    Edge::Rise
                };
                description = format!("flipped {s}{e} to {s}{flipped}");
                StgLabel::Signal(s, flipped)
            },
        )?;
        Some((
            out,
            Fault {
                class: FaultClass::EdgeFlip,
                description,
            },
        ))
    }

    /// `cpn::sim::fault::inject_stuck_wire` on the generic
    /// rebuild, with the original per-signal transition re-scans.
    pub fn inject_stuck_wire(stg: &Stg, rng: &mut TestRng) -> Option<(Stg, Fault)> {
        let signals: Vec<Signal> = stg
            .net()
            .alphabet()
            .iter()
            .filter_map(|l| l.signal_name().cloned())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let total = stg.net().transition_count();
        let candidates: Vec<&Signal> = signals
            .iter()
            .filter(|s| {
                let mine = stg
                    .net()
                    .transitions()
                    .filter(|&(tid, _)| stg.net().label_of(tid).signal_name() == Some(s))
                    .count();
                mine > 0 && mine < total
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let s = (*rng.choose(&candidates)).clone();
        let out = rebuild_stg_generic(
            stg,
            |_, label| label.signal_name() != Some(&s),
            |_, label| label,
        )?;
        Some((
            out,
            Fault {
                class: FaultClass::StuckWire,
                description: format!("wire {s} stuck: all its transitions removed"),
            },
        ))
    }
}

#[test]
fn symbolized_injectors_match_generic_reference() {
    // The symbolized rebuild path (interner-sharing, `Sym`-keyed scans)
    // must be observably identical to the retired generic path for the
    // same (seed, class, trial): same applicability, same mutation site,
    // same mutant. The generic path is kept in `reference` above
    // exactly as this differential oracle.
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
