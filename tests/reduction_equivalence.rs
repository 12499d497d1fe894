//! Differential battery for the safe-net reduction suite
//! ([`cpn::core::reduce_for_analysis`]) and the stubborn-set exploration
//! filter ([`reachability_stubborn_bounded`]).
//!
//! The reduction rules (series place fusion, series transition fusion,
//! self-loop place elimination, plus the trace-exact dedup/redundancy
//! rules) claim to preserve *verdicts* — projected language, safety,
//! deadlock-freedom, liveness modulo the stranded-transition rule — not
//! traces. The stubborn filter claims to preserve every deadlock
//! marking, and (with watched-place seeding) receptiveness verdicts.
//! Each claim is checked differentially: the reduced/filtered run
//! against the unreduced/full run, over `cpn-testkit`-generated safe
//! and non-safe nets plus the paper's Figure 5/7 protocol models and a
//! composed CIP-chain corpus.
//!
//! All randomized cases replay under `CPN_TESTKIT_SEED`.

use cpn::core::{
    check_receptiveness, check_receptiveness_stubborn, parallel_tracked_common, reduce_for_analysis,
};
use cpn::petri::{Bounded, Budget, PetriNet, ReachabilityGraph, Verdict};
use cpn::trace::Language;
use cpn_testkit::{check_with, prop_assert, prop_assume, Config, NetStrategy, PropResult, RawNet};
use std::collections::BTreeSet;

const LABELS: [&str; 4] = ["a", "b", "t0", "t1"];
/// Raw exploration depth for both sides of the language comparison.
const RAW_DEPTH: usize = 5;
/// Deeper original-side depth for the "invents nothing" direction: a
/// reduced trace of `RAW_DEPTH` steps lifts to at most `2 * RAW_DEPTH`
/// original steps (one elided internal firing per fused firing).
const DEEP_DEPTH: usize = 2 * RAW_DEPTH;
/// Visible depth at which the projected languages must agree.
const VISIBLE_DEPTH: usize = 3;
const TRACE_BUDGET: usize = 200_000;
const STATE_BUDGET: usize = 50_000;

fn cases() -> Config {
    let config = Config::from_env();
    if std::env::var("CPN_TESTKIT_CASES").is_ok() {
        config
    } else {
        config.with_cases(96)
    }
}

fn strategy(max_places: usize, max_transitions: usize) -> NetStrategy {
    NetStrategy::new(max_places, max_transitions, LABELS.len())
}

fn build(raw: &RawNet) -> PetriNet<&'static str> {
    raw.build_labels(&LABELS)
}

fn internal() -> BTreeSet<&'static str> {
    BTreeSet::from(["t0", "t1"])
}

fn lang(net: &PetriNet<&'static str>, depth: usize) -> Option<Language<&'static str>> {
    Language::from_net(net, depth, TRACE_BUDGET).ok()
}

fn deadlock_markings(rg: &ReachabilityGraph) -> BTreeSet<Vec<u32>> {
    rg.deadlock_states()
        .iter()
        .map(|&s| rg.marking(s).as_slice().to_vec())
        .collect()
}

// ---------------------------------------------------------------------
// Reduction: projected language
// ---------------------------------------------------------------------

/// The reduced net's projected (internal-hidden) language equals the
/// original's, checked in both inclusion directions with the depth
/// slack each direction needs.
fn law_reduction_preserves_projected_language(raw: &RawNet) -> PropResult {
    let net = build(raw);
    let hidden = internal();
    let Ok((reduced, stats)) = reduce_for_analysis(&net, &hidden) else {
        return Err(cpn_testkit::PropFail::Fail("reduce failed".into()));
    };
    prop_assume!(stats.total() > 0); // only score cases the suite touched
    let (Some(lo), Some(lo_deep), Some(lr)) = (
        lang(&net, RAW_DEPTH),
        lang(&net, DEEP_DEPTH),
        lang(&reduced, RAW_DEPTH),
    ) else {
        return Err(cpn_testkit::PropFail::Discard);
    };
    let ho = lo.hide(&hidden);
    let ho_deep = lo_deep.hide(&hidden);
    let hr = lr.hide(&hidden);
    // Reduction loses nothing: fusing internal transitions never
    // lengthens a firing sequence, so equal raw depth suffices here.
    for t in ho.iter().filter(|t| t.len() <= VISIBLE_DEPTH) {
        prop_assert!(
            hr.contains(&t),
            "reduction lost visible trace {t:?} ({stats:?}) on\n{net}\nreduced\n{reduced}"
        );
    }
    // Reduction invents nothing: lift against the deeper original.
    for t in hr.iter().filter(|t| t.len() <= VISIBLE_DEPTH) {
        prop_assert!(
            ho_deep.contains(&t),
            "reduction invented visible trace {t:?} ({stats:?}) on\n{net}\nreduced\n{reduced}"
        );
    }
    Ok(())
}

#[test]
fn reduction_preserves_projected_language_safe() {
    check_with(
        "reduction_preserves_projected_language_safe",
        &cases(),
        &strategy(5, 5),
        law_reduction_preserves_projected_language,
    );
}

#[test]
fn reduction_preserves_projected_language_nonsafe() {
    check_with(
        "reduction_preserves_projected_language_nonsafe",
        &cases(),
        &strategy(5, 5).max_tokens(3),
        law_reduction_preserves_projected_language,
    );
}

// ---------------------------------------------------------------------
// Reduction: safety / deadlock / liveness verdicts
// ---------------------------------------------------------------------

fn law_reduction_preserves_verdicts(raw: &RawNet) -> PropResult {
    let net = build(raw);
    let Ok((reduced, stats)) = reduce_for_analysis(&net, &internal()) else {
        return Err(cpn_testkit::PropFail::Fail("reduce failed".into()));
    };
    let budget = Budget::states(STATE_BUDGET);
    let Bounded::Complete(rg_o) = net.reachability_bounded(&budget) else {
        return Err(cpn_testkit::PropFail::Discard);
    };
    let Bounded::Complete(rg_r) = reduced.reachability_bounded(&budget) else {
        return Err(cpn_testkit::PropFail::Discard);
    };
    let ao = net.analysis(&rg_o);
    let ar = reduced.analysis(&rg_r);
    prop_assert!(
        ao.safe == ar.safe,
        "safety flipped ({} -> {}, {stats:?}) on\n{net}\nreduced\n{reduced}",
        ao.safe,
        ar.safe
    );
    prop_assert!(
        ao.deadlock_free == ar.deadlock_free,
        "deadlock verdict flipped ({stats:?}) on\n{net}\nreduced\n{reduced}"
    );
    if stats.stranded_transitions == 0 {
        prop_assert!(
            ao.live == ar.live,
            "liveness flipped ({} -> {}, {stats:?}) on\n{net}\nreduced\n{reduced}",
            ao.live,
            ar.live
        );
    } else {
        // Pruning a stranded (structurally dead) transition is the one
        // rule that can raise the all-transitions-live verdict — it
        // only fires when the original was provably non-live.
        prop_assert!(
            !ao.live,
            "stranded transitions pruned from a live net on\n{net}"
        );
    }
    Ok(())
}

#[test]
fn reduction_preserves_verdicts_safe() {
    check_with(
        "reduction_preserves_verdicts_safe",
        &cases(),
        &strategy(5, 5),
        law_reduction_preserves_verdicts,
    );
}

#[test]
fn reduction_preserves_verdicts_nonsafe() {
    check_with(
        "reduction_preserves_verdicts_nonsafe",
        &cases(),
        &strategy(5, 5).max_tokens(3),
        law_reduction_preserves_verdicts,
    );
}

// ---------------------------------------------------------------------
// Stubborn sets: deadlock-marking preservation
// ---------------------------------------------------------------------

fn law_stubborn_preserves_deadlocks(raw: &RawNet) -> PropResult {
    let net = build(raw);
    let budget = Budget::states(STATE_BUDGET);
    let Bounded::Complete(full) = net.reachability_bounded(&budget) else {
        return Err(cpn_testkit::PropFail::Discard);
    };
    let Bounded::Complete(stub) = net.reachability_stubborn_bounded(&budget, &[]) else {
        return Err(cpn_testkit::PropFail::Discard);
    };
    prop_assert!(
        stub.state_count() <= full.state_count(),
        "stubborn explored more states ({} > {}) on\n{net}",
        stub.state_count(),
        full.state_count()
    );
    prop_assert!(
        deadlock_markings(&stub) == deadlock_markings(&full),
        "deadlock marking sets diverged on\n{net}\nfull: {:?}\nstubborn: {:?}",
        deadlock_markings(&full),
        deadlock_markings(&stub)
    );
    Ok(())
}

#[test]
fn stubborn_preserves_deadlocks_safe() {
    check_with(
        "stubborn_preserves_deadlocks_safe",
        &cases(),
        &strategy(5, 5),
        law_stubborn_preserves_deadlocks,
    );
}

#[test]
fn stubborn_preserves_deadlocks_nonsafe() {
    check_with(
        "stubborn_preserves_deadlocks_nonsafe",
        &cases(),
        &strategy(5, 5).max_tokens(3),
        law_stubborn_preserves_deadlocks,
    );
}

/// Reduction and the stubborn filter compose: the reduced net's
/// stubborn deadlock set equals its full deadlock set too.
#[test]
fn stubborn_agrees_on_reduced_nets() {
    check_with(
        "stubborn_agrees_on_reduced_nets",
        &cases(),
        &strategy(5, 5),
        |raw| {
            let net = build(raw);
            let Ok((reduced, _)) = reduce_for_analysis(&net, &internal()) else {
                return Err(cpn_testkit::PropFail::Fail("reduce failed".into()));
            };
            law_stubborn_preserves_deadlocks_on(&reduced)
        },
    );
}

fn law_stubborn_preserves_deadlocks_on(net: &PetriNet<&'static str>) -> PropResult {
    let budget = Budget::states(STATE_BUDGET);
    let (Bounded::Complete(full), Bounded::Complete(stub)) = (
        net.reachability_bounded(&budget),
        net.reachability_stubborn_bounded(&budget, &[]),
    ) else {
        return Err(cpn_testkit::PropFail::Discard);
    };
    prop_assert!(
        deadlock_markings(&stub) == deadlock_markings(&full),
        "deadlock marking sets diverged on reduced\n{net}"
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Stubborn sets: budget sweeps (Bounded::Exhausted contract)
// ---------------------------------------------------------------------

#[test]
fn stubborn_budget_sweep_degrades_gracefully() {
    // A 6-stage ring pairin' a 4-phase shape: big enough that tiny
    // budgets exhaust, small enough that the full run completes.
    let (p, c) = ring_pair(6, 0);
    let composed = cpn::core::parallel(&p, &c).expect("composition");
    let full = match composed.reachability_stubborn_bounded(&Budget::default(), &[]) {
        Bounded::Complete(rg) => rg,
        Bounded::Exhausted { .. } => panic!("default budget must complete"),
    };
    let mut last = 0usize;
    for cap in [1usize, 2, 4, 8, 16, 64, 4096] {
        match composed.reachability_stubborn_bounded(&Budget::states(cap), &[]) {
            Bounded::Complete(rg) => {
                assert_eq!(
                    rg.state_count(),
                    full.state_count(),
                    "complete result must be exact at cap {cap}"
                );
                last = rg.state_count();
            }
            Bounded::Exhausted { partial, info } => {
                assert!(
                    partial.state_count() <= cap,
                    "exhausted prefix overran its cap {cap}"
                );
                assert!(info.states_explored >= 1, "empty exhaustion stats");
                assert!(
                    partial.state_count() >= last,
                    "prefix shrank as the budget grew"
                );
                last = partial.state_count();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stubborn sets: receptiveness agreement
// ---------------------------------------------------------------------

/// A ring pair sharing its labels (as in `fault_properties.rs`):
/// receptiveness of the pair is exactly phase agreement, so sweeping
/// the offset covers both verdicts.
fn ring_pair(stages: usize, offset: usize) -> (PetriNet<String>, PetriNet<String>) {
    let mk = |start: usize, prefix: &str| {
        let mut net: PetriNet<String> = PetriNet::new();
        let ps: Vec<_> = (0..stages)
            .map(|i| net.add_place(format!("{prefix}{i}")))
            .collect();
        for i in 0..stages {
            net.add_transition([ps[i]], format!("x{i}"), [ps[(i + 1) % stages]])
                .expect("ring transition");
        }
        net.set_initial(ps[start % stages], 1);
        net
    };
    (mk(0, "a"), mk(offset, "b"))
}

fn failing_labels(v: &Verdict<cpn::core::ReceptivenessReport<String>>) -> BTreeSet<String> {
    match v {
        Verdict::Fails(report) => report.failures.iter().map(|f| f.label.clone()).collect(),
        _ => BTreeSet::new(),
    }
}

#[test]
fn stubborn_receptiveness_matches_full_exploration() {
    for stages in 2..7usize {
        for offset in 0..stages {
            let (p, c) = ring_pair(stages, offset);
            let outputs: BTreeSet<String> = (0..stages).map(|i| format!("x{i}")).collect();
            let comp = parallel_tracked_common(&p, &c).expect("composition");
            let full = check_receptiveness(&comp, &outputs, &BTreeSet::new(), &Budget::default());
            let stub =
                check_receptiveness_stubborn(&comp, &outputs, &BTreeSet::new(), &Budget::default());
            assert!(
                !full.is_unknown() && !stub.is_unknown(),
                "default budget must decide a {stages}-stage ring pair"
            );
            assert_eq!(
                full.holds(),
                stub.holds(),
                "verdicts diverged at stages={stages} offset={offset}"
            );
            assert_eq!(
                failing_labels(&full),
                failing_labels(&stub),
                "failing label sets diverged at stages={stages} offset={offset}"
            );

            // Budget sweep: a definite tiny-budget stubborn verdict may
            // never contradict the full-exploration reference.
            for tiny in [1usize, 2, 5, 17] {
                let small = check_receptiveness_stubborn(
                    &comp,
                    &outputs,
                    &BTreeSet::new(),
                    &Budget::states(tiny),
                );
                assert!(
                    small.agrees_with(&full),
                    "stubborn verdict flipped under budget {tiny} at stages={stages} offset={offset}: {small} vs {full}"
                );
            }
        }
    }
}

/// `Verdict::agrees_with` monotonicity along the **deadline** axis: the
/// budget lattice gained wall-clock deadlines, and the same law must
/// hold as for state caps — an `Unknown` from a short deadline is
/// consistent with any definite verdict from a longer (or absent) one,
/// and no pair of deadlines may yield contradictory definite verdicts.
#[test]
fn verdicts_agree_along_the_deadline_axis() {
    use std::time::Duration;

    let (p, c) = ring_pair(5, 0);
    let comp = parallel_tracked_common(&p, &c).expect("composition");
    let outputs: BTreeSet<String> = (0..5).map(|i| format!("x{i}")).collect();
    let deadlines = [
        Some(Duration::ZERO),
        Some(Duration::from_micros(50)),
        Some(Duration::from_millis(5)),
        None, // unconstrained reference
    ];
    let verdicts: Vec<_> = deadlines
        .iter()
        .map(|d| {
            let mut budget = Budget::default();
            if let Some(d) = d {
                budget = budget.with_deadline(*d);
            }
            check_receptiveness(&comp, &outputs, &BTreeSet::new(), &budget)
        })
        .collect();

    // A zero deadline stops at the very first poll: Unknown, with the
    // deadline recorded as the exhausted resource.
    let zero = &verdicts[0];
    assert!(zero.is_unknown(), "zero deadline cannot decide: {zero}");
    assert_eq!(
        zero.exhausted().map(|e| e.resource),
        Some(cpn::petri::Resource::Deadline)
    );
    // The unconstrained run decides this small instance definitively.
    let reference = &verdicts[3];
    assert!(reference.is_definite(), "reference run must decide");

    for (i, a) in verdicts.iter().enumerate() {
        for (j, b) in verdicts.iter().enumerate() {
            assert!(
                a.agrees_with(b),
                "verdicts contradict across deadlines {:?} vs {:?}: {a} vs {b}",
                deadlines[i],
                deadlines[j]
            );
        }
    }
}

// ---------------------------------------------------------------------
// Paper corpora: Figure 5/7 protocol models and a composed CIP chain
// ---------------------------------------------------------------------

/// Verdict + deadlock differential on one corpus net with a given
/// internal alphabet.
fn check_corpus<L: cpn::petri::Label + std::fmt::Debug>(
    name: &str,
    net: &PetriNet<L>,
    hidden: &BTreeSet<L>,
) {
    let (reduced, stats) = reduce_for_analysis(net, hidden).expect("reduction");
    let budget = Budget::states(STATE_BUDGET);
    let (Bounded::Complete(rg_o), Bounded::Complete(rg_r)) = (
        net.reachability_bounded(&budget),
        reduced.reachability_bounded(&budget),
    ) else {
        panic!("{name}: corpus net must complete within {STATE_BUDGET} states");
    };
    let (ao, ar) = (net.analysis(&rg_o), reduced.analysis(&rg_r));
    assert_eq!(ao.safe, ar.safe, "{name}: safety flipped ({stats:?})");
    assert_eq!(
        ao.deadlock_free, ar.deadlock_free,
        "{name}: deadlock verdict flipped ({stats:?})"
    );
    if stats.stranded_transitions == 0 {
        assert_eq!(ao.live, ar.live, "{name}: liveness flipped ({stats:?})");
    }

    // Stubborn vs full, on both the original and the reduced net.
    for (side, n) in [("original", net), ("reduced", &reduced)] {
        let (Bounded::Complete(full), Bounded::Complete(stub)) = (
            n.reachability_bounded(&budget),
            n.reachability_stubborn_bounded(&budget, &[]),
        ) else {
            panic!("{name}/{side}: exploration must complete");
        };
        assert_eq!(
            deadlock_markings(&full),
            deadlock_markings(&stub),
            "{name}/{side}: deadlock sets diverged"
        );
        assert!(stub.state_count() <= full.state_count());
    }
}

#[test]
fn corpora_fig5_fig7_and_cip_chain() {
    let fig5 = cpn::stg::protocol::sender();
    let fig7 = cpn::stg::protocol::receiver();
    // The protocol STGs have no internal alphabet at this level; the
    // trace-exact rules still run and the verdicts must hold.
    check_corpus("fig5-sender", fig5.net(), &BTreeSet::new());
    check_corpus("fig7-receiver", fig7.net(), &BTreeSet::new());

    for modules in [2usize, 3] {
        let (net, hidden) = cpn_testkit::cip_chain(modules);
        check_corpus(&format!("cip-chain-{modules}"), &net, &hidden);
    }
}

/// The headline claim of §5e, with its exact numbers: on composed CIP
/// chains, reducing the internal request wires removes one redundant
/// place per module, the stubborn filter shrinks the explored state
/// count, and all four modes (full, stubborn, reduced,
/// reduced+stubborn) agree on deadlock freedom.
#[test]
fn cip_chain_reduction_plus_stubborn_shrinks_exploration() {
    // (modules, net p/t, reduced p/t, states per mode: full, stubborn,
    // reduced, reduced+stubborn)
    let rows = [
        (4, (12, 6), (9, 6), [10usize, 8, 10, 8]),
        (8, (28, 14), (21, 14), [338, 44, 338, 44]),
        (12, (44, 22), (33, 22), [11_482, 112, 11_482, 112]),
    ];
    let budget = Budget::states(1_000_000);
    for (modules, size, reduced_size, states) in rows {
        let (net, hidden) = cpn_testkit::cip_chain(modules);
        let (reduced, stats) = reduce_for_analysis(&net, &hidden).expect("reduction");
        assert!(
            stats.total() > 0,
            "chain {modules}: the chain must actually reduce"
        );
        assert_eq!(
            (net.place_count(), net.transition_count()),
            size,
            "chain {modules}: net size"
        );
        assert_eq!(
            (reduced.place_count(), reduced.transition_count()),
            reduced_size,
            "chain {modules}: reduced net size"
        );
        assert_eq!(
            stats,
            cpn::core::ReductionStats {
                redundant_places: modules - 1,
                ..Default::default()
            },
            "chain {modules}: reductions applied"
        );
        let modes = [
            ("full", net.reachability_bounded(&budget)),
            ("stubborn", net.reachability_stubborn_bounded(&budget, &[])),
            ("reduced", reduced.reachability_bounded(&budget)),
            (
                "reduced+stubborn",
                reduced.reachability_stubborn_bounded(&budget, &[]),
            ),
        ];
        let mut counts = Vec::new();
        let mut deadlock_free = Vec::new();
        for (mode, explored) in modes {
            let Bounded::Complete(rg) = explored else {
                panic!("chain {modules}: {mode} exploration must complete");
            };
            counts.push(rg.state_count());
            deadlock_free.push(rg.deadlock_states().is_empty());
        }
        assert_eq!(
            counts, states,
            "chain {modules}: states (full, stubborn, reduced, reduced+stubborn)"
        );
        assert!(
            counts[3] < counts[0],
            "chain {modules}: reduced+stubborn must explore fewer states"
        );
        // Deadlock verdict carried across both techniques and their
        // combination.
        assert!(
            deadlock_free.iter().all(|&d| d == deadlock_free[0]),
            "chain {modules}: deadlock-freedom flipped across modes {deadlock_free:?}"
        );
    }
}
