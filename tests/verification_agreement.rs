//! Integration: the three receptiveness detectors (exhaustive,
//! structural marked-graph, dynamic monitor) agree on randomized
//! handshake pipelines, and the coverability/invariant analyses agree on
//! boundedness.
//!
//! Driven by the deterministic `cpn-testkit` harness: failures print a
//! case seed, replayable via `CPN_TESTKIT_SEED=<seed>`.

use cpn::core::{check_receptiveness, check_receptiveness_structural_mg, parallel_tracked_common};
use cpn::petri::{semiflows_p, Budget, CoverabilityOutcome, CoverabilityTree, PetriNet, Verdict};
use cpn::sim::monitor_composition;
use cpn_testkit::{check_with, prop_assert, prop_assert_eq, u32_in, usize_in, Config};
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

/// A ring of alternating req/ack stages with a start offset — a family
/// of marked-graph protocols, half of them phase-mismatched.
fn ring(stages: usize, start: usize, prefix: &str) -> PetriNet<String> {
    let mut net: PetriNet<String> = PetriNet::new();
    let ps: Vec<_> = (0..2 * stages)
        .map(|i| net.add_place(format!("{prefix}{i}")))
        .collect();
    for i in 0..2 * stages {
        let label = if i % 2 == 0 {
            format!("req{}", i / 2)
        } else {
            format!("ack{}", i / 2)
        };
        net.add_transition([ps[i]], label, [ps[(i + 1) % (2 * stages)]])
            .unwrap();
    }
    net.set_initial(ps[start % (2 * stages)], 1);
    net
}

fn outputs(stages: usize, kind: &str) -> BTreeSet<String> {
    (0..stages).map(|i| format!("{kind}{i}")).collect()
}

#[test]
fn detectors_agree_on_handshake_rings() {
    let strategy = (usize_in(1..4), usize_in(0..8));
    check_with(
        "detectors_agree_on_handshake_rings",
        &cases(),
        &strategy,
        |&(stages, offset)| {
            let producer = ring(stages, 0, "a");
            let consumer = ring(stages, offset, "b");
            let louts = outputs(stages, "req");
            let routs = outputs(stages, "ack");
            let comp = parallel_tracked_common(&producer, &consumer).unwrap();

            let exhaustive = check_receptiveness(&comp, &louts, &routs, &Budget::states(200_000));
            let structural =
                check_receptiveness_structural_mg(&comp, &louts, &routs, &Budget::default())
                    .unwrap();
            prop_assert!(
                exhaustive.is_definite() && structural.is_definite(),
                "the budgets decide every ring pair"
            );
            prop_assert_eq!(
                exhaustive.holds(),
                structural.holds(),
                "exhaustive {:?} vs structural {:?} at stages={} offset={}",
                exhaustive,
                structural,
                stages,
                offset
            );

            // The dynamic monitor never false-positives: any observation
            // it makes must correspond to a statically confirmed failure.
            let obs = monitor_composition(&producer, &consumer, &louts, &routs, 7, 2_000);
            if obs.is_some() {
                prop_assert!(exhaustive.fails());
            }
            // On failing compositions where the initial state is already
            // broken, the monitor must see it.
            if let Verdict::Fails(report) = &exhaustive {
                if offset % (2 * stages) != 0 {
                    // (offset 0 is the aligned, receptive case)
                    prop_assert!(
                        obs.is_some() || report.failures.iter().all(|f| f.witness.is_some())
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn coverability_agrees_with_semiflow_certificates() {
    let strategy = (usize_in(1..4), u32_in(1..3));
    check_with(
        "coverability_agrees_with_semiflow_certificates",
        &cases(),
        &strategy,
        |&(stages, tokens)| {
            // Rings are covered by a P-semiflow ⇒ structurally bounded;
            // the Karp–Miller construction must agree and report the
            // right bound.
            let mut net = ring(stages, 0, "x");
            net.set_initial(cpn::petri::PlaceId::from_index(0), tokens);
            let covered = cpn::petri::invariant::covered_by_p_semiflows(&net, 10_000).unwrap();
            prop_assert!(covered);
            let tree = CoverabilityTree::build_bounded(&net, &cpn::petri::Budget::states(100_000))
                .into_value();
            prop_assert_eq!(
                tree.outcome(),
                &CoverabilityOutcome::Bounded { bound: tokens }
            );
            let flows = semiflows_p(&net, 10_000).unwrap();
            prop_assert!(!flows.is_empty());
            Ok(())
        },
    );
}

#[test]
fn hide_prime_abstraction_preserves_the_receptiveness_verdict() {
    // Section 5.3: the check "may not be done" on fully contracted nets
    // — the information whether a synchronization is reached via
    // internal transitions is lost — but it *may* be done after the
    // hide' refinement, which relabels internals to ε and keeps the net
    // structure. Abstract the translator's receiver-side interface away
    // and verify the verdict against the sender is unchanged.
    use cpn::stg::protocol::{sender, sender_inconsistent, translator};
    use cpn::stg::Signal;

    let budget = Budget::default();
    let tr = translator();
    let mut abstracted = tr.clone();
    for s in ["p0", "p1", "q0", "q1", "r", "DATA", "STROBE"] {
        abstracted = abstracted
            .hide_signal_relabel(&Signal::new(s))
            .expect("declared signal");
    }
    assert!(
        abstracted.net().alphabet().iter().any(|l| l.is_dummy()),
        "ε transitions remain (one dummy per hidden transition)"
    );

    for (name, s, expect_receptive) in [
        ("consistent", sender(), true),
        ("inconsistent", sender_inconsistent(), false),
    ] {
        let full = s.check_receptiveness(&tr, &budget).unwrap();
        let abst = s.check_receptiveness(&abstracted, &budget).unwrap();
        assert!(full.is_definite() && abst.is_definite(), "{name} decided");
        assert_eq!(full.holds(), expect_receptive, "{name} vs full");
        assert_eq!(
            abst.holds(),
            expect_receptive,
            "{name} vs hide'-abstracted: {abst:?}"
        );
    }
}

#[test]
fn aligned_ring_is_receptive_all_ways() {
    let producer = ring(2, 0, "a");
    let consumer = ring(2, 0, "b");
    let louts = outputs(2, "req");
    let routs = outputs(2, "ack");
    let comp = parallel_tracked_common(&producer, &consumer).unwrap();
    assert!(check_receptiveness(&comp, &louts, &routs, &Budget::default()).holds());
    assert!(
        check_receptiveness_structural_mg(&comp, &louts, &routs, &Budget::default())
            .unwrap()
            .holds()
    );
    assert!(monitor_composition(&producer, &consumer, &louts, &routs, 3, 20_000).is_none());
}
