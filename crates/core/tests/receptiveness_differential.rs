//! Differential oracle: the polynomial structural receptiveness check
//! (Theorem 5.7, difference constraints over marked-graph flows) against
//! the exhaustive state-graph verification (Proposition 5.5/5.6) on
//! generated live-safe marked-graph compositions; and the one-pass
//! `verify_against_environment` against the separate receptiveness check
//! and reduction it answers for.
//!
//! Driven by the deterministic `cpn-testkit` harness at ≥100 cases:
//! failures print a case seed, replayable via `CPN_TESTKIT_SEED=<seed>`.

use cpn_core::{
    check_receptiveness, check_receptiveness_structural_mg, parallel_tracked_common,
    reduce_against_environment, verify_against_environment, ReceptivenessReport,
};
use cpn_petri::{Budget, CancelScope, PetriNet, Verdict};
use cpn_testkit::{any_bool, check_with, prop_assert, prop_assert_eq, usize_in, Config};
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

/// A live-safe marked-graph ring of `stages` alternating req/ack
/// handshakes with the single token at `start`.
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

/// The labels a verdict blames (empty unless it `Fails`).
fn failing_labels(v: &Verdict<ReceptivenessReport<String>>) -> BTreeSet<&String> {
    v.witness()
        .map(|r| r.failures.iter().map(|f| &f.label).collect())
        .unwrap_or_default()
}

/// Both operands start at a random phase and the operand order is
/// itself randomized, so the oracle sees producer-side and
/// consumer-side mismatches in either argument position.
#[test]
fn structural_check_agrees_with_state_graph_on_live_safe_mgs() {
    let strategy = (usize_in(1..5), usize_in(0..10), usize_in(0..10), any_bool());
    check_with(
        "structural_check_agrees_with_state_graph_on_live_safe_mgs",
        &cases(),
        &strategy,
        |&(stages, left_start, right_start, swap)| {
            let req_side = ring(stages, left_start, "a");
            let ack_side = ring(stages, right_start, "b");
            let reqs = outputs(stages, "req");
            let acks = outputs(stages, "ack");
            // Each operand is live and safe in isolation (one token on a
            // strongly connected ring); the differential question is
            // whether their composition can mis-fire an output.
            let (n1, n2, louts, routs) = if swap {
                (&ack_side, &req_side, &acks, &reqs)
            } else {
                (&req_side, &ack_side, &reqs, &acks)
            };
            let comp = parallel_tracked_common(n1, n2).unwrap();
            let exhaustive = check_receptiveness(&comp, louts, routs, &Budget::states(200_000));
            let structural =
                check_receptiveness_structural_mg(&comp, louts, routs, &Budget::default()).unwrap();
            prop_assert!(
                exhaustive.is_definite() && structural.is_definite(),
                "the budgets decide every ring pair"
            );
            prop_assert_eq!(
                exhaustive.holds(),
                structural.holds(),
                "stages={} starts=({},{}) swap={}: exhaustive {:?} vs structural {:?}",
                stages,
                left_start,
                right_start,
                swap,
                exhaustive,
                structural
            );
            // When both find failures, they must blame a common action:
            // the structural certificate names a label whose mis-firing
            // the state graph also witnesses.
            if exhaustive.fails() {
                let ex_labels = failing_labels(&exhaustive);
                let st_labels = failing_labels(&structural);
                prop_assert!(
                    ex_labels.intersection(&st_labels).next().is_some(),
                    "disjoint blame: exhaustive {:?} vs structural {:?}",
                    ex_labels,
                    st_labels
                );
            }
            Ok(())
        },
    );
}

/// Aligned phases are receptive by both checks for every ring size —
/// the positive diagonal of the differential family.
#[test]
fn aligned_phases_receptive_for_all_sizes() {
    for stages in 1..6 {
        for shift in 0..stages {
            // Shifting both rings by a whole handshake keeps them aligned.
            let p = ring(stages, 2 * shift, "a");
            let c = ring(stages, 2 * shift, "b");
            let louts = outputs(stages, "req");
            let routs = outputs(stages, "ack");
            let comp = parallel_tracked_common(&p, &c).unwrap();
            assert!(
                check_receptiveness(&comp, &louts, &routs, &Budget::default()).holds(),
                "stages={stages} shift={shift} exhaustive"
            );
            assert!(
                check_receptiveness_structural_mg(&comp, &louts, &routs, &Budget::default())
                    .unwrap()
                    .holds(),
                "stages={stages} shift={shift} structural"
            );
        }
    }
}

/// The metered structural check under tiny budgets: each starvation
/// combination costs one state, so small budgets stop it part-way. A
/// stopped check answers `Unknown`, and no verdict at any budget may
/// contradict the exhaustive one.
#[test]
fn structural_budget_sweep_agrees_with_exhaustive() {
    let mut unknowns = 0usize;
    for stages in 1..6 {
        for right_start in 0..2 * stages {
            let p = ring(stages, 0, "a");
            let c = ring(stages, right_start, "b");
            let louts = outputs(stages, "req");
            let routs = outputs(stages, "ack");
            let comp = parallel_tracked_common(&p, &c).unwrap();
            let exhaustive = check_receptiveness(&comp, &louts, &routs, &Budget::default());
            assert!(exhaustive.is_definite());
            for states in [0usize, 1, 2, 5] {
                let structural = check_receptiveness_structural_mg(
                    &comp,
                    &louts,
                    &routs,
                    &Budget::states(states),
                )
                .unwrap();
                assert!(
                    structural.agrees_with(&exhaustive),
                    "stages={stages} start={right_start} budget={states}: \
                     structural {structural} vs exhaustive {exhaustive}"
                );
                unknowns += usize::from(structural.is_unknown());
            }
        }
    }
    assert!(unknowns > 0, "no budget stopped the structural check");
}

/// The one-pass pipeline against the two calls it replaces, on the ring
/// pairs under state caps that stop the exploration at the start, part
/// way and not at all, and under a cancellation that has already fired:
/// its verdict is `check_receptiveness`'s, which explores the same
/// composition on its own, and its reduction is
/// `reduce_against_environment`'s, stop report included.
#[test]
fn one_pass_verify_matches_check_and_reduce() {
    let cancelled = CancelScope::new();
    cancelled.cancel();
    let (mut stopped, mut complete) = (0, 0);
    for stages in 1..5 {
        for right_start in 0..2 * stages {
            let p = ring(stages, 0, "a");
            let c = ring(stages, right_start, "b");
            let louts = outputs(stages, "req");
            let routs = outputs(stages, "ack");
            let comp = parallel_tracked_common(&p, &c).unwrap();
            let budgets = [0usize, 1, 2, 5].map(Budget::states).into_iter().chain([
                Budget::default(),
                Budget::default().with_cancel(cancelled.token()),
            ]);
            for budget in budgets {
                let check =
                    verify_against_environment(&comp, &p.alphabet(), &louts, &routs, &budget, 1000);
                let context = format!("stages={stages} start={right_start} budget={budget:?}");
                assert_eq!(
                    check.receptiveness,
                    check_receptiveness(&comp, &louts, &routs, &budget),
                    "{context}"
                );
                let reduction = check.reduction.unwrap();
                assert_eq!(
                    reduction,
                    reduce_against_environment(&p, &c, &budget, 1000).unwrap(),
                    "{context}"
                );
                if reduction.is_complete() {
                    complete += 1;
                } else {
                    stopped += 1;
                }
            }
        }
    }
    assert!(
        stopped > 0 && complete > 0,
        "{stopped} stopped, {complete} complete"
    );
}
