//! Property tests: the exploration kernels — the legacy cloned-map
//! explorer, the compiled explorer and the out-of-core spill explorer —
//! must be **bit-identical** on random nets: same state sequence, same
//! edge lists, same deadlock sets, and the same exhaustion statistics
//! under equal budgets. A store that fails must stop the exploration
//! with a sound prefix, never a complete graph.
//!
//! Driven by the deterministic `cpn-testkit` harness: failures print a
//! case seed, replayable via `CPN_TESTKIT_SEED=<seed>`.

use cpn_petri::{
    reachability_bounded_spilled, Bounded, Budget, CancelScope, PetriNet, ReachabilityGraph,
    Resource, SpillConfig, SpilledReachability,
};
use cpn_testkit::{check, prop_assert, prop_assert_eq, NetStrategy};

/// Random nets: 2–5 places, 1–5 uniquely-labeled transitions, up to
/// **three** tokens per place so multiset (non-safe) markings are
/// exercised, not just safe ones.
fn raw_net() -> NetStrategy {
    NetStrategy::new(5, 5, 1).max_tokens(3)
}

/// Asserts two reachability graphs are bit-identical: same state
/// numbering, same markings per state, same ordered edge lists.
fn assert_graphs_identical(
    a: &ReachabilityGraph,
    b: &ReachabilityGraph,
    what: &str,
) -> Result<(), cpn_testkit::PropFail> {
    prop_assert_eq!(a.state_count(), b.state_count(), "{}: state count", what);
    prop_assert_eq!(a.edge_count(), b.edge_count(), "{}: edge count", what);
    prop_assert_eq!(a.initial_state(), b.initial_state(), "{}: initial", what);
    for s in a.state_ids() {
        prop_assert_eq!(
            a.marking_slice(s),
            b.marking_slice(s),
            "{}: marking of {}",
            what,
            s
        );
        prop_assert_eq!(a.edges(s), b.edges(s), "{}: edges of {}", what, s);
    }
    Ok(())
}

fn explorers(
    net: &PetriNet<String>,
    budget: &Budget,
) -> Vec<(&'static str, Bounded<ReachabilityGraph>)> {
    vec![
        ("legacy", net.reachability_bounded_legacy(budget)),
        ("compiled", net.reachability_bounded(budget)),
    ]
}

/// Asserts that every state of the spilled graph `sp` decodes to the
/// marking of the same state in `rg` and has the same edges.
fn assert_spilled_prefix_of(
    sp: &mut SpilledReachability,
    rg: &ReachabilityGraph,
) -> Result<(), cpn_testkit::PropFail> {
    let mut buf = Vec::new();
    for i in 0..sp.state_count() {
        let s = cpn_petri::StateId::from_index(i);
        let Ok(()) = sp.marking_into(s, &mut buf) else {
            prop_assert!(false, "spill read failed for {}", s);
            return Ok(());
        };
        prop_assert_eq!(buf.as_slice(), rg.marking_slice(s), "marking {}", s);
        prop_assert_eq!(sp.edges(s), rg.edges(s), "edges {}", s);
    }
    Ok(())
}

/// A spill config so small that every segment seals after 4 rows and no
/// payload is allowed to stay resident — maximal page traffic.
fn aggressive_spill() -> SpillConfig {
    SpillConfig {
        resident_payload_bytes: 0,
        segment_rows: 4,
        ..SpillConfig::default()
    }
}

#[test]
fn all_kernels_agree_on_complete_exploration() {
    check(
        "all_kernels_agree_on_complete_exploration",
        &raw_net(),
        |raw| {
            let net = raw.build_indexed();
            let budget = Budget::states(50_000);
            let results = explorers(&net, &budget);
            let (_, reference) = &results[0];
            let Bounded::Complete(ref_rg) = reference else {
                return Ok(()); // budget: skip pathological instances
            };
            for (what, result) in &results[1..] {
                let Bounded::Complete(rg) = result else {
                    prop_assert!(false, "{} exhausted where legacy completed", what);
                    return Ok(());
                };
                assert_graphs_identical(ref_rg, rg, what)?;
                prop_assert_eq!(
                    ref_rg.deadlock_states(),
                    rg.deadlock_states(),
                    "{}: deadlock set",
                    what
                );
                prop_assert_eq!(
                    ref_rg.token_bound(),
                    rg.token_bound(),
                    "{}: token bound",
                    what
                );
            }
            Ok(())
        },
    );
}

#[test]
fn all_kernels_agree_under_tight_budgets() {
    check("all_kernels_agree_under_tight_budgets", &raw_net(), |raw| {
        let net = raw.build_indexed();
        for budget in [
            Budget::states(0),
            Budget::states(1),
            Budget::states(3),
            Budget::new(100, 5),
            Budget::new(4, 100),
        ] {
            let results = explorers(&net, &budget);
            let (_, reference) = &results[0];
            let ref_info = reference.exhausted().copied();
            let ref_rg = reference.value();
            for (what, result) in &results[1..] {
                prop_assert_eq!(
                    result.exhausted().copied(),
                    ref_info,
                    "{}: exhaustion stats under {:?}",
                    what,
                    budget
                );
                assert_graphs_identical(ref_rg, result.value(), what)?;
            }
        }
        Ok(())
    });
}

#[test]
fn spill_explorer_matches_resident_kernel_exactly() {
    // Zero resident budget + 4-row segments turns every lookup into
    // page traffic, so the state budget is kept small: the point is
    // roundtrip fidelity under maximal thrash, not scale (scale is the
    // bench's job).
    let config = cpn_testkit::Config {
        cases: 32,
        ..cpn_testkit::Config::default()
    };
    cpn_testkit::check_with(
        "spill_explorer_matches_resident_kernel_exactly",
        &config,
        &raw_net(),
        |raw| {
            let net = raw.build_indexed();
            let compiled = net.compile();
            let m0 = net.initial_marking();
            for budget in [
                Budget::states(1_500),
                Budget::states(7),
                Budget::new(100, 9),
            ] {
                let resident = net.reachability_bounded(&budget);
                let spilled = reachability_bounded_spilled(
                    &compiled,
                    m0.as_slice(),
                    &budget,
                    &aggressive_spill(),
                );
                prop_assert_eq!(
                    spilled.exhausted().copied(),
                    resident.exhausted().copied(),
                    "exhaustion stats under {:?}",
                    budget
                );
                let ref_rg = resident.value();
                let mut sp = spilled.into_value();
                let sp = &mut sp;
                prop_assert_eq!(sp.state_count(), ref_rg.state_count(), "state count");
                prop_assert_eq!(sp.edge_count(), ref_rg.edge_count(), "edge count");
                prop_assert_eq!(sp.token_bound(), ref_rg.token_bound(), "token bound");
                prop_assert_eq!(sp.deadlock_states(), ref_rg.deadlock_states(), "deadlocks");
                // Every row decodes back byte-identical through the page
                // cache (segments of 4 rows, zero resident budget, so
                // this loop thrashes page-in/page-out on purpose).
                assert_spilled_prefix_of(sp, ref_rg)?;
                if ref_rg.state_count() > 8 {
                    let stats = sp.spill_stats();
                    prop_assert!(
                        stats.page_outs > 0,
                        "zero-budget spill config never paged out ({} states)",
                        ref_rg.state_count()
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn cancellation_mid_exploration_is_deterministic() {
    // A pre-cancelled token: every kernel observes the interrupt at its
    // first poll and must stop on the same prefix with the same
    // statistics as the legacy oracle.
    check(
        "cancellation_mid_exploration_is_deterministic",
        &raw_net(),
        |raw| {
            let net = raw.build_indexed();
            let scope = CancelScope::new();
            scope.cancel();
            let budget = Budget::states(50_000).with_cancel(scope.token());
            let results = explorers(&net, &budget);
            let (_, reference) = &results[0];
            prop_assert_eq!(
                reference.exhausted().map(|e| e.resource),
                Some(Resource::Cancelled),
                "legacy under a cancelled token"
            );
            for (what, result) in &results[1..] {
                prop_assert_eq!(
                    result.exhausted().copied(),
                    reference.exhausted().copied(),
                    "{}: stats",
                    what
                );
                assert_graphs_identical(reference.value(), result.value(), what)?;
            }
            let spilled = reachability_bounded_spilled(
                &net.compile(),
                net.initial_marking().as_slice(),
                &budget,
                &aggressive_spill(),
            );
            prop_assert_eq!(
                spilled.exhausted().copied(),
                reference.exhausted().copied(),
                "spilled: stats"
            );
            let mut sp = spilled.into_value();
            prop_assert_eq!(
                sp.state_count(),
                reference.value().state_count(),
                "spilled: state count"
            );
            assert_spilled_prefix_of(&mut sp, reference.value())
        },
    );
}

#[test]
fn spill_io_failure_stops_with_storage() {
    // No resident payload, four-row segments and a spill directory that
    // does not exist: the first eviction fails while the fifth state is
    // inserted. The exploration must stop there with a storage stop and
    // a sound prefix, not return a truncated graph as complete.
    let net = cpn_testkit::sync_pipeline_net(8);
    let budget = Budget::default();
    let resident = net.reachability_bounded(&budget);
    let Bounded::Complete(rg) = resident else {
        panic!("sync_pipeline(8) fits the default budget");
    };
    assert_eq!(rg.state_count(), 256);
    let missing = std::env::temp_dir()
        .join(format!("cpn-missing-spill-dir-{}", std::process::id()))
        .join("absent");
    let config = SpillConfig {
        resident_payload_bytes: 0,
        segment_rows: 4,
        spill_dir: Some(missing),
    };
    let spilled = reachability_bounded_spilled(
        &net.compile(),
        net.initial_marking().as_slice(),
        &budget,
        &config,
    );
    let Bounded::Exhausted { partial, info } = spilled else {
        panic!("a failed spill returned a complete graph");
    };
    assert_eq!(info.resource, Resource::Storage);
    assert_eq!(info.resource.to_string(), "storage");
    let mut sp = partial;
    assert!(sp.state_count() < rg.state_count());
    // Every state found has the marking of the same state of the full
    // graph; the state being expanded when the store failed may lack
    // some of its edges.
    let mut buf = Vec::new();
    for s in (0..sp.state_count()).map(cpn_petri::StateId::from_index) {
        sp.marking_into(s, &mut buf)
            .expect("resident rows read back");
        assert_eq!(buf.as_slice(), rg.marking_slice(s), "marking of {s}");
        assert!(rg.edges(s).starts_with(sp.edges(s)), "edges of {s}");
    }
}

#[test]
fn marking_table_grows_with_states_found_not_with_state_cap() {
    // 2^15 states fill the slot table past 28,672, the 7/8 load of
    // 2^15 slots. Its size may depend only on the states found: a
    // 5,000,000-state cap and no cap at all must give the same graph in
    // the same resident bytes, in the full and in the stubborn kernel
    // (watching every place, so it fires every enabled transition), and
    // in the spill explorer.
    let net = cpn_testkit::sync_pipeline_net(15);
    let watched: Vec<_> = net.place_ids().collect();
    let capped = Budget::states(5_000_000);
    let unbounded = Budget::unlimited();
    for (what, a, b) in [
        (
            "compiled",
            net.reachability_bounded(&capped),
            net.reachability_bounded(&unbounded),
        ),
        (
            "stubborn",
            net.reachability_stubborn_bounded(&capped, &watched),
            net.reachability_stubborn_bounded(&unbounded, &watched),
        ),
    ] {
        let (Bounded::Complete(a), Bounded::Complete(b)) = (a, b) else {
            panic!("{what}: exploration stopped under a budget it fits in");
        };
        assert_eq!(a.state_count(), 1 << 15, "{what}: state count");
        assert_eq!(assert_graphs_identical(&a, &b, what), Ok(()));
        assert_eq!(
            a.resident_marking_bytes(),
            b.resident_marking_bytes(),
            "{what}: resident marking bytes under a cap vs none"
        );
    }
    let compiled = net.compile();
    let m0 = net.initial_marking();
    let spilled = |budget: &Budget| match reachability_bounded_spilled(
        &compiled,
        m0.as_slice(),
        budget,
        &SpillConfig::default(),
    ) {
        Bounded::Complete(sp) => sp,
        Bounded::Exhausted { info, .. } => panic!("spilled: stopped with {info}"),
    };
    let (a, b) = (spilled(&capped), spilled(&unbounded));
    assert_eq!(a.state_count(), 1 << 15, "spilled: state count");
    assert_eq!(a.state_count(), b.state_count(), "spilled: state count");
    assert_eq!(a.edge_count(), b.edge_count(), "spilled: edge count");
    assert_eq!(
        a.resident_bytes(),
        b.resident_bytes(),
        "spilled: resident bytes under a cap vs none"
    );
}

#[test]
fn deadlock_and_membership_queries_agree() {
    check("deadlock_and_membership_queries_agree", &raw_net(), |raw| {
        let net = raw.build_indexed();
        let Bounded::Complete(rg) = net.reachability_bounded(&Budget::states(50_000)) else {
            return Ok(());
        };
        // Every stored marking is found by the hash index, at its own id.
        for s in rg.state_ids() {
            prop_assert_eq!(rg.find_state(&rg.marking(s)), Some(s));
        }
        // Deadlock states are exactly the edge-free ones.
        let deadlocks = rg.deadlock_states();
        for s in rg.state_ids() {
            prop_assert_eq!(rg.edges(s).is_empty(), deadlocks.contains(&s));
        }
        Ok(())
    });
}
