//! Property tests: the packed-row exploration kernel must be
//! **bit-identical** to the interpreted reference explorer
//! (`cpn_testkit::oracle`, which shares no store, row format or enabling
//! code with it) on random nets: same state sequence, same edge lists,
//! same deadlock sets and token bounds, and the same exhaustion
//! statistics under equal budgets — including nets whose counts outgrow
//! the starting field width and force re-encodes. A store that fails
//! must stop the exploration with a sound prefix, never a complete
//! graph. The counting sink ([`StateSpace`]) is held to the CSR graph
//! explored under the same budget: the same states, counts and stops,
//! and a fired set equal to the transitions on the graph's edges.
//!
//! Driven by the deterministic `cpn-testkit` harness: failures print a
//! case seed, replayable via `CPN_TESTKIT_SEED=<seed>`.

use cpn_petri::{
    dead_transitions_rg, reachability_bounded_compiled, state_space_bounded_compiled, Bounded,
    Budget, CancelScope, PetriNet, PlaceId, ReachabilityGraph, Resource, StateId, StateSpace,
};
use cpn_testkit::oracle::{self, Reachability};
use cpn_testkit::{check, prop_assert, prop_assert_eq, NetStrategy, RawNet, TestRng};
use std::collections::BTreeSet;

/// Random nets: 2–5 places, 1–5 uniquely-labeled transitions, up to
/// **three** tokens per place so multiset (non-safe) markings are
/// exercised, not just safe ones.
fn raw_net() -> NetStrategy {
    NetStrategy::new(5, 5, 1).max_tokens(3)
}

/// Asserts the kernel's graph `rg` equals the oracle's `reference`
/// state by state: same numbering, same marking per state, same ordered
/// edge lists.
fn assert_matches_oracle(
    reference: &Reachability,
    rg: &ReachabilityGraph,
    what: &str,
) -> Result<(), cpn_testkit::PropFail> {
    prop_assert_eq!(
        rg.state_count(),
        reference.markings.len(),
        "{}: state count",
        what
    );
    prop_assert_eq!(
        rg.edge_count(),
        reference.edge_count(),
        "{}: edge count",
        what
    );
    prop_assert_eq!(
        rg.initial_state(),
        StateId::from_index(0),
        "{}: initial",
        what
    );
    let mut m = Vec::new();
    for s in rg.state_ids() {
        rg.marking_into(s, &mut m);
        prop_assert_eq!(
            &m,
            &reference.markings[s.index()],
            "{}: marking of {}",
            what,
            s
        );
        prop_assert_eq!(
            rg.edges(s),
            reference.edges[s.index()].as_slice(),
            "{}: edges of {}",
            what,
            s
        );
    }
    Ok(())
}

/// Asserts two kernel graphs are bit-identical.
fn assert_graphs_identical(
    a: &ReachabilityGraph,
    b: &ReachabilityGraph,
    what: &str,
) -> Result<(), cpn_testkit::PropFail> {
    prop_assert_eq!(a.state_count(), b.state_count(), "{}: state count", what);
    prop_assert_eq!(a.edge_count(), b.edge_count(), "{}: edge count", what);
    let (mut ma, mut mb) = (Vec::new(), Vec::new());
    for s in a.state_ids() {
        a.marking_into(s, &mut ma);
        b.marking_into(s, &mut mb);
        prop_assert_eq!(&ma, &mb, "{}: marking of {}", what, s);
        prop_assert_eq!(a.edges(s), b.edges(s), "{}: edges of {}", what, s);
    }
    Ok(())
}

/// The oracle and the kernel (through both entry points) under one
/// budget: same exhaustion statistics, same graph or prefix, and the
/// insert-tracked token bound equal to the oracle's full scan.
fn assert_kernel_matches_oracle(
    net: &PetriNet<String>,
    budget: &Budget,
) -> Result<(), cpn_testkit::PropFail> {
    let reference = oracle::reachability(net, budget);
    let compiled = net.compile();
    let m0 = net.initial_marking();
    for (what, built) in [
        ("compiled", net.reachability_bounded(budget)),
        (
            "precompiled",
            reachability_bounded_compiled(&compiled, m0.as_slice(), budget),
        ),
    ] {
        prop_assert_eq!(
            built.exhausted().copied(),
            reference.exhausted,
            "{}: exhaustion stats under {:?}",
            what,
            budget
        );
        assert_matches_oracle(&reference, built.value(), what)?;
        prop_assert_eq!(
            built.value().token_bound(),
            reference.token_bound(),
            "{}: token bound under {:?}",
            what,
            budget
        );
    }
    Ok(())
}

#[test]
fn all_kernels_agree_on_complete_exploration() {
    check(
        "all_kernels_agree_on_complete_exploration",
        &raw_net(),
        |raw| {
            let net = raw.build_indexed();
            let budget = Budget::states(50_000);
            let reference = oracle::reachability(&net, &budget);
            if reference.exhausted.is_some() {
                return Ok(()); // budget: skip pathological instances
            }
            let Bounded::Complete(rg) = net.reachability_bounded(&budget) else {
                prop_assert!(false, "compiled exhausted where the oracle completed");
                return Ok(());
            };
            assert_matches_oracle(&reference, &rg, "compiled")?;
            prop_assert_eq!(
                rg.deadlock_states(),
                reference.deadlock_states(),
                "deadlock set"
            );
            prop_assert_eq!(rg.token_bound(), reference.token_bound(), "token bound");
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
            let reference = oracle::reachability(&net, &budget);
            let result = net.reachability_bounded(&budget);
            prop_assert_eq!(
                result.exhausted().copied(),
                reference.exhausted,
                "exhaustion stats under {:?}",
                budget
            );
            assert_matches_oracle(&reference, result.value(), "compiled")?;
        }
        Ok(())
    });
}

/// A random net plus one source transition feeding a place the net
/// already gives to: counts grow without bound, so every width the
/// kernel starts with is eventually outgrown.
fn with_source(raw: &RawNet) -> PetriNet<String> {
    let mut net = raw.build_indexed();
    let target = raw.transitions[0].post[0];
    net.add_transition([], "src".to_owned(), [PlaceId::from_index(target)])
        .expect("a source with a postset is not degenerate");
    net
}

/// Budgets that stop around every re-encode of an exploration: for each
/// state whose count first outgrows the field width (`bits(max initial
/// count)`, doubled at each re-encode, at most 32), a state cap that
/// rejects it, admits it, and admits one more; and transition caps that
/// stop just before and just after the firing that creates it.
fn budgets_around_reencodes(net: &PetriNet<String>, reference: &Reachability) -> Vec<Budget> {
    let m0_max = net.initial_marking().as_slice().iter().copied().max();
    let mut width = (u32::BITS - m0_max.unwrap_or(0).leading_zeros()).max(1);
    let mut creating_edge = vec![usize::MAX; reference.markings.len()];
    let mut ordinal = 0;
    for edges in &reference.edges {
        for &(_, to) in edges {
            ordinal += 1;
            let slot = &mut creating_edge[to.index()];
            *slot = (*slot).min(ordinal);
        }
    }
    let mut budgets = Vec::new();
    for (id, m) in reference.markings.iter().enumerate() {
        let high = m.iter().copied().max().unwrap_or(0);
        if high > u32::MAX >> (u32::BITS - width) {
            width = (width * 2).min(32);
            budgets.extend([id, id + 1, id + 2].map(Budget::states));
            let k = creating_edge[id];
            budgets.extend([k - 1, k, k + 1].map(|k| Budget::new(usize::MAX, k)));
        }
    }
    budgets
}

#[test]
fn reencoding_matches_oracle_bit_for_bit() {
    check("reencoding_matches_oracle_bit_for_bit", &raw_net(), |raw| {
        // The net as generated (widths 1 and 2, doubling to 4, 8, …),
        // and with four more tokens on place 0 (width 3, doubling to 6,
        // 12, …).
        let mut heavier = raw.clone();
        heavier.marking[0] += 4;
        for raw in [raw, &heavier] {
            let net = with_source(raw);
            let cap = Budget::states(1_500);
            let reference = oracle::reachability(&net, &cap);
            let budgets = budgets_around_reencodes(&net, &reference);
            prop_assert!(!budgets.is_empty(), "a source never outgrew the width");
            assert_kernel_matches_oracle(&net, &cap)?;
            for budget in budgets {
                assert_kernel_matches_oracle(&net, &budget)?;
            }
        }
        Ok(())
    });
}

/// The counting sink against the CSR graph under one budget, for the
/// full and the stubborn kernel (and the pre-compiled entry point): the
/// same `Exhausted` statistics, state numbering, markings, token bound
/// and edge count, and fired bits equal to the transitions on the
/// graph's edges, so `dead_transitions_rg` reads the same set from
/// both.
fn assert_counted_matches_graph(
    net: &PetriNet<String>,
    budget: &Budget,
) -> Result<(), cpn_testkit::PropFail> {
    let watched = [PlaceId::from_index(0)];
    let (compiled, m0) = (net.compile(), net.initial_marking());
    for (what, built, counted) in [
        (
            "full",
            net.reachability_bounded(budget),
            net.state_space_bounded(budget),
        ),
        (
            "precompiled",
            reachability_bounded_compiled(&compiled, m0.as_slice(), budget),
            state_space_bounded_compiled(&compiled, m0.as_slice(), budget),
        ),
        (
            "stubborn",
            net.reachability_stubborn_bounded(budget, &watched),
            net.state_space_stubborn_bounded(budget, &watched),
        ),
    ] {
        prop_assert_eq!(
            counted.exhausted(),
            built.exhausted(),
            "{}: exhaustion stats under {:?}",
            what,
            budget
        );
        let (rg, space): (&ReachabilityGraph, &StateSpace) = (built.value(), counted.value());
        prop_assert_eq!(
            (space.state_count(), space.edge_count(), space.token_bound()),
            (rg.state_count(), rg.edge_count(), rg.token_bound()),
            "{}: states, edges and token bound under {:?}",
            what,
            budget
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for s in rg.state_ids() {
            rg.marking_into(s, &mut a);
            space.marking_into(s, &mut b);
            prop_assert_eq!(&a, &b, "{}: marking of {} under {:?}", what, s, budget);
            prop_assert_eq!(space.find_state(&rg.marking(s)), Some(s), "{}: id", what);
        }
        let on_edges: BTreeSet<_> = rg.all_edges().map(|(_, t, _)| t).collect();
        for t in net.transition_ids() {
            prop_assert_eq!(
                (space.fired(t), rg.fired(t)),
                (on_edges.contains(&t), on_edges.contains(&t)),
                "{}: fired bit of {:?} under {:?}",
                what,
                t,
                budget
            );
        }
        let dead: BTreeSet<_> = net
            .transition_ids()
            .filter(|t| !on_edges.contains(t))
            .collect();
        prop_assert_eq!(dead_transitions_rg(net, space), dead.clone(), "{}", what);
        prop_assert_eq!(dead_transitions_rg(net, rg), dead, "{}", what);
    }
    Ok(())
}

#[test]
fn counting_sink_matches_the_csr_graph() {
    check("counting_sink_matches_the_csr_graph", &raw_net(), |raw| {
        // A cap most random nets complete under (the rest stop at it),
        // then the tight budgets.
        let net = raw.build_indexed();
        for budget in [
            Budget::states(2_000),
            Budget::states(0),
            Budget::states(1),
            Budget::states(3),
            Budget::new(100, 5),
            Budget::new(4, 100),
        ] {
            assert_counted_matches_graph(&net, &budget)?;
        }
        // Unbounded counts: a cap, and budgets around every re-encode
        // under it.
        let net = with_source(raw);
        let cap = Budget::states(300);
        assert_counted_matches_graph(&net, &cap)?;
        let reference = oracle::reachability(&net, &cap);
        for budget in budgets_around_reencodes(&net, &reference) {
            assert_counted_matches_graph(&net, &budget)?;
        }
        Ok(())
    });
}

#[test]
fn empty_preset_sources_match_legacy() {
    // An always-enabled source transition pumps a bounded buffer
    // drained by a consumer: candidate generation must include the
    // empty-preset transition in every state.
    let mut net: PetriNet<String> = PetriNet::new();
    let buf = net.add_place("buf".to_owned());
    net.add_transition([], "arrive".to_owned(), [buf]).unwrap();
    net.add_transition([buf], "serve".to_owned(), []).unwrap();
    let budget = Budget::states(50);
    let reference = oracle::reachability(&net, &budget);
    assert_eq!(
        reference.exhausted.map(|e| e.resource),
        Some(Resource::States)
    );
    assert_eq!(assert_kernel_matches_oracle(&net, &budget), Ok(()));
}

fn diamond() -> PetriNet<String> {
    // Fork into two concurrent tokens, then join.
    let mut net = PetriNet::new();
    let [p0, pa, pb, pa2, pb2, end] =
        ["p0", "pa", "pb", "pa2", "pb2", "end"].map(|p| net.add_place(p.to_owned()));
    net.add_transition([p0], "fork".to_owned(), [pa, pb])
        .unwrap();
    net.add_transition([pa], "a".to_owned(), [pa2]).unwrap();
    net.add_transition([pb], "b".to_owned(), [pb2]).unwrap();
    net.add_transition([pa2, pb2], "join".to_owned(), [end])
        .unwrap();
    net.set_initial(p0, 1);
    net
}

#[test]
fn compiled_matches_legacy_on_diamond() {
    let net = diamond();
    let budget = Budget::default();
    assert_eq!(oracle::reachability(&net, &budget).markings.len(), 6);
    assert_eq!(assert_kernel_matches_oracle(&net, &budget), Ok(()));
}

#[test]
fn compiled_matches_legacy_under_exhaustion() {
    let mut net: PetriNet<String> = PetriNet::new();
    let p = net.add_place("p".to_owned());
    let sink = net.add_place("sink".to_owned());
    net.add_transition([p], "pump".to_owned(), [p, sink])
        .unwrap();
    net.set_initial(p, 1);
    for budget in [Budget::states(5), Budget::new(100, 7), Budget::states(0)] {
        assert_eq!(assert_kernel_matches_oracle(&net, &budget), Ok(()));
    }
}

#[test]
fn token_overflow_stops_with_storage() {
    // A source feeding a place that already holds `u32::MAX` tokens (or
    // reaches it after three firings): the next firing has no successor
    // marking. Every explorer must stop there with a storage stop and
    // the sound prefix — never wrap the count, saturate it, or drop the
    // edge and report the graph complete.
    for (start, states) in [(u32::MAX, 1), (u32::MAX - 3, 4)] {
        let mut net: PetriNet<String> = PetriNet::new();
        let p = net.add_place("p".to_owned());
        net.add_transition([], "src".to_owned(), [p]).unwrap();
        net.set_initial(p, start);
        let budget = Budget::states(5);
        let reference = oracle::reachability(&net, &budget);
        let info = reference.exhausted.expect("the oracle stops");
        assert_eq!(info.resource, Resource::Storage);
        assert_eq!(info.resource.to_string(), "storage");
        assert_eq!(
            (info.states_explored, info.transitions_explored),
            (states, states)
        );
        let want: Vec<Vec<u32>> = (0..states as u32).map(|i| vec![start + i]).collect();
        assert_eq!(reference.markings, want);
        assert_eq!(assert_kernel_matches_oracle(&net, &budget), Ok(()));
        let stubborn = net.reachability_stubborn_bounded(&budget, &[p]);
        assert_eq!(stubborn.exhausted(), Some(&info), "stubborn");
        assert_eq!(
            assert_matches_oracle(&reference, stubborn.value(), "stubborn"),
            Ok(())
        );
        assert_eq!(stubborn.value().token_bound(), u32::MAX);
    }
}

#[test]
fn cancellation_mid_exploration_is_deterministic() {
    // A pre-cancelled token: every kernel observes the interrupt at its
    // first poll and must stop on the same prefix with the same
    // statistics as the oracle.
    check(
        "cancellation_mid_exploration_is_deterministic",
        &raw_net(),
        |raw| {
            let net = raw.build_indexed();
            let scope = CancelScope::new();
            scope.cancel();
            let budget = Budget::states(50_000).with_cancel(scope.token());
            let reference = oracle::reachability(&net, &budget);
            prop_assert_eq!(
                reference.exhausted.map(|e| e.resource),
                Some(Resource::Cancelled),
                "oracle under a cancelled token"
            );
            assert_kernel_matches_oracle(&net, &budget)
        },
    );
}

/// A deterministic random net over `n` places with `n` transitions, the
/// last one a source, and a safe initial marking: occupancy bitmaps span
/// `⌈n / 64⌉` words and candidate bitmaps `⌈n / 64⌉` words.
fn wide_net(n: usize, seed: u64) -> PetriNet<String> {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut net: PetriNet<String> = PetriNet::new();
    let ps: Vec<PlaceId> = (0..n).map(|i| net.add_place(format!("p{i}"))).collect();
    let pick = |rng: &mut TestRng| -> Vec<PlaceId> {
        (0..rng.gen_range(1..3)).map(|_| ps[rng.below(n)]).collect()
    };
    for i in 0..n - 1 {
        let (pre, post) = (pick(&mut rng), pick(&mut rng));
        net.add_transition(pre, format!("t{i}"), post).unwrap();
    }
    let post = pick(&mut rng);
    net.add_transition([], "src".to_owned(), post).unwrap();
    for &p in &ps {
        if rng.below(3) == 0 {
            net.set_initial(p, 1);
        }
    }
    net
}

#[test]
fn multi_word_bitmaps_match_oracle_at_63_64_65() {
    for n in [63, 64, 65] {
        for seed in 0..4u64 {
            let net = wide_net(n, seed);
            assert_eq!(
                (net.place_count(), net.transition_count()),
                (n, n),
                "net size"
            );
            for budget in [Budget::states(600), Budget::new(10_000, 900)] {
                let checked = assert_kernel_matches_oracle(&net, &budget);
                assert_eq!(checked, Ok(()), "{n} places, seed {seed}, {budget:?}");
            }
            // Watching every place seeds every transition that moves a
            // token, so the stubborn kernel's multi-word member bitmap
            // must keep exactly the enabled set.
            let watched: Vec<_> = net.place_ids().collect();
            let budget = Budget::states(600);
            let full = net.reachability_bounded(&budget);
            let stubborn = net.reachability_stubborn_bounded(&budget, &watched);
            assert_eq!(full.exhausted(), stubborn.exhausted());
            assert_eq!(
                assert_graphs_identical(full.value(), stubborn.value(), "stubborn"),
                Ok(())
            );
        }
    }
}

#[test]
fn marking_rows_are_packed() {
    // The pipeline is safe (one bit per place, 30 places in one word);
    // the 9-token mesh needs four bits on 9 places (one word). With the
    // hash cache and the slot table, neither takes more than 40 bytes
    // per state, in the graph or in the counted exploration. Edge counts in closed form: the pipeline's `2^k +
    // (k−1)·2^(k−2)` enabled transitions, and two moves per marked place
    // over every spread of the mesh's tokens.
    for (what, net, states, edges) in [
        (
            "sync_pipeline(15)",
            cpn_testkit::sync_pipeline_net(15),
            1 << 15,
            147_456,
        ),
        (
            "sync_mesh(3,3,9)",
            cpn_testkit::sync_mesh(3, 3, 9),
            24_310,
            231_660,
        ),
    ] {
        let Bounded::Complete(rg) = net.reachability_bounded(&Budget::default()) else {
            panic!("{what}: exploration stopped under the default budget");
        };
        assert_eq!(
            (rg.state_count(), rg.edge_count()),
            (states, edges),
            "{what}"
        );
        let per_state = rg.resident_marking_bytes() as f64 / states as f64;
        assert!(
            per_state <= 40.0,
            "{what}: {per_state:.1} B/state resident for markings"
        );
        // The graph pays 8 B per edge on top; the counted exploration of
        // the same net stores the same states and nothing per edge.
        assert!(rg.resident_bytes() >= rg.resident_marking_bytes() + 8 * edges);
        let Bounded::Complete(space) = net.state_space_bounded(&Budget::default()) else {
            panic!("{what}: counted exploration stopped under the default budget");
        };
        assert_eq!(
            (space.state_count(), space.edge_count()),
            (states, edges),
            "{what}: counted"
        );
        let per_state = space.resident_bytes() as f64 / states as f64;
        assert!(
            per_state <= 40.0,
            "{what}: {per_state:.1} B/state resident in the counted exploration"
        );
    }
}

#[test]
fn marking_table_grows_with_states_found_not_with_state_cap() {
    // 2^15 states fill the slot table past 28,672, the 7/8 load of
    // 2^15 slots. Its size may depend only on the states found: a
    // 5,000,000-state cap and no cap at all must give the same graph in
    // the same resident bytes, in the full and in the stubborn kernel
    // (watching every place, so it fires every enabled transition), and
    // through the pre-compiled entry point.
    let net = cpn_testkit::sync_pipeline_net(15);
    let watched: Vec<_> = net.place_ids().collect();
    let compiled = net.compile();
    let m0 = net.initial_marking();
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
        (
            "precompiled",
            reachability_bounded_compiled(&compiled, m0.as_slice(), &capped),
            reachability_bounded_compiled(&compiled, m0.as_slice(), &unbounded),
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
