//! Integration: the full Section 6 pipeline across all crates —
//! modeling, composition, verification, reduction, logic, and
//! serialization of the protocol-translation system.

use cpn::petri::Budget;
use cpn::stg::protocol::{
    receiver, sender, sender_inconsistent, sender_restricted, translator, RECEIVER_COMMANDS,
    SENDER_COMMANDS,
};
use cpn::stg::{derive_logic, Signal, StateGraph};
use std::collections::BTreeMap;

#[test]
fn command_tables_are_consistent() {
    // Table 1: each command uses one wire from each group; all four
    // combinations appear exactly once.
    let mut seen = std::collections::BTreeSet::new();
    for (_, wa, wb) in SENDER_COMMANDS {
        assert!(wa.starts_with('a') && wb.starts_with('b'));
        assert!(seen.insert((wa, wb)));
    }
    assert_eq!(seen.len(), 4);
    let mut seen = std::collections::BTreeSet::new();
    for (_, wp, wq) in RECEIVER_COMMANDS {
        assert!(wp.starts_with('p') && wq.starts_with('q'));
        assert!(seen.insert((wp, wq)));
    }
    assert_eq!(seen.len(), 4);
}

#[test]
fn all_blocks_have_consistent_state_assignments() {
    for (name, stg) in [
        ("sender", sender()),
        ("translator", translator()),
        ("receiver", receiver()),
    ] {
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1_000_000))
            .complete()
            .unwrap();
        assert!(
            sg.is_consistent(),
            "{name}: {:?}",
            sg.consistency_violations()
        );
    }
}

#[test]
fn receiver_logic_blocked_by_genuine_csc_conflict() {
    // The receiver's toggle outputs make equal codes with different
    // excitations — a real CSC violation that Chu-style synthesis would
    // resolve with state signals (out of the paper's scope). The logic
    // derivation must refuse, and the state-graph diagnostic must point
    // at the same conflict.
    let rx = receiver();
    let sg = StateGraph::build_bounded(&rx, &BTreeMap::new(), &Budget::states(1_000_000))
        .complete()
        .unwrap();
    let err = derive_logic(&rx, &sg).unwrap_err();
    let violations = sg.csc_violations(&rx);
    assert!(!violations.is_empty(), "diagnostics agree with {err}");
}

#[test]
fn four_phase_fragment_logic_derivable() {
    // A CSC-clean fragment of the same protocol synthesizes fine: the
    // sender-facing 4-phase handshake viewed from the translator.
    use cpn::stg::{Edge, SignalDir, Stg};
    let mut stg = Stg::new();
    let a0 = stg.add_signal("a0", SignalDir::Input);
    let b0 = stg.add_signal("b0", SignalDir::Input);
    let n = stg.add_signal("n", SignalDir::Output);
    let w0 = stg.add_place("w0");
    let w1 = stg.add_place("w1");
    let w2 = stg.add_place("w2");
    let w3 = stg.add_place("w3");
    let w4 = stg.add_place("w4");
    let w5 = stg.add_place("w5");
    stg.add_signal_transition([w0], (a0.clone(), Edge::Rise), [w1])
        .unwrap();
    stg.add_signal_transition([w1], (b0.clone(), Edge::Rise), [w2])
        .unwrap();
    stg.add_signal_transition([w2], (n.clone(), Edge::Rise), [w3])
        .unwrap();
    stg.add_signal_transition([w3], (a0, Edge::Fall), [w4])
        .unwrap();
    stg.add_signal_transition([w4], (b0, Edge::Fall), [w5])
        .unwrap();
    stg.add_signal_transition([w5], (n, Edge::Fall), [w0])
        .unwrap();
    stg.set_initial(w0, 1);
    let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(10_000))
        .complete()
        .unwrap();
    let fns = derive_logic(&stg, &sg).unwrap();
    assert_eq!(fns.len(), 1);
    assert_eq!(fns[0].signal.name(), "n");
    assert!(fns[0].literal_cost() >= 2, "n = a0·b0-ish");
}

#[test]
fn full_system_runs_the_whole_command_set() {
    let budget = Budget::default();
    let system = sender()
        .compose(&translator())
        .unwrap()
        .compose(&receiver())
        .unwrap()
        .remove_dead(&budget)
        .complete()
        .unwrap();
    let rg = system
        .net()
        .reachability_bounded(&budget)
        .complete()
        .unwrap();
    let analysis = system.net().analysis(&rg);
    assert!(analysis.safe);
    assert!(analysis.deadlock_free);
    // Every sender command toggle fires somewhere in the state space.
    for (cmd, _, _) in SENDER_COMMANDS {
        let found = system.net().transitions().any(|(tid, _)| {
            system.net().label_of(tid).signal_name().map(Signal::name) == Some(cmd)
        });
        assert!(found, "{cmd}~ survives in the composition");
    }
}

#[test]
fn fig8_detected_fig5_clean_with_full_system() {
    let budget = Budget::default();
    // Checking against translator ‖ receiver (the module's real
    // environment) rather than the translator alone.
    let env = translator().compose(&receiver()).unwrap();
    let clean = sender().check_receptiveness(&env, &budget).unwrap();
    assert!(clean.holds(), "{clean:?}");
    let broken = sender_inconsistent()
        .check_receptiveness(&env, &budget)
        .unwrap();
    assert!(broken.fails());
}

#[test]
fn fig9_reduction_chain_shrinks_state_spaces() {
    let budget = Budget::default();
    let tr = translator();
    let tr_red = tr
        .reduce_against(&sender_restricted(), &budget, 10_000)
        .unwrap()
        .complete()
        .unwrap();
    let rx = receiver();
    let rx_red = rx
        .prune_against(&tr_red, &budget)
        .unwrap()
        .complete()
        .unwrap();

    let states = |s: &cpn::stg::Stg| {
        s.net()
            .reachability_bounded(&budget)
            .complete()
            .unwrap()
            .state_count()
    };
    assert!(
        states(&tr_red) < states(&tr),
        "translator state space shrinks"
    );
    assert!(
        states(&rx_red) < states(&rx),
        "receiver state space shrinks"
    );

    // The reduced receiver still implements start/zero/one.
    for cmd in ["start", "zero", "one"] {
        assert!(
            rx_red.net().transitions().any(|(tid, _)| rx_red
                .net()
                .label_of(tid)
                .signal_name()
                .map(Signal::name)
                == Some(cmd)),
            "{cmd} kept"
        );
    }
}

#[test]
fn serialized_models_reanalyze_identically() {
    let budget = Budget::default();
    for (name, stg) in [("sender", sender()), ("receiver", receiver())] {
        let text = cpn::format::write_stg(name, &stg);
        let doc = cpn::format::parse(&text).unwrap();
        let (_, parsed) = &doc.stgs[0];
        let a1 = stg
            .net()
            .analysis(&stg.net().reachability_bounded(&budget).complete().unwrap());
        let a2 = parsed.net().analysis(
            &parsed
                .net()
                .reachability_bounded(&budget)
                .complete()
                .unwrap(),
        );
        assert_eq!(a1.safe, a2.safe, "{name}");
        assert_eq!(a1.live, a2.live, "{name}");
        assert_eq!(a1.bound, a2.bound, "{name}");
    }
}

#[test]
fn reduced_translator_still_serves_the_sender_up_to_traces() {
    // Theorem 5.1 promises *trace* containment — implementation freedom
    // for synthesis — not direct re-composability: the reduced net
    // embeds one copy of the environment's free choice, so re-composing
    // it with the live environment can deadlock when the two copies
    // resolve a choice differently. The meaningful checks are at the
    // trace level.
    let budget = Budget::default();
    let tr = translator();
    let tr_red = tr
        .reduce_against(&sender_restricted(), &budget, 10_000)
        .unwrap()
        .complete()
        .unwrap();

    // Alone, the derived block is safe and deadlock-free.
    let rg = tr_red
        .net()
        .reachability_bounded(&budget)
        .complete()
        .unwrap();
    let analysis = tr_red.net().analysis(&rg);
    assert!(analysis.safe);
    assert!(
        analysis.deadlock_free,
        "the reduced translator has no stuck state"
    );

    // Its language still contains a complete reset round: a0+ b1+ n+
    // a0- b1- n- is drivable (interleaved with the start transmission).
    let lang = tr_red.language(7, 2_000_000).unwrap();
    let a0_rise = cpn::stg::StgLabel::signal("a0", cpn::stg::Edge::Rise);
    assert!(
        lang.iter().any(|t| t.contains(&a0_rise)),
        "reset command still serviceable"
    );

    // And the directions of the derived interface match the original's.
    for (s, dir) in tr_red.signals() {
        assert_eq!(Some(dir), tr.signals().get(s), "{s}");
    }
}
