//! Integration: CIP specification → handshake expansion → composition →
//! verification, across encodings and protocols.

use cpn::cip::protocol::{protocol_cip, protocol_cip_restricted};
use cpn::cip::{ChannelSpec, CipGraph, DataEncoding, HandshakeProtocol, Module};
use cpn::petri::Budget;
use cpn::stg::{Edge, StgLabel};

fn ring_pair(encoding: DataEncoding, values: &[usize]) -> CipGraph {
    let mut tx = Module::new("tx");
    let mut prev = tx.add_place("s0");
    let first = prev;
    tx.set_initial(first, 1);
    for (i, &v) in values.iter().enumerate() {
        let next = if i + 1 == values.len() {
            first
        } else {
            tx.add_place(format!("s{}", i + 1))
        };
        tx.add_send([prev], "ch", Some(v), [next]).unwrap();
        prev = next;
    }
    let mut rx = Module::new("rx");
    let r = rx.add_place("r");
    rx.add_recv([r], "ch", [r]).unwrap();
    rx.set_initial(r, 1);

    let mut g = CipGraph::new();
    let a = g.add_module(tx);
    let b = g.add_module(rx);
    g.add_channel_edge(a, b, ChannelSpec::data("ch", encoding))
        .unwrap();
    g
}

#[test]
fn one_hot_and_dual_rail_and_m_of_n_all_expand_live() {
    let budget = Budget::states(500_000);
    let cases: Vec<(&str, DataEncoding, Vec<usize>)> = vec![
        ("one-hot", DataEncoding::one_hot("w", 3), vec![0, 2, 1]),
        ("dual-rail", DataEncoding::dual_rail("d", 2), vec![3, 0]),
        ("2-of-4", DataEncoding::m_of_n("m", 2, 4), vec![5, 1, 3]),
    ];
    for (name, enc, values) in cases {
        let sys = ring_pair(enc, &values)
            .expand(HandshakeProtocol::FourPhase)
            .unwrap();
        let composed = sys
            .compose_all()
            .unwrap()
            .remove_dead(&budget)
            .complete()
            .unwrap();
        let rg = composed
            .net()
            .reachability_bounded(&budget)
            .complete()
            .unwrap();
        let analysis = composed.net().analysis(&rg);
        assert!(analysis.live, "{name}: transaction ring must be live");
        assert!(analysis.safe, "{name}: expansion must be safe");
    }
}

#[test]
fn every_sent_value_reaches_the_receiver() {
    // Selective receivers route values; composing with a sender cycling
    // through all four values exercises each branch.
    let enc = DataEncoding::one_hot("w", 4);
    let mut tx = Module::new("tx");
    let mut prev = tx.add_place("s0");
    let first = prev;
    tx.set_initial(first, 1);
    for v in 0..4usize {
        let next = if v == 3 {
            first
        } else {
            tx.add_place(format!("s{}", v + 1))
        };
        tx.add_send([prev], "ch", Some(v), [next]).unwrap();
        prev = next;
    }
    let mut rx = Module::new("rx");
    let mut rprev = rx.add_place("r0");
    let rfirst = rprev;
    rx.set_initial(rfirst, 1);
    for v in 0..4usize {
        let next = if v == 3 {
            rfirst
        } else {
            rx.add_place(format!("r{}", v + 1))
        };
        rx.add_recv_case([rprev], "ch", v, [next]).unwrap();
        rprev = next;
    }
    let mut g = CipGraph::new();
    let a = g.add_module(tx);
    let b = g.add_module(rx);
    g.add_channel_edge(a, b, ChannelSpec::data("ch", enc))
        .unwrap();

    let budget = Budget::states(500_000);
    let sys = g.expand(HandshakeProtocol::FourPhase).unwrap();
    let composed = sys
        .compose_all()
        .unwrap()
        .remove_dead(&budget)
        .complete()
        .unwrap();
    let rg = composed
        .net()
        .reachability_bounded(&budget)
        .complete()
        .unwrap();
    let analysis = composed.net().analysis(&rg);
    assert!(analysis.live, "in-phase selective ring is live");
    // All four wires rise somewhere.
    for v in 0..4 {
        let wire = format!("w{v}");
        assert!(
            composed.net().transitions().any(|(tid, _)| {
                matches!(composed.net().label_of(tid), StgLabel::Signal(s, Edge::Rise) if s.name() == wire)
            }),
            "{wire} is exercised"
        );
    }
}

#[test]
fn two_phase_ring_works_for_control_channels() {
    let mut tx = Module::new("tx");
    let p = tx.add_place("p");
    tx.add_send([p], "go", None, [p]).unwrap();
    tx.set_initial(p, 1);
    let mut rx = Module::new("rx");
    let r = rx.add_place("r");
    rx.add_recv([r], "go", [r]).unwrap();
    rx.set_initial(r, 1);
    let mut g = CipGraph::new();
    let a = g.add_module(tx);
    let b = g.add_module(rx);
    g.add_channel_edge(a, b, ChannelSpec::control("go"))
        .unwrap();

    let sys = g.expand(HandshakeProtocol::TwoPhase).unwrap();
    let composed = sys.compose_all().unwrap();
    let lang = composed.language(4, 100_000).unwrap();
    // Two rounds of toggles.
    assert!(lang.contains(
        &[
            StgLabel::signal("go_req", Edge::Toggle),
            StgLabel::signal("go_ack", Edge::Toggle),
            StgLabel::signal("go_req", Edge::Toggle),
            StgLabel::signal("go_ack", Edge::Toggle),
        ][..]
    ));
}

#[test]
fn cip_protocol_system_matches_signal_level_behaviour() {
    // The CIP-level protocol and the hand-written STGs use the same
    // Table 1 wire names; the expanded sender must raise the same wire
    // pairs per command value.
    let sys = protocol_cip()
        .unwrap()
        .expand(HandshakeProtocol::FourPhase)
        .unwrap();
    let sender = &sys.stgs()[0];
    // Command rec (value 0) raises a0 and b0: both rise transitions
    // exist and share a fork in the expansion.
    for wire in ["a0", "b0", "a1", "b1"] {
        assert!(
            sender.net().transitions().any(|(tid, _)| {
                matches!(sender.net().label_of(tid), StgLabel::Signal(s, Edge::Rise) if s.name() == wire)
            }),
            "sender drives {wire}"
        );
    }
}

#[test]
fn restricted_cip_never_exercises_rec_wires_pair() {
    let budget = Budget::default();
    let sys = protocol_cip_restricted()
        .unwrap()
        .expand(HandshakeProtocol::FourPhase)
        .unwrap();
    let composed = sys
        .compose_all()
        .unwrap()
        .remove_dead(&budget)
        .complete()
        .unwrap();
    // rec = {a0, b0} rising in the same transaction. After dead removal,
    // no cmd_ack+ completion for value 0 (code a0,b0) survives: check
    // that no transition reads both a0-high and b0-high trackers.
    let offending = composed.net().transitions().any(|(_, t)| {
        let names: Vec<&str> = t
            .preset()
            .iter()
            .map(|p| composed.net().place(*p).name())
            .collect();
        names.iter().any(|n| n.contains("a0.hi")) && names.iter().any(|n| n.contains("b0.hi"))
    });
    assert!(
        !offending,
        "rec completion must be dead with the restricted sender"
    );
}

#[test]
fn four_stage_relay_pipeline_expands_and_verifies() {
    // tx → relay1 → relay2 → rx over three control channels: the
    // ExpandedSystem machinery with more than two modules.
    let mut g = CipGraph::new();
    let mut tx = Module::new("tx");
    let p = tx.add_place("p");
    tx.add_send([p], "c0", None, [p]).unwrap();
    tx.set_initial(p, 1);
    let tx = g.add_module(tx);

    let mut prev = tx;
    for i in 0..2 {
        let mut relay = Module::new(format!("relay{i}"));
        let r0 = relay.add_place("r0");
        let r1 = relay.add_place("r1");
        relay
            .add_recv([r0], format!("c{i}").as_str(), [r1])
            .unwrap();
        relay
            .add_send([r1], format!("c{}", i + 1).as_str(), None, [r0])
            .unwrap();
        relay.set_initial(r0, 1);
        let idx = g.add_module(relay);
        g.add_channel_edge(prev, idx, ChannelSpec::control(format!("c{i}").as_str()))
            .unwrap();
        prev = idx;
    }
    let mut rx = Module::new("rx");
    let q = rx.add_place("q");
    rx.add_recv([q], "c2", [q]).unwrap();
    rx.set_initial(q, 1);
    let rx = g.add_module(rx);
    g.add_channel_edge(prev, rx, ChannelSpec::control("c2"))
        .unwrap();
    g.validate().unwrap();

    let budget = Budget::states(500_000);
    let sys = g.expand(HandshakeProtocol::FourPhase).unwrap();
    assert_eq!(sys.stgs().len(), 4);
    let composed = sys
        .compose_all()
        .unwrap()
        .remove_dead(&budget)
        .complete()
        .unwrap();
    let rg = composed
        .net()
        .reachability_bounded(&budget)
        .complete()
        .unwrap();
    let analysis = composed.net().analysis(&rg);
    assert!(analysis.live, "relay pipeline live end to end");
    assert!(analysis.safe);
    for (name, verdict) in sys.verify_receptiveness(&budget).unwrap() {
        assert!(verdict.holds(), "{name}: {verdict:?}");
    }
}

#[test]
fn expanded_cip_verifies_receptive_end_to_end() {
    let budget = Budget::default();
    let sys = protocol_cip_restricted()
        .unwrap()
        .expand(HandshakeProtocol::FourPhase)
        .unwrap();
    for (name, verdict) in sys.verify_receptiveness(&budget).unwrap() {
        assert!(verdict.holds(), "{name}: {verdict:?}");
    }
}
