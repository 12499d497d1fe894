//! The Section 6 design example at the **CIP level**: the same
//! sender / protocol-translator / receiver system, but specified with
//! abstract channels instead of hand-written 4-phase signalling.
//!
//! This is the paper's first remedy for the Figure 8 inconsistency
//! ("simply avoid such problems by using abstract communication instead
//! of signal-level communication"): the designer writes `cmd!rec`,
//! `out!start`, … and the expansion of Section 3 produces the handshake
//! wires with rendez-vous correctness by construction. The wire bundles
//! use the Table 1 dual-rail-style pair encoding, so the expanded system
//! speaks (a mechanically derived variant of) the same wire protocol as
//! the hand-written STGs in `cpn_stg::protocol`.

use crate::encoding::DataEncoding;
use crate::graph::{ChannelSpec, CipError, CipGraph};
use crate::module::Module;
use cpn_stg::{Edge, SignalDir};
use std::collections::BTreeSet;

/// Command values on the `cmd` channel (sender → translator), in Table
/// 1(a) order.
pub const CMD_VALUES: [&str; 4] = ["rec", "reset", "send0", "send1"];

/// Command values on the `out` channel (translator → receiver), in Table
/// 1(b) order.
pub const OUT_VALUES: [&str; 4] = ["start", "mute", "zero", "one"];

/// The Table 1(a) wire encoding of the `cmd` channel: wires
/// `a0, a1, b0, b1`; each command raises one `a` and one `b` wire.
pub fn cmd_encoding() -> DataEncoding {
    let wires = ["a0", "a1", "b0", "b1"]
        .iter()
        .map(|w| cpn_stg::Signal::new(*w))
        .collect();
    // rec={a0,b0}, reset={a0,b1}, send0={a1,b0}, send1={a1,b1}
    let codes = vec![
        BTreeSet::from([0, 2]),
        BTreeSet::from([0, 3]),
        BTreeSet::from([1, 2]),
        BTreeSet::from([1, 3]),
    ];
    DataEncoding::new(wires, codes).expect("Table 1(a) codes form an antichain")
}

/// The Table 1(b) wire encoding of the `out` channel: wires
/// `p0, p1, q0, q1`.
pub fn out_encoding() -> DataEncoding {
    let wires = ["p0", "p1", "q0", "q1"]
        .iter()
        .map(|w| cpn_stg::Signal::new(*w))
        .collect();
    let codes = vec![
        BTreeSet::from([0, 2]),
        BTreeSet::from([0, 3]),
        BTreeSet::from([1, 2]),
        BTreeSet::from([1, 3]),
    ];
    DataEncoding::new(wires, codes).expect("Table 1(b) codes form an antichain")
}

/// The CIP sender: on each environment toggle command, sends the
/// corresponding value on `cmd`.
pub fn sender() -> Module {
    let mut m = Module::new("sender");
    let idle = m.add_place("idle");
    m.set_initial(idle, 1);
    for (v, cmd) in CMD_VALUES.iter().enumerate() {
        let sig = m.add_signal(*cmd, SignalDir::Input);
        let got = m.add_place(format!("{cmd}.got"));
        m.add_signal_transition([idle], &sig, Edge::Toggle, [got])
            .expect("sender");
        m.add_send([got], "cmd", Some(v), [idle]).expect("sender");
    }
    m
}

/// The restricted CIP sender (Figure 9a): never sends `rec`.
pub fn sender_restricted() -> Module {
    let mut m = Module::new("sender_restricted");
    let idle = m.add_place("idle");
    m.set_initial(idle, 1);
    for (v, cmd) in CMD_VALUES.iter().enumerate().skip(1) {
        let sig = m.add_signal(*cmd, SignalDir::Input);
        let got = m.add_place(format!("{cmd}.got"));
        m.add_signal_transition([idle], &sig, Edge::Toggle, [got])
            .expect("sender");
        m.add_send([got], "cmd", Some(v), [idle]).expect("sender");
    }
    m
}

/// The CIP translator: first sends `start`; then routes commands. The
/// `rec` response abstracts the `DATA`/`STROBE` sampling as a free
/// choice among the four receiver commands (the signal-level model in
/// `cpn_stg::protocol` refines this with stable/unstable transitions and
/// boolean guards).
pub fn translator() -> Module {
    let mut m = Module::new("translator");
    let init = m.add_place("init");
    let wait = m.add_place("wait");
    m.set_initial(init, 1);
    m.add_send([init], "out", Some(0), [wait])
        .expect("translator"); // start

    // reset → start, send0 → zero, send1 → one.
    for (cmd_v, out_v) in [(1usize, 0usize), (2, 2), (3, 3)] {
        let got = m.add_place(format!("got{cmd_v}"));
        m.add_recv_case([wait], "cmd", cmd_v, [got])
            .expect("translator");
        m.add_send([got], "out", Some(out_v), [wait])
            .expect("translator");
    }
    // rec → sample the lines (abstracted as free choice over responses).
    let got_rec = m.add_place("got_rec");
    m.add_recv_case([wait], "cmd", 0, [got_rec])
        .expect("translator");
    for out_v in 0..OUT_VALUES.len() {
        let sel = m.add_place(format!("rec.sel{out_v}"));
        m.add_dummy([got_rec], [sel]).expect("translator");
        m.add_send([sel], "out", Some(out_v), [wait])
            .expect("translator");
    }
    m
}

/// The CIP receiver: each received value toggles the corresponding
/// environment wire.
pub fn receiver() -> Module {
    let mut m = Module::new("receiver");
    let wait = m.add_place("wait");
    m.set_initial(wait, 1);
    for (v, cmd) in OUT_VALUES.iter().enumerate() {
        let sig = m.add_signal(*cmd, SignalDir::Output);
        let got = m.add_place(format!("{cmd}.got"));
        m.add_recv_case([wait], "out", v, [got]).expect("receiver");
        m.add_signal_transition([got], &sig, Edge::Toggle, [wait])
            .expect("receiver");
    }
    m
}

/// Assembles the full CIP graph of Figure 4 (sender, translator,
/// receiver; channels `cmd` and `out` with the Table 1 encodings).
///
/// # Errors
///
/// Graph construction errors (none for the canonical assembly).
pub fn protocol_cip() -> Result<CipGraph, CipError> {
    let mut g = CipGraph::new();
    let s = g.add_module(sender());
    let t = g.add_module(translator());
    let r = g.add_module(receiver());
    g.add_channel_edge(s, t, ChannelSpec::data("cmd", cmd_encoding()))?;
    g.add_channel_edge(t, r, ChannelSpec::data("out", out_encoding()))?;
    g.validate()?;
    Ok(g)
}

/// Assembles the restricted variant (Figure 9a sender).
///
/// # Errors
///
/// Graph construction errors (none for the canonical assembly).
pub fn protocol_cip_restricted() -> Result<CipGraph, CipError> {
    let mut g = CipGraph::new();
    let s = g.add_module(sender_restricted());
    let t = g.add_module(translator());
    let r = g.add_module(receiver());
    g.add_channel_edge(s, t, ChannelSpec::data("cmd", cmd_encoding()))?;
    g.add_channel_edge(t, r, ChannelSpec::data("out", out_encoding()))?;
    g.validate()?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::HandshakeProtocol;
    use cpn_petri::Budget;

    #[test]
    fn cip_graph_validates() {
        protocol_cip().unwrap();
        protocol_cip_restricted().unwrap();
    }

    #[test]
    fn table_1_codes_are_antichains() {
        assert_eq!(cmd_encoding().value_count(), 4);
        assert_eq!(out_encoding().value_count(), 4);
        // rec raises a0 and b0 (Table 1a, first row).
        let rec: Vec<String> = cmd_encoding()
            .code(0)
            .unwrap()
            .iter()
            .map(|s| s.name().to_owned())
            .collect();
        assert_eq!(rec, vec!["a0", "b0"]);
    }

    #[test]
    fn expanded_protocol_is_live_and_safe() {
        let sys = protocol_cip()
            .unwrap()
            .expand(HandshakeProtocol::FourPhase)
            .unwrap();
        let composed = sys
            .compose_all()
            .unwrap()
            .remove_dead(&Budget::default())
            .complete()
            .unwrap();
        let rg = composed
            .net()
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        let an = composed.net().analysis(&rg);
        assert!(an.safe, "expanded CIP protocol must be safe");
        assert!(
            an.deadlock_free,
            "expanded CIP protocol must be deadlock-free"
        );
        assert!(an.dead_transitions().is_empty());
        // Only the translator's one-shot initial `start` transmission
        // (ε fork, two wire rises, ack+, two falls, ack−) is transient.
        assert_eq!(an.non_live_transitions().len(), 7);
    }

    #[test]
    fn expanded_protocol_is_receptive() {
        let sys = protocol_cip()
            .unwrap()
            .expand(HandshakeProtocol::FourPhase)
            .unwrap();
        let verdicts = sys.verify_receptiveness(&Budget::default()).unwrap();
        for (name, verdict) in &verdicts {
            assert!(verdict.holds(), "module {name}: {verdict:?}");
        }
    }
}
