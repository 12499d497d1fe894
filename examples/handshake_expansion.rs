//! Section 3: abstract channels and their automatic expansion.
//!
//! The same protocol-translation system as the signal-level example, but
//! specified the way the paper recommends — with `cmd!v` / `out!v`
//! rendez-vous events. The expansion generates the 4-phase wire protocol
//! (Table 1's pair encoding) mechanically, so the Figure 8 class of
//! inconsistencies cannot be written down at all.
//!
//! Run with `cargo run --example handshake_expansion`.

use cpn::cip::protocol::{protocol_cip, CMD_VALUES, OUT_VALUES};
use cpn::cip::{ChannelSpec, CipGraph, DataEncoding, HandshakeProtocol, Module};
use cpn::petri::Budget;
use cpn::stg::StgLabel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A minimal data channel first: one bit, dual-rail.
    let mut tx = Module::new("tx");
    let p = tx.add_place("p");
    let q = tx.add_place("q");
    tx.add_send([p], "bit", Some(1), [q])?;
    tx.add_send([q], "bit", Some(0), [p])?;
    tx.set_initial(p, 1);

    let mut rx = Module::new("rx");
    let r = rx.add_place("r");
    rx.add_recv([r], "bit", [r])?;
    rx.set_initial(r, 1);

    let mut cip = CipGraph::new();
    let tx = cip.add_module(tx);
    let rx = cip.add_module(rx);
    cip.add_channel_edge(
        tx,
        rx,
        ChannelSpec::data("bit", DataEncoding::dual_rail("bit", 1)),
    )?;
    cip.validate()?;

    let sys = cip.expand(HandshakeProtocol::FourPhase)?;
    println!("dual-rail bit channel, expanded modules:");
    for (name, stg) in sys.names().iter().zip(sys.stgs()) {
        println!(
            "  {name}: {} places, {} transitions, wires: {:?}",
            stg.net().place_count(),
            stg.net().transition_count(),
            stg.signals().keys().map(|s| s.name()).collect::<Vec<_>>()
        );
    }
    let composed = sys.compose_all()?;
    let lang = composed.language(2, 100_000)?;
    println!(
        "  first trace step options: {:?}",
        lang.iter()
            .filter(|t| t.len() == 1)
            .map(|t| t[0].to_string())
            .collect::<Vec<_>>()
    );
    // Sending `1` raises the true rail, never the false rail.
    assert!(lang.contains(&[StgLabel::signal("bit0_t", cpn::stg::Edge::Rise)][..]));

    // The full Section 6 system at the CIP level.
    println!("\nprotocol-translator system as a CIP (Figure 4):");
    println!("  cmd values: {CMD_VALUES:?}");
    println!("  out values: {OUT_VALUES:?}");
    let sys = protocol_cip()?.expand(HandshakeProtocol::FourPhase)?;
    for (name, stg) in sys.names().iter().zip(sys.stgs()) {
        println!(
            "  expanded {name}: {} places, {} transitions",
            stg.net().place_count(),
            stg.net().transition_count()
        );
    }
    let budget = Budget::default();
    let composed = sys
        .compose_all()?
        .remove_dead(&budget)
        .complete()
        .ok_or("state budget exhausted")?;
    let rg = composed
        .net()
        .reachability_bounded(&budget)
        .complete()
        .ok_or("state budget exhausted")?;
    let analysis = composed.net().analysis(&rg);
    println!(
        "  composed: {} states, safe: {}, deadlock-free: {}",
        rg.state_count(),
        analysis.safe,
        analysis.deadlock_free
    );

    // Rendez-vous correctness is by construction (Section 3): every
    // module is receptive against the rest of the system.
    let verdicts = sys.verify_receptiveness(&budget)?;
    for (name, verdict) in &verdicts {
        println!("  {name}: receptive = {verdict}");
        assert!(verdict.holds());
    }
    Ok(())
}
