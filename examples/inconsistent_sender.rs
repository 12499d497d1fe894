//! Figure 8: detecting an inconsistent specification.
//!
//! The broken sender raises and lowers its command wires without waiting
//! for the translator's acknowledge. Each block is perfectly fine in
//! isolation — the inconsistency only shows in the *composition*, which
//! is the paper's core motivation. Three detectors agree:
//!
//! 1. the exhaustive receptiveness check (Prop 5.5/5.6);
//! 2. the dynamic monitor (random token game);
//! 3. and for marked-graph compositions, the polynomial structural check
//!    of Theorem 5.7 (demonstrated here on a handshake fragment).
//!
//! Run with `cargo run --example inconsistent_sender`.

use cpn::core::{check_receptiveness_structural_mg, parallel_tracked_common};
use cpn::petri::{Budget, PetriNet};
use cpn::sim::monitor_composition;
use cpn::stg::protocol::{sender, sender_inconsistent, translator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget = Budget::default();
    let tr = translator();

    // Both senders are well-formed on their own.
    for (name, s) in [
        ("consistent", sender()),
        ("inconsistent", sender_inconsistent()),
    ] {
        let rep = s
            .classical_report(&budget)
            .complete()
            .ok_or("state budget exhausted")?;
        println!(
            "{name} sender alone: live={}, safe={} (no local red flags)",
            rep.live, rep.safe
        );
    }

    // 1. Static, exhaustive (Prop 5.5).
    let good = sender().check_receptiveness(&tr, &budget)?;
    let bad = sender_inconsistent().check_receptiveness(&tr, &budget)?;
    println!("\nexhaustive check:");
    println!("  consistent sender ‖ translator  : receptive = {good}");
    println!("  inconsistent sender ‖ translator: receptive = {bad}");
    for f in bad
        .witness()
        .map_or(&[][..], |r| &r.failures)
        .iter()
        .take(4)
    {
        println!(
            "    failure: {} produced by the {} side",
            f.label, f.producer
        );
    }

    // 2. Dynamic monitoring (random walk).
    let s = sender_inconsistent();
    let obs = monitor_composition(
        s.net(),
        tr.net(),
        &s.output_labels(),
        &tr.output_labels(),
        2024,
        100_000,
    );
    match obs {
        Some(f) => println!(
            "\ndynamic monitor: failure on {} after {} random steps",
            f.label, f.steps
        ),
        None => println!("\ndynamic monitor: no failure observed (unlucky walk)"),
    }

    // 3. Structural marked-graph check (Thm 5.7) on a handshake fragment:
    // a producer that can emit `req` twice against a strict alternator.
    let mut fast: PetriNet<&str> = PetriNet::new();
    let f0 = fast.add_place("f0");
    let f1 = fast.add_place("f1");
    fast.add_transition([f0], "req", [f1])?;
    fast.add_transition([f1], "ack", [f0])?;
    fast.set_initial(f0, 1);
    let mut slow = fast.clone();
    // Phase-shift the peer: it expects `ack` first.
    slow.set_initial(cpn::petri::PlaceId::from_index(0), 0);
    slow.set_initial(cpn::petri::PlaceId::from_index(1), 1);

    let comp = parallel_tracked_common(&fast, &slow)?;
    let verdict =
        check_receptiveness_structural_mg(&comp, &["req"].into(), &["ack"].into(), &budget)?;
    println!(
        "\nstructural (Thm 5.7) on the phase-shifted handshake: receptive = {verdict} \
         (no state space was built)"
    );
    Ok(())
}
