//! The paper's Section 6 design example end to end: the I²C-style
//! protocol-translation system (sender / translator / receiver), its
//! consistency verification, and the state-graph/logic view of each
//! block.
//!
//! Run with `cargo run --example protocol_translator`.

use cpn::petri::Budget;
use cpn::stg::protocol::{receiver, sender, translator, SENDER_COMMANDS};
use cpn::stg::{derive_logic, Signal, StateGraph};
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget = Budget::default();

    println!("=== Table 1(a): sender command translation ===");
    for (cmd, wa, wb) in SENDER_COMMANDS {
        println!("  {cmd}~  ->  {wa}+ {wb}+");
    }

    // Each block on its own (Figures 5-7).
    for (name, stg) in [
        ("sender (Fig 5)", sender()),
        ("translator (Fig 7)", translator()),
        ("receiver (Fig 6)", receiver()),
    ] {
        let rep = stg
            .classical_report(&budget)
            .complete()
            .ok_or("state budget exhausted")?;
        println!(
            "\n{name}: {} places, {} transitions | strongly-connected: {}, live: {}, safe: {}",
            stg.net().place_count(),
            stg.net().transition_count(),
            rep.strongly_connected,
            rep.live,
            rep.safe,
        );
    }

    // Consistent state assignment + logic for the receiver (smallest).
    let rx = receiver();
    let sg = StateGraph::build_bounded(&rx, &BTreeMap::new(), &Budget::states(1_000_000))
        .complete()
        .ok_or("state budget exhausted")?;
    println!(
        "\nreceiver state graph: {} states, consistent: {}",
        sg.state_count(),
        sg.is_consistent()
    );
    match derive_logic(&rx, &sg) {
        Ok(fns) => {
            println!("receiver next-state functions:");
            for f in &fns {
                println!(
                    "  {} : {} cubes, {} literals",
                    f.signal,
                    f.cover.len(),
                    f.literal_cost()
                );
            }
        }
        Err(e) => println!("receiver logic blocked: {e} (CSC refinement needed)"),
    }

    // The composed system (Figure 4): the Section 6 claim is that the
    // consistent blocks cooperate correctly.
    let system = sender()
        .compose(&translator())?
        .compose(&receiver())?
        .remove_dead(&budget)
        .complete()
        .ok_or("state budget exhausted")?;
    let rg = system
        .net()
        .reachability_bounded(&budget)
        .complete()
        .ok_or("state budget exhausted")?;
    let analysis = system.net().analysis(&rg);
    println!(
        "\ncomposed system: {} places, {} transitions, {} states | safe: {}, deadlock-free: {}",
        system.net().place_count(),
        system.net().transition_count(),
        rg.state_count(),
        analysis.safe,
        analysis.deadlock_free,
    );

    // Pairwise consistency (receptiveness) of the composition.
    let verdict = sender().check_receptiveness(&translator(), &budget)?;
    println!("sender ↔ translator receptive: {verdict}");
    let verdict = translator().check_receptiveness(&receiver(), &budget)?;
    println!("translator ↔ receiver receptive: {verdict}");

    // Persist the models in the .cpn interchange format.
    let text = [
        cpn::format::write_stg("sender", &sender()),
        cpn::format::write_stg("translator", &translator()),
        cpn::format::write_stg("receiver", &receiver()),
    ]
    .join("\n");
    let reparsed = cpn::format::parse(&text)?;
    println!(
        "\nserialized round-trip: {} STGs, {} total lines of .cpn",
        reparsed.stgs.len(),
        text.lines().count()
    );
    let _ = Signal::new("demo");
    Ok(())
}
