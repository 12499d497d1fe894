//! Quickstart: build two small interface processes, compose them with
//! rendez-vous synchronization, hide the internal channel by net
//! contraction, and inspect the result — the whole Section 4 algebra in
//! thirty lines.
//!
//! Run with `cargo run --example quickstart`.

use cpn::core::{choice, hide_label, parallel, prefix};
use cpn::petri::{Budget, PetriNet};
use cpn::trace::Language;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A producer that works, then offers a rendez-vous on `sync`.
    let mut producer: PetriNet<&str> = PetriNet::new();
    let a = producer.add_place("ready");
    let b = producer.add_place("done");
    producer.add_transition([a], "work", [b])?;
    producer.add_transition([b], "sync", [a])?;
    producer.set_initial(a, 1);

    // A consumer that accepts the rendez-vous, then reports.
    let mut consumer: PetriNet<&str> = PetriNet::new();
    let c = consumer.add_place("idle");
    let d = consumer.add_place("got");
    consumer.add_transition([c], "sync", [d])?;
    consumer.add_transition([d], "report", [c])?;
    consumer.set_initial(c, 1);

    // Parallel composition fuses the `sync` transitions (Def 4.7).
    let composed = parallel(&producer, &consumer)?;
    println!("composed system:\n{composed}\n");

    // Hiding contracts the internal action away (Def 4.10) — no
    // relabeling to ε, the transition is gone.
    let system = hide_label(&composed, &"sync", 1_000)?;
    println!("after hiding `sync`:\n{system}\n");

    let lang = Language::from_net(&system, 4, 100_000)?;
    println!("traces up to depth 4:\n{lang}");
    assert!(lang.contains(&["work", "report", "work", "report"][..]));

    // The other operators: prefix and choice (Defs 4.3, 4.6).
    let init = prefix("boot", &system)?;
    let fallback = prefix("safe_mode", &cpn::core::nil())?;
    let either = choice(&init, &fallback)?;
    let lang = Language::from_net(&either, 3, 100_000)?;
    assert!(lang.contains(&["boot", "work", "report"][..]));
    assert!(lang.contains(&["safe_mode"][..]));
    println!(
        "\nwith boot/safe_mode choice: {} traces at depth 3",
        lang.len()
    );

    // Reachability analysis on the hidden system.
    let rg = system
        .reachability_bounded(&Budget::default())
        .complete()
        .ok_or("state budget exhausted")?;
    let analysis = system.analysis(&rg);
    println!(
        "\nreachable states: {}, safe: {}, live: {}",
        rg.state_count(),
        analysis.safe,
        analysis.live
    );
    Ok(())
}
