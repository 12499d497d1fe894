//! Structural analysis without state spaces: the "polynomial on the
//! net" toolbox Section 5.1 of the paper appeals to.
//!
//! * marked graphs — liveness via token-free cycles, per-place bounds
//!   via minimum cycle token counts;
//! * free-choice nets — Commoner's siphon/trap liveness condition;
//! * any net — P-semiflow boundedness certificates and Karp–Miller
//!   coverability.
//!
//! Run with `cargo run --example structural_analysis`.

use cpn::petri::invariant::covered_by_p_semiflows;
use cpn::petri::{
    commoner_live, mg_live_structural, mg_place_bounds, minimal_siphons, token_free_cycle, Budget,
    CoverabilityTree, PetriNet,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A marked graph: fork/join with a feedback buffer of depth 2.
    let mut mg: PetriNet<&str> = PetriNet::new();
    let start = mg.add_place("start");
    let a = mg.add_place("a");
    let b = mg.add_place("b");
    let fb = mg.add_place("feedback");
    mg.add_transition([start], "fork", [a, b])?;
    mg.add_transition([a, b, fb], "join", [start, fb])?;
    mg.set_initial(start, 1);
    mg.set_initial(fb, 2);

    println!("marked graph:");
    println!("  live (no token-free cycle): {}", mg_live_structural(&mg)?);
    let bounds = mg_place_bounds(&mg)?;
    for (p, bound) in mg.place_ids().zip(&bounds) {
        println!("  bound of {:<9}: {:?}", mg.place(p).name(), bound);
    }
    // Compare with the exact analysis.
    let rg = mg
        .reachability_bounded(&Budget::default())
        .complete()
        .ok_or("state budget exhausted")?;
    println!(
        "  exact bound from reachability: {}",
        mg.analysis(&rg).bound
    );

    // 2. A free-choice net with a draining branch: Commoner catches it.
    let mut fc: PetriNet<&str> = PetriNet::new();
    let p = fc.add_place("p");
    let q = fc.add_place("q");
    let sink = fc.add_place("sink");
    fc.add_transition([p], "leak", [sink])?;
    fc.add_transition([p], "loop", [q])?;
    fc.add_transition([q], "back", [p])?;
    fc.add_transition([sink], "spin", [sink])?;
    fc.set_initial(p, 1);
    println!("\nfree-choice net with a draining branch:");
    let budget = Budget::states(100_000);
    println!("  commoner live: {}", commoner_live(&fc, &budget)?.holds());
    let siphons = minimal_siphons(&fc, &budget)
        .complete()
        .ok_or("state budget exhausted")?;
    println!("  minimal siphons: {}", siphons.len());

    // 3. Boundedness certificates on an unbounded producer.
    let mut pump: PetriNet<&str> = PetriNet::new();
    let ctl = pump.add_place("ctl");
    let out = pump.add_place("out");
    pump.add_transition([ctl], "pump", [ctl, out])?;
    pump.set_initial(ctl, 1);
    println!("\nproducer net:");
    println!(
        "  covered by P-semiflows: {:?}",
        covered_by_p_semiflows(&pump, 10_000)
    );
    let tree = CoverabilityTree::build_bounded(&pump, &Budget::states(10_000)).into_value();
    println!("  Karp–Miller: {:?}", tree.outcome());

    // 4. An unmarked cycle: the liveness witness is concrete.
    let mut dead_ring: PetriNet<&str> = PetriNet::new();
    let r1 = dead_ring.add_place("r1");
    let r2 = dead_ring.add_place("r2");
    dead_ring.add_transition([r1], "x", [r2])?;
    dead_ring.add_transition([r2], "y", [r1])?;
    println!("\nunmarked ring:");
    if let Some(cycle) = token_free_cycle(&dead_ring)? {
        let names: Vec<&str> = cycle.iter().map(|&p| dead_ring.place(p).name()).collect();
        println!("  token-free cycle through: {names:?} -> not live");
    }
    Ok(())
}
