//! The arbiter: why the algebra must handle **general** Petri nets.
//!
//! Section 5.1 of the paper: marked graphs and free-choice nets make
//! many checks polynomial, "but important systems like arbiters cannot
//! be modeled in these subclasses". This example builds a two-user
//! mutual-exclusion arbiter (a genuine non-free-choice conflict),
//! composes it with two clients, and certifies mutual exclusion both
//! behaviourally (reachability) and structurally (a P-semiflow).
//!
//! Run with `cargo run --example arbiter`.

use cpn::petri::{semiflows_p, Budget};
use cpn::stg::arbiter::{arbiter, client, critical_section_places};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget = Budget::default();
    let a = arbiter();

    let rep = a.net().structural();
    println!(
        "arbiter: {} places, {} transitions — net class: {}",
        a.net().place_count(),
        a.net().transition_count(),
        rep.class
    );
    println!(
        "free-choice: {}, marked graph: {} (the paper's point: neither)",
        rep.is_free_choice, rep.is_marked_graph
    );

    let classical = a
        .classical_report(&budget)
        .complete()
        .ok_or("state budget exhausted")?;
    println!(
        "strongly-connected: {}, live: {}, safe: {}",
        classical.strongly_connected, classical.live, classical.safe
    );

    // Structural certificate: the critical-section invariant is a
    // P-semiflow — found without building any state space.
    let cs = critical_section_places(&a);
    let flows = semiflows_p(a.net(), 100_000).expect("semiflow budget");
    let invariant = flows.iter().find(|f| {
        let support = f.support();
        cs.iter().all(|p| support.contains(&p.index())) && support.len() == cs.len()
    });
    match invariant {
        Some(f) => {
            let names: Vec<&str> = f
                .support()
                .iter()
                .map(|&i| a.net().place(cpn::petri::PlaceId::from_index(i)).name())
                .collect();
            println!("mutual-exclusion semiflow: {} = 1", names.join(" + "));
        }
        None => println!("(semiflow not found — unexpected)"),
    }

    // Behavioural certificate on the full system with two clients.
    let env = client(1).compose(&client(2))?;
    let receptive = a.check_receptiveness(&env, &budget)?;
    println!("arbiter ↔ clients receptive: {receptive}");

    let system = a.compose(&env)?;
    let rg = system
        .net()
        .reachability_bounded(&budget)
        .complete()
        .ok_or("state budget exhausted")?;
    let granted: Vec<_> = system
        .net()
        .places()
        .filter(|(_, p)| p.name().contains("granted") || p.name().contains("done"))
        .map(|(id, _)| id)
        .collect();
    let violations = rg
        .state_ids()
        .filter(|&s| {
            granted
                .iter()
                .map(|&p| rg.marking(s).tokens(p))
                .sum::<u32>()
                > 1
        })
        .count();
    println!(
        "system: {} states, mutual-exclusion violations: {violations}",
        rg.state_count()
    );
    Ok(())
}
