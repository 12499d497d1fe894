//! Figure 9: deriving simplified blocks by compositional synthesis.
//!
//! If the sender never issues `rec` (Figure 9a), the translator does not
//! need its `rec`/DATA/STROBE machinery, and the receiver never sees a
//! `mute` command. Instead of re-specifying the blocks by hand, the
//! paper derives them: compose with the known environment, remove the
//! dead cross-product transitions, project back onto the block's own
//! signals (`N̄_tr = project(N_send ‖ N_tr, A_tr)`), and clean up.
//!
//! Run with `cargo run --example compositional_synthesis`.

use cpn::petri::Budget;
use cpn::stg::protocol::{receiver, sender_restricted, translator};
use cpn::stg::Signal;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget = Budget::default();

    let tr = translator();
    println!(
        "translator (Fig 7): {} places, {} transitions, signals: {}",
        tr.net().place_count(),
        tr.net().transition_count(),
        tr.signals().len()
    );

    // Figure 9(b): reduce against the restricted sender.
    let tr_reduced = tr
        .reduce_against(&sender_restricted(), &budget, 10_000)?
        .complete()
        .ok_or("state budget exhausted")?;
    println!(
        "simplified translator (Fig 9b): {} places, {} transitions, signals: {}",
        tr_reduced.net().place_count(),
        tr_reduced.net().transition_count(),
        tr_reduced.signals().len()
    );
    assert!(!tr_reduced.signals().contains_key(&Signal::new("DATA")));
    assert!(!tr_reduced.signals().contains_key(&Signal::new("STROBE")));
    println!("  -> the DATA/STROBE sampling is gone, as the paper derives");

    // Theorem 5.1: the reduced behaviour is contained in the original's.
    let reduced_lang = tr_reduced.language(5, 1_000_000)?;
    let orig_lang = tr.language(7, 1_000_000)?;
    let contained = reduced_lang.subset_up_to(&orig_lang.project(&tr_reduced.net().alphabet()), 5);
    println!("  -> trace containment (Thm 5.1) up to depth 5: {contained}");

    // Figure 9(c): the receiver against the reduced translator. The
    // translator's internals form hidden cycles outside the contraction
    // class, so the derivation prunes dead transitions in place.
    let rx = receiver();
    let rx_reduced = rx
        .prune_against(&tr_reduced, &budget)?
        .complete()
        .ok_or("state budget exhausted")?;
    println!(
        "\nreceiver (Fig 6): {} transitions; simplified receiver (Fig 9c): {} transitions",
        rx.net().transition_count(),
        rx_reduced.net().transition_count()
    );
    assert!(!rx_reduced.signals().contains_key(&Signal::new("mute")));
    println!("  -> the mute~ branch is gone: the reduced translator never sends it");

    // What synthesis gains: compare the state graphs.
    let sg_full = rx
        .net()
        .reachability_bounded(&budget)
        .complete()
        .ok_or("state budget exhausted")?;
    let sg_red = rx_reduced
        .net()
        .reachability_bounded(&budget)
        .complete()
        .ok_or("state budget exhausted")?;
    println!(
        "\nstate-space: receiver {} states -> simplified {} states",
        sg_full.state_count(),
        sg_red.state_count()
    );
    Ok(())
}
