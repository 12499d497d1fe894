//! FIG9 — compositional synthesis (Section 5.2): deriving the
//! simplified translator and receiver from the restricted sender, and
//! the trace-containment (Theorem 5.1) certification.

use cpn_petri::Budget;
use cpn_stg::protocol::{receiver, sender_restricted, translator};
use cpn_testkit::bench::BenchGroup;

fn main() {
    let mut group = BenchGroup::new("fig9_reduction");
    let budget = Budget::default();

    let tr = translator();
    let env = sender_restricted();
    group.bench("reduce_translator", || {
        tr.reduce_against(&env, &budget, 10_000)
            .unwrap()
            .complete()
            .unwrap()
    });

    let tr_red = tr
        .reduce_against(&env, &budget, 10_000)
        .unwrap()
        .complete()
        .unwrap();
    let rx = receiver();
    group.bench("prune_receiver", || {
        rx.prune_against(&tr_red, &budget)
            .unwrap()
            .complete()
            .unwrap()
    });

    group.bench("thm_5_1_containment_depth5", || {
        let reduced_lang = tr_red.language(5, 2_000_000).unwrap();
        let orig = tr.language(7, 2_000_000).unwrap();
        assert!(reduced_lang.subset_up_to(&orig.project(&tr_red.net().alphabet()), 5));
    });
    group.finish();
}
