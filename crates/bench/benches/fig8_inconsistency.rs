//! FIG8 — detecting the inconsistent sender (Propositions 5.5/5.6):
//! exhaustive receptiveness checking on the consistent vs. inconsistent
//! composition, and the dynamic monitor's detection cost.

use cpn_petri::Budget;
use cpn_sim::monitor_composition;
use cpn_stg::protocol::{sender, sender_inconsistent, translator};
use cpn_testkit::bench::BenchGroup;

fn main() {
    let mut group = BenchGroup::new("fig8_inconsistency");
    let budget = Budget::default();
    let tr = translator();

    let good = sender();
    group.bench("exhaustive_consistent", || {
        let verdict = good.check_receptiveness(&tr, &budget).unwrap();
        assert!(verdict.holds());
    });

    let bad = sender_inconsistent();
    group.bench("exhaustive_inconsistent", || {
        let verdict = bad.check_receptiveness(&tr, &budget).unwrap();
        assert!(verdict.fails());
    });

    let mut seed = 0u64;
    group.bench("dynamic_monitor_inconsistent", || {
        seed += 1;
        monitor_composition(
            bad.net(),
            tr.net(),
            &bad.output_labels(),
            &tr.output_labels(),
            seed,
            100_000,
        )
    });
    group.finish();
}
