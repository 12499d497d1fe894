//! FIG5–FIG7 — constructing and validating the three protocol blocks
//! (sender, translator, receiver): classical STG checks (Definition 2.3)
//! and state-graph construction with consistency checking.

use cpn_petri::Budget;
use cpn_stg::protocol::{receiver, sender, translator};
use cpn_stg::StateGraph;
use cpn_testkit::bench::BenchGroup;
use std::collections::BTreeMap;

fn main() {
    let mut group = BenchGroup::new("fig5to7_protocol");
    let budget = Budget::default();

    group.bench("fig5_sender_build", sender);
    group.bench("fig6_receiver_build", receiver);
    group.bench("fig7_translator_build", translator);

    for (name, stg) in [
        ("fig5_sender", sender()),
        ("fig6_receiver", receiver()),
        ("fig7_translator", translator()),
    ] {
        group.bench(format!("{name}_classical_check"), || {
            stg.classical_report(&budget).complete().unwrap()
        });
        group.bench(format!("{name}_state_graph"), || {
            let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1_000_000))
                .complete()
                .unwrap();
            assert!(sg.is_consistent());
            sg.state_count()
        });
    }

    group.bench("full_system_compose_and_analyze", || {
        let system = sender()
            .compose(&translator())
            .unwrap()
            .compose(&receiver())
            .unwrap()
            .remove_dead(&budget)
            .complete()
            .unwrap();
        let rg = system
            .net()
            .reachability_bounded(&budget)
            .complete()
            .unwrap();
        system.net().analysis(&rg).safe
    });
    group.finish();
}
