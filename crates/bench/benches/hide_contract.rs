//! Contraction-engine scaling sweep: the legacy rebuild-per-contraction
//! hiding path vs the in-place [`NetEditor`] engine, on the two workload
//! families whose hide sets stress the engine differently:
//!
//! * `tau_ring(segments, taus)` — marked-graph rings with
//!   `segments * taus` distinct hidden labels (many small worklists,
//!   product-place churn);
//! * `cpn_testkit::cip_chain(modules)` — 2-phase-expanded CIP pipelines
//!   with the request wires hidden (the Section 6 derivation shape).
//!
//! Every timed closure re-asserts the engines produce *equal* nets, so
//! the sweep doubles as a smoke check of the bit-identity contract.

use cpn_petri::{Budget, Label, PetriNet};
use cpn_testkit::bench::BenchGroup;
use std::collections::BTreeSet;

fn sweep<L: Label>(group: &mut BenchGroup, family: &str, net: &PetriNet<L>, hidden: &BTreeSet<L>) {
    let budget = Budget::new(usize::MAX, 1_000_000);
    let expect = cpn_core::hide_labels_bounded(net, hidden, &budget)
        .expect("workloads hide cleanly")
        .into_value();
    group.bench(format!("{family}/legacy"), || {
        let out = cpn_testkit::oracle::hide_labels(net, hidden, &budget)
            .expect("workloads hide cleanly")
            .into_value();
        assert_eq!(out, expect);
    });
    group.bench(format!("{family}/engine"), || {
        let out = cpn_core::hide_labels_bounded(net, hidden, &budget)
            .expect("workloads hide cleanly")
            .into_value();
        assert_eq!(out, expect);
    });
}

fn main() {
    let full = std::env::var("CPN_BENCH_FULL").is_ok_and(|v| v == "1");
    let mut group = BenchGroup::new("hide_contract");
    // (segments, taus): hide-set size = segments * taus.
    let rings: &[(usize, usize)] = if full {
        &[(4, 4), (8, 8), (16, 8), (16, 16)]
    } else {
        &[(4, 4), (8, 8)]
    };
    for &(segments, taus) in rings {
        let (net, hidden) = cpn_bench::tau_ring(segments, taus);
        sweep(
            &mut group,
            &format!("tau_ring/{segments}x{taus}"),
            &net,
            &hidden,
        );
    }
    let chains: &[usize] = if full { &[4, 8, 12] } else { &[4, 6] };
    for &modules in chains {
        let (net, hidden) = cpn_testkit::cip_chain(modules);
        sweep(&mut group, &format!("cip_chain/{modules}"), &net, &hidden);
    }
    group.finish();
}
