//! ABL2 — Theorem 5.7: "for strongly-connected live-safe marked graphs,
//! the check for receptiveness … can be done structurally on the net in
//! polynomial time and space."
//!
//! Handshake rings of growing size: the structural check (difference
//! constraints + Bellman–Ford, no state space) vs the exhaustive
//! reachability-graph check, two calls on one composition.

use cpn_bench::wide_handshake;
use cpn_core::{check_receptiveness, check_receptiveness_structural_mg, parallel_tracked_common};
use cpn_petri::Budget;
use cpn_testkit::bench::BenchGroup;

fn main() {
    let mut group = BenchGroup::new("ablation_structural_vs_rg");
    let budget = Budget::states(8_000_000);

    // Wide (concurrent) handshakes: the composed state space grows
    // exponentially in the width, the structural check stays polynomial.
    for width in [2usize, 4, 6, 8] {
        let (p, cons, lo, ro) = wide_handshake(width, None);
        let comp = parallel_tracked_common(&p, &cons).unwrap();
        group.bench(format!("structural_mg/{width}"), || {
            let verdict = check_receptiveness_structural_mg(&comp, &lo, &ro, &budget).unwrap();
            assert!(verdict.holds());
        });
        group.bench(format!("exhaustive_rg/{width}"), || {
            let verdict = check_receptiveness(&comp, &lo, &ro, &budget);
            assert!(verdict.holds());
        });
    }
    group.finish();
}
