//! ABL1 — "the methods operate at the Petri net level, which avoids
//! potential state space explosion problems encountered by state based
//! techniques" (Section 1).
//!
//! `k` independent cycles: the composed **net** grows linearly in `k`,
//! its **reachability graph** grows as `2^k`. Net-level composition cost
//! vs explicit state-space construction cost makes the claim measurable.

use cpn_core::parallel;
use cpn_petri::{Budget, PetriNet};
use cpn_testkit::bench::BenchGroup;

fn independent_cycles(k: usize) -> Vec<PetriNet<String>> {
    (0..k)
        .map(|i| {
            let mut net: PetriNet<String> = PetriNet::new();
            let p = net.add_place(format!("c{i}.p"));
            let q = net.add_place(format!("c{i}.q"));
            net.add_transition([p], format!("a{i}"), [q]).unwrap();
            net.add_transition([q], format!("b{i}"), [p]).unwrap();
            net.set_initial(p, 1);
            net
        })
        .collect()
}

fn compose_all(nets: &[PetriNet<String>]) -> PetriNet<String> {
    let mut acc = nets[0].clone();
    for n in &nets[1..] {
        acc = parallel(&acc, n).unwrap();
    }
    acc
}

fn main() {
    let mut group = BenchGroup::new("ablation_net_vs_state");
    for k in [4usize, 8, 12, 16] {
        let nets = independent_cycles(k);
        group.bench(format!("net_level_compose/{k}"), || compose_all(&nets));
        let composed = compose_all(&nets);
        group.bench(format!("state_space_build/{k}"), || {
            let rg = composed
                .reachability_bounded(&Budget::states(1 << 22))
                .complete()
                .unwrap();
            assert_eq!(rg.state_count(), 1usize << k);
            rg.state_count()
        });
    }
    group.finish();
}
