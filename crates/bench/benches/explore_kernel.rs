//! Exploration-kernel sweep: the interpreted reference explorer
//! (`cpn_testkit::oracle`) vs the compiled packed-row explorer, on the
//! three workload families whose
//! composed state spaces stress the kernel differently:
//!
//! * `sync_pipeline(k)` — linear net, exactly `2^k` composed states
//!   (throughput / memory stress);
//! * `handshake_ring(s)` — linear net, linear state count with long
//!   BFS levels of width ~1 (per-level overhead stress);
//! * `sync_mesh(3,3,t)` — token-shift torus with `C(t+8, 8)` states on
//!   nine places (frontier-width stress; the 10^7-state acceptance
//!   family at `t = 24` under `CPN_BENCH_FULL=1` stays at `t = 8`
//!   here to keep the harness's repeated timing loops bounded).
//!
//! Every timed closure re-asserts that both kernels report the same
//! state count, so the sweep doubles as a smoke check of the
//! bit-identity contract.

use cpn_core::parallel;
use cpn_petri::{Bounded, Budget, PetriNet};
use cpn_testkit::bench::BenchGroup;

fn compose_all(nets: &[PetriNet<String>]) -> PetriNet<String> {
    let mut acc = nets[0].clone();
    for n in &nets[1..] {
        acc = parallel(&acc, n).unwrap();
    }
    acc
}

fn states_of(b: &Bounded<cpn_petri::ReachabilityGraph>) -> usize {
    match b {
        Bounded::Complete(rg) => rg.state_count(),
        Bounded::Exhausted { partial, .. } => partial.state_count(),
    }
}

fn sweep(group: &mut BenchGroup, family: &str, net: &PetriNet<String>, expect_states: usize) {
    let budget = Budget::states(expect_states + 1);
    group.bench(format!("{family}/legacy"), || {
        let rg = cpn_testkit::oracle::reachability(net, &budget);
        assert_eq!(rg.markings.len(), expect_states);
    });
    group.bench(format!("{family}/compiled"), || {
        let rg = net.reachability_bounded(&budget);
        assert_eq!(states_of(&rg), expect_states);
    });
}

fn main() {
    let full = std::env::var("CPN_BENCH_FULL").is_ok_and(|v| v == "1");
    let mut group = BenchGroup::new("explore_kernel");
    // Quick mode keeps the sweep in CI-friendly territory (~4k states);
    // full mode reaches the 2^17-state acceptance point and beyond.
    let pipeline_ks: &[usize] = if full { &[12, 17, 20] } else { &[8, 12] };
    for &k in pipeline_ks {
        let net = compose_all(&cpn_bench::sync_pipeline(k));
        sweep(&mut group, &format!("sync_pipeline/{k}"), &net, 1 << k);
    }
    let ring_stages: &[usize] = if full { &[64, 512] } else { &[16, 64] };
    for &s in ring_stages {
        let (p, c, _, _) = cpn_bench::handshake_ring(s, 0);
        let net = parallel(&p, &c).unwrap();
        let expect = states_of(&net.reachability_bounded(&Budget::states(1 << 22)));
        sweep(&mut group, &format!("handshake_ring/{s}"), &net, expect);
    }
    let mesh_tokens: u32 = if full { 8 } else { 4 };
    let mesh_states = cpn_testkit::sync_mesh_states(3, 3, mesh_tokens) as usize;
    let mesh = cpn_testkit::sync_mesh(3, 3, mesh_tokens);
    sweep(
        &mut group,
        &format!("sync_mesh/3x3t{mesh_tokens}"),
        &mesh,
        mesh_states,
    );
    group.finish();
}
