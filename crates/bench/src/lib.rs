//! Shared workload builders for the benchmark harness and the
//! `experiments` binary.
//!
//! Every figure/table of the paper is regenerated from these builders;
//! the scaling sweeps (`cycle_net`, `handshake_ring`, `tau_chain`,
//! `sync_pipeline`) extend the constructions to parametric families so
//! the in-tree `BenchGroup` harness (`cpn_testkit::bench`) can expose
//! the complexity claims (net-level algebra vs state-space products,
//! structural vs exhaustive receptiveness, interpreted vs compiled
//! exploration).

use cpn_petri::{PetriNet, PlaceId};
use std::collections::BTreeSet;

/// A simple labeled cycle `(l0 . l1 . … . l{k-1})*` with one token.
pub fn cycle_net(labels: &[&'static str]) -> PetriNet<&'static str> {
    assert!(!labels.is_empty());
    let mut net = PetriNet::new();
    let ps: Vec<PlaceId> = (0..labels.len())
        .map(|i| net.add_place(format!("p{i}")))
        .collect();
    for (i, l) in labels.iter().enumerate() {
        net.add_transition([ps[i]], *l, [ps[(i + 1) % ps.len()]])
            .expect("cycle transition");
    }
    net.set_initial(ps[0], 1);
    net
}

/// The paper's Figure 2 left operand `((a+b).c)*`.
pub fn fig2_left() -> PetriNet<&'static str> {
    let mut net = PetriNet::new();
    let p = net.add_place("p");
    let q = net.add_place("q");
    net.add_transition([p], "a", [q]).expect("fig2");
    net.add_transition([p], "b", [q]).expect("fig2");
    net.add_transition([q], "c", [p]).expect("fig2");
    net.set_initial(p, 1);
    net
}

/// The paper's Figure 2 right operand `(a.d.a.e)*`.
pub fn fig2_right() -> PetriNet<&'static str> {
    cycle_net(&["a", "d", "a", "e"])
}

/// A marked-graph chain `start → τ → τ → … → end` of `taus` hidden
/// transitions between two observable ones (the Figure 3(c) collapse
/// case, scaled).
pub fn tau_chain(taus: usize) -> PetriNet<String> {
    let mut net: PetriNet<String> = PetriNet::new();
    let mut prev = net.add_place("p0");
    net.set_initial(prev, 1);
    let mid = net.add_place("p1");
    net.add_transition([prev], "start".to_owned(), [mid])
        .expect("chain");
    prev = mid;
    for i in 0..taus {
        let next = net.add_place(format!("q{i}"));
        net.add_transition([prev], "tau".to_owned(), [next])
            .expect("chain");
        prev = next;
    }
    let last = net.add_place("pl");
    net.add_transition([prev], "end".to_owned(), [last])
        .expect("chain");
    net.add_transition([last], "loop".to_owned(), [PlaceId::from_index(0)])
        .expect("chain");
    net
}

/// A producer/consumer pair of handshake rings with `stages`
/// request/acknowledge stages; `offset` phase-shifts the consumer
/// (offset 0 ⇒ receptive, otherwise broken).
pub fn handshake_ring(
    stages: usize,
    offset: usize,
) -> (
    PetriNet<String>,
    PetriNet<String>,
    BTreeSet<String>,
    BTreeSet<String>,
) {
    let build = |prefix: &str, start: usize| {
        let mut net: PetriNet<String> = PetriNet::new();
        let ps: Vec<PlaceId> = (0..2 * stages)
            .map(|i| net.add_place(format!("{prefix}{i}")))
            .collect();
        for i in 0..2 * stages {
            let label = if i % 2 == 0 {
                format!("req{}", i / 2)
            } else {
                format!("ack{}", i / 2)
            };
            net.add_transition([ps[i]], label, [ps[(i + 1) % (2 * stages)]])
                .expect("ring transition");
        }
        net.set_initial(ps[start % (2 * stages)], 1);
        net
    };
    let producer = build("a", 0);
    let consumer = build("b", offset);
    let louts = (0..stages).map(|i| format!("req{i}")).collect();
    let routs = (0..stages).map(|i| format!("ack{i}")).collect();
    (producer, consumer, louts, routs)
}

/// A *wide* handshake pair: the producer forks into `width` concurrent
/// request/acknowledge loops per round; the consumer mirrors it. Both
/// sides and their composition are marked graphs, the composed state
/// space is exponential in `width` while the nets grow linearly — the
/// workload that separates the structural receptiveness check
/// (Theorem 5.7) from the exhaustive one.
pub fn wide_handshake(
    width: usize,
    swapped_lane: Option<usize>,
) -> (
    PetriNet<String>,
    PetriNet<String>,
    BTreeSet<String>,
    BTreeSet<String>,
) {
    // `fork`/`join` are shared so both sides enter a round together;
    // a swapped lane on the consumer expects ack before req — the
    // producer then offers a req the consumer cannot take.
    let build = |prefix: &str, swapped: Option<usize>| {
        let mut net: PetriNet<String> = PetriNet::new();
        let s0 = net.add_place(format!("{prefix}.s0"));
        net.set_initial(s0, 1);
        let mut waits = Vec::new();
        let mut dones = Vec::new();
        for i in 0..width {
            let w = net.add_place(format!("{prefix}.w{i}"));
            let h = net.add_place(format!("{prefix}.h{i}"));
            let d = net.add_place(format!("{prefix}.d{i}"));
            let (first, second) = if swapped == Some(i) {
                (format!("ack{i}"), format!("req{i}"))
            } else {
                (format!("req{i}"), format!("ack{i}"))
            };
            net.add_transition([w], first, [h]).expect("stage");
            net.add_transition([h], second, [d]).expect("stage");
            waits.push(w);
            dones.push(d);
        }
        net.add_transition([s0], "fork".to_owned(), waits.clone())
            .expect("fork");
        net.add_transition(dones.clone(), "join".to_owned(), [s0])
            .expect("join");
        net
    };
    let producer = build("a", None);
    let consumer = build("b", swapped_lane);
    let louts = (0..width).map(|i| format!("req{i}")).collect();
    let routs = (0..width).map(|i| format!("ack{i}")).collect();
    (producer, consumer, louts, routs)
}

/// A marked-graph **ring** of `segments` segments, each one observable
/// transition `a{s}` followed by `taus` hidden transitions
/// `h{s}_{j}` — the Figure 3(c) collapse case closed into a cycle, with
/// per-transition-unique hidden labels so the hide-*set* size grows
/// with the ring (`segments * taus` labels). One token circulates; one
/// observable per segment keeps every hidden path divergence-free.
///
/// Returns the net together with the hide set, the input for the
/// `hide_contract` contraction sweep.
pub fn tau_ring(segments: usize, taus: usize) -> (PetriNet<String>, BTreeSet<String>) {
    assert!(segments > 0);
    let mut net: PetriNet<String> = PetriNet::new();
    let total = segments * (taus + 1);
    let ps: Vec<PlaceId> = (0..total).map(|i| net.add_place(format!("p{i}"))).collect();
    let mut hidden = BTreeSet::new();
    for s in 0..segments {
        let base = s * (taus + 1);
        net.add_transition([ps[base]], format!("a{s}"), [ps[(base + 1) % total]])
            .expect("ring observable");
        for j in 0..taus {
            let label = format!("h{s}_{j}");
            net.add_transition(
                [ps[(base + 1 + j) % total]],
                label.clone(),
                [ps[(base + 2 + j) % total]],
            )
            .expect("ring hidden");
            hidden.insert(label);
        }
    }
    net.set_initial(ps[0], 1);
    (net, hidden)
}

/// `k` independent two-phase cycles synchronized pairwise on shared
/// labels — a pipeline whose composed state space is exponential in `k`
/// while the composed *net* is linear (the "no unfolding" claim).
pub fn sync_pipeline(k: usize) -> Vec<PetriNet<String>> {
    (0..k)
        .map(|i| {
            let mut net: PetriNet<String> = PetriNet::new();
            let p = net.add_place(format!("s{i}.p"));
            let q = net.add_place(format!("s{i}.q"));
            net.add_transition([p], format!("x{i}"), [q])
                .expect("stage");
            net.add_transition([q], format!("x{}", i + 1), [p])
                .expect("stage");
            net.set_initial(p, 1);
            net
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpn_core::{
        check_receptiveness, check_receptiveness_structural_mg, parallel, parallel_tracked_common,
    };
    use cpn_petri::Budget;

    #[test]
    fn cycle_net_loops() {
        let net = cycle_net(&["a", "b", "c"]);
        assert_eq!(net.transition_count(), 3);
        let rg = net
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        assert_eq!(rg.state_count(), 3);
        assert!(net.analysis(&rg).live);
    }

    #[test]
    fn tau_chain_hides_away() {
        let net = tau_chain(4);
        let hidden = cpn_core::hide_label(&net, &"tau".to_owned(), 1000).unwrap();
        assert!(hidden
            .transitions_with_label(&"tau".to_owned())
            .next()
            .is_none());
    }

    #[test]
    fn handshake_ring_receptive_iff_aligned() {
        let budget = Budget::default();
        let (p, c, lo, ro) = handshake_ring(2, 0);
        let comp = parallel_tracked_common(&p, &c).unwrap();
        assert!(check_receptiveness(&comp, &lo, &ro, &budget).holds());
        let (p, c, lo, ro) = handshake_ring(2, 1);
        let comp = parallel_tracked_common(&p, &c).unwrap();
        assert!(check_receptiveness(&comp, &lo, &ro, &budget).fails());
    }

    #[test]
    fn wide_handshake_is_marked_graph_and_detects_offset() {
        let (p, c, lo, ro) = wide_handshake(3, None);
        let composed = parallel(&p, &c).unwrap();
        assert!(composed.structural().is_marked_graph);
        let budget = Budget::default();
        let comp = parallel_tracked_common(&p, &c).unwrap();
        assert!(check_receptiveness(&comp, &lo, &ro, &budget).holds());
        let st = check_receptiveness_structural_mg(&comp, &lo, &ro, &budget).unwrap();
        assert!(st.holds());

        let (p, c, lo, ro) = wide_handshake(3, Some(1));
        let comp = parallel_tracked_common(&p, &c).unwrap();
        let ex = check_receptiveness(&comp, &lo, &ro, &budget);
        let st = check_receptiveness_structural_mg(&comp, &lo, &ro, &budget).unwrap();
        assert!(ex.fails());
        assert!(st.fails());
    }

    #[test]
    fn tau_ring_hides_cleanly_both_engines() {
        let (net, hidden) = tau_ring(3, 2);
        assert_eq!(hidden.len(), 6);
        let budget = cpn_petri::Budget::new(usize::MAX, 10_000);
        let v2 = cpn_core::hide_labels_bounded(&net, &hidden, &budget).unwrap();
        let legacy = cpn_testkit::oracle::hide_labels(&net, &hidden, &budget).unwrap();
        assert_eq!(v2, legacy);
        let done = v2.into_value();
        for l in &hidden {
            assert!(done.transitions_with_label(l).next().is_none());
        }
    }

    #[test]
    fn cip_chain_workload_hides_cleanly_both_engines() {
        let (net, hidden) = cpn_testkit::cip_chain(4);
        assert!(!hidden.is_empty());
        let budget = cpn_petri::Budget::new(usize::MAX, 100_000);
        let v2 = cpn_core::hide_labels_bounded(&net, &hidden, &budget).unwrap();
        let legacy = cpn_testkit::oracle::hide_labels(&net, &hidden, &budget).unwrap();
        assert_eq!(v2, legacy);
        assert!(v2.is_complete());
    }

    #[test]
    fn sync_pipeline_composes_linearly() {
        let stages = sync_pipeline(4);
        let mut acc = stages[0].clone();
        for s in &stages[1..] {
            acc = parallel(&acc, s).unwrap();
        }
        // Linear net growth: 2 places per stage.
        assert_eq!(acc.place_count(), 8);
        assert!(acc.transition_count() <= 8);
    }
}
