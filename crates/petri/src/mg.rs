//! Structural analysis of **marked graphs**: liveness and safety without
//! building the state space.
//!
//! Classical results (Genrich/Lautenbach, Commoner):
//!
//! * a marked graph is live iff every directed cycle carries at least
//!   one token;
//! * in a live strongly-connected marked graph, the maximum token count
//!   a place ever reaches equals the **minimum token count over the
//!   cycles through it** — so safety is a shortest-path computation.
//!
//! These are the "polynomial on the net" checks the paper leans on for
//! STGs (Sections 5.1–5.3); the receptiveness Theorem 5.7 builds on the
//! same state-equation structure (see `cpn-core`).

use crate::error::PetriError;
use crate::graph::DiGraph;
use crate::label::Label;
use crate::net::{PetriNet, PlaceId};

/// A token-free directed cycle of a marked graph, as a list of places,
/// or `None` if every cycle is marked.
///
/// # Errors
///
/// [`PetriError::NotMarkedGraph`] if the net is not a marked graph.
pub fn token_free_cycle<L: Label>(net: &PetriNet<L>) -> Result<Option<Vec<PlaceId>>, PetriError> {
    let flows = net.marked_graph_flows()?;
    let m0 = net.initial_marking();
    // Graph over transitions through token-free places.
    let mut g = DiGraph::new(net.transition_count());
    let mut arc_place = std::collections::BTreeMap::new();
    for (p, &(prod, cons)) in flows.iter().enumerate() {
        if m0.as_slice()[p] == 0 {
            g.add_edge(prod.index(), cons.index());
            arc_place.insert((prod.index(), cons.index()), PlaceId::from_index(p));
        }
    }
    let Some(component) = g.find_cycle() else {
        return Ok(None);
    };
    // Recover the places along one cycle inside the component.
    let inside: std::collections::BTreeSet<usize> = component.iter().copied().collect();
    let mut cycle = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut cur = component[0];
    loop {
        if !seen.insert(cur) {
            break;
        }
        // Every node of a strongly-connected component has a successor
        // inside it; stop defensively if the invariant is ever violated.
        let Some(next) = g
            .successors(cur)
            .iter()
            .copied()
            .find(|n| inside.contains(n))
        else {
            break;
        };
        if let Some(&p) = arc_place.get(&(cur, next)) {
            cycle.push(p);
        }
        cur = next;
    }
    Ok(Some(cycle))
}

/// Structural liveness for marked graphs: live iff no token-free cycle.
///
/// Exact for strongly-connected marked graphs; on disconnected ones a
/// token-free cycle is still a definite non-liveness witness, and an
/// acyclic token-free region yields dead transitions (see
/// [`crate::dead::dead_transitions_structural_mg`]).
///
/// # Errors
///
/// [`PetriError::NotMarkedGraph`] if the net is not a marked graph.
pub fn mg_live_structural<L: Label>(net: &PetriNet<L>) -> Result<bool, PetriError> {
    Ok(token_free_cycle(net)?.is_none())
}

/// The minimum token count over the directed cycles through each place
/// of a marked graph (`None` for places on no cycle — their token count
/// is unbounded in a live net with sources, or frozen otherwise).
///
/// In a **live** marked graph this is exactly the bound each place
/// reaches, hence: safe iff every entry is `Some(k)` with `k ≤ 1`.
///
/// # Errors
///
/// [`PetriError::NotMarkedGraph`] if the net is not a marked graph.
pub fn mg_place_bounds<L: Label>(net: &PetriNet<L>) -> Result<Vec<Option<u64>>, PetriError> {
    let flows = net.marked_graph_flows()?;
    let m0 = net.initial_marking();
    let n = net.transition_count();

    // Shortest path between transitions where traversing place p costs
    // M0(p). min-cycle through p = M0(p) + dist(cons(p) → prod(p)).
    // Floyd–Warshall: nets here are small and this is by far the
    // simplest correct choice (weights ≥ 0).
    const INF: u64 = u64::MAX / 4;
    let mut dist = vec![vec![INF; n]; n];
    for (i, row) in dist.iter_mut().enumerate() {
        row[i] = 0;
    }
    for (p, &(prod, cons)) in flows.iter().enumerate() {
        let w = u64::from(m0.as_slice()[p]);
        let d = &mut dist[prod.index()][cons.index()];
        *d = (*d).min(w);
    }
    for k in 0..n {
        for i in 0..n {
            if dist[i][k] == INF {
                continue;
            }
            for j in 0..n {
                let via = dist[i][k] + dist[k][j];
                if via < dist[i][j] {
                    dist[i][j] = via;
                }
            }
        }
    }

    Ok(flows
        .iter()
        .enumerate()
        .map(|(p, &(prod, cons))| {
            let back = dist[cons.index()][prod.index()];
            if back >= INF {
                None
            } else {
                Some(u64::from(m0.as_slice()[p]) + back)
            }
        })
        .collect())
}

/// Structural safety for **live** marked graphs: every place lies on a
/// cycle of token count ≤ 1.
///
/// # Errors
///
/// * [`PetriError::NotMarkedGraph`] if the net is not a marked graph.
/// * [`PetriError::Precondition`] if the net has a token-free cycle
///   (not live — the bound characterization needs liveness).
pub fn mg_safe_structural<L: Label>(net: &PetriNet<L>) -> Result<bool, PetriError> {
    if !mg_live_structural(net)? {
        return Err(PetriError::Precondition(
            "structural safety needs a live marked graph".to_owned(),
        ));
    }
    Ok(mg_place_bounds(net)?
        .iter()
        .all(|b| matches!(b, Some(k) if *k <= 1)))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    fn ring(tokens: &[u32]) -> PetriNet<String> {
        let mut net: PetriNet<String> = PetriNet::new();
        let n = tokens.len();
        let ps: Vec<PlaceId> = (0..n).map(|i| net.add_place(format!("p{i}"))).collect();
        for i in 0..n {
            net.add_transition([ps[i]], format!("t{i}"), [ps[(i + 1) % n]])
                .unwrap();
        }
        for (i, &t) in tokens.iter().enumerate() {
            net.set_initial(ps[i], t);
        }
        net
    }

    #[test]
    fn marked_ring_is_live_unmarked_is_not() {
        assert!(mg_live_structural(&ring(&[1, 0, 0])).unwrap());
        assert!(!mg_live_structural(&ring(&[0, 0, 0])).unwrap());
        let cycle = token_free_cycle(&ring(&[0, 0, 0])).unwrap().unwrap();
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn ring_bounds_are_total_token_count() {
        let bounds = mg_place_bounds(&ring(&[2, 1, 0])).unwrap();
        assert_eq!(bounds, vec![Some(3), Some(3), Some(3)]);
        assert!(!mg_safe_structural(&ring(&[2, 1, 0])).unwrap());
        assert!(mg_safe_structural(&ring(&[1, 0, 0])).unwrap());
    }

    #[test]
    fn fork_join_bounds() {
        // p0 -fork-> {a, b}; {a2, b2} -join-> p0 with chains.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let a = net.add_place("a");
        let b = net.add_place("b");
        net.add_transition([p0], "fork", [a, b]).unwrap();
        net.add_transition([a, b], "join", [p0]).unwrap();
        net.set_initial(p0, 1);
        assert!(mg_live_structural(&net).unwrap());
        assert!(mg_safe_structural(&net).unwrap());
        assert_eq!(mg_place_bounds(&net).unwrap(), vec![Some(1); 3]);
    }

    #[test]
    fn structural_agrees_with_reachability_on_random_rings() {
        for seed in 0u64..24 {
            let n = 3 + (seed % 3) as usize;
            let tokens: Vec<u32> = (0..n).map(|i| ((seed >> i) & 1) as u32).collect();
            let net = ring(&tokens);
            let live_struct = mg_live_structural(&net).unwrap();
            let rg = net
                .reachability_bounded(&Budget::default())
                .complete()
                .unwrap();
            let analysis = net.analysis(&rg);
            assert_eq!(live_struct, analysis.live, "seed {seed}");
            if live_struct {
                assert_eq!(
                    mg_safe_structural(&net).unwrap(),
                    analysis.safe,
                    "seed {seed}"
                );
                // And the per-place bounds match the observed bound.
                let bounds = mg_place_bounds(&net).unwrap();
                let max_bound = bounds.iter().map(|b| b.unwrap()).max().unwrap();
                assert_eq!(max_bound, u64::from(analysis.bound), "seed {seed}");
            }
        }
    }

    #[test]
    fn non_marked_graph_rejected() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "x", [q]).unwrap();
        net.add_transition([p], "y", [q]).unwrap();
        assert!(matches!(
            mg_live_structural(&net),
            Err(PetriError::NotMarkedGraph)
        ));
    }

    #[test]
    fn safety_check_requires_liveness() {
        assert!(matches!(
            mg_safe_structural(&ring(&[0, 0])),
            Err(PetriError::Precondition(_))
        ));
    }
}
