//! Large-scale exploration workloads with known state-space sizes.
//!
//! The exploration-kernel benchmarks need nets whose reachability graphs
//! are big enough that kernel overheads — index probes, row packing —
//! dominate, and whose state counts are known in closed form so a run
//! can be validated exactly. Three parametric families:
//!
//! * [`sync_pipeline_net`] — the classic synchronized two-phase pipeline,
//!   built directly as one net (`2^k` states on `2k` places).
//! * [`sync_mesh`] — a torus of places with token-shift transitions; the
//!   state space is every distribution of the tokens over the mesh
//!   (`C(tokens + w·h − 1, w·h − 1)` states), which reaches 10⁷+ states
//!   with single-digit strides (e.g. `sync_mesh(3, 3, 24)` has
//!   10 518 300 states on 9 places).
//! * [`cip_chain`] — a deep CIP module chain expanded with two-phase
//!   handshakes and composed into one net, the Section 6 derivation
//!   shape at depth.

use cpn_petri::PetriNet;
use cpn_stg::StgLabel;
use std::collections::BTreeSet;

/// The synchronized two-phase pipeline of `k` stages as a single net.
///
/// Stage `i` is a two-place cycle `p_i ↔ q_i`; adjacent stages share the
/// synchronizing label, so the composed transition `x_i` (for
/// `1 ≤ i ≤ k−1`) fires `[q_{i−1}, p_i] → [p_{i−1}, q_i]`, while `x_0`
/// injects (`[p_0] → [q_0]`) and `x_k` retires (`[q_{k−1}] → [p_{k−1}]`).
/// Every stage valuation is reachable: **`2^k` states** on `2k` places
/// with `k+1` transitions. Equals the `parallel`-composition of the
/// per-stage nets but built directly, so no composition machinery is
/// needed to generate benchmark inputs.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn sync_pipeline_net(k: usize) -> PetriNet<String> {
    assert!(k > 0, "pipeline needs at least one stage");
    let mut net: PetriNet<String> = PetriNet::new();
    let ps: Vec<_> = (0..k).map(|i| net.add_place(format!("s{i}.p"))).collect();
    let qs: Vec<_> = (0..k).map(|i| net.add_place(format!("s{i}.q"))).collect();
    net.add_transition([ps[0]], "x0".to_owned(), [qs[0]])
        .expect("inject");
    for i in 1..k {
        net.add_transition([qs[i - 1], ps[i]], format!("x{i}"), [ps[i - 1], qs[i]])
            .expect("shift");
    }
    net.add_transition([qs[k - 1]], format!("x{k}"), [ps[k - 1]])
        .expect("retire");
    for &p in &ps {
        net.set_initial(p, 1);
    }
    net
}

/// A `w × h` torus of places shifting `tokens` indistinguishable tokens.
///
/// Place `(x, y)` has a transition moving one token right (to
/// `((x+1) mod w, y)`) and one moving it down (to `(x, (y+1) mod h)`);
/// moves that would be self-loops (`w == 1` or `h == 1`) are skipped.
/// The move graph is strongly connected, so **every** distribution of
/// the tokens over the `w·h` places is reachable:
///
/// ```text
/// states = C(tokens + w·h − 1, w·h − 1)
/// ```
///
/// All tokens start at `(0, 0)`. Because a marking is just `w·h`
/// counts, this family reaches 10⁷+ states in a few hundred megabytes
/// of markings — the kernel's large-memory workload:
/// `sync_mesh(3, 3, 24)` → `C(32, 8)` = 10 518 300 states.
///
/// # Panics
///
/// Panics if the mesh is degenerate (`w·h < 2`) or `tokens == 0`.
pub fn sync_mesh(w: usize, h: usize, tokens: u32) -> PetriNet<String> {
    assert!(w * h >= 2, "mesh needs at least two places");
    assert!(tokens > 0, "mesh needs at least one token");
    let mut net: PetriNet<String> = PetriNet::new();
    let ps: Vec<Vec<_>> = (0..h)
        .map(|y| (0..w).map(|x| net.add_place(format!("m{x}_{y}"))).collect())
        .collect();
    for y in 0..h {
        for x in 0..w {
            if w > 1 {
                net.add_transition([ps[y][x]], format!("r{x}_{y}"), [ps[y][(x + 1) % w]])
                    .expect("right shift");
            }
            if h > 1 {
                net.add_transition([ps[y][x]], format!("d{x}_{y}"), [ps[(y + 1) % h][x]])
                    .expect("down shift");
            }
        }
    }
    net.set_initial(ps[0][0], tokens);
    net
}

/// The number of states of [`sync_mesh`]`(w, h, tokens)`:
/// `C(tokens + w·h − 1, w·h − 1)`.
///
/// # Panics
///
/// Panics if the count overflows `u64` (keep `w·h` and `tokens` in the
/// benchmark-realistic range).
pub fn sync_mesh_states(w: usize, h: usize, tokens: u32) -> u64 {
    let k = (w * h - 1) as u64;
    let n = u64::from(tokens) + k;
    // C(n, k) by the multiplicative formula, dividing early to stay exact.
    let mut acc: u64 = 1;
    for i in 1..=k {
        acc = acc
            .checked_mul(n - k + i)
            .map(|v| v / i)
            .unwrap_or_else(|| panic!("C({n}, {k}) overflows u64"));
    }
    acc
}

/// A CIP **pipeline chain** of `modules` modules connected by control
/// channels, expanded with two-phase handshake signalling and composed
/// into one net.
///
/// Module `i` receives on channel `c_{i−1}` and sends on `c_i` (the ends
/// do one of the two), so the chain is the Section 6 derivation shape at
/// depth: composition cost grows with `modules` while the state space
/// grows with the number of in-flight handshakes.
///
/// Returns the composed net and its internal alphabet: the *request*
/// wires (`*_req`) of every channel. The acknowledge wires stay
/// observable, so no hidden cycle — hence no divergence — exists; this
/// is the hiding and reduction workload of the contraction and
/// reduction suites.
///
/// # Panics
///
/// Panics if `modules < 2` or if expansion/composition fails (they
/// cannot for this well-formed chain).
pub fn cip_chain(modules: usize) -> (PetriNet<StgLabel>, BTreeSet<StgLabel>) {
    use cpn_cip::{ChannelSpec, CipGraph, HandshakeProtocol, Module};
    assert!(modules >= 2, "a chain needs at least two modules");
    let mut graph = CipGraph::new();
    let mut ids = Vec::new();
    for i in 0..modules {
        let mut m = Module::new(format!("m{i}"));
        let p = m.add_place("idle");
        m.set_initial(p, 1);
        if i == 0 {
            m.add_send([p], "c0", None, [p]).expect("send");
        } else if i == modules - 1 {
            m.add_recv([p], format!("c{}", i - 1).as_str(), [p])
                .expect("recv");
        } else {
            let q = m.add_place("got");
            m.add_recv([p], format!("c{}", i - 1).as_str(), [q])
                .expect("recv");
            m.add_send([q], format!("c{i}").as_str(), None, [p])
                .expect("send");
        }
        ids.push(graph.add_module(m));
    }
    for i in 0..modules - 1 {
        graph
            .add_channel_edge(
                ids[i],
                ids[i + 1],
                ChannelSpec::control(format!("c{i}").as_str()),
            )
            .expect("channel");
    }
    let composed = graph
        .expand(HandshakeProtocol::TwoPhase)
        .expect("expansion")
        .compose_all()
        .expect("composition");
    let net = composed.net().clone();
    let hidden = net
        .alphabet()
        .into_iter()
        .filter(|l| l.signal_name().is_some_and(|s| s.name().ends_with("_req")))
        .collect();
    (net, hidden)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpn_petri::{Bounded, Budget};

    #[test]
    fn sync_pipeline_net_counts_are_exact_powers_of_two() {
        for k in 1..=6 {
            let net = sync_pipeline_net(k);
            assert_eq!(net.place_count(), 2 * k);
            assert_eq!(net.transition_count(), k + 1);
            let rg = match net.reachability_bounded(&Budget::states(1 << 10)) {
                Bounded::Complete(rg) => rg,
                Bounded::Exhausted { .. } => panic!("budget too small for k={k}"),
            };
            assert_eq!(rg.state_count(), 1 << k, "k={k}");
        }
    }

    #[test]
    fn sync_mesh_counts_match_the_closed_form() {
        for &(w, h, t) in &[(2, 1, 3), (2, 2, 3), (3, 2, 4), (3, 3, 3)] {
            let net = sync_mesh(w, h, t);
            let rg = match net.reachability_bounded(&Budget::states(1 << 16)) {
                Bounded::Complete(rg) => rg,
                Bounded::Exhausted { .. } => panic!("budget too small for {w}x{h}/{t}"),
            };
            let expected = sync_mesh_states(w, h, t);
            assert_eq!(rg.state_count() as u64, expected, "{w}x{h}/{t}");
        }
    }

    #[test]
    fn sync_mesh_states_reaches_benchmark_scale() {
        // The 10^7-state benchmark workload.
        assert_eq!(sync_mesh_states(3, 3, 24), 10_518_300);
    }

    #[test]
    fn cip_chain_composes_and_explores() {
        let (net, hidden) = cip_chain(4);
        assert!(net.place_count() > 0);
        assert!(!hidden.is_empty() && hidden.is_subset(&net.alphabet()));
        let rg = match net.reachability_bounded(&Budget::states(1 << 16)) {
            Bounded::Complete(rg) => rg,
            Bounded::Exhausted { .. } => panic!("budget too small for chain of 4"),
        };
        assert!(rg.state_count() > 1);
    }
}
