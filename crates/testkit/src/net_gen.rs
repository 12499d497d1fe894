//! Domain generators: bounded labeled Petri nets and marked-graph
//! rings, with structure-aware shrinking.
//!
//! The raw descriptions ([`RawNet`], [`RawRing`]) are plain index-based
//! data so shrinking stays simple and deterministic; `build_*` methods
//! turn them into [`PetriNet`]s. These mirror (and replace) the ad-hoc
//! `proptest` strategies the test suites grew independently.

use crate::gen::Strategy;
use crate::rng::TestRng;
use cpn_petri::{Label, PetriNet, PlaceId};
use std::collections::BTreeSet;

/// One raw transition: preset/postset as place indices plus a label
/// index (interpretation of the label index is up to the builder).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawTransition {
    /// Preset place indices (duplicates collapse in the built net).
    pub pre: Vec<usize>,
    /// Label index.
    pub label: usize,
    /// Postset place indices.
    pub post: Vec<usize>,
}

/// A raw net description the harness can shrink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawNet {
    /// Number of places.
    pub places: usize,
    /// Transitions over place indices `0..places`.
    pub transitions: Vec<RawTransition>,
    /// Initial tokens per place.
    pub marking: Vec<u32>,
}

impl RawNet {
    /// Builds the net, labeling transition `i` (with label index `l`)
    /// via `label(i, l)`.
    ///
    /// If no place is marked, place 0 receives one token so the net has
    /// a nonempty initial marking (matching the historical test
    /// builders).
    pub fn build_with<L: Label>(&self, label: impl Fn(usize, usize) -> L) -> PetriNet<L> {
        let mut net: PetriNet<L> = PetriNet::new();
        let ps: Vec<PlaceId> = (0..self.places)
            .map(|i| net.add_place(format!("p{i}")))
            .collect();
        for (i, t) in self.transitions.iter().enumerate() {
            let pre: BTreeSet<PlaceId> = t.pre.iter().map(|&x| ps[x]).collect();
            let post: BTreeSet<PlaceId> = t.post.iter().map(|&x| ps[x]).collect();
            net.add_transition(pre, label(i, t.label), post)
                .expect("generated transition is valid");
        }
        let mut any_marked = false;
        for (i, &m) in self.marking.iter().enumerate() {
            if m > 0 {
                net.set_initial(ps[i], m);
                any_marked = true;
            }
        }
        if !any_marked {
            net.set_initial(ps[0], 1);
        }
        net
    }

    /// Builds the net labeling transitions from a fixed alphabet by
    /// label index.
    pub fn build_labels(&self, labels: &[&'static str]) -> PetriNet<&'static str> {
        self.build_with(|_, l| labels[l % labels.len()])
    }

    /// Builds the net with a unique `String` label `t{i}` per
    /// transition.
    pub fn build_indexed(&self) -> PetriNet<String> {
        self.build_with(|i, _| format!("t{i}"))
    }
}

/// Generates [`RawNet`]s within the configured size bounds.
#[derive(Clone, Debug)]
pub struct NetStrategy {
    min_places: usize,
    max_places: usize,
    max_transitions: usize,
    labels: usize,
    max_tokens: u32,
}

impl NetStrategy {
    /// Nets with `2..=max_places` places and `1..=max_transitions`
    /// transitions over `labels` label indices, safe (0/1) initial
    /// markings.
    pub fn new(max_places: usize, max_transitions: usize, labels: usize) -> Self {
        assert!(max_places >= 2 && max_transitions >= 1 && labels >= 1);
        NetStrategy {
            min_places: 2,
            max_places,
            max_transitions,
            labels,
            max_tokens: 1,
        }
    }

    /// Allows up to `max` initial tokens per place (multiset markings —
    /// the non-safe regime).
    pub fn max_tokens(mut self, max: u32) -> Self {
        self.max_tokens = max;
        self
    }
}

impl Strategy for NetStrategy {
    type Value = RawNet;

    fn generate(&self, rng: &mut TestRng) -> RawNet {
        let places = rng.gen_range(self.min_places..self.max_places + 1);
        let n_transitions = rng.gen_range(1..self.max_transitions + 1);
        let arcs = |rng: &mut TestRng| -> Vec<usize> {
            let n = rng.gen_range(1..3);
            (0..n).map(|_| rng.below(places)).collect()
        };
        let transitions = (0..n_transitions)
            .map(|_| RawTransition {
                pre: arcs(rng),
                label: rng.below(self.labels),
                post: arcs(rng),
            })
            .collect();
        let marking = (0..places)
            .map(|_| rng.gen_range_u32(0..self.max_tokens + 1))
            .collect();
        RawNet {
            places,
            transitions,
            marking,
        }
    }

    fn shrink(&self, value: &RawNet) -> Vec<RawNet> {
        let mut out = Vec::new();
        // 1. Drop whole transitions.
        if value.transitions.len() > 1 {
            for i in 0..value.transitions.len() {
                let mut v = value.clone();
                v.transitions.remove(i);
                out.push(v);
            }
        }
        // 2. Empty, then decrement, marked places.
        for (i, &m) in value.marking.iter().enumerate() {
            if m > 0 {
                let mut v = value.clone();
                v.marking[i] = 0;
                out.push(v);
                if m > 1 {
                    let mut v = value.clone();
                    v.marking[i] = m - 1;
                    out.push(v);
                }
            }
        }
        // 3. Thin out two-place presets/postsets.
        for (i, t) in value.transitions.iter().enumerate() {
            if t.pre.len() > 1 {
                let mut v = value.clone();
                v.transitions[i].pre.pop();
                out.push(v);
            }
            if t.post.len() > 1 {
                let mut v = value.clone();
                v.transitions[i].post.pop();
                out.push(v);
            }
        }
        // 4. Drop a trailing place no arc or token references.
        if value.places > self.min_places {
            let last = value.places - 1;
            let referenced = value
                .transitions
                .iter()
                .any(|t| t.pre.contains(&last) || t.post.contains(&last))
                || value.marking[last] > 0;
            if !referenced {
                let mut v = value.clone();
                v.places -= 1;
                v.marking.truncate(v.places);
                out.push(v);
            }
        }
        out
    }
}

/// A raw marked-graph ring: `n` places `p0 → t0 → p1 → … → p0` with a
/// token count per place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawRing {
    /// Ring length (places = transitions = `n`).
    pub n: usize,
    /// Tokens per place.
    pub marks: Vec<u32>,
}

impl RawRing {
    /// Builds the ring with `String` labels `t{i}`.
    pub fn build(&self) -> PetriNet<String> {
        self.build_with(|i| format!("t{i}"))
    }

    /// Builds the ring with custom labels.
    pub fn build_with<L: Label>(&self, label: impl Fn(usize) -> L) -> PetriNet<L> {
        let mut net: PetriNet<L> = PetriNet::new();
        let ps: Vec<PlaceId> = (0..self.n)
            .map(|i| net.add_place(format!("p{i}")))
            .collect();
        for i in 0..self.n {
            net.add_transition([ps[i]], label(i), [ps[(i + 1) % self.n]])
                .expect("ring transition");
        }
        for (i, &m) in self.marks.iter().enumerate() {
            net.set_initial(ps[i], m);
        }
        net
    }

    /// Total tokens on the ring.
    pub fn total_tokens(&self) -> u32 {
        self.marks.iter().sum()
    }
}

/// Generates marked-graph rings (every place has exactly one producer
/// and one consumer — the canonical strongly-connected marked graph).
#[derive(Clone, Debug)]
pub struct RingStrategy {
    min_n: usize,
    max_n: usize,
    max_tokens: u32,
    live_safe: bool,
}

impl RingStrategy {
    /// Rings of length `min_n..=max_n` with `0..=max_tokens` tokens per
    /// place.
    pub fn new(min_n: usize, max_n: usize, max_tokens: u32) -> Self {
        assert!(min_n >= 2 && min_n <= max_n);
        RingStrategy {
            min_n,
            max_n,
            max_tokens,
            live_safe: false,
        }
    }

    /// Restricts generation to live-safe rings: exactly one token
    /// somewhere on the cycle (live because the cycle is marked, safe
    /// because the token count is invariant at one).
    pub fn live_safe(mut self) -> Self {
        self.live_safe = true;
        self
    }
}

impl Strategy for RingStrategy {
    type Value = RawRing;

    fn generate(&self, rng: &mut TestRng) -> RawRing {
        let n = rng.gen_range(self.min_n..self.max_n + 1);
        let marks = if self.live_safe {
            let at = rng.below(n);
            (0..n).map(|i| u32::from(i == at)).collect()
        } else {
            (0..n)
                .map(|_| rng.gen_range_u32(0..self.max_tokens + 1))
                .collect()
        };
        RawRing { n, marks }
    }

    fn shrink(&self, value: &RawRing) -> Vec<RawRing> {
        let mut out = Vec::new();
        if self.live_safe {
            // Only the token position can move: toward place 0.
            if let Some(at) = value.marks.iter().position(|&m| m > 0) {
                if at > 0 {
                    let mut marks = vec![0; value.n];
                    marks[0] = 1;
                    out.push(RawRing { n: value.n, marks });
                }
            }
            if value.n > self.min_n {
                let mut marks = vec![0; value.n - 1];
                marks[0] = 1;
                out.push(RawRing {
                    n: value.n - 1,
                    marks,
                });
            }
            return out;
        }
        if value.n > self.min_n {
            let mut v = value.clone();
            v.n -= 1;
            v.marks.truncate(v.n);
            out.push(v);
        }
        for (i, &m) in value.marks.iter().enumerate() {
            if m > 0 {
                let mut v = value.clone();
                v.marks[i] = m - 1;
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpn_petri::Budget;

    #[test]
    fn generated_nets_build_and_validate() {
        let s = NetStrategy::new(4, 4, 4);
        let mut rng = TestRng::seed_from_u64(5);
        for _ in 0..50 {
            let raw = s.generate(&mut rng);
            let net = raw.build_labels(&["a", "b", "c", "tau"]);
            assert_eq!(net.place_count(), raw.places);
            assert_eq!(net.transition_count(), raw.transitions.len());
            assert!(net.initial_marking().total() > 0);
        }
    }

    #[test]
    fn safe_strategy_keeps_markings_safe() {
        let s = NetStrategy::new(4, 4, 4);
        let mut rng = TestRng::seed_from_u64(9);
        for _ in 0..50 {
            let raw = s.generate(&mut rng);
            assert!(raw.marking.iter().all(|&m| m <= 1));
        }
    }

    #[test]
    fn multiset_strategy_reaches_higher_counts() {
        let s = NetStrategy::new(4, 4, 4).max_tokens(3);
        let mut rng = TestRng::seed_from_u64(2);
        let saw_multi = (0..50)
            .map(|_| s.generate(&mut rng))
            .any(|raw| raw.marking.iter().any(|&m| m > 1));
        assert!(saw_multi);
    }

    #[test]
    fn shrink_candidates_stay_valid() {
        let s = NetStrategy::new(4, 4, 4);
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..20 {
            let raw = s.generate(&mut rng);
            for c in s.shrink(&raw) {
                assert!(c.places >= 2);
                assert!(!c.transitions.is_empty());
                assert_eq!(c.marking.len(), c.places);
                for t in &c.transitions {
                    assert!(!t.pre.is_empty() && !t.post.is_empty());
                    assert!(t.pre.iter().chain(&t.post).all(|&p| p < c.places));
                }
                // Shrinks must still build.
                c.build_indexed();
            }
        }
    }

    #[test]
    fn live_safe_rings_are_live_and_safe() {
        let s = RingStrategy::new(3, 7, 1).live_safe();
        let mut rng = TestRng::seed_from_u64(17);
        for _ in 0..30 {
            let raw = s.generate(&mut rng);
            assert_eq!(raw.total_tokens(), 1);
            let net = raw.build();
            assert!(net.structural().is_marked_graph);
            let rg = net
                .reachability_bounded(&Budget::default())
                .complete()
                .unwrap();
            let analysis = net.analysis(&rg);
            assert!(analysis.live, "{net}");
            assert!(analysis.safe, "{net}");
        }
    }

    #[test]
    fn ring_shrink_moves_token_home() {
        let s = RingStrategy::new(3, 7, 1).live_safe();
        let raw = RawRing {
            n: 5,
            marks: vec![0, 0, 1, 0, 0],
        };
        let shrunk = s.shrink(&raw);
        assert!(shrunk.contains(&RawRing {
            n: 5,
            marks: vec![1, 0, 0, 0, 0]
        }));
    }
}
