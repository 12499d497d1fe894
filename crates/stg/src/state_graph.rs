//! The encoded state graph of an STG (Section 2.2 of the paper).
//!
//! Nodes are pairs `(marking, encoding)` where the encoding is a binary
//! valuation of all signals; an edge labeled `s+` requires `s = 0` before
//! and yields `s = 1` after (*consistent state assignment*), and the
//! toggle/stable/unstable/don't-care extensions behave per their
//! shorthand meaning. Boolean guards restrict firing to states whose
//! encoding satisfies them — this is how the protocol translator's
//! DATA/STROBE-dependent behaviour (Figure 7) is executed.
//!
//! On top of the graph: USC (unique state coding) and CSC (complete state
//! coding) diagnostics, the classical prerequisites for logic synthesis.

use crate::signal::{Edge, Signal, SignalDir, StgLabel};
use crate::stg::Stg;
use cpn_petri::{
    Bounded, Budget, EnableScratch, Marking, MarkingStore, Meter, Resource, TransitionId,
};
use std::collections::{BTreeMap, BTreeSet};

/// A binary signal valuation (encoding), ordered like the STG's signal
/// declaration order.
pub type Encoding = Vec<bool>;

/// A consistency violation: a signal transition fired from a state whose
/// encoding contradicts it (e.g. `s+` with `s` already 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsistencyViolation {
    /// The offending transition.
    pub transition: TransitionId,
    /// The label of the offending transition.
    pub label: StgLabel,
    /// The marking in which it fired.
    pub marking: Marking,
    /// The value the signal had (needed the opposite).
    pub value: bool,
}

/// A CSC (or USC) violation: two distinct states share an encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CscViolation {
    /// The shared encoding.
    pub encoding: Encoding,
    /// First state's marking.
    pub first: Marking,
    /// Second state's marking.
    pub second: Marking,
    /// Output signals whose excitation differs (empty for a pure USC
    /// conflict that does not violate CSC).
    pub conflicting_outputs: BTreeSet<Signal>,
}

/// The encoded state graph.
///
/// States are packed rows of an interned [`MarkingStore`] arena: the
/// marking's `u32` counts followed by `⌈|signals| / 32⌉` bit-words of
/// the encoding. Accessors materialize [`Marking`]/[`Encoding`] values
/// on demand.
#[derive(Clone, Debug)]
pub struct StateGraph {
    signals: Vec<Signal>,
    dirs: Vec<SignalDir>,
    /// Place count: the marking prefix length of each packed row.
    places: usize,
    store: MarkingStore,
    edges: Vec<Vec<(TransitionId, usize)>>,
    violations: Vec<ConsistencyViolation>,
}

/// Appends the encoding's bit-words to a packed state row.
fn push_bits(bits: &[bool], out: &mut Vec<u32>) {
    for chunk in bits.chunks(32) {
        let mut word = 0u32;
        for (b, &v) in chunk.iter().enumerate() {
            if v {
                word |= 1 << b;
            }
        }
        out.push(word);
    }
}

/// Decodes `n` signals from the bit-words of a packed state row.
fn decode_bits(words: &[u32], n: usize) -> Encoding {
    (0..n)
        .map(|i| words[i / 32] & (1 << (i % 32)) != 0)
        .collect()
}

impl StateGraph {
    /// Builds the state graph under `budget` from the STG's initial
    /// marking and the given initial signal values (unlisted signals
    /// start at 0).
    ///
    /// Guarded transitions fire only in states satisfying their guard.
    /// Consistency violations do not abort construction — the offending
    /// firing is *recorded* and skipped, so the report lists every
    /// violation reachable through consistent prefixes.
    ///
    /// When the budget runs out, the [`Bounded::Exhausted`] partial is
    /// the explored prefix. Consistency violations recorded on it are
    /// definite; their absence is only conclusive when construction
    /// completed.
    pub fn build_bounded(
        stg: &Stg,
        initial_values: &BTreeMap<Signal, bool>,
        budget: &Budget,
    ) -> Bounded<StateGraph> {
        Self::build_inner(stg, initial_values, budget, false)
    }

    /// Stubborn-set state-graph construction for **deadlock-style**
    /// queries, degrading gracefully like [`StateGraph::build_bounded`].
    ///
    /// Every signal-labeled or guarded transition is treated as visible
    /// and seeds the stubborn set, so only the interleavings of
    /// *unguarded dummy* transitions are reduced. The explored prefix is
    /// deadlock-preserving at the net level; consistency/USC/CSC
    /// violations found on it are definite, but their **absence is not
    /// conclusive** — a state reachable only through a pruned dummy
    /// interleaving may be missing. Use the full build for conclusive
    /// negative answers.
    pub fn build_stubborn_bounded(
        stg: &Stg,
        initial_values: &BTreeMap<Signal, bool>,
        budget: &Budget,
    ) -> Bounded<StateGraph> {
        Self::build_inner(stg, initial_values, budget, true)
    }

    fn build_inner(
        stg: &Stg,
        initial_values: &BTreeMap<Signal, bool>,
        budget: &Budget,
        stubborn: bool,
    ) -> Bounded<StateGraph> {
        let signals: Vec<Signal> = stg.signals().keys().cloned().collect();
        let dirs: Vec<SignalDir> = stg.signals().values().copied().collect();
        let index: BTreeMap<&Signal, usize> =
            signals.iter().enumerate().map(|(i, s)| (s, i)).collect();

        let enc0: Encoding = signals
            .iter()
            .map(|s| initial_values.get(s).copied().unwrap_or(false))
            .collect();

        let compiled = stg.net().compile();
        let places = compiled.place_count();

        let mut meter = Meter::new(budget);
        // The initial state is always retained, budget permitting or not.
        meter.take_state();
        let mut store = MarkingStore::new(places + signals.len().div_ceil(32));
        let mut row: Vec<u32> = Vec::with_capacity(store.stride());
        row.extend_from_slice(stg.net().initial_marking().as_slice());
        push_bits(&enc0, &mut row);
        store.intern(&row);
        let mut edges: Vec<Vec<(TransitionId, usize)>> = vec![Vec::new()];
        let mut violations = Vec::new();

        let mut scratch = EnableScratch::default();
        // Stubborn mode: every signal-labeled or guarded transition is
        // visible — encoding changes and guard reads must not be pruned.
        let seeds: Option<Vec<u32>> = stubborn.then(|| {
            (0..compiled.transition_count() as u32)
                .filter(|&tu| {
                    let t = TransitionId::from_index(tu as usize);
                    !stg.net().label_of(t).is_dummy() || !stg.guard(t).is_true()
                })
                .collect()
        });
        let mut cands: Vec<u32> = Vec::new();
        let mut cur: Vec<u32> = Vec::new();
        let mut occ: Vec<u64> = Vec::new();
        let mut next_m: Vec<u32> = Vec::new();

        let mut frontier = 0usize;
        'explore: while frontier < store.len() {
            // Per-state deadline/cancel poll (coarse-ticked in the meter).
            if meter.should_stop() {
                break 'explore;
            }
            cur.clear();
            cur.extend_from_slice(store.get(frontier));
            let encoding = decode_bits(&cur[places..], signals.len());
            compiled.occupancy_into(&cur[..places], &mut occ);
            match &seeds {
                Some(seeds) => compiled.stubborn_enabled(&occ, seeds, &mut scratch, &mut cands),
                None => compiled.enabled_into(&occ, &mut scratch, &mut cands),
            }
            for &tu in &cands {
                let t = TransitionId::from_index(tu as usize);
                let label = stg.net().label_of(t).clone();
                // Guard check against current levels.
                let guard = stg.guard(t);
                if !guard.eval(|s| index.get(s).map(|&i| encoding[i]).unwrap_or(false)) {
                    continue;
                }
                if !meter.take_transition() {
                    break 'explore;
                }
                // Encoding update + consistency.
                let mut next_enc: Vec<u32> = cur[places..].to_vec();
                if let StgLabel::Signal(s, e) = &label {
                    let i = index[s];
                    let (w, b) = (i / 32, 1u32 << (i % 32));
                    match e {
                        Edge::Rise => {
                            if encoding[i] {
                                violations.push(ConsistencyViolation {
                                    transition: t,
                                    label: label.clone(),
                                    marking: Marking::from_counts(cur[..places].to_vec()),
                                    value: true,
                                });
                                continue;
                            }
                            next_enc[w] |= b;
                        }
                        Edge::Fall => {
                            if !encoding[i] {
                                violations.push(ConsistencyViolation {
                                    transition: t,
                                    label: label.clone(),
                                    marking: Marking::from_counts(cur[..places].to_vec()),
                                    value: false,
                                });
                                continue;
                            }
                            next_enc[w] &= !b;
                        }
                        Edge::Toggle => next_enc[w] ^= b,
                        Edge::Stable | Edge::Unstable | Edge::DontCare => {}
                    }
                }
                // `t` is enabled; firing fails only past `u32::MAX` tokens.
                if compiled.fire_into(&cur[..places], tu, &mut next_m).is_err() {
                    meter.stop(Resource::Storage);
                    break 'explore;
                }
                row.clear();
                row.extend_from_slice(&next_m);
                row.extend_from_slice(&next_enc);
                let hash = MarkingStore::hash_slice(&row);
                let to = match store.find_hashed(&row, hash) {
                    Some(i) => i as usize,
                    None => {
                        if !meter.take_state() {
                            break 'explore;
                        }
                        let Ok(i) = store.insert_new_hashed(&row, hash) else {
                            // The store refused a state: a sound prefix,
                            // never complete.
                            meter.stop(Resource::Storage);
                            break 'explore;
                        };
                        edges.push(Vec::new());
                        i as usize
                    }
                };
                edges[frontier].push((t, to));
            }
            frontier += 1;
        }

        let graph = StateGraph {
            signals,
            dirs,
            places,
            store,
            edges,
            violations,
        };
        meter.finish(graph)
    }

    /// The signals, in encoding order.
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// The `(marking, encoding)` of a state, unpacked from the arena.
    pub fn state(&self, i: usize) -> (Marking, Encoding) {
        (self.marking_of(i), self.encoding_of(i))
    }

    fn marking_of(&self, i: usize) -> Marking {
        Marking::from_counts(self.store.get(i)[..self.places].to_vec())
    }

    fn encoding_of(&self, i: usize) -> Encoding {
        decode_bits(&self.store.get(i)[self.places..], self.signals.len())
    }

    /// Outgoing edges of a state: `(transition, target state)`.
    pub fn edges(&self, i: usize) -> &[(TransitionId, usize)] {
        &self.edges[i]
    }

    /// All consistency violations recorded during construction; empty iff
    /// the STG has a consistent state assignment along every reachable
    /// path from the given initial values.
    pub fn consistency_violations(&self) -> &[ConsistencyViolation] {
        &self.violations
    }

    /// Whether the state assignment is consistent.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// Signals excited in a state (enabled to change value), restricted
    /// to non-input signals — the excitation CSC compares.
    fn output_excitation(&self, stg: &Stg, i: usize) -> BTreeSet<Signal> {
        let mut excited = BTreeSet::new();
        for &(t, _) in &self.edges[i] {
            if let StgLabel::Signal(s, e) = stg.net().label_of(t) {
                // Every labeled signal is declared (enforced at insertion).
                let Some(idx) = self.signals.iter().position(|x| x == s) else {
                    continue;
                };
                if self.dirs[idx] != SignalDir::Input
                    && matches!(e, Edge::Rise | Edge::Fall | Edge::Toggle)
                {
                    excited.insert(s.clone());
                }
            }
        }
        excited
    }

    /// Groups state ids by their encodings.
    fn states_by_code(&self) -> BTreeMap<Encoding, Vec<usize>> {
        let mut by_code: BTreeMap<Encoding, Vec<usize>> = BTreeMap::new();
        for i in 0..self.state_count() {
            by_code.entry(self.encoding_of(i)).or_default().push(i);
        }
        by_code
    }

    /// USC check: every pair of distinct states with identical encodings.
    pub fn usc_violations(&self) -> Vec<CscViolation> {
        let mut out = Vec::new();
        for (code, group) in self.states_by_code() {
            for w in group.windows(2) {
                out.push(CscViolation {
                    encoding: code.clone(),
                    first: self.marking_of(w[0]),
                    second: self.marking_of(w[1]),
                    conflicting_outputs: BTreeSet::new(),
                });
            }
        }
        out
    }

    /// CSC check: pairs of equal-encoding states whose **output
    /// excitation** differs — the property logic derivation needs.
    pub fn csc_violations(&self, stg: &Stg) -> Vec<CscViolation> {
        let mut out = Vec::new();
        for (code, group) in self.states_by_code() {
            for a in 0..group.len() {
                for b in (a + 1)..group.len() {
                    let ea = self.output_excitation(stg, group[a]);
                    let eb = self.output_excitation(stg, group[b]);
                    if ea != eb {
                        let conflicting: BTreeSet<Signal> =
                            ea.symmetric_difference(&eb).cloned().collect();
                        out.push(CscViolation {
                            encoding: code.clone(),
                            first: self.marking_of(group[a]),
                            second: self.marking_of(group[b]),
                            conflicting_outputs: conflicting,
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::stg::Guard;

    fn four_phase() -> Stg {
        let mut stg = Stg::new();
        let req = stg.add_signal("req", SignalDir::Input);
        let ack = stg.add_signal("ack", SignalDir::Output);
        let p: Vec<_> = (0..4).map(|i| stg.add_place(format!("p{i}"))).collect();
        stg.add_signal_transition([p[0]], (req.clone(), Edge::Rise), [p[1]])
            .unwrap();
        stg.add_signal_transition([p[1]], (ack.clone(), Edge::Rise), [p[2]])
            .unwrap();
        stg.add_signal_transition([p[2]], (req, Edge::Fall), [p[3]])
            .unwrap();
        stg.add_signal_transition([p[3]], (ack, Edge::Fall), [p[0]])
            .unwrap();
        stg.set_initial(p[0], 1);
        stg
    }

    #[test]
    fn four_phase_state_graph() {
        let stg = four_phase();
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        assert_eq!(sg.state_count(), 4);
        assert!(sg.is_consistent());
        // Encodings cycle 00 → 10(req) → 11 → 01 → 00.
        let codes: BTreeSet<Encoding> = (0..4).map(|i| sg.state(i).1.clone()).collect();
        assert_eq!(codes.len(), 4, "all four codes distinct");
        assert!(sg.usc_violations().is_empty());
        assert!(sg.csc_violations(&stg).is_empty());
    }

    #[test]
    fn inconsistent_double_rise_detected() {
        let mut stg = Stg::new();
        let x = stg.add_signal("x", SignalDir::Output);
        let p0 = stg.add_place("p0");
        let p1 = stg.add_place("p1");
        let p2 = stg.add_place("p2");
        stg.add_signal_transition([p0], (x.clone(), Edge::Rise), [p1])
            .unwrap();
        stg.add_signal_transition([p1], (x, Edge::Rise), [p2])
            .unwrap();
        stg.set_initial(p0, 1);
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        assert!(!sg.is_consistent());
        assert_eq!(sg.consistency_violations().len(), 1);
        assert!(sg.consistency_violations()[0].value);
    }

    #[test]
    fn toggle_alternates_encoding() {
        let mut stg = Stg::new();
        let x = stg.add_signal("x", SignalDir::Output);
        let p = stg.add_place("p");
        stg.add_signal_transition([p], (x, Edge::Toggle), [p])
            .unwrap();
        stg.set_initial(p, 1);
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        // Same marking, two encodings.
        assert_eq!(sg.state_count(), 2);
        assert!(sg.is_consistent());
    }

    #[test]
    fn guard_restricts_firing() {
        // Choice between two x+ paths guarded by DATA level.
        let mut stg = Stg::new();
        let data = stg.add_signal("DATA", SignalDir::Input);
        let hi = stg.add_signal("hi", SignalDir::Output);
        let lo = stg.add_signal("lo", SignalDir::Output);
        let p = stg.add_place("p");
        let q = stg.add_place("q");
        let t_hi = stg
            .add_signal_transition([p], (hi, Edge::Toggle), [q])
            .unwrap();
        let t_lo = stg
            .add_signal_transition([p], (lo, Edge::Toggle), [q])
            .unwrap();
        stg.set_guard(t_hi, Guard::new().require(data.clone(), true));
        stg.set_guard(t_lo, Guard::new().require(data.clone(), false));
        stg.set_initial(p, 1);

        // DATA starts low: only `lo` fires.
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        assert_eq!(sg.edges(0).len(), 1);
        // DATA starts high: only `hi` fires.
        let sg =
            StateGraph::build_bounded(&stg, &BTreeMap::from([(data, true)]), &Budget::states(1000))
                .complete()
                .unwrap();
        assert_eq!(sg.edges(0).len(), 1);
    }

    #[test]
    fn usc_violation_from_dummy_loop() {
        // Two markings, same encoding (ε transition changes no signal).
        let mut stg = Stg::new();
        let x = stg.add_signal("x", SignalDir::Output);
        let p0 = stg.add_place("p0");
        let p1 = stg.add_place("p1");
        let p2 = stg.add_place("p2");
        stg.add_dummy([p0], [p1]).unwrap();
        stg.add_signal_transition([p1], (x.clone(), Edge::Rise), [p2])
            .unwrap();
        stg.set_initial(p0, 1);
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        let usc = sg.usc_violations();
        assert_eq!(usc.len(), 1, "p0 and p1 share encoding 0");
        // CSC: p0 has no output excitation, p1 excites x: violation.
        let csc = sg.csc_violations(&stg);
        assert_eq!(csc.len(), 1);
        assert!(csc[0].conflicting_outputs.contains(&x));
    }

    #[test]
    fn stubborn_build_matches_full_on_signal_only_nets() {
        // Every transition is signal-labeled, so every transition seeds
        // the stubborn set and the builds coincide exactly.
        let stg = four_phase();
        let full = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        let Bounded::Complete(stub) =
            StateGraph::build_stubborn_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
        else {
            panic!("budget not exhausted");
        };
        assert_eq!(stub.state_count(), full.state_count());
        assert!(stub.is_consistent());
        assert!(stub.usc_violations().is_empty());
    }

    #[test]
    fn stubborn_build_prunes_independent_dummy_interleavings() {
        // Two disjoint unguarded dummy cycles: the full graph is their
        // 4-state product; the stubborn build explores one component.
        let mut stg = Stg::new();
        let a0 = stg.add_place("a0");
        let a1 = stg.add_place("a1");
        let b0 = stg.add_place("b0");
        let b1 = stg.add_place("b1");
        stg.add_dummy([a0], [a1]).unwrap();
        stg.add_dummy([a1], [a0]).unwrap();
        stg.add_dummy([b0], [b1]).unwrap();
        stg.add_dummy([b1], [b0]).unwrap();
        stg.set_initial(a0, 1);
        stg.set_initial(b0, 1);

        let full = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        assert_eq!(full.state_count(), 4);
        let Bounded::Complete(stub) =
            StateGraph::build_stubborn_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
        else {
            panic!("budget not exhausted");
        };
        assert!(
            stub.state_count() < full.state_count(),
            "stubborn {} !< full {}",
            stub.state_count(),
            full.state_count()
        );
    }

    #[test]
    fn stubborn_build_still_finds_consistency_violation() {
        // Violations reachable in the reduced graph are definite.
        let mut stg = Stg::new();
        let x = stg.add_signal("x", SignalDir::Output);
        let p0 = stg.add_place("p0");
        let p1 = stg.add_place("p1");
        let p2 = stg.add_place("p2");
        stg.add_signal_transition([p0], (x.clone(), Edge::Rise), [p1])
            .unwrap();
        stg.add_signal_transition([p1], (x, Edge::Rise), [p2])
            .unwrap();
        stg.set_initial(p0, 1);
        let Bounded::Complete(sg) =
            StateGraph::build_stubborn_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
        else {
            panic!("budget not exhausted");
        };
        assert_eq!(sg.consistency_violations().len(), 1);
    }

    #[test]
    fn token_overflow_stops_with_storage() {
        // A dummy source on a place already holding `u32::MAX` tokens:
        // firing it has no successor, so the build stops with a storage
        // stop on the one-state prefix instead of saturating the count.
        let mut stg = Stg::new();
        let p = stg.add_place("p");
        stg.add_dummy([], [p]).unwrap();
        stg.set_initial(p, u32::MAX);
        for stubborn in [false, true] {
            let built = if stubborn {
                StateGraph::build_stubborn_bounded(&stg, &BTreeMap::new(), &Budget::states(5))
            } else {
                StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(5))
            };
            let info = built.exhausted().copied();
            assert_eq!(
                info.map(|e| (e.resource, e.states_explored, e.transitions_explored)),
                Some((cpn_petri::Resource::Storage, 1, 1)),
                "stubborn: {stubborn}"
            );
            assert_eq!(built.value().state_count(), 1);
            assert!(built.value().edges(0).is_empty());
        }
    }

    #[test]
    fn budget_enforced() {
        let stg = four_phase();
        let built = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(2));
        assert_eq!(
            built.exhausted().map(|e| (e.resource, e.budget.max_states)),
            Some((cpn_petri::Resource::States, 2))
        );
    }
}
