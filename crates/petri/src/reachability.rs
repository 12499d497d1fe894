//! Explicit reachability graphs and state spaces.
//!
//! The reachability graph `RG(N)` (Section 2.1 of the paper) is the
//! transitive closure of the next-state relation: nodes are reachable
//! markings, edges are labeled by the transition fired. Every explorer
//! here builds it breadth-first under a [`Budget`], so analyses never
//! silently diverge on unbounded nets.
//!
//! One private BFS driver explores every net. States are packed rows of
//! one [`MarkingStore`]: one field of the same width per place, the
//! width of the largest initial count (one bit on safe nets, where a
//! row is its own occupancy bitmap). A firing that would overflow a
//! field doubles the width and re-encodes every stored row; ids, edges
//! and `Exhausted` statistics do not change. The driver varies in two
//! ways:
//!
//! * which **successors** a state has: every enabled transition of the
//!   [`CompiledNet`], or a stubborn subset
//!   ([`PetriNet::reachability_stubborn_bounded`]);
//! * what it **records** of each edge, its sink: a
//!   [`ReachabilityGraph`] keeps every edge in a CSR array, and a
//!   [`StateSpace`] keeps only their count and which transitions fired,
//!   for callers that never read the edge relation
//!   ([`PetriNet::state_space_bounded`]). The driver is monomorphised
//!   per sink, and both see the same states, ids, counts and stops.
//!
//! States are numbered in discovery order and edges kept in ascending
//! transition order. A store that refuses a state (allocation, id space,
//! a count past `u32::MAX`) stops the exploration with
//! [`Resource::Storage`]: the prefix is sound, never `Complete`.

use crate::budget::{Bounded, Budget, Meter, Resource};
use crate::compiled::{CompiledNet, EnableScratch};
use crate::error::PetriError;
use crate::graph::DiGraph;
use crate::label::Label;
use crate::marking::Marking;
use crate::net::{PetriNet, PlaceId, TransitionId};
use crate::store::{MarkingStore, RowFormat};
use std::fmt;
use std::ops::Deref;

/// Identifier of a state (reachable marking) in a [`StateSpace`] or a
/// [`ReachabilityGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(u32);

impl StateId {
    /// The arena index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `StateId` from an arena index.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::IndexOverflow`] when the index does not fit
    /// the 32-bit id space.
    pub fn try_from_index(i: usize) -> Result<Self, PetriError> {
        match u32::try_from(i) {
            Ok(v) => Ok(StateId(v)),
            Err(_) => Err(PetriError::IndexOverflow { index: i }),
        }
    }

    /// Builds a `StateId` from an arena index.
    ///
    /// # Panics
    ///
    /// Panics if the index exceeds the 32-bit id space; use
    /// [`StateId::try_from_index`] on paths where the index is not known
    /// to be in range.
    pub fn from_index(i: usize) -> Self {
        match Self::try_from_index(i) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The reachable markings of a net without its edges: what an
/// exploration keeps for a caller that reads states, counts and which
/// transitions fire, never the labeled edge relation.
///
/// Markings live as packed rows in a [`MarkingStore`] arena — one word
/// per state for a safe net of up to 64 places. Read a marking with
/// [`StateSpace::marking_into`] or [`StateSpace::marking`], and which
/// places it marks with [`StateSpace::occupancy`]. Beside the markings a
/// state space keeps the number of edges explored and one bit per
/// transition, set when some stored edge fires it
/// ([`StateSpace::fired`]); [`dead_transitions_rg`](crate::dead_transitions_rg)
/// reads those bits. A [`ReachabilityGraph`] is a state space plus its
/// edges, and dereferences to it.
///
/// # Example
///
/// ```
/// use cpn_petri::{dead_transitions_rg, Budget, PetriNet};
///
/// # fn main() -> Result<(), cpn_petri::PetriError> {
/// let mut net: PetriNet<&str> = PetriNet::new();
/// let p = net.add_place("p");
/// let q = net.add_place("q");
/// let r = net.add_place("r");
/// let a = net.add_transition([p], "a", [q])?;
/// net.add_transition([p], "b", [r])?;
/// let never = net.add_transition([r, q], "c", [p])?;
/// net.set_initial(p, 1);
/// let space = net.state_space_bounded(&Budget::default());
/// assert!(space.is_complete());
/// let space = space.value();
/// assert_eq!((space.state_count(), space.edge_count()), (3, 2));
/// assert!(space.fired(a) && !space.fired(never));
/// assert_eq!(dead_transitions_rg(&net, space), [never].into());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct StateSpace {
    store: MarkingStore<u64>,
    format: RowFormat,
    /// The largest count any stored state puts on any place.
    token_bound: u32,
    /// Edges stored (a graph keeps them; a state space only counts them).
    edges: usize,
    /// Bit `t % 64` of word `t / 64` is set iff a stored edge fires `t`.
    fired: Vec<u64>,
}

impl StateSpace {
    /// Number of reachable states.
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// Number of edges explored: every firing from an expanded state
    /// whose successor was stored.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The state corresponding to the initial marking.
    pub fn initial_state(&self) -> StateId {
        StateId(0)
    }

    /// The marking of a state, decoded from its packed row.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this state space.
    pub fn marking(&self, s: StateId) -> Marking {
        let mut counts = Vec::new();
        self.marking_into(s, &mut counts);
        Marking::from_counts(counts)
    }

    /// Decodes the per-place token counts of a state into `out`
    /// (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this state space.
    pub fn marking_into(&self, s: StateId, out: &mut Vec<u32>) {
        self.format.decode(self.store.get(s.index()), out);
    }

    /// The occupancy bitmap of a state: bit `p` of word `p / 64` is set
    /// iff place `p` is marked. On a one-bit-per-place state space this
    /// is the stored row itself; otherwise it is computed into `buf`.
    /// Test it with a [`PlaceMask`](crate::compiled::PlaceMask).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this state space.
    pub fn occupancy<'a>(&'a self, s: StateId, buf: &'a mut Vec<u64>) -> &'a [u64] {
        self.format.occupancy(self.store.get(s.index()), buf)
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.store.len()).map(StateId::from_index)
    }

    /// Looks up the state with the given marking in O(1) via the arena's
    /// hash index.
    pub fn find_state(&self, m: &Marking) -> Option<StateId> {
        let mut row = Vec::new();
        if m.len() != self.format.places() || !self.format.encode(m.as_slice(), &mut row) {
            return None;
        }
        self.store.find(&row).map(StateId)
    }

    /// The largest token count any place reaches in any state: the bound
    /// `k` for which the net is `k`-bounded (given a complete
    /// exploration). Tracked as states are inserted, so this reads no
    /// rows.
    pub fn token_bound(&self) -> u32 {
        self.token_bound
    }

    /// Whether some stored edge fires `t`. On a complete exploration a
    /// transition that never fired is dead.
    pub fn fired(&self, t: TransitionId) -> bool {
        let i = t.index();
        self.fired
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Bytes resident in the marking arena and its hash index — the
    /// memory per state that `kernel_equivalence::marking_rows_are_packed`
    /// bounds.
    pub fn resident_marking_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    /// Bytes resident in everything this state space holds: the marking
    /// arena, its hash index and the fired bitmap. Nothing grows with
    /// the edges.
    pub fn resident_bytes(&self) -> usize {
        self.resident_marking_bytes() + self.fired.capacity() * std::mem::size_of::<u64>()
    }
}

/// The reachability graph of a net: every reachable marking plus the
/// labeled next-state edges between them.
///
/// A graph is a [`StateSpace`] plus one CSR array of edges, and
/// dereferences to its state space for every marking query:
/// [`StateSpace::marking_into`], [`StateSpace::occupancy`],
/// [`StateSpace::find_state`] and the rest. Build one only when the
/// caller reads edges; [`PetriNet::state_space_bounded`] explores the
/// same states without storing them.
///
/// # Example
///
/// ```
/// use cpn_petri::{Budget, PetriNet};
///
/// # fn main() -> Result<(), cpn_petri::PetriError> {
/// let mut net: PetriNet<&str> = PetriNet::new();
/// let p = net.add_place("p");
/// let q = net.add_place("q");
/// let r = net.add_place("r");
/// net.add_transition([p], "a", [q])?;
/// net.add_transition([p], "b", [r])?;
/// net.set_initial(p, 1);
/// let rg = net.reachability_bounded(&Budget::default());
/// assert!(rg.is_complete());
/// let rg = rg.value();
/// assert_eq!(rg.state_count(), 3);
/// assert_eq!(rg.edges(rg.initial_state()).len(), 2);
/// let mut m = Vec::new();
/// rg.marking_into(rg.initial_state(), &mut m);
/// assert_eq!(m, vec![1, 0, 0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ReachabilityGraph {
    space: StateSpace,
    /// All edges, grouped by source state (CSR payload).
    edge_data: Vec<(TransitionId, StateId)>,
    /// CSR offsets: edges of state `s` are
    /// `edge_data[edge_off[s]..edge_off[s+1]]`.
    edge_off: Vec<usize>,
}

impl Deref for ReachabilityGraph {
    type Target = StateSpace;

    fn deref(&self) -> &StateSpace {
        &self.space
    }
}

impl ReachabilityGraph {
    /// Total number of edges (O(1): the CSR payload length).
    pub fn edge_count(&self) -> usize {
        self.edge_data.len()
    }

    /// Outgoing edges of a state.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn edges(&self, s: StateId) -> &[(TransitionId, StateId)] {
        &self.edge_data[self.edge_off[s.index()]..self.edge_off[s.index() + 1]]
    }

    /// Iterates over all edges as `(source, transition, target)`.
    pub fn all_edges(&self) -> impl Iterator<Item = (StateId, TransitionId, StateId)> + '_ {
        self.state_ids()
            .flat_map(move |s| self.edges(s).iter().map(move |&(t, to)| (s, t, to)))
    }

    /// The underlying directed graph over state indices (labels dropped).
    pub fn as_digraph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.state_count());
        for (from, _, to) in self.all_edges() {
            g.add_edge(from.index(), to.index());
        }
        g
    }

    /// States with no outgoing edges (deadlocks).
    pub fn deadlock_states(&self) -> Vec<StateId> {
        self.state_ids()
            .filter(|s| self.edge_off[s.index()] == self.edge_off[s.index() + 1])
            .collect()
    }

    /// Bytes resident in the state space and the CSR edge arrays.
    pub fn resident_bytes(&self) -> usize {
        self.space.resident_bytes()
            + self.edge_data.capacity() * std::mem::size_of::<(TransitionId, StateId)>()
            + self.edge_off.capacity() * std::mem::size_of::<usize>()
    }
}

impl<L: Label> PetriNet<L> {
    /// Builds the reachability graph breadth-first under a [`Budget`].
    ///
    /// When the budget runs out, exploration stops immediately and the
    /// partial graph discovered so far is returned in
    /// [`Bounded::Exhausted`] together with exploration statistics. The
    /// partial graph is a sound prefix: every state and edge in it is
    /// genuinely reachable, but states on the unexpanded frontier may be
    /// missing outgoing edges. An unbounded net always exhausts its state
    /// cap; use [`coverability`](crate::coverability::CoverabilityTree)
    /// to decide boundedness.
    pub fn reachability_bounded(&self, budget: &Budget) -> Bounded<ReachabilityGraph> {
        reachability_bounded_compiled(&self.compile(), self.initial_marking().as_slice(), budget)
    }

    /// The states of [`PetriNet::reachability_bounded`] without its
    /// edges: the same states, ids, markings, token bound, edge count
    /// and `Exhausted` statistics under the same budget, and which
    /// transitions fired, in memory that grows with the states only.
    pub fn state_space_bounded(&self, budget: &Budget) -> Bounded<StateSpace> {
        state_space_bounded_compiled(&self.compile(), self.initial_marking().as_slice(), budget)
    }

    /// Builds a **stubborn-set reduced** reachability graph breadth-first
    /// under a [`Budget`].
    ///
    /// At every marking only a stubborn subset of the enabled transitions
    /// is fired ([`CompiledNet::stubborn_enabled`]), which preserves:
    ///
    /// * **every deadlock marking** of the full graph, and
    /// * every reachable valuation of the `watched` places — any
    ///   transition touching a watched place is seeded into every
    ///   stubborn set, so a predicate over `watched` holds somewhere in
    ///   the full graph iff it holds somewhere in the reduced one (the
    ///   attractor/up-set reachability argument). Witness markings for
    ///   such a predicate are genuine but may differ from the full
    ///   graph's.
    ///
    /// Everything else (state counts, languages, token bounds on
    /// unwatched places, liveness) is generally under-approximated.
    pub fn reachability_stubborn_bounded(
        &self,
        budget: &Budget,
        watched: &[PlaceId],
    ) -> Bounded<ReachabilityGraph> {
        let compiled = self.compile();
        let seeds = stubborn_seeds(&compiled, watched);
        let m0 = self.initial_marking();
        explore::<Csr>(&compiled, m0.as_slice(), budget, Some(seeds.as_slice()))
    }

    /// The states of [`PetriNet::reachability_stubborn_bounded`] without
    /// its edges, as [`PetriNet::state_space_bounded`] is to
    /// [`PetriNet::reachability_bounded`].
    pub fn state_space_stubborn_bounded(
        &self,
        budget: &Budget,
        watched: &[PlaceId],
    ) -> Bounded<StateSpace> {
        let compiled = self.compile();
        let seeds = stubborn_seeds(&compiled, watched);
        let m0 = self.initial_marking();
        explore::<Counts>(&compiled, m0.as_slice(), budget, Some(seeds.as_slice()))
    }
}

/// Explores a pre-compiled net under a [`Budget`], producing the same
/// graph as [`PetriNet::reachability_bounded`] on the source net.
///
/// The entry point for callers that amortize [`PetriNet::compile`]
/// across many explorations and read the edges.
pub fn reachability_bounded_compiled(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
) -> Bounded<ReachabilityGraph> {
    explore::<Csr>(compiled, m0, budget, None)
}

/// Explores a pre-compiled net under a [`Budget`], producing the same
/// state space as [`PetriNet::state_space_bounded`] on the source net.
///
/// The entry point for callers that amortize [`PetriNet::compile`]
/// across many explorations and read no edge — e.g. the `cpn-serve`
/// session cache, which keys compiled nets by document content and
/// answers `reach` requests with counts and the token bound.
pub fn state_space_bounded_compiled(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
) -> Bounded<StateSpace> {
    explore::<Counts>(compiled, m0, budget, None)
}

/// [`reachability_bounded_compiled`] under its former multi-threaded
/// name. `threads` has no effect.
#[doc(hidden)]
pub fn reachability_bounded_parallel_compiled(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
    _threads: usize,
) -> Bounded<ReachabilityGraph> {
    reachability_bounded_compiled(compiled, m0, budget)
}

/// Transitions adjacent to a watched place (take **or** give): the seed
/// set forcing every stubborn set to contain all transitions that can
/// change a watched valuation. Sorted ascending.
fn stubborn_seeds(compiled: &CompiledNet, watched: &[PlaceId]) -> Vec<u32> {
    if watched.is_empty() {
        return Vec::new();
    }
    let mut mark = vec![false; compiled.place_count()];
    for p in watched {
        mark[p.index()] = true;
    }
    let mut seeds = Vec::new();
    for t in 0..compiled.transition_count() as u32 {
        let touches = compiled
            .take_set(t)
            .iter()
            .chain(compiled.give_set(t))
            .any(|&p| mark[p as usize]);
        if touches {
            seeds.push(t);
        }
    }
    seeds
}

// ----------------------------------------------------------------------
// The exploration driver
// ----------------------------------------------------------------------

/// Fires enabled transition `t` on the packed row `cur`, writing the
/// successor into `next`. Returns the largest count among the places `t`
/// gives to (0 if none), or `None` when one of them is full at this
/// width.
#[inline]
fn fire_packed(
    compiled: &CompiledNet,
    format: RowFormat,
    cur: &[u64],
    t: u32,
    next: &mut Vec<u64>,
) -> Option<u32> {
    next.clear();
    next.extend_from_slice(cur);
    for &p in compiled.take_set(t) {
        let (w, shift) = format.locate(p as usize);
        debug_assert!(
            format.get(next, p as usize) > 0,
            "firing a disabled transition"
        );
        next[w] -= 1 << shift;
    }
    let mut high = 0;
    let max = format.field_max();
    for &q in compiled.give_set(t) {
        let (w, shift) = format.locate(q as usize);
        let count = (next[w] >> shift) as u32 & max;
        if count == max {
            return None;
        }
        next[w] += 1 << shift;
        high = high.max(count + 1);
    }
    Some(high)
}

/// What the driver records of the edges it explores, beside the marking
/// store it always keeps.
trait Sink {
    /// The exploration's result.
    type Output;

    /// An empty sink for a net of `transitions` transitions.
    fn new(transitions: usize) -> Self;

    /// The edge firing `t` from the state being expanded to the stored
    /// state `target`.
    fn edge(&mut self, t: u32, target: u32);

    /// Every edge of the state being expanded has been recorded.
    fn close_state(&mut self);

    /// The result over the explored markings.
    fn finish(self, store: MarkingStore<u64>, format: RowFormat, token_bound: u32) -> Self::Output;
}

/// The counting sink: how many edges, and which transitions they fire.
struct Counts {
    edges: usize,
    fired: Vec<u64>,
}

impl Sink for Counts {
    type Output = StateSpace;

    fn new(transitions: usize) -> Self {
        Counts {
            edges: 0,
            fired: vec![0; transitions.div_ceil(64)],
        }
    }

    #[inline]
    fn edge(&mut self, t: u32, _target: u32) {
        self.edges += 1;
        self.fired[t as usize / 64] |= 1 << (t % 64);
    }

    #[inline]
    fn close_state(&mut self) {}

    fn finish(self, store: MarkingStore<u64>, format: RowFormat, token_bound: u32) -> StateSpace {
        StateSpace {
            store,
            format,
            token_bound,
            edges: self.edges,
            fired: self.fired,
        }
    }
}

/// The CSR sink: the counts, plus every edge grouped by source state.
struct Csr {
    counts: Counts,
    edge_data: Vec<(TransitionId, StateId)>,
    edge_off: Vec<usize>,
}

impl Sink for Csr {
    type Output = ReachabilityGraph;

    fn new(transitions: usize) -> Self {
        Csr {
            counts: Counts::new(transitions),
            edge_data: Vec::new(),
            edge_off: vec![0],
        }
    }

    #[inline]
    fn edge(&mut self, t: u32, target: u32) {
        self.counts.edge(t, target);
        let t = TransitionId::from_index(t as usize);
        self.edge_data.push((t, StateId(target)));
    }

    #[inline]
    fn close_state(&mut self) {
        self.edge_off.push(self.edge_data.len());
    }

    fn finish(
        mut self,
        store: MarkingStore<u64>,
        format: RowFormat,
        token_bound: u32,
    ) -> ReachabilityGraph {
        // On early exit the offsets of unexpanded (and the partially
        // expanded) states still need closing so the CSR stays
        // well-formed.
        self.edge_off.resize(store.len() + 1, self.edge_data.len());
        ReachabilityGraph {
            space: self.counts.finish(store, format, token_bound),
            edge_data: self.edge_data,
            edge_off: self.edge_off,
        }
    }
}

/// The one BFS loop behind every explorer.
///
/// States are expanded in id order and their successors — all enabled
/// transitions, or the stubborn set grown from `stubborn` seeds —
/// examined in ascending transition order; each edge whose successor is
/// stored goes to the sink `S`. The meter is charged in a fixed order:
/// `take_transition` before the successor is fired and looked up,
/// `take_state` before it is inserted. That order is what keeps
/// `Exhausted` prefixes and statistics identical to the interpreted
/// reference explorer's, whatever the sink.
fn explore<S: Sink>(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
    stubborn: Option<&[u32]>,
) -> Bounded<S::Output> {
    let mut sink = S::new(compiled.transition_count());
    let mut meter = Meter::new(budget);
    let mut format = RowFormat::fitting(m0);
    let mut store = MarkingStore::<u64>::new(format.words());
    let mut cur: Vec<u64> = Vec::with_capacity(format.words());
    let fits = format.encode(m0, &mut cur);
    debug_assert!(fits, "the fitting format holds the initial marking");
    if let Err(e) = store.insert_new_hashed(&cur, MarkingStore::hash_slice(&cur)) {
        panic!("marking store rejected the initial marking: {e}");
    }
    // The initial state always exists, even under a zero budget.
    meter.take_state();
    let mut token_bound = m0.iter().copied().max().unwrap_or(0);

    let mut next: Vec<u64> = Vec::with_capacity(format.words());
    let mut occ_buf: Vec<u64> = Vec::new();
    let mut scratch = EnableScratch::default();
    let mut fire: Vec<u32> = Vec::new();

    let mut frontier = 0usize;
    'explore: while frontier < store.len() {
        // Per-state deadline/cancel poll (coarse: real wall-clock reads
        // happen every POLL_INTERVAL ticks inside the meter).
        if meter.should_stop() {
            break 'explore;
        }
        cur.clear();
        cur.extend_from_slice(store.get(frontier));
        let occ = format.occupancy(&cur, &mut occ_buf);
        match stubborn {
            None => compiled.enabled_into(occ, &mut scratch, &mut fire),
            Some(seeds) => compiled.stubborn_enabled(occ, seeds, &mut scratch, &mut fire),
        }
        for &t in &fire {
            if !meter.take_transition() {
                break 'explore;
            }
            let high = loop {
                if let Some(high) = fire_packed(compiled, format, &cur, t, &mut next) {
                    break high;
                }
                // A field is full: double the width and re-encode every
                // row, or stop if the count would pass `u32::MAX`.
                let Some(wide) = format.widened() else {
                    meter.stop(Resource::Storage);
                    break 'explore;
                };
                let repacked = store.rewrite(wide.words(), |row, out| {
                    format.reencode(row, wide, out);
                });
                if repacked.is_err() {
                    meter.stop(Resource::Storage);
                    break 'explore;
                }
                format.reencode(&cur, wide, &mut next);
                std::mem::swap(&mut cur, &mut next);
                format = wide;
            };
            let hash = MarkingStore::hash_slice(&next);
            let target = match store.find_hashed(&next, hash) {
                Some(id) => id,
                None => {
                    if !meter.take_state() {
                        break 'explore;
                    }
                    let Ok(id) = store.insert_new_hashed(&next, hash) else {
                        meter.stop(Resource::Storage);
                        break 'explore;
                    };
                    token_bound = token_bound.max(high);
                    id
                }
            };
            sink.edge(t, target);
        }
        sink.close_state();
        frontier += 1;
    }

    meter.finish(sink.finish(store, format, token_bound))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::budget::Resource;

    fn diamond() -> PetriNet<&'static str> {
        // Fork into two concurrent tokens, then join: 4 states.
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let pa = net.add_place("pa");
        let pb = net.add_place("pb");
        let pa2 = net.add_place("pa2");
        let pb2 = net.add_place("pb2");
        let end = net.add_place("end");
        net.add_transition([p0], "fork", [pa, pb]).unwrap();
        net.add_transition([pa], "a", [pa2]).unwrap();
        net.add_transition([pb], "b", [pb2]).unwrap();
        net.add_transition([pa2, pb2], "join", [end]).unwrap();
        net.set_initial(p0, 1);
        net
    }

    #[test]
    fn diamond_has_interleaved_states() {
        let rg = diamond()
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        // p0; {pa,pb}; {pa2,pb}; {pa,pb2}; {pa2,pb2}; end
        assert_eq!(rg.state_count(), 6);
        assert_eq!(rg.edge_count(), 6);
        assert_eq!(rg.deadlock_states().len(), 1);
        assert_eq!(rg.token_bound(), 1);
    }

    #[test]
    fn initial_state_has_initial_marking() {
        let net = diamond();
        let rg = net
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        assert_eq!(rg.marking(rg.initial_state()), net.initial_marking());
        assert_eq!(
            rg.find_state(&net.initial_marking()),
            Some(rg.initial_state())
        );
    }

    #[test]
    fn find_state_locates_every_state_and_rejects_unreachable() {
        let rg = diamond()
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        for s in rg.state_ids() {
            assert_eq!(rg.find_state(&rg.marking(s)), Some(s));
        }
        let mut bogus = rg.marking(rg.initial_state());
        bogus.set(crate::net::PlaceId::from_index(0), 99);
        assert_eq!(rg.find_state(&bogus), None);
        // A marking over a different place count is never present.
        assert_eq!(rg.find_state(&Marking::empty(2)), None);
    }

    #[test]
    fn budget_exceeded_on_unbounded_net() {
        // t: {} is not allowed, so use a producer cycle that pumps tokens.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let sink = net.add_place("sink");
        net.add_transition([p], "pump", [p, sink]).unwrap();
        net.set_initial(p, 1);
        let built = net.reachability_bounded(&Budget::states(100));
        assert_eq!(
            built.exhausted().map(|e| (e.resource, e.budget.max_states)),
            Some((Resource::States, 100))
        );
    }

    #[test]
    fn multiset_markings_explored() {
        // Two tokens circulate through one place: states distinguish counts.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        net.set_initial(p, 2);
        let rg = net
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        // (2,0), (1,1), (0,2)
        assert_eq!(rg.state_count(), 3);
        assert_eq!(rg.token_bound(), 2);
    }

    #[test]
    fn widening_keeps_ids_markings_and_lookups() {
        // A pump on a safe start: the sink outgrows one bit at the
        // second state, then two bits, then four.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let sink = net.add_place("sink");
        net.add_transition([p], "pump", [p, sink]).unwrap();
        net.set_initial(p, 1);
        let built = net.reachability_bounded(&Budget::states(40));
        let rg = built.value();
        assert_eq!(rg.state_count(), 40);
        assert_eq!(rg.token_bound(), 39);
        assert_eq!(rg.format.field_max(), 255, "eight-bit fields");
        let mut m = Vec::new();
        for s in rg.state_ids() {
            rg.marking_into(s, &mut m);
            assert_eq!(m, vec![1, s.index() as u32]);
            assert_eq!(rg.find_state(&rg.marking(s)), Some(s));
            let mut buf = Vec::new();
            let occ = rg.occupancy(s, &mut buf);
            assert_eq!(occ, &[if s.index() == 0 { 1 } else { 0b11 }]);
        }
    }

    #[test]
    fn all_edges_enumerates_everything() {
        let rg = diamond()
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        assert_eq!(rg.all_edges().count(), rg.edge_count());
    }

    #[test]
    fn as_digraph_mirrors_edges() {
        let rg = diamond()
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        let g = rg.as_digraph();
        assert_eq!(g.node_count(), rg.state_count());
        let seen = g.reachable_from(rg.initial_state().index());
        assert!(seen.iter().all(|&b| b), "every state reachable from init");
    }

    #[test]
    fn edge_count_is_cached_and_consistent() {
        let rg = diamond()
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        let summed: usize = rg.state_ids().map(|s| rg.edges(s).len()).sum();
        assert_eq!(rg.edge_count(), summed);
    }

    #[test]
    fn try_from_index_rejects_overflow() {
        assert!(StateId::try_from_index(usize::MAX).is_err());
        assert_eq!(StateId::try_from_index(3).unwrap(), StateId(3));
    }

    #[test]
    fn resident_bytes_reported() {
        let rg = diamond()
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        assert!(rg.resident_marking_bytes() > 0);
    }
}
