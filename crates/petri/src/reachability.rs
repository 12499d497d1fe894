//! Explicit reachability graphs.
//!
//! The reachability graph `RG(N)` (Section 2.1 of the paper) is the
//! transitive closure of the next-state relation: nodes are reachable
//! markings, edges are labeled by the transition fired. Every explorer
//! here builds it breadth-first under a [`Budget`], so analyses never
//! silently diverge on unbounded nets.
//!
//! One private BFS driver builds every graph. It is generic over two
//! things:
//!
//! 1. the **store** the states are interned in: the resident
//!    [`MarkingStore`] (a flat arena with an open-addressing index, no
//!    per-state allocation) or the [`SpillStore`], whose delta-encoded
//!    segments page out to an unlinked temp file under a resident-byte
//!    ceiling ([`reachability_bounded_spilled`]);
//! 2. how a state's **successors** are chosen: every enabled transition
//!    of the [`CompiledNet`] (whose place → consumers adjacency re-tests
//!    only transitions touching a marked place), or a stubborn subset
//!    ([`PetriNet::reachability_stubborn_bounded`]).
//!
//! Either way states are numbered in discovery order and edges kept in
//! ascending transition order, so both stores give the same ids, edges
//! and `Exhausted` statistics. A store that refuses a state (allocation,
//! id space, spill I/O) stops the exploration with
//! [`Resource::Storage`]: the prefix is sound, never `Complete`.
//!
//! The pre-arena explorer survives as
//! [`PetriNet::reachability_bounded_legacy`], the reference
//! implementation the equivalence property suite differentiates against.

use crate::budget::{Bounded, Budget, Exhausted, Meter, Resource};
use crate::compiled::{CandidateScratch, CompiledNet, StubbornScratch};
use crate::error::PetriError;
use crate::graph::DiGraph;
use crate::label::Label;
use crate::marking::Marking;
use crate::net::{PetriNet, PlaceId, TransitionId};
use crate::store::{MarkingStore, SpillConfig, SpillStats, SpillStore};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a state (reachable marking) in a [`ReachabilityGraph`].
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

/// The reachability graph of a net: every reachable marking plus the
/// labeled next-state edges between them.
///
/// Markings live interned in a [`MarkingStore`] arena and edges in one
/// CSR array, so the graph's resident size is dominated by
/// `state_count × place_count` `u32`s rather than per-state heap
/// allocations.
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
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ReachabilityGraph {
    store: MarkingStore,
    /// All edges, grouped by source state (CSR payload).
    edge_data: Vec<(TransitionId, StateId)>,
    /// CSR offsets: edges of state `s` are
    /// `edge_data[edge_off[s]..edge_off[s+1]]`.
    edge_off: Vec<usize>,
    initial: StateId,
}

impl ReachabilityGraph {
    /// Number of reachable states.
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// Total number of edges (O(1): the CSR payload length is cached by
    /// construction).
    pub fn edge_count(&self) -> usize {
        self.edge_data.len()
    }

    /// The state corresponding to the initial marking.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// The marking of a state, materialized from the arena.
    ///
    /// For allocation-free access use [`ReachabilityGraph::marking_slice`].
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn marking(&self, s: StateId) -> Marking {
        Marking::from_counts(self.store.get(s.index()).to_vec())
    }

    /// The raw per-place token counts of a state, borrowed straight from
    /// the arena (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn marking_slice(&self, s: StateId) -> &[u32] {
        self.store.get(s.index())
    }

    /// Outgoing edges of a state.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn edges(&self, s: StateId) -> &[(TransitionId, StateId)] {
        &self.edge_data[self.edge_off[s.index()]..self.edge_off[s.index() + 1]]
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.store.len()).map(StateId::from_index)
    }

    /// Iterates over all edges as `(source, transition, target)`.
    pub fn all_edges(&self) -> impl Iterator<Item = (StateId, TransitionId, StateId)> + '_ {
        self.state_ids()
            .flat_map(move |s| self.edges(s).iter().map(move |&(t, to)| (s, t, to)))
    }

    /// Looks up the state with the given marking in O(1) via the arena's
    /// hash index.
    pub fn find_state(&self, m: &Marking) -> Option<StateId> {
        if m.len() != self.store.stride() {
            return None;
        }
        self.store.find(m.as_slice()).map(StateId)
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

    /// The largest token count any place reaches in any state: the bound
    /// `k` for which the net is `k`-bounded (given a complete graph).
    pub fn token_bound(&self) -> u32 {
        self.store
            .iter()
            .flat_map(|m| m.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Bytes resident in the marking arena and its hash index — the
    /// counter reported as `peak_resident_marking_bytes` in
    /// `BENCH_explore.json`.
    pub fn resident_marking_bytes(&self) -> usize {
        self.store.resident_bytes()
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
        let successors =
            Successors::Stubborn(StubbornScratch::new(compiled.transition_count()), &seeds);
        explore(
            &compiled,
            self.initial_marking().as_slice(),
            budget,
            MarkingStore::new(compiled.place_count()),
            successors,
        )
        .map(Explored::into_graph)
    }

    /// The pre-arena explorer (interpreted firing rule, `Vec<Marking>` +
    /// `HashMap` double storage), kept as the reference implementation
    /// for the kernel-equivalence property suite and the memory baseline
    /// of the `explore_kernel` bench. Semantically identical to
    /// [`PetriNet::reachability_bounded`], only slower and hungrier.
    pub fn reachability_bounded_legacy(&self, budget: &Budget) -> Bounded<ReachabilityGraph> {
        let mut meter = Meter::new(budget);
        let initial = self.initial_marking();
        let mut states: Vec<Marking> = vec![initial.clone()];
        let mut index: HashMap<Marking, StateId> = HashMap::new();
        index.insert(initial, StateId(0));
        let mut edges: Vec<Vec<(TransitionId, StateId)>> = vec![Vec::new()];
        // The initial state always exists, even under a zero budget.
        meter.take_state();

        let mut frontier = 0usize;
        'explore: while frontier < states.len() {
            if meter.should_stop() {
                break 'explore;
            }
            let marking = states[frontier].clone();
            for t in self.transition_ids() {
                if !self.is_enabled(&marking, t) {
                    continue;
                }
                if !meter.take_transition() {
                    break 'explore;
                }
                let Ok(next) = self.fire(&marking, t) else {
                    // Unreachable for an enabled transition; skip rather
                    // than panic so the builder stays total.
                    continue;
                };
                let target = match index.get(&next) {
                    Some(&existing) => existing,
                    None => {
                        if !meter.take_state() {
                            break 'explore;
                        }
                        let new_id = StateId::from_index(states.len());
                        states.push(next.clone());
                        edges.push(Vec::new());
                        index.insert(next, new_id);
                        new_id
                    }
                };
                edges[frontier].push((t, target));
            }
            frontier += 1;
        }

        // Convert to the arena-backed representation (insertion order is
        // already canonical BFS order).
        let mut store = MarkingStore::with_capacity(self.place_count(), states.len());
        for m in &states {
            store.intern(m.as_slice());
        }
        let mut edge_off = Vec::with_capacity(states.len() + 1);
        let mut edge_data = Vec::new();
        edge_off.push(0);
        for outs in &edges {
            edge_data.extend_from_slice(outs);
            edge_off.push(edge_data.len());
        }
        meter.finish(ReachabilityGraph {
            store,
            edge_data,
            edge_off,
            initial: StateId(0),
        })
    }
}

/// Explores a pre-compiled net under a [`Budget`], producing the same
/// graph as [`PetriNet::reachability_bounded`] on the source net.
///
/// The entry point for callers that amortize [`PetriNet::compile`]
/// across many explorations — e.g. the `cpn-serve` session cache, which
/// keys compiled nets by document content hash and re-explores them
/// under different budgets per request.
pub fn reachability_bounded_compiled(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
) -> Bounded<ReachabilityGraph> {
    let successors = Successors::All(CandidateScratch::new(compiled.transition_count()));
    explore(
        compiled,
        m0,
        budget,
        MarkingStore::new(compiled.place_count()),
        successors,
    )
    .map(Explored::into_graph)
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

/// A reachability graph whose markings live in a [`SpillStore`]: resident
/// segments are delta-encoded, cold ones are paged out to an unlinked
/// temp file, and only the hash index stays pinned in memory.
///
/// State ids, edge order, and counts are **identical** to the resident
/// [`ReachabilityGraph`] the sequential kernel would build — the store
/// tier changes where markings live, not which states exist. Marking
/// access takes `&mut self` because reading a spilled row may page its
/// segment back in (and evict another).
#[derive(Debug)]
pub struct SpilledReachability {
    store: SpillStore,
    edge_data: Vec<(TransitionId, StateId)>,
    edge_off: Vec<usize>,
    initial: StateId,
}

impl SpilledReachability {
    /// Number of reachable states.
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_data.len()
    }

    /// The state corresponding to the initial marking.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// Decodes the marking of a state into `out` (cleared first), paging
    /// its segment in if it was spilled.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::SpillIo`] when the page-in fails.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn marking_into(&mut self, s: StateId, out: &mut Vec<u32>) -> Result<(), PetriError> {
        self.store.get_into(s.index(), out)
    }

    /// Outgoing edges of a state.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn edges(&self, s: StateId) -> &[(TransitionId, StateId)] {
        &self.edge_data[self.edge_off[s.index()]..self.edge_off[s.index() + 1]]
    }

    /// Looks up a marking's state id, paging candidate segments in as
    /// needed for confirmation.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::SpillIo`] when a page-in fails.
    pub fn find_state(&mut self, m: &Marking) -> Result<Option<StateId>, PetriError> {
        if m.len() != self.store.stride() {
            return Ok(None);
        }
        let hash = MarkingStore::hash_slice(m.as_slice());
        Ok(self.store.find_hashed(m.as_slice(), hash)?.map(StateId))
    }

    /// States with no outgoing edges (deadlocks).
    pub fn deadlock_states(&self) -> Vec<StateId> {
        (0..self.store.len())
            .filter(|&i| self.edge_off[i] == self.edge_off[i + 1])
            .map(StateId::from_index)
            .collect()
    }

    /// The largest token count any place reaches in any state (tracked
    /// incrementally at insert, so no decode pass is needed).
    pub fn token_bound(&self) -> u32 {
        self.store.max_word()
    }

    /// Spill-tier counters: segment totals, page-in/out traffic, bytes on
    /// disk, and the resident ceiling.
    pub fn spill_stats(&self) -> SpillStats {
        self.store.stats()
    }

    /// Bytes currently resident (index, hashes, and in-memory segments).
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }
}

/// Breadth-first exploration over a [`SpillStore`]: the out-of-core
/// sibling of [`reachability_bounded_compiled`], for state spaces whose
/// resident marking set outgrows RAM.
///
/// Runs the same driver as the resident kernel, so ids and edges match
/// byte-for-byte; only the marking storage tier differs. A spill I/O
/// failure stops the exploration: the prefix built so far is sound and
/// is returned as [`Bounded::Exhausted`] with [`Resource::Storage`].
pub fn reachability_bounded_spilled(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
    config: &SpillConfig,
) -> Bounded<SpilledReachability> {
    let successors = Successors::All(CandidateScratch::new(compiled.transition_count()));
    explore(
        compiled,
        m0,
        budget,
        SpillStore::new(compiled.place_count(), config),
        successors,
    )
    .map(|e| SpilledReachability {
        store: e.store,
        edge_data: e.edge_data,
        edge_off: e.edge_off,
        initial: StateId(0),
    })
}

// ----------------------------------------------------------------------
// The exploration driver
// ----------------------------------------------------------------------

/// What the driver needs from a marking store. Both stores number rows
/// densely in insertion order, so the driver assigns the same ids on
/// either. The driver reads an error only as "stop".
trait StateStore {
    fn len(&self) -> usize;
    /// Copies row `i` into `out` and returns its cached hash.
    fn load(&mut self, i: usize, out: &mut Vec<u32>) -> Result<u64, PetriError>;
    fn find(&mut self, m: &[u32], hash: u64) -> Result<Option<u32>, PetriError>;
    /// Inserts a row that `find` just reported absent.
    fn insert(&mut self, m: &[u32], hash: u64) -> Result<u32, PetriError>;
}

impl StateStore for MarkingStore {
    fn len(&self) -> usize {
        MarkingStore::len(self)
    }

    #[inline]
    fn load(&mut self, i: usize, out: &mut Vec<u32>) -> Result<u64, PetriError> {
        out.clear();
        out.extend_from_slice(self.get(i));
        Ok(self.hash_of(i))
    }

    #[inline]
    fn find(&mut self, m: &[u32], hash: u64) -> Result<Option<u32>, PetriError> {
        Ok(self.find_hashed(m, hash))
    }

    fn insert(&mut self, m: &[u32], hash: u64) -> Result<u32, PetriError> {
        self.insert_new_hashed(m, hash)
    }
}

impl StateStore for SpillStore {
    fn len(&self) -> usize {
        SpillStore::len(self)
    }

    fn load(&mut self, i: usize, out: &mut Vec<u32>) -> Result<u64, PetriError> {
        self.get_into(i, out)?;
        Ok(self.hash_of(i))
    }

    fn find(&mut self, m: &[u32], hash: u64) -> Result<Option<u32>, PetriError> {
        self.find_hashed(m, hash)
    }

    fn insert(&mut self, m: &[u32], hash: u64) -> Result<u32, PetriError> {
        self.insert_new_hashed(m, hash)
    }
}

/// How the driver chooses the transitions to fire at a state.
enum Successors<'a> {
    /// Every enabled transition: the candidates of
    /// [`CompiledNet::enabled_candidates`] that pass `is_enabled`.
    All(CandidateScratch),
    /// The enabled members of a stubborn set grown from these seeds.
    Stubborn(StubbornScratch, &'a [u32]),
}

impl Successors<'_> {
    /// Writes the transitions that may fire at `m` into `out`, ascending.
    fn candidates(&mut self, compiled: &CompiledNet, m: &[u32], out: &mut Vec<u32>) {
        match self {
            Successors::All(scratch) => compiled.enabled_candidates(m, scratch, out),
            Successors::Stubborn(scratch, seeds) => {
                compiled.stubborn_enabled(m, seeds, scratch, out);
            }
        }
    }

    /// Whether candidate `t` fires at `m`. Stubborn members are enabled
    /// by construction.
    #[inline]
    fn fires(&self, compiled: &CompiledNet, m: &[u32], t: u32) -> bool {
        match self {
            Successors::All(_) => compiled.is_enabled(m, t),
            Successors::Stubborn(..) => true,
        }
    }
}

/// The driver's output: the interned states and the CSR edge arrays.
struct Explored<S> {
    store: S,
    edge_data: Vec<(TransitionId, StateId)>,
    edge_off: Vec<usize>,
}

impl Explored<MarkingStore> {
    fn into_graph(self) -> ReachabilityGraph {
        ReachabilityGraph {
            store: self.store,
            edge_data: self.edge_data,
            edge_off: self.edge_off,
            initial: StateId(0),
        }
    }
}

/// The one BFS loop behind every explorer but the legacy oracle.
///
/// States are expanded in id order and their successors examined in
/// ascending transition order. The meter is charged in a fixed order —
/// `take_transition` before the successor is looked up, `take_state`
/// before it is inserted — which is what keeps `Exhausted` prefixes and
/// statistics identical to the legacy explorer's.
fn explore<S: StateStore>(
    compiled: &CompiledNet,
    m0: &[u32],
    budget: &Budget,
    mut store: S,
    mut successors: Successors<'_>,
) -> Bounded<Explored<S>> {
    let mut meter = Meter::new(budget);
    if let Err(e) = store.insert(m0, MarkingStore::hash_slice(m0)) {
        panic!("marking store rejected the initial marking: {e}");
    }
    // The initial state always exists, even under a zero budget.
    meter.take_state();

    let mut edge_data: Vec<(TransitionId, StateId)> = Vec::new();
    let mut edge_off: Vec<usize> = vec![0];
    let mut cur: Vec<u32> = Vec::with_capacity(compiled.place_count());
    let mut cands: Vec<u32> = Vec::new();
    let mut store_failed = false;

    let mut frontier = 0usize;
    'explore: while frontier < store.len() {
        // Per-state deadline/cancel poll (coarse: real wall-clock reads
        // happen every POLL_INTERVAL ticks inside the meter).
        if meter.should_stop() {
            break 'explore;
        }
        let Ok(cur_hash) = store.load(frontier, &mut cur) else {
            store_failed = true;
            break 'explore;
        };
        successors.candidates(compiled, &cur, &mut cands);
        for &t in &cands {
            if !successors.fires(compiled, &cur, t) {
                continue;
            }
            if !meter.take_transition() {
                break 'explore;
            }
            // Fire in place with a delta-updated hash, probe/insert the
            // successor straight out of `cur`, then revert — no
            // per-successor copy or full-stride rehash.
            let hash = compiled.apply_hashed(&mut cur, cur_hash, t);
            debug_assert_eq!(hash, MarkingStore::hash_slice(&cur));
            let target = match store.find(&cur, hash) {
                Ok(None) if !meter.take_state() => break 'explore,
                Ok(None) => store.insert(&cur, hash),
                Ok(Some(id)) => Ok(id),
                Err(e) => Err(e),
            };
            compiled.unapply(&mut cur, t);
            let Ok(target) = target else {
                store_failed = true;
                break 'explore;
            };
            edge_data.push((TransitionId::from_index(t as usize), StateId(target)));
        }
        edge_off.push(edge_data.len());
        frontier += 1;
    }
    // On early exit the offsets of unexpanded (and the partially
    // expanded) states still need closing so the CSR stays well-formed.
    while edge_off.len() <= store.len() {
        edge_off.push(edge_data.len());
    }

    let explored = Explored {
        store,
        edge_data,
        edge_off,
    };
    if store_failed {
        return Bounded::Exhausted {
            partial: explored,
            info: Exhausted {
                resource: Resource::Storage,
                states_explored: meter.states_explored(),
                transitions_explored: meter.transitions_explored(),
                budget: *budget,
            },
        };
    }
    meter.finish(explored)
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

    fn graphs_identical(a: &ReachabilityGraph, b: &ReachabilityGraph) -> bool {
        a.state_count() == b.state_count()
            && a.edge_count() == b.edge_count()
            && a.initial_state() == b.initial_state()
            && a.state_ids()
                .all(|s| a.marking_slice(s) == b.marking_slice(s) && a.edges(s) == b.edges(s))
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
    fn compiled_matches_legacy_on_diamond() {
        let net = diamond();
        let a = net.reachability_bounded(&Budget::default()).into_value();
        let b = net
            .reachability_bounded_legacy(&Budget::default())
            .into_value();
        assert!(graphs_identical(&a, &b));
    }

    #[test]
    fn compiled_matches_legacy_under_exhaustion() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let sink = net.add_place("sink");
        net.add_transition([p], "pump", [p, sink]).unwrap();
        net.set_initial(p, 1);
        for budget in [Budget::states(5), Budget::new(100, 7), Budget::states(0)] {
            let a = net.reachability_bounded(&budget);
            let b = net.reachability_bounded_legacy(&budget);
            assert_eq!(a.exhausted(), b.exhausted(), "same exhaustion stats");
            assert!(graphs_identical(a.value(), b.value()), "same prefix");
        }
    }

    #[test]
    fn empty_preset_sources_match_legacy() {
        // An always-enabled source transition pumps a bounded buffer
        // drained by a consumer: candidate generation must include the
        // empty-preset transition in every state.
        let mut net: PetriNet<&str> = PetriNet::new();
        let buf = net.add_place("buf");
        net.add_transition([], "arrive", [buf]).unwrap();
        net.add_transition([buf], "serve", []).unwrap();
        let budget = Budget::states(50);
        let legacy = net.reachability_bounded_legacy(&budget);
        assert_eq!(
            legacy.exhausted().map(|e| e.resource),
            Some(Resource::States)
        );
        let compiled = net.reachability_bounded(&budget);
        assert_eq!(compiled.exhausted(), legacy.exhausted());
        assert!(graphs_identical(legacy.value(), compiled.value()));

        let spilled = reachability_bounded_spilled(
            &net.compile(),
            net.initial_marking().as_slice(),
            &budget,
            &SpillConfig::default(),
        );
        assert_eq!(spilled.exhausted(), legacy.exhausted());
        let rg = legacy.value();
        let mut sp = spilled.into_value();
        assert_eq!(sp.state_count(), rg.state_count());
        assert_eq!(sp.edge_count(), rg.edge_count());
        let mut row = Vec::new();
        for s in rg.state_ids() {
            sp.marking_into(s, &mut row).unwrap();
            assert_eq!(row.as_slice(), rg.marking_slice(s), "marking of {s}");
            assert_eq!(sp.edges(s), rg.edges(s), "edges of {s}");
        }
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
