//! Reference implementations the fast paths are differentiated against:
//! [`hide_labels`] for the contraction engine, [`reduce`] /
//! [`reduce_with`] for its structural reduction rules, [`reachability`]
//! for the exploration kernel, and [`canonical_form`] /
//! [`canonical_order`] for the `NetId` canonicalizer.
//!
//! [`reachability`] builds `RG(N)` the interpreted way: the net's own
//! [`PetriNet::is_enabled`] and [`PetriNet::fire`] over [`Marking`]s,
//! every transition tested in every state, a `HashMap` from marking to
//! state id, and plain vectors for the result. It shares no store, row
//! format or enabling code with `cpn-petri`'s kernel, so an equivalence
//! suite comparing the two compares independent implementations.
//!
//! # Example
//!
//! ```
//! use cpn_petri::{Budget, PetriNet};
//! use cpn_testkit::oracle;
//!
//! let mut net: PetriNet<&str> = PetriNet::new();
//! let p = net.add_place("p");
//! let q = net.add_place("q");
//! net.add_transition([p], "a", [q]).unwrap();
//! net.set_initial(p, 1);
//! let rg = oracle::reachability(&net, &Budget::default());
//! assert_eq!(rg.markings, vec![vec![1, 0], vec![0, 1]]);
//! assert!(rg.exhausted.is_none());
//! ```

use cpn_core::{hide_transition, CoreError};
use cpn_petri::{
    Bounded, Budget, Exhausted, Label, Marking, Meter, PetriNet, Resource, StateId, TransitionId,
};
use std::collections::{BTreeSet, HashMap};

mod canonical;
mod reduce;
pub use canonical::{canonical_form, canonical_order};
pub use reduce::{reduce, reduce_with};

/// A reachability graph as the reference explorer builds it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reachability {
    /// The per-place token counts of every state, in id (discovery)
    /// order; state 0 is the initial marking.
    pub markings: Vec<Vec<u32>>,
    /// The outgoing edges of every state, in ascending transition order.
    pub edges: Vec<Vec<(TransitionId, StateId)>>,
    /// Why the exploration stopped early; `None` when it completed.
    pub exhausted: Option<Exhausted>,
}

impl Reachability {
    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// States with no outgoing edges, ascending.
    pub fn deadlock_states(&self) -> Vec<StateId> {
        (0..self.edges.len())
            .filter(|&s| self.edges[s].is_empty())
            .map(StateId::from_index)
            .collect()
    }

    /// The largest count any state puts on any place.
    pub fn token_bound(&self) -> u32 {
        self.markings.iter().flatten().copied().max().unwrap_or(0)
    }
}

/// Explores `net` breadth-first under `budget` with the interpreted
/// firing rule.
///
/// States are numbered in discovery order, each state's transitions are
/// tried in ascending order, and the meter is charged `take_transition`
/// before a firing and `take_state` before an insert — the accounting
/// the kernel must reproduce exactly. A firing that would push a count
/// past `u32::MAX` stops the exploration with [`Resource::Storage`].
pub fn reachability<L: Label>(net: &PetriNet<L>, budget: &Budget) -> Reachability {
    let mut meter = Meter::new(budget);
    let initial = net.initial_marking();
    let mut states: Vec<Marking> = vec![initial.clone()];
    let mut index: HashMap<Marking, usize> = HashMap::from([(initial, 0)]);
    let mut edges: Vec<Vec<(TransitionId, StateId)>> = vec![Vec::new()];
    // The initial state always exists, even under a zero budget.
    meter.take_state();

    let mut frontier = 0usize;
    'explore: while frontier < states.len() {
        if meter.should_stop() {
            break 'explore;
        }
        let marking = states[frontier].clone();
        for t in net.transition_ids() {
            if !net.is_enabled(&marking, t) {
                continue;
            }
            if !meter.take_transition() {
                break 'explore;
            }
            // An enabled transition fails to fire only when a count
            // would pass `u32::MAX`.
            let Ok(next) = net.fire(&marking, t) else {
                meter.stop(Resource::Storage);
                break 'explore;
            };
            let target = match index.get(&next) {
                Some(&id) => id,
                None => {
                    if !meter.take_state() {
                        break 'explore;
                    }
                    let id = states.len();
                    states.push(next.clone());
                    edges.push(Vec::new());
                    index.insert(next, id);
                    id
                }
            };
            edges[frontier].push((t, StateId::from_index(target)));
        }
        frontier += 1;
    }
    Reachability {
        markings: states.iter().map(|m| m.as_slice().to_vec()).collect(),
        edges,
        exhausted: meter.report(),
    }
}

/// The reference `cpn_core::hide_labels_bounded` must match exactly,
/// partial results included: one [`hide_transition`] rebuild per
/// contraction, rescanning `transitions_with_label` from the first match
/// every round (the rebuild renumbers transitions, so a resume cursor
/// would skip late-inserted duplicates).
///
/// # Errors
///
/// Structural contraction errors surface as [`CoreError`]; running out
/// of budget does not.
pub fn hide_labels<L: Label>(
    net: &PetriNet<L>,
    labels: &BTreeSet<L>,
    budget: &Budget,
) -> Result<Bounded<PetriNet<L>>, CoreError> {
    let mut meter = Meter::new(budget);
    let mut current = net.clone();
    for l in labels {
        loop {
            let Some(t) = current.transitions_with_label(l).next() else {
                current.undeclare_label(l);
                break;
            };
            if !meter.take_transition() {
                return Ok(meter.finish(current));
            }
            current = hide_transition(&current, t)?;
        }
    }
    Ok(meter.finish(current))
}
