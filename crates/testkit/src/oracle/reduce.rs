//! The reference `cpn_core::NetEditor::{reduce, reduce_with}` must
//! match exactly: the same net and the same
//! [`ReductionStats`](cpn_core::ReductionStats).
//!
//! Every rule reads the net it is given into plain per-element sets,
//! computes producers and consumers afresh whenever it asks, keeps its
//! signatures in `BTreeSet`s, and rebuilds a fresh net when it is done.
//! It shares no index, arena, path key or signature code with the
//! editor.
//!
//! The rules keep the editor's survivors: the first transition in net
//! order of each duplicate class, the first place of each redundant
//! class, and net order for the visits of self-loop elimination and the
//! two series fusions. A net the editor finishes lists its places in
//! arena order and its transitions in the order the editor keeps them,
//! so the trace-exact rules agree on any editor; the series fusions
//! visit transitions in arena order, which is net order only on a fresh
//! editor.

use cpn_core::ReductionStats;
use cpn_petri::{AlphaSet, Label, PetriError, PetriNet, PlaceId, Sym};
use std::collections::BTreeSet;

/// Runs the three trace-exact rules (duplicate transitions, redundant
/// places, stranded transitions and isolated places) to a joint
/// fixpoint, one rebuilt net per rule pass.
///
/// # Errors
///
/// Rebuild failures only, which no rule provokes on a well-formed net.
pub fn reduce<L: Label>(net: &PetriNet<L>) -> Result<(PetriNet<L>, ReductionStats), PetriError> {
    let mut net = net.clone();
    let mut stats = ReductionStats::default();
    while trace_exact_pass(&mut net, &mut stats)? > 0 {}
    Ok((net, stats))
}

/// [`reduce`] plus self-loop place elimination and the series place
/// and transition fusions, with `keep` (symbols of `net`'s interner) the
/// observable alphabet: a transition whose symbol is outside it is
/// internal.
///
/// # Errors
///
/// Rebuild failures only, which no rule provokes on a well-formed net.
pub fn reduce_with<L: Label>(
    net: &PetriNet<L>,
    keep: &AlphaSet,
) -> Result<(PetriNet<L>, ReductionStats), PetriError> {
    let mut net = net.clone();
    let mut stats = ReductionStats::default();
    loop {
        let exact = trace_exact_pass(&mut net, &mut stats)?;
        let sl = apply(&mut net, self_loop_places)?;
        let fsp = apply(&mut net, |parts| series_places(parts, keep))?;
        let fst = apply(&mut net, |parts| series_transitions(parts, keep))?;
        stats.self_loop_places += sl;
        stats.series_places += fsp;
        stats.series_transitions += fst;
        if exact + sl + fsp + fst == 0 {
            return Ok((net, stats));
        }
    }
}

/// One pass of the three trace-exact rules; returns how many elements
/// it removed.
fn trace_exact_pass<L: Label>(
    net: &mut PetriNet<L>,
    stats: &mut ReductionStats,
) -> Result<usize, PetriError> {
    let d = apply(net, duplicate_transitions)?;
    let r = apply(net, redundant_places)?;
    let (s, iso) = apply(net, stranded)?;
    stats.duplicate_transitions += d;
    stats.redundant_places += r;
    stats.stranded_transitions += s;
    stats.isolated_places += iso;
    Ok(d + r + s + iso)
}

/// Runs one rule on a plain copy of `net` and replaces `net` with the
/// rebuilt result.
fn apply<L: Label, R>(
    net: &mut PetriNet<L>,
    rule: impl FnOnce(&mut Parts) -> R,
) -> Result<R, PetriError> {
    let mut parts = Parts::of(net);
    let found = rule(&mut parts);
    *net = parts.build(net)?;
    Ok(found)
}

/// A transition as plain data: preset, symbol, postset.
type Trans = (BTreeSet<usize>, Sym, BTreeSet<usize>);

/// A net as plain data; a removed element becomes `None`.
struct Parts {
    /// Name and initial tokens per place.
    places: Vec<Option<(String, u32)>>,
    transitions: Vec<Option<Trans>>,
}

impl Parts {
    fn of<L: Label>(net: &PetriNet<L>) -> Parts {
        let m0 = net.initial_marking();
        let indices = |s: &BTreeSet<PlaceId>| s.iter().map(|p| p.index()).collect();
        Parts {
            places: net
                .places()
                .map(|(p, place)| Some((place.name().to_owned(), m0.tokens(p))))
                .collect(),
            transitions: net
                .transitions()
                .map(|(_, t)| Some((indices(t.preset()), t.sym(), indices(t.postset()))))
                .collect(),
        }
    }

    fn live(&self) -> impl Iterator<Item = (usize, &Trans)> {
        self.transitions
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (i, t)))
    }

    /// Live transitions with `p` in their preset.
    fn consumers(&self, p: usize) -> BTreeSet<usize> {
        self.live()
            .filter(|(_, t)| t.0.contains(&p))
            .map(|(i, _)| i)
            .collect()
    }

    /// Live transitions with `p` in their postset.
    fn producers(&self, p: usize) -> BTreeSet<usize> {
        self.live()
            .filter(|(_, t)| t.2.contains(&p))
            .map(|(i, _)| i)
            .collect()
    }

    fn tokens(&self, p: usize) -> Option<u32> {
        self.places[p].as_ref().map(|(_, tokens)| *tokens)
    }

    /// Removes place `p` and every arc to or from it.
    fn remove_place(&mut self, p: usize) {
        for (pre, _, post) in self.transitions.iter_mut().flatten() {
            pre.remove(&p);
            post.remove(&p);
        }
        self.places[p] = None;
    }

    /// The surviving places and transitions, in order, in `net`'s symbol
    /// space, with `net`'s alphabet declared.
    fn build<L: Label>(&self, net: &PetriNet<L>) -> Result<PetriNet<L>, PetriError> {
        let mut out: PetriNet<L> = PetriNet::with_interner(net.interner().clone());
        let mut ids: Vec<Option<PlaceId>> = vec![None; self.places.len()];
        for (i, place) in self.places.iter().enumerate() {
            if let Some((name, tokens)) = place {
                let id = out.add_place(name.clone());
                out.set_initial(id, *tokens);
                ids[i] = Some(id);
            }
        }
        let map = |s: &BTreeSet<usize>| -> Result<Vec<PlaceId>, PetriError> {
            s.iter()
                .map(|&p| ids[p].ok_or(PetriError::UnknownPlace(p as u32)))
                .collect()
        };
        for (pre, sym, post) in self.transitions.iter().flatten() {
            out.add_transition_sym(map(pre)?, *sym, map(post)?)?;
        }
        for s in net.alphabet_syms().iter() {
            out.declare_sym(s);
        }
        Ok(out)
    }
}

/// Transitions with the label, preset and postset of an earlier one.
fn duplicate_transitions(parts: &mut Parts) -> usize {
    let mut seen: BTreeSet<Trans> = BTreeSet::new();
    let mut removed = 0;
    for t in &mut parts.transitions {
        if let Some(sig) = t.clone() {
            if !seen.insert(sig) {
                *t = None;
                removed += 1;
            }
        }
    }
    removed
}

/// Connected places with the producers, consumers and initial tokens of
/// an earlier place.
fn redundant_places(parts: &mut Parts) -> usize {
    let mut seen: BTreeSet<(BTreeSet<usize>, BTreeSet<usize>, u32)> = BTreeSet::new();
    let mut removed = 0;
    for p in 0..parts.places.len() {
        let Some(tokens) = parts.tokens(p) else {
            continue;
        };
        let (producers, consumers) = (parts.producers(p), parts.consumers(p));
        if producers.is_empty() && consumers.is_empty() {
            continue;
        }
        if !seen.insert((producers, consumers, tokens)) {
            parts.remove_place(p);
            removed += 1;
        }
    }
    removed
}

/// Removes, one at a time until none is left, a transition reading an
/// unmarked place that nothing produces into; then removes the unmarked
/// places no transition touches. Returns both counts.
fn stranded(parts: &mut Parts) -> (usize, usize) {
    let is_stranded =
        |parts: &Parts, p: usize| parts.tokens(p) == Some(0) && parts.producers(p).is_empty();
    let mut pruned = 0;
    loop {
        let next = parts
            .live()
            .find(|(_, (pre, _, _))| pre.iter().any(|&p| is_stranded(parts, p)))
            .map(|(t, _)| t);
        let Some(t) = next else {
            break;
        };
        parts.transitions[t] = None;
        pruned += 1;
    }
    let mut dropped = 0;
    for p in 0..parts.places.len() {
        if parts.tokens(p) == Some(0)
            && parts.producers(p).is_empty()
            && parts.consumers(p).is_empty()
        {
            parts.places[p] = None;
            dropped += 1;
        }
    }
    (pruned, dropped)
}

/// Places holding one token that every adjacent transition both reads
/// and writes, unless some adjacent transition would lose its last arc.
fn self_loop_places(parts: &mut Parts) -> usize {
    let mut removed = 0;
    for p in 0..parts.places.len() {
        if parts.tokens(p) != Some(1) {
            continue;
        }
        let consumers = parts.consumers(p);
        if consumers.is_empty() || consumers != parts.producers(p) {
            continue;
        }
        let degenerates = consumers.iter().any(|&t| {
            parts.transitions[t]
                .as_ref()
                .is_some_and(|(pre, _, post)| pre.len() == 1 && post.len() == 1)
        });
        if !degenerates {
            parts.remove_place(p);
            removed += 1;
        }
    }
    removed
}

/// Erases each internal transition that only moves a token from `p`
/// (which something else produces into, and which it alone reads) to
/// `q` (which it alone produces into), merging `q` into `p`.
fn series_places(parts: &mut Parts, keep: &AlphaSet) -> usize {
    let mut fused = 0;
    for t in 0..parts.transitions.len() {
        let Some((pre, sym, post)) = parts.transitions[t].clone() else {
            continue;
        };
        if keep.contains(sym) || pre.len() != 1 || post.len() != 1 {
            continue;
        }
        let (Some(&p), Some(&q)) = (pre.first(), post.first()) else {
            continue;
        };
        let only_t = BTreeSet::from([t]);
        if p == q
            || parts.consumers(p) != only_t
            || parts.producers(q) != only_t
            || parts.producers(p).is_empty()
        {
            continue;
        }
        parts.transitions[t] = None;
        let Some((q_name, q_tokens)) = parts.places[q].take() else {
            continue;
        };
        for (pre, _, _) in parts.transitions.iter_mut().flatten() {
            if pre.remove(&q) {
                pre.insert(p);
            }
        }
        if let Some((name, tokens)) = parts.places[p].as_mut() {
            *tokens += q_tokens;
            *name = format!("({name}.{q_name})");
        }
        fused += 1;
    }
    fused
}

/// Folds each internal transition `u` whose only input is an unmarked
/// place `i`, produced into by one other transition `t` alone, into
/// `t`, when `u` outputs somewhere and nowhere `t` already does.
fn series_transitions(parts: &mut Parts, keep: &AlphaSet) -> usize {
    let mut fused = 0;
    for i in 0..parts.places.len() {
        if parts.tokens(i) != Some(0) {
            continue;
        }
        let (producers, consumers) = (parts.producers(i), parts.consumers(i));
        if producers.len() != 1 || consumers.len() != 1 {
            continue;
        }
        let (Some(&t), Some(&u)) = (producers.first(), consumers.first()) else {
            continue;
        };
        if t == u {
            continue;
        }
        let (Some((u_pre, u_sym, u_post)), Some((_, _, t_post))) =
            (parts.transitions[u].clone(), parts.transitions[t].as_ref())
        else {
            continue;
        };
        if keep.contains(u_sym) || u_pre.len() != 1 || u_post.is_empty() {
            continue;
        }
        if !u_post.is_disjoint(t_post) {
            continue;
        }
        parts.transitions[u] = None;
        if let Some((_, _, t_post)) = parts.transitions[t].as_mut() {
            t_post.remove(&i);
            t_post.extend(u_post);
        }
        parts.places[i] = None;
        fused += 1;
    }
    fused
}
