//! The contraction **engine**: in-place net editing for hiding and
//! structural reduction.
//!
//! [`hide_transition`](crate::hide_transition) is the paper's
//! Definition 4.10 in its purest form — and it rebuilds a fresh
//! [`PetriNet`] per contraction, re-scanning all transitions for the
//! preset/postset precondition. That is fine for one contraction and
//! quadratic for a hiding pass. This module provides the production
//! path: a [`NetEditor`] holding the net in tombstoned arenas with flat
//! adjacency — every preset, postset, consumer row (place → transitions
//! reading it) and producer row (place → transitions feeding it) is a
//! sorted `Vec<u32>`, and one sorted `(symbol, transition)` vector
//! serves as the hiding worklist —
//!
//! so that each contraction is an **in-place splice** (delete `t`, mint
//! the product places, rewrite the adjacent transitions, append the
//! virtual duplicates), the both-sides precondition is a merge of
//! consumer rows, and multi-label hiding drains a correctly-maintained
//! worklist: a duplicate that carries a hidden label is re-enqueued by
//! the same index update that registers it. Nothing is sized by the
//! interner, which keeps every label a net ever carried.
//!
//! # Order replication
//!
//! The reference implementation (`cpn_testkit::oracle::hide_labels`)
//! always contracts the *first* transition carrying the label, and its
//! rebuild inserts every virtual duplicate immediately after the real
//! variant it was copied from. The editor replicates that order exactly
//! with a **path key** per transition, stored back to back in one key
//! arena: original transition `i` carries key `[i]`; a duplicate of `u`
//! carries `key(u) ++ [c]` with a globally decreasing counter `c`.
//! Lexicographic order on keys then equals the legacy net order at every
//! step (a duplicate sorts right behind its parent, and a later-round
//! duplicate of the same parent sorts before an earlier one, exactly as
//! repeated rebuilds interleave them), so the engine selects the same
//! contraction at every step, produces bit-identical results, and
//! reports bit-identical [`Bounded::Exhausted`](cpn_petri::Bounded)
//! prefixes — the contract the differential property suite in
//! `tests/contract_equivalence.rs` enforces.
//!
//! # Reduction rules
//!
//! On top of contraction the editor offers three structural reduction
//! rules, each preserving the trace language *exactly* (not merely up to
//! a depth):
//!
//! * [`dedup_transitions`](NetEditor::dedup_transitions) — duplicate
//!   transitions (same label, preset and postset) collapse to one;
//! * [`remove_redundant_places`](NetEditor::remove_redundant_places) —
//!   places with identical producers, consumers and initial marking hold
//!   identical token counts in every reachable marking, so all but one
//!   are implied constraints;
//! * [`prune_stranded`](NetEditor::prune_stranded) — a transition whose
//!   preset contains an unmarked place with no producers can never fire;
//!   removing it (to a fixpoint) and dropping the unmarked places left
//!   isolated is what completes the marked-graph collapse of Figure
//!   3(c): the two places straddling a contracted silent transition fuse
//!   into their product place.
//!
//! [`reduce`](NetEditor::reduce) runs the three to a joint fixpoint —
//! the between-contraction cleanup that stops product-place accretion in
//! long hiding chains. The two signature rules hash each element's rows
//! into a scratch buffer the editor keeps, sort it by hash and then by
//! the rows themselves, and compare neighbours: a pass allocates nothing
//! once the buffers have grown, and equal signatures meet whatever the
//! hashes do. The survivor of each class is the one first in order — the
//! least path key, the lowest place slot — as the reference
//! `cpn_testkit::oracle::reduce` checks.
//!
//! # Safe-net reduction
//!
//! [`reduce_with`](NetEditor::reduce_with) layers the safe-net rules on
//! top: self-loop place elimination and the two series fusions (FSP and
//! FST, after Khomenko's safe-net reduction catalogue), which erase
//! *internal* transitions outright. The result is no longer trace-exact
//! on the full alphabet — it preserves safety, deadlock-freedom, the
//! observable-projected language, and liveness modulo dead-transition
//! pruning (the precise contract is on `reduce_with` itself, and the
//! differential battery in `tests/reduction_equivalence.rs` enforces
//! it). [`reduce_for_analysis`] is the net-level wrapper.

use cpn_petri::{
    AlphaSet, Budget, Interner, Label, Meter, PetriError, PetriNet, PlaceId, Sym, TransitionId,
};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// A place record in the editor arena.
#[derive(Clone, Debug)]
struct PlaceRec {
    name: String,
    tokens: u32,
}

/// A transition record in the editor arena: sorted, duplicate-free
/// place rows, the label as an interned [`Sym`] in the editor's symbol
/// space, and the `(start, len)` of its path key in the key arena (see
/// the module docs).
#[derive(Clone, Debug)]
struct TransRec {
    preset: Vec<u32>,
    sym: Sym,
    postset: Vec<u32>,
    key: (u32, u32),
}

/// Buffers the rule passes and contractions reuse, so that a pass
/// allocates nothing once they have grown.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// `(signature hash, slot)` of one signature pass.
    sigs: Vec<(u64, u32)>,
    /// Slots a pass collects: consumers, successors, pruning stack.
    slots: Vec<u32>,
}

/// Counts of what [`NetEditor::reduce`] removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Duplicate transitions collapsed (same label/preset/postset).
    pub duplicate_transitions: usize,
    /// Redundant places removed (identical producers/consumers/marking).
    pub redundant_places: usize,
    /// Structurally dead transitions pruned (unmarked producer-less
    /// preset place).
    pub stranded_transitions: usize,
    /// Unmarked places left with no adjacent transitions.
    pub isolated_places: usize,
    /// Series place fusions (an internal transition erased, its two
    /// surrounding places merged). Only [`NetEditor::reduce_with`].
    pub series_places: usize,
    /// Series transition fusions (an internal follower folded into its
    /// sole feeder). Only [`NetEditor::reduce_with`].
    pub series_transitions: usize,
    /// Constant self-loop places dropped. Only
    /// [`NetEditor::reduce_with`].
    pub self_loop_places: usize,
}

impl ReductionStats {
    /// Total number of elements removed.
    pub fn total(&self) -> usize {
        self.duplicate_transitions
            + self.redundant_places
            + self.stranded_transitions
            + self.isolated_places
            + self.series_places
            + self.series_transitions
            + self.self_loop_places
    }
}

/// A mutable, indexed view of a [`PetriNet`] supporting in-place
/// contraction (Definition 4.10) and structural reduction.
///
/// Build one with [`NetEditor::from_net`], edit, then materialize the
/// result with [`NetEditor::finish`]. See the module docs for the
/// invariants (tombstoned arenas, sorted adjacency rows, path-key
/// order).
#[derive(Clone, Debug)]
pub struct NetEditor<L: Label> {
    places: Vec<Option<PlaceRec>>,
    transitions: Vec<Option<TransRec>>,
    /// Every transition's path key, back to back.
    keys: Vec<u32>,
    /// `(symbol, slot)` of every live transition, sorted, so the
    /// transitions carrying one label form a run (the hiding worklist).
    by_sym: Vec<(Sym, u32)>,
    /// The symbol space, snapshotted from the source net (append-only).
    interner: Interner<L>,
    alphabet: AlphaSet,
    /// place → live transitions with the place in their preset.
    consumers: Vec<Vec<u32>>,
    /// place → live transitions with the place in their postset.
    producers: Vec<Vec<u32>>,
    /// Globally decreasing duplicate counter (see module docs).
    dup_counter: u32,
    live_places: usize,
    live_transitions: usize,
    contractions: usize,
    edits: usize,
    scratch: Scratch,
}

impl<L: Label> NetEditor<L> {
    /// Builds an editor over a copy of `net`. Place and transition arena
    /// slots initially coincide with the net's ids, so original
    /// [`TransitionId`]s remain valid selectors until the first edit.
    pub fn from_net(net: &PetriNet<L>) -> Self {
        let m0 = net.initial_marking();
        let places: Vec<Option<PlaceRec>> = net
            .places()
            .map(|(id, p)| {
                Some(PlaceRec {
                    name: p.name().to_owned(),
                    tokens: m0.tokens(id),
                })
            })
            .collect();
        let mut consumers = vec![Vec::new(); places.len()];
        let mut producers = vec![Vec::new(); places.len()];
        let rows = |s: &BTreeSet<PlaceId>| s.iter().map(|p| p.index() as u32).collect();
        let mut transitions = Vec::with_capacity(net.transition_count());
        for (id, t) in net.transitions() {
            let i = id.index() as u32;
            for &p in t.preset() {
                consumers[p.index()].push(i);
            }
            for &p in t.postset() {
                producers[p.index()].push(i);
            }
            transitions.push(Some(TransRec {
                preset: rows(t.preset()),
                sym: t.sym(),
                postset: rows(t.postset()),
                key: (i, 1),
            }));
        }
        let mut by_sym: Vec<(Sym, u32)> = net
            .transitions()
            .map(|(id, t)| (t.sym(), id.index() as u32))
            .collect();
        by_sym.sort_unstable();
        NetEditor {
            live_places: places.len(),
            live_transitions: transitions.len(),
            places,
            transitions,
            keys: (0..net.transition_count() as u32).collect(),
            by_sym,
            interner: net.interner().clone(),
            alphabet: net.alphabet_syms().clone(),
            consumers,
            producers,
            dup_counter: u32::MAX,
            contractions: 0,
            edits: 0,
            scratch: Scratch::default(),
        }
    }

    /// Number of live (non-tombstoned) places.
    pub fn place_count(&self) -> usize {
        self.live_places
    }

    /// Number of live (non-tombstoned) transitions.
    pub fn transition_count(&self) -> usize {
        self.live_transitions
    }

    /// Contractions performed so far.
    pub fn contractions(&self) -> usize {
        self.contractions
    }

    /// Monotone edit counter: increments on every structural change
    /// (contraction, rule removal, transition removal). Snapshot it to
    /// detect whether a phase changed anything.
    pub fn edits(&self) -> usize {
        self.edits
    }

    // ------------------------------------------------------------------
    // Internal arena/index plumbing
    // ------------------------------------------------------------------

    fn add_place_rec(&mut self, name: String, tokens: u32) -> u32 {
        let id = self.places.len() as u32;
        self.places.push(Some(PlaceRec { name, tokens }));
        self.consumers.push(Vec::new());
        self.producers.push(Vec::new());
        self.live_places += 1;
        id
    }

    /// Appends a duplicate of the transition whose path key spans
    /// `parent` in the key arena; the duplicate's key is
    /// `key(parent) ++ [c]` for the next counter value `c`.
    fn add_duplicate(&mut self, preset: Vec<u32>, sym: Sym, postset: Vec<u32>, parent: (u32, u32)) {
        let id = self.transitions.len() as u32;
        let (start, len) = parent;
        let key = (self.keys.len() as u32, len + 1);
        self.keys
            .extend_from_within(start as usize..(start + len) as usize);
        self.keys.push(self.dup_counter);
        self.dup_counter -= 1;
        // The new slot is the highest, so pushing keeps each row sorted.
        for &p in &preset {
            self.consumers[p as usize].push(id);
        }
        for &p in &postset {
            self.producers[p as usize].push(id);
        }
        self.transitions.push(Some(TransRec {
            preset,
            sym,
            postset,
            key,
        }));
        let at = self.by_sym.partition_point(|&e| e < (sym, id));
        self.by_sym.insert(at, (sym, id));
        self.live_transitions += 1;
    }

    /// Unlinks a transition from every index and tombstones it,
    /// returning its record. `None` if the slot was already dead.
    fn detach(&mut self, t: usize) -> Option<TransRec> {
        let rec = self.transitions.get_mut(t)?.take()?;
        let tid = t as u32;
        for &p in &rec.preset {
            remove_sorted(&mut self.consumers[p as usize], tid);
        }
        for &p in &rec.postset {
            remove_sorted(&mut self.producers[p as usize], tid);
        }
        if let Ok(i) = self.by_sym.binary_search(&(rec.sym, tid)) {
            self.by_sym.remove(i);
        }
        self.live_transitions -= 1;
        self.edits += 1;
        Some(rec)
    }

    fn tombstone_place(&mut self, p: usize) {
        if self.places[p].take().is_some() {
            self.live_places -= 1;
            self.edits += 1;
        }
        self.consumers[p].clear();
        self.producers[p].clear();
    }

    /// The path key of a transition record.
    fn key(&self, rec: &TransRec) -> &[u32] {
        &self.keys[rec.key.0 as usize..(rec.key.0 + rec.key.1) as usize]
    }

    /// The path key of live slot `t` (empty for a dead one).
    fn key_of(&self, t: u32) -> &[u32] {
        self.transitions[t as usize]
            .as_ref()
            .map_or(&[], |rec| self.key(rec))
    }

    /// The live transition carrying `sym` that is first in legacy net
    /// order (minimal path key) — a scan of its run in the symbol index.
    fn first_with_sym(&self, sym: Sym) -> Option<usize> {
        let at = self.by_sym.partition_point(|&(s, _)| s < sym);
        self.by_sym[at..]
            .iter()
            .take_while(|&&(s, _)| s == sym)
            .min_by(|a, b| self.key_of(a.1).cmp(self.key_of(b.1)))
            .map(|&(_, t)| t as usize)
    }

    /// Whether place `p` is live, unmarked and fed by no transition.
    fn stranded(&self, p: usize) -> bool {
        self.places[p].as_ref().is_some_and(|r| r.tokens == 0) && self.producers[p].is_empty()
    }

    // ------------------------------------------------------------------
    // Contraction (Definition 4.10, in place)
    // ------------------------------------------------------------------

    /// Contracts transition `t` out of the net in place — the splice
    /// form of [`hide_transition`](crate::hide_transition): delete `t`,
    /// mint the product places `p × q`, rewrite the `p`-adjacent
    /// transitions onto the product rows, and append one virtual
    /// duplicate per successor.
    ///
    /// # Errors
    ///
    /// The same structural failures as
    /// [`hide_transition`](crate::hide_transition):
    /// [`PetriError::UnknownTransition`] for a dead or out-of-range
    /// slot, [`PetriError::HideSelfLoop`] for a self-loop (divergence),
    /// and [`PetriError::Precondition`] for an empty preset/postset or a
    /// transition consuming from both sides of `t`.
    pub fn contract(&mut self, t: usize) -> Result<(), PetriError> {
        let tid = t as u32;
        let Some(rec) = self.transitions.get(t).and_then(Option::as_ref) else {
            return Err(PetriError::UnknownTransition(tid));
        };
        if intersects(&rec.preset, &rec.postset) {
            return Err(PetriError::HideSelfLoop(tid));
        }
        if rec.preset.is_empty() || rec.postset.is_empty() {
            return Err(PetriError::Precondition(
                "contraction needs a non-empty preset and postset".to_owned(),
            ));
        }
        if let Some(&x) = rec
            .preset
            .iter()
            .chain(&rec.postset)
            .find(|&&x| self.places[x as usize].is_none())
        {
            return Err(PetriError::UnknownPlace(x));
        }

        // Both-sides precondition over the consumer rows: a transition
        // consuming from p *and* q would need two tokens from one
        // product place — inexpressible with set-valued arcs.
        let mut work = std::mem::take(&mut self.scratch.slots);
        work.clear();
        for &x in &rec.preset {
            work.extend_from_slice(&self.consumers[x as usize]);
        }
        work.sort_unstable();
        work.dedup();
        let both = rec.postset.iter().find_map(|&y| {
            self.consumers[y as usize]
                .iter()
                .find(|&&u| u != tid && work.binary_search(&u).is_ok())
        });
        if let Some(&uid) = both {
            self.scratch.slots = work;
            return Err(PetriError::Precondition(format!(
                "transition t{uid} consumes from both the preset and the postset of the hidden transition"
            )));
        }

        let Some(TransRec {
            preset: p,
            postset: q,
            ..
        }) = self.detach(t)
        else {
            return Err(PetriError::UnknownTransition(tid));
        };

        // Successors (consumers of q) snapshot — rewriting below only
        // touches p-membership, and no successor consumes from p.
        work.clear();
        for &y in &q {
            work.extend_from_slice(&self.consumers[y as usize]);
        }
        work.sort_unstable();
        work.dedup();

        // Mint the product places (p_i, q_j), marked with M0(p_i): the
        // row of p_i is the slot range base + i·|q| .. base + (i+1)·|q|.
        let base = self.places.len() as u32;
        let width = q.len() as u32;
        for &pi in &p {
            for &qj in &q {
                let (name, tokens) = match (&self.places[pi as usize], &self.places[qj as usize]) {
                    (Some(a), Some(b)) => (format!("({},{})", a.name, b.name), a.tokens),
                    _ => unreachable!("the places of a live transition are checked live above"),
                };
                self.add_place_rec(name, tokens);
            }
        }
        let products = base..base + p.len() as u32 * width;

        // Rewrite every p-adjacent transition onto the product rows. Each
        // row's slots exceed every existing place, so appending keeps the
        // rows sorted.
        for (i, &pi) in p.iter().enumerate() {
            let row = base + i as u32 * width..base + (i as u32 + 1) * width;
            for uid in std::mem::take(&mut self.consumers[pi as usize]) {
                if let Some(rec) = self.transitions[uid as usize].as_mut() {
                    remove_sorted(&mut rec.preset, pi);
                    rec.preset.extend(row.clone());
                }
                for np in row.clone() {
                    self.consumers[np as usize].push(uid);
                }
            }
            for uid in std::mem::take(&mut self.producers[pi as usize]) {
                if let Some(rec) = self.transitions[uid as usize].as_mut() {
                    remove_sorted(&mut rec.postset, pi);
                    rec.postset.extend(row.clone());
                }
                for np in row.clone() {
                    self.producers[np as usize].push(uid);
                }
            }
        }

        // One virtual duplicate per successor: consume the complete
        // pending firing of t plus the non-q preset, re-emit the q
        // places the successor does not consume itself. A successor
        // reads no p place, so its preset holds no product place and the
        // duplicate always differs from it.
        for &uid in &work {
            let Some(rec) = self.transitions[uid as usize].as_ref() else {
                continue;
            };
            let mut vpre: Vec<u32> = rec
                .preset
                .iter()
                .copied()
                .filter(|x| q.binary_search(x).is_err())
                .collect();
            vpre.extend(products.clone());
            let mut vpost = rec.postset.clone();
            for &qj in &q {
                if rec.preset.binary_search(&qj).is_err() {
                    insert_sorted(&mut vpost, qj);
                }
            }
            let (sym, key) = (rec.sym, rec.key);
            self.add_duplicate(vpre, sym, vpost, key);
        }
        self.scratch.slots = work;

        for &pi in &p {
            self.tombstone_place(pi as usize);
        }
        self.contractions += 1;
        Ok(())
    }

    /// Drains the worklist for one label: repeatedly contracts the
    /// first (legacy-order) transition carrying `label`, charging one
    /// transition per contraction against `meter`.
    ///
    /// Worklist invariant: the symbol index *is* the worklist. A
    /// contraction that duplicates a transition carrying `label`
    /// re-enqueues the duplicate through the same index update that
    /// registers it, so no separate rescan is needed; path-key selection
    /// keeps the order identical to the legacy rescan.
    ///
    /// Returns `true` when the label is fully hidden (and undeclared),
    /// `false` when the meter ran out first (the label stays declared,
    /// matching the legacy partial result).
    ///
    /// # Errors
    ///
    /// Propagates [`NetEditor::contract`] failures.
    pub fn hide_label(&mut self, label: &L, meter: &mut Meter) -> Result<bool, PetriError> {
        let Some(sym) = self.interner.get(label) else {
            return Ok(true); // never interned — nothing to hide
        };
        self.hide_sym(sym, meter)
    }

    /// Symbol-space twin of [`hide_label`](Self::hide_label).
    ///
    /// # Errors
    ///
    /// Propagates [`NetEditor::contract`] failures.
    pub fn hide_sym(&mut self, sym: Sym, meter: &mut Meter) -> Result<bool, PetriError> {
        loop {
            let Some(t) = self.first_with_sym(sym) else {
                self.alphabet.remove(sym);
                return Ok(true);
            };
            if !meter.take_transition() {
                return Ok(false);
            }
            self.contract(t)?;
        }
    }

    /// Hides a set of labels under one shared meter (the engine behind
    /// [`hide_labels_bounded`](crate::hide_labels_bounded)). Returns
    /// `true` when every label was fully hidden.
    ///
    /// # Errors
    ///
    /// Propagates [`NetEditor::contract`] failures.
    pub fn hide_labels(
        &mut self,
        labels: &BTreeSet<L>,
        meter: &mut Meter,
    ) -> Result<bool, PetriError> {
        for l in labels {
            if !self.hide_label(l, meter)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Removes a batch of transitions by their **original** net ids.
    ///
    /// Valid only while original ids still coincide with arena slots —
    /// i.e. before any contraction (duplicates shift nothing, but
    /// contraction tombstones and appends). The fused synthesis pipeline
    /// calls this with the dead-transition set right after
    /// [`NetEditor::from_net`].
    pub fn remove_transitions(&mut self, remove: &BTreeSet<TransitionId>) {
        for &t in remove {
            self.detach(t.index());
        }
    }

    // ------------------------------------------------------------------
    // Structural reduction rules (each exactly trace-preserving)
    // ------------------------------------------------------------------

    /// Orders live transitions `a` and `b` by label, preset and postset.
    fn cmp_transitions(&self, a: u32, b: u32) -> Ordering {
        match (&self.transitions[a as usize], &self.transitions[b as usize]) {
            (Some(x), Some(y)) => {
                (x.sym, &x.preset, &x.postset).cmp(&(y.sym, &y.preset, &y.postset))
            }
            (x, y) => x.is_some().cmp(&y.is_some()),
        }
    }

    /// Orders places `a` and `b` by producers, consumers and marking.
    fn cmp_places(&self, a: u32, b: u32) -> Ordering {
        let (a, b) = (a as usize, b as usize);
        let tokens = |p: usize| self.places[p].as_ref().map(|r| r.tokens);
        (&self.producers[a], &self.consumers[a], tokens(a)).cmp(&(
            &self.producers[b],
            &self.consumers[b],
            tokens(b),
        ))
    }

    /// Sorts `sigs` by hash, then each run of equal hashes by the full
    /// signature `same` and then by `first`, and returns the slots equal
    /// to their predecessor: every member of a class but the one `first`
    /// puts first. Runs are almost always single, so the common case is
    /// a plain integer sort, and colliding hashes still cost
    /// `O(n log n)`.
    fn duplicates(
        &self,
        sigs: &mut [(u64, u32)],
        same: impl Fn(&Self, u32, u32) -> Ordering,
        first: impl Fn(&Self, u32, u32) -> Ordering,
        out: &mut Vec<u32>,
    ) {
        sigs.sort_unstable();
        out.clear();
        for run in sigs.chunk_by_mut(|a, b| a.0 == b.0) {
            if run.len() < 2 {
                continue;
            }
            run.sort_unstable_by(|a, b| same(self, a.1, b.1).then_with(|| first(self, a.1, b.1)));
            for w in run.windows(2) {
                if same(self, w[0].1, w[1].1) == Ordering::Equal {
                    out.push(w[1].1);
                }
            }
        }
    }

    /// Collapses duplicate transitions (same label, preset and postset)
    /// to the one earliest in legacy order. Returns the number removed.
    pub fn dedup_transitions(&mut self) -> usize {
        let mut sigs = std::mem::take(&mut self.scratch.sigs);
        let mut kill = std::mem::take(&mut self.scratch.slots);
        sigs.clear();
        for (t, rec) in self.transitions.iter().enumerate() {
            if let Some(rec) = rec {
                let h = hash_rows(rec.sym.index() as u64, &rec.preset, &rec.postset);
                sigs.push((h, t as u32));
            }
        }
        self.duplicates(
            &mut sigs,
            Self::cmp_transitions,
            |ed, a, b| ed.key_of(a).cmp(ed.key_of(b)),
            &mut kill,
        );
        for &t in &kill {
            self.detach(t as usize);
        }
        let removed = kill.len();
        self.scratch = Scratch { sigs, slots: kill };
        removed
    }

    /// Removes places that duplicate another place's constraint: same
    /// producers, same consumers, same initial marking — their token
    /// counts stay in lockstep in every reachable marking, so all but
    /// the first are implied. Returns the number removed.
    pub fn remove_redundant_places(&mut self) -> usize {
        let mut sigs = std::mem::take(&mut self.scratch.sigs);
        let mut kill = std::mem::take(&mut self.scratch.slots);
        sigs.clear();
        for (i, rec) in self.places.iter().enumerate() {
            let Some(rec) = rec else {
                continue;
            };
            let (producers, consumers) = (&self.producers[i], &self.consumers[i]);
            if producers.is_empty() && consumers.is_empty() {
                continue; // disconnected; prune_stranded's concern
            }
            let h = hash_rows(u64::from(rec.tokens), producers, consumers);
            sigs.push((h, i as u32));
        }
        self.duplicates(&mut sigs, Self::cmp_places, |_, a, b| a.cmp(&b), &mut kill);
        // Each removed place duplicates a surviving one: every adjacent
        // transition also carries the survivor, so membership removal
        // never empties a row, and no other place's rows change.
        for &pid in &kill {
            let p = pid as usize;
            for &uid in &self.consumers[p] {
                if let Some(t) = self.transitions[uid as usize].as_mut() {
                    remove_sorted(&mut t.preset, pid);
                }
            }
            for &uid in &self.producers[p] {
                if let Some(t) = self.transitions[uid as usize].as_mut() {
                    remove_sorted(&mut t.postset, pid);
                }
            }
            self.tombstone_place(p);
        }
        let removed = kill.len();
        self.scratch = Scratch { sigs, slots: kill };
        removed
    }

    /// Prunes structurally dead transitions — any whose preset contains
    /// an unmarked place with no producers can never fire — to a
    /// fixpoint, then drops the unmarked places left with no adjacent
    /// transitions. Returns `(transitions_pruned, places_dropped)`.
    ///
    /// This is the rule that finishes the marked-graph collapse: after a
    /// series contraction the orphaned real variant consumes exactly
    /// such a stranded place.
    pub fn prune_stranded(&mut self) -> (usize, usize) {
        let mut stack = std::mem::take(&mut self.scratch.slots);
        stack.clear();
        stack.extend((0..self.places.len() as u32).filter(|&i| self.stranded(i as usize)));
        let mut pruned = 0usize;
        while let Some(x) = stack.pop() {
            for uid in std::mem::take(&mut self.consumers[x as usize]) {
                let Some(rec) = self.detach(uid as usize) else {
                    continue;
                };
                pruned += 1;
                for &y in &rec.postset {
                    if self.stranded(y as usize) {
                        stack.push(y);
                    }
                }
            }
        }
        self.scratch.slots = stack;
        let mut dropped = 0usize;
        for i in 0..self.places.len() {
            let isolated = self.places[i].as_ref().is_some_and(|r| r.tokens == 0)
                && self.consumers[i].is_empty()
                && self.producers[i].is_empty();
            if isolated {
                self.tombstone_place(i);
                dropped += 1;
            }
        }
        (pruned, dropped)
    }

    /// Runs all three reduction rules to a joint fixpoint.
    pub fn reduce(&mut self) -> ReductionStats {
        let mut meter = Meter::new(&Budget::unlimited());
        self.reduce_metered(&mut meter)
    }

    /// [`reduce`](Self::reduce) under a meter: polls the meter's
    /// deadline/cancel state before each rule pass and stops early
    /// (returning the statistics so far, on a net that is still
    /// well-formed — every individual pass is atomic) once the meter
    /// stops. The resource caps do not bound rule applications; only
    /// the interrupt axes (deadline, cancellation) apply here.
    ///
    /// One round of the three rules reaches their joint fixpoint, except
    /// that pruned transitions can leave places redundant, so a prune is
    /// followed by one more redundant-place pass. No rule enables
    /// another otherwise: a removed duplicate leaves its twin adjacent to
    /// every place it touched; a removed redundant place leaves its twin
    /// in every row it was in, so no two transitions become equal and no
    /// other place's rows change; and pruning runs to its own fixpoint.
    pub fn reduce_metered(&mut self, meter: &mut Meter) -> ReductionStats {
        let mut stats = ReductionStats::default();
        if meter.poll_interrupts() {
            return stats;
        }
        stats.duplicate_transitions = self.dedup_transitions();
        stats.redundant_places = self.remove_redundant_places();
        (stats.stranded_transitions, stats.isolated_places) = self.prune_stranded();
        if stats.stranded_transitions > 0 && !meter.poll_interrupts() {
            stats.redundant_places += self.remove_redundant_places();
        }
        stats
    }

    // ------------------------------------------------------------------
    // Safe-net reduction rules (verdict-preserving, not trace-exact)
    // ------------------------------------------------------------------

    /// Drops places that are constant self-loop observers: marked with
    /// exactly one token and looped on by every adjacent transition
    /// (`p ∈ •t ⟺ p ∈ t•`, i.e. consumers = producers as sets). Such a
    /// place holds 1 in every reachable marking — it never blocks, never
    /// overfills, never changes — so removal preserves languages, safety,
    /// liveness and deadlocks verbatim. A place whose removal would
    /// leave some adjacent transition with no arcs at all is kept.
    /// Returns the number removed.
    pub fn eliminate_self_loop_places(&mut self) -> usize {
        let mut removed = 0usize;
        for i in 0..self.places.len() {
            let constant = self.places[i].as_ref().is_some_and(|rec| rec.tokens == 1)
                && !self.consumers[i].is_empty()
                && self.consumers[i] == self.producers[i];
            if !constant {
                continue;
            }
            let degenerates = self.consumers[i].iter().any(|&uid| {
                self.transitions[uid as usize]
                    .as_ref()
                    .is_some_and(|t| t.preset.len() == 1 && t.postset.len() == 1)
            });
            if degenerates {
                continue;
            }
            let pid = i as u32;
            for &uid in &self.consumers[i] {
                if let Some(t) = self.transitions[uid as usize].as_mut() {
                    remove_sorted(&mut t.preset, pid);
                    remove_sorted(&mut t.postset, pid);
                }
            }
            self.tombstone_place(i);
            removed += 1;
        }
        removed
    }

    /// Whether transition `t` is a series-place-fusion pivot under the
    /// observable alphabet `keep`: internal, `•t = {p}`, `t• = {q}`,
    /// `p ≠ q`, `t` is `p`'s only consumer and `q`'s only producer, and
    /// `p` has at least one producer (the liveness-preservation gate —
    /// without it, erasing a once-only internal transition could turn an
    /// all-live verdict from false to true).
    fn fsp_candidate(&self, t: usize, keep: &AlphaSet) -> Option<(u32, u32)> {
        let rec = self.transitions.get(t)?.as_ref()?;
        if keep.contains(rec.sym) {
            return None;
        }
        let (&[p], &[q]) = (rec.preset.as_slice(), rec.postset.as_slice()) else {
            return None;
        };
        let sole = [t as u32];
        if p != q
            && self.consumers[p as usize] == sole
            && self.producers[q as usize] == sole
            && !self.producers[p as usize].is_empty()
        {
            Some((p, q))
        } else {
            None
        }
    }

    /// **Series place fusion** (the FSP rule of safe-net reduction): an
    /// internal transition `t` that merely moves a token from `p` to `q`
    /// — sole consumer of `p`, sole producer of `q` — is erased and `q`
    /// merged into `p` (tokens summed, `q`'s consumers rewired onto
    /// `p`). `keep` is the observable alphabet; only transitions whose
    /// symbol is outside it are fused.
    ///
    /// Sound in both directions for safety, deadlock-freedom and the
    /// `keep`-projected language on *general* nets: reduced markings are
    /// original markings with `t` fired eagerly (`M'(pq) = M(p) + M(q)`),
    /// and whenever the merged place overfills the original can overfill
    /// `q` too, because `t` is enabled by `p` alone. Returns the number
    /// of fusions.
    pub fn fuse_series_places(&mut self, keep: &AlphaSet) -> usize {
        let mut fused = 0usize;
        for t in 0..self.transitions.len() {
            let Some((p, q)) = self.fsp_candidate(t, keep) else {
                continue;
            };
            self.detach(t);
            let Some(q_rec) = self.places[q as usize].as_ref() else {
                continue;
            };
            let (q_tokens, q_name) = (q_rec.tokens, q_rec.name.clone());
            // q's only producer was t, so only consumers need rewiring.
            for uid in std::mem::take(&mut self.consumers[q as usize]) {
                if let Some(rec) = self.transitions[uid as usize].as_mut() {
                    remove_sorted(&mut rec.preset, q);
                    insert_sorted(&mut rec.preset, p);
                }
                insert_sorted(&mut self.consumers[p as usize], uid);
            }
            if let Some(rec) = self.places[p as usize].as_mut() {
                rec.tokens += q_tokens;
                rec.name = format!("({}.{q_name})", rec.name);
            }
            self.tombstone_place(q as usize);
            fused += 1;
        }
        fused
    }

    /// Whether place `i` is a series-transition-fusion pivot: unmarked,
    /// fed by exactly one transition `t` and read by exactly one
    /// internal transition `u ≠ t` whose whole preset is `{i}`, with a
    /// non-empty postset disjoint from `t`'s (the overlap gate — a place
    /// fed by both `t` and `u` would receive two tokens along the
    /// original path but only one after fusion, and an empty `u`-postset
    /// would let an unsafe token pile on `i` vanish).
    fn fst_candidate(&self, i: usize, keep: &AlphaSet) -> Option<(u32, u32)> {
        let place = self.places.get(i)?.as_ref()?;
        if place.tokens != 0 {
            return None;
        }
        let (&[t], &[u]) = (self.producers[i].as_slice(), self.consumers[i].as_slice()) else {
            return None;
        };
        if t == u {
            return None;
        }
        let u_rec = self.transitions[u as usize].as_ref()?;
        if keep.contains(u_rec.sym) || u_rec.preset.len() != 1 || u_rec.postset.is_empty() {
            return None;
        }
        let t_rec = self.transitions[t as usize].as_ref()?;
        if intersects(&u_rec.postset, &t_rec.postset) {
            return None;
        }
        Some((t, u))
    }

    /// **Series transition fusion** (the FST rule): an internal follower
    /// `u` whose sole input is an unmarked place `i` fed only by `t` is
    /// folded into `t` — `t`'s postset swaps `i` for `u`'s postset, and
    /// both `i` and `u` disappear.
    ///
    /// Sound in both directions for safety, deadlock-freedom, liveness
    /// and the `keep`-projected language: reduced runs are original runs
    /// with `u` fired eagerly after each `t` (valid because `u`'s only
    /// enabling condition is the token `t` just produced, and firing it
    /// earlier can only add tokens elsewhere), and `u` is live exactly
    /// when `t` is. Returns the number of fusions.
    pub fn fuse_series_transitions(&mut self, keep: &AlphaSet) -> usize {
        let mut fused = 0usize;
        for i in 0..self.places.len() {
            let Some((t, u)) = self.fst_candidate(i, keep) else {
                continue;
            };
            let Some(u_rec) = self.detach(u as usize) else {
                continue;
            };
            let pid = i as u32;
            if let Some(rec) = self.transitions[t as usize].as_mut() {
                remove_sorted(&mut rec.postset, pid);
                for &x in &u_rec.postset {
                    insert_sorted(&mut rec.postset, x);
                }
            }
            remove_sorted(&mut self.producers[i], t);
            for &x in &u_rec.postset {
                insert_sorted(&mut self.producers[x as usize], t);
            }
            self.tombstone_place(i);
            fused += 1;
        }
        fused
    }

    /// Runs the full safe-net reduction suite — the three trace-exact
    /// rules plus self-loop place elimination and both series fusions —
    /// to a joint fixpoint. `keep` is the observable alphabet:
    /// transitions whose symbol is *not* in `keep` are internal and
    /// eligible for series fusion.
    ///
    /// The result preserves, relative to the input net:
    ///
    /// * safety (1-boundedness) and deadlock-freedom verdicts, exactly;
    /// * the trace language projected onto `keep`;
    /// * receptiveness obligations, when `keep` covers the composition's
    ///   shared alphabet;
    /// * all-transitions-liveness, except that structurally dead
    ///   transitions (never live by definition) are pruned — so a
    ///   `false` verdict can turn `true` only when
    ///   [`ReductionStats::stranded_transitions`] is non-zero.
    ///
    /// Unlike [`NetEditor::reduce`] the result is **not** trace-exact on
    /// the full alphabet: internal transitions disappear.
    pub fn reduce_with(&mut self, keep: &AlphaSet) -> ReductionStats {
        let mut meter = Meter::new(&Budget::unlimited());
        self.reduce_with_metered(keep, &mut meter)
    }

    /// [`reduce_with`](Self::reduce_with) under a meter: polls the
    /// meter's deadline/cancel state between fixpoint passes and
    /// returns early (net still well-formed, stats partial) once it
    /// stops — see [`reduce_metered`](Self::reduce_metered).
    pub fn reduce_with_metered(&mut self, keep: &AlphaSet, meter: &mut Meter) -> ReductionStats {
        let mut stats = ReductionStats::default();
        loop {
            if meter.poll_interrupts() {
                return stats;
            }
            let d = self.dedup_transitions();
            let r = self.remove_redundant_places();
            let (s, iso) = self.prune_stranded();
            let sl = self.eliminate_self_loop_places();
            let fsp = self.fuse_series_places(keep);
            let fst = self.fuse_series_transitions(keep);
            stats.duplicate_transitions += d;
            stats.redundant_places += r;
            stats.stranded_transitions += s;
            stats.isolated_places += iso;
            stats.self_loop_places += sl;
            stats.series_places += fsp;
            stats.series_transitions += fst;
            if d + r + s + iso + sl + fsp + fst == 0 {
                return stats;
            }
        }
    }

    // ------------------------------------------------------------------
    // Materialization
    // ------------------------------------------------------------------

    /// Materializes the edited net: live places in arena (creation)
    /// order, live transitions in path-key (legacy) order, the
    /// maintained alphabet and marking. Bit-identical to what the
    /// equivalent chain of [`hide_transition`](crate::hide_transition)
    /// rebuilds would have produced.
    ///
    /// # Errors
    ///
    /// [`PetriError::UnknownPlace`] / [`PetriError::DegenerateTransition`]
    /// only if internal invariants were violated — never for nets built
    /// through the public editing operations.
    pub fn finish(&self) -> Result<PetriNet<L>, PetriError> {
        let mut net: PetriNet<L> = PetriNet::with_interner(self.interner.clone());
        let mut map: Vec<Option<PlaceId>> = vec![None; self.places.len()];
        for (i, rec) in self.places.iter().enumerate() {
            if let Some(rec) = rec {
                let id = net.add_place(rec.name.clone());
                net.set_initial(id, rec.tokens);
                map[i] = Some(id);
            }
        }
        let mut order: Vec<&TransRec> = self.transitions.iter().flatten().collect();
        order.sort_unstable_by(|a, b| self.key(a).cmp(self.key(b)));
        for rec in order {
            if let Some(&x) = rec
                .preset
                .iter()
                .chain(&rec.postset)
                .find(|&&x| map[x as usize].is_none())
            {
                return Err(PetriError::UnknownPlace(x));
            }
            net.add_transition_sym(
                rec.preset.iter().filter_map(|&x| map[x as usize]),
                rec.sym,
                rec.postset.iter().filter_map(|&x| map[x as usize]),
            )?;
        }
        for s in self.alphabet.iter() {
            net.declare_sym(s);
        }
        Ok(net)
    }
}

/// Removes `x` from the sorted row `row`, if present.
fn remove_sorted(row: &mut Vec<u32>, x: u32) {
    if let Ok(i) = row.binary_search(&x) {
        row.remove(i);
    }
}

/// Inserts `x` into the sorted row `row`, if absent.
fn insert_sorted(row: &mut Vec<u32>, x: u32) {
    if let Err(i) = row.binary_search(&x) {
        row.insert(i, x);
    }
}

/// Whether two sorted rows share an element.
fn intersects(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => return true,
        }
    }
    false
}

/// A signature hash of `seed` and two rows: word-at-a-time multiply-
/// rotate mixing. It only orders the signature sort — equal hashes are
/// compared in full — so a collision costs a comparison, never a result.
fn hash_rows(seed: u64, a: &[u32], b: &[u32]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut h = mix(mix(0, seed), a.len() as u64);
    for &x in a.iter().chain(b) {
        h = mix(h, u64::from(x));
    }
    h
}

/// Reduces `net` for verdict-level analysis: runs
/// [`NetEditor::reduce_with`] treating every label in `internal` as
/// unobservable, and returns the reduced net plus per-rule statistics.
///
/// The reduced net explores a state space no larger than the original's
/// while agreeing with it on safety, deadlock-freedom, the
/// `internal`-hidden language, and (modulo pruned dead transitions)
/// liveness — see [`NetEditor::reduce_with`] for the exact contract.
/// Labels in `internal` that the net never interned are ignored.
///
/// # Errors
///
/// Propagates [`NetEditor::finish`] failures (internal-invariant
/// violations only).
pub fn reduce_for_analysis<L: Label>(
    net: &PetriNet<L>,
    internal: &BTreeSet<L>,
) -> Result<(PetriNet<L>, ReductionStats), PetriError> {
    let mut keep = net.alphabet_syms().clone();
    for l in internal {
        if let Some(s) = net.interner().get(l) {
            keep.remove(s);
        }
    }
    let mut ed = NetEditor::from_net(net);
    let stats = ed.reduce_with(&keep);
    Ok((ed.finish()?, stats))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use cpn_petri::Budget;

    fn chain() -> PetriNet<&'static str> {
        // p0 -a-> p1 -tau-> p2 -b-> p3
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        let p3 = net.add_place("p3");
        net.add_transition([p0], "a", [p1]).unwrap();
        net.add_transition([p1], "tau", [p2]).unwrap();
        net.add_transition([p2], "b", [p3]).unwrap();
        net.set_initial(p0, 1);
        net
    }

    #[test]
    fn contract_matches_reference_single_step() {
        let net = chain();
        let reference = crate::hide_transition(&net, TransitionId::from_index(1)).unwrap();
        let mut ed = NetEditor::from_net(&net);
        ed.contract(1).unwrap();
        assert_eq!(ed.finish().unwrap(), reference);
    }

    #[test]
    fn editor_counts_track_edits() {
        let mut ed = NetEditor::from_net(&chain());
        assert_eq!((ed.place_count(), ed.transition_count()), (4, 3));
        assert_eq!(ed.edits(), 0);
        ed.contract(1).unwrap();
        assert_eq!(ed.contractions(), 1);
        assert!(ed.edits() > 0);
        // tau gone, product place minted, duplicate of b appended.
        assert_eq!(ed.transition_count(), 3);
        assert_eq!(ed.place_count(), 4);
    }

    #[test]
    fn contract_error_parity_with_reference() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let t = net.add_transition([p], "tau", [p, q]).unwrap();
        net.set_initial(p, 1);
        let mut ed = NetEditor::from_net(&net);
        assert!(matches!(
            ed.contract(t.index()),
            Err(PetriError::HideSelfLoop(_))
        ));
        assert!(matches!(
            ed.contract(99),
            Err(PetriError::UnknownTransition(99))
        ));
    }

    #[test]
    fn both_sides_consumer_rejected_via_index() {
        // u consumes from both the preset and postset of tau.
        let mut net: PetriNet<&str> = PetriNet::new();
        let a = net.add_place("a");
        let b = net.add_place("b");
        let c = net.add_place("c");
        let tau = net.add_transition([a], "tau", [b]).unwrap();
        net.add_transition([a, b], "u", [c]).unwrap();
        net.set_initial(a, 1);
        let mut ed = NetEditor::from_net(&net);
        assert!(matches!(
            ed.contract(tau.index()),
            Err(PetriError::Precondition(_))
        ));
        assert!(matches!(
            crate::hide_transition(&net, tau),
            Err(PetriError::Precondition(_))
        ));
    }

    #[test]
    fn reduce_completes_marked_graph_collapse() {
        // After contracting tau the orphaned real `b` and its stranded
        // place fuse away: a -> (p1,p2) -> b remains.
        let mut ed = NetEditor::from_net(&chain());
        ed.contract(1).unwrap();
        let stats = ed.reduce();
        assert_eq!(stats.stranded_transitions, 1);
        assert_eq!(ed.transition_count(), 2);
        let net = ed.finish().unwrap();
        assert_eq!(net.transition_count(), 2);
        assert_eq!(net.place_count(), 3);
    }

    #[test]
    fn dedup_collapses_identical_transitions() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([p], "b", [q]).unwrap();
        net.set_initial(p, 1);
        let mut ed = NetEditor::from_net(&net);
        assert_eq!(ed.dedup_transitions(), 1);
        assert_eq!(ed.transition_count(), 2);
    }

    #[test]
    fn redundant_places_lockstep_removed() {
        // r mirrors q exactly (same producer, consumer, marking).
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let r = net.add_place("r");
        net.add_transition([p], "a", [q, r]).unwrap();
        net.add_transition([q, r], "b", [p]).unwrap();
        net.set_initial(p, 1);
        let mut ed = NetEditor::from_net(&net);
        assert_eq!(ed.remove_redundant_places(), 1);
        let reduced = ed.finish().unwrap();
        assert_eq!(reduced.place_count(), 2);
        let l0 = cpn_trace::Language::from_net(&net, 4, 10_000).unwrap();
        let l1 = cpn_trace::Language::from_net(&reduced, 4, 10_000).unwrap();
        assert!(l0.eq_up_to(&l1, 4));
    }

    #[test]
    fn series_place_fusion_collapses_tau_hop() {
        // Cycle p0 -a-> p1 -tau-> p2 -b-> p0: tau merges p1 and p2.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        net.add_transition([p0], "a", [p1]).unwrap();
        net.add_transition([p1], "tau", [p2]).unwrap();
        net.add_transition([p2], "b", [p0]).unwrap();
        net.set_initial(p0, 1);
        let mut keep = AlphaSet::new();
        keep.insert(net.sym_of(&"a").unwrap());
        keep.insert(net.sym_of(&"b").unwrap());
        let mut ed = NetEditor::from_net(&net);
        assert_eq!(ed.fuse_series_places(&keep), 1);
        let reduced = ed.finish().unwrap();
        assert_eq!(reduced.place_count(), 2);
        assert_eq!(reduced.transition_count(), 2);
        // The observable language survives the fusion.
        let l0 = cpn_trace::Language::from_net(&net, 4, 10_000)
            .unwrap()
            .hide(&BTreeSet::from(["tau"]));
        let l1 = cpn_trace::Language::from_net(&reduced, 4, 10_000).unwrap();
        assert!(l0.eq_up_to(&l1, 3));
    }

    #[test]
    fn series_place_fusion_requires_a_producer() {
        // p1 has no producer: fusing away the once-only tau would erase
        // the only non-live transition. The chain must stay intact.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p1 = net.add_place("p1");
        let p2 = net.add_place("p2");
        net.add_transition([p1], "tau", [p2]).unwrap();
        net.set_initial(p1, 1);
        let keep = AlphaSet::new();
        let mut ed = NetEditor::from_net(&net);
        assert_eq!(ed.fuse_series_places(&keep), 0);
    }

    #[test]
    fn series_transition_fusion_folds_follower() {
        // a feeds p1 whose only reader is tau; tau folds into a.
        let mut ed = NetEditor::from_net(&chain());
        let mut keep = AlphaSet::new();
        let net = chain();
        keep.insert(net.sym_of(&"a").unwrap());
        keep.insert(net.sym_of(&"b").unwrap());
        assert_eq!(ed.fuse_series_transitions(&keep), 1);
        let reduced = ed.finish().unwrap();
        assert_eq!(reduced.transition_count(), 2);
        assert_eq!(reduced.place_count(), 3);
        let l0 = cpn_trace::Language::from_net(&net, 6, 10_000)
            .unwrap()
            .hide(&BTreeSet::from(["tau"]));
        let l1 = cpn_trace::Language::from_net(&reduced, 6, 10_000).unwrap();
        assert!(l0.eq_up_to(&l1, 2));
    }

    #[test]
    fn series_transition_fusion_rejects_postset_overlap() {
        // Both t and u feed q: fusing would halve q's token intake.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let q = net.add_place("q");
        net.add_transition([p0], "t", [p1, q]).unwrap();
        net.add_transition([p1], "tau", [q]).unwrap();
        net.set_initial(p0, 1);
        let mut keep = AlphaSet::new();
        keep.insert(net.sym_of(&"t").unwrap());
        let mut ed = NetEditor::from_net(&net);
        assert_eq!(ed.fuse_series_transitions(&keep), 0);
    }

    #[test]
    fn self_loop_place_dropped() {
        // `mutex` is a constant token looped on by both transitions.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let mx = net.add_place("mutex");
        net.add_transition([p0, mx], "a", [p1, mx]).unwrap();
        net.add_transition([p1, mx], "b", [p0, mx]).unwrap();
        net.set_initial(p0, 1);
        net.set_initial(mx, 1);
        let mut ed = NetEditor::from_net(&net);
        assert_eq!(ed.eliminate_self_loop_places(), 1);
        let reduced = ed.finish().unwrap();
        assert_eq!(reduced.place_count(), 2);
        let l0 = cpn_trace::Language::from_net(&net, 4, 10_000).unwrap();
        let l1 = cpn_trace::Language::from_net(&reduced, 4, 10_000).unwrap();
        assert!(l0.eq_up_to(&l1, 4));
    }

    #[test]
    fn self_loop_observer_keeps_its_place() {
        // Removing p would leave `obs` with no arcs at all.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        net.add_transition([p], "obs", [p]).unwrap();
        net.set_initial(p, 1);
        let mut ed = NetEditor::from_net(&net);
        assert_eq!(ed.eliminate_self_loop_places(), 0);
    }

    #[test]
    fn reduce_with_reaches_joint_fixpoint() {
        // tau1 and tau2 in series collapse completely: a -> merged -> b.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p: Vec<_> = (0..5).map(|i| net.add_place(format!("p{i}"))).collect();
        net.add_transition([p[0]], "a", [p[1]]).unwrap();
        net.add_transition([p[1]], "tau1", [p[2]]).unwrap();
        net.add_transition([p[2]], "tau2", [p[3]]).unwrap();
        net.add_transition([p[3]], "b", [p[4]]).unwrap();
        net.add_transition([p[4]], "c", [p[0]]).unwrap();
        net.set_initial(p[0], 1);
        let (reduced, stats) =
            reduce_for_analysis(&net, &BTreeSet::from(["tau1", "tau2"])).unwrap();
        assert_eq!(stats.series_places + stats.series_transitions, 2);
        assert_eq!(reduced.transition_count(), 3);
        assert_eq!(reduced.place_count(), 3);
        let l0 = cpn_trace::Language::from_net(&net, 8, 100_000)
            .unwrap()
            .hide(&BTreeSet::from(["tau1", "tau2"]));
        let l1 = cpn_trace::Language::from_net(&reduced, 8, 100_000).unwrap();
        assert!(l0.eq_up_to(&l1, 4));
    }

    /// Runs `edit` on `ed` and reports whether `edits()` moved.
    fn moves(
        ed: &mut NetEditor<&'static str>,
        edit: impl FnOnce(&mut NetEditor<&'static str>),
    ) -> bool {
        let before = ed.edits();
        edit(ed);
        ed.edits() != before
    }

    /// `reduce_explored` skips its cleanup reachability pass when
    /// `edits()` has not moved, so the counter must move exactly when the
    /// net changes.
    #[test]
    fn edits_move_iff_the_net_changes() {
        let net = chain();
        let all = net.alphabet_syms().clone();
        let mut ed = NetEditor::from_net(&net);
        let mut meter = Meter::new(&Budget::unlimited());
        // `chain()` is a fixpoint of every rule, and with the whole
        // alphabet kept nothing is internal.
        assert!(!moves(&mut ed, |ed| {
            assert_eq!(ed.reduce(), ReductionStats::default());
        }));
        assert!(!moves(&mut ed, |ed| {
            assert_eq!(ed.dedup_transitions(), 0);
            assert_eq!(ed.remove_redundant_places(), 0);
            assert_eq!(ed.prune_stranded(), (0, 0));
            assert_eq!(ed.eliminate_self_loop_places(), 0);
            assert_eq!(ed.fuse_series_places(&all), 0);
            assert_eq!(ed.fuse_series_transitions(&all), 0);
            assert_eq!(ed.reduce_with(&all), ReductionStats::default());
            ed.remove_transitions(&BTreeSet::new());
        }));
        // Hiding a label the net never interned, or one it declares but
        // no transition carries, changes nothing.
        let mut declared = chain();
        declared.declare_label("idle");
        let mut ed2 = NetEditor::from_net(&declared);
        assert!(!moves(&mut ed2, |ed| {
            assert!(ed.hide_label(&"absent", &mut meter).unwrap());
            assert!(ed.hide_label(&"idle", &mut meter).unwrap());
        }));
        // A real hide moves the counter; hiding the label again does not.
        assert!(moves(&mut ed, |ed| {
            assert!(ed.hide_label(&"tau", &mut meter).unwrap());
        }));
        assert!(!moves(&mut ed, |ed| {
            assert!(ed.hide_label(&"tau", &mut meter).unwrap());
        }));
        // The contraction left a stranded `b` and its place behind.
        assert!(moves(&mut ed, |ed| assert_eq!(ed.prune_stranded(), (1, 1))));
        assert!(!moves(&mut ed, |ed| {
            assert_eq!(ed.reduce(), ReductionStats::default());
        }));
        let mut ed = NetEditor::from_net(&chain());
        assert!(moves(&mut ed, |ed| ed.contract(1).unwrap()));
        let mut ed = NetEditor::from_net(&chain());
        assert!(moves(&mut ed, |ed| {
            ed.remove_transitions(&BTreeSet::from([TransitionId::from_index(2)]));
        }));

        // Every rule that finds something moves the counter.
        let mut dup: PetriNet<&str> = PetriNet::new();
        let (p, q) = (dup.add_place("p"), dup.add_place("q"));
        dup.add_transition([p], "a", [q]).unwrap();
        dup.add_transition([p], "a", [q]).unwrap();
        dup.set_initial(p, 1);
        let mut ed = NetEditor::from_net(&dup);
        assert!(moves(&mut ed, |ed| assert_eq!(ed.dedup_transitions(), 1)));

        let mut lockstep: PetriNet<&str> = PetriNet::new();
        let (p, q, r) = (
            lockstep.add_place("p"),
            lockstep.add_place("q"),
            lockstep.add_place("r"),
        );
        lockstep.add_transition([p], "a", [q, r]).unwrap();
        lockstep.add_transition([q, r], "b", [p]).unwrap();
        lockstep.set_initial(p, 1);
        let mut ed = NetEditor::from_net(&lockstep);
        assert!(moves(&mut ed, |ed| {
            assert_eq!(ed.remove_redundant_places(), 1);
        }));

        let mut mutex: PetriNet<&str> = PetriNet::new();
        let (p0, p1, mx) = (
            mutex.add_place("p0"),
            mutex.add_place("p1"),
            mutex.add_place("mutex"),
        );
        mutex.add_transition([p0, mx], "a", [p1, mx]).unwrap();
        mutex.add_transition([p1, mx], "b", [p0, mx]).unwrap();
        mutex.set_initial(p0, 1);
        mutex.set_initial(mx, 1);
        let mut ed = NetEditor::from_net(&mutex);
        assert!(moves(&mut ed, |ed| {
            assert_eq!(ed.eliminate_self_loop_places(), 1);
        }));

        let observable = |net: &PetriNet<&'static str>| {
            let mut keep = AlphaSet::new();
            keep.insert(net.sym_of(&"a").unwrap());
            keep.insert(net.sym_of(&"b").unwrap());
            keep
        };
        let mut cycle: PetriNet<&str> = PetriNet::new();
        let (c0, c1, c2) = (
            cycle.add_place("p0"),
            cycle.add_place("p1"),
            cycle.add_place("p2"),
        );
        cycle.add_transition([c0], "a", [c1]).unwrap();
        cycle.add_transition([c1], "tau", [c2]).unwrap();
        cycle.add_transition([c2], "b", [c0]).unwrap();
        cycle.set_initial(c0, 1);
        let keep = observable(&cycle);
        let mut ed = NetEditor::from_net(&cycle);
        assert!(moves(&mut ed, |ed| {
            assert_eq!(ed.fuse_series_places(&keep), 1);
        }));
        let keep = observable(&net);
        let mut ed = NetEditor::from_net(&net);
        assert!(moves(&mut ed, |ed| {
            assert_eq!(ed.fuse_series_transitions(&keep), 1);
        }));
    }

    #[test]
    fn hide_label_respects_meter() {
        let net = chain();
        let mut ed = NetEditor::from_net(&net);
        let mut meter = Meter::new(&Budget::new(usize::MAX, 0));
        assert!(!ed.hide_label(&"tau", &mut meter).unwrap());
        assert_eq!(ed.contractions(), 0);
        // Untouched: finishing returns the original net.
        assert_eq!(ed.finish().unwrap(), net);
    }
}
