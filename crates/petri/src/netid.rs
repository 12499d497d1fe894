//! Content-addressed structural net identity.
//!
//! [`NetId`] is a 128-bit hash of a net's **canonical form**: a
//! serialization that depends only on the net's structure — the label
//! multiset on transitions, the flow relation, and the initial marking —
//! and not on the order places, transitions, or labels happened to be
//! constructed in, nor on place names, nor on `.cpn` formatting. Two
//! nets built through reversed interners, permuted arenas, or
//! whitespace-mangled documents canonicalize to the same bytes and so
//! share a `NetId`.
//!
//! The id is the universal cache key of the workspace: the hash-consed
//! derivation store in `cpn-core` memoizes algebra operations on child
//! ids, and the `cpn-serve` document cache uses it to recognize
//! structurally equivalent submissions behind different byte streams.
//!
//! # Canonicalization
//!
//! Canonical form is computed by partition refinement (1-dimensional
//! Weisfeiler–Leman color refinement over the place/transition bipartite
//! graph) followed by greedy individualization:
//!
//! 1. **Labels** are sorted by their `Ord` order — interner-independent
//!    — and assigned dense canonical indices.
//! 2. **Initial colors**: a place is colored by its initial token
//!    count; a transition by its canonical label index and preset /
//!    postset sizes.
//! 3. **Refinement**: each round recolors every place by the sorted
//!    multiset of (adjacent transition color, consumer/producer role)
//!    and every transition by its label color plus the sorted colors of
//!    its preset and postset, until the partition stabilizes. A round
//!    hashes each signature with FNV-1a-128 truncated to 64 bits and
//!    ranks elements by (old color, signature), so it is a fixpoint
//!    exactly when no class count grew.
//! 4. **Individualization**: while some place color class has more than
//!    one member, the first member of the smallest-ranked class is
//!    given a fresh color and refinement is re-run. Usually that round
//!    changes nothing, and a cheaper test decides so exactly. The
//!    individualization changed one place color and no transition
//!    color, so every place still hashes like the rest of its class,
//!    and only the transitions adjacent to the individualized place can
//!    hash differently. Rehashing just those decides it: a transition
//!    class stays whole iff its touched members rehash to one
//!    signature and, if it has untouched members, that signature is
//!    the old one they keep. These are the 64-bit signatures the round
//!    would rank, so the test agrees with the round even on a hash
//!    collision. When no class splits, the colors stand and the round
//!    is skipped; otherwise the full refinement runs.
//!
//! The resulting place order is total, and transitions are then sorted
//! by (canonical label, canonical preset, canonical postset). One
//! serializer writes the canonical bytes: into a buffer for
//! [`canonical_form`], straight into the FNV-1a-128 hasher for
//! [`NetId::of`].
//!
//! `cpn_testkit::oracle::canonical_form` keeps the reference
//! canonicalizer, which reruns the full refinement after every
//! individualization; the property suite checks that both produce the
//! same bytes.
//!
//! # Guarantees
//!
//! * **Soundness** (always): `NetId` is the FNV-1a-128 hash of the
//!   canonical bytes of the *actual* net, so id equality implies
//!   canonical-form equality up to a 128-bit hash collision. The
//!   property suite in `tests/netid.rs` checks hash-equal ⟹
//!   bytes-equal on generated nets.
//! * **Completeness** (practical): nets whose refinement is discrete —
//!   in particular any net whose transition labels are pairwise
//!   distinct, and any pair of nets differing only in construction
//!   order, interner order, or place names — map to equal ids. For
//!   nets with non-trivial automorphism-like symmetry that refinement
//!   cannot resolve, two isomorphic nets may receive *different* ids
//!   (a cache miss, never a false hit): greedy individualization picks
//!   a representative without a backtracking canonical search.

use crate::hash::{Fnv128, Fnv128Low};
use crate::label::Label;
use crate::marking::Marking;
use crate::net::{PetriNet, PlaceId, TransitionId};
use crate::Sym;
use std::fmt;
use std::fmt::Write as _;

/// A content-addressed structural identity: the canonical-form hash.
///
/// Stable across runs, platforms, interner orders, arena numbering and
/// formatting; place names are **not** part of the identity (renaming
/// places preserves the id; renaming *labels* does not).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(u128);

impl NetId {
    /// The identity of a net — [`canonical_form`] hashed with
    /// FNV-1a-128.
    #[must_use]
    pub fn of<L: Label>(net: &PetriNet<L>) -> NetId {
        let mut h = Fnv128::new();
        Canonical::of(net).serialize(net, &mut h);
        NetId(h.finish())
    }

    /// The raw 128-bit hash value.
    #[must_use]
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Rebuilds an id from its raw value (wire decoding).
    #[must_use]
    pub fn from_u128(v: u128) -> NetId {
        NetId(v)
    }
}

impl fmt::Debug for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NetId({:032x})", self.0)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The canonical orderings behind a net's [`NetId`].
///
/// `places[i]` / `transitions[i]` is the original id at canonical
/// position `i`; `labels[i]` is the symbol (in the net's interner) of
/// the canonically `i`-th label. The canonical `.cpn` writer renders
/// nets through this permutation so structurally equal nets serialize
/// byte-identically.
#[derive(Clone, Debug)]
pub struct CanonicalOrder {
    /// Canonical position → original place id.
    pub places: Vec<PlaceId>,
    /// Canonical position → original transition id.
    pub transitions: Vec<TransitionId>,
    /// Canonical label index → symbol in the net's interner.
    pub labels: Vec<Sym>,
}

/// Computes the canonical place/transition/label orderings of a net.
#[must_use]
pub fn canonical_order<L: Label>(net: &PetriNet<L>) -> CanonicalOrder {
    let canonical = Canonical::of(net);
    CanonicalOrder {
        places: canonical
            .places
            .iter()
            .map(|&p| PlaceId::from_index(p as usize))
            .collect(),
        transitions: canonical
            .transitions
            .iter()
            .map(|&t| TransitionId::from_index(t as usize))
            .collect(),
        labels: canonical.labels,
    }
}

/// The canonical serialization of a net: a byte string that is equal
/// for two nets exactly when they have the same canonical form (see
/// the module docs for what that guarantees). [`NetId::of`] is the
/// 128-bit FNV-1a hash of these bytes.
#[must_use]
pub fn canonical_form<L: Label>(net: &PetriNet<L>) -> Vec<u8> {
    let mut out = Vec::new();
    Canonical::of(net).serialize(net, &mut out);
    out
}

impl<L: Label> PetriNet<L> {
    /// This net's content-addressed structural identity (see
    /// [`NetId`]). `O((P + T + A) · rounds)`, where `A` counts arcs and
    /// a round sorts and hashes every element's neighbour colors once;
    /// an individualization that splits nothing costs only the degree
    /// of its place, not a round. Cache the result rather than
    /// recomputing in hot loops.
    #[must_use]
    pub fn net_id(&self) -> NetId {
        NetId::of(self)
    }
}

const ROLE_CONSUMER: u64 = 0xC0;
const ROLE_PRODUCER: u64 = 0xBB;
const SEP: u64 = 0x5E9A_11AD;

/// One side (places or transitions) of the coloring. Colors are dense
/// ranks `0..classes` of sorted round signatures, so equal structures
/// get equal color vectors regardless of arena order.
#[derive(Default)]
struct Partition {
    /// Color per element.
    color: Vec<u32>,
    /// Members per color class; its length is the class count.
    size: Vec<u32>,
    /// The latest round's signature per element.
    sig: Vec<u64>,
    /// Scratch of [`split`](Self::split): the first member seen per
    /// class, and the `(color, sig, element)` sort keys.
    first: Vec<u32>,
    keys: Vec<(u32, u64, u32)>,
}

impl Partition {
    /// Colors every element by the dense rank of its `raw` key.
    fn ranked(raw: Vec<u64>) -> Partition {
        let n = raw.len();
        let mut part = Partition {
            color: vec![0; n],
            size: if n == 0 { Vec::new() } else { vec![n as u32] },
            sig: raw,
            ..Partition::default()
        };
        part.split();
        part
    }

    /// Recolors every element by the dense rank of `(color, sig)`;
    /// returns whether any class split. Keying on the old color first
    /// keeps class numbering aligned round over round: when no class
    /// splits, the ranks reproduce the dense old colors exactly, so the
    /// round is a fixpoint iff the class count did not grow, and then
    /// nothing is rewritten.
    fn split(&mut self) -> bool {
        self.first.clear();
        self.first.resize(self.size.len(), u32::MAX);
        let uniform = self
            .color
            .iter()
            .zip(&self.sig)
            .enumerate()
            .all(|(i, (&c, &s))| {
                let first = &mut self.first[c as usize];
                if *first == u32::MAX {
                    *first = i as u32;
                }
                self.sig[*first as usize] == s
            });
        if uniform {
            return false;
        }
        self.keys.clear();
        self.keys.extend(
            self.color
                .iter()
                .zip(&self.sig)
                .enumerate()
                .map(|(i, (&c, &s))| (c, s, i as u32)),
        );
        self.keys.sort_unstable();
        self.size.clear();
        let mut last = None;
        for &(c, s, i) in &self.keys {
            if last != Some((c, s)) {
                last = Some((c, s));
                self.size.push(0);
            }
            let rank = self.size.len() - 1;
            self.size[rank] += 1;
            self.color[i as usize] = rank as u32;
        }
        true
    }
}

/// Working state of the refinement + individualization loop, over flat
/// adjacency arrays built once per call.
struct Canonicalizer {
    /// Canonical label index → symbol.
    label_order: Vec<Sym>,
    /// Canonical label index per transition.
    t_label: Vec<u64>,
    /// Transition `t`'s preset is `t_arcs[t_off[2t]..t_off[2t + 1]]`
    /// and its postset `t_arcs[t_off[2t + 1]..t_off[2t + 2]]`, each as
    /// ascending place indices.
    t_off: Vec<usize>,
    t_arcs: Vec<u32>,
    /// Place `p`'s arcs are `p_arcs[p_off[p]..p_off[p + 1]]`, each
    /// `t << 1 | is_producer`, ascending: a self-loop's two arcs are
    /// adjacent.
    p_off: Vec<usize>,
    p_arcs: Vec<usize>,
    /// The initial marking.
    tokens: Marking,
    place: Partition,
    trans: Partition,
    /// Scratch: the sorted neighbour colors of the element being hashed.
    scratch: Vec<u64>,
    /// Scratch: `(transition, new signature)` around an individualized
    /// place.
    touched: Vec<(usize, u64)>,
}

/// The signature of a transition: its color, label, and the sorted
/// colors of its preset and postset.
fn trans_sig(
    color: u32,
    label: u64,
    pre: &[u32],
    post: &[u32],
    place_color: &[u32],
    scratch: &mut Vec<u64>,
) -> u64 {
    let mut h = Fnv128Low::new();
    h.write_u64(u64::from(color));
    h.write_u64(label);
    for side in [pre, post] {
        h.write_u64(SEP);
        scratch.clear();
        scratch.extend(side.iter().map(|&p| u64::from(place_color[p as usize])));
        scratch.sort_unstable();
        for &c in scratch.iter() {
            h.write_u64(c);
        }
    }
    h.finish()
}

/// The signature of a place: its color and the sorted multiset of its
/// adjacent transitions' colors tagged by role.
fn place_sig(color: u32, arcs: &[usize], trans_color: &[u32], scratch: &mut Vec<u64>) -> u64 {
    scratch.clear();
    scratch.extend(arcs.iter().map(|&a| {
        let role = if a & 1 == 0 {
            ROLE_CONSUMER
        } else {
            ROLE_PRODUCER
        };
        u64::from(trans_color[a >> 1]).wrapping_mul(4) ^ role
    }));
    scratch.sort_unstable();
    let mut h = Fnv128Low::new();
    h.write_u64(u64::from(color).wrapping_mul(2).wrapping_add(1));
    for &c in scratch.iter() {
        h.write_u64(c);
    }
    h.finish()
}

impl Canonicalizer {
    fn new<L: Label>(net: &PetriNet<L>) -> Self {
        // Canonical label order: every symbol that is in the alphabet
        // or on a transition, sorted by the label's `Ord` (interner
        // independent). Symbols that are interned but neither declared
        // nor used carry no structure and are excluded.
        let mut used: Vec<Sym> = net.alphabet_syms().iter().collect();
        for (_, t) in net.transitions() {
            if !net.alphabet_syms().contains(t.sym()) {
                used.push(t.sym());
            }
        }
        used.sort_by(|&a, &b| net.resolve(a).cmp(net.resolve(b)));
        used.dedup();
        let mut rank_of_sym = vec![u64::MAX; net.interner().len()];
        for (rank, &s) in used.iter().enumerate() {
            rank_of_sym[s.index()] = rank as u64;
        }

        let (places, transitions) = (net.place_count(), net.transition_count());
        let mut t_label = Vec::with_capacity(transitions);
        let mut t_off = Vec::with_capacity(2 * transitions + 1);
        let mut t_arcs = Vec::new();
        let mut degree = vec![0; places + 1];
        t_off.push(0);
        for (_, t) in net.transitions() {
            t_label.push(rank_of_sym[t.sym().index()]);
            for side in [t.preset(), t.postset()] {
                for p in side {
                    t_arcs.push(p.index() as u32);
                    degree[p.index() + 1] += 1;
                }
                t_off.push(t_arcs.len());
            }
        }
        // Counting sort of the arcs by place: prefix sums give each
        // place's slot range, and filling in transition order keeps
        // every place's arcs ascending.
        for p in 0..places {
            degree[p + 1] += degree[p];
        }
        let p_off = degree;
        let mut fill = p_off.clone();
        let mut p_arcs = vec![0; t_arcs.len()];
        for t in 0..transitions {
            for role in 0..2 {
                for &p in &t_arcs[t_off[2 * t + role]..t_off[2 * t + role + 1]] {
                    let slot = &mut fill[p as usize];
                    p_arcs[*slot] = t << 1 | role;
                    *slot += 1;
                }
            }
        }

        // Initial colors: a place by its token count, a transition by
        // its label and preset/postset sizes.
        let tokens = net.initial_marking();
        let place = Partition::ranked(tokens.as_slice().iter().map(|&m| u64::from(m)).collect());
        let trans = Partition::ranked(
            (0..transitions)
                .map(|t| {
                    let mut h = Fnv128Low::new();
                    h.write_u64(t_label[t]);
                    h.write_u64((t_off[2 * t + 1] - t_off[2 * t]) as u64);
                    h.write_u64((t_off[2 * t + 2] - t_off[2 * t + 1]) as u64);
                    h.finish()
                })
                .collect(),
        );
        Canonicalizer {
            label_order: used,
            t_label,
            t_off,
            t_arcs,
            p_off,
            p_arcs,
            tokens,
            place,
            trans,
            scratch: Vec::new(),
            touched: Vec::new(),
        }
    }

    fn preset(&self, t: usize) -> &[u32] {
        &self.t_arcs[self.t_off[2 * t]..self.t_off[2 * t + 1]]
    }

    fn postset(&self, t: usize) -> &[u32] {
        &self.t_arcs[self.t_off[2 * t + 1]..self.t_off[2 * t + 2]]
    }

    /// Transition `t`'s signature under the current place colors.
    fn trans_sig(&mut self, t: usize) -> u64 {
        let (a, m, b) = (
            self.t_off[2 * t],
            self.t_off[2 * t + 1],
            self.t_off[2 * t + 2],
        );
        trans_sig(
            self.trans.color[t],
            self.t_label[t],
            &self.t_arcs[a..m],
            &self.t_arcs[m..b],
            &self.place.color,
            &mut self.scratch,
        )
    }

    /// One refinement round: every place and transition is rehashed
    /// from the old colors of both sides, then both are recolored.
    /// Returns whether any class split.
    fn round(&mut self) -> bool {
        for t in 0..self.trans.color.len() {
            self.trans.sig[t] = self.trans_sig(t);
        }
        for p in 0..self.place.color.len() {
            let (a, b) = (self.p_off[p], self.p_off[p + 1]);
            self.place.sig[p] = place_sig(
                self.place.color[p],
                &self.p_arcs[a..b],
                &self.trans.color,
                &mut self.scratch,
            );
        }
        // Both sides recolor, whichever splits.
        self.place.split() | self.trans.split()
    }

    /// Refines to a stable partition from the current colors. Each
    /// strict refinement grows the class count, so this runs at most
    /// P + T productive rounds plus the one that confirms the fixpoint,
    /// which leaves every class's shared signature in `trans.sig`.
    fn refine_to_fixpoint(&mut self) {
        while self.round() {}
    }

    /// Gives place `p` of a stable partition a fresh color (the next
    /// rank, above every other) and decides whether the next round is
    /// a fixpoint, so that the colors are stable as they stand.
    ///
    /// It is, unless a transition class splits: transition colors did
    /// not change, so every place keeps the signature it shared with
    /// its class, and only the transitions adjacent to `p` see a new
    /// place color. A transition class stays whole iff its touched
    /// members all rehash to one signature and, if it has untouched
    /// members, that signature is the class's old one. Comparing the
    /// same 64-bit signatures the round would rank makes the test
    /// exact, at the cost of hashing `p`'s neighbours.
    fn individualize(&mut self, p: usize) -> bool {
        let old = self.place.color[p] as usize;
        self.place.size[old] -= 1;
        self.place.color[p] = self.place.size.len() as u32;
        self.place.size.push(1);

        self.touched.clear();
        for i in self.p_off[p]..self.p_off[p + 1] {
            let t = self.p_arcs[i] >> 1;
            if self.touched.last().is_some_and(|&(last, _)| last == t) {
                // The second arc of a self-loop.
                continue;
            }
            let sig = self.trans_sig(t);
            self.touched.push((t, sig));
        }
        let trans = &self.trans;
        let quiet = self.touched.iter().all(|&(t, sig)| {
            let class = trans.color[t];
            let mut members = 0;
            for &(u, other) in &self.touched {
                if trans.color[u] == class {
                    if other != sig {
                        return false;
                    }
                    members += 1;
                }
            }
            members == trans.size[class as usize] || sig == trans.sig[t]
        });
        if quiet {
            for &(t, sig) in &self.touched {
                self.trans.sig[t] = sig;
            }
        }
        quiet
    }

    /// The first place of the smallest ambiguous place class from
    /// class `from` up, with that class.
    fn first_ambiguous(&self, from: usize) -> Option<(usize, usize)> {
        let class = (from..self.place.size.len()).find(|&c| self.place.size[c] > 1)?;
        let p = self.place.color.iter().position(|&c| c as usize == class)?;
        Some((class, p))
    }

    fn run(mut self) -> Canonical {
        self.refine_to_fixpoint();

        // Greedy individualization until the place partition is
        // discrete. Choosing the first member of the smallest
        // ambiguous class is isomorphism-invariant whenever the tied
        // members are automorphic (the common case — e.g. parallel
        // places between identically-labeled transitions); see the
        // module docs for the non-automorphic caveat. A quiet
        // individualization keeps every other color, so the smallest
        // ambiguous class can only move up until a full refinement
        // renumbers the classes.
        let mut from = 0;
        while let Some((class, p)) = self.first_ambiguous(from) {
            from = class;
            if !self.individualize(p) {
                self.refine_to_fixpoint();
                from = 0;
            }
        }

        // Final orders: the place partition is discrete, so a place's
        // color is its canonical position.
        let mut places = vec![0u32; self.place.color.len()];
        for (p, &c) in self.place.color.iter().enumerate() {
            places[c as usize] = p as u32;
        }
        let transitions = self.t_label.len();
        let mut keys = Vec::with_capacity(3 * transitions + self.t_arcs.len());
        let mut key_off = Vec::with_capacity(transitions + 1);
        key_off.push(0u32);
        for t in 0..transitions {
            keys.push(self.t_label[t] as u32);
            for side in [self.preset(t), self.postset(t)] {
                keys.push(side.len() as u32);
                let start = keys.len();
                keys.extend(side.iter().map(|&p| self.place.color[p as usize]));
                keys[start..].sort_unstable();
            }
            key_off.push(keys.len() as u32);
        }
        let key = |t: u32| &keys[key_off[t as usize] as usize..key_off[t as usize + 1] as usize];
        let mut order: Vec<u32> = (0..transitions as u32).collect();
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
        let rows = order.iter().flat_map(|&t| key(t)).copied().collect();
        Canonical {
            labels: self.label_order,
            places,
            transitions: order,
            rows,
            tokens: self.tokens,
        }
    }
}

/// A net's canonical order, with the transition rows the serializer
/// writes.
struct Canonical {
    /// Canonical label index → symbol.
    labels: Vec<Sym>,
    /// Canonical position → original place index.
    places: Vec<u32>,
    /// Canonical position → original transition index.
    transitions: Vec<u32>,
    /// Every transition's row in canonical order, concatenated: label
    /// index, preset size, sorted canonical preset, postset size,
    /// sorted canonical postset.
    rows: Vec<u32>,
    /// The initial marking.
    tokens: Marking,
}

/// Where the canonical serializer writes: a byte buffer for
/// [`canonical_form`], the hasher itself for [`NetId::of`].
trait Sink {
    fn put(&mut self, bytes: &[u8]);
    fn put_u64(&mut self, v: u64);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

impl Sink for Fnv128 {
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }

    fn put_u64(&mut self, v: u64) {
        self.write_u64(v);
    }
}

impl Canonical {
    fn of<L: Label>(net: &PetriNet<L>) -> Canonical {
        Canonicalizer::new(net).run()
    }

    /// Serializes the net through its canonical order, every number as
    /// a little-endian `u64`. Field boundaries are length-prefixed so
    /// no two distinct structures share bytes.
    fn serialize<L: Label>(&self, net: &PetriNet<L>, out: &mut impl Sink) {
        out.put(b"CPNCANON1");
        out.put_u64(self.places.len() as u64);
        out.put_u64(self.transitions.len() as u64);
        out.put_u64(self.labels.len() as u64);
        let mut text = String::new();
        for &s in &self.labels {
            text.clear();
            // Writing into a `String` cannot fail.
            let _ = write!(text, "{}", net.resolve(s));
            out.put_u64(text.len() as u64);
            out.put(text.as_bytes());
            out.put(&[u8::from(net.alphabet_syms().contains(s))]);
        }
        for &p in &self.places {
            out.put_u64(u64::from(self.tokens.as_slice()[p as usize]));
        }
        for &v in &self.rows {
            out.put_u64(u64::from(v));
        }
    }
}
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn cycle(first: &str, second: &str) -> PetriNet<String> {
        let mut net: PetriNet<String> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], first.to_owned(), [q]).unwrap();
        net.add_transition([q], second.to_owned(), [p]).unwrap();
        net.set_initial(p, 1);
        net
    }

    #[test]
    fn equal_nets_share_an_id() {
        assert_eq!(cycle("a", "b").net_id(), cycle("a", "b").net_id());
    }

    #[test]
    fn labels_are_part_of_the_identity() {
        assert_ne!(cycle("a", "b").net_id(), cycle("a", "c").net_id());
    }

    #[test]
    fn place_names_are_not_part_of_the_identity() {
        let mut renamed: PetriNet<String> = PetriNet::new();
        let p = renamed.add_place("idle");
        let q = renamed.add_place("busy");
        renamed.add_transition([p], "a".to_owned(), [q]).unwrap();
        renamed.add_transition([q], "b".to_owned(), [p]).unwrap();
        renamed.set_initial(p, 1);
        assert_eq!(cycle("a", "b").net_id(), renamed.net_id());
    }

    #[test]
    fn interner_order_does_not_matter() {
        let mut reversed: PetriNet<String> = PetriNet::new();
        reversed.intern_label(&"b".to_owned());
        reversed.intern_label(&"a".to_owned());
        let p = reversed.add_place("p");
        let q = reversed.add_place("q");
        reversed.add_transition([p], "a".to_owned(), [q]).unwrap();
        reversed.add_transition([q], "b".to_owned(), [p]).unwrap();
        reversed.set_initial(p, 1);
        assert_eq!(cycle("a", "b").net_id(), reversed.net_id());
    }

    #[test]
    fn place_order_does_not_matter() {
        let mut permuted: PetriNet<String> = PetriNet::new();
        let q = permuted.add_place("q");
        let p = permuted.add_place("p");
        permuted.add_transition([q], "b".to_owned(), [p]).unwrap();
        permuted.add_transition([p], "a".to_owned(), [q]).unwrap();
        permuted.set_initial(p, 1);
        assert_eq!(cycle("a", "b").net_id(), permuted.net_id());
    }

    #[test]
    fn marking_is_part_of_the_identity() {
        let mut two = cycle("a", "b");
        two.set_initial(PlaceId::from_index(0), 2);
        assert_ne!(two.net_id(), cycle("a", "b").net_id());
    }

    #[test]
    fn declared_alphabet_is_part_of_the_identity() {
        let mut declared = cycle("a", "b");
        declared.declare_label("c".to_owned());
        assert_ne!(declared.net_id(), cycle("a", "b").net_id());
        // But merely *interning* (a hidden label keeping its symbol
        // resolvable) is not structure.
        let mut interned = cycle("a", "b");
        interned.intern_label(&"c".to_owned());
        assert_eq!(interned.net_id(), cycle("a", "b").net_id());
    }

    #[test]
    fn automorphic_twin_places_are_handled() {
        // Two parallel places between the same pair of transitions:
        // refinement cannot split them, and does not need to — either
        // individualization choice serializes identically.
        let build = |swap: bool| {
            let mut net: PetriNet<String> = PetriNet::new();
            let a = net.add_place("a");
            let b = net.add_place("b");
            let (x, y) = if swap { (b, a) } else { (a, b) };
            let src = net.add_place("src");
            net.add_transition([src], "fill".to_owned(), [x, y])
                .unwrap();
            net.add_transition([x, y], "drain".to_owned(), [src])
                .unwrap();
            net.set_initial(src, 1);
            net
        };
        assert_eq!(build(false).net_id(), build(true).net_id());
    }

    /// Builds `copies` disjoint copies of `raw` as a net of this crate
    /// (the testkit builds nets of its own `cpn-petri` instance).
    fn build_copies(raw: &cpn_testkit::RawNet, copies: usize) -> PetriNet<String> {
        let mut net: PetriNet<String> = PetriNet::new();
        for c in 0..copies {
            let ps: Vec<PlaceId> = (0..raw.places)
                .map(|i| net.add_place(format!("c{c}p{i}")))
                .collect();
            for t in &raw.transitions {
                let pre = t.pre.iter().map(|&p| ps[p]);
                let post = t.post.iter().map(|&p| ps[p]);
                net.add_transition(pre, format!("t{}", t.label), post)
                    .unwrap();
            }
            for (i, &m) in raw.marking.iter().enumerate() {
                net.set_initial(ps[i], m);
            }
        }
        net
    }

    /// Runs the individualization loop, checking at every step that the
    /// quiet test predicts the full round it replaces: quiet exactly
    /// when that round splits no class, and then the colors stand.
    /// Returns the (quiet, full-round) individualization counts.
    fn check_quiet_test(net: &PetriNet<String>) -> (usize, usize) {
        let mut c = Canonicalizer::new(net);
        c.refine_to_fixpoint();
        let (mut quiet, mut loud) = (0, 0);
        while let Some((_, p)) = c.first_ambiguous(0) {
            let predicted = c.individualize(p);
            let colors = (c.place.color.clone(), c.trans.color.clone());
            let split = c.round();
            assert_eq!(predicted, !split, "quiet test disagrees with the round");
            if predicted {
                assert_eq!(colors, (c.place.color.clone(), c.trans.color.clone()));
                quiet += 1;
            } else {
                c.refine_to_fixpoint();
                loud += 1;
            }
        }
        (quiet, loud)
    }

    #[test]
    fn quiet_test_predicts_the_round() {
        use cpn_testkit::{check, NetStrategy, Strategy, TestRng};
        #[derive(Clone, Debug)]
        struct Copied;
        impl Strategy for Copied {
            type Value = (cpn_testkit::RawNet, usize);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let raw = NetStrategy::new(8, 8, 2).max_tokens(2).generate(rng);
                (raw, rng.gen_range(1..5))
            }
        }
        check("quiet_test_predicts_the_round", &Copied, |(raw, copies)| {
            check_quiet_test(&build_copies(raw, *copies));
            Ok(())
        });
    }

    #[test]
    fn twin_places_individualize_quietly_and_lanes_do_not() {
        // Twin places between one fork and one join: the fork and join
        // classes are singletons, touched whole.
        let mut twins: PetriNet<String> = PetriNet::new();
        let src = twins.add_place("src");
        let lanes: Vec<PlaceId> = (0..4).map(|i| twins.add_place(format!("l{i}"))).collect();
        twins
            .add_transition([src], "fork".to_owned(), lanes.clone())
            .unwrap();
        twins
            .add_transition(lanes, "join".to_owned(), [src])
            .unwrap();
        twins.set_initial(src, 1);
        assert_eq!(check_quiet_test(&twins), (3, 0));
        // Two copies of a two-place cycle: individualizing one copy's
        // place splits the shared transition classes.
        let copies = cpn_testkit::RawNet {
            places: 2,
            transitions: vec![
                cpn_testkit::RawTransition {
                    pre: vec![0],
                    label: 0,
                    post: vec![1],
                },
                cpn_testkit::RawTransition {
                    pre: vec![1],
                    label: 1,
                    post: vec![0],
                },
            ],
            marking: vec![1, 0],
        };
        assert_eq!(check_quiet_test(&build_copies(&copies, 2)), (0, 1));
    }

    #[test]
    fn empty_net_has_a_stable_id() {
        let a: PetriNet<String> = PetriNet::new();
        let b: PetriNet<String> = PetriNet::new();
        assert_eq!(a.net_id(), b.net_id());
    }

    #[test]
    fn canonical_form_roundtrips_to_equal_bytes() {
        assert_eq!(
            canonical_form(&cycle("a", "b")),
            canonical_form(&cycle("a", "b"))
        );
        assert_ne!(
            canonical_form(&cycle("a", "b")),
            canonical_form(&cycle("b", "a"))
        );
    }
}
