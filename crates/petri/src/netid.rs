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
//!    its preset and postset, until the partition stabilizes.
//! 4. **Individualization**: while some place color class has more than
//!    one member, the first member of the smallest-ranked class is
//!    given a fresh color and refinement is re-run.
//!
//! The resulting place order is total, and transitions are then sorted
//! by (canonical label, canonical preset, canonical postset).
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

use crate::hash::Fnv128;
use crate::label::Label;
use crate::net::{PetriNet, PlaceId, TransitionId};
use crate::Sym;
use std::fmt;

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
        h.write(&canonical_form(net));
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
    Canonicalizer::new(net).run()
}

/// The canonical serialization of a net: a byte string that is equal
/// for two nets exactly when they have the same canonical form (see
/// the module docs for what that guarantees). [`NetId::of`] is the
/// 128-bit FNV-1a hash of these bytes.
#[must_use]
pub fn canonical_form<L: Label>(net: &PetriNet<L>) -> Vec<u8> {
    let order = canonical_order(net);
    serialize(net, &order)
}

impl<L: Label> PetriNet<L> {
    /// This net's content-addressed structural identity (see
    /// [`NetId`]). `O((P + T) · rounds)` with small constants; cache
    /// the result rather than recomputing in hot loops.
    #[must_use]
    pub fn net_id(&self) -> NetId {
        NetId::of(self)
    }
}

const ROLE_CONSUMER: u64 = 0xC0;
const ROLE_PRODUCER: u64 = 0xBB;
const SEP: u64 = 0x5E9A_11AD;

/// Working state of the refinement + individualization loop. Colors are
/// dense ranks (canonically numbered by sorting round signatures), so
/// equal structures get equal rank vectors regardless of arena order.
struct Canonicalizer<'a, L: Label> {
    net: &'a PetriNet<L>,
    /// Canonical label index per transition (label-sorted dense rank).
    t_label: Vec<u64>,
    /// Canonical label index → symbol.
    label_order: Vec<Sym>,
    place_color: Vec<u64>,
    trans_color: Vec<u64>,
}

impl<'a, L: Label> Canonicalizer<'a, L> {
    fn new(net: &'a PetriNet<L>) -> Self {
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
        let t_label: Vec<u64> = net
            .transitions()
            .map(|(_, t)| rank_of_sym[t.sym().index()])
            .collect();
        Canonicalizer {
            net,
            t_label,
            label_order: used,
            place_color: Vec::new(),
            trans_color: Vec::new(),
        }
    }

    /// Dense canonical re-ranking: replaces each signature by its rank
    /// among the sorted distinct signatures. Equal structures produce
    /// equal signature multisets, so ranks are construction-order free.
    fn rank<T: Ord>(sigs: &[T]) -> Vec<u64> {
        let mut distinct: Vec<&T> = sigs.iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        sigs.iter()
            .map(|s| distinct.partition_point(|d| *d < s) as u64)
            .collect()
    }

    /// One refinement round; returns the new (place, transition) colors.
    fn refine_round(&self) -> (Vec<u64>, Vec<u64>) {
        let net = self.net;
        let mut p_sig: Vec<Vec<u64>> = self
            .place_color
            .iter()
            .map(|&c| vec![c.wrapping_mul(2).wrapping_add(1)])
            .collect();
        let mut t_sig: Vec<u64> = Vec::with_capacity(net.transition_count());
        let mut scratch: Vec<u64> = Vec::new();
        for (ti, (_, t)) in net.transitions().enumerate() {
            let tc = self.trans_color[ti];
            for p in t.preset() {
                p_sig[p.index()].push(tc.wrapping_mul(4) ^ ROLE_CONSUMER);
            }
            for p in t.postset() {
                p_sig[p.index()].push(tc.wrapping_mul(4) ^ ROLE_PRODUCER);
            }
            let mut h = Fnv128::new();
            h.write_u64(tc);
            h.write_u64(self.t_label[ti]);
            h.write_u64(SEP);
            scratch.clear();
            scratch.extend(t.preset().iter().map(|p| self.place_color[p.index()]));
            scratch.sort_unstable();
            for &c in &scratch {
                h.write_u64(c);
            }
            h.write_u64(SEP);
            scratch.clear();
            scratch.extend(t.postset().iter().map(|p| self.place_color[p.index()]));
            scratch.sort_unstable();
            for &c in &scratch {
                h.write_u64(c);
            }
            t_sig.push(h.finish() as u64);
        }
        // Rank by (old color, signature): the refined partition always
        // refines the old one, so keying on the old color first keeps
        // class numbering aligned round over round — once the partition
        // is stable the color *vector* is exactly reproduced, which is
        // what the fixpoint test compares (ranking raw signature hashes
        // alone can permute stable classes forever).
        let p_pair: Vec<(u64, u64)> = p_sig
            .into_iter()
            .enumerate()
            .map(|(pi, mut sig)| {
                sig[1..].sort_unstable();
                let mut h = Fnv128::new();
                for c in sig {
                    h.write_u64(c);
                }
                (self.place_color[pi], h.finish() as u64)
            })
            .collect();
        let t_pair: Vec<(u64, u64)> = t_sig
            .into_iter()
            .enumerate()
            .map(|(ti, sig)| (self.trans_color[ti], sig))
            .collect();
        (Self::rank(&p_pair), Self::rank(&t_pair))
    }

    /// Refines to a stable partition from the current colors.
    fn refine_to_fixpoint(&mut self) {
        // Each strict refinement increases the distinct color count, so
        // the loop runs at most P + T productive rounds plus one.
        loop {
            let (p, t) = self.refine_round();
            if p == self.place_color && t == self.trans_color {
                return;
            }
            self.place_color = p;
            self.trans_color = t;
        }
    }

    fn run(mut self) -> CanonicalOrder {
        let net = self.net;
        // Initial colors.
        let m0 = net.initial_marking();
        let p_sig: Vec<u64> = net.place_ids().map(|p| u64::from(m0.tokens(p))).collect();
        let t_sig: Vec<u64> = net
            .transitions()
            .enumerate()
            .map(|(ti, (_, t))| {
                let mut h = Fnv128::new();
                h.write_u64(self.t_label[ti]);
                h.write_u64(t.preset().len() as u64);
                h.write_u64(t.postset().len() as u64);
                h.finish() as u64
            })
            .collect();
        self.place_color = Self::rank(&p_sig);
        self.trans_color = Self::rank(&t_sig);
        self.refine_to_fixpoint();

        // Greedy individualization until the place partition is
        // discrete. Choosing the first member of the smallest
        // ambiguous class is isomorphism-invariant whenever the tied
        // members are automorphic (the common case — e.g. parallel
        // places between identically-labeled transitions); see the
        // module docs for the non-automorphic caveat.
        loop {
            let n = self.place_color.len();
            let mut count = vec![0u32; n + 1];
            for &c in &self.place_color {
                count[c as usize] += 1;
            }
            let Some(first_ambiguous) = self
                .place_color
                .iter()
                .enumerate()
                .filter(|&(_, &c)| count[c as usize] > 1)
                .min_by_key(|&(i, &c)| (c, i))
                .map(|(i, _)| i)
            else {
                break;
            };
            // A fresh color strictly above every existing rank.
            self.place_color[first_ambiguous] = n as u64;
            self.place_color = Self::rank(&self.place_color);
            self.refine_to_fixpoint();
        }

        // Final orders.
        let mut places: Vec<PlaceId> = net.place_ids().collect();
        places.sort_by_key(|p| self.place_color[p.index()]);
        let mut canon_pos = vec![0u32; places.len()];
        for (pos, p) in places.iter().enumerate() {
            canon_pos[p.index()] = pos as u32;
        }
        let mut transitions: Vec<(Vec<u32>, TransitionId)> = net
            .transitions()
            .enumerate()
            .map(|(ti, (id, t))| {
                let mut key = Vec::with_capacity(3 + t.preset().len() + t.postset().len());
                key.push(self.t_label[ti] as u32);
                key.push(t.preset().len() as u32);
                let mut pre: Vec<u32> = t.preset().iter().map(|p| canon_pos[p.index()]).collect();
                pre.sort_unstable();
                key.extend(pre);
                key.push(t.postset().len() as u32);
                let mut post: Vec<u32> = t.postset().iter().map(|p| canon_pos[p.index()]).collect();
                post.sort_unstable();
                key.extend(post);
                (key, id)
            })
            .collect();
        transitions.sort();
        CanonicalOrder {
            places,
            transitions: transitions.into_iter().map(|(_, id)| id).collect(),
            labels: self.label_order,
        }
    }
}

/// Serializes a net through a canonical order. Field boundaries are
/// length-prefixed so no two distinct structures share bytes.
fn serialize<L: Label>(net: &PetriNet<L>, order: &CanonicalOrder) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"CPNCANON1");
    push_u64(&mut out, net.place_count() as u64);
    push_u64(&mut out, net.transition_count() as u64);
    push_u64(&mut out, order.labels.len() as u64);
    for &s in &order.labels {
        let text = net.resolve(s).to_string();
        push_u64(&mut out, text.len() as u64);
        out.extend_from_slice(text.as_bytes());
        out.push(u8::from(net.alphabet_syms().contains(s)));
    }
    let m0 = net.initial_marking();
    for &p in &order.places {
        push_u64(&mut out, u64::from(m0.tokens(p)));
    }
    let mut label_rank = vec![u64::MAX; net.interner().len()];
    for (rank, &s) in order.labels.iter().enumerate() {
        label_rank[s.index()] = rank as u64;
    }
    let mut canon_pos = vec![0u64; net.place_count()];
    for (pos, p) in order.places.iter().enumerate() {
        canon_pos[p.index()] = pos as u64;
    }
    for &tid in &order.transitions {
        let t = net.transition(tid);
        push_u64(&mut out, label_rank[t.sym().index()]);
        let mut pre: Vec<u64> = t.preset().iter().map(|p| canon_pos[p.index()]).collect();
        pre.sort_unstable();
        push_u64(&mut out, pre.len() as u64);
        for v in pre {
            push_u64(&mut out, v);
        }
        let mut post: Vec<u64> = t.postset().iter().map(|p| canon_pos[p.index()]).collect();
        post.sort_unstable();
        push_u64(&mut out, post.len() as u64);
        for v in post {
            push_u64(&mut out, v);
        }
    }
    out
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
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
