//! The reference canonicalizer [`cpn_petri::NetId`] is checked against:
//! plain 1-dimensional Weisfeiler–Leman color refinement with greedy
//! individualization, rerunning the whole refinement to a fixpoint
//! after every individualization, with a fresh `Vec` per place
//! signature and the canonical bytes materialized before hashing.
//!
//! It fixes what the fast canonicalizer must reproduce byte for byte:
//! the same signature hash (FNV-1a-128 truncated to 64 bits), the same
//! rank order, the same individualization choice and the same
//! serialization. It shares no adjacency, ranking or serialization code
//! with `cpn-petri`'s canonicalizer.

use cpn_petri::hash::Fnv128;
use cpn_petri::{CanonicalOrder, Label, PetriNet, PlaceId, Sym, TransitionId};

/// The canonical place/transition/label orderings of `net`, computed
/// the reference way.
pub fn canonical_order<L: Label>(net: &PetriNet<L>) -> CanonicalOrder {
    Canonicalizer::new(net).run()
}

/// The canonical serialization of `net`, computed the reference way:
/// [`cpn_petri::canonical_form`] must return these bytes, and
/// [`cpn_petri::NetId`] must be their FNV-1a-128 hash.
pub fn canonical_form<L: Label>(net: &PetriNet<L>) -> Vec<u8> {
    let order = canonical_order(net);
    serialize(net, &order)
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
