//! The interned alphabet layer: dense symbols, a label interner and
//! bitset alphabets.
//!
//! The paper carries the alphabet `A` of a net explicitly (Definition
//! 2.1), and every operator of the Section 4 algebra works with label
//! *sets*: parallel composition synchronizes on `A1 ∩ A2` (Def 4.7),
//! hiding removes a set from `A` (Def 4.10), projection keeps one. With
//! structured label types (`String`, STG edges, CIP channel operations)
//! those sets were `BTreeSet<L>` and every membership test paid a full
//! label comparison, every index insertion a clone.
//!
//! This module replaces that representation at the core: each
//! [`PetriNet`](crate::PetriNet) owns an [`Interner`] mapping its labels
//! to dense [`Sym`] symbols, transitions store a `Sym` (4 bytes, `Copy`),
//! and alphabet/sync/keep/hide sets are [`AlphaSet`] bitsets with
//! word-parallel set algebra. Labels are materialized only at API
//! boundaries (display, the text format, errors); everything between —
//! contraction worklists, rendez-vous matching, trace languages — runs
//! on symbols.

use crate::label::Label;
use std::collections::HashMap;
use std::fmt;

/// A dense interned symbol standing for one label of an [`Interner`].
///
/// Symbols are meaningful only relative to the interner that produced
/// them; two nets over the same label type may assign different symbols
/// to the same label. Cross-net operations remap through
/// [`Interner::merge`] first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The dense index of this symbol (an index into the interner's
    /// resolve table).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `Sym` from a dense index.
    ///
    /// Only meaningful for indices obtained from the same interner.
    ///
    /// # Panics
    ///
    /// Panics if the index does not fit the `u32` symbol space.
    pub fn from_index(i: usize) -> Self {
        assert!(u32::try_from(i).is_ok(), "symbol space exceeds u32");
        Sym(i as u32)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A label interner: bijection between labels and dense [`Sym`] symbols.
///
/// Interning is append-only — symbols stay valid for the lifetime of the
/// interner — and first-come-first-numbered, so construction order fully
/// determines the symbol assignment (no hashing order leaks into
/// observable behavior).
#[derive(Clone)]
pub struct Interner<L: Label> {
    labels: Vec<L>,
    lookup: HashMap<L, Sym>,
}

impl<L: Label> Default for Interner<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: Label> Interner<L> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner {
            labels: Vec::new(),
            lookup: HashMap::new(),
        }
    }

    /// Interns a label, returning its symbol. The label is cloned only
    /// on first occurrence.
    pub fn intern(&mut self, label: &L) -> Sym {
        if let Some(&s) = self.lookup.get(label) {
            return s;
        }
        let s = Sym::from_index(self.labels.len());
        self.labels.push(label.clone());
        self.lookup.insert(label.clone(), s);
        s
    }

    /// Interns an owned label without cloning on first occurrence.
    pub fn intern_owned(&mut self, label: L) -> Sym {
        if let Some(&s) = self.lookup.get(&label) {
            return s;
        }
        let s = Sym::from_index(self.labels.len());
        self.labels.push(label.clone());
        self.lookup.insert(label, s);
        s
    }

    /// The symbol of an already-interned label, if any.
    pub fn get(&self, label: &L) -> Option<Sym> {
        self.lookup.get(label).copied()
    }

    /// The label behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics if the symbol does not belong to this interner.
    pub fn resolve(&self, sym: Sym) -> &L {
        &self.labels[sym.index()]
    }

    /// Reserves room for `additional` more labels.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.labels.reserve(additional);
        self.lookup.reserve(additional);
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no label has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over `(sym, label)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &L)> {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, l)| (Sym::from_index(i), l))
    }

    /// Interns every label of `other` into `self` and returns the remap
    /// table: entry `i` is the symbol in `self` for `other`'s symbol `i`.
    ///
    /// This is the cross-net bridge: parallel composition and language
    /// operators intern each foreign label **once** (instead of once per
    /// transition or trace element) and then work on remapped symbols.
    pub fn merge(&mut self, other: &Interner<L>) -> Vec<Sym> {
        other.labels.iter().map(|l| self.intern(l)).collect()
    }
}

impl Interner<String> {
    /// Interns a label given as `&str`: a label already interned is
    /// found without allocating, and a new one is stored as
    /// [`intern`](Self::intern) stores it.
    pub fn intern_str(&mut self, label: &str) -> Sym {
        if let Some(&s) = self.lookup.get(label) {
            return s;
        }
        let s = Sym::from_index(self.labels.len());
        self.labels.push(label.to_owned());
        self.lookup.insert(label.to_owned(), s);
        s
    }
}

impl<L: Label> PartialEq for Interner<L> {
    /// Two interners are equal when they assign the same symbols to the
    /// same labels (the lookup map is derived state).
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
    }
}

impl<L: Label> Eq for Interner<L> {}

impl<L: Label> fmt::Debug for Interner<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

const WORD_BITS: usize = 64;

/// A dense bitset over [`Sym`] symbols: the workspace representation of
/// alphabet, synchronization, keep and hide sets.
///
/// Set algebra (`union_with`, `intersect_with`, `subtract`) runs
/// word-parallel; membership is one shift and mask. Equality and hashing
/// ignore trailing zero words, so a set is equal to itself regardless of
/// the capacity it was grown to.
#[derive(Clone, Default)]
pub struct AlphaSet {
    words: Vec<u64>,
}

impl AlphaSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        AlphaSet { words: Vec::new() }
    }

    fn grow_for(&mut self, index: usize) {
        let need = index / WORD_BITS + 1;
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    /// Inserts a symbol; returns `true` if it was absent.
    pub fn insert(&mut self, sym: Sym) -> bool {
        let i = sym.index();
        self.grow_for(i);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes a symbol; returns `true` if it was present.
    pub fn remove(&mut self, sym: Sym) -> bool {
        let i = sym.index();
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        if w >= self.words.len() {
            return false;
        }
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Whether the symbol is in the set.
    pub fn contains(&self, sym: Sym) -> bool {
        let i = sym.index();
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Number of symbols in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Adds every symbol of `other` (`self ∪= other`).
    pub fn union_with(&mut self, other: &AlphaSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Keeps only symbols also in `other` (`self ∩= other`).
    pub fn intersect_with(&mut self, other: &AlphaSet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Removes every symbol of `other` (`self \= other`).
    pub fn subtract(&mut self, other: &AlphaSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// `self ∩ other` as a new set.
    pub fn intersection(&self, other: &AlphaSet) -> AlphaSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &AlphaSet) -> AlphaSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// `self \ other` as a new set.
    pub fn difference(&self, other: &AlphaSet) -> AlphaSet {
        let mut out = self.clone();
        out.subtract(other);
        out
    }

    /// Whether the two sets share a symbol.
    pub fn intersects(&self, other: &AlphaSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates over the symbols in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Sym> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(Sym::from_index(wi * WORD_BITS + b))
            })
        })
    }
}

impl PartialEq for AlphaSet {
    fn eq(&self, other: &Self) -> bool {
        let common = self.words.len().min(other.words.len());
        self.words[..common] == other.words[..common]
            && self.words[common..].iter().all(|&w| w == 0)
            && other.words[common..].iter().all(|&w| w == 0)
    }
}

impl Eq for AlphaSet {}

impl std::hash::Hash for AlphaSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Skip trailing zero words so equal sets hash equally.
        let mut end = self.words.len();
        while end > 0 && self.words[end - 1] == 0 {
            end -= 1;
        }
        self.words[..end].hash(state);
    }
}

impl FromIterator<Sym> for AlphaSet {
    fn from_iter<I: IntoIterator<Item = Sym>>(iter: I) -> Self {
        let mut set = AlphaSet::new();
        for s in iter {
            set.insert(s);
        }
        set
    }
}

impl Extend<Sym> for AlphaSet {
    fn extend<I: IntoIterator<Item = Sym>>(&mut self, iter: I) {
        for s in iter {
            self.insert(s);
        }
    }
}

impl fmt::Debug for AlphaSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i: Interner<String> = Interner::new();
        let a = i.intern(&"a".to_owned());
        let b = i.intern(&"b".to_owned());
        assert_eq!(i.intern(&"a".to_owned()), a);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.resolve(a), "a");
        assert_eq!(i.resolve(b), "b");
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(&"c".to_owned()), None);
    }

    #[test]
    fn intern_order_determines_symbols() {
        let mut i1: Interner<&str> = Interner::new();
        let mut i2: Interner<&str> = Interner::new();
        i1.intern(&"x");
        i1.intern(&"y");
        i2.intern(&"y");
        i2.intern(&"x");
        assert_ne!(i1, i2, "interners differ by assignment order");
        assert_eq!(i1.get(&"x"), i2.get(&"y"));
    }

    #[test]
    fn merge_builds_remap_table() {
        let mut a: Interner<&str> = Interner::new();
        a.intern(&"p");
        a.intern(&"q");
        let mut b: Interner<&str> = Interner::new();
        b.intern(&"q");
        b.intern(&"r");
        let map = a.merge(&b);
        assert_eq!(map.len(), 2);
        assert_eq!(a.resolve(map[0]), &"q");
        assert_eq!(a.resolve(map[1]), &"r");
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn alphaset_insert_remove_contains() {
        let mut s = AlphaSet::new();
        assert!(s.insert(Sym::from_index(3)));
        assert!(!s.insert(Sym::from_index(3)));
        assert!(s.insert(Sym::from_index(100)));
        assert!(s.contains(Sym::from_index(3)));
        assert!(s.contains(Sym::from_index(100)));
        assert!(!s.contains(Sym::from_index(4)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(Sym::from_index(3)));
        assert!(!s.remove(Sym::from_index(3)));
        assert!(!s.remove(Sym::from_index(4000)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn alphaset_algebra_matches_btreeset() {
        let a: AlphaSet = [0usize, 1, 64, 65, 130]
            .into_iter()
            .map(Sym::from_index)
            .collect();
        let b: AlphaSet = [1usize, 64, 200].into_iter().map(Sym::from_index).collect();
        let inter: Vec<usize> = a.intersection(&b).iter().map(Sym::index).collect();
        assert_eq!(inter, vec![1, 64]);
        let uni: Vec<usize> = a.union(&b).iter().map(Sym::index).collect();
        assert_eq!(uni, vec![0, 1, 64, 65, 130, 200]);
        let diff: Vec<usize> = a.difference(&b).iter().map(Sym::index).collect();
        assert_eq!(diff, vec![0, 65, 130]);
        assert!(a.intersects(&b));
        assert!(!AlphaSet::new().intersects(&a));
    }

    #[test]
    fn alphaset_equality_ignores_capacity() {
        let mut a = AlphaSet::new();
        a.insert(Sym::from_index(2));
        let mut b = AlphaSet::new();
        b.insert(Sym::from_index(2));
        b.insert(Sym::from_index(300));
        b.remove(Sym::from_index(300));
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn alphaset_iter_ascending() {
        let s: AlphaSet = [300usize, 5, 64, 0]
            .into_iter()
            .map(Sym::from_index)
            .collect();
        let got: Vec<usize> = s.iter().map(Sym::index).collect();
        assert_eq!(got, vec![0, 5, 64, 300]);
    }
}
