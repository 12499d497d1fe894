//! The [`PetriNet`] data structure: arena-indexed labeled Petri nets.
//!
//! Mirrors Definition 2.1 of the paper: `N = (A, P, →, M0)`. The alphabet
//! `A` is carried **explicitly** (not derived from the transitions) because
//! the algebra of Section 4 synchronizes parallel composition on the common
//! alphabet `A1 ∩ A2`, which may include labels that currently have no
//! transitions in one of the nets.
//!
//! Labels are stored interned: each net owns an [`Interner`] mapping its
//! labels to dense [`Sym`] symbols, transitions carry a `Sym`, and the
//! alphabet is an [`AlphaSet`] bitset. The generic label-typed API is
//! preserved — labels are materialized at the boundary — while the hot
//! paths (firing, contraction, composition, trace extraction) run on
//! symbols.

use crate::alphabet::{AlphaSet, Interner, Sym};
use crate::error::PetriError;
use crate::label::Label;
use crate::marking::Marking;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a place inside one [`PetriNet`] (arena index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(u32);

impl PlaceId {
    /// The arena index of this place.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `PlaceId` from an arena index.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::IndexOverflow`] when the index does not fit
    /// the 32-bit id space.
    pub fn try_from_index(i: usize) -> Result<Self, PetriError> {
        match u32::try_from(i) {
            Ok(v) => Ok(PlaceId(v)),
            Err(_) => Err(PetriError::IndexOverflow { index: i }),
        }
    }

    /// Builds a `PlaceId` from an arena index.
    ///
    /// Only meaningful for indices obtained from the same net.
    ///
    /// # Panics
    ///
    /// Panics if the index exceeds the 32-bit id space; use
    /// [`PlaceId::try_from_index`] where the index is untrusted.
    pub fn from_index(i: usize) -> Self {
        match Self::try_from_index(i) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }
}

impl fmt::Debug for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a transition inside one [`PetriNet`] (arena index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(u32);

impl TransitionId {
    /// The arena index of this transition.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `TransitionId` from an arena index.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::IndexOverflow`] when the index does not fit
    /// the 32-bit id space.
    pub fn try_from_index(i: usize) -> Result<Self, PetriError> {
        match u32::try_from(i) {
            Ok(v) => Ok(TransitionId(v)),
            Err(_) => Err(PetriError::IndexOverflow { index: i }),
        }
    }

    /// Builds a `TransitionId` from an arena index.
    ///
    /// # Panics
    ///
    /// Panics if the index exceeds the 32-bit id space; use
    /// [`TransitionId::try_from_index`] where the index is untrusted.
    pub fn from_index(i: usize) -> Self {
        match Self::try_from_index(i) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }
}

impl fmt::Debug for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A place of the net, carrying a human-readable name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Place {
    name: String,
}

impl Place {
    /// The place's name (free-form; used by printers and the text format).
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A transition `(p, a, q)` with preset `p`, label symbol `a` and
/// postset `q`.
///
/// Presets and postsets are place **sets**, exactly as in the paper's
/// transition relation `→ ⊆ 2^P × A × 2^P`. The label is stored as an
/// interned [`Sym`]; resolve it against the owning net with
/// [`PetriNet::label_of`] or [`PetriNet::resolve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transition {
    preset: BTreeSet<PlaceId>,
    sym: Sym,
    postset: BTreeSet<PlaceId>,
}

impl Transition {
    /// Input places `p` of the transition.
    pub fn preset(&self) -> &BTreeSet<PlaceId> {
        &self.preset
    }

    /// The action label's interned symbol.
    pub fn sym(&self) -> Sym {
        self.sym
    }

    /// Output places `q` of the transition.
    pub fn postset(&self) -> &BTreeSet<PlaceId> {
        &self.postset
    }

    /// Whether the transition has a self-loop (`p ∩ q ≠ ∅`).
    pub fn has_self_loop(&self) -> bool {
        self.preset.intersection(&self.postset).next().is_some()
    }
}

/// The set of `places`, inserted one by one: collecting into a
/// `BTreeSet` would first sort them in a `Vec` of their own, an
/// allocation too many for the few places of a pre- or postset.
fn place_set(places: impl IntoIterator<Item = PlaceId>) -> BTreeSet<PlaceId> {
    let mut set = BTreeSet::new();
    set.extend(places);
    set
}

/// A labeled Petri net `(A, P, →, M0)` over labels of type `L`.
///
/// Construction is incremental: add places, then transitions over them,
/// then set the initial marking. All analysis lives in sibling modules and
/// in method form on this type.
///
/// # Example
///
/// ```
/// use cpn_petri::PetriNet;
///
/// # fn main() -> Result<(), cpn_petri::PetriError> {
/// let mut net: PetriNet<&str> = PetriNet::new();
/// let p0 = net.add_place("idle");
/// let p1 = net.add_place("busy");
/// let go = net.add_transition([p0], "go", [p1])?;
/// net.add_transition([p1], "done", [p0])?;
/// net.set_initial(p0, 1);
///
/// let m = net.initial_marking();
/// assert!(net.is_enabled(&m, go));
/// let m2 = net.fire(&m, go)?;
/// assert_eq!(m2.tokens(p1), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct PetriNet<L: Label> {
    places: Vec<Place>,
    transitions: Vec<Transition>,
    interner: Interner<L>,
    alphabet: AlphaSet,
    initial: Marking,
}

impl<L: Label> Default for PetriNet<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: Label> PetriNet<L> {
    /// Creates an empty net (no places, no transitions, empty alphabet).
    pub fn new() -> Self {
        PetriNet {
            places: Vec::new(),
            transitions: Vec::new(),
            interner: Interner::new(),
            alphabet: AlphaSet::new(),
            initial: Marking::empty(0),
        }
    }

    /// Creates an empty net whose interner is pre-seeded with `interner`.
    ///
    /// Builders that already work in an existing symbol space (the
    /// contraction editor, parallel composition) use this so
    /// [`add_transition_sym`](Self::add_transition_sym) needs no label
    /// clones or lookups; symbols of the seed interner keep their
    /// meaning in the new net.
    pub fn with_interner(interner: Interner<L>) -> Self {
        PetriNet {
            places: Vec::new(),
            transitions: Vec::new(),
            interner,
            alphabet: AlphaSet::new(),
            initial: Marking::empty(0),
        }
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a place with the given name and returns its id.
    pub fn add_place(&mut self, name: impl Into<String>) -> PlaceId {
        let id = PlaceId::from_index(self.places.len());
        self.places.push(Place { name: name.into() });
        self.initial.grow(1);
        id
    }

    /// Reserves room for `additional` more interned labels, for a
    /// builder that knows how many it will add: a growing interner
    /// rehashes every label it holds.
    pub fn reserve_labels(&mut self, additional: usize) {
        self.interner.reserve(additional);
    }

    fn check_transition(
        &self,
        preset: &BTreeSet<PlaceId>,
        postset: &BTreeSet<PlaceId>,
    ) -> Result<(), PetriError> {
        for &p in preset.iter().chain(postset.iter()) {
            if p.index() >= self.places.len() {
                return Err(PetriError::UnknownPlace(p.0));
            }
        }
        if preset.is_empty() && postset.is_empty() {
            return Err(PetriError::DegenerateTransition);
        }
        Ok(())
    }

    /// Adds a transition `(preset, label, postset)`.
    ///
    /// The label is interned and added to the alphabet.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::UnknownPlace`] if a place id does not belong
    /// to this net, and [`PetriError::DegenerateTransition`] if both the
    /// preset and the postset are empty.
    pub fn add_transition(
        &mut self,
        preset: impl IntoIterator<Item = PlaceId>,
        label: L,
        postset: impl IntoIterator<Item = PlaceId>,
    ) -> Result<TransitionId, PetriError> {
        let sym = self.interner.intern_owned(label);
        self.add_transition_sym(preset, sym, postset)
    }

    /// Adds a transition whose label is the already-interned `sym`.
    ///
    /// The symbol-space twin of [`add_transition`](Self::add_transition):
    /// no label value is touched. The symbol is added to the alphabet.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::UnknownPlace`] / [`PetriError::DegenerateTransition`]
    /// as `add_transition`, and [`PetriError::Precondition`] if the symbol
    /// is not part of this net's interner.
    pub fn add_transition_sym(
        &mut self,
        preset: impl IntoIterator<Item = PlaceId>,
        sym: Sym,
        postset: impl IntoIterator<Item = PlaceId>,
    ) -> Result<TransitionId, PetriError> {
        let preset = place_set(preset);
        let postset = place_set(postset);
        self.check_transition(&preset, &postset)?;
        if sym.index() >= self.interner.len() {
            return Err(PetriError::Precondition(format!(
                "symbol {sym} not interned in this net"
            )));
        }
        let id = TransitionId::from_index(self.transitions.len());
        self.alphabet.insert(sym);
        self.transitions.push(Transition {
            preset,
            sym,
            postset,
        });
        Ok(id)
    }

    /// Declares a label as part of the alphabet even if no transition
    /// carries it (needed for faithful parallel composition, Def 4.7).
    pub fn declare_label(&mut self, label: L) {
        let sym = self.interner.intern_owned(label);
        self.alphabet.insert(sym);
    }

    /// Interns a label without declaring it in the alphabet, returning
    /// its symbol. Hidden labels keep resolvable symbols this way.
    pub fn intern_label(&mut self, label: &L) -> Sym {
        self.interner.intern(label)
    }

    /// Declares an already-interned symbol as part of the alphabet — the
    /// symbol-space twin of [`declare_label`](Self::declare_label).
    ///
    /// # Panics
    ///
    /// Panics if the symbol does not belong to this net's interner.
    pub fn declare_sym(&mut self, sym: Sym) {
        assert!(
            sym.index() < self.interner.len(),
            "symbol {sym} not interned in this net"
        );
        self.alphabet.insert(sym);
    }

    /// Removes a label from the alphabet.
    ///
    /// Has no effect on transitions; callers are expected to have removed
    /// or relabeled the transitions first (as the hiding operator does).
    /// The label stays interned — symbols are never invalidated.
    pub fn undeclare_label(&mut self, label: &L) {
        if let Some(sym) = self.interner.get(label) {
            self.alphabet.remove(sym);
        }
    }

    /// Sets the initial token count of a place.
    ///
    /// # Panics
    ///
    /// Panics if the place does not belong to this net.
    pub fn set_initial(&mut self, place: PlaceId, tokens: u32) {
        assert!(place.index() < self.places.len(), "unknown place");
        self.initial.set(place, tokens);
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The explicit alphabet `A`, materialized as a label set.
    ///
    /// Boundary API: allocates. Hot paths use
    /// [`alphabet_syms`](Self::alphabet_syms) and stay on symbols.
    pub fn alphabet(&self) -> BTreeSet<L> {
        self.alphabet
            .iter()
            .map(|s| self.interner.resolve(s).clone())
            .collect()
    }

    /// The explicit alphabet `A` as a symbol bitset.
    pub fn alphabet_syms(&self) -> &AlphaSet {
        &self.alphabet
    }

    /// Whether `label` is in the alphabet.
    pub fn alphabet_contains(&self, label: &L) -> bool {
        self.interner
            .get(label)
            .is_some_and(|s| self.alphabet.contains(s))
    }

    /// Number of labels in the alphabet.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet.len()
    }

    /// This net's label interner.
    pub fn interner(&self) -> &Interner<L> {
        &self.interner
    }

    /// The symbol of `label` in this net's interner, if interned.
    pub fn sym_of(&self, label: &L) -> Option<Sym> {
        self.interner.get(label)
    }

    /// The label behind a symbol of this net's interner.
    ///
    /// # Panics
    ///
    /// Panics if the symbol does not belong to this net.
    pub fn resolve(&self, sym: Sym) -> &L {
        self.interner.resolve(sym)
    }

    /// The label of transition `t`.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this net.
    pub fn label_of(&self, t: TransitionId) -> &L {
        self.interner.resolve(self.transitions[t.index()].sym)
    }

    /// `true` when both nets have identical places, transitions and
    /// initial marking — structural identity, ignoring the declared
    /// alphabet (hiding shrinks `A` even when no transition changed).
    /// The synthesis pipeline uses this to skip a second dead-removal
    /// pass when projection turned out to be a no-op.
    pub fn same_structure(&self, other: &PetriNet<L>) -> bool {
        if self.places != other.places || self.initial != other.initial {
            return false;
        }
        if self.interner == other.interner {
            return self.transitions == other.transitions;
        }
        self.transitions.len() == other.transitions.len()
            && self
                .transitions
                .iter()
                .zip(&other.transitions)
                .all(|(a, b)| {
                    a.preset == b.preset
                        && a.postset == b.postset
                        && self.interner.resolve(a.sym) == other.interner.resolve(b.sym)
                })
    }

    /// The place with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this net.
    pub fn place(&self, p: PlaceId) -> &Place {
        &self.places[p.index()]
    }

    /// The transition with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this net.
    pub fn transition(&self, t: TransitionId) -> &Transition {
        &self.transitions[t.index()]
    }

    /// Iterates over all place ids.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.places.len()).map(PlaceId::from_index)
    }

    /// Iterates over all transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.transitions.len()).map(TransitionId::from_index)
    }

    /// Iterates over `(id, transition)` pairs.
    pub fn transitions(&self) -> impl Iterator<Item = (TransitionId, &Transition)> {
        self.transitions
            .iter()
            .enumerate()
            .map(|(i, t)| (TransitionId::from_index(i), t))
    }

    /// Iterates over `(id, place)` pairs.
    pub fn places(&self) -> impl Iterator<Item = (PlaceId, &Place)> {
        self.places
            .iter()
            .enumerate()
            .map(|(i, p)| (PlaceId::from_index(i), p))
    }

    /// All transitions carrying the given label.
    pub fn transitions_with_label<'a>(
        &'a self,
        label: &L,
    ) -> impl Iterator<Item = TransitionId> + 'a {
        let sym = self.interner.get(label);
        self.transitions()
            .filter(move |(_, t)| Some(t.sym) == sym)
            .map(|(id, _)| id)
    }

    /// All transitions carrying the given label symbol.
    pub fn transitions_with_sym(&self, sym: Sym) -> impl Iterator<Item = TransitionId> + '_ {
        self.transitions()
            .filter(move |(_, t)| t.sym == sym)
            .map(|(id, _)| id)
    }

    /// The initial marking `M0`.
    pub fn initial_marking(&self) -> Marking {
        self.initial.clone()
    }

    /// The set of initially marked places `{p ∈ P | M0(p) ≠ 0}`.
    pub fn initial_places(&self) -> BTreeSet<PlaceId> {
        self.initial.marked_places().map(|(p, _)| p).collect()
    }

    /// Whether the initial marking is safe (at most one token per place).
    pub fn has_safe_initial_marking(&self) -> bool {
        self.initial.is_safe()
    }

    /// Transitions producing into place `p` (those with `p` in the postset).
    pub fn producers(&self, p: PlaceId) -> Vec<TransitionId> {
        self.transitions()
            .filter(|(_, t)| t.postset().contains(&p))
            .map(|(id, _)| id)
            .collect()
    }

    /// Transitions consuming from place `p` (those with `p` in the preset).
    pub fn consumers(&self, p: PlaceId) -> Vec<TransitionId> {
        self.transitions()
            .filter(|(_, t)| t.preset().contains(&p))
            .map(|(id, _)| id)
            .collect()
    }

    // ------------------------------------------------------------------
    // Token game (Definition 2.2)
    // ------------------------------------------------------------------

    /// Whether transition `t` is enabled in marking `m`:
    /// `∀ p ∈ preset(t): m(p) > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not belong to this net or `m` has the wrong
    /// number of places.
    pub fn is_enabled(&self, m: &Marking, t: TransitionId) -> bool {
        assert_eq!(m.len(), self.places.len(), "marking over different net");
        self.transitions[t.index()]
            .preset
            .iter()
            .all(|&p| m.tokens(p) > 0)
    }

    /// Fires transition `t` in marking `m`, producing the successor
    /// marking per Definition 2.2: tokens are removed from `p \ q`, added
    /// to `q \ p`, and untouched on self-loops `p ∩ q`.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::Precondition`] if the transition is not
    /// enabled.
    pub fn fire(&self, m: &Marking, t: TransitionId) -> Result<Marking, PetriError> {
        if !self.is_enabled(m, t) {
            return Err(PetriError::Precondition(format!(
                "transition {t} not enabled in {m}"
            )));
        }
        let tr = &self.transitions[t.index()];
        let mut next = m.clone();
        for &p in tr.preset.difference(&tr.postset) {
            next.remove(p, 1)?;
        }
        for &q in tr.postset.difference(&tr.preset) {
            next.add(q, 1)?;
        }
        Ok(next)
    }

    /// All transitions enabled in marking `m`.
    pub fn enabled_transitions(&self, m: &Marking) -> Vec<TransitionId> {
        self.transition_ids()
            .filter(|&t| self.is_enabled(m, t))
            .collect()
    }

    // ------------------------------------------------------------------
    // Rebuilding (used by the algebra and dead-transition removal)
    // ------------------------------------------------------------------

    /// Returns a copy of the net without the given transitions.
    ///
    /// Places, their names and the initial marking are preserved;
    /// surviving transitions are re-indexed densely. Labels that no longer
    /// have transitions **stay** in the alphabet (removing a transition
    /// does not hide its action).
    pub fn without_transitions(&self, remove: &BTreeSet<TransitionId>) -> PetriNet<L> {
        let mut net = PetriNet {
            places: self.places.clone(),
            transitions: Vec::new(),
            interner: self.interner.clone(),
            alphabet: self.alphabet.clone(),
            initial: self.initial.clone(),
        };
        for (id, t) in self.transitions() {
            if !remove.contains(&id) {
                net.transitions.push(t.clone());
            }
        }
        net
    }

    /// Returns a copy of the net without places that are neither marked
    /// initially nor adjacent to any transition, together with the
    /// old-to-new place id mapping.
    pub fn without_isolated_places(&self) -> (PetriNet<L>, BTreeMap<PlaceId, PlaceId>) {
        let used = self.used_places();
        let mut map = BTreeMap::new();
        let mut net = PetriNet::with_interner(self.interner.clone());
        net.alphabet = self.alphabet.clone();
        for (old, place) in self.places() {
            if used[old.index()] {
                let new = net.add_place(place.name().to_owned());
                net.initial.set(new, self.initial.tokens(old));
                map.insert(old, new);
            }
        }
        for (_, t) in self.transitions() {
            // Remapped ids are valid by construction (every adjacent place
            // is `used`), so the transition can be pushed directly.
            net.alphabet.insert(t.sym());
            net.transitions.push(Transition {
                preset: t.preset().iter().map(|p| map[p]).collect(),
                sym: t.sym(),
                postset: t.postset().iter().map(|p| map[p]).collect(),
            });
        }
        (net, map)
    }

    /// Per place, whether it is marked initially or adjacent to a
    /// transition: the places [`without_isolated_places`] keeps.
    ///
    /// [`without_isolated_places`]: Self::without_isolated_places
    fn used_places(&self) -> Vec<bool> {
        let mut used = vec![false; self.places.len()];
        for (_, t) in self.transitions() {
            for &p in t.preset().iter().chain(t.postset().iter()) {
                used[p.index()] = true;
            }
        }
        for (p, _) in self.initial.marked_places() {
            used[p.index()] = true;
        }
        used
    }

    /// Whether some place is neither marked initially nor adjacent to
    /// any transition.
    pub(crate) fn has_isolated_place(&self) -> bool {
        self.used_places().contains(&false)
    }

    /// Maps every label through `f`, producing a net over a new label type.
    ///
    /// The alphabet is mapped element-wise; distinct labels may collapse
    /// (their symbols merge in the new interner).
    pub fn map_labels<M: Label>(&self, mut f: impl FnMut(&L) -> M) -> PetriNet<M> {
        let mut interner: Interner<M> = Interner::new();
        // Old symbol index → new symbol; interning order follows the old
        // symbol numbering so equal source nets map to equal results.
        let sym_map: Vec<Sym> = self
            .interner
            .iter()
            .map(|(_, l)| interner.intern_owned(f(l)))
            .collect();
        let mut alphabet = AlphaSet::new();
        for s in self.alphabet.iter() {
            alphabet.insert(sym_map[s.index()]);
        }
        PetriNet {
            places: self.places.clone(),
            transitions: self
                .transitions
                .iter()
                .map(|t| Transition {
                    preset: t.preset.clone(),
                    sym: sym_map[t.sym.index()],
                    postset: t.postset.clone(),
                })
                .collect(),
            interner,
            alphabet,
            initial: self.initial.clone(),
        }
    }

    /// Checks internal consistency (place ids in range, marking length,
    /// every transition label declared in the alphabet).
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), PetriError> {
        if self.initial.len() != self.places.len() {
            return Err(PetriError::Precondition(format!(
                "marking covers {} places, net has {}",
                self.initial.len(),
                self.places.len()
            )));
        }
        for (id, t) in self.transitions() {
            for &p in t.preset().iter().chain(t.postset().iter()) {
                if p.index() >= self.places.len() {
                    return Err(PetriError::UnknownPlace(p.0));
                }
            }
            if t.sym().index() >= self.interner.len() {
                return Err(PetriError::Precondition(format!(
                    "symbol {} of transition {id} not interned",
                    t.sym()
                )));
            }
            if !self.alphabet.contains(t.sym()) {
                return Err(PetriError::Precondition(format!(
                    "label {} of transition {id} missing from alphabet",
                    self.label_of(id)
                )));
            }
        }
        Ok(())
    }
}

impl PetriNet<String> {
    /// [`intern_label`](Self::intern_label) for a label given as
    /// `&str`: interning a label the net already has allocates nothing.
    pub fn intern_str(&mut self, label: &str) -> Sym {
        self.interner.intern_str(label)
    }
}

impl<L: Label> PartialEq for PetriNet<L> {
    /// Semantic equality: identical places, initial marking, transition
    /// structure with equal **labels** (not raw symbols), and equal
    /// alphabet label sets. Two nets built through different interning
    /// orders compare equal when they denote the same net.
    fn eq(&self, other: &Self) -> bool {
        if self.places != other.places || self.initial != other.initial {
            return false;
        }
        if self.interner == other.interner {
            return self.transitions == other.transitions && self.alphabet == other.alphabet;
        }
        if self.transitions.len() != other.transitions.len()
            || self.alphabet.len() != other.alphabet.len()
        {
            return false;
        }
        self.transitions
            .iter()
            .zip(&other.transitions)
            .all(|(a, b)| {
                a.preset == b.preset
                    && a.postset == b.postset
                    && self.interner.resolve(a.sym) == other.interner.resolve(b.sym)
            })
            && self.alphabet.iter().all(|s| {
                other
                    .interner
                    .get(self.interner.resolve(s))
                    .is_some_and(|o| other.alphabet.contains(o))
            })
    }
}

impl<L: Label> Eq for PetriNet<L> {}

impl<L: Label> fmt::Debug for PetriNet<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl<L: Label> fmt::Display for PetriNet<L> {
    /// A compact multi-line listing of places, transitions and the initial
    /// marking.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "net: {} places, {} transitions, alphabet {{{}}}",
            self.place_count(),
            self.transition_count(),
            self.alphabet()
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        for (id, t) in self.transitions() {
            writeln!(
                f,
                "  {id}: {{{}}} --{}--> {{{}}}",
                t.preset()
                    .iter()
                    .map(|p| self.place(*p).name().to_owned())
                    .collect::<Vec<_>>()
                    .join(","),
                self.label_of(id),
                t.postset()
                    .iter()
                    .map(|p| self.place(*p).name().to_owned())
                    .collect::<Vec<_>>()
                    .join(","),
            )?;
        }
        write!(
            f,
            "  M0: {{{}}}",
            self.initial
                .marked_places()
                .map(|(p, n)| if n == 1 {
                    self.place(p).name().to_owned()
                } else {
                    format!("{}×{}", self.place(p).name(), n)
                })
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn two_cycle() -> (
        PetriNet<&'static str>,
        PlaceId,
        PlaceId,
        TransitionId,
        TransitionId,
    ) {
        let mut net = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let a = net.add_transition([p], "a", [q]).unwrap();
        let b = net.add_transition([q], "b", [p]).unwrap();
        net.set_initial(p, 1);
        (net, p, q, a, b)
    }

    #[test]
    fn build_and_fire() {
        let (net, p, q, a, b) = two_cycle();
        let m0 = net.initial_marking();
        assert!(net.is_enabled(&m0, a));
        assert!(!net.is_enabled(&m0, b));
        let m1 = net.fire(&m0, a).unwrap();
        assert_eq!(m1.tokens(p), 0);
        assert_eq!(m1.tokens(q), 1);
        let m2 = net.fire(&m1, b).unwrap();
        assert_eq!(m2, m0);
    }

    #[test]
    fn fire_disabled_is_error() {
        let (net, _, _, _, b) = two_cycle();
        let m0 = net.initial_marking();
        assert!(net.fire(&m0, b).is_err());
    }

    #[test]
    fn self_loop_keeps_token() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let t = net.add_transition([p], "a", [p, q]).unwrap();
        net.set_initial(p, 1);
        assert!(net.transition(t).has_self_loop());
        let m1 = net.fire(&net.initial_marking(), t).unwrap();
        assert_eq!(m1.tokens(p), 1, "self-loop token untouched");
        assert_eq!(m1.tokens(q), 1);
    }

    #[test]
    fn unknown_place_rejected() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let bogus = PlaceId::from_index(7);
        assert_eq!(
            net.add_transition([p, bogus], "a", []),
            Err(PetriError::UnknownPlace(7))
        );
    }

    #[test]
    fn degenerate_transition_rejected() {
        let mut net: PetriNet<&str> = PetriNet::new();
        assert_eq!(
            net.add_transition([], "a", []),
            Err(PetriError::DegenerateTransition)
        );
    }

    #[test]
    fn alphabet_tracks_labels_and_declarations() {
        let (mut net, ..) = two_cycle();
        assert!(net.alphabet_contains(&"a"));
        assert!(net.alphabet_contains(&"b"));
        net.declare_label("c");
        assert!(net.alphabet_contains(&"c"));
        net.undeclare_label(&"c");
        assert!(!net.alphabet_contains(&"c"));
        // Undeclared labels stay interned: their symbols survive.
        assert!(net.sym_of(&"c").is_some());
        assert_eq!(net.alphabet(), BTreeSet::from(["a", "b"]));
    }

    #[test]
    fn symbols_are_dense_and_resolvable() {
        let (net, _, _, a, b) = two_cycle();
        let sa = net.transition(a).sym();
        let sb = net.transition(b).sym();
        assert_ne!(sa, sb);
        assert_eq!(net.resolve(sa), &"a");
        assert_eq!(net.label_of(b), &"b");
        assert_eq!(net.sym_of(&"a"), Some(sa));
        assert_eq!(
            net.transitions_with_sym(sa).collect::<Vec<_>>(),
            net.transitions_with_label(&"a").collect::<Vec<_>>()
        );
    }

    #[test]
    fn add_transition_sym_rejects_foreign_symbol() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        assert!(net
            .add_transition_sym([p], Sym::from_index(5), [q])
            .is_err());
        let s = net.intern_label(&"a");
        let t = net.add_transition_sym([p], s, [q]).unwrap();
        assert_eq!(net.label_of(t), &"a");
        assert!(net.alphabet_contains(&"a"));
    }

    #[test]
    fn equality_is_label_aware_across_interners() {
        // Same net, labels interned in different orders.
        let mut n1: PetriNet<&str> = PetriNet::new();
        let mut n2: PetriNet<&str> = PetriNet::new();
        n2.declare_label("b"); // "b" gets symbol 0 in n2, 1 in n1
        for net in [&mut n1, &mut n2] {
            let p = net.add_place("p");
            let q = net.add_place("q");
            net.add_transition([p], "a", [q]).unwrap();
            net.add_transition([q], "b", [p]).unwrap();
            net.set_initial(p, 1);
        }
        assert_ne!(n1.sym_of(&"b"), n2.sym_of(&"b"));
        assert_eq!(n1, n2);
        assert!(n1.same_structure(&n2));
        n2.add_transition([PlaceId::from_index(0)], "c", [PlaceId::from_index(1)])
            .unwrap();
        assert_ne!(n1, n2);
    }

    #[test]
    fn producers_and_consumers() {
        let (net, p, q, a, b) = two_cycle();
        assert_eq!(net.producers(q), vec![a]);
        assert_eq!(net.consumers(q), vec![b]);
        assert_eq!(net.producers(p), vec![b]);
        assert_eq!(net.consumers(p), vec![a]);
    }

    #[test]
    fn without_transitions_preserves_places() {
        let (net, _, _, a, _) = two_cycle();
        let pruned = net.without_transitions(&BTreeSet::from([a]));
        assert_eq!(pruned.place_count(), 2);
        assert_eq!(pruned.transition_count(), 1);
        let (only, _) = pruned.transitions().next().unwrap();
        assert_eq!(pruned.label_of(only), &"b");
        // label "a" stays in the alphabet
        assert!(pruned.alphabet_contains(&"a"));
    }

    #[test]
    fn without_isolated_places_drops_unused() {
        let (mut net, ..) = two_cycle();
        net.add_place("orphan");
        let (pruned, map) = net.without_isolated_places();
        assert_eq!(pruned.place_count(), 2);
        assert_eq!(map.len(), 2);
        pruned.validate().unwrap();
    }

    #[test]
    fn isolated_but_marked_place_is_kept() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        net.set_initial(p, 1);
        let (pruned, _) = net.without_isolated_places();
        assert_eq!(pruned.place_count(), 1);
    }

    #[test]
    fn map_labels_can_collapse() {
        let (net, ..) = two_cycle();
        let mapped = net.map_labels(|_| "x");
        assert_eq!(mapped.alphabet().len(), 1);
        assert_eq!(mapped.transition_count(), 2);
        mapped.validate().unwrap();
    }

    #[test]
    fn validate_passes_on_well_formed() {
        let (net, ..) = two_cycle();
        net.validate().unwrap();
    }

    #[test]
    fn display_mentions_structure() {
        let (net, ..) = two_cycle();
        let s = net.to_string();
        assert!(s.contains("2 places"));
        assert!(s.contains("--a-->"));
        assert!(s.contains("M0"));
    }

    #[test]
    fn net_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PetriNet<String>>();
    }
}
