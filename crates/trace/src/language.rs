//! The [`Language`] type: a prefix-closed set of traces up to a depth.
//!
//! Traces are stored symbol-encoded: the language owns an
//! [`Interner`] and every trace is a `Vec<Sym>`, so set membership,
//! BFS extension and the operator algebra run on `Copy` symbols with no
//! label clones. Labels are materialized at the API boundary
//! ([`Language::iter`], [`Display`](fmt::Display), [`Language::alphabet`]).

use cpn_petri::{
    AlphaSet, Bounded, Budget, EnableScratch, Interner, Label, Marking, Meter, PetriNet, Resource,
    Sym,
};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Errors produced during trace extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// Trace enumeration exceeded the configured budget.
    BudgetExceeded {
        /// The budget that was exceeded.
        budget: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BudgetExceeded { budget } => {
                write!(f, "trace budget of {budget} traces exceeded")
            }
        }
    }
}

impl Error for TraceError {}

/// A prefix-closed trace language over labels `L`, exact up to `depth`.
///
/// Contains every firing sequence of length at most `depth` (and always
/// `ε`). The alphabet is carried explicitly because the language-level
/// parallel composition (Definition 4.8) is projection-based and needs it.
///
/// Equality (and [`eq_up_to`](Language::eq_up_to)) is **semantic**: two
/// languages compare equal when they denote the same label alphabet and
/// trace set, regardless of the symbol numbering their interners happen
/// to use.
#[derive(Clone)]
pub struct Language<L: Label> {
    interner: Interner<L>,
    alphabet: AlphaSet,
    traces: BTreeSet<Vec<Sym>>,
    depth: usize,
}

impl<L: Label> Language<L> {
    /// The language containing only the empty trace (the semantics of
    /// `nil`), over the given alphabet.
    pub fn nil(alphabet: BTreeSet<L>, depth: usize) -> Self {
        let mut interner = Interner::new();
        let alphabet = alphabet
            .into_iter()
            .map(|l| interner.intern_owned(l))
            .collect();
        let mut traces = BTreeSet::new();
        traces.insert(Vec::new());
        Language {
            interner,
            alphabet,
            traces,
            depth,
        }
    }

    /// Builds a language from explicit traces, closing it under prefixes.
    ///
    /// Traces longer than `depth` are truncated away (their prefixes up to
    /// `depth` are kept).
    pub fn from_traces(
        alphabet: BTreeSet<L>,
        traces: impl IntoIterator<Item = Vec<L>>,
        depth: usize,
    ) -> Self {
        let mut interner = Interner::new();
        let alphabet: AlphaSet = alphabet
            .into_iter()
            .map(|l| interner.intern_owned(l))
            .collect();
        let mut set = BTreeSet::new();
        set.insert(Vec::new());
        for t in traces {
            let t: Vec<Sym> = t
                .into_iter()
                .take(depth)
                .map(|l| interner.intern_owned(l))
                .collect();
            for i in 1..=t.len() {
                set.insert(t[..i].to_vec());
            }
        }
        Language {
            interner,
            alphabet,
            traces: set,
            depth,
        }
    }

    /// Extracts `L(N)` up to `depth` by exhaustive firing-sequence
    /// enumeration (Definition 4.1).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BudgetExceeded`] when more than `budget`
    /// distinct `(trace, marking)` pairs are visited — a guard against
    /// exponential nets at large depths.
    pub fn from_net(net: &PetriNet<L>, depth: usize, budget: usize) -> Result<Self, TraceError> {
        match Self::from_net_bounded(net, depth, &Budget::states(budget.saturating_sub(1))) {
            Bounded::Complete(l) => Ok(l),
            Bounded::Exhausted { .. } => Err(TraceError::BudgetExceeded { budget }),
        }
    }

    /// Extracts `L(N)` up to `depth` under a [`Budget`], degrading
    /// gracefully instead of erroring.
    ///
    /// The budget's state cap bounds distinct `(marking, trace)` pairs
    /// beyond the initial one; its transition cap bounds firings. When a
    /// cap is hit, enumeration stops and the prefix-closed language
    /// collected so far is returned in [`Bounded::Exhausted`] — every
    /// trace in it is a genuine trace of the net, but traces past the
    /// stop point are missing.
    ///
    /// The language shares the net's symbol space (its interner is a
    /// snapshot of the net's), and the enumeration itself is label-free:
    /// each firing appends a `Copy` symbol read off the compiled net.
    pub fn from_net_bounded(net: &PetriNet<L>, depth: usize, budget: &Budget) -> Bounded<Self> {
        let mut meter = Meter::new(budget);
        let mut traces: BTreeSet<Vec<Sym>> = BTreeSet::new();
        traces.insert(Vec::new());

        // Frontier of distinct (marking, trace) pairs at the current depth.
        let mut frontier: BTreeSet<(Marking, Vec<Sym>)> = BTreeSet::new();
        frontier.insert((net.initial_marking(), Vec::new()));

        // Successor generation goes through the compiled firing rule's
        // bitmap enabling, in ascending transition order like a full
        // scan.
        let compiled = net.compile();
        let mut scratch = EnableScratch::default();
        let (mut occ, mut enabled) = (Vec::new(), Vec::new());

        'explore: for _ in 0..depth {
            let mut next: BTreeSet<(Marking, Vec<Sym>)> = BTreeSet::new();
            for (m, trace) in &frontier {
                compiled.occupancy_into(m.as_slice(), &mut occ);
                compiled.enabled_into(&occ, &mut scratch, &mut enabled);
                for &tu in &enabled {
                    let t = cpn_petri::TransitionId::from_index(tu as usize);
                    if !meter.take_transition() {
                        break 'explore;
                    }
                    // An enabled transition fails to fire only past
                    // `u32::MAX` tokens.
                    let Ok(m2) = net.fire(m, t) else {
                        meter.stop(Resource::Storage);
                        break 'explore;
                    };
                    let mut t2 = trace.clone();
                    t2.push(compiled.sym(tu));
                    traces.insert(t2.clone());
                    let pair = (m2, t2);
                    if next.contains(&pair) {
                        continue;
                    }
                    if !meter.take_state() {
                        break 'explore;
                    }
                    next.insert(pair);
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }

        meter.finish(Language {
            interner: net.interner().clone(),
            alphabet: net.alphabet_syms().clone(),
            traces,
            depth,
        })
    }

    /// The alphabet the language is defined over, materialized as labels.
    pub fn alphabet(&self) -> BTreeSet<L> {
        self.alphabet
            .iter()
            .map(|s| self.interner.resolve(s).clone())
            .collect()
    }

    /// The alphabet as a symbol bitset (in this language's symbol space).
    pub fn alphabet_syms(&self) -> &AlphaSet {
        &self.alphabet
    }

    /// This language's label interner.
    pub fn interner(&self) -> &Interner<L> {
        &self.interner
    }

    /// The exactness depth: all traces of length ≤ depth are present.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of traces (including `ε`).
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the language is just `{ε}`.
    pub fn is_empty(&self) -> bool {
        self.traces.len() == 1
    }

    /// Membership test.
    pub fn contains(&self, trace: &[L]) -> bool {
        let mut t = Vec::with_capacity(trace.len());
        for l in trace {
            match self.interner.get(l) {
                Some(s) => t.push(s),
                None => return false,
            }
        }
        self.traces.contains(&t)
    }

    /// Iterates over all traces (in symbol-lexicographic order),
    /// materializing labels.
    pub fn iter(&self) -> impl Iterator<Item = Vec<L>> + '_ {
        self.traces.iter().map(|t| {
            t.iter()
                .map(|&s| self.interner.resolve(s).clone())
                .collect()
        })
    }

    /// Restricts the language (and its exactness depth) to traces of
    /// length at most `depth`.
    pub fn truncate(&self, depth: usize) -> Language<L> {
        Language {
            interner: self.interner.clone(),
            alphabet: self.alphabet.clone(),
            traces: self
                .traces
                .iter()
                .filter(|t| t.len() <= depth)
                .cloned()
                .collect(),
            depth: self.depth.min(depth),
        }
    }

    /// Remaps `other`'s traces into `self`'s symbol space and tests trace
    /// set equality. A label of `other` missing from `self`'s interner can
    /// only appear in traces `self` cannot contain.
    fn traces_equal(&self, other: &Language<L>) -> bool {
        if self.interner == other.interner {
            return self.traces == other.traces;
        }
        if self.traces.len() != other.traces.len() {
            return false;
        }
        let map: Vec<Option<Sym>> = other
            .interner
            .iter()
            .map(|(_, l)| self.interner.get(l))
            .collect();
        // The remap is injective (interners are bijections), so equal
        // cardinality plus containment implies set equality.
        let mut scratch: Vec<Sym> = Vec::new();
        other.traces.iter().all(|t| {
            scratch.clear();
            for s in t {
                match map[s.index()] {
                    Some(m) => scratch.push(m),
                    None => return false,
                }
            }
            self.traces.contains(&scratch)
        })
    }

    /// Whether `self` and `other` agree on all traces up to `depth`
    /// (alphabets are *not* compared — the paper's equations are about
    /// trace sets).
    pub fn eq_up_to(&self, other: &Language<L>, depth: usize) -> bool {
        debug_assert!(
            depth <= self.depth && depth <= other.depth,
            "comparison depth exceeds language exactness"
        );
        self.truncate(depth).traces_equal(&other.truncate(depth))
    }

    /// Whether every trace of `self` (up to `depth`) is a trace of
    /// `other` — the containment of Theorem 5.1.
    pub fn subset_up_to(&self, other: &Language<L>, depth: usize) -> bool {
        let map: Vec<Option<Sym>> = self
            .interner
            .iter()
            .map(|(_, l)| other.interner.get(l))
            .collect();
        let mut scratch: Vec<Sym> = Vec::new();
        self.traces.iter().filter(|t| t.len() <= depth).all(|t| {
            scratch.clear();
            for s in t {
                match map[s.index()] {
                    Some(m) => scratch.push(m),
                    None => return false,
                }
            }
            other.traces.contains(&scratch)
        })
    }

    pub(crate) fn raw_parts(&self) -> (&Interner<L>, &AlphaSet, &BTreeSet<Vec<Sym>>, usize) {
        (&self.interner, &self.alphabet, &self.traces, self.depth)
    }

    pub(crate) fn from_raw(
        interner: Interner<L>,
        alphabet: AlphaSet,
        traces: BTreeSet<Vec<Sym>>,
        depth: usize,
    ) -> Self {
        Language {
            interner,
            alphabet,
            traces,
            depth,
        }
    }
}

impl<L: Label> PartialEq for Language<L> {
    /// Semantic equality: same depth, same alphabet **label** set, same
    /// trace set — independent of symbol numbering.
    fn eq(&self, other: &Self) -> bool {
        if self.depth != other.depth || self.alphabet.len() != other.alphabet.len() {
            return false;
        }
        let alpha_eq = self.alphabet.iter().all(|s| {
            other
                .interner
                .get(self.interner.resolve(s))
                .is_some_and(|o| other.alphabet.contains(o))
        });
        alpha_eq && self.traces_equal(other)
    }
}

impl<L: Label> Eq for Language<L> {}

impl<L: Label> fmt::Debug for Language<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Language(depth {}, {} traces over {{{}}})",
            self.depth,
            self.traces.len(),
            self.alphabet
                .iter()
                .map(|s| self.interner.resolve(s).to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

impl<L: Label> fmt::Display for Language<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{self:?}")?;
        for t in &self.traces {
            if t.is_empty() {
                writeln!(f, "  ε")?;
            } else {
                writeln!(
                    f,
                    "  {}",
                    t.iter()
                        .map(|&s| self.interner.resolve(s).to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab_cycle() -> PetriNet<&'static str> {
        let mut net = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p]).unwrap();
        net.set_initial(p, 1);
        net
    }

    #[test]
    fn cycle_language_alternates() {
        let l = Language::from_net(&ab_cycle(), 3, 1000).unwrap();
        assert!(l.contains(&[]));
        assert!(l.contains(&["a"]));
        assert!(l.contains(&["a", "b"]));
        assert!(l.contains(&["a", "b", "a"]));
        assert!(!l.contains(&["a", "a"]));
        assert!(!l.contains(&["b"]));
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn token_overflow_stops_with_storage() {
        // A source on a place already holding `u32::MAX` tokens: its
        // firing has no successor marking, so enumeration stops with a
        // storage stop and keeps only the empty trace.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        net.add_transition([], "src", [p]).unwrap();
        net.set_initial(p, u32::MAX);
        let built = Language::from_net_bounded(&net, 3, &Budget::states(100));
        assert_eq!(
            built
                .exhausted()
                .map(|e| (e.resource, e.transitions_explored)),
            Some((Resource::Storage, 1))
        );
        assert_eq!(built.value().len(), 1);
    }

    #[test]
    fn nil_is_epsilon_only() {
        let l: Language<&str> = Language::nil(BTreeSet::new(), 5);
        assert!(l.is_empty());
        assert!(l.contains(&[]));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn from_traces_prefix_closes() {
        let l = Language::from_traces(BTreeSet::from(["a", "b"]), vec![vec!["a", "b"]], 5);
        assert!(l.contains(&["a"]));
        assert!(l.contains(&["a", "b"]));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn from_traces_truncates_to_depth() {
        let l = Language::from_traces(BTreeSet::from(["a"]), vec![vec!["a", "a", "a"]], 2);
        assert!(l.contains(&["a", "a"]));
        assert!(!l.contains(&["a", "a", "a"]));
    }

    #[test]
    fn truncate_reduces_depth() {
        let l = Language::from_net(&ab_cycle(), 4, 1000).unwrap();
        let t = l.truncate(2);
        assert_eq!(t.depth(), 2);
        assert!(t.contains(&["a", "b"]));
        assert!(!t.contains(&["a", "b", "a"]));
    }

    #[test]
    fn eq_up_to_ignores_deeper_traces() {
        let l3 = Language::from_net(&ab_cycle(), 3, 1000).unwrap();
        let l4 = Language::from_net(&ab_cycle(), 4, 1000).unwrap();
        assert!(l3.eq_up_to(&l4, 3));
        assert_ne!(l3, l4);
    }

    #[test]
    fn equality_is_symbol_order_independent() {
        // Same trace set {ε, "a b"}, interners numbered in opposite
        // orders: l1 has a=0,b=1; rev is hand-built with b=0,a=1.
        let l1 = Language::from_traces(BTreeSet::from(["a", "b"]), vec![vec!["a", "b"]], 4);
        let mut interner: Interner<&str> = Interner::new();
        let b = interner.intern(&"b");
        let a = interner.intern(&"a");
        let alphabet: AlphaSet = [a, b].into_iter().collect();
        // Prefix-closed by hand, matching from_traces' closure of "a b".
        let traces = BTreeSet::from([vec![], vec![a], vec![a, b]]);
        let rev = Language::from_raw(interner, alphabet, traces, 4);
        assert_ne!(
            l1.interner().get(&"a"),
            rev.interner().get(&"a"),
            "the two interners must disagree on symbol assignment"
        );
        assert_eq!(l1, rev, "equality must resolve through the interners");
        assert!(l1.eq_up_to(&rev, 4) && rev.eq_up_to(&l1, 4));
        let same = Language::from_traces(BTreeSet::from(["b", "a"]), vec![vec!["a", "b"]], 4);
        assert_eq!(l1, same);
        assert!(l1.eq_up_to(&same, 4));
    }

    #[test]
    fn subset_detects_restriction() {
        let full = Language::from_net(&ab_cycle(), 3, 1000).unwrap();
        let sub = Language::from_traces(BTreeSet::from(["a", "b"]), vec![vec!["a"]], 3);
        assert!(sub.subset_up_to(&full, 3));
        assert!(!full.subset_up_to(&sub, 3));
    }

    #[test]
    fn budget_exceeded_reported() {
        // Two concurrent independent cycles explode combinatorially.
        let mut net: PetriNet<String> = PetriNet::new();
        for i in 0..4 {
            let p = net.add_place(format!("p{i}"));
            let q = net.add_place(format!("q{i}"));
            net.add_transition([p], format!("a{i}"), [q]).unwrap();
            net.add_transition([q], format!("b{i}"), [p]).unwrap();
            net.set_initial(p, 1);
        }
        let err = Language::from_net(&net, 6, 10).unwrap_err();
        assert_eq!(err, TraceError::BudgetExceeded { budget: 10 });
    }

    #[test]
    fn nondeterministic_same_label_choice() {
        // Two transitions labeled "a" to different places; both successor
        // behaviours must be in the language.
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q1 = net.add_place("q1");
        let q2 = net.add_place("q2");
        net.add_transition([p], "a", [q1]).unwrap();
        net.add_transition([p], "a", [q2]).unwrap();
        net.add_transition([q1], "b", [p]).unwrap();
        net.add_transition([q2], "c", [p]).unwrap();
        net.set_initial(p, 1);
        let l = Language::from_net(&net, 2, 1000).unwrap();
        assert!(l.contains(&["a", "b"]));
        assert!(l.contains(&["a", "c"]));
    }

    #[test]
    fn display_renders_epsilon() {
        let l: Language<&str> = Language::nil(BTreeSet::new(), 1);
        assert!(l.to_string().contains('ε'));
    }
}
