//! The [`Stg`] wrapper: declaration-checked signal transition graphs with
//! boolean guards, classical well-formedness, and the STG-level
//! composition/hiding operations of Section 5.1.

use crate::signal::{Edge, Signal, SignalDir, StgLabel};
use cpn_core::{hide_labels, parallel_with_sync, NetEditor};
use cpn_petri::{
    AlphaSet, Bounded, Budget, Meter, PetriError, PetriNet, PlaceId, TransitionId, Verdict,
};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Errors specific to the STG layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StgError {
    /// A transition referenced a signal that was not declared.
    UndeclaredSignal(String),
    /// A signal was declared twice with conflicting directions.
    RedeclaredSignal(String),
    /// Two composed STGs both drive the same signal.
    OutputCollision(String),
    /// An underlying Petri net error.
    Net(PetriError),
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::UndeclaredSignal(s) => write!(f, "signal {s} is not declared"),
            StgError::RedeclaredSignal(s) => {
                write!(f, "signal {s} redeclared with a different direction")
            }
            StgError::OutputCollision(s) => {
                write!(f, "both modules drive output signal {s}")
            }
            StgError::Net(e) => write!(f, "{e}"),
        }
    }
}

impl Error for StgError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StgError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PetriError> for StgError {
    fn from(e: PetriError) -> Self {
        StgError::Net(e)
    }
}

/// A boolean guard: a conjunction of signal-level literals, attached to a
/// transition (Section 2.2's "predicates on signal levels attached to
/// outgoing arcs of places" — arc guards of a transition's input arcs
/// conjoin, so the transition is the natural carrier).
///
/// # Example
///
/// ```
/// use cpn_stg::{Guard, Signal};
/// let g = Guard::new().require(Signal::new("DATA"), true);
/// assert!(g.eval(|s| s.name() == "DATA"));
/// assert!(!g.eval(|_| false));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Guard {
    literals: BTreeMap<Signal, bool>,
    /// Set when a conjunction required `s=0 & s=1`: the guard is
    /// unsatisfiable (the fused transition can never fire).
    contradiction: bool,
}

impl Guard {
    /// The trivially true guard.
    pub fn new() -> Self {
        Guard::default()
    }

    /// The unsatisfiable guard.
    pub fn never() -> Self {
        Guard {
            literals: BTreeMap::new(),
            contradiction: true,
        }
    }

    /// Adds a literal `signal = value` (builder style). Conflicting
    /// literals make the guard contradictory.
    pub fn require(mut self, signal: Signal, value: bool) -> Self {
        match self.literals.get(&signal) {
            Some(&v) if v != value => self.contradiction = true,
            _ => {
                self.literals.insert(signal, value);
            }
        }
        self
    }

    /// Whether the guard has no literals (always true).
    pub fn is_true(&self) -> bool {
        self.literals.is_empty() && !self.contradiction
    }

    /// Whether the guard can never be satisfied.
    pub fn is_contradiction(&self) -> bool {
        self.contradiction
    }

    /// The literals of the conjunction.
    pub fn literals(&self) -> impl Iterator<Item = (&Signal, bool)> {
        self.literals.iter().map(|(s, &v)| (s, v))
    }

    /// Evaluates the guard against a signal-level valuation.
    pub fn eval(&self, mut level: impl FnMut(&Signal) -> bool) -> bool {
        !self.contradiction && self.literals.iter().all(|(s, &v)| level(s) == v)
    }

    /// Conjunction of two guards (used when composition or hiding merges
    /// transitions; Section 5.1 notes guards propagate to the
    /// corresponding arcs).
    pub fn and(&self, other: &Guard) -> Guard {
        let mut out = self.clone();
        out.contradiction |= other.contradiction;
        for (s, &v) in &other.literals {
            out = out.require(s.clone(), v);
        }
        out
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.contradiction {
            return f.write_str("false");
        }
        if self.is_true() {
            return f.write_str("true");
        }
        let parts: Vec<String> = self
            .literals
            .iter()
            .map(|(s, &v)| format!("{s}={}", u8::from(v)))
            .collect();
        f.write_str(&parts.join(" & "))
    }
}

/// Report of the classical STG requirements of Definition 2.3:
/// strongly-connected, live and safe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassicalReport {
    /// The place/transition graph is strongly connected.
    pub strongly_connected: bool,
    /// Every transition is live.
    pub live: bool,
    /// Every reachable marking is safe.
    pub safe: bool,
    /// Consistent state assignment exists (filled by the state-graph
    /// check; `None` when not computed).
    pub consistent: Option<bool>,
}

impl ClassicalReport {
    /// Whether the structural/behavioural requirements of the classical
    /// STG definition all hold.
    pub fn is_classical(&self) -> bool {
        self.strongly_connected && self.live && self.safe
    }
}

/// A signal transition graph: a labeled Petri net over [`StgLabel`] plus
/// signal declarations and per-transition guards.
#[derive(Clone, Debug)]
pub struct Stg {
    net: PetriNet<StgLabel>,
    signals: BTreeMap<Signal, SignalDir>,
    guards: BTreeMap<TransitionId, Guard>,
}

impl Default for Stg {
    fn default() -> Self {
        Self::new()
    }
}

impl Stg {
    /// Creates an empty STG.
    pub fn new() -> Self {
        Stg {
            net: PetriNet::new(),
            signals: BTreeMap::new(),
            guards: BTreeMap::new(),
        }
    }

    /// Declares a signal with its direction and returns it.
    ///
    /// Redeclaring with the same direction is idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the signal was declared with a different direction (a
    /// construction bug; use [`Stg::try_add_signal`] for fallible
    /// declaration).
    pub fn add_signal(&mut self, name: impl AsRef<str>, dir: SignalDir) -> Signal {
        match self.try_add_signal(name, dir) {
            Ok(sig) => sig,
            Err(e) => panic!("conflicting signal declaration: {e}"),
        }
    }

    /// Fallible signal declaration.
    ///
    /// # Errors
    ///
    /// [`StgError::RedeclaredSignal`] on a conflicting direction.
    pub fn try_add_signal(
        &mut self,
        name: impl AsRef<str>,
        dir: SignalDir,
    ) -> Result<Signal, StgError> {
        let sig = Signal::new(name);
        match self.signals.get(&sig) {
            Some(&existing) if existing != dir => {
                Err(StgError::RedeclaredSignal(sig.name().to_owned()))
            }
            _ => {
                self.signals.insert(sig.clone(), dir);
                Ok(sig)
            }
        }
    }

    /// Adds a place (delegates to the underlying net).
    pub fn add_place(&mut self, name: impl Into<String>) -> PlaceId {
        self.net.add_place(name)
    }

    /// Adds a signal transition `(preset, s·e, postset)`.
    ///
    /// # Errors
    ///
    /// [`StgError::UndeclaredSignal`] if the signal was not declared;
    /// net-level errors otherwise.
    pub fn add_signal_transition(
        &mut self,
        preset: impl IntoIterator<Item = PlaceId>,
        label: (Signal, Edge),
        postset: impl IntoIterator<Item = PlaceId>,
    ) -> Result<TransitionId, StgError> {
        let (sig, edge) = label;
        if !self.signals.contains_key(&sig) {
            return Err(StgError::UndeclaredSignal(sig.name().to_owned()));
        }
        Ok(self
            .net
            .add_transition(preset, StgLabel::Signal(sig, edge), postset)?)
    }

    /// Adds a dummy (ε) transition.
    ///
    /// # Errors
    ///
    /// Net-level errors (unknown place, degenerate transition).
    pub fn add_dummy(
        &mut self,
        preset: impl IntoIterator<Item = PlaceId>,
        postset: impl IntoIterator<Item = PlaceId>,
    ) -> Result<TransitionId, StgError> {
        Ok(self.net.add_transition(preset, StgLabel::Dummy, postset)?)
    }

    /// Attaches a guard to a transition (replacing any previous guard).
    pub fn set_guard(&mut self, t: TransitionId, guard: Guard) {
        if guard.is_true() {
            self.guards.remove(&t);
        } else {
            self.guards.insert(t, guard);
        }
    }

    /// The guard of a transition (true when none was attached).
    pub fn guard(&self, t: TransitionId) -> Guard {
        self.guards.get(&t).cloned().unwrap_or_default()
    }

    /// Sets the initial marking of a place.
    pub fn set_initial(&mut self, place: PlaceId, tokens: u32) {
        self.net.set_initial(place, tokens);
    }

    /// The underlying labeled Petri net.
    pub fn net(&self) -> &PetriNet<StgLabel> {
        &self.net
    }

    /// The declared signals and their directions.
    pub fn signals(&self) -> &BTreeMap<Signal, SignalDir> {
        &self.signals
    }

    /// Signals with the given direction.
    pub fn signals_with_dir(&self, dir: SignalDir) -> BTreeSet<Signal> {
        self.signals
            .iter()
            .filter(|(_, &d)| d == dir)
            .map(|(s, _)| s.clone())
            .collect()
    }

    /// All labels of a signal present in the net's alphabet.
    pub fn labels_of(&self, signal: &Signal) -> BTreeSet<StgLabel> {
        self.net
            .alphabet()
            .into_iter()
            .filter(|l| l.signal_name() == Some(signal))
            .collect()
    }

    /// Wraps an existing net and declarations (used by the composition
    /// operations and the text format).
    ///
    /// # Errors
    ///
    /// [`StgError::UndeclaredSignal`] if the net mentions an undeclared
    /// signal.
    pub fn from_parts(
        net: PetriNet<StgLabel>,
        signals: BTreeMap<Signal, SignalDir>,
        guards: BTreeMap<TransitionId, Guard>,
    ) -> Result<Self, StgError> {
        for l in net.alphabet() {
            if let Some(s) = l.signal_name() {
                if !signals.contains_key(s) {
                    return Err(StgError::UndeclaredSignal(s.name().to_owned()));
                }
            }
        }
        Ok(Stg {
            net,
            signals,
            guards,
        })
    }

    // ------------------------------------------------------------------
    // Definition 2.3 checks
    // ------------------------------------------------------------------

    /// Checks the classical STG requirements (Definition 2.3):
    /// strongly-connected, live, safe, on the reachability graph explored
    /// under `budget`. The consistency slot is left `None`; fill it via
    /// [`crate::StateGraph`].
    ///
    /// A [`Bounded::Exhausted`] report was read off a partial graph: only
    /// `strongly_connected` (structural) and a `false` in `safe` (the
    /// explored prefix already holds an unsafe marking) are definite;
    /// `live` means nothing.
    pub fn classical_report(&self, budget: &Budget) -> Bounded<ClassicalReport> {
        self.net.reachability_bounded(budget).map(|rg| {
            let analysis = self.net.analysis(&rg);
            ClassicalReport {
                strongly_connected: self.net.structural().strongly_connected,
                live: analysis.live,
                safe: analysis.safe,
                consistent: None,
            }
        })
    }

    // ------------------------------------------------------------------
    // Section 5.1: STG-level circuit algebra
    // ------------------------------------------------------------------

    /// Parallel composition of two STGs: synchronizes on the labels of
    /// **shared signals** (never on ε), merges signal declarations
    /// (input + output → output, the driven side wins), and conjoins
    /// guards of fused transitions.
    ///
    /// # Errors
    ///
    /// [`StgError::OutputCollision`] if both STGs drive a shared signal.
    pub fn compose(&self, other: &Stg) -> Result<Stg, StgError> {
        let mut signals = self.signals.clone();
        for (s, &dir) in &other.signals {
            match signals.get(s) {
                None => {
                    signals.insert(s.clone(), dir);
                }
                Some(&mine) => {
                    let drives = |d: SignalDir| d != SignalDir::Input;
                    if drives(mine) && drives(dir) {
                        return Err(StgError::OutputCollision(s.name().to_owned()));
                    }
                    if drives(dir) {
                        signals.insert(s.clone(), dir);
                    }
                }
            }
        }

        // Synchronize on every label of every shared signal; ε stays
        // private to each side. The common alphabet is computed on the
        // nets' symbol bitsets.
        let shared: BTreeSet<StgLabel> = cpn_core::common_alphabet(&self.net, &other.net)
            .into_iter()
            .filter(|l| !l.is_dummy())
            .collect();
        let comp = cpn_core::parallel_tracked(&self.net, &other.net, &shared)?;

        // Guards: private transitions keep theirs; fused transitions get
        // the conjunction.
        let mut guards: BTreeMap<TransitionId, Guard> = BTreeMap::new();
        // Private transitions were added in operand order: left private,
        // right private, then fused. Recover by matching labels/presets
        // via the tracked maps.
        let shared_left: AlphaSet = shared.iter().filter_map(|l| self.net.sym_of(l)).collect();
        let shared_right: AlphaSet = shared.iter().filter_map(|l| other.net.sym_of(l)).collect();
        let mut next = 0usize;
        for (tid, t) in self.net.transitions() {
            if !shared_left.contains(t.sym()) {
                let g = self.guard(tid);
                if !g.is_true() {
                    guards.insert(TransitionId::from_index(next), g);
                }
                next += 1;
            }
        }
        for (tid, t) in other.net.transitions() {
            if !shared_right.contains(t.sym()) {
                let g = other.guard(tid);
                if !g.is_true() {
                    guards.insert(TransitionId::from_index(next), g);
                }
                next += 1;
            }
        }
        for sync in &comp.sync_transitions {
            let g = self
                .guard(sync.left_transition)
                .and(&other.guard(sync.right_transition));
            if !g.is_true() {
                guards.insert(sync.transition, g);
            }
        }

        Ok(Stg {
            net: comp.net,
            signals,
            guards,
        })
    }

    /// Hides a signal: contracts all its transitions (Section 5.1: "to
    /// hide a signal s means to hide all signal transitions for this
    /// signal") and removes the declaration.
    ///
    /// Guards referring to the hidden signal cannot be propagated through
    /// a contraction (the level information disappears with the wire);
    /// such guards are rejected.
    ///
    /// # Errors
    ///
    /// * [`StgError::UndeclaredSignal`] for unknown signals.
    /// * Contraction errors (divergence, both-sided consumers).
    /// * [`PetriError::Precondition`] via [`StgError::Net`] when a guard
    ///   mentions the signal or a guarded transition would be contracted.
    pub fn hide_signal(&self, signal: &Signal, budget: usize) -> Result<Stg, StgError> {
        if !self.signals.contains_key(signal) {
            return Err(StgError::UndeclaredSignal(signal.name().to_owned()));
        }
        for (t, g) in &self.guards {
            if g.literals().any(|(s, _)| s == signal) {
                return Err(StgError::Net(PetriError::Precondition(format!(
                    "guard of {t} mentions hidden signal {signal}"
                ))));
            }
            if self.net.label_of(*t).signal_name() == Some(signal) {
                return Err(StgError::Net(PetriError::Precondition(format!(
                    "guarded transition {t} would be contracted"
                ))));
            }
        }
        let labels = self.labels_of(signal);
        let net = hide_labels(&self.net, &labels, budget)?;
        let mut signals = self.signals.clone();
        signals.remove(signal);
        // Guards cannot be carried across contraction by transition id;
        // the operation above rejected guard-relevant cases, and the
        // remaining guards are conservative to drop only if absent.
        // Re-attach nothing: contraction rebuilt all ids.
        if !self.guards.is_empty() {
            return Err(StgError::Net(PetriError::Precondition(
                "hiding on guarded STGs is limited to guard-free nets; relabel instead".to_owned(),
            )));
        }
        Ok(Stg {
            net,
            signals,
            guards: BTreeMap::new(),
        })
    }

    /// The `hide'` variant: relabels the signal's transitions to ε,
    /// keeping net structure and guards (usable on guarded STGs and by
    /// the receptiveness check of Section 5.3).
    ///
    /// # Errors
    ///
    /// [`StgError::UndeclaredSignal`] for unknown signals.
    pub fn hide_signal_relabel(&self, signal: &Signal) -> Result<Stg, StgError> {
        if !self.signals.contains_key(signal) {
            return Err(StgError::UndeclaredSignal(signal.name().to_owned()));
        }
        let labels = self.labels_of(signal);
        let net = cpn_core::hide_relabel(&self.net, &labels, StgLabel::Dummy);
        let mut signals = self.signals.clone();
        signals.remove(signal);
        Ok(Stg {
            net,
            signals,
            guards: self.guards.clone(),
        })
    }

    /// Projects the STG onto a set of signals: hides all others
    /// (contraction). The paper's
    /// `N̄_tr = project(N_send ‖ N_tr, A_tr)` (Section 6).
    ///
    /// Runs as a single pass over one [`NetEditor`]: signals are hidden
    /// in declaration order on the same editor instead of materializing
    /// one intermediate STG per signal, producing a net bit-identical to
    /// the chained [`Stg::hide_signal`] calls (each label still gets its
    /// own `budget` of contractions).
    ///
    /// # Errors
    ///
    /// Propagates [`Stg::hide_signal`] errors.
    pub fn project_signals(&self, keep: &BTreeSet<Signal>, budget: usize) -> Result<Stg, StgError> {
        let to_hide: Vec<Signal> = self
            .signals
            .keys()
            .filter(|s| !keep.contains(*s))
            .cloned()
            .collect();
        if to_hide.is_empty() {
            return Ok(self.clone());
        }
        let mut editor = NetEditor::from_net(&self.net);
        let per_label = Budget::new(usize::MAX, budget);
        let mut signals = self.signals.clone();
        for s in &to_hide {
            // Same per-signal guard validation as `hide_signal`; past the
            // first hidden signal the guard map is known to be empty.
            for (t, g) in &self.guards {
                if g.literals().any(|(sig, _)| sig == s) {
                    return Err(StgError::Net(PetriError::Precondition(format!(
                        "guard of {t} mentions hidden signal {s}"
                    ))));
                }
                if self.net.label_of(*t).signal_name() == Some(s) {
                    return Err(StgError::Net(PetriError::Precondition(format!(
                        "guarded transition {t} would be contracted"
                    ))));
                }
            }
            for l in self.labels_of(s) {
                let mut meter = Meter::new(&per_label);
                if !editor.hide_label(&l, &mut meter).map_err(StgError::Net)? {
                    return Err(StgError::Net(PetriError::Precondition(format!(
                        "hiding of {l} did not converge within {budget} contractions"
                    ))));
                }
            }
            signals.remove(s);
            if !self.guards.is_empty() {
                return Err(StgError::Net(PetriError::Precondition(
                    "hiding on guarded STGs is limited to guard-free nets; relabel instead"
                        .to_owned(),
                )));
            }
        }
        Ok(Stg {
            net: editor.finish().map_err(StgError::Net)?,
            signals,
            guards: BTreeMap::new(),
        })
    }

    /// Removes dead transitions (those no reachable state fires, explored
    /// under `budget` without storing edges) and isolated places — the
    /// cleanup step of compositional synthesis (Section 5.2).
    ///
    /// Transition ids shift as dead transitions go; every surviving
    /// guard moves with its transition to the new id.
    ///
    /// A transition is only removable when the *whole* graph proves it
    /// dead, so a [`Bounded::Exhausted`] partial is this STG unchanged.
    pub fn remove_dead(&self, budget: &Budget) -> Bounded<Stg> {
        let space = match self.net.state_space_bounded(budget) {
            Bounded::Complete(space) => space,
            Bounded::Exhausted { info, .. } => {
                return Bounded::Exhausted {
                    partial: self.clone(),
                    info,
                }
            }
        };
        let dead = cpn_petri::dead_transitions_rg(&self.net, &space);
        if dead.is_empty() {
            return Bounded::Complete(self.clone());
        }
        Bounded::Complete(self.without_transitions(&dead))
    }

    /// This STG without the `dead` transitions and the places that leaves
    /// isolated. Surviving guards move to their transitions' new ids;
    /// dropping places invalidates no guard (guards reference signals).
    fn without_transitions(&self, dead: &BTreeSet<TransitionId>) -> Stg {
        let mut guards = BTreeMap::new();
        let mut next = 0usize;
        for (tid, _) in self.net.transitions() {
            if !dead.contains(&tid) {
                if let Some(g) = self.guards.get(&tid) {
                    guards.insert(TransitionId::from_index(next), g.clone());
                }
                next += 1;
            }
        }
        let (net, _) = self.net.without_transitions(dead).without_isolated_places();
        Stg {
            net,
            signals: self.signals.clone(),
            guards,
        }
    }

    /// Labels of all signals this STG drives (outputs and internals) —
    /// the producer set for receptiveness checking.
    pub fn output_labels(&self) -> BTreeSet<StgLabel> {
        self.net
            .alphabet()
            .into_iter()
            .filter(|l| {
                l.signal_name()
                    .is_some_and(|s| self.signals.get(s).is_some_and(|&d| d != SignalDir::Input))
            })
            .collect()
    }

    /// Receptiveness check against a peer STG (Propositions 5.5/5.6):
    /// composes the two nets on their common alphabet and searches the
    /// reachable markings, under `budget`, for a state in which one side
    /// can commit to an output no peer alternative is ready to accept.
    /// See [`cpn_core::check_receptiveness`] for the verdict's meaning.
    ///
    /// # Errors
    ///
    /// Composition errors only — budget exhaustion is a verdict, not an
    /// error.
    pub fn check_receptiveness(
        &self,
        other: &Stg,
        budget: &Budget,
    ) -> Result<Verdict<cpn_core::ReceptivenessReport<StgLabel>>, StgError> {
        let comp = cpn_core::parallel_tracked_common(&self.net, &other.net)?;
        Ok(cpn_core::check_receptiveness(
            &comp,
            &self.output_labels(),
            &other.output_labels(),
            budget,
        ))
    }

    /// Compositional synthesis against a known environment (Section 5.2
    /// and the Figure 9 derivation): compose, remove the dead
    /// synchronization duplicates, project onto this STG's own signals,
    /// and clean up again. By Theorem 5.1 the result's traces are
    /// contained in this STG's.
    ///
    /// Guards on transitions that survive dead-removal block the
    /// projection (contraction cannot carry guards); in the paper's
    /// example the guarded `rec` branch dies with the restricted sender,
    /// which is exactly why the reduction is performed in this order.
    ///
    /// Both dead-transition passes explore under `budget`, and a stop
    /// flags the result [`Bounded::Exhausted`]:
    ///
    /// * If the first pass (on the composition) stops, the pipeline ends
    ///   and the partial is the composition itself, with nothing pruned
    ///   or projected, as in [`cpn_core::reduce_against_environment`].
    /// * If the cleanup pass after projection stops, its dead transitions
    ///   stay in the reduced module; this only costs minimality.
    ///
    /// # Errors
    ///
    /// Composition and hiding (divergence) errors; running out of
    /// `budget` is **not** an error.
    pub fn reduce_against(
        &self,
        env: &Stg,
        budget: &Budget,
        hide_budget: usize,
    ) -> Result<Bounded<Stg>, StgError> {
        let composed = self.compose(env)?;
        let pruned = match composed.remove_dead(budget) {
            Bounded::Complete(pruned) => pruned,
            stopped => return Ok(stopped),
        };
        let keep: BTreeSet<Signal> = self.signals.keys().cloned().collect();
        let projected = pruned.project_signals(&keep, hide_budget)?;
        // When projection was structurally a no-op the pruned net's
        // state space is still valid and held no dead transitions;
        // skip the second exploration outright.
        let reduced = if projected.net.same_structure(&pruned.net) {
            Bounded::Complete(projected)
        } else {
            projected.remove_dead(budget)
        };
        Ok(reduced.map(|mut reduced| {
            // Composition merged signal directions toward the driving
            // side (the environment drives this module's inputs); the
            // derived module keeps its own interface directions.
            for (s, dir) in reduced.signals.iter_mut() {
                if let Some(&mine) = self.signals.get(s) {
                    *dir = mine;
                }
            }
            reduced.drop_unused_signals();
            reduced
        }))
    }

    /// Environment-driven dead-transition removal (Section 5.2 applied in
    /// place): composes this STG with `env`, finds which of **this**
    /// STG's transitions can never fire in the composition, and removes
    /// them. The result keeps this STG's structure — no contraction —
    /// which is the robust way to derive a simplified module when the
    /// environment's internals form hidden cycles the contraction
    /// operator must reject (the Figure 9(c) receiver derivation).
    ///
    /// By Theorem 5.1 the pruned module's traces still contain every
    /// behaviour the environment can drive.
    ///
    /// The composition is explored under `budget`. A transition is only
    /// removable when the *whole* graph proves it dead, so a
    /// [`Bounded::Exhausted`] partial is this STG unchanged.
    ///
    /// # Errors
    ///
    /// Composition errors; running out of `budget` is **not** an error.
    pub fn prune_against(&self, env: &Stg, budget: &Budget) -> Result<Bounded<Stg>, StgError> {
        let shared: BTreeSet<StgLabel> = cpn_core::common_alphabet(&self.net, &env.net)
            .into_iter()
            .filter(|l| !l.is_dummy())
            .collect();
        let comp = cpn_core::parallel_tracked(&self.net, &env.net, &shared)?;
        let space = match comp.net.state_space_bounded(budget) {
            Bounded::Complete(space) => space,
            Bounded::Exhausted { info, .. } => {
                return Ok(Bounded::Exhausted {
                    partial: self.clone(),
                    info,
                })
            }
        };

        // Liveness of this STG's transitions: private ones map in order;
        // shared ones are alive iff any of their fused instances fired.
        let shared_syms: AlphaSet = shared.iter().filter_map(|l| self.net.sym_of(l)).collect();
        let mut alive = vec![false; self.net.transition_count()];
        let mut composed_idx = 0usize;
        for (tid, t) in self.net.transitions() {
            if !shared_syms.contains(t.sym()) {
                alive[tid.index()] = space.fired(TransitionId::from_index(composed_idx));
                composed_idx += 1;
            }
        }
        for sync in &comp.sync_transitions {
            if space.fired(sync.transition) {
                alive[sync.left_transition.index()] = true;
            }
        }

        let dead: BTreeSet<TransitionId> = self
            .net
            .transition_ids()
            .filter(|t| !alive[t.index()])
            .collect();
        let mut out = self.without_transitions(&dead);
        out.drop_unused_signals();
        Ok(Bounded::Complete(out))
    }

    /// Removes declarations (and alphabet labels) of signals that no
    /// longer label any transition. Used after compositional reduction:
    /// an interface wire the environment can never exercise is not part
    /// of the simplified module (Figure 9(b) drops `DATA`/`STROBE`).
    ///
    /// Note that dropping a label changes blocking behaviour in later
    /// compositions (a declared-but-unused label blocks the peer, per
    /// Definition 4.7) — which is exactly the intent for a synthesized
    /// module's final interface.
    pub fn drop_unused_signals(&mut self) {
        let used: BTreeSet<Signal> = self
            .net
            .transitions()
            .filter_map(|(tid, _)| self.net.label_of(tid).signal_name().cloned())
            .collect();
        let unused: Vec<Signal> = self
            .signals
            .keys()
            .filter(|s| !used.contains(*s))
            .cloned()
            .collect();
        for s in unused {
            for l in self.labels_of(&s) {
                self.net.undeclare_label(&l);
            }
            self.signals.remove(&s);
        }
    }

    /// Language of the STG up to a depth (convenience for tests and the
    /// experiments harness).
    ///
    /// # Errors
    ///
    /// Propagates the trace budget error.
    pub fn language(
        &self,
        depth: usize,
        budget: usize,
    ) -> Result<cpn_trace::Language<StgLabel>, cpn_trace::TraceError> {
        cpn_trace::Language::from_net(&self.net, depth, budget)
    }
}

/// Re-exported composition on bare nets for callers that manage signal
/// bookkeeping themselves (the CIP layer).
///
/// # Errors
///
/// Propagates [`PetriError`] from transition construction (impossible
/// for well-formed operands).
pub fn compose_nets(
    n1: &PetriNet<StgLabel>,
    n2: &PetriNet<StgLabel>,
) -> Result<PetriNet<StgLabel>, PetriError> {
    let shared: BTreeSet<StgLabel> = cpn_core::common_alphabet(n1, n2)
        .into_iter()
        .filter(|l| !l.is_dummy())
        .collect();
    parallel_with_sync(n1, n2, &shared)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn handshake(req_dir: SignalDir, ack_dir: SignalDir) -> Stg {
        let mut stg = Stg::new();
        let req = stg.add_signal("req", req_dir);
        let ack = stg.add_signal("ack", ack_dir);
        let p: Vec<_> = (0..4).map(|i| stg.add_place(format!("p{i}"))).collect();
        stg.add_signal_transition([p[0]], (req.clone(), Edge::Rise), [p[1]])
            .unwrap();
        stg.add_signal_transition([p[1]], (ack.clone(), Edge::Rise), [p[2]])
            .unwrap();
        stg.add_signal_transition([p[2]], (req, Edge::Fall), [p[3]])
            .unwrap();
        stg.add_signal_transition([p[3]], (ack, Edge::Fall), [p[0]])
            .unwrap();
        stg.set_initial(p[0], 1);
        stg
    }

    #[test]
    fn classical_handshake() {
        let stg = handshake(SignalDir::Input, SignalDir::Output);
        let rep = stg
            .classical_report(&Default::default())
            .complete()
            .unwrap();
        assert!(rep.is_classical());
    }

    #[test]
    fn undeclared_signal_rejected() {
        let mut stg = Stg::new();
        let p = stg.add_place("p");
        let err = stg
            .add_signal_transition([p], (Signal::new("ghost"), Edge::Rise), [p])
            .unwrap_err();
        assert_eq!(err, StgError::UndeclaredSignal("ghost".into()));
    }

    #[test]
    fn conflicting_redeclaration_rejected() {
        let mut stg = Stg::new();
        stg.add_signal("x", SignalDir::Input);
        assert!(stg.try_add_signal("x", SignalDir::Input).is_ok());
        assert_eq!(
            stg.try_add_signal("x", SignalDir::Output),
            Err(StgError::RedeclaredSignal("x".into()))
        );
    }

    #[test]
    fn compose_synchronizes_on_shared_signals() {
        // Module drives ack, environment drives req: directions merge.
        let module = handshake(SignalDir::Input, SignalDir::Output);
        let env = handshake(SignalDir::Output, SignalDir::Input);
        let sys = module.compose(&env).unwrap();
        assert_eq!(sys.signals()[&Signal::new("req")], SignalDir::Output);
        assert_eq!(sys.signals()[&Signal::new("ack")], SignalDir::Output);
        // Each label fused pairwise: still 4 transitions.
        assert_eq!(sys.net().transition_count(), 4);
        let rep = sys
            .classical_report(&Default::default())
            .complete()
            .unwrap();
        assert!(rep.live && rep.safe);
    }

    #[test]
    fn compose_rejects_double_drivers() {
        let a = handshake(SignalDir::Input, SignalDir::Output);
        let b = handshake(SignalDir::Input, SignalDir::Output);
        assert_eq!(
            a.compose(&b).unwrap_err(),
            StgError::OutputCollision("ack".into())
        );
    }

    #[test]
    fn dummies_do_not_synchronize() {
        let mut a = Stg::new();
        let p = a.add_place("p");
        let q = a.add_place("q");
        a.add_dummy([p], [q]).unwrap();
        a.set_initial(p, 1);
        let b = a.clone();
        let c = a.compose(&b).unwrap();
        assert_eq!(c.net().transition_count(), 2, "ε transitions stay private");
    }

    #[test]
    fn hide_signal_contracts() {
        let stg = handshake(SignalDir::Input, SignalDir::Internal);
        let hidden = stg.hide_signal(&Signal::new("ack"), 1000).unwrap();
        assert!(!hidden.signals().contains_key(&Signal::new("ack")));
        assert!(hidden
            .net()
            .alphabet()
            .iter()
            .all(|l| l.signal_name().map(Signal::name) != Some("ack")));
    }

    #[test]
    fn hide_signal_relabel_keeps_structure() {
        let stg = handshake(SignalDir::Input, SignalDir::Internal);
        let hidden = stg.hide_signal_relabel(&Signal::new("ack")).unwrap();
        assert_eq!(hidden.net().transition_count(), 4);
        assert_eq!(
            hidden
                .net()
                .transitions()
                .filter(|(tid, _)| hidden.net().label_of(*tid).is_dummy())
                .count(),
            2
        );
    }

    #[test]
    fn project_keeps_requested_signals() {
        let stg = handshake(SignalDir::Input, SignalDir::Internal);
        let projected = stg
            .project_signals(&BTreeSet::from([Signal::new("req")]), 1000)
            .unwrap();
        assert_eq!(projected.signals().len(), 1);
    }

    #[test]
    fn guards_conjoin_on_composition() {
        let mk = |gv: bool| -> Stg {
            let mut stg = Stg::new();
            let d = stg.add_signal("DATA", SignalDir::Input);
            let x = stg.add_signal(
                "x",
                if gv {
                    SignalDir::Output
                } else {
                    SignalDir::Input
                },
            );
            let p = stg.add_place("p");
            let q = stg.add_place("q");
            let t = stg
                .add_signal_transition([p], (x, Edge::Rise), [q])
                .unwrap();
            stg.set_guard(t, Guard::new().require(d, gv));
            stg.set_initial(p, 1);
            stg
        };
        let a = mk(true);
        let b = mk(false);
        let c = a.compose(&b).unwrap();
        // x+ fused; its guard must be DATA=1 & DATA=0 — the and() keeps
        // last writer per literal, i.e. DATA appears once.
        let fused = c
            .net()
            .transitions()
            .find(|&(tid, _)| !c.net().label_of(tid).is_dummy())
            .map(|(tid, _)| tid)
            .unwrap();
        assert!(!c.guard(fused).is_true());
    }

    #[test]
    fn guard_display_and_eval() {
        let g = Guard::new()
            .require(Signal::new("DATA"), true)
            .require(Signal::new("STROBE"), false);
        assert_eq!(g.to_string(), "DATA=1 & STROBE=0");
        assert!(g.eval(|s| s.name() == "DATA"));
        assert!(!g.eval(|s| s.name() == "STROBE"));
    }

    #[test]
    fn remove_dead_prunes() {
        let mut stg = handshake(SignalDir::Input, SignalDir::Output);
        let orphan1 = stg.add_place("o1");
        let orphan2 = stg.add_place("o2");
        let x = stg.add_signal("x", SignalDir::Output);
        stg.add_signal_transition([orphan1], (x, Edge::Rise), [orphan2])
            .unwrap();
        let pruned = stg.remove_dead(&Default::default()).complete().unwrap();
        assert_eq!(pruned.net().transition_count(), 4);
        assert_eq!(pruned.net().place_count(), 4);
    }

    #[test]
    fn remove_dead_moves_guards_to_shifted_ids() {
        // A guarded dead transition (id 0, its preset never marked) sits
        // before the guarded live `ack+` (id 2), which shifts to id 1.
        let mut stg = Stg::new();
        let data = stg.add_signal("DATA", SignalDir::Input);
        let x = stg.add_signal("x", SignalDir::Output);
        let orphan = stg.add_place("orphan");
        let dead = stg
            .add_signal_transition([orphan], (x, Edge::Rise), [orphan])
            .unwrap();
        stg.set_guard(dead, Guard::new().require(data.clone(), true));
        let req = stg.add_signal("req", SignalDir::Input);
        let ack = stg.add_signal("ack", SignalDir::Output);
        let p: Vec<_> = (0..4).map(|i| stg.add_place(format!("p{i}"))).collect();
        stg.add_signal_transition([p[0]], (req.clone(), Edge::Rise), [p[1]])
            .unwrap();
        let ack_rise = stg
            .add_signal_transition([p[1]], (ack.clone(), Edge::Rise), [p[2]])
            .unwrap();
        stg.add_signal_transition([p[2]], (req, Edge::Fall), [p[3]])
            .unwrap();
        stg.add_signal_transition([p[3]], (ack, Edge::Fall), [p[0]])
            .unwrap();
        stg.set_initial(p[0], 1);
        let ack_guard = Guard::new().require(data, false);
        stg.set_guard(ack_rise, ack_guard.clone());

        let pruned = stg.remove_dead(&Default::default()).complete().unwrap();
        assert_eq!(pruned.net().transition_count(), 4);
        let shifted = TransitionId::from_index(1);
        assert_eq!(pruned.net().label_of(shifted), stg.net().label_of(ack_rise));
        assert_eq!(pruned.guard(shifted), ack_guard);
        // The dead transition's guard went with it.
        assert_eq!(pruned.guards.len(), 1);
        assert!(pruned
            .guards
            .keys()
            .all(|t| t.index() < pruned.net().transition_count()));
    }
}
