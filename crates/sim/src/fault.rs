//! Seeded fault injection across the verification stack.
//!
//! The static checks of this workspace (receptiveness, consistency,
//! USC/CSC, structural marked-graph analysis, liveness/safety, the
//! antichain validation of data encodings) all claim to *detect* design
//! errors. This module turns that claim into a measurable property: it
//! mutates known-good models with a seeded [`FaultPlan`] of structured
//! faults — lost/duplicated tokens, dropped/stray arcs, flipped signal
//! edges, spurious glitch pulses, stuck-at handshake wires,
//! antichain-breaking code mutations — and [`detector_sensitivity`]
//! scores each detector against each fault class.
//!
//! A fault application has three honest outcomes ([`Detection`]): the
//! matching detector **flags** the mutant, the mutation is provably
//! **behavior-preserving** (trace-equivalent to the original up to a
//! depth), or the fault was **missed** — the score every detector is
//! trying to keep at zero.
//!
//! Every mutation is a pure function of `(seed, class, trial)`; a
//! reported miss is therefore replayable from the three numbers printed
//! with it.

use cpn_cip::encoding::EncodingError;
use cpn_cip::DataEncoding;
use cpn_petri::{
    AlphaSet, Bounded, Budget, CoverabilityOutcome, CoverabilityTree, Label, PetriNet, PlaceId,
    Sym, Verdict,
};
use cpn_stg::{Edge, Signal, StateGraph, Stg, StgLabel};
use cpn_testkit::{mix_seed, TestRng};
use cpn_trace::Language;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The structured fault taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// Remove one token from the initial marking.
    TokenLoss,
    /// Add one token to an already-marked place.
    TokenDup,
    /// Remove one arc (preset or postset entry) from a transition.
    ArcDrop,
    /// Add a stray arc between an existing place and transition.
    ArcDup,
    /// Flip one signal edge (`s+` ↔ `s-`).
    EdgeFlip,
    /// Insert a one-shot spurious pulse on an existing signal.
    Glitch,
    /// Stick a handshake wire: its transitions never fire.
    StuckWire,
    /// Break the antichain property of a data encoding: make one code
    /// cover another.
    CodeCover,
}

impl FaultClass {
    /// Every fault class, in taxonomy order.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::TokenLoss,
        FaultClass::TokenDup,
        FaultClass::ArcDrop,
        FaultClass::ArcDup,
        FaultClass::EdgeFlip,
        FaultClass::Glitch,
        FaultClass::StuckWire,
        FaultClass::CodeCover,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::TokenLoss => "token-loss",
            FaultClass::TokenDup => "token-dup",
            FaultClass::ArcDrop => "arc-drop",
            FaultClass::ArcDup => "arc-dup",
            FaultClass::EdgeFlip => "edge-flip",
            FaultClass::Glitch => "glitch",
            FaultClass::StuckWire => "stuck-wire",
            FaultClass::CodeCover => "code-cover",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One concrete seeded mutation that was applied to a model.
#[derive(Clone, Debug)]
pub struct Fault {
    /// The taxonomy class.
    pub class: FaultClass,
    /// Human-readable description of the exact mutation.
    pub description: String,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.class, self.description)
    }
}

// ----------------------------------------------------------------------
// Net-level injectors
// ----------------------------------------------------------------------

/// Removes one token from a randomly chosen marked place.
///
/// `None` when the initial marking is empty.
pub fn inject_token_loss<L: Label>(
    net: &PetriNet<L>,
    rng: &mut TestRng,
) -> Option<(PetriNet<L>, Fault)> {
    let m0 = net.initial_marking();
    let marked: Vec<PlaceId> = net
        .places()
        .map(|(p, _)| p)
        .filter(|&p| m0.tokens(p) > 0)
        .collect();
    if marked.is_empty() {
        return None;
    }
    let p = *rng.choose(&marked);
    let mut out = net.clone();
    out.set_initial(p, m0.tokens(p) - 1);
    let name = place_name(net, p);
    Some((
        out,
        Fault {
            class: FaultClass::TokenLoss,
            description: format!("removed one token from place {name}"),
        },
    ))
}

/// Duplicates a token on a randomly chosen marked place.
///
/// `None` when the initial marking is empty.
pub fn inject_token_dup<L: Label>(
    net: &PetriNet<L>,
    rng: &mut TestRng,
) -> Option<(PetriNet<L>, Fault)> {
    let m0 = net.initial_marking();
    let marked: Vec<PlaceId> = net
        .places()
        .map(|(p, _)| p)
        .filter(|&p| m0.tokens(p) > 0)
        .collect();
    if marked.is_empty() {
        return None;
    }
    let p = *rng.choose(&marked);
    let mut out = net.clone();
    out.set_initial(p, m0.tokens(p) + 1);
    let name = place_name(net, p);
    Some((
        out,
        Fault {
            class: FaultClass::TokenDup,
            description: format!("duplicated the token on place {name}"),
        },
    ))
}

/// Which side of a transition an arc fault touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ArcSide {
    Pre,
    Post,
}

/// Drops one arc, never leaving a transition with no arcs at all (such
/// a transition could not be rebuilt).
///
/// `None` when every transition has a single arc.
pub fn inject_arc_drop<L: Label>(
    net: &PetriNet<L>,
    rng: &mut TestRng,
) -> Option<(PetriNet<L>, Fault)> {
    let mut candidates: Vec<(usize, ArcSide, PlaceId)> = Vec::new();
    for (i, (_, t)) in net.transitions().enumerate() {
        if t.preset().len() + t.postset().len() < 2 {
            continue;
        }
        for &p in t.preset() {
            candidates.push((i, ArcSide::Pre, p));
        }
        for &p in t.postset() {
            candidates.push((i, ArcSide::Post, p));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (ti, side, victim) = *rng.choose(&candidates);
    let out = rebuild_net(net, |i, pre, post| {
        if i == ti {
            match side {
                ArcSide::Pre => pre.retain(|&p| p != victim),
                ArcSide::Post => post.retain(|&p| p != victim),
            }
        }
    })?;
    let name = place_name(net, victim);
    let side_name = if side == ArcSide::Pre {
        "preset"
    } else {
        "postset"
    };
    Some((
        out,
        Fault {
            class: FaultClass::ArcDrop,
            description: format!("dropped {name} from the {side_name} of transition #{ti}"),
        },
    ))
}

/// Adds a stray arc: a place that was not in the chosen side of the
/// chosen transition. In set-valued nets literal duplication is a no-op,
/// so "duplicated arc" means an extra, unintended connection.
///
/// `None` when every transition already touches every place on both
/// sides.
pub fn inject_arc_dup<L: Label>(
    net: &PetriNet<L>,
    rng: &mut TestRng,
) -> Option<(PetriNet<L>, Fault)> {
    let all_places: Vec<PlaceId> = net.places().map(|(p, _)| p).collect();
    let mut candidates: Vec<(usize, ArcSide, PlaceId)> = Vec::new();
    for (i, (_, t)) in net.transitions().enumerate() {
        for &p in &all_places {
            if !t.preset().contains(&p) {
                candidates.push((i, ArcSide::Pre, p));
            }
            if !t.postset().contains(&p) {
                candidates.push((i, ArcSide::Post, p));
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (ti, side, extra) = *rng.choose(&candidates);
    let out = rebuild_net(net, |i, pre, post| {
        if i == ti {
            match side {
                ArcSide::Pre => pre.push(extra),
                ArcSide::Post => post.push(extra),
            }
        }
    })?;
    let name = place_name(net, extra);
    let side_name = if side == ArcSide::Pre {
        "preset"
    } else {
        "postset"
    };
    Some((
        out,
        Fault {
            class: FaultClass::ArcDup,
            description: format!("added stray arc {name} to the {side_name} of transition #{ti}"),
        },
    ))
}

// ----------------------------------------------------------------------
// STG-level injectors
// ----------------------------------------------------------------------

/// Flips one `s+` to `s-` (or vice versa).
///
/// `None` when no transition carries a rise or fall edge.
pub fn inject_edge_flip(stg: &Stg, rng: &mut TestRng) -> Option<(Stg, Fault)> {
    let flippable: Vec<usize> = stg
        .net()
        .transitions()
        .enumerate()
        .filter(|(_, (tid, _))| {
            matches!(
                stg.net().label_of(*tid).edge(),
                Some(Edge::Rise | Edge::Fall)
            )
        })
        .map(|(i, _)| i)
        .collect();
    if flippable.is_empty() {
        return None;
    }
    let ti = *rng.choose(&flippable);
    let mut description = String::new();
    let out = rebuild_stg(
        stg,
        |_, _| true,
        |i, label| {
            if i != ti {
                return None;
            }
            let StgLabel::Signal(s, e) = label else {
                return None;
            };
            let flipped = if *e == Edge::Rise {
                Edge::Fall
            } else {
                Edge::Rise
            };
            description = format!("flipped {s}{e} to {s}{flipped}");
            Some(StgLabel::Signal(s.clone(), flipped))
        },
    )?;
    Some((
        out,
        Fault {
            class: FaultClass::EdgeFlip,
            description,
        },
    ))
}

/// Inserts a one-shot spurious `s+` pulse on an existing signal: a
/// fresh marked place enabling a single out-of-protocol rise.
///
/// `None` when the STG uses no signals.
pub fn inject_glitch(stg: &Stg, rng: &mut TestRng) -> Option<(Stg, Fault)> {
    let signals: Vec<&Signal> = stg
        .net()
        .alphabet_syms()
        .iter()
        .filter_map(|sym| stg.net().resolve(sym).signal_name())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    if signals.is_empty() {
        return None;
    }
    let s = (*rng.choose(&signals)).clone();
    let mut out = stg.clone();
    let src = out.add_place("glitch.src");
    let done = out.add_place("glitch.done");
    out.set_initial(src, 1);
    out.add_signal_transition([src], (s.clone(), Edge::Rise), [done])
        .ok()?;
    Some((
        out,
        Fault {
            class: FaultClass::Glitch,
            description: format!("spurious one-shot {s}+ pulse"),
        },
    ))
}

/// Sticks one wire at its current value: every transition of the chosen
/// signal is removed, so the wire never moves again.
///
/// `None` when no signal can be stuck without emptying the net.
pub fn inject_stuck_wire(stg: &Stg, rng: &mut TestRng) -> Option<(Stg, Fault)> {
    // One symbolized pass counts every signal's transitions (the old
    // generic path re-scanned all transitions per candidate signal).
    let net = stg.net();
    let total = net.transition_count();
    let mut counts: BTreeMap<&Signal, usize> = BTreeMap::new();
    for (_, t) in net.transitions() {
        if let Some(s) = net.resolve(t.sym()).signal_name() {
            *counts.entry(s).or_insert(0) += 1;
        }
    }
    let candidates: Vec<&Signal> = counts
        .iter()
        .filter(|&(_, &mine)| mine < total)
        .map(|(&s, _)| s)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let s = (*rng.choose(&candidates)).clone();
    // The stuck wire's symbols, as a bitset filter for the rebuild scan.
    let stuck: AlphaSet = net
        .alphabet_syms()
        .iter()
        .filter(|&sym| net.resolve(sym).signal_name() == Some(&s))
        .collect();
    let out = rebuild_stg(stg, |_, sym| !stuck.contains(sym), |_, _| None)?;
    Some((
        out,
        Fault {
            class: FaultClass::StuckWire,
            description: format!("wire {s} stuck: all its transitions removed"),
        },
    ))
}

// ----------------------------------------------------------------------
// Encoding-level injector
// ----------------------------------------------------------------------

/// Breaks the antichain property of a code set: one value's code is
/// replaced by a subset (or copy) of another's, so the second covers
/// the first.
///
/// `None` for code sets with fewer than two values.
pub fn inject_code_cover(
    codes: &[BTreeSet<usize>],
    rng: &mut TestRng,
) -> Option<(Vec<BTreeSet<usize>>, Fault)> {
    if codes.len() < 2 {
        return None;
    }
    let i = rng.below(codes.len());
    let mut j = rng.below(codes.len() - 1);
    if j >= i {
        j += 1;
    }
    let mut donor: Vec<usize> = codes[j].iter().copied().collect();
    if donor.len() > 1 {
        donor.remove(rng.below(donor.len()));
    }
    let mut out = codes.to_vec();
    out[i] = donor.into_iter().collect();
    Some((
        out,
        Fault {
            class: FaultClass::CodeCover,
            description: format!("code {j} now covers code {i}"),
        },
    ))
}

// ----------------------------------------------------------------------
// Rebuild helpers
// ----------------------------------------------------------------------

fn place_name<L: Label>(net: &PetriNet<L>, p: PlaceId) -> String {
    net.places()
        .find(|&(id, _)| id == p)
        .map(|(_, pl)| pl.name().to_owned())
        .unwrap_or_else(|| format!("p#{}", p.index()))
}

/// Rebuilds a net place-for-place, letting `tweak` edit each
/// transition's preset/postset. Returns `None` if the tweak degenerates
/// a transition (both sides empty).
///
/// The mutant shares the original's interner (cloned, not re-built), so
/// no label value is cloned or re-hashed per transition.
fn rebuild_net<L: Label>(
    net: &PetriNet<L>,
    mut tweak: impl FnMut(usize, &mut Vec<PlaceId>, &mut Vec<PlaceId>),
) -> Option<PetriNet<L>> {
    let mut out: PetriNet<L> = PetriNet::with_interner(net.interner().clone());
    let m0 = net.initial_marking();
    let mut pmap: BTreeMap<PlaceId, PlaceId> = BTreeMap::new();
    for (old, place) in net.places() {
        let new = out.add_place(place.name().to_owned());
        out.set_initial(new, m0.tokens(old));
        pmap.insert(old, new);
    }
    for (i, (_, t)) in net.transitions().enumerate() {
        let mut pre: Vec<PlaceId> = t.preset().iter().map(|p| pmap[p]).collect();
        let mut post: Vec<PlaceId> = t.postset().iter().map(|p| pmap[p]).collect();
        tweak(i, &mut pre, &mut post);
        out.add_transition_sym(pre, t.sym(), post).ok()?;
    }
    Some(out)
}

/// Rebuilds an STG, keeping transitions `keep` accepts (judged by their
/// interned symbol) and rewriting labels through `relabel`; guards ride
/// along with their transitions.
///
/// `relabel` returns `None` for "unchanged" — the transition is added
/// via its original symbol with no label clone; only a genuinely
/// rewritten label (`Some`) is interned anew.
fn rebuild_stg(
    stg: &Stg,
    mut keep: impl FnMut(usize, Sym) -> bool,
    mut relabel: impl FnMut(usize, &StgLabel) -> Option<StgLabel>,
) -> Option<Stg> {
    let mut net: PetriNet<StgLabel> = PetriNet::with_interner(stg.net().interner().clone());
    let m0 = stg.net().initial_marking();
    let mut pmap: BTreeMap<PlaceId, PlaceId> = BTreeMap::new();
    for (old, place) in stg.net().places() {
        let new = net.add_place(place.name().to_owned());
        net.set_initial(new, m0.tokens(old));
        pmap.insert(old, new);
    }
    let mut guards = BTreeMap::new();
    for (i, (tid, t)) in stg.net().transitions().enumerate() {
        let sym = t.sym();
        if !keep(i, sym) {
            continue;
        }
        let pre: Vec<PlaceId> = t.preset().iter().map(|p| pmap[p]).collect();
        let post: Vec<PlaceId> = t.postset().iter().map(|p| pmap[p]).collect();
        let new_tid = match relabel(i, stg.net().resolve(sym)) {
            None => net.add_transition_sym(pre, sym, post).ok()?,
            Some(l) => net.add_transition(pre, l, post).ok()?,
        };
        let g = stg.guard(tid);
        if !g.is_true() {
            guards.insert(new_tid, g);
        }
    }
    Stg::from_parts(net, stg.signals().clone(), guards).ok()
}

/// Applies a net-level fault to an STG's underlying net, carrying the
/// signal declarations and guards over (transition identities are
/// preserved by net-level mutations).
fn stg_with_net(stg: &Stg, net: PetriNet<StgLabel>) -> Option<Stg> {
    let guards: BTreeMap<_, _> = stg
        .net()
        .transitions()
        .map(|(tid, _)| (tid, stg.guard(tid)))
        .filter(|(_, g)| !g.is_true())
        .collect();
    Stg::from_parts(net, stg.signals().clone(), guards).ok()
}

// ----------------------------------------------------------------------
// FaultPlan
// ----------------------------------------------------------------------

/// A seeded plan of structured mutations: every mutation is a pure
/// function of `(seed, class, trial)`, so any observation downstream is
/// replayable from those three numbers.
///
/// ```
/// use cpn_sim::fault::{FaultClass, FaultPlan};
///
/// let plan = FaultPlan::new(42);
/// let stg = cpn_stg::protocol::sender();
/// let (mutant, fault) = plan
///     .mutate_stg(FaultClass::EdgeFlip, &stg, 0)
///     .expect("the sender has rise/fall edges to flip");
/// assert_eq!(fault.class, FaultClass::EdgeFlip);
/// assert_eq!(mutant.net().transition_count(), stg.net().transition_count());
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
}

impl FaultPlan {
    /// A plan rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed }
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The derived generator for `(class, trial)`.
    pub fn rng_for(&self, class: FaultClass, trial: u64) -> TestRng {
        let stream = (class as u64) << 32 | trial;
        TestRng::seed_from_u64(mix_seed(self.seed, stream))
    }

    /// Applies one fault of `class` to a labeled net.
    ///
    /// `None` when the class does not apply (STG- or encoding-level
    /// classes, or no mutation site exists).
    pub fn mutate_net<L: Label>(
        &self,
        class: FaultClass,
        net: &PetriNet<L>,
        trial: u64,
    ) -> Option<(PetriNet<L>, Fault)> {
        let mut rng = self.rng_for(class, trial);
        match class {
            FaultClass::TokenLoss => inject_token_loss(net, &mut rng),
            FaultClass::TokenDup => inject_token_dup(net, &mut rng),
            FaultClass::ArcDrop => inject_arc_drop(net, &mut rng),
            FaultClass::ArcDup => inject_arc_dup(net, &mut rng),
            _ => None,
        }
    }

    /// Applies one fault of `class` to an STG (net-level classes mutate
    /// the underlying net; signal-level classes rewrite labels).
    ///
    /// `None` when the class does not apply.
    pub fn mutate_stg(&self, class: FaultClass, stg: &Stg, trial: u64) -> Option<(Stg, Fault)> {
        let mut rng = self.rng_for(class, trial);
        match class {
            FaultClass::TokenLoss
            | FaultClass::TokenDup
            | FaultClass::ArcDrop
            | FaultClass::ArcDup => {
                let (net, fault) = self.mutate_net(class, stg.net(), trial)?;
                Some((stg_with_net(stg, net)?, fault))
            }
            FaultClass::EdgeFlip => inject_edge_flip(stg, &mut rng),
            FaultClass::Glitch => inject_glitch(stg, &mut rng),
            FaultClass::StuckWire => inject_stuck_wire(stg, &mut rng),
            FaultClass::CodeCover => None,
        }
    }

    /// Applies one fault of `class` to a raw code set.
    ///
    /// `None` unless `class` is [`FaultClass::CodeCover`].
    pub fn mutate_codes(
        &self,
        class: FaultClass,
        codes: &[BTreeSet<usize>],
        trial: u64,
    ) -> Option<(Vec<BTreeSet<usize>>, Fault)> {
        if class != FaultClass::CodeCover {
            return None;
        }
        let mut rng = self.rng_for(class, trial);
        inject_code_cover(codes, &mut rng)
    }
}

// ----------------------------------------------------------------------
// Detection
// ----------------------------------------------------------------------

/// What happened when a detector suite met a mutant.
#[derive(Clone, Debug)]
pub enum Detection {
    /// A detector flagged the mutant.
    Detected {
        /// Which detector fired.
        detector: &'static str,
        /// What it saw.
        evidence: String,
    },
    /// The mutation is provably behavior-preserving (trace-equivalent
    /// to the original up to the probed depth).
    Benign {
        /// The preservation argument.
        reason: String,
    },
    /// No detector fired and the behavior changed: a genuine miss.
    Missed,
}

impl Detection {
    /// Whether the fault is accounted for (detected or provably benign).
    pub fn is_accounted(&self) -> bool {
        !matches!(self, Detection::Missed)
    }
}

const EXPLORE_BUDGET: usize = 200_000;
const BENIGN_DEPTH: usize = 6;

/// Liveness/safety/boundedness detector for labeled nets: bounded
/// reachability plus Karp–Miller when the state space explodes.
///
/// Both passes run on the compiled exploration kernel (interned marking
/// arena + CSR firing rule), so the 200k-state budget is a few
/// milliseconds of work even on the larger mutants.
pub fn detect_net_misbehavior<L: Label>(mutant: &PetriNet<L>) -> Option<(&'static str, String)> {
    let budget = Budget::states(EXPLORE_BUDGET);
    match mutant.reachability_bounded(&budget) {
        Bounded::Complete(rg) => {
            let an = mutant.analysis(&rg);
            if !an.safe {
                return Some(("liveness/safety", format!("unsafe: bound {}", an.bound)));
            }
            if !an.live {
                return Some(("liveness/safety", "non-live transition".to_owned()));
            }
            if !an.deadlock_free {
                return Some(("liveness/safety", "reachable deadlock".to_owned()));
            }
            None
        }
        Bounded::Exhausted { info, .. } => {
            // The reference models all complete within the budget, so
            // exhaustion itself is a symptom; Karp–Miller turns it into
            // a definite unboundedness witness when it can.
            match CoverabilityTree::build_bounded(mutant, &Budget::states(EXPLORE_BUDGET)) {
                Bounded::Complete(tree) | Bounded::Exhausted { partial: tree, .. } => {
                    if let CoverabilityOutcome::Unbounded { witnesses } = tree.outcome() {
                        return Some((
                            "liveness/safety",
                            format!("unbounded: {} witness place(s)", witnesses.len()),
                        ));
                    }
                }
            }
            Some(("liveness/safety", format!("state explosion: {info}")))
        }
    }
}

/// Consistency/USC detector: builds the (possibly partial) state graph
/// and reports violations found on the explored prefix — those are
/// definite regardless of exhaustion.
pub fn detect_stg_inconsistency(mutant: &Stg) -> Option<(&'static str, String)> {
    let sg = match StateGraph::build_bounded(
        mutant,
        &BTreeMap::new(),
        &Budget::states(EXPLORE_BUDGET),
    ) {
        Bounded::Complete(sg) => sg,
        Bounded::Exhausted { partial, .. } => partial,
    };
    if let Some(v) = sg.consistency_violations().first() {
        return Some((
            "consistency",
            format!("{} fires with the signal already at {}", v.label, v.value),
        ));
    }
    let usc = sg.usc_violations();
    if let Some(v) = usc.first() {
        return Some((
            "usc/csc",
            format!("one encoding, two states: {} vs {}", v.first, v.second),
        ));
    }
    None
}

/// Receptiveness detector: the mutant against a fixed environment.
/// `Fails` on the explored prefix is definite; `Unknown` is not counted
/// as a detection.
pub fn detect_nonreceptive(mutant: &Stg, env: &Stg) -> Option<(&'static str, String)> {
    let verdict = mutant
        .check_receptiveness(env, &Budget::states(EXPLORE_BUDGET))
        .ok()?;
    match verdict {
        Verdict::Fails(report) => {
            let first = report
                .failures
                .first()
                .map(|f| format!("{:?} output {} refused", f.producer, f.label))
                .unwrap_or_default();
            Some(("receptiveness", first))
        }
        Verdict::Holds | Verdict::Unknown(_) => None,
    }
}

/// Structural marked-graph detector: the mutant stopped being a marked
/// graph (each place one producer, one consumer).
pub fn detect_not_marked_graph<L: Label>(mutant: &PetriNet<L>) -> Option<(&'static str, String)> {
    let rep = mutant.structural();
    if rep.is_marked_graph {
        None
    } else {
        Some(("structural-mg", "not a marked graph anymore".to_owned()))
    }
}

/// Antichain detector: re-validates a mutated code set against its wire
/// list.
pub fn detect_code_cover(
    wires: &[Signal],
    codes: &[BTreeSet<usize>],
) -> Option<(&'static str, String)> {
    match DataEncoding::new(wires.to_vec(), codes.to_vec()) {
        Err(e @ EncodingError::CodeCovers { .. }) => Some(("antichain", e.to_string())),
        Err(e) => Some(("antichain", e.to_string())),
        Ok(_) => None,
    }
}

/// Probes whether the mutation preserved behavior: trace-language
/// equality against the original up to `BENIGN_DEPTH`. Both languages
/// must be extracted completely within budget for the proof to count.
pub fn behavior_preserved<L: Label>(orig: &PetriNet<L>, mutant: &PetriNet<L>) -> Option<String> {
    let budget = Budget::states(EXPLORE_BUDGET);
    let a = Language::from_net_bounded(orig, BENIGN_DEPTH, &budget).complete()?;
    let b = Language::from_net_bounded(mutant, BENIGN_DEPTH, &budget).complete()?;
    if a.eq_up_to(&b, BENIGN_DEPTH) {
        Some(format!("trace-equivalent up to depth {BENIGN_DEPTH}"))
    } else {
        None
    }
}

// ----------------------------------------------------------------------
// Sensitivity harness
// ----------------------------------------------------------------------

/// Per-(fault class, model) sensitivity statistics.
#[derive(Clone, Debug)]
pub struct SensitivityRow {
    /// The injected class.
    pub class: FaultClass,
    /// The model mutated.
    pub model: &'static str,
    /// The detector expected to flag this class on this model.
    pub detector: &'static str,
    /// Mutations attempted (trials where the class applied).
    pub trials: usize,
    /// Mutations flagged by a detector.
    pub detected: usize,
    /// Mutations proved behavior-preserving.
    pub benign: usize,
    /// Mutations neither flagged nor proved benign.
    pub missed: usize,
}

/// The full sensitivity matrix with every miss carried verbatim.
#[derive(Clone, Debug)]
pub struct SensitivityReport {
    /// One row per (class, model).
    pub rows: Vec<SensitivityRow>,
    /// Replay data for every miss: `(class, model, trial, fault)`.
    pub misses: Vec<(FaultClass, &'static str, u64, String)>,
    /// The root seed of the plan.
    pub seed: u64,
}

impl SensitivityReport {
    /// Whether every injected fault was detected or proved benign.
    pub fn all_accounted(&self) -> bool {
        self.misses.is_empty()
    }
}

impl fmt::Display for SensitivityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<11} {:<14} {:<14} {:>6} {:>9} {:>7} {:>7}",
            "fault", "model", "detector", "trials", "detected", "benign", "missed"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<11} {:<14} {:<14} {:>6} {:>9} {:>7} {:>7}",
                r.class.name(),
                r.model,
                r.detector,
                r.trials,
                r.detected,
                r.benign,
                r.missed
            )?;
        }
        for (class, model, trial, fault) in &self.misses {
            writeln!(
                f,
                "MISS: {class} on {model} (seed {}, trial {trial}): {fault}",
                self.seed
            )?;
        }
        Ok(())
    }
}

/// Resolves a mutant STG against the detector cascade: net-level
/// misbehavior, then consistency/USC, then (when an environment is
/// given) receptiveness, then the behavior-preservation probe.
pub fn judge_stg(orig: &Stg, mutant: &Stg, env: Option<&Stg>) -> Detection {
    if let Some((detector, evidence)) = detect_net_misbehavior(mutant.net()) {
        return Detection::Detected { detector, evidence };
    }
    if let Some((detector, evidence)) = detect_stg_inconsistency(mutant) {
        return Detection::Detected { detector, evidence };
    }
    if let Some(env) = env {
        if let Some((detector, evidence)) = detect_nonreceptive(mutant, env) {
            return Detection::Detected { detector, evidence };
        }
    }
    match behavior_preserved(orig.net(), mutant.net()) {
        Some(reason) => Detection::Benign { reason },
        None => Detection::Missed,
    }
}

/// Resolves a mutant marked-graph net against structural and behavioral
/// detectors.
pub fn judge_mg_net<L: Label>(orig: &PetriNet<L>, mutant: &PetriNet<L>) -> Detection {
    if let Some((detector, evidence)) = detect_not_marked_graph(mutant) {
        return Detection::Detected { detector, evidence };
    }
    if let Some((detector, evidence)) = detect_net_misbehavior(mutant) {
        return Detection::Detected { detector, evidence };
    }
    match behavior_preserved(orig, mutant) {
        Some(reason) => Detection::Benign { reason },
        None => Detection::Missed,
    }
}

/// Runs the full detector-sensitivity experiment: every fault class,
/// `trials` seeded mutations each, against the paper's known-good
/// models — the Figure 5–7 protocol STGs, live-safe marked-graph rings,
/// a 4-phase-expanded CIP system, and the Table 1 wire codes.
pub fn detector_sensitivity(seed: u64, trials: u64) -> SensitivityReport {
    let plan = FaultPlan::new(seed);
    let mut rows: Vec<SensitivityRow> = Vec::new();
    let mut misses = Vec::new();

    let mut run =
        |class: FaultClass,
         model: &'static str,
         detector: &'static str,
         mut one: Box<dyn FnMut(u64) -> Option<(Fault, Detection)> + '_>| {
            let mut row = SensitivityRow {
                class,
                model,
                detector,
                trials: 0,
                detected: 0,
                benign: 0,
                missed: 0,
            };
            for trial in 0..trials {
                let Some((fault, detection)) = one(trial) else {
                    continue;
                };
                row.trials += 1;
                match detection {
                    Detection::Detected { .. } => row.detected += 1,
                    Detection::Benign { .. } => row.benign += 1,
                    Detection::Missed => {
                        row.missed += 1;
                        misses.push((class, model, trial, fault.to_string()));
                    }
                }
            }
            rows.push(row);
        };

    // --- Figure 5–7 protocol STGs --------------------------------------
    let fig5 = cpn_stg::protocol::sender();
    let fig6 = cpn_stg::protocol::translator();
    let fig7 = cpn_stg::protocol::receiver();
    let stg_models: [(&'static str, &Stg, Option<&Stg>); 2] = [
        ("fig5-sender", &fig5, Some(&fig6)),
        ("fig7-receiver", &fig7, None),
    ];
    for (name, stg, env) in stg_models {
        for class in [
            FaultClass::TokenLoss,
            FaultClass::TokenDup,
            FaultClass::ArcDrop,
            FaultClass::ArcDup,
        ] {
            run(
                class,
                name,
                "liveness/safety",
                Box::new(|trial| {
                    let (mutant, fault) = plan.mutate_stg(class, stg, trial)?;
                    Some((fault, judge_stg(stg, &mutant, env)))
                }),
            );
        }
        for class in [FaultClass::EdgeFlip, FaultClass::Glitch] {
            run(
                class,
                name,
                "consistency",
                Box::new(|trial| {
                    let (mutant, fault) = plan.mutate_stg(class, stg, trial)?;
                    Some((fault, judge_stg(stg, &mutant, env)))
                }),
            );
        }
    }

    // --- Live-safe marked-graph rings ----------------------------------
    for class in [
        FaultClass::TokenLoss,
        FaultClass::TokenDup,
        FaultClass::ArcDrop,
        FaultClass::ArcDup,
    ] {
        run(
            class,
            "mg-ring",
            "structural-mg",
            Box::new(|trial| {
                let mut rng = plan.rng_for(class, trial);
                let n = 3 + rng.below(5);
                let ring = cpn_testkit::RawRing {
                    n,
                    marks: (0..n).map(|i| u32::from(i == 0)).collect(),
                };
                let net = ring.build();
                let (mutant, fault) = plan.mutate_net(class, &net, trial)?;
                Some((fault, judge_mg_net(&net, &mutant)))
            }),
        );
    }

    // --- Expanded CIP system (stuck handshake wires) -------------------
    let composed = expanded_control_pair();
    run(
        FaultClass::StuckWire,
        "cip-expanded",
        "liveness/safety",
        Box::new(|trial| {
            let (mutant, fault) = plan.mutate_stg(FaultClass::StuckWire, &composed, trial)?;
            Some((fault, judge_stg(&composed, &mutant, None)))
        }),
    );
    run(
        FaultClass::Glitch,
        "cip-expanded",
        "consistency",
        Box::new(|trial| {
            let (mutant, fault) = plan.mutate_stg(FaultClass::Glitch, &composed, trial)?;
            Some((fault, judge_stg(&composed, &mutant, None)))
        }),
    );

    // --- Table 1 wire codes (antichain) --------------------------------
    let enc = cpn_cip::protocol::cmd_encoding();
    let wires = enc.wires().to_vec();
    let codes: Vec<BTreeSet<usize>> = (0..enc.value_count())
        .map(|v| {
            enc.code(v)
                .expect("in-range value")
                .iter()
                .map(|w| wires.iter().position(|x| x == w).expect("own wire"))
                .collect()
        })
        .collect();
    run(
        FaultClass::CodeCover,
        "table1-codes",
        "antichain",
        Box::new(|trial| {
            let (mutated, fault) = plan.mutate_codes(FaultClass::CodeCover, &codes, trial)?;
            let detection = match detect_code_cover(&wires, &mutated) {
                Some((detector, evidence)) => Detection::Detected { detector, evidence },
                None => Detection::Missed,
            };
            Some((fault, detection))
        }),
    );

    SensitivityReport { rows, misses, seed }
}

/// A minimal known-good expanded CIP: one control channel between a
/// sender and a receiver module, 4-phase expansion, composed.
fn expanded_control_pair() -> Stg {
    let mut tx = cpn_cip::Module::new("tx");
    let p = tx.add_place("p");
    tx.add_send([p], "go", None, [p]).expect("tx send");
    tx.set_initial(p, 1);
    let mut rx = cpn_cip::Module::new("rx");
    let r = rx.add_place("r");
    rx.add_recv([r], "go", [r]).expect("rx recv");
    rx.set_initial(r, 1);
    let mut g = cpn_cip::CipGraph::new();
    let a = g.add_module(tx);
    let b = g.add_module(rx);
    g.add_channel_edge(a, b, cpn_cip::ChannelSpec::control("go"))
        .expect("edge");
    g.expand(cpn_cip::HandshakeProtocol::FourPhase)
        .expect("expansion")
        .compose_all()
        .expect("composition")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_named_and_listed() {
        assert_eq!(FaultClass::ALL.len(), 8);
        let names: BTreeSet<&str> = FaultClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 8, "names are distinct");
    }

    #[test]
    fn mutations_are_deterministic_in_the_seed() {
        let stg = cpn_stg::protocol::sender();
        let plan = FaultPlan::new(7);
        for class in FaultClass::ALL {
            let a = plan.mutate_stg(class, &stg, 3);
            let b = plan.mutate_stg(class, &stg, 3);
            match (a, b) {
                (Some((_, fa)), Some((_, fb))) => assert_eq!(fa.description, fb.description),
                (None, None) => {}
                _ => panic!("nondeterministic applicability for {class}"),
            }
        }
    }

    #[test]
    fn token_loss_kills_the_sender() {
        let stg = cpn_stg::protocol::sender();
        let plan = FaultPlan::new(11);
        let (mutant, _) = plan
            .mutate_stg(FaultClass::TokenLoss, &stg, 0)
            .expect("sender has a marked place");
        let (detector, _) = detect_net_misbehavior(mutant.net()).expect("token loss detected");
        assert_eq!(detector, "liveness/safety");
    }

    #[test]
    fn edge_flip_breaks_consistency() {
        let stg = cpn_stg::protocol::receiver();
        let plan = FaultPlan::new(13);
        let mut hits = 0;
        for trial in 0..5 {
            let (mutant, fault) = plan
                .mutate_stg(FaultClass::EdgeFlip, &stg, trial)
                .expect("receiver has flippable edges");
            let judged = judge_stg(&stg, &mutant, None);
            assert!(judged.is_accounted(), "missed {fault}");
            if matches!(judged, Detection::Detected { .. }) {
                hits += 1;
            }
        }
        assert!(hits > 0, "at least one flip must be flagged");
    }

    #[test]
    fn glitch_pulse_is_flagged() {
        let stg = cpn_stg::protocol::sender();
        let plan = FaultPlan::new(17);
        let (mutant, fault) = plan
            .mutate_stg(FaultClass::Glitch, &stg, 0)
            .expect("sender has signals");
        assert!(
            judge_stg(&stg, &mutant, None).is_accounted(),
            "missed {fault}"
        );
    }

    #[test]
    fn stuck_wire_deadlocks_the_expanded_system() {
        let composed = expanded_control_pair();
        let plan = FaultPlan::new(19);
        let (mutant, fault) = plan
            .mutate_stg(FaultClass::StuckWire, &composed, 0)
            .expect("handshake wires exist");
        let detection = judge_stg(&composed, &mutant, None);
        assert!(
            matches!(detection, Detection::Detected { .. }),
            "stuck wire must be detected, fault {fault}: {detection:?}"
        );
    }

    #[test]
    fn code_cover_rejected_by_antichain_validation() {
        let enc = cpn_cip::protocol::cmd_encoding();
        let wires = enc.wires().to_vec();
        let codes: Vec<BTreeSet<usize>> = (0..enc.value_count())
            .map(|v| {
                enc.code(v)
                    .unwrap()
                    .iter()
                    .map(|w| wires.iter().position(|x| x == w).unwrap())
                    .collect()
            })
            .collect();
        let plan = FaultPlan::new(23);
        for trial in 0..8 {
            let (mutated, fault) = plan
                .mutate_codes(FaultClass::CodeCover, &codes, trial)
                .expect("four values");
            assert!(
                detect_code_cover(&wires, &mutated).is_some(),
                "antichain validation must reject {fault}"
            );
        }
    }

    #[test]
    fn sensitivity_smoke_run_accounts_for_everything() {
        let report = detector_sensitivity(0xC1A0, 2);
        assert!(!report.rows.is_empty());
        assert!(report.all_accounted(), "unaccounted faults:\n{report}");
    }
}
