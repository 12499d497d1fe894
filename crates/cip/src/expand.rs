//! Automatic expansion of abstract channel events into handshake
//! signalling (Section 3 of the paper).
//!
//! A send `c!v` becomes, for the 4-phase protocol,
//!
//! ```text
//! (… r_j+ …) → a_c+ → (… r_j− …) → a_c−      for all r_j ∈ code(v)
//! ```
//!
//! exactly as printed in the paper, where `code(v)` is the wire set of
//! the channel's data encoding (a lone request wire for control-only
//! channels). The receiver side mirrors the sequence with the wire
//! directions flipped: per-wire *trackers* follow the incoming rails, and
//! one completion transition per value emits the acknowledge when the
//! value's full code is high — the antichain property of the encoding
//! ("no code covers another") guarantees the completion is unambiguous.
//!
//! Because both sides are generated from the same channel spec, the
//! rendez-vous of the abstract model is preserved by construction — the
//! "correctness is ensured" claim of Section 3 — which the tests verify
//! by composing expanded systems and checking liveness and
//! receptiveness.

use crate::graph::{CipError, CipGraph, Link};
use crate::label::{ChanOp, Channel, CipLabel};
use crate::module::Module;
use cpn_petri::{Bounded, Budget, Meter, PlaceId, Sym, Verdict};
use cpn_stg::{Edge, Signal, SignalDir, Stg, StgError, StgLabel};
use std::collections::{BTreeMap, BTreeSet};

/// The handshake protocol channel events expand to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandshakeProtocol {
    /// 4-phase return-to-zero: `r+ a+ r- a-`.
    FourPhase,
    /// 2-phase transition signalling: `r~ a~` (control-only channels).
    TwoPhase,
}

/// A per-module receptiveness verdict list: module name paired with
/// `Holds` / `Fails(report)` / `Unknown(budget spent)`.
pub type ModuleVerdicts = Vec<(String, Verdict<cpn_core::ReceptivenessReport<StgLabel>>)>;

/// The result of expanding a CIP: one STG per module, ready for the
/// circuit algebra.
#[derive(Clone, Debug)]
pub struct ExpandedSystem {
    names: Vec<String>,
    stgs: Vec<Stg>,
}

impl ExpandedSystem {
    /// The expanded module STGs, in module order.
    pub fn stgs(&self) -> &[Stg] {
        &self.stgs
    }

    /// Module names, in module order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Composes every module STG into the global system (Section 5.1's
    /// circuit-algebra composition, pairwise-folded).
    ///
    /// # Errors
    ///
    /// [`StgError`] on output collisions (cannot happen for validated
    /// CIPs) or net errors.
    pub fn compose_all(&self) -> Result<Stg, StgError> {
        match self.compose_all_bounded(&Budget::unlimited())? {
            Bounded::Complete(stg) => Ok(stg),
            // Unreachable: an unlimited budget is never exhausted.
            Bounded::Exhausted { partial, .. } => Ok(partial),
        }
    }

    /// Budget-aware pairwise fold: composes module STGs left to right,
    /// charging the places (as states) and transitions of the growing
    /// composition against `budget`.
    ///
    /// On exhaustion the partial value is the composition of the module
    /// prefix folded so far — still a well-formed STG, usable for
    /// partial diagnostics — together with the exploration statistics.
    ///
    /// # Errors
    ///
    /// [`StgError`] on output collisions (cannot happen for validated
    /// CIPs) or net errors.
    pub fn compose_all_bounded(&self, budget: &Budget) -> Result<Bounded<Stg>, StgError> {
        let mut meter = Meter::new(budget);
        let mut iter = self.stgs.iter();
        let Some(first) = iter.next() else {
            return Ok(meter.finish(Stg::new()));
        };
        let mut acc = first.clone();
        let mut charged = (0usize, 0usize);
        let charge = |meter: &mut Meter, stg: &Stg, charged: &mut (usize, usize)| -> bool {
            let mut ok = true;
            while charged.0 < stg.net().place_count() {
                ok &= meter.take_state();
                charged.0 += 1;
            }
            while charged.1 < stg.net().transition_count() {
                ok &= meter.take_transition();
                charged.1 += 1;
            }
            ok
        };
        charge(&mut meter, &acc, &mut charged);
        for stg in iter {
            if meter.is_stopped() {
                break;
            }
            acc = acc.compose(stg)?;
            charge(&mut meter, &acc, &mut charged);
        }
        Ok(meter.finish(acc))
    }

    /// Pairwise receptiveness verification (Propositions 5.5/5.6): each
    /// module is checked against the composition of all the others,
    /// under `budget` ([`Stg::check_receptiveness`]).
    ///
    /// Returns, per module, its verdict; a failure report lists the
    /// failures in which that module is the producer. `Holds` everywhere
    /// means the expanded system is consistent. When the composed state
    /// space outgrows the budget, the affected module gets
    /// [`Verdict::Unknown`] carrying the partial exploration statistics;
    /// every other module still gets its definite verdict.
    ///
    /// # Errors
    ///
    /// Composition errors only — budget exhaustion is a verdict, not an
    /// error.
    pub fn verify_receptiveness(&self, budget: &Budget) -> Result<ModuleVerdicts, CipError> {
        let mut out = Vec::new();
        for (i, module) in self.stgs.iter().enumerate() {
            let verdict = match self.compose_rest(i)? {
                Some(rest) => module.check_receptiveness(&rest, budget).map_err(inner)?,
                None => Verdict::Holds,
            };
            out.push((self.names[i].clone(), verdict));
        }
        Ok(out)
    }

    /// Compositional reduction of one module against the rest of the
    /// expanded system (Section 6's derivation shape: the translator is
    /// reduced against the composition of its environment modules).
    /// Composes every *other* module STG, then runs
    /// [`Stg::reduce_against`] — compose, dead-removal, single-pass
    /// engine projection onto the module's own signals, cleanup — so the
    /// whole derivation executes on the contraction engine.
    ///
    /// Both dead-transition passes explore under `budget`; an
    /// [`Bounded::Exhausted`] partial is the intermediate
    /// [`Stg::reduce_against`] documents (the composition when the first
    /// pass stops).
    ///
    /// # Errors
    ///
    /// [`CipError::UnknownModule`] for an out-of-range index; composition
    /// and hiding (divergence) errors via [`CipError::Inner`]. Running out
    /// of `budget` is **not** an error.
    pub fn reduce_module_against_rest(
        &self,
        i: usize,
        budget: &Budget,
        hide_budget: usize,
    ) -> Result<Bounded<Stg>, CipError> {
        let Some(module) = self.stgs.get(i) else {
            return Err(CipError::UnknownModule(i));
        };
        let Some(rest) = self.compose_rest(i)? else {
            // Nothing to reduce against: the module is the whole system.
            return Ok(Bounded::Complete(module.clone()));
        };
        module
            .reduce_against(&rest, budget, hide_budget)
            .map_err(inner)
    }

    /// The composition of every module STG except the `i`-th, or `None`
    /// when there is no other module.
    fn compose_rest(&self, i: usize) -> Result<Option<Stg>, CipError> {
        let mut rest: Option<Stg> = None;
        for (j, stg) in self.stgs.iter().enumerate() {
            if j == i {
                continue;
            }
            rest = Some(match rest {
                None => stg.clone(),
                Some(acc) => acc.compose(stg).map_err(inner)?,
            });
        }
        Ok(rest)
    }
}

fn inner(e: impl std::error::Error + Send + Sync + 'static) -> CipError {
    CipError::Inner(Box::new(e))
}

/// The role a module plays on a channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Sender,
    Receiver,
}

/// Per-channel wire bundle derived from the spec.
#[derive(Clone, Debug)]
struct ChannelWires {
    /// Request/data wires, indexed by the encoding's wire order (a lone
    /// `c_req` wire for control channels).
    data: Vec<Signal>,
    /// Codes per value (a single full set for control channels).
    codes: Vec<BTreeSet<usize>>,
    /// The acknowledge wire `c_ack`.
    ack: Signal,
}

/// The channel tables of a graph: wire bundles per channel symbol and
/// the role each `(module index, channel)` pair plays.
type ChannelTables = (BTreeMap<Sym, ChannelWires>, BTreeMap<(usize, Sym), Role>);

impl CipGraph {
    /// Expands every module, mapping channel events to handshake
    /// signalling per the protocol.
    ///
    /// # Errors
    ///
    /// Validation errors ([`CipGraph::validate`] is run first), plus:
    /// data channels under [`HandshakeProtocol::TwoPhase`] and plain
    /// sends (`c!` without a value) on data channels are rejected.
    pub fn expand(&self, protocol: HandshakeProtocol) -> Result<ExpandedSystem, CipError> {
        self.validate()?;
        let (wires, roles) = self.channel_tables(protocol)?;

        let mut stgs = Vec::new();
        let mut names = Vec::new();
        for (mi, module) in self.modules().iter().enumerate() {
            stgs.push(expand_module(module, mi, &wires, &roles, protocol)?);
            names.push(module.name().to_owned());
        }
        Ok(ExpandedSystem { names, stgs })
    }

    /// [`CipGraph::expand`] with per-module memoization: modules whose
    /// expansion fingerprint (net, place/transition numbering, signal
    /// declarations, channel wire bundles and roles, protocol) is
    /// already in `cache` reuse the cached STG instead of re-running
    /// the expansion — re-expanding a large system after a one-module
    /// edit only pays for the edited module.
    ///
    /// # Errors
    ///
    /// Exactly those of [`CipGraph::expand`]; errors are never cached.
    pub fn expand_cached(
        &self,
        protocol: HandshakeProtocol,
        cache: &mut ExpandCache,
    ) -> Result<ExpandedSystem, CipError> {
        self.validate()?;
        let (wires, roles) = self.channel_tables(protocol)?;

        let mut stgs = Vec::new();
        let mut names = Vec::new();
        for (mi, module) in self.modules().iter().enumerate() {
            let key = module_fingerprint(module, mi, &wires, &roles, protocol);
            match cache.map.get(&key) {
                Some(stg) => {
                    cache.hits += 1;
                    stgs.push(Stg::clone(stg));
                }
                None => {
                    let stg = expand_module(module, mi, &wires, &roles, protocol)?;
                    cache.misses += 1;
                    cache.map.insert(key, std::sync::Arc::new(stg.clone()));
                    stgs.push(stg);
                }
            }
            names.push(module.name().to_owned());
        }
        Ok(ExpandedSystem { names, stgs })
    }

    /// Wire bundles per channel (keyed by the channel's interned
    /// symbol, so expansion-time lookups are integer-keyed) and the
    /// role each module plays on each channel.
    fn channel_tables(&self, protocol: HandshakeProtocol) -> Result<ChannelTables, CipError> {
        let mut wires: BTreeMap<Sym, ChannelWires> = BTreeMap::new();
        let mut roles: BTreeMap<(usize, Sym), Role> = BTreeMap::new();
        for e in self.edges() {
            if let Link::Channel(spec) = &e.link {
                let bundle = match &spec.encoding {
                    None => ChannelWires {
                        data: vec![Signal::new(format!("{}_req", spec.channel))],
                        codes: vec![BTreeSet::from([0])],
                        ack: Signal::new(format!("{}_ack", spec.channel)),
                    },
                    Some(enc) => {
                        if protocol == HandshakeProtocol::TwoPhase {
                            return Err(CipError::ChannelMismatch(format!(
                                "data channel {} cannot use 2-phase signalling",
                                spec.channel
                            )));
                        }
                        ChannelWires {
                            data: enc.wires().to_vec(),
                            codes: (0..enc.value_count())
                                .map(|v| {
                                    enc.code(v)
                                        .expect("validated value")
                                        .iter()
                                        .map(|w| {
                                            enc.wires()
                                                .iter()
                                                .position(|x| x == w)
                                                .expect("own wire")
                                        })
                                        .collect()
                                })
                                .collect(),
                            ack: Signal::new(format!("{}_ack", spec.channel)),
                        }
                    }
                };
                wires.insert(spec.channel.sym(), bundle);
                roles.insert((e.from, spec.channel.sym()), Role::Sender);
                roles.insert((e.to, spec.channel.sym()), Role::Receiver);
            }
        }
        Ok((wires, roles))
    }
}

/// Memo of per-module expansions, keyed on a 128-bit FNV fingerprint
/// of everything the (private) module expander reads: the module net's structural
/// [`NetId`](cpn_petri::NetId) *plus* its as-built numbering (place
/// names in `PlaceId` order, transition labels and arc lists in
/// `TransitionId` order — generated STG place names embed transition
/// indices, so isomorphic-but-renumbered modules must not share an
/// entry), the signal declarations, the wire bundle and role of every
/// channel the module touches, and the protocol.
///
/// Shareable across [`CipGraph`]s: a fingerprint hit from a different
/// graph is sound because the fingerprint covers the full input of the
/// pure function `expand_module`.
#[derive(Debug, Default)]
pub struct ExpandCache {
    map: std::collections::HashMap<u128, std::sync::Arc<Stg>>,
    hits: u64,
    misses: u64,
}

impl ExpandCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Distinct module expansions resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// See [`ExpandCache`] for what the fingerprint must cover and why.
fn module_fingerprint(
    module: &Module,
    mi: usize,
    wires: &BTreeMap<Sym, ChannelWires>,
    roles: &BTreeMap<(usize, Sym), Role>,
    protocol: HandshakeProtocol,
) -> u128 {
    use cpn_petri::hash::Fnv128;

    let mut h = Fnv128::new();
    h.write(&[match protocol {
        HandshakeProtocol::FourPhase => 4,
        HandshakeProtocol::TwoPhase => 2,
    }]);
    let net = module.net();
    h.write(&net.net_id().as_u128().to_le_bytes());
    // As-built numbering on top of the structural id (see type docs).
    let m0 = net.initial_marking();
    for (pid, place) in net.places() {
        h.write_len_prefixed(place.name().as_bytes());
        h.write_u32(m0.tokens(pid));
    }
    for (tid, t) in net.transitions() {
        h.write_len_prefixed(net.label_of(tid).to_string().as_bytes());
        h.write_u64(t.preset().len() as u64);
        for p in t.preset() {
            h.write_u64(p.index() as u64);
        }
        h.write_u64(t.postset().len() as u64);
        for p in t.postset() {
            h.write_u64(p.index() as u64);
        }
    }
    for (s, dir) in module.signals() {
        h.write_len_prefixed(s.name().as_bytes());
        h.write(&[match dir {
            SignalDir::Input => 0xA0,
            SignalDir::Output => 0xA1,
            SignalDir::Internal => 0xA2,
        }]);
    }
    let mut channels: BTreeSet<Channel> = module.sends();
    channels.extend(module.receives());
    for c in &channels {
        h.write_len_prefixed(c.name().as_bytes());
        h.write(&[match roles[&(mi, c.sym())] {
            Role::Sender => 0xB0,
            Role::Receiver => 0xB1,
        }]);
        let bundle = &wires[&c.sym()];
        h.write_u64(bundle.data.len() as u64);
        for w in &bundle.data {
            h.write_len_prefixed(w.name().as_bytes());
        }
        h.write_u64(bundle.codes.len() as u64);
        for code in &bundle.codes {
            h.write_u64(code.len() as u64);
            for &wi in code {
                h.write_u64(wi as u64);
            }
        }
        h.write_len_prefixed(bundle.ack.name().as_bytes());
    }
    h.finish()
}

fn expand_module(
    module: &Module,
    mi: usize,
    wires: &BTreeMap<Sym, ChannelWires>,
    roles: &BTreeMap<(usize, Sym), Role>,
    protocol: HandshakeProtocol,
) -> Result<Stg, CipError> {
    let mut stg = Stg::new();

    // Original signal declarations.
    for (s, &dir) in module.signals() {
        stg.try_add_signal(s.name(), dir).map_err(inner)?;
    }

    // Channel wires this module touches, with role-dependent directions.
    let mut my_channels: BTreeSet<Channel> = module.sends();
    my_channels.extend(module.receives());
    for c in &my_channels {
        let bundle = &wires[&c.sym()];
        let role = roles[&(mi, c.sym())];
        let (data_dir, ack_dir) = match role {
            Role::Sender => (SignalDir::Output, SignalDir::Input),
            Role::Receiver => (SignalDir::Input, SignalDir::Output),
        };
        for w in &bundle.data {
            stg.try_add_signal(w.name(), data_dir).map_err(inner)?;
        }
        stg.try_add_signal(bundle.ack.name(), ack_dir)
            .map_err(inner)?;
    }

    // Copy places.
    let mut place_map: BTreeMap<PlaceId, PlaceId> = BTreeMap::new();
    let m0 = module.net().initial_marking();
    for (old, place) in module.net().places() {
        let new = stg.add_place(place.name().to_owned());
        stg.set_initial(new, m0.tokens(old));
        place_map.insert(old, new);
    }

    // Receiver-side wire trackers (once per received channel).
    // tracker[(channel sym, wire)] = (low place, high place)
    let mut tracker: BTreeMap<(Sym, usize), (PlaceId, PlaceId)> = BTreeMap::new();
    if protocol == HandshakeProtocol::FourPhase {
        for c in &module.receives() {
            let bundle = &wires[&c.sym()];
            for (wi, w) in bundle.data.iter().enumerate() {
                let lo = stg.add_place(format!("{c}.{w}.lo"));
                let hi = stg.add_place(format!("{c}.{w}.hi"));
                stg.set_initial(lo, 1);
                stg.add_signal_transition([lo], (w.clone(), Edge::Rise), [hi])
                    .map_err(inner)?;
                stg.add_signal_transition([hi], (w.clone(), Edge::Fall), [lo])
                    .map_err(inner)?;
                tracker.insert((c.sym(), wi), (lo, hi));
            }
        }
    }

    // Transitions.
    for (tid, t) in module.net().transitions() {
        let pre: Vec<PlaceId> = t.preset().iter().map(|p| place_map[p]).collect();
        let post: Vec<PlaceId> = t.postset().iter().map(|p| place_map[p]).collect();
        match module.net().label_of(tid) {
            CipLabel::Signal(s, e) => {
                stg.add_signal_transition(pre, (s.clone(), *e), post)
                    .map_err(inner)?;
            }
            CipLabel::Dummy => {
                stg.add_dummy(pre, post).map_err(inner)?;
            }
            CipLabel::Chan(c, op) => {
                let bundle = &wires[&c.sym()];
                match (op, protocol) {
                    (ChanOp::Send(v), HandshakeProtocol::FourPhase) => {
                        let value = match (v, bundle.codes.len()) {
                            (Some(v), _) => *v,
                            (None, 1) => 0,
                            (None, _) => {
                                return Err(CipError::ChannelMismatch(format!(
                                    "plain send on data channel {c} needs a value"
                                )))
                            }
                        };
                        expand_send_4ph(&mut stg, tid.index(), &pre, &post, bundle, value)
                            .map_err(inner)?;
                    }
                    (ChanOp::Recv(sel), HandshakeProtocol::FourPhase) => {
                        let values: Vec<usize> = match sel {
                            Some(v) => vec![*v],
                            None => (0..bundle.codes.len()).collect(),
                        };
                        expand_recv_4ph(
                            &mut stg,
                            tid.index(),
                            &pre,
                            &post,
                            c,
                            bundle,
                            &values,
                            &tracker,
                        )
                        .map_err(inner)?;
                    }
                    (ChanOp::Send(_), HandshakeProtocol::TwoPhase) => {
                        let req = bundle.data[0].clone();
                        let mid = stg.add_place(format!("t{}.2ph", tid.index()));
                        stg.add_signal_transition(pre, (req, Edge::Toggle), [mid])
                            .map_err(inner)?;
                        stg.add_signal_transition([mid], (bundle.ack.clone(), Edge::Toggle), post)
                            .map_err(inner)?;
                    }
                    (ChanOp::Recv(_), HandshakeProtocol::TwoPhase) => {
                        let req = bundle.data[0].clone();
                        let mid = stg.add_place(format!("t{}.2ph", tid.index()));
                        stg.add_signal_transition(pre, (req, Edge::Toggle), [mid])
                            .map_err(inner)?;
                        stg.add_signal_transition([mid], (bundle.ack.clone(), Edge::Toggle), post)
                            .map_err(inner)?;
                    }
                }
            }
        }
    }

    Ok(stg)
}

/// Sender side, 4-phase: fork to the code wires, raise them, wait for
/// ack+, lower them, wait for ack−.
fn expand_send_4ph(
    stg: &mut Stg,
    tid: usize,
    pre: &[PlaceId],
    post: &[PlaceId],
    bundle: &ChannelWires,
    value: usize,
) -> Result<(), StgError> {
    let code: Vec<usize> = bundle.codes[value].iter().copied().collect();
    let ack = bundle.ack.clone();

    // Rise phase.
    let mut hi_places = Vec::new();
    if code.len() == 1 {
        let w = bundle.data[code[0]].clone();
        let hi = stg.add_place(format!("t{tid}.hi"));
        stg.add_signal_transition(pre.iter().copied(), (w, Edge::Rise), [hi])?;
        hi_places.push(hi);
    } else {
        let mut ups = Vec::new();
        for &wi in &code {
            ups.push(stg.add_place(format!("t{tid}.up.{wi}")));
        }
        stg.add_dummy(pre.iter().copied(), ups.clone())?;
        for (k, &wi) in code.iter().enumerate() {
            let w = bundle.data[wi].clone();
            let hi = stg.add_place(format!("t{tid}.hi.{wi}"));
            stg.add_signal_transition([ups[k]], (w, Edge::Rise), [hi])?;
            hi_places.push(hi);
        }
    }

    // Ack+ joins the rises, forks the falls.
    let mut dn_places = Vec::new();
    for &wi in &code {
        dn_places.push(stg.add_place(format!("t{tid}.dn.{wi}")));
    }
    stg.add_signal_transition(hi_places, (ack.clone(), Edge::Rise), dn_places.clone())?;

    // Fall phase.
    let mut lo_places = Vec::new();
    for (k, &wi) in code.iter().enumerate() {
        let w = bundle.data[wi].clone();
        let lo = stg.add_place(format!("t{tid}.lo.{wi}"));
        stg.add_signal_transition([dn_places[k]], (w, Edge::Fall), [lo])?;
        lo_places.push(lo);
    }

    // Ack− completes the transaction.
    stg.add_signal_transition(lo_places, (ack, Edge::Fall), post.iter().copied())?;
    Ok(())
}

/// Receiver side, 4-phase: one completion (`ack+`) per accepted value,
/// reading the tracker high places of its code (self-loops), then `ack−`
/// once the code wires returned low.
#[allow(clippy::too_many_arguments)]
fn expand_recv_4ph(
    stg: &mut Stg,
    tid: usize,
    pre: &[PlaceId],
    post: &[PlaceId],
    channel: &Channel,
    bundle: &ChannelWires,
    values: &[usize],
    tracker: &BTreeMap<(Sym, usize), (PlaceId, PlaceId)>,
) -> Result<(), StgError> {
    let ack = bundle.ack.clone();
    for &v in values {
        let code: Vec<usize> = bundle.codes[v].iter().copied().collect();
        let mid = stg.add_place(format!("t{tid}.got.{v}"));
        // ack+ when the full code is high (read arcs on the trackers).
        let mut plus_pre: Vec<PlaceId> = pre.to_vec();
        let mut plus_post: Vec<PlaceId> = vec![mid];
        for &wi in &code {
            let (_, hi) = tracker[&(channel.sym(), wi)];
            plus_pre.push(hi);
            plus_post.push(hi);
        }
        stg.add_signal_transition(plus_pre, (ack.clone(), Edge::Rise), plus_post)?;
        // ack− once the code wires are low again.
        let mut minus_pre: Vec<PlaceId> = vec![mid];
        let mut minus_post: Vec<PlaceId> = post.to_vec();
        for &wi in &code {
            let (lo, _) = tracker[&(channel.sym(), wi)];
            minus_pre.push(lo);
            minus_post.push(lo);
        }
        stg.add_signal_transition(minus_pre, (ack.clone(), Edge::Fall), minus_post)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::DataEncoding;
    use crate::graph::ChannelSpec;

    fn control_pair() -> CipGraph {
        let mut tx = Module::new("tx");
        let p = tx.add_place("p");
        tx.add_send([p], "go", None, [p]).unwrap();
        tx.set_initial(p, 1);
        let mut rx = Module::new("rx");
        let r = rx.add_place("r");
        rx.add_recv([r], "go", [r]).unwrap();
        rx.set_initial(r, 1);
        let mut g = CipGraph::new();
        let a = g.add_module(tx);
        let b = g.add_module(rx);
        g.add_channel_edge(a, b, ChannelSpec::control("go"))
            .unwrap();
        g
    }

    #[test]
    fn four_phase_control_channel_is_live_and_safe() {
        let sys = control_pair().expand(HandshakeProtocol::FourPhase).unwrap();
        let composed = sys.compose_all().unwrap();
        let rep = composed
            .classical_report(&Default::default())
            .complete()
            .unwrap();
        assert!(
            rep.live,
            "expanded handshake must be live:\n{}",
            composed.net()
        );
        assert!(rep.safe);
    }

    #[test]
    fn four_phase_handshake_order() {
        let sys = control_pair().expand(HandshakeProtocol::FourPhase).unwrap();
        let composed = sys.compose_all().unwrap();
        let lang = composed.language(4, 100_000).unwrap();
        let seq: Vec<StgLabel> = vec![
            StgLabel::signal("go_req", Edge::Rise),
            StgLabel::signal("go_ack", Edge::Rise),
            StgLabel::signal("go_req", Edge::Fall),
            StgLabel::signal("go_ack", Edge::Fall),
        ];
        assert!(lang.contains(&seq), "r+ a+ r- a- must be a trace: {lang}");
        // The paper's order is enforced: ack before request is impossible.
        assert!(!lang.contains(&[StgLabel::signal("go_ack", Edge::Rise)][..]));
    }

    #[test]
    fn two_phase_control_channel() {
        let sys = control_pair().expand(HandshakeProtocol::TwoPhase).unwrap();
        let composed = sys.compose_all().unwrap();
        let lang = composed.language(2, 10_000).unwrap();
        assert!(lang.contains(
            &[
                StgLabel::signal("go_req", Edge::Toggle),
                StgLabel::signal("go_ack", Edge::Toggle),
            ][..]
        ));
        let rep = composed
            .classical_report(&Default::default())
            .complete()
            .unwrap();
        assert!(rep.live && rep.safe);
    }

    fn data_pair(selective: bool) -> CipGraph {
        let mut tx = Module::new("tx");
        let p = tx.add_place("p");
        let q = tx.add_place("q");
        tx.add_send([p], "d", Some(1), [q]).unwrap();
        tx.add_send([q], "d", Some(0), [p]).unwrap();
        tx.set_initial(p, 1);
        let mut rx = Module::new("rx");
        let r = rx.add_place("r");
        if selective {
            let s = rx.add_place("s");
            rx.add_recv_case([r], "d", 1, [s]).unwrap();
            rx.add_recv_case([s], "d", 0, [r]).unwrap();
        } else {
            rx.add_recv([r], "d", [r]).unwrap();
        }
        rx.set_initial(r, 1);
        let mut g = CipGraph::new();
        let a = g.add_module(tx);
        let b = g.add_module(rx);
        g.add_channel_edge(
            a,
            b,
            ChannelSpec::data("d", DataEncoding::dual_rail("d", 1)),
        )
        .unwrap();
        g
    }

    #[test]
    fn dual_rail_data_channel_runs() {
        let sys = data_pair(false)
            .expand(HandshakeProtocol::FourPhase)
            .unwrap();
        // The fusion cross-product leaves dead duplicates (Section 5.2);
        // prune them before judging liveness.
        let composed = sys
            .compose_all()
            .unwrap()
            .remove_dead(&Default::default())
            .complete()
            .unwrap();
        let rep = composed
            .classical_report(&Default::default())
            .complete()
            .unwrap();
        assert!(rep.live, "dual-rail transaction loop must be live");
        assert!(rep.safe);
        // Value 1 raises the true rail first.
        let lang = composed.language(2, 100_000).unwrap();
        assert!(lang.contains(
            &[
                StgLabel::signal("d0_t", Edge::Rise),
                StgLabel::signal("d_ack", Edge::Rise),
            ][..]
        ));
        assert!(
            !lang.contains(&[StgLabel::signal("d0_f", Edge::Rise)][..]),
            "value 1 must not raise the false rail first"
        );
    }

    #[test]
    fn selective_receive_routes_on_value() {
        let sys = data_pair(true)
            .expand(HandshakeProtocol::FourPhase)
            .unwrap();
        let composed = sys
            .compose_all()
            .unwrap()
            .remove_dead(&Default::default())
            .complete()
            .unwrap();
        let rep = composed
            .classical_report(&Default::default())
            .complete()
            .unwrap();
        assert!(rep.live, "selective receive in phase with sender is live");
    }

    #[test]
    fn two_phase_data_rejected() {
        let err = data_pair(false)
            .expand(HandshakeProtocol::TwoPhase)
            .unwrap_err();
        assert!(matches!(err, CipError::ChannelMismatch(_)));
    }

    #[test]
    fn expanded_system_is_receptive() {
        let sys = control_pair().expand(HandshakeProtocol::FourPhase).unwrap();
        let verdicts = sys.verify_receptiveness(&Budget::default()).unwrap();
        for (name, verdict) in &verdicts {
            assert!(verdict.holds(), "module {name}: {verdict:?}");
        }
    }

    #[test]
    fn wire_directions_assigned_by_role() {
        let sys = control_pair().expand(HandshakeProtocol::FourPhase).unwrap();
        let tx = &sys.stgs()[0];
        let rx = &sys.stgs()[1];
        assert_eq!(tx.signals()[&Signal::new("go_req")], SignalDir::Output);
        assert_eq!(tx.signals()[&Signal::new("go_ack")], SignalDir::Input);
        assert_eq!(rx.signals()[&Signal::new("go_req")], SignalDir::Input);
        assert_eq!(rx.signals()[&Signal::new("go_ack")], SignalDir::Output);
    }

    #[test]
    fn plain_send_on_data_channel_rejected() {
        let mut tx = Module::new("tx");
        let p = tx.add_place("p");
        tx.add_send([p], "d", None, [p]).unwrap();
        tx.set_initial(p, 1);
        let mut rx = Module::new("rx");
        let r = rx.add_place("r");
        rx.add_recv([r], "d", [r]).unwrap();
        let mut g = CipGraph::new();
        let a = g.add_module(tx);
        let b = g.add_module(rx);
        g.add_channel_edge(a, b, ChannelSpec::data("d", DataEncoding::one_hot("w", 2)))
            .unwrap();
        let err = g.expand(HandshakeProtocol::FourPhase).unwrap_err();
        assert!(matches!(err, CipError::ChannelMismatch(_)));
    }

    /// Structural equality of STGs for the cache tests: same canonical
    /// net bytes, same signal declarations.
    fn assert_stgs_equivalent(a: &Stg, b: &Stg, what: &str) {
        assert_eq!(
            cpn_petri::canonical_form(a.net()),
            cpn_petri::canonical_form(b.net()),
            "{what}: nets differ"
        );
        assert_eq!(a.signals(), b.signals(), "{what}: signals differ");
    }

    #[test]
    fn expand_cached_matches_expand() {
        for protocol in [HandshakeProtocol::FourPhase, HandshakeProtocol::TwoPhase] {
            let g = control_pair();
            let plain = g.expand(protocol).unwrap();
            let mut cache = ExpandCache::new();
            let cached = g.expand_cached(protocol, &mut cache).unwrap();
            assert_eq!(plain.names(), cached.names());
            for (i, (a, b)) in plain.stgs().iter().zip(cached.stgs()).enumerate() {
                assert_stgs_equivalent(a, b, &format!("{protocol:?} module {i}"));
            }
            assert_eq!(cache.stats(), (0, 2), "first expansion misses per module");
        }
    }

    #[test]
    fn re_expansion_hits_per_module() {
        let g = control_pair();
        let mut cache = ExpandCache::new();
        let first = g
            .expand_cached(HandshakeProtocol::FourPhase, &mut cache)
            .unwrap();
        let second = g
            .expand_cached(HandshakeProtocol::FourPhase, &mut cache)
            .unwrap();
        assert_eq!(cache.stats(), (2, 2), "second expansion is all hits");
        for (i, (a, b)) in first.stgs().iter().zip(second.stgs()).enumerate() {
            assert_stgs_equivalent(a, b, &format!("replay module {i}"));
        }
        // The two protocols never share entries.
        let _ = g
            .expand_cached(HandshakeProtocol::TwoPhase, &mut cache)
            .unwrap();
        assert_eq!(cache.stats(), (2, 4));
    }

    #[test]
    fn one_module_edit_re_expands_only_that_module() {
        // Build the same two-module system twice; the second build
        // edits rx (one extra internal place) and must only pay for rx.
        let build = |edit_rx: bool| {
            let mut tx = Module::new("tx");
            let p = tx.add_place("p");
            tx.add_send([p], "go", None, [p]).unwrap();
            tx.set_initial(p, 1);
            let mut rx = Module::new("rx");
            let r = rx.add_place("r");
            rx.add_recv([r], "go", [r]).unwrap();
            rx.set_initial(r, 1);
            if edit_rx {
                rx.add_place("scratch");
            }
            let mut g = CipGraph::new();
            let a = g.add_module(tx);
            let b = g.add_module(rx);
            g.add_channel_edge(a, b, ChannelSpec::control("go"))
                .unwrap();
            g
        };
        let mut cache = ExpandCache::new();
        build(false)
            .expand_cached(HandshakeProtocol::FourPhase, &mut cache)
            .unwrap();
        assert_eq!(cache.stats(), (0, 2));
        build(true)
            .expand_cached(HandshakeProtocol::FourPhase, &mut cache)
            .unwrap();
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 1, "untouched tx must hit");
        assert_eq!(misses, 3, "edited rx must re-expand");
    }
}
