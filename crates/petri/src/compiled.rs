//! The compiled firing rule: CSR pre/post deltas + consumer adjacency.
//!
//! [`CompiledNet`] flattens a [`PetriNet`]'s
//! `BTreeSet`-based transition relation into four compressed-sparse-row
//! (CSR) arrays so the exploration hot loop runs on contiguous `u32`
//! slices with zero allocation:
//!
//! * `pre` — the full preset of each transition (the enabling test);
//! * `take` — `preset \ postset`, places a firing decrements;
//! * `give` — `postset \ preset`, places a firing increments
//!   (self-loop places appear in neither, exactly as in Definition 2.2);
//! * `consumers` — the *reverse* adjacency place → transitions with that
//!   place in their preset.
//!
//! The consumer adjacency is what kills the per-state
//! `transition_ids()` scan: a transition can only be enabled if **every**
//! preset place is marked, so collecting the consumer lists of the marked
//! places (plus the always-enabled empty-preset transitions) yields a
//! candidate superset that is typically far smaller than `T`. Candidates
//! are deduplicated with a generation-stamped scratch array and sorted
//! ascending, so the explorer examines transitions in exactly the same
//! order as the legacy `for t in transition_ids()` loop — a requirement
//! for bit-identical graphs and `Meter` accounting.

use crate::alphabet::Sym;
use crate::label::Label;
use crate::net::PetriNet;
use crate::store::MarkingStore;

/// Sentinel token count standing for ω (unbounded) in the Karp–Miller
/// construction. Finite counts are clamped to `OMEGA - 1`, so a plain
/// `>=` on raw words is exactly ω-marking covering.
pub const OMEGA: u32 = u32::MAX;

/// A [`PetriNet`] lowered to flat CSR arrays for exploration.
///
/// Construction is `O(|P| + Σ|preset| + Σ|postset|)`; the compiled form
/// borrows nothing from the source net and is `Send + Sync`, so one
/// compiled copy can be shared across threads (the `cpn-serve` net
/// cache does).
///
/// # Example
///
/// ```
/// use cpn_petri::{CompiledNet, PetriNet};
///
/// # fn main() -> Result<(), cpn_petri::PetriError> {
/// let mut net: PetriNet<&str> = PetriNet::new();
/// let p = net.add_place("p");
/// let q = net.add_place("q");
/// net.add_transition([p], "a", [q])?;
/// net.set_initial(p, 1);
/// let compiled = net.compile();
/// let m = net.initial_marking();
/// assert!(compiled.is_enabled(m.as_slice(), 0));
/// let mut next = Vec::new();
/// compiled.fire_into(m.as_slice(), 0, &mut next);
/// assert_eq!(next, vec![0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CompiledNet {
    places: usize,
    transitions: usize,
    pre_off: Vec<u32>,
    pre: Vec<u32>,
    take_off: Vec<u32>,
    take: Vec<u32>,
    give_off: Vec<u32>,
    give: Vec<u32>,
    cons_off: Vec<u32>,
    cons: Vec<u32>,
    prod_off: Vec<u32>,
    prod: Vec<u32>,
    /// Transitions with an empty preset: enabled in every marking.
    always: Vec<u32>,
    /// Interned label symbol per transition (resolve against the source
    /// net's interner). Lets trace extraction run symbol-only.
    syms: Vec<Sym>,
}

/// Reusable per-worker scratch for candidate deduplication.
///
/// `stamp[t] == gen` marks transition `t` as already collected this
/// round; bumping `gen` clears the set in O(1).
#[derive(Clone, Debug)]
pub struct CandidateScratch {
    stamp: Vec<u32>,
    gen: u32,
}

impl CandidateScratch {
    /// Scratch sized for a net with `transitions` transitions.
    pub fn new(transitions: usize) -> Self {
        CandidateScratch {
            stamp: vec![0; transitions],
            gen: 0,
        }
    }

    fn next_gen(&mut self) -> u32 {
        if self.gen == u32::MAX {
            self.stamp.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
        self.gen
    }
}

/// Reusable scratch for the stubborn-set closure
/// ([`CompiledNet::stubborn_enabled`]): candidate generation, set
/// membership stamps, and the closure worklist.
#[derive(Clone, Debug)]
pub struct StubbornScratch {
    cand: CandidateScratch,
    member: CandidateScratch,
    cands: Vec<u32>,
    work: Vec<u32>,
}

impl StubbornScratch {
    /// Scratch sized for a net with `transitions` transitions.
    pub fn new(transitions: usize) -> Self {
        StubbornScratch {
            cand: CandidateScratch::new(transitions),
            member: CandidateScratch::new(transitions),
            cands: Vec::new(),
            work: Vec::new(),
        }
    }
}

impl CompiledNet {
    /// Number of places (the marking stride).
    pub fn place_count(&self) -> usize {
        self.places
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions
    }

    /// The full preset of transition `t` as place indices (sorted).
    pub fn preset(&self, t: u32) -> &[u32] {
        let (a, b) = (self.pre_off[t as usize], self.pre_off[t as usize + 1]);
        &self.pre[a as usize..b as usize]
    }

    /// Places decremented by firing `t` (`preset \ postset`, sorted).
    pub fn take_set(&self, t: u32) -> &[u32] {
        let (a, b) = (self.take_off[t as usize], self.take_off[t as usize + 1]);
        &self.take[a as usize..b as usize]
    }

    /// Places incremented by firing `t` (`postset \ preset`, sorted).
    pub fn give_set(&self, t: u32) -> &[u32] {
        let (a, b) = (self.give_off[t as usize], self.give_off[t as usize + 1]);
        &self.give[a as usize..b as usize]
    }

    /// The interned label symbol of transition `t`, in the source net's
    /// symbol space.
    #[inline]
    pub fn sym(&self, t: u32) -> Sym {
        self.syms[t as usize]
    }

    /// Transitions with place `p` in their preset (sorted).
    pub fn consumers_of(&self, p: u32) -> &[u32] {
        let (a, b) = (self.cons_off[p as usize], self.cons_off[p as usize + 1]);
        &self.cons[a as usize..b as usize]
    }

    /// Transitions that can **mark** place `p` (sorted): those with `p`
    /// in their give set. Self-loops on `p` are excluded — they need `p`
    /// marked already, so they can never turn an unmarked `p` on. This is
    /// the "necessary enabler" adjacency of the stubborn-set closure.
    pub fn producers_of(&self, p: u32) -> &[u32] {
        let (a, b) = (self.prod_off[p as usize], self.prod_off[p as usize + 1]);
        &self.prod[a as usize..b as usize]
    }

    /// Whether `t` is enabled in the raw marking `m`.
    ///
    /// Works unchanged on ω-markings ([`OMEGA`] is positive).
    #[inline]
    pub fn is_enabled(&self, m: &[u32], t: u32) -> bool {
        self.preset(t).iter().all(|&p| m[p as usize] > 0)
    }

    /// Fires enabled transition `t` in `m`, writing the successor into
    /// `out` (cleared first). The caller guarantees enabledness.
    #[inline]
    pub fn fire_into(&self, m: &[u32], t: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(m);
        for &p in self.take_set(t) {
            debug_assert!(out[p as usize] > 0, "firing a disabled transition");
            out[p as usize] -= 1;
        }
        for &q in self.give_set(t) {
            out[q as usize] = out[q as usize].saturating_add(1);
        }
    }

    /// Fires enabled transition `t` **in place**, returning the updated
    /// content hash of `m` given its prior hash `h` — the zero-copy
    /// O(|take| + |give|) fast path of the sequential explorer.
    ///
    /// The hash is delta-updated per touched place via
    /// [`MarkingStore::entry_hash`], so the result equals
    /// `MarkingStore::hash_slice` of the fired marking without rereading
    /// it. [`CompiledNet::unapply`] reverts the marking exactly (take and
    /// give sets are disjoint by construction, so order is irrelevant).
    /// The caller guarantees enabledness.
    #[inline]
    pub fn apply_hashed(&self, m: &mut [u32], h: u64, t: u32) -> u64 {
        let mut h = h;
        for &p in self.take_set(t) {
            let old = m[p as usize];
            debug_assert!(old > 0, "firing a disabled transition");
            let new = old - 1;
            m[p as usize] = new;
            h = h
                .wrapping_sub(MarkingStore::entry_hash(p as usize, old))
                .wrapping_add(MarkingStore::entry_hash(p as usize, new));
        }
        for &q in self.give_set(t) {
            let old = m[q as usize];
            let new = old.wrapping_add(1);
            m[q as usize] = new;
            h = h
                .wrapping_sub(MarkingStore::entry_hash(q as usize, old))
                .wrapping_add(MarkingStore::entry_hash(q as usize, new));
        }
        h
    }

    /// Reverts an [`CompiledNet::apply_hashed`] of the same transition,
    /// restoring `m` to the pre-firing marking.
    #[inline]
    pub fn unapply(&self, m: &mut [u32], t: u32) {
        for &p in self.take_set(t) {
            m[p as usize] += 1;
        }
        for &q in self.give_set(t) {
            m[q as usize] = m[q as usize].wrapping_sub(1);
        }
    }

    /// ω-aware firing for the Karp–Miller construction: [`OMEGA`]
    /// components are absorbing, finite components clamp at `OMEGA - 1`
    /// so they never accidentally *become* ω by arithmetic.
    #[inline]
    pub fn fire_omega_into(&self, m: &[u32], t: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(m);
        for &p in self.take_set(t) {
            let w = out[p as usize];
            if w != OMEGA {
                debug_assert!(w > 0, "firing a disabled transition");
                out[p as usize] = w - 1;
            }
        }
        for &q in self.give_set(t) {
            let w = out[q as usize];
            if w != OMEGA {
                out[q as usize] = if w >= OMEGA - 1 { OMEGA - 1 } else { w + 1 };
            }
        }
    }

    /// Collects the candidate transitions of marking `m` into `out`:
    /// every empty-preset transition plus every consumer of a marked
    /// place, deduplicated and sorted ascending.
    ///
    /// The result is a superset of the enabled set (a candidate may have
    /// other, unmarked preset places) and a subset of all transitions;
    /// callers re-test with [`CompiledNet::is_enabled`]. Ascending order
    /// matches the legacy full scan, which bit-identical exploration
    /// relies on.
    pub fn enabled_candidates(
        &self,
        m: &[u32],
        scratch: &mut CandidateScratch,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        out.extend_from_slice(&self.always);
        let gen = scratch.next_gen();
        for (p, &w) in m.iter().enumerate() {
            if w == 0 {
                continue;
            }
            for &t in self.consumers_of(p as u32) {
                if scratch.stamp[t as usize] != gen {
                    scratch.stamp[t as usize] = gen;
                    out.push(t);
                }
            }
        }
        out.sort_unstable();
    }

    /// Computes a **stubborn set** at marking `m` and writes its enabled
    /// members into `out`, ascending. Firing only these (instead of the
    /// full enabled set) at every marking still reaches **every deadlock**
    /// of the net, and — when `seeds` is closed over the transitions
    /// adjacent to a watched place set — every reachable valuation of the
    /// watched places (the attractor-set reachability argument).
    ///
    /// The closure is the classic strong-stubborn construction,
    /// deterministic by choosing least indices everywhere:
    ///
    /// * the set is seeded with `seeds` plus the smallest enabled
    ///   transition;
    /// * an **enabled** member pulls in every transition sharing one of
    ///   its preset places (the conflict set via [`consumers_of`]);
    /// * a **disabled** member picks its smallest unmarked preset place as
    ///   scapegoat and pulls in that place's net producers
    ///   ([`producers_of`]) — the transitions that must fire before it can
    ///   become enabled.
    ///
    /// An empty `out` means `m` is a deadlock (no transition enabled at
    /// all); the set otherwise always contains at least one enabled
    /// transition. The language and non-deadlock state set of the reduced
    /// graph are generally **smaller** than the full graph's — callers
    /// needing those must explore unreduced.
    ///
    /// [`consumers_of`]: CompiledNet::consumers_of
    /// [`producers_of`]: CompiledNet::producers_of
    pub fn stubborn_enabled(
        &self,
        m: &[u32],
        seeds: &[u32],
        scratch: &mut StubbornScratch,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let StubbornScratch {
            cand,
            member,
            cands,
            work,
        } = scratch;
        self.enabled_candidates(m, cand, cands);
        let Some(&seed0) = cands.iter().find(|&&t| self.is_enabled(m, t)) else {
            return; // Deadlock: the empty set is trivially stubborn.
        };
        let gen = member.next_gen();
        work.clear();
        for &t in seeds.iter().chain(std::iter::once(&seed0)) {
            if member.stamp[t as usize] != gen {
                member.stamp[t as usize] = gen;
                work.push(t);
            }
        }
        let mut i = 0;
        while i < work.len() {
            let t = work[i];
            i += 1;
            if self.is_enabled(m, t) {
                for &p in self.preset(t) {
                    for &t2 in self.consumers_of(p) {
                        if member.stamp[t2 as usize] != gen {
                            member.stamp[t2 as usize] = gen;
                            work.push(t2);
                        }
                    }
                }
            } else if let Some(&p) = self.preset(t).iter().find(|&&p| m[p as usize] == 0) {
                for &t2 in self.producers_of(p) {
                    if member.stamp[t2 as usize] != gen {
                        member.stamp[t2 as usize] = gen;
                        work.push(t2);
                    }
                }
            }
        }
        // Enabled ∩ stubborn, in ascending order (candidates are sorted).
        for &t in cands.iter() {
            if member.stamp[t as usize] == gen && self.is_enabled(m, t) {
                out.push(t);
            }
        }
    }
}

impl<L: Label> PetriNet<L> {
    /// Lowers the net to its [`CompiledNet`] CSR form.
    pub fn compile(&self) -> CompiledNet {
        let places = self.place_count();
        let transitions = self.transition_count();
        let mut pre_off = Vec::with_capacity(transitions + 1);
        let mut pre = Vec::new();
        let mut take_off = Vec::with_capacity(transitions + 1);
        let mut take = Vec::new();
        let mut give_off = Vec::with_capacity(transitions + 1);
        let mut give = Vec::new();
        let mut always = Vec::new();
        pre_off.push(0);
        take_off.push(0);
        give_off.push(0);
        let mut cons_count = vec![0u32; places];
        for (id, tr) in self.transitions() {
            if tr.preset().is_empty() {
                always.push(id.index() as u32);
            }
            for &p in tr.preset() {
                pre.push(p.index() as u32);
                cons_count[p.index()] += 1;
                if !tr.postset().contains(&p) {
                    take.push(p.index() as u32);
                }
            }
            for &q in tr.postset() {
                if !tr.preset().contains(&q) {
                    give.push(q.index() as u32);
                }
            }
            pre_off.push(pre.len() as u32);
            take_off.push(take.len() as u32);
            give_off.push(give.len() as u32);
        }
        // Prefix-sum the consumer counts into CSR offsets, then fill by a
        // second pass (transitions in ascending order keeps each
        // consumer list sorted).
        let mut cons_off = Vec::with_capacity(places + 1);
        let mut acc = 0u32;
        cons_off.push(0);
        for &c in &cons_count {
            acc += c;
            cons_off.push(acc);
        }
        let mut cursor: Vec<u32> = cons_off[..places].to_vec();
        let mut cons = vec![0u32; acc as usize];
        for (id, tr) in self.transitions() {
            for &p in tr.preset() {
                cons[cursor[p.index()] as usize] = id.index() as u32;
                cursor[p.index()] += 1;
            }
        }
        // Same trick for the producer adjacency, sourced from the give
        // sets so self-loop places don't list their own observers.
        let mut prod_count = vec![0u32; places];
        for &q in &give {
            prod_count[q as usize] += 1;
        }
        let mut prod_off = Vec::with_capacity(places + 1);
        let mut acc = 0u32;
        prod_off.push(0);
        for &c in &prod_count {
            acc += c;
            prod_off.push(acc);
        }
        let mut cursor: Vec<u32> = prod_off[..places].to_vec();
        let mut prod = vec![0u32; acc as usize];
        for t in 0..transitions {
            let (a, b) = (give_off[t] as usize, give_off[t + 1] as usize);
            for &q in &give[a..b] {
                prod[cursor[q as usize] as usize] = t as u32;
                cursor[q as usize] += 1;
            }
        }
        CompiledNet {
            places,
            transitions,
            pre_off,
            pre,
            take_off,
            take,
            give_off,
            give,
            cons_off,
            cons,
            prod_off,
            prod,
            always,
            syms: self.transitions().map(|(_, tr)| tr.sym()).collect(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::marking::Marking;

    fn fig_like() -> PetriNet<&'static str> {
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let pa = net.add_place("pa");
        let pb = net.add_place("pb");
        let end = net.add_place("end");
        net.add_transition([p0], "fork", [pa, pb]).unwrap();
        net.add_transition([pa], "a", [end]).unwrap();
        net.add_transition([pb], "b", [end]).unwrap();
        net.add_transition([pa, pb], "both", [end]).unwrap();
        net.set_initial(p0, 1);
        net
    }

    #[test]
    fn compiled_matches_interpreter_on_enabling_and_firing() {
        let net = fig_like();
        let c = net.compile();
        let mut worklist = vec![net.initial_marking()];
        let mut seen = vec![net.initial_marking()];
        let mut out = Vec::new();
        while let Some(m) = worklist.pop() {
            for t in net.transition_ids() {
                let ti = t.index() as u32;
                assert_eq!(net.is_enabled(&m, t), c.is_enabled(m.as_slice(), ti));
                if net.is_enabled(&m, t) {
                    let fired = net.fire(&m, t).unwrap();
                    c.fire_into(m.as_slice(), ti, &mut out);
                    assert_eq!(fired.as_slice(), out.as_slice());
                    let fired_m = Marking::from_counts(out.clone());
                    if !seen.contains(&fired_m) {
                        seen.push(fired_m.clone());
                        worklist.push(fired_m);
                    }
                }
            }
        }
        assert!(seen.len() >= 4);
    }

    #[test]
    fn candidates_cover_enabled_set_in_ascending_order() {
        let net = fig_like();
        let c = net.compile();
        let mut scratch = CandidateScratch::new(c.transition_count());
        let mut cands = Vec::new();
        for m in [
            Marking::from_counts(vec![1, 0, 0, 0]),
            Marking::from_counts(vec![0, 1, 1, 0]),
            Marking::from_counts(vec![0, 0, 1, 2]),
        ] {
            c.enabled_candidates(m.as_slice(), &mut scratch, &mut cands);
            let mut sorted = cands.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(cands, sorted, "sorted and deduplicated");
            let enabled: Vec<u32> = net
                .enabled_transitions(&m)
                .iter()
                .map(|t| t.index() as u32)
                .collect();
            for t in &enabled {
                assert!(cands.contains(t), "enabled {t} missing from candidates");
            }
        }
    }

    #[test]
    fn self_loop_places_are_neither_taken_nor_given() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let t = net.add_transition([p], "a", [p, q]).unwrap();
        net.set_initial(p, 1);
        let c = net.compile();
        assert_eq!(c.take_set(t.index() as u32), &[] as &[u32]);
        assert_eq!(c.give_set(t.index() as u32), &[q.index() as u32]);
        let mut out = Vec::new();
        c.fire_into(&[1, 0], 0, &mut out);
        assert_eq!(out, vec![1, 1]);
    }

    #[test]
    fn omega_firing_is_absorbing_and_clamped() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        let c = net.compile();
        let mut out = Vec::new();
        c.fire_omega_into(&[OMEGA, 5], 0, &mut out);
        assert_eq!(out, vec![OMEGA, 6], "omega preset is not decremented");
        c.fire_omega_into(&[3, OMEGA], 0, &mut out);
        assert_eq!(out, vec![2, OMEGA], "omega postset is not incremented");
        c.fire_omega_into(&[1, OMEGA - 1], 0, &mut out);
        assert_eq!(out, vec![0, OMEGA - 1], "finite counts clamp below omega");
    }

    #[test]
    fn producer_adjacency_excludes_self_loops() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.add_transition([p], "a", [q]).unwrap();
        net.add_transition([q], "b", [p, q]).unwrap(); // self-loop on q
        let c = net.compile();
        assert_eq!(c.producers_of(p.index() as u32), &[1]);
        // "b" keeps q marked but cannot mark an unmarked q.
        assert_eq!(c.producers_of(q.index() as u32), &[0]);
    }

    #[test]
    fn stubborn_set_separates_independent_components() {
        // Two disjoint 2-cycles: at any marking only one component's
        // transition should be selected.
        let mut net: PetriNet<&str> = PetriNet::new();
        let a0 = net.add_place("a0");
        let a1 = net.add_place("a1");
        let b0 = net.add_place("b0");
        let b1 = net.add_place("b1");
        net.add_transition([a0], "fwd_a", [a1]).unwrap();
        net.add_transition([a1], "bck_a", [a0]).unwrap();
        net.add_transition([b0], "fwd_b", [b1]).unwrap();
        net.add_transition([b1], "bck_b", [b0]).unwrap();
        net.set_initial(a0, 1);
        net.set_initial(b0, 1);
        let c = net.compile();
        let mut scratch = StubbornScratch::new(c.transition_count());
        let mut out = Vec::new();
        c.stubborn_enabled(&[1, 0, 1, 0], &[], &mut scratch, &mut out);
        assert_eq!(out, vec![0], "only the first component is explored");
        // Seeding the other component forces it into the set.
        c.stubborn_enabled(&[1, 0, 1, 0], &[2], &mut scratch, &mut out);
        assert_eq!(out, vec![0, 2]);
        // A deadlock marking yields the empty set.
        c.stubborn_enabled(&[0, 0, 0, 0], &[], &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stubborn_set_closes_conflicts() {
        // fork puts tokens in pa and pb; a, b, and both all contend.
        let net = fig_like();
        let c = net.compile();
        let mut scratch = StubbornScratch::new(c.transition_count());
        let mut out = Vec::new();
        // pa and pb marked: "a" conflicts with "both" via pa, and "both"
        // conflicts with "b" via pb — all three must be in the set.
        c.stubborn_enabled(&[0, 1, 1, 0], &[], &mut scratch, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn consumer_adjacency_matches_net_consumers() {
        let net = fig_like();
        let c = net.compile();
        for p in net.place_ids() {
            let expect: Vec<u32> = net.consumers(p).iter().map(|t| t.index() as u32).collect();
            assert_eq!(c.consumers_of(p.index() as u32), expect.as_slice());
        }
    }
}
