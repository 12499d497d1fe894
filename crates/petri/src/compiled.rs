//! The compiled firing rule: CSR pre/post deltas, consumer adjacency and
//! bitmap enabling.
//!
//! [`CompiledNet`] flattens a [`PetriNet`]'s
//! `BTreeSet`-based transition relation into compressed-sparse-row
//! (CSR) arrays so the exploration hot loop runs on contiguous slices
//! with zero allocation:
//!
//! * `pre` — the full preset of each transition;
//! * `take` — `preset \ postset`, places a firing decrements;
//! * `give` — `postset \ preset`, places a firing increments
//!   (self-loop places appear in neither, exactly as in Definition 2.2);
//! * `consumers` / `producers` — the place → transition adjacencies of
//!   the stubborn-set closure.
//!
//! Enabling reads a marking's **occupancy bitmap** (bit `p` of word
//! `p / 64` set iff place `p` is marked): a transition is enabled iff
//! its preset mask is contained in it. On the one-bit packed rows of a
//! safe net's reachability graph the row *is* that bitmap.
//! The candidates of a marking are the consumers of its marked places
//! plus the empty-preset transitions; they are ORed into a transition
//! bitmap and read back in ascending order, so every explorer examines
//! transitions in the order of a full `for t in transition_ids()` scan —
//! a requirement for bit-identical graphs and `Meter` accounting.

use crate::alphabet::Sym;
use crate::error::PetriError;
use crate::label::Label;
use crate::net::{PetriNet, PlaceId};

/// Sentinel token count standing for ω (unbounded) in the Karp–Miller
/// construction. Finite counts are clamped to `OMEGA - 1`, so a plain
/// `>=` on raw words is exactly ω-marking covering.
pub const OMEGA: u32 = u32::MAX;

/// Whether every `(word, bits)` pair of a mask is set in `bitmap`.
#[inline]
fn mask_within(mask: &[(u32, u64)], bitmap: &[u64]) -> bool {
    mask.iter()
        .all(|&(w, bits)| bitmap[w as usize] & bits == bits)
}

/// Appends the ascending `members` to `pairs` as `(word, bits)` pairs,
/// one pair per word touched.
fn push_mask(pairs: &mut Vec<(u32, u64)>, members: impl IntoIterator<Item = u32>) {
    let start = pairs.len();
    for m in members {
        let (w, bit) = (m / 64, 1u64 << (m % 64));
        match pairs[start..].last_mut() {
            Some((last, bits)) if *last == w => *bits |= bit,
            _ => pairs.push((w, bit)),
        }
    }
}

/// Sets of small integers, one per row, as CSR runs of `(word, bits)`
/// pairs over a bitmap.
#[derive(Clone, Debug)]
struct MaskRows {
    off: Vec<u32>,
    pairs: Vec<(u32, u64)>,
}

impl MaskRows {
    /// Empty, with room for `rows` rows of about `pairs` pairs in all.
    fn with_capacity(rows: usize, pairs: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        MaskRows {
            off,
            pairs: Vec::with_capacity(pairs),
        }
    }

    /// Appends a row from its members in ascending order.
    fn push(&mut self, members: impl IntoIterator<Item = u32>) {
        push_mask(&mut self.pairs, members);
        self.off.push(self.pairs.len() as u32);
    }

    #[inline]
    fn row(&self, i: usize) -> &[(u32, u64)] {
        &self.pairs[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// A set of places as a mask over occupancy bitmaps: the compiled form
/// of a conjunction "all these places are marked".
///
/// # Example
///
/// ```
/// use cpn_petri::{PlaceId, PlaceMask};
///
/// let mask = PlaceMask::new([PlaceId::from_index(1), PlaceId::from_index(70)]);
/// assert!(mask.all_marked(&[0b10, 1 << 6]));
/// assert!(!mask.all_marked(&[0b10, 0]));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlaceMask {
    pairs: Vec<(u32, u64)>,
}

impl PlaceMask {
    /// The mask of a place set (any order, duplicates allowed).
    pub fn new(places: impl IntoIterator<Item = PlaceId>) -> Self {
        let mut ids: Vec<u32> = places.into_iter().map(|p| p.index() as u32).collect();
        ids.sort_unstable();
        let mut pairs = Vec::new();
        push_mask(&mut pairs, ids);
        PlaceMask { pairs }
    }

    /// Whether every place of the mask is marked in the occupancy bitmap
    /// `occ` (vacuously true for the empty set).
    #[inline]
    pub fn all_marked(&self, occ: &[u64]) -> bool {
        mask_within(&self.pairs, occ)
    }
}

/// A [`PetriNet`] lowered to flat CSR arrays and bitmap masks for
/// exploration.
///
/// Construction is `O(|P| + |T| + Σ|preset| + Σ|postset|)`; the compiled
/// form borrows nothing from the source net and is `Send + Sync`, so one
/// compiled copy can be shared across threads (the `cpn-serve` net cache
/// does).
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
/// let mut occ = Vec::new();
/// compiled.occupancy_into(m.as_slice(), &mut occ);
/// assert!(compiled.is_enabled(&occ, 0));
/// let mut next = Vec::new();
/// compiled.fire_into(m.as_slice(), 0, &mut next)?;
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
    /// Preset of each transition as a mask over place occupancy.
    pre_mask: MaskRows,
    /// Consumers of each place as a mask over transitions.
    cons_mask: MaskRows,
    /// Transitions with an empty preset (enabled in every marking), as a
    /// mask over transitions.
    always: Vec<(u32, u64)>,
    /// Interned label symbol per transition (resolve against the source
    /// net's interner). Lets trace extraction run symbol-only.
    syms: Vec<Sym>,
}

/// Reusable scratch of the enabling API: the candidate transition
/// bitmap, and the membership bitmap, worklist and enabled set of the
/// stubborn-set closure. Starts empty and sizes itself on first use.
#[derive(Clone, Debug, Default)]
pub struct EnableScratch {
    cands: Vec<u64>,
    member: Vec<u64>,
    work: Vec<u32>,
    enabled: Vec<u32>,
}

/// Sets bit `t` of `bits`; returns whether it was clear.
#[inline]
fn insert_bit(bits: &mut [u64], t: u32) -> bool {
    let (w, bit) = ((t / 64) as usize, 1u64 << (t % 64));
    let fresh = bits[w] & bit == 0;
    bits[w] |= bit;
    fresh
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
    #[inline]
    pub fn take_set(&self, t: u32) -> &[u32] {
        let (a, b) = (self.take_off[t as usize], self.take_off[t as usize + 1]);
        &self.take[a as usize..b as usize]
    }

    /// Places incremented by firing `t` (`postset \ preset`, sorted).
    #[inline]
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

    /// Writes the occupancy bitmap of the per-place counts `m` into
    /// `occ`: bit `p` of word `p / 64` is set iff `m[p] > 0` (ω counts
    /// as marked).
    pub fn occupancy_into(&self, m: &[u32], occ: &mut Vec<u64>) {
        debug_assert_eq!(m.len(), self.places, "marking over different net");
        occ.clear();
        occ.resize(self.places.div_ceil(64), 0);
        for (p, &count) in m.iter().enumerate() {
            if count > 0 {
                occ[p / 64] |= 1 << (p % 64);
            }
        }
    }

    /// Whether `t` is enabled in the marking whose occupancy bitmap is
    /// `occ`: its preset mask is contained in the bitmap.
    #[inline]
    pub fn is_enabled(&self, occ: &[u64], t: u32) -> bool {
        mask_within(self.pre_mask.row(t as usize), occ)
    }

    /// Writes the transitions enabled under the occupancy bitmap `occ`
    /// into `out`, ascending.
    ///
    /// Only candidates are tested: the consumers of the marked places
    /// plus the empty-preset transitions, collected in a transition
    /// bitmap and read back in ascending order — the order of a full
    /// scan over all transitions, which bit-identical exploration relies
    /// on.
    pub fn enabled_into(&self, occ: &[u64], scratch: &mut EnableScratch, out: &mut Vec<u32>) {
        self.collect_enabled(occ, &mut scratch.cands, out);
    }

    #[inline]
    fn collect_enabled(&self, occ: &[u64], cands: &mut Vec<u64>, out: &mut Vec<u32>) {
        out.clear();
        cands.clear();
        cands.resize(self.transitions.div_ceil(64), 0);
        for &(w, bits) in &self.always {
            cands[w as usize] |= bits;
        }
        for (wi, &word) in occ.iter().enumerate() {
            let mut marked = word;
            while marked != 0 {
                let p = wi * 64 + marked.trailing_zeros() as usize;
                marked &= marked - 1;
                for &(w, bits) in self.cons_mask.row(p) {
                    cands[w as usize] |= bits;
                }
            }
        }
        for (wi, &word) in cands.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let t = (wi * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                if self.is_enabled(occ, t) {
                    out.push(t);
                }
            }
        }
    }

    /// Fires enabled transition `t` in the per-place counts `m`, writing
    /// the successor into `out` (cleared first). The caller guarantees
    /// enabledness.
    ///
    /// # Errors
    ///
    /// [`PetriError::TokenOverflow`] when a place `t` gives to already
    /// holds `u32::MAX` tokens; `out` is then unspecified.
    #[inline]
    pub fn fire_into(&self, m: &[u32], t: u32, out: &mut Vec<u32>) -> Result<(), PetriError> {
        out.clear();
        out.extend_from_slice(m);
        for &p in self.take_set(t) {
            debug_assert!(out[p as usize] > 0, "firing a disabled transition");
            out[p as usize] -= 1;
        }
        for &q in self.give_set(t) {
            out[q as usize] = out[q as usize]
                .checked_add(1)
                .ok_or(PetriError::TokenOverflow { place: q })?;
        }
        Ok(())
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

    /// Computes a **stubborn set** at the marking whose occupancy bitmap
    /// is `occ` and writes its enabled members into `out`, ascending.
    /// Firing only these (instead of the full enabled set) at every
    /// marking still reaches **every deadlock** of the net, and — when
    /// `seeds` is closed over the transitions adjacent to a watched place
    /// set — every reachable valuation of the watched places (the
    /// attractor-set reachability argument).
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
    /// An empty `out` means the marking is a deadlock (no transition
    /// enabled at all); the set otherwise always contains at least one
    /// enabled transition. The language and non-deadlock state set of the
    /// reduced graph are generally **smaller** than the full graph's —
    /// callers needing those must explore unreduced.
    ///
    /// [`consumers_of`]: CompiledNet::consumers_of
    /// [`producers_of`]: CompiledNet::producers_of
    pub fn stubborn_enabled(
        &self,
        occ: &[u64],
        seeds: &[u32],
        scratch: &mut EnableScratch,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let EnableScratch {
            cands,
            member,
            work,
            enabled,
        } = scratch;
        self.collect_enabled(occ, cands, enabled);
        let Some(&seed0) = enabled.first() else {
            return; // Deadlock: the empty set is trivially stubborn.
        };
        member.clear();
        member.resize(self.transitions.div_ceil(64), 0);
        work.clear();
        for &t in seeds.iter().chain(std::iter::once(&seed0)) {
            if insert_bit(member, t) {
                work.push(t);
            }
        }
        let marked = |p: u32| occ[(p / 64) as usize] >> (p % 64) & 1 == 1;
        let mut i = 0;
        while i < work.len() {
            let t = work[i];
            i += 1;
            if self.is_enabled(occ, t) {
                for &p in self.preset(t) {
                    for &t2 in self.consumers_of(p) {
                        if insert_bit(member, t2) {
                            work.push(t2);
                        }
                    }
                }
            } else if let Some(&p) = self.preset(t).iter().find(|&&p| !marked(p)) {
                for &t2 in self.producers_of(p) {
                    if insert_bit(member, t2) {
                        work.push(t2);
                    }
                }
            }
        }
        // Enabled ∩ stubborn, in ascending order.
        out.extend(
            enabled
                .iter()
                .copied()
                .filter(|&t| member[(t / 64) as usize] >> (t % 64) & 1 == 1),
        );
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
                push_mask(&mut always, [id.index() as u32]);
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
        let mut pre_mask = MaskRows::with_capacity(transitions, pre.len());
        for t in 0..transitions {
            pre_mask.push(
                pre[pre_off[t] as usize..pre_off[t + 1] as usize]
                    .iter()
                    .copied(),
            );
        }
        let mut cons_mask = MaskRows::with_capacity(places, cons.len());
        for p in 0..places {
            cons_mask.push(
                cons[cons_off[p] as usize..cons_off[p + 1] as usize]
                    .iter()
                    .copied(),
            );
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
            pre_mask,
            cons_mask,
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
        let mut occ = Vec::new();
        while let Some(m) = worklist.pop() {
            c.occupancy_into(m.as_slice(), &mut occ);
            for t in net.transition_ids() {
                let ti = t.index() as u32;
                assert_eq!(net.is_enabled(&m, t), c.is_enabled(&occ, ti));
                if net.is_enabled(&m, t) {
                    let fired = net.fire(&m, t).unwrap();
                    c.fire_into(m.as_slice(), ti, &mut out).unwrap();
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
        let mut scratch = EnableScratch::default();
        let mut occ = Vec::new();
        let mut enabled = Vec::new();
        for m in [
            Marking::from_counts(vec![1, 0, 0, 0]),
            Marking::from_counts(vec![0, 1, 1, 0]),
            Marking::from_counts(vec![0, 0, 1, 2]),
            Marking::from_counts(vec![0, 0, 0, 0]),
        ] {
            c.occupancy_into(m.as_slice(), &mut occ);
            c.enabled_into(&occ, &mut scratch, &mut enabled);
            let want: Vec<u32> = net
                .enabled_transitions(&m)
                .iter()
                .map(|t| t.index() as u32)
                .collect();
            assert_eq!(enabled, want, "enabled set of {m}, ascending");
        }
    }

    #[test]
    fn bitmap_enabling_spans_words() {
        // 70 places and 70 transitions: both bitmaps take two words.
        // Transition i moves a token from place i to place (i + 1) % 70;
        // transition 69 also needs place 0; an extra source feeds 65.
        let mut net: PetriNet<&str> = PetriNet::new();
        let ps: Vec<_> = (0..70).map(|_| net.add_place("p")).collect();
        for i in 0..69 {
            net.add_transition([ps[i]], "t", [ps[i + 1]]).unwrap();
        }
        net.add_transition([ps[69], ps[0]], "wrap", [ps[1]])
            .unwrap();
        net.add_transition([], "src", [ps[65]]).unwrap();
        let c = net.compile();
        let mut scratch = EnableScratch::default();
        let (mut occ, mut enabled) = (Vec::new(), Vec::new());
        let mut counts = vec![0u32; 70];
        for p in [0, 63, 64, 69] {
            counts[p] = 1;
        }
        c.occupancy_into(&counts, &mut occ);
        assert_eq!(occ, vec![1 | 1 << 63, 1 | 1 << 5]);
        c.enabled_into(&occ, &mut scratch, &mut enabled);
        assert_eq!(enabled, vec![0, 63, 64, 69, 70]);
        counts[0] = 0;
        c.occupancy_into(&counts, &mut occ);
        c.enabled_into(&occ, &mut scratch, &mut enabled);
        assert_eq!(enabled, vec![63, 64, 70], "wrap needs place 0");
    }

    #[test]
    fn place_mask_tests_every_member() {
        let mask = PlaceMask::new([PlaceId::from_index(64), PlaceId::from_index(3)]);
        assert!(mask.all_marked(&[1 << 3, 1]));
        assert!(!mask.all_marked(&[1 << 3, 2]));
        assert!(!mask.all_marked(&[0, 1]));
        assert!(PlaceMask::default().all_marked(&[]));
    }

    #[test]
    fn fire_into_reports_token_overflow() {
        let mut net: PetriNet<&str> = PetriNet::new();
        let p = net.add_place("p");
        net.add_transition([], "src", [p]).unwrap();
        let c = net.compile();
        let mut out = Vec::new();
        c.fire_into(&[u32::MAX - 1], 0, &mut out).unwrap();
        assert_eq!(out, vec![u32::MAX]);
        assert_eq!(
            c.fire_into(&[u32::MAX], 0, &mut out),
            Err(PetriError::TokenOverflow { place: 0 })
        );
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
        c.fire_into(&[1, 0], 0, &mut out).unwrap();
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
        let mut scratch = EnableScratch::default();
        let mut out = Vec::new();
        let occ = |m: &[u32]| {
            let mut occ = Vec::new();
            c.occupancy_into(m, &mut occ);
            occ
        };
        c.stubborn_enabled(&occ(&[1, 0, 1, 0]), &[], &mut scratch, &mut out);
        assert_eq!(out, vec![0], "only the first component is explored");
        // Seeding the other component forces it into the set.
        c.stubborn_enabled(&occ(&[1, 0, 1, 0]), &[2], &mut scratch, &mut out);
        assert_eq!(out, vec![0, 2]);
        // A deadlock marking yields the empty set.
        c.stubborn_enabled(&occ(&[0, 0, 0, 0]), &[], &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stubborn_set_closes_conflicts() {
        // fork puts tokens in pa and pb; a, b, and both all contend.
        let net = fig_like();
        let c = net.compile();
        let mut scratch = EnableScratch::default();
        let mut out = Vec::new();
        let mut occ = Vec::new();
        c.occupancy_into(&[0, 1, 1, 0], &mut occ);
        // pa and pb marked: "a" conflicts with "both" via pa, and "both"
        // conflicts with "b" via pb — all three must be in the set.
        c.stubborn_enabled(&occ, &[], &mut scratch, &mut out);
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
