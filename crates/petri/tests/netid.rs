//! Property tests: `NetId` is a *sound* structural identity.
//!
//! The canonical form (and therefore the 128-bit `NetId` hashed from
//! it) must be invariant under everything that does not change the
//! net-as-structure — place numbering, place names, transition
//! insertion order, interner history, formatting — and must *change*
//! whenever the structure changes (markings, arcs, labels, declared
//! alphabet). The suite drives randomly generated nets, including
//! non-safe markings and non-ASCII labels, through scrambled rebuilds
//! and asserts both directions:
//!
//! * **invariance** — a scrambled rebuild has the identical canonical
//!   byte string (stronger than id equality: no hashing involved);
//! * **soundness** — whenever two nets share a `NetId`, their
//!   canonical forms are byte-identical (hash-equal ⟹
//!   canonical-form-equal; an FNV-128 collision would fail here);
//! * **sensitivity** — structural mutations (token bumps, dropped
//!   transitions, alphabet growth) produce different ids.
//!
//! * **oracle agreement** — on nets built to tie (few labels, copied
//!   components, twin places, duplicate transitions, self-loops), the
//!   canonical bytes and order equal those of the full-refinement
//!   reference canonicalizer in `cpn_testkit::oracle`, and `NetId` is
//!   the FNV-1a-128 hash of the reference bytes.
//!
//! Driven by the deterministic `cpn-testkit` harness: failures print a
//! case seed, replayable via `CPN_TESTKIT_SEED=<seed>`.

use cpn_petri::hash::fnv1a_128;
use cpn_petri::{canonical_form, canonical_order, NetId, PetriNet, PlaceId};
use cpn_testkit::{
    check, oracle, prop_assert, prop_assert_eq, NetStrategy, PropResult, RawNet, RawTransition,
    Strategy, TestRng,
};
use std::collections::BTreeSet;

/// Random nets: up to 6 places, up to 6 transitions over 3 label
/// indices (so labels are *shared* between transitions, exercising the
/// refinement rounds), up to **three** tokens per place so multiset
/// (non-safe) markings are covered.
fn raw_net() -> NetStrategy {
    NetStrategy::new(6, 6, 3).max_tokens(3)
}

/// A raw net plus a scramble seed deciding how the rebuild is
/// reordered. Shrinks through the net only (any seed must pass).
#[derive(Clone, Debug)]
struct ScrambledCase {
    net: NetStrategy,
}

impl Strategy for ScrambledCase {
    type Value = (RawNet, u64);

    fn generate(&self, rng: &mut TestRng) -> (RawNet, u64) {
        let raw = self.net.generate(rng);
        let seed = rng.gen_range(0..1 << 30) as u64;
        (raw, seed)
    }

    fn shrink(&self, (raw, seed): &(RawNet, u64)) -> Vec<(RawNet, u64)> {
        self.net
            .shrink(raw)
            .into_iter()
            .map(|r| (r, *seed))
            .collect()
    }
}

fn scrambled() -> ScrambledCase {
    ScrambledCase { net: raw_net() }
}

/// Mixed-script, combining-character, non-ASCII labels: canonical
/// ordering must sort by `Ord` on the label value, never on interner
/// numbering or byte length assumptions.
fn unicode_label(l: usize) -> String {
    const POOL: [&str; 6] = ["τ", "信号", "réq", "ack̈", "ε·µ", "Ω"];
    format!("{}{}", POOL[l % POOL.len()], l)
}

/// Builds `raw` in the reference order: places `0..n`, transitions in
/// declaration order, fresh interner.
fn build_reference(raw: &RawNet, label: impl Fn(usize) -> String) -> PetriNet<String> {
    raw.build_with(|_, l| label(l))
}

/// Builds the *same* net as [`build_reference`] with everything
/// non-structural scrambled by `seed`: places added in a permuted
/// order under different names, transitions inserted in a rotated
/// order, and the interner pre-seeded with labels in reverse `Ord`
/// order (so every `Sym` differs from the reference build).
fn build_scrambled(raw: &RawNet, seed: u64, label: impl Fn(usize) -> String) -> PetriNet<String> {
    let mut rng = TestRng::seed_from_u64(seed);
    let n = raw.places;

    // Fisher–Yates permutation of place insertion order.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }

    let mut net: PetriNet<String> = PetriNet::new();

    // Reverse-Ord interner pre-seeding: interning is not declaring, so
    // this changes Sym numbering without touching the alphabet.
    let labels: BTreeSet<String> = raw.transitions.iter().map(|t| label(t.label)).collect();
    for l in labels.iter().rev() {
        net.intern_label(l);
    }

    // Places in permuted order, with scrambled names; remember where
    // each reference index landed.
    let mut ids = vec![PlaceId::from_index(0); n];
    for (pos, &i) in order.iter().enumerate() {
        ids[i] = net.add_place(format!("scrambled_{seed}_{pos}"));
    }

    // Transitions in rotated order.
    let k = raw.transitions.len();
    let rot = if k == 0 { 0 } else { rng.gen_range(0..k) };
    for off in 0..k {
        let t = &raw.transitions[(off + rot) % k];
        let pre: BTreeSet<PlaceId> = t.pre.iter().map(|&x| ids[x]).collect();
        let post: BTreeSet<PlaceId> = t.post.iter().map(|&x| ids[x]).collect();
        net.add_transition(pre, label(t.label), post)
            .expect("scrambled transition is valid");
    }

    let mut any_marked = false;
    for (i, &m) in raw.marking.iter().enumerate() {
        if m > 0 {
            net.set_initial(ids[i], m);
            any_marked = true;
        }
    }
    if !any_marked {
        // Mirror RawNet::build_with's fallback token on reference
        // place 0 (NOT insertion position 0).
        net.set_initial(ids[0], 1);
    }

    net
}

#[test]
fn canonical_form_is_invariant_under_scrambling() {
    check(
        "canonical_form_is_invariant_under_scrambling",
        &scrambled(),
        |(raw, seed)| {
            let reference = build_reference(raw, |l| format!("t{l}"));
            let rebuilt = build_scrambled(raw, *seed, |l| format!("t{l}"));
            prop_assert_eq!(
                canonical_form(&reference),
                canonical_form(&rebuilt),
                "canonical bytes differ between reference and scrambled build"
            );
            prop_assert_eq!(reference.net_id(), rebuilt.net_id(), "NetId differs");
            Ok(())
        },
    );
}

#[test]
fn canonical_form_is_invariant_with_unicode_labels() {
    check(
        "canonical_form_is_invariant_with_unicode_labels",
        &scrambled(),
        |(raw, seed)| {
            let reference = build_reference(raw, unicode_label);
            let rebuilt = build_scrambled(raw, *seed, unicode_label);
            prop_assert_eq!(
                canonical_form(&reference),
                canonical_form(&rebuilt),
                "canonical bytes differ under non-ASCII labels"
            );
            prop_assert_eq!(reference.net_id(), rebuilt.net_id());
            // And the labels must actually matter: swapping the label
            // map to ASCII gives a different identity (unless the net
            // has no transitions, where labels don't appear at all —
            // the alphabet of used labels is empty either way).
            if !raw.transitions.is_empty() {
                let ascii = build_reference(raw, |l| format!("t{l}"));
                prop_assert!(
                    ascii.net_id() != reference.net_id(),
                    "relabeling τ→t did not change the id"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn hash_equal_implies_canonical_form_equal() {
    // Soundness both ways: ids agree exactly when the canonical byte
    // strings agree. Pairs mix guaranteed-equal rebuilds with
    // independent draws so both branches get coverage.
    #[derive(Clone, Debug)]
    struct PairCase;
    impl Strategy for PairCase {
        type Value = (RawNet, RawNet, u64, bool);
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let a = raw_net().generate(rng);
            let twin = rng.gen_range(0..2) == 0;
            let b = if twin {
                a.clone()
            } else {
                raw_net().generate(rng)
            };
            let seed = rng.gen_range(0..1 << 30) as u64;
            (a, b, seed, twin)
        }
    }

    check(
        "hash_equal_implies_canonical_form_equal",
        &PairCase,
        |(a, b, seed, twin)| {
            let na = build_reference(a, |l| format!("t{l}"));
            let nb = build_scrambled(b, *seed, |l| format!("t{l}"));
            let forms_equal = canonical_form(&na) == canonical_form(&nb);
            let ids_equal = na.net_id() == nb.net_id();
            prop_assert_eq!(
                ids_equal,
                forms_equal,
                "NetId equality must coincide with canonical-form equality"
            );
            if *twin {
                prop_assert!(ids_equal, "a scrambled rebuild of the same raw net");
            }
            Ok(())
        },
    );
}

#[test]
fn structural_mutations_change_the_id() {
    check(
        "structural_mutations_change_the_id",
        &scrambled(),
        |(raw, _)| {
            let reference = build_reference(raw, |l| format!("t{l}"));
            let id = reference.net_id();

            // Token bump on the first marked place (markings are
            // structure).
            let mut bumped = raw.clone();
            if bumped.marking.iter().all(|&m| m == 0) {
                // build_with's fallback marks place 0; make that
                // explicit before bumping so the bump is visible.
                bumped.marking[0] = 1;
            }
            let slot = bumped
                .marking
                .iter()
                .position(|&m| m > 0)
                .unwrap_or_default();
            bumped.marking[slot] += 1;
            let bumped_net = build_reference(&bumped, |l| format!("t{l}"));
            prop_assert!(
                bumped_net.net_id() != id,
                "adding one token did not change the id"
            );

            // Dropping a transition is structure (transition count is
            // serialized).
            if raw.transitions.len() > 1 {
                let mut dropped = raw.clone();
                dropped.transitions.pop();
                let dropped_net = build_reference(&dropped, |l| format!("t{l}"));
                prop_assert!(
                    dropped_net.net_id() != id,
                    "removing a transition did not change the id"
                );
            }

            // Declaring an unused label grows the declared alphabet,
            // which IS structure.
            let mut declared = build_reference(raw, |l| format!("t{l}"));
            declared.declare_label("~never-fired~".to_owned());
            prop_assert!(
                declared.net_id() != id,
                "declaring an alphabet label did not change the id"
            );

            // Merely *interning* a label is not structure.
            let mut interned = build_reference(raw, |l| format!("t{l}"));
            interned.intern_label(&"~never-fired~".to_owned());
            prop_assert_eq!(
                interned.net_id(),
                id,
                "interning without declaring changed the id"
            );
            Ok(())
        },
    );
}

#[test]
fn net_id_is_deterministic_and_stable_across_calls() {
    check(
        "net_id_is_deterministic_and_stable_across_calls",
        &scrambled(),
        |(raw, seed)| {
            let net = build_scrambled(raw, *seed, unicode_label);
            let a = net.net_id();
            let b = net.net_id();
            prop_assert_eq!(a, b, "net_id is not a pure function of the net");
            prop_assert_eq!(
                NetId::from_u128(a.as_u128()),
                a,
                "u128 round-trip lost bits"
            );
            Ok(())
        },
    );
}

/// Nets built to tie: a random component of 2–6 places over 1–3
/// labels, copied 1–6 times, with up to two hub places that every copy
/// feeds or drains through one transition, then duplicated transitions
/// and self-loops; markings up to 3, and up to 38 places. Copies are
/// automorphic, so refinement leaves their places tied and greedy
/// individualization does the rest.
#[derive(Clone, Debug)]
struct TiedNets;

impl Strategy for TiedNets {
    type Value = RawNet;

    fn generate(&self, rng: &mut TestRng) -> RawNet {
        let labels = rng.gen_range(1..4);
        let part = NetStrategy::new(6, 6, labels).max_tokens(3).generate(rng);
        let copies = rng.gen_range(1..7);
        let hubs = rng.gen_range(0..3);
        let places = part.places * copies + hubs;
        let same_marking = rng.gen_bool();
        let mut transitions = Vec::new();
        let mut marking = Vec::new();
        for c in 0..copies {
            let shift = |ps: &[usize]| ps.iter().map(|&p| p + c * part.places).collect();
            for t in &part.transitions {
                transitions.push(RawTransition {
                    pre: shift(&t.pre),
                    label: t.label,
                    post: shift(&t.post),
                });
            }
            for &m in &part.marking {
                marking.push(if same_marking {
                    m
                } else {
                    rng.gen_range_u32(0..4)
                });
            }
        }
        for h in 0..hubs {
            let hub = part.places * copies + h;
            let local = rng.below(part.places);
            let label = rng.below(labels);
            let feeds = rng.gen_bool();
            for c in 0..copies {
                let p = c * part.places + local;
                let (pre, post) = if feeds { (p, hub) } else { (hub, p) };
                transitions.push(RawTransition {
                    pre: vec![pre],
                    label,
                    post: vec![post],
                });
            }
            marking.push(rng.gen_range_u32(0..4));
        }
        for _ in 0..rng.gen_range(0..3) {
            let t = transitions[rng.below(transitions.len())].clone();
            transitions.push(t);
        }
        for _ in 0..rng.gen_range(0..3) {
            let p = rng.below(places);
            transitions.push(RawTransition {
                pre: vec![p],
                label: rng.below(labels),
                post: vec![p],
            });
        }
        RawNet {
            places,
            transitions,
            marking,
        }
    }

    fn shrink(&self, raw: &RawNet) -> Vec<RawNet> {
        NetStrategy::new(64, 64, 3).shrink(raw)
    }
}

/// The canonical bytes, order and id of `net` equal the reference
/// canonicalizer's.
fn agrees_with_oracle(net: &PetriNet<String>) -> PropResult {
    let reference = oracle::canonical_form(net);
    prop_assert_eq!(
        canonical_form(net),
        reference.clone(),
        "canonical bytes differ from the reference canonicalizer"
    );
    let (fast, slow) = (canonical_order(net), oracle::canonical_order(net));
    prop_assert_eq!(fast.places, slow.places, "canonical place order differs");
    prop_assert_eq!(fast.transitions, slow.transitions);
    prop_assert_eq!(fast.labels, slow.labels);
    prop_assert_eq!(
        net.net_id().as_u128(),
        fnv1a_128(&reference),
        "NetId is not the hash of the reference bytes"
    );
    Ok(())
}

#[test]
fn canonical_form_matches_the_reference_canonicalizer() {
    check(
        "canonical_form_matches_the_reference_canonicalizer",
        &TiedNets,
        |raw| agrees_with_oracle(&build_reference(raw, |l| format!("t{l}"))),
    );
}

/// `k` lanes of `len` places from one `fork` to one `join` transition,
/// every lane's steps labeled alike, with the token on a shared
/// source. One-place lanes are twin places: each individualization
/// touches only `fork` and `join`, whole singleton classes, so it
/// changes nothing. Longer lanes hold `step` transitions whose class an
/// individualization splits, so the full round must run.
fn lanes(k: usize, len: usize) -> PetriNet<String> {
    let mut net: PetriNet<String> = PetriNet::new();
    let src = net.add_place("src");
    let mut heads = Vec::new();
    let mut tails = Vec::new();
    for lane in 0..k {
        let mut prev = net.add_place(format!("l{lane}_0"));
        heads.push(prev);
        for i in 1..len {
            let next = net.add_place(format!("l{lane}_{i}"));
            net.add_transition([prev], "step".to_owned(), [next])
                .expect("lane step");
            prev = next;
        }
        tails.push(prev);
    }
    net.add_transition([src], "fork".to_owned(), heads)
        .expect("fork");
    net.add_transition(tails, "join".to_owned(), [src])
        .expect("join");
    net.set_initial(src, 1);
    net
}

/// A ring of `n` stages, each holding two twin places between the
/// stage's `go` and the next stage's `go`, with every `go` labeled
/// alike.
fn twin_ring(n: usize) -> PetriNet<String> {
    let mut net: PetriNet<String> = PetriNet::new();
    let pairs: Vec<[PlaceId; 2]> = (0..n)
        .map(|i| {
            [
                net.add_place(format!("a{i}")),
                net.add_place(format!("b{i}")),
            ]
        })
        .collect();
    for i in 0..n {
        net.add_transition(pairs[i], "go".to_owned(), pairs[(i + 1) % n])
            .expect("ring stage");
    }
    for p in pairs[0] {
        net.set_initial(p, 1);
    }
    net
}

#[test]
fn symmetric_families_match_the_reference_canonicalizer() {
    let mut nets = Vec::new();
    for k in 1..=12 {
        for len in 1..=3 {
            nets.push(lanes(k, len));
        }
    }
    nets.extend((1..=10).map(twin_ring));
    for net in &nets {
        if let Err(fail) = agrees_with_oracle(net) {
            panic!("{fail:?} on {} places", net.place_count());
        }
    }
}
