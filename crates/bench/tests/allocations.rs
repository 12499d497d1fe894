//! Allocation-ratio floors for the contraction engine, its reduction
//! rules and the interned alphabet layer: on each workload the generic
//! path (the `cpn_testkit::oracle` rebuilds, owned label sets,
//! label-level trace filtering) must allocate at least `floor` times as
//! often as the path that replaced it.
//!
//! Allocation *counts* are deterministic for a given standard library
//! but move with it, so only the ratios are gated, each at the floor of
//! the ratio first recorded for the workload (EXPERIMENTS.md, ABL3,
//! ABL10 and the alphabet-layer rows).
//!
//! One test per binary: the counting allocator below is this binary's
//! global allocator, and counts only the calling thread's allocations,
//! so the harness's own threads cannot leak into a count.

use cpn_petri::{AlphaSet, Budget, Label, PetriNet};
use cpn_testkit::RawRing;
use cpn_trace::Language;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::hint::black_box;

/// The system allocator, counting allocation calls per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the count beside it is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread, after one untimed warm-up call
/// so that nothing initialised once per process is counted.
fn allocs(f: &mut dyn FnMut()) -> u64 {
    f();
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Counts both paths of one workload and checks the ratio floor.
fn check_floor(
    workload: &str,
    floor: u64,
    generic: &mut dyn FnMut(),
    symbolized: &mut dyn FnMut(),
) {
    let (g, s) = (allocs(generic), allocs(symbolized));
    println!(
        "{workload}: generic {g} allocs, symbolized {s} allocs, ratio {:.2}x (floor {floor}x)",
        g as f64 / s.max(1) as f64
    );
    assert!(
        g >= floor * s,
        "{workload}: generic path made {g} allocations, symbolized {s}: \
         ratio below the {floor}x floor"
    );
}

/// Hiding `hidden` with the legacy rebuild oracle vs the in-place
/// contraction engine; each run is checked against the engine's answer.
fn check_hide<L: Label>(workload: &str, floor: u64, net: &PetriNet<L>, hidden: &BTreeSet<L>) {
    let budget = Budget::new(usize::MAX, 1_000_000);
    let expect = cpn_core::hide_labels_bounded(net, hidden, &budget)
        .expect("workloads hide cleanly")
        .into_value();
    let run = |legacy: bool| {
        let out = if legacy {
            cpn_testkit::oracle::hide_labels(net, hidden, &budget)
        } else {
            cpn_core::hide_labels_bounded(net, hidden, &budget)
        }
        .expect("workloads hide cleanly")
        .into_value();
        assert_eq!(out, expect, "engines must agree (legacy={legacy})");
    };
    check_floor(workload, floor, &mut || run(true), &mut || run(false));
}

/// The verify shape: a module of request/acknowledge lanes (`lanes[i]`
/// handshakes each, a ring `r a r a …`) composed with an environment
/// whose lanes put a private step `e` between each request and its
/// acknowledge, with every `e` hidden and nothing reduced yet.
fn lane_pair(lanes: &[usize]) -> PetriNet<String> {
    let mut composed: Option<PetriNet<String>> = None;
    let mut hidden = BTreeSet::new();
    for (i, &h) in lanes.iter().enumerate() {
        let one_token = |n: usize| (0..n).map(|k| u32::from(k == 0)).collect();
        let module = RawRing {
            n: 2 * h,
            marks: one_token(2 * h),
        }
        .build_with(|k| format!("{}{i}_{}", ["r", "a"][k % 2], k / 2));
        let env = RawRing {
            n: 3 * h,
            marks: one_token(3 * h),
        }
        .build_with(|k| format!("{}{i}_{}", ["r", "e", "a"][k % 3], k / 3));
        hidden.extend((0..h).map(|k| format!("e{i}_{k}")));
        let lane = cpn_core::parallel(&module, &env).expect("a lane composes");
        composed = Some(match composed {
            None => lane,
            Some(acc) => cpn_core::parallel(&acc, &lane).expect("disjoint lanes compose"),
        });
    }
    let composed = composed.expect("at least one lane");
    cpn_core::hide_labels_bounded(&composed, &hidden, &Budget::unlimited())
        .expect("the private steps hide")
        .into_value()
}

/// Two nets over large, partially overlapping alphabets (one shared
/// label in four), for the sync-set workload.
fn sync_pair(labels: usize) -> (PetriNet<String>, PetriNet<String>) {
    let build = |prefix: &str| {
        let mut net: PetriNet<String> = PetriNet::new();
        let p = net.add_place("p");
        net.set_initial(p, 1);
        for i in 0..labels {
            let label = if i % 4 == 0 {
                format!("shared{i}")
            } else {
                format!("{prefix}{i}")
            };
            net.add_transition([p], label, [p]).expect("self loop");
        }
        net
    };
    (build("left"), build("right"))
}

/// Every trace over `k` labels up to `depth`, as one language.
fn full_language(k: usize, depth: usize) -> Language<String> {
    let alphabet: BTreeSet<String> = (0..k).map(|i| format!("sig{i}")).collect();
    let mut traces: Vec<Vec<String>> = vec![Vec::new()];
    let mut frontier = traces.clone();
    for _ in 0..depth {
        let mut next = Vec::new();
        for t in &frontier {
            for l in &alphabet {
                let mut ext = t.clone();
                ext.push(l.clone());
                next.push(ext);
            }
        }
        traces.extend(next.iter().cloned());
        frontier = next;
    }
    Language::from_traces(alphabet, traces, depth)
}

#[test]
fn symbolized_paths_allocate_a_fraction_of_the_generic_ones() {
    // Hiding: the engine runs on symbols end to end, the legacy rebuild
    // clones labels at every contraction.
    for (segments, taus, floor) in [(4, 4, 8), (8, 8, 35)] {
        let (net, hidden) = cpn_bench::tau_ring(segments, taus);
        check_hide(
            &format!("hide tau_ring/{segments}x{taus}"),
            floor,
            &net,
            &hidden,
        );
    }
    for (modules, floor) in [(8, 2), (16, 4)] {
        let (net, hidden) = cpn_testkit::cip_chain(modules);
        check_hide(&format!("hide cip_chain/{modules}"), floor, &net, &hidden);
    }

    // Reduction rules: the reference rebuilds the net per rule pass and
    // keeps signatures in `BTreeSet`s, the editor reuses its buffers.
    let net = lane_pair(&[1, 2, 3]);
    let reduce = || {
        let mut editor = cpn_core::NetEditor::from_net(&net);
        let stats = editor.reduce();
        (
            editor.finish().expect("the reduced net materializes"),
            stats,
        )
    };
    let expect = reduce();
    assert!(
        expect.1.total() > 0,
        "the lane pair has something to reduce"
    );
    assert_eq!(
        cpn_testkit::oracle::reduce(&net).expect("the reference reduces"),
        expect,
        "reduction paths must agree"
    );
    check_floor(
        "reduce lane_pair/1,2,3",
        8,
        &mut || {
            black_box(cpn_testkit::oracle::reduce(&net).expect("the reference reduces"));
        },
        &mut || {
            black_box(reduce());
        },
    );

    // Sync set of a composition: owned label-set intersection vs the
    // bitset-backed common alphabet.
    let (n1, n2) = sync_pair(64);
    let generic: BTreeSet<String> = n1
        .alphabet()
        .intersection(&n2.alphabet())
        .cloned()
        .collect();
    assert_eq!(
        generic,
        cpn_core::common_alphabet(&n1, &n2),
        "sync-set paths must agree"
    );
    check_floor(
        "sync_set/64",
        7,
        &mut || {
            let (a1, a2) = (n1.alphabet(), n2.alphabet());
            let shared: BTreeSet<String> = a1.intersection(&a2).cloned().collect();
            black_box(shared);
        },
        &mut || {
            black_box(cpn_core::common_alphabet(&n1, &n2));
        },
    );

    // Language projection: symbol-encoded trace filtering vs
    // materialize-filter-rebuild at the label level.
    let (k, depth) = (4, 5);
    let lang = full_language(k, depth);
    let keep: BTreeSet<String> = (0..k / 2).map(|i| format!("sig{i}")).collect();
    let keep_syms: AlphaSet = keep.iter().filter_map(|l| lang.interner().get(l)).collect();
    assert_eq!(
        lang.project_syms(&keep_syms),
        lang.project(&keep),
        "projection paths must agree"
    );
    check_floor(
        "lang_project/4x5",
        9,
        &mut || {
            let filtered: Vec<Vec<String>> = lang
                .iter()
                .map(|t| t.into_iter().filter(|x| keep.contains(x)).collect())
                .collect();
            black_box(Language::from_traces(keep.clone(), filtered, depth));
        },
        &mut || {
            black_box(lang.project_syms(&keep_syms));
        },
    );
}
