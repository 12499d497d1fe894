//! Regenerates every figure and table of the paper and prints the rows
//! recorded in `EXPERIMENTS.md`.
//!
//! Usage: `cargo run --release -p cpn-bench --bin experiments [id…]`
//! where `id` ∈ {fig1, fig2, fig3, table1, fig4, fig5, fig6, fig7,
//! fig8, fig9, expansion, abl1, abl2, props, ext1, faults}; no argument
//! runs everything. `faults` honours `--quick` (2 trials per class
//! instead of 8) for CI smoke runs.
//!
//! `bench` (never part of the default set) sweeps the exploration
//! kernels over the `sync_pipeline`/`handshake_ring`/`sync_mesh`
//! families (the mesh is the 10^7-state acceptance workload) and the
//! contraction engines over the `tau_ring`/`cip_chain` families; with
//! `--json` it writes the machine-readable `BENCH_explore.json` (states
//! per second per kernel, resident marking bytes, host core count) and
//! `BENCH_hide.json` (seconds and allocation counts per hiding engine,
//! speedup and allocation ratios) and `BENCH_alphabet.json` (generic
//! label-level ops vs the interned symbol/bitset paths: hide/contract
//! allocations, sync-set computation, fused tracked composition,
//! language projection) and `BENCH_reduce.json` (explored states and
//! seconds for full / stubborn / reduced / reduced+stubborn exploration
//! of composed CIP chains) that CI uploads as artifacts.
//! `--quick` shrinks the sweeps for smoke runs; the default reaches the
//! 2^20-state and 10^7-state acceptance workloads.
//!
//! `serve` (also never part of the default set) boots an in-process
//! `cpn-serve` daemon over loopback TCP and measures cached-compile
//! round-trip latency/throughput, deadline-bounded degradation under an
//! explosive request with concurrent small ones, and drain time; with
//! `--json` it writes `BENCH_serve.json`.

use cpn_bench::{cycle_net, fig2_left, fig2_right, handshake_ring, tau_chain};
use cpn_petri::Label;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting allocation calls, so the `bench`
/// sweep can report allocations per hiding pass (the contraction
/// engine's ≥5× allocation claim) without external tooling.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
use cpn_cip::protocol::{protocol_cip, protocol_cip_restricted};
use cpn_cip::HandshakeProtocol;
use cpn_core::{
    check_receptiveness, check_receptiveness_structural_mg, choice, hide_label, parallel,
    parallel_tracked_common,
};
use cpn_petri::{Bounded, Budget, PetriNet, ReachabilityGraph};
use cpn_sim::monitor_composition;
use cpn_stg::protocol::{
    receiver, sender, sender_inconsistent, sender_restricted, translator, RECEIVER_COMMANDS,
    SENDER_COMMANDS,
};
use cpn_stg::{StateGraph, Stg};
use cpn_trace::Language;
use std::collections::BTreeMap;
use std::time::Instant;

fn header(id: &str, title: &str) {
    println!("\n==================================================================");
    println!("{id}: {title}");
    println!("==================================================================");
}

/// A structure built within its budget, as every net of the paper is.
fn done<T>(built: Bounded<T>) -> T {
    built
        .complete()
        .expect("paper nets explore within their budget")
}

/// The complete reachability graph of a net the paper keeps small.
fn reach<L: Label>(net: &PetriNet<L>) -> ReachabilityGraph {
    done(net.reachability_bounded(&Budget::default()))
}

fn stg_stats(stg: &Stg) -> (usize, usize, usize) {
    let rg = reach(stg.net());
    (
        stg.net().place_count(),
        stg.net().transition_count(),
        rg.state_count(),
    )
}

fn fig1() {
    header("FIG1", "choice with root-unwinding (Def 4.6)");
    let n1 = cycle_net(&["a", "b"]);
    let n2 = cycle_net(&["c", "d"]);
    let both = choice(&n1, &n2).expect("safe operands");
    println!(
        "operands: {}p/{}t each; N1+N2: {}p/{}t",
        n1.place_count(),
        n1.transition_count(),
        both.place_count(),
        both.transition_count()
    );
    let lhs = Language::from_net(&both, 6, 1_000_000).unwrap();
    let rhs = Language::from_net(&n1, 6, 1_000_000)
        .unwrap()
        .union(&Language::from_net(&n2, 6, 1_000_000).unwrap());
    println!(
        "L(N1+N2) = L(N1) ∪ L(N2) up to depth 6: {}",
        lhs.eq_up_to(&rhs, 6)
    );
    println!(
        "committed choice (no branch switch after loop): {}",
        !lhs.contains(&["a", "b", "c"]) && !lhs.contains(&["c", "d", "a"])
    );
}

fn fig2() {
    header(
        "FIG2",
        "parallel composition ((a+b).c)* ‖ (a.d.a.e)* (Thm 4.5)",
    );
    let l = fig2_left();
    let r = fig2_right();
    let composed = parallel(&l, &r).unwrap();
    let rg = reach(&composed);
    println!(
        "left {}p/{}t, right {}p/{}t -> composed {}p/{}t, {} states",
        l.place_count(),
        l.transition_count(),
        r.place_count(),
        r.transition_count(),
        composed.place_count(),
        composed.transition_count(),
        rg.state_count()
    );
    let lhs = Language::from_net(&composed, 6, 1_000_000).unwrap();
    let rhs = Language::from_net(&l, 6, 1_000_000)
        .unwrap()
        .parallel(&Language::from_net(&r, 6, 1_000_000).unwrap());
    println!(
        "L(N1‖N2) = L(N1)‖L(N2) up to depth 6: {}",
        lhs.eq_up_to(&rhs, 6)
    );
    println!(
        "a synchronizes: trace 'a c d a c e' in language: {}",
        lhs.contains(&["a", "c", "d", "a", "c", "e"])
    );
}

fn fig3() {
    header("FIG3", "hiding as net contraction (Def 4.10, Thm 4.7)");
    for taus in [1usize, 4, 16] {
        let net = tau_chain(taus);
        let hidden = hide_label(&net, &"tau".to_owned(), 100_000).unwrap();
        let states_before = reach(&net).state_count();
        let states_after = reach(&hidden).state_count();
        println!(
            "chain with {taus:>2} hidden transitions: {}p/{}t/{} states -> \
             {}p/{}t/{} states after contraction (ε states gone)",
            net.place_count(),
            net.transition_count(),
            states_before,
            hidden.place_count(),
            hidden.transition_count(),
            states_after,
        );
    }
    // Conflict case + oracle check.
    let mut net: PetriNet<&str> = PetriNet::new();
    let p0 = net.add_place("p0");
    let q0 = net.add_place("q0");
    let r = net.add_place("r");
    net.add_transition([p0], "tau", [q0]).unwrap();
    net.add_transition([p0], "x", [r]).unwrap();
    net.add_transition([q0], "a", [p0]).unwrap();
    net.add_transition([r], "y", [p0]).unwrap();
    net.set_initial(p0, 1);
    let hidden = hide_label(&net, &"tau", 100_000).unwrap();
    let lhs = Language::from_net(&hidden, 4, 1_000_000).unwrap();
    let rhs = Language::from_net(&net, 14, 1_000_000)
        .unwrap()
        .hide(&["tau"].into());
    println!(
        "conflict case: L(hide(N,tau)) = hide(L(N),tau) up to depth 4: {}",
        lhs.eq_up_to(&rhs.truncate(4), 4)
    );
}

fn table1() {
    header("TAB1", "translation tables (sender / receiver codes)");
    println!("(a) sender:   cmd~  -> wires        (b) receiver: wires -> cmd~");
    for i in 0..4 {
        let (sc, sa, sb) = SENDER_COMMANDS[i];
        let (rc, rp, rq) = RECEIVER_COMMANDS[i];
        println!("    {sc:<6} -> {sa}+ {sb}+          {rp}+ {rq}+ -> {rc}~");
    }
    let enc = cpn_cip::protocol::cmd_encoding();
    println!(
        "cmd encoding: {} wires, {} values, antichain-valid: yes (constructor enforces)",
        enc.wires().len(),
        enc.value_count()
    );
}

fn fig4() {
    header("FIG4", "block diagram: the CIP graph validates");
    let g = protocol_cip().unwrap();
    println!(
        "modules: {:?}; channel edges: {}",
        g.modules().iter().map(|m| m.name()).collect::<Vec<_>>(),
        g.channel_specs().count()
    );
    println!("validate(): ok");
}

fn fig567() {
    let budget = Budget::default();
    for (id, name, stg) in [
        ("FIG5", "sender protocol", sender()),
        ("FIG6", "receiver protocol", receiver()),
        ("FIG7", "protocol translator", translator()),
    ] {
        header(id, name);
        let (p, t, s) = stg_stats(&stg);
        let rep = done(stg.classical_report(&budget));
        let rg = reach(stg.net());
        let analysis = stg.net().analysis(&rg);
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1_000_000));
        let sg = done(sg);
        println!("size: {p} places, {t} transitions, {s} reachable states");
        println!(
            "strongly-connected: {}, live: {}, safe: {}, consistent encoding: {}",
            rep.strongly_connected,
            rep.live,
            rep.safe,
            sg.is_consistent()
        );
        if !rep.live {
            println!(
                "  (deadlock-free: {}, dead: {}, non-live: {} — the one-shot initial \
                 `start` transmission; everything else is live)",
                analysis.deadlock_free,
                analysis.dead_transitions().len(),
                analysis.non_live_transitions().len()
            );
        }
        println!(
            "state graph: {} encoded states (guards restrict the rec branch), \
             USC conflicts: {}, CSC conflicts: {}",
            sg.state_count(),
            sg.usc_violations().len(),
            sg.csc_violations(&stg).len()
        );
    }
}

fn fig8() {
    header("FIG8", "inconsistent sender detection (Props 5.5/5.6)");
    let budget = Budget::default();
    let tr = translator();
    let good = sender().check_receptiveness(&tr, &budget).unwrap();
    println!("consistent sender ‖ translator: receptive = {good}");
    let bad_stg = sender_inconsistent();
    let t0 = Instant::now();
    let bad = bad_stg.check_receptiveness(&tr, &budget).unwrap();
    let static_time = t0.elapsed();
    let failures = bad.witness().map_or(&[][..], |r| &r.failures);
    println!(
        "inconsistent sender ‖ translator: receptive = {bad} ({} failures, {:?})",
        failures.len(),
        static_time
    );
    let mut labels: Vec<String> = failures.iter().map(|f| f.label.to_string()).collect();
    labels.dedup();
    println!("failing outputs: {labels:?}");
    // Dynamic detection cost.
    let mut step_counts = Vec::new();
    for seed in 0..10u64 {
        if let Some(obs) = monitor_composition(
            bad_stg.net(),
            tr.net(),
            &bad_stg.output_labels(),
            &tr.output_labels(),
            seed,
            1_000_000,
        ) {
            step_counts.push(obs.steps);
        }
    }
    println!(
        "dynamic monitor: detected in {}/10 random walks, steps: {:?}",
        step_counts.len(),
        step_counts
    );
}

fn fig9() {
    header(
        "FIG9",
        "compositional synthesis: simplified translator & receiver",
    );
    let budget = Budget::default();
    let tr = translator();
    let tr_red = tr.reduce_against(&sender_restricted(), &budget, 10_000);
    let tr_red = done(tr_red.unwrap());
    let (p0, t0, s0) = stg_stats(&tr);
    let (p1, t1, s1) = stg_stats(&tr_red);
    println!("translator (Fig 7):      {p0:>3} places {t0:>3} transitions {s0:>4} states");
    println!("simplified (Fig 9b):     {p1:>3} places {t1:>3} transitions {s1:>4} states");
    println!(
        "DATA/STROBE interface removed: {}",
        !tr_red
            .signals()
            .keys()
            .any(|s| s.name() == "DATA" || s.name() == "STROBE")
    );
    let reduced_lang = tr_red.language(5, 2_000_000).unwrap();
    let orig = tr.language(7, 2_000_000).unwrap();
    println!(
        "Thm 5.1 containment (depth 5): {}",
        reduced_lang.subset_up_to(&orig.project(&tr_red.net().alphabet()), 5)
    );

    let rx = receiver();
    let rx_red = done(rx.prune_against(&tr_red, &budget).unwrap());
    let (p0, t0, s0) = stg_stats(&rx);
    let (p1, t1, s1) = stg_stats(&rx_red);
    println!("receiver (Fig 6):        {p0:>3} places {t0:>3} transitions {s0:>4} states");
    println!("simplified (Fig 9c):     {p1:>3} places {t1:>3} transitions {s1:>4} states");
    println!(
        "mute command removed: {}",
        !rx_red.signals().keys().any(|s| s.name() == "mute")
    );
}

fn expansion() {
    header("EXP3", "abstract channel expansion (Section 3)");
    let budget = Budget::default();
    for (name, g) in [
        ("full CIP", protocol_cip().unwrap()),
        ("restricted CIP", protocol_cip_restricted().unwrap()),
    ] {
        let sys = g.expand(HandshakeProtocol::FourPhase).unwrap();
        print!("{name}: ");
        for (n, stg) in sys.names().iter().zip(sys.stgs()) {
            print!(
                "{n} {}p/{}t  ",
                stg.net().place_count(),
                stg.net().transition_count()
            );
        }
        let composed = done(sys.compose_all().unwrap().remove_dead(&budget));
        let rg = reach(composed.net());
        let analysis = composed.net().analysis(&rg);
        println!(
            "\n  composed: {} states, safe={}, deadlock-free={}",
            rg.state_count(),
            analysis.safe,
            analysis.deadlock_free
        );
        let receptive = sys
            .verify_receptiveness(&budget)
            .unwrap()
            .iter()
            .all(|(_, v)| v.holds());
        println!("  rendez-vous preserved (every module receptive): {receptive}");
    }
}

fn abl1() {
    header(
        "ABL1",
        "net-level algebra vs state-space size (Section 1 claim)",
    );
    println!(
        "{:>3} {:>10} {:>12} {:>12}",
        "k", "net (p+t)", "states", "RG time"
    );
    for k in [4usize, 8, 12, 16, 18] {
        let nets: Vec<PetriNet<String>> = (0..k)
            .map(|i| {
                let mut net: PetriNet<String> = PetriNet::new();
                let p = net.add_place(format!("c{i}.p"));
                let q = net.add_place(format!("c{i}.q"));
                net.add_transition([p], format!("a{i}"), [q]).unwrap();
                net.add_transition([q], format!("b{i}"), [p]).unwrap();
                net.set_initial(p, 1);
                net
            })
            .collect();
        let mut acc = nets[0].clone();
        for n in &nets[1..] {
            acc = parallel(&acc, n).unwrap();
        }
        let t0 = Instant::now();
        let rg = done(acc.reachability_bounded(&Budget::states(1 << 22)));
        println!(
            "{k:>3} {:>10} {:>12} {:>12?}",
            acc.place_count() + acc.transition_count(),
            rg.state_count(),
            t0.elapsed()
        );
    }
}

fn abl2() {
    header("ABL2", "structural (Thm 5.7) vs exhaustive receptiveness");
    let budget = Budget::states(8_000_000);
    // Both procedures answer the same question on one composition.
    let row = |size: usize, (p, c, lo, ro): (PetriNet<String>, PetriNet<String>, _, _)| {
        let comp = parallel_tracked_common(&p, &c).unwrap();
        let t0 = Instant::now();
        let s = check_receptiveness_structural_mg(&comp, &lo, &ro, &budget).unwrap();
        let t_structural = t0.elapsed();
        let t0 = Instant::now();
        let e = check_receptiveness(&comp, &lo, &ro, &budget);
        let t_exhaustive = t0.elapsed();
        let states = comp
            .net
            .reachability_bounded(&budget)
            .complete()
            .map_or(0, |rg| rg.state_count());
        println!(
            "{size:>7} {states:>12} {t_structural:>14?} {t_exhaustive:>14?} {:>9}",
            s.is_definite() && e.is_definite() && s.holds() == e.holds()
        );
    };
    println!("sequential rings (linear state space):");
    println!(
        "{:>7} {:>12} {:>14} {:>14} {:>9}",
        "stages", "RG states", "structural", "exhaustive", "agree"
    );
    for stages in [2usize, 8, 32, 128] {
        row(stages, handshake_ring(stages, 0));
    }
    println!("wide concurrent handshakes (exponential state space):");
    println!(
        "{:>7} {:>12} {:>14} {:>14} {:>9}",
        "width", "RG states", "structural", "exhaustive", "agree"
    );
    for width in [2usize, 4, 6, 8, 9] {
        row(width, cpn_bench::wide_handshake(width, None));
    }
}

fn props() {
    header("PROPS", "closure properties 5.2–5.4");
    let budget = Budget::default();
    // Safe nets closed under composition; liveness not (Props 5.2/5.3):
    // two live safe cycles that wait for each other in opposite order.
    let n1 = cycle_net(&["a", "b"]);
    let n2 = cycle_net(&["b", "a"]);
    let rep = done(cpn_core::closure_report(&n1, &n2, &budget).unwrap());
    println!("(a.b)* ‖ (b.a)*:  {rep}");
    println!("  -> Prop 5.2 (safety closed): {}", rep.composition_safe);
    println!(
        "  -> Prop 5.3 caveat (liveness NOT closed under ‖): {}",
        !rep.composition_live
    );
    // Marked graphs closed under composition (Prop 5.4).
    let n3 = cycle_net(&["a", "b"]);
    let n4 = cycle_net(&["b", "c"]);
    let rep = done(cpn_core::closure_report(&n3, &n4, &budget).unwrap());
    println!("(a.b)* ‖ (b.c)*:  {rep}");
    println!(
        "  -> Prop 5.4 (marked graphs closed under ‖): {}",
        rep.composition_marked_graph
    );
}

fn ext_arbiter() {
    header(
        "EXT1",
        "general-net arbiter (Section 5.1: \"arbiters cannot be modeled in these subclasses\")",
    );
    let budget = Budget::default();
    let a = cpn_stg::arbiter::arbiter();
    let rep = a.net().structural();
    println!(
        "class: {} (free-choice: {}, marked graph: {})",
        rep.class, rep.is_free_choice, rep.is_marked_graph
    );
    let cls = done(a.classical_report(&budget));
    println!("live: {}, safe: {}", cls.live, cls.safe);
    let flows = cpn_petri::semiflows_p(a.net(), 100_000).unwrap();
    println!(
        "P-semiflows: {} (incl. the mutual-exclusion invariant over mutex+granted+done)",
        flows.len()
    );
    let env = cpn_stg::arbiter::client(1)
        .compose(&cpn_stg::arbiter::client(2))
        .unwrap();
    let rec = a.check_receptiveness(&env, &Budget::default()).unwrap();
    println!("arbiter ↔ two clients receptive: {rec}");
}

fn faults(quick: bool) {
    header(
        "FLT",
        "fault-injection sensitivity: every detector vs every fault class",
    );
    let trials = if quick { 2 } else { 8 };
    let seed = 0xC1A0_u64;
    println!("seed: {seed:#x}, trials per (class, model): {trials}\n");
    let t0 = Instant::now();
    let report = cpn_sim::detector_sensitivity(seed, trials);
    println!("{report}");
    println!(
        "every fault detected or provably benign: {}  ({:?})",
        report.all_accounted(),
        t0.elapsed()
    );
}

/// One timed kernel run of the `bench` sweep.
struct KernelRun {
    kernel: &'static str,
    seconds: f64,
    states_per_sec: f64,
    resident_marking_bytes: usize,
}

/// Times one exploration; `run` returns the states found and the bytes
/// its markings take.
fn time_kernel(
    kernel: &'static str,
    states: usize,
    run: impl FnOnce() -> (usize, usize),
) -> KernelRun {
    let t0 = Instant::now();
    let (found, resident_marking_bytes) = run();
    let seconds = t0.elapsed().as_secs_f64();
    assert_eq!(found, states, "{kernel} state count");
    KernelRun {
        kernel,
        seconds,
        states_per_sec: states as f64 / seconds,
        resident_marking_bytes,
    }
}

/// Modeled per-state marking bytes of the reference cloned-map explorer:
/// one `Marking` (24-byte `Vec` header + 4 bytes per place) in the state
/// vector, a second clone as the `HashMap` key, plus ~32 bytes of table
/// bucket overhead per entry.
fn legacy_marking_model(places: usize, states: usize) -> usize {
    states * (2 * (24 + 4 * places) + 32)
}

fn bench_explore(quick: bool, json: bool) {
    header(
        "BENCH",
        "exploration kernel sweep (legacy oracle / compiled)",
    );
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host cores: {host_cores}");
    let compose_all = |nets: &[PetriNet<String>]| {
        let mut acc = nets[0].clone();
        for n in &nets[1..] {
            acc = parallel(&acc, n).unwrap();
        }
        acc
    };
    let pipeline_ks: &[usize] = if quick { &[12, 14] } else { &[17, 20] };
    let ring_stages: &[usize] = if quick { &[64] } else { &[512] };
    // The mesh is the 10^7-state acceptance workload: a w×h token-shift
    // torus whose state count is the closed form C(tokens+wh-1, wh-1)
    // on only w*h places, so even ten million packed markings fit a
    // few hundred MB of arena.
    let mesh_tokens = if quick { 8 } else { 24 };
    let mesh_states = cpn_testkit::sync_mesh_states(3, 3, mesh_tokens) as usize;
    // (family, states, net, with_legacy): legacy is skipped on the mesh
    // — two cloned `Marking`s plus HashMap buckets per state put the
    // 10^7 run in multi-GB / multi-minute territory for a kernel that
    // exists only as a baseline.
    let mut nets: Vec<(String, usize, PetriNet<String>, bool)> = Vec::new();
    for &k in pipeline_ks {
        let net = compose_all(&cpn_bench::sync_pipeline(k));
        nets.push((format!("sync_pipeline/{k}"), 1 << k, net, true));
    }
    for &s in ring_stages {
        let (p, c, _, _) = handshake_ring(s, 0);
        let net = parallel(&p, &c).unwrap();
        let states = net
            .reachability_bounded(&cpn_petri::Budget::states(1 << 22))
            .into_value()
            .state_count();
        nets.push((format!("handshake_ring/{s}"), states, net, true));
    }
    nets.push((
        format!("sync_mesh/3x3t{mesh_tokens}"),
        mesh_states,
        cpn_testkit::sync_mesh(3, 3, mesh_tokens),
        false,
    ));

    let mut rows = Vec::new();
    for (family, states, net, with_legacy) in &nets {
        let budget = cpn_petri::Budget::states(states + 1);
        let mut runs = Vec::new();
        if *with_legacy {
            runs.push(time_kernel("legacy", *states, || {
                let rg = cpn_testkit::oracle::reachability(net, &budget);
                let found = rg.markings.len();
                (found, legacy_marking_model(net.place_count(), found))
            }));
        }
        runs.push(time_kernel("compiled", *states, || {
            let rg = net.reachability_bounded(&budget).into_value();
            (rg.state_count(), rg.resident_marking_bytes())
        }));
        let base_rate = runs[0].states_per_sec;
        let legacy_bytes = legacy_marking_model(net.place_count(), *states);
        let arena_bytes = runs
            .iter()
            .find(|r| r.kernel == "compiled")
            .map_or(0, |r| r.resident_marking_bytes);
        let drop_pct = 100.0 * (1.0 - arena_bytes as f64 / legacy_bytes as f64);
        println!("{family}: {states} states, {} places", net.place_count());
        for r in &runs {
            println!(
                "  {:<10} {:>10.0} states/s ({:.2}x {})  markings {:>12} B",
                r.kernel,
                r.states_per_sec,
                r.states_per_sec / base_rate,
                runs[0].kernel,
                r.resident_marking_bytes
            );
        }
        println!(
            "  marking memory: arena {arena_bytes} B vs modeled legacy {legacy_bytes} B \
             -> {drop_pct:.1}% drop"
        );
        rows.push((family.clone(), *states, net.place_count(), runs, drop_pct));
    }

    if json {
        let mut out = String::from("{\n  \"bench\": \"explore_kernel\",\n");
        out.push_str(&format!(
            "  \"mode\": \"{}\",\n  \"host_cores\": {host_cores},\n",
            if quick { "quick" } else { "full" }
        ));
        out.push_str(
            "  \"legacy_marking_model\": \
             \"per_state = 2*(24 + 4*places) + 32 (state vector + cloned HashMap key + bucket)\",\n",
        );
        out.push_str("  \"workloads\": [\n");
        for (i, (family, states, places, runs, drop_pct)) in rows.iter().enumerate() {
            let arena_bytes = runs
                .iter()
                .find(|r| r.kernel == "compiled")
                .map_or(0, |r| r.resident_marking_bytes);
            out.push_str(&format!(
                "    {{\n      \"family\": \"{family}\",\n      \"states\": {states},\n      \
                 \"places\": {places},\n      \"legacy_marking_bytes_modeled\": {},\n      \
                 \"resident_marking_bytes\": {arena_bytes},\n      \
                 \"marking_memory_drop_pct\": {drop_pct:.1},\n      \
                 \"baseline\": \"{}\",\n      \"kernels\": [\n",
                legacy_marking_model(*places, *states),
                runs[0].kernel,
            ));
            for (j, r) in runs.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"kernel\": \"{}\", \"seconds\": {:.4}, \
                     \"states_per_sec\": {:.0}, \"speedup_vs_baseline\": {:.3}}}{}\n",
                    r.kernel,
                    r.seconds,
                    r.states_per_sec,
                    r.states_per_sec / runs[0].states_per_sec,
                    if j + 1 < runs.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "      ]\n    }}{}\n",
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write("BENCH_explore.json", &out).expect("write BENCH_explore.json");
        println!("wrote BENCH_explore.json");
    }
}

/// One timed hiding-engine run of the `bench` sweep.
struct HideRun {
    engine: &'static str,
    seconds: f64,
    allocs: u64,
}

/// Measured row for one contraction workload: both engines, checked for
/// bit-identical output.
struct HideRow {
    family: String,
    places: usize,
    transitions: usize,
    hidden_labels: usize,
    legacy: HideRun,
    engine: HideRun,
}

impl HideRow {
    fn speedup(&self) -> f64 {
        self.legacy.seconds / self.engine.seconds
    }
    fn alloc_ratio(&self) -> f64 {
        self.legacy.allocs as f64 / self.engine.allocs as f64
    }
}

fn measure_hide<L: Label>(family: String, net: &PetriNet<L>, hidden: &BTreeSet<L>) -> HideRow {
    let budget = cpn_petri::Budget::new(usize::MAX, 1_000_000);
    // Warm-up run doubling as the expectation for the identity check;
    // its duration sizes the iteration count so micro-workloads are
    // timed over enough repetitions to dominate scheduler noise.
    let t0 = Instant::now();
    let expect = cpn_core::hide_labels_bounded(net, hidden, &budget)
        .expect("bench workloads hide cleanly")
        .into_value();
    let warm = t0.elapsed().as_secs_f64();
    let iters = ((0.05 / warm.max(1e-9)) as usize).clamp(1, 2_000);
    let run = |legacy: bool| -> HideRun {
        let a0 = alloc_count();
        let t0 = Instant::now();
        for _ in 0..iters {
            let out = if legacy {
                cpn_testkit::oracle::hide_labels(net, hidden, &budget)
            } else {
                cpn_core::hide_labels_bounded(net, hidden, &budget)
            }
            .expect("bench workloads hide cleanly")
            .into_value();
            assert_eq!(out, expect, "engines must agree (legacy={legacy})");
        }
        let seconds = t0.elapsed().as_secs_f64() / iters as f64;
        let allocs = (alloc_count() - a0) / iters as u64;
        HideRun {
            engine: if legacy { "legacy" } else { "engine" },
            seconds,
            allocs,
        }
    };
    let legacy = run(true);
    let engine = run(false);
    HideRow {
        family,
        places: net.place_count(),
        transitions: net.transition_count(),
        hidden_labels: hidden.len(),
        legacy,
        engine,
    }
}

fn bench_hide(quick: bool, json: bool) {
    header(
        "BENCH",
        "contraction engine sweep (legacy rebuild vs in-place editor)",
    );
    let rings: &[(usize, usize)] = if quick {
        &[(4, 4), (8, 8)]
    } else {
        &[(8, 8), (16, 8), (16, 16), (24, 16)]
    };
    let chains: &[usize] = if quick { &[8, 16] } else { &[8, 16, 32] };
    let mut rows = Vec::new();
    for &(segments, taus) in rings {
        let (net, hidden) = cpn_bench::tau_ring(segments, taus);
        rows.push(measure_hide(
            format!("tau_ring/{segments}x{taus}"),
            &net,
            &hidden,
        ));
    }
    for &modules in chains {
        let (net, hidden) = cpn_bench::cip_chain_workload(modules);
        rows.push(measure_hide(format!("cip_chain/{modules}"), &net, &hidden));
    }

    for r in &rows {
        println!(
            "{}: {}p/{}t, {} hidden labels",
            r.family, r.places, r.transitions, r.hidden_labels
        );
        for run in [&r.legacy, &r.engine] {
            println!(
                "  {:<8} {:>9.4} s  {:>12} allocs",
                run.engine, run.seconds, run.allocs
            );
        }
        println!(
            "  -> speedup {:.2}x, alloc ratio {:.2}x",
            r.speedup(),
            r.alloc_ratio()
        );
    }

    if json {
        let mut out = String::from("{\n  \"bench\": \"hide_contract\",\n");
        out.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if quick { "quick" } else { "full" }
        ));
        out.push_str("  \"workloads\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\n      \"family\": \"{}\",\n      \"places\": {},\n      \
                 \"transitions\": {},\n      \"hidden_labels\": {},\n      \
                 \"legacy_seconds\": {:.6},\n      \"engine_seconds\": {:.6},\n      \
                 \"legacy_allocs\": {},\n      \"engine_allocs\": {},\n      \
                 \"speedup\": {:.3},\n      \"alloc_ratio\": {:.3}\n    }}{}\n",
                r.family,
                r.places,
                r.transitions,
                r.hidden_labels,
                r.legacy.seconds,
                r.engine.seconds,
                r.legacy.allocs,
                r.engine.allocs,
                r.speedup(),
                r.alloc_ratio(),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write("BENCH_hide.json", &out).expect("write BENCH_hide.json");
        println!("wrote BENCH_hide.json");
    }
}

/// One alphabet-layer workload: the generic label-level baseline vs the
/// symbolized (interned `Sym` + bitset) path.
struct AlphaRow {
    workload: String,
    generic: HideRun,
    symbolized: HideRun,
}

impl AlphaRow {
    fn speedup(&self) -> f64 {
        self.generic.seconds / self.symbolized.seconds
    }
    fn alloc_ratio(&self) -> f64 {
        self.generic.allocs as f64 / self.symbolized.allocs.max(1) as f64
    }
}

/// Times `generic` vs `symbolized` over enough iterations to dominate
/// scheduler noise, counting allocations per iteration.
fn measure_alpha(
    workload: String,
    mut generic: impl FnMut(),
    mut symbolized: impl FnMut(),
) -> AlphaRow {
    let t0 = Instant::now();
    generic();
    let warm = t0.elapsed().as_secs_f64();
    let iters = ((0.05 / warm.max(1e-9)) as usize).clamp(1, 5_000);
    let run = |f: &mut dyn FnMut(), name: &'static str| -> HideRun {
        let a0 = alloc_count();
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        HideRun {
            engine: name,
            seconds: t0.elapsed().as_secs_f64() / iters as f64,
            allocs: (alloc_count() - a0) / iters as u64,
        }
    };
    let generic = run(&mut generic, "generic");
    let symbolized = run(&mut symbolized, "symbolized");
    AlphaRow {
        workload,
        generic,
        symbolized,
    }
}

/// Two nets over large, partially overlapping alphabets (one shared
/// label in four), for the sync-set computation workload.
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

fn bench_alphabet(quick: bool, json: bool) {
    header(
        "BENCH",
        "alphabet layer sweep (generic label ops vs interned symbols)",
    );
    let mut rows: Vec<AlphaRow> = Vec::new();

    // Hide/contract: the engine runs on symbols end-to-end, the legacy
    // rebuild clones labels at every step.
    let rings: &[(usize, usize)] = if quick {
        &[(8, 8)]
    } else {
        &[(8, 8), (16, 16)]
    };
    for &(segments, taus) in rings {
        let (net, hidden) = cpn_bench::tau_ring(segments, taus);
        let r = measure_hide(
            format!("hide_contract/tau_ring/{segments}x{taus}"),
            &net,
            &hidden,
        );
        rows.push(AlphaRow {
            workload: r.family,
            generic: r.legacy,
            symbolized: r.engine,
        });
    }
    let chain = if quick { 8 } else { 16 };
    let (net, hidden) = cpn_bench::cip_chain_workload(chain);
    let r = measure_hide(format!("hide_contract/cip_chain/{chain}"), &net, &hidden);
    rows.push(AlphaRow {
        workload: r.family,
        generic: r.legacy,
        symbolized: r.engine,
    });

    // Sync-set computation (parallel composition / receptiveness entry):
    // owned label-set intersection vs the bitset-backed common alphabet.
    let n_labels = if quick { 64 } else { 256 };
    let (n1, n2) = sync_pair(n_labels);
    let generic_sync = || {
        let a1 = n1.alphabet();
        let a2 = n2.alphabet();
        let shared: BTreeSet<String> = a1.intersection(&a2).cloned().collect();
        std::hint::black_box(shared);
    };
    let symbolized_sync = || {
        std::hint::black_box(cpn_core::common_alphabet(&n1, &n2));
    };
    {
        let a1 = n1.alphabet();
        let a2 = n2.alphabet();
        let expect: BTreeSet<String> = a1.intersection(&a2).cloned().collect();
        assert_eq!(
            expect,
            cpn_core::common_alphabet(&n1, &n2),
            "sync-set paths must agree"
        );
    }
    rows.push(measure_alpha(
        format!("sync_set/{n_labels}"),
        generic_sync,
        symbolized_sync,
    ));

    // Full tracked composition on the common alphabet: the fused path
    // resolves the sync set as a bitset intersection inside the compose
    // (no owned label set, no per-label clone), the generic path
    // materializes `common_alphabet` first and interns it back in.
    let generic_compose = || {
        let shared: BTreeSet<String> = cpn_core::common_alphabet(&n1, &n2);
        std::hint::black_box(cpn_core::parallel_tracked(&n1, &n2, &shared).expect("composable"));
    };
    let fused_compose = || {
        std::hint::black_box(cpn_core::parallel_tracked_common(&n1, &n2).expect("composable"));
    };
    {
        let shared = cpn_core::common_alphabet(&n1, &n2);
        let by_labels = cpn_core::parallel_tracked(&n1, &n2, &shared).expect("composable");
        let fused = cpn_core::parallel_tracked_common(&n1, &n2).expect("composable");
        assert_eq!(by_labels.net, fused.net, "compose paths must agree");
    }
    rows.push(measure_alpha(
        format!("sync_set_compose/{n_labels}"),
        generic_compose,
        fused_compose,
    ));

    // Language projection: symbol-encoded trace filtering vs
    // materialize-filter-rebuild at the label level.
    let k = 4usize;
    let depth = if quick { 5 } else { 6 };
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
    let lang = cpn_trace::Language::from_traces(alphabet.clone(), traces, depth);
    let keep: BTreeSet<String> = alphabet.iter().take(k / 2).cloned().collect();
    let keep_syms: cpn_petri::AlphaSet =
        keep.iter().filter_map(|l| lang.interner().get(l)).collect();
    let generic_project = || {
        let filtered: Vec<Vec<String>> = lang
            .iter()
            .map(|t| t.into_iter().filter(|x| keep.contains(x)).collect())
            .collect();
        std::hint::black_box(cpn_trace::Language::from_traces(
            keep.clone(),
            filtered,
            depth,
        ));
    };
    let symbolized_project = || {
        std::hint::black_box(lang.project_syms(&keep_syms));
    };
    assert_eq!(
        lang.project_syms(&keep_syms),
        lang.project(&keep),
        "projection paths must agree"
    );
    rows.push(measure_alpha(
        format!("lang_project/{k}x{depth}"),
        generic_project,
        symbolized_project,
    ));

    for r in &rows {
        println!("{}", r.workload);
        for run in [&r.generic, &r.symbolized] {
            println!(
                "  {:<10} {:>9.6} s  {:>12} allocs",
                run.engine, run.seconds, run.allocs
            );
        }
        println!(
            "  -> speedup {:.2}x, alloc ratio {:.2}x",
            r.speedup(),
            r.alloc_ratio()
        );
    }

    if json {
        let mut out = String::from("{\n  \"bench\": \"alphabet\",\n");
        out.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if quick { "quick" } else { "full" }
        ));
        out.push_str("  \"workloads\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\n      \"workload\": \"{}\",\n                       \"generic_seconds\": {:.6},\n      \"symbolized_seconds\": {:.6},\n                       \"generic_allocs\": {},\n      \"symbolized_allocs\": {},\n                       \"speedup\": {:.3},\n      \"alloc_ratio\": {:.3}\n    }}{}\n",
                r.workload,
                r.generic.seconds,
                r.symbolized.seconds,
                r.generic.allocs,
                r.symbolized.allocs,
                r.speedup(),
                r.alloc_ratio(),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write("BENCH_alphabet.json", &out).expect("write BENCH_alphabet.json");
        println!("wrote BENCH_alphabet.json");
    }
}

/// One explored-state measurement of the `bench_reduce` sweep.
struct ReduceMode {
    mode: &'static str,
    states: usize,
    seconds: f64,
    deadlock_free: bool,
}

fn run_reduce_mode<L: Label>(
    mode: &'static str,
    net: &PetriNet<L>,
    stubborn: bool,
    budget: &cpn_petri::Budget,
) -> ReduceMode {
    let t0 = Instant::now();
    let rg = if stubborn {
        net.reachability_stubborn_bounded(budget, &[])
    } else {
        net.reachability_bounded(budget)
    }
    .into_value();
    ReduceMode {
        mode,
        states: rg.state_count(),
        seconds: t0.elapsed().as_secs_f64(),
        deadlock_free: rg.deadlock_states().is_empty(),
    }
}

fn bench_reduce(quick: bool, json: bool) {
    header(
        "BENCH",
        "reduction + stubborn exploration sweep (composed CIP chains)",
    );
    let chains: &[usize] = if quick { &[4, 8] } else { &[8, 12, 16] };
    let budget = cpn_petri::Budget::states(1 << 22);
    struct Row {
        family: String,
        places: usize,
        transitions: usize,
        reduced_places: usize,
        reduced_transitions: usize,
        stats: cpn_core::ReductionStats,
        reduce_seconds: f64,
        modes: Vec<ReduceMode>,
        factor: f64,
        deadlock_free_agrees: bool,
    }
    let mut rows: Vec<Row> = Vec::new();
    for &modules in chains {
        let (net, hidden) = cpn_bench::cip_chain_workload(modules);
        let t0 = Instant::now();
        let (reduced, stats) =
            cpn_core::reduce_for_analysis(&net, &hidden).expect("cip chains reduce cleanly");
        let reduce_seconds = t0.elapsed().as_secs_f64();
        let modes = vec![
            run_reduce_mode("full", &net, false, &budget),
            run_reduce_mode("stubborn", &net, true, &budget),
            run_reduce_mode("reduced", &reduced, false, &budget),
            run_reduce_mode("reduced+stubborn", &reduced, true, &budget),
        ];
        let factor = modes[0].states as f64 / modes[3].states.max(1) as f64;
        // Both techniques preserve deadlock freedom (reduction only when
        // no transition was pruned as stranded — cip chains never are).
        let deadlock_free_agrees = stats.stranded_transitions == 0
            && modes
                .iter()
                .all(|m| m.deadlock_free == modes[0].deadlock_free);
        rows.push(Row {
            family: format!("cip_chain/{modules}"),
            places: net.place_count(),
            transitions: net.transition_count(),
            reduced_places: reduced.place_count(),
            reduced_transitions: reduced.transition_count(),
            stats,
            reduce_seconds,
            modes,
            factor,
            deadlock_free_agrees,
        });
    }

    for r in &rows {
        println!(
            "{}: {}p/{}t -> {}p/{}t after {} reductions ({:.4} s to reduce)",
            r.family,
            r.places,
            r.transitions,
            r.reduced_places,
            r.reduced_transitions,
            r.stats.total(),
            r.reduce_seconds
        );
        for m in &r.modes {
            println!(
                "  {:<17} {:>9} states  {:>9.4} s  deadlock-free: {}",
                m.mode, m.states, m.seconds, m.deadlock_free
            );
        }
        println!(
            "  -> explored-state reduction {:.1}x (reduced+stubborn vs full), \
             verdicts agree: {}",
            r.factor, r.deadlock_free_agrees
        );
    }

    if json {
        let mut out = String::from("{\n  \"bench\": \"reduce_stubborn\",\n");
        out.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if quick { "quick" } else { "full" }
        ));
        out.push_str("  \"workloads\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\n      \"family\": \"{}\",\n      \"places\": {},\n      \
                 \"transitions\": {},\n      \"reduced_places\": {},\n      \
                 \"reduced_transitions\": {},\n      \"reductions\": {{\
                 \"series_places\": {}, \"series_transitions\": {}, \
                 \"self_loop_places\": {}, \"duplicate_transitions\": {}, \
                 \"redundant_places\": {}, \"stranded_transitions\": {}, \
                 \"isolated_places\": {}, \"total\": {}}},\n      \
                 \"reduce_seconds\": {:.6},\n      \"modes\": [\n",
                r.family,
                r.places,
                r.transitions,
                r.reduced_places,
                r.reduced_transitions,
                r.stats.series_places,
                r.stats.series_transitions,
                r.stats.self_loop_places,
                r.stats.duplicate_transitions,
                r.stats.redundant_places,
                r.stats.stranded_transitions,
                r.stats.isolated_places,
                r.stats.total(),
                r.reduce_seconds,
            ));
            for (j, m) in r.modes.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"mode\": \"{}\", \"states\": {}, \"seconds\": {:.4}, \
                     \"deadlock_free\": {}}}{}\n",
                    m.mode,
                    m.states,
                    m.seconds,
                    m.deadlock_free,
                    if j + 1 < r.modes.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "      ],\n      \"state_reduction_factor\": {:.2},\n      \
                 \"deadlock_free_agrees\": {}\n    }}{}\n",
                r.factor,
                r.deadlock_free_agrees,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write("BENCH_reduce.json", &out).expect("write BENCH_reduce.json");
        println!("wrote BENCH_reduce.json");
    }
}

/// One module-stack recompile measurement: a cold build of the full
/// balanced compose plan against a fresh derivation store, then a
/// single-leaf edit and a warm re-run against the same store.
struct ModulesRow {
    family: String,
    leaves: usize,
    plan_steps: usize,
    spine: usize,
    cold_seconds: f64,
    incremental_seconds: f64,
    cold_misses: u64,
    incremental_hits: u64,
    incremental_misses: u64,
}

impl ModulesRow {
    /// Incremental time as a fraction of cold time.
    fn ratio(&self) -> f64 {
        if self.cold_seconds > 0.0 {
            self.incremental_seconds / self.cold_seconds
        } else {
            0.0
        }
    }
}

fn measure_modules(mut sc: cpn_testkit::ModuleScenario) -> ModulesRow {
    use cpn_petri::Bounded;

    let budget = cpn_petri::Budget::new(usize::MAX, usize::MAX);
    let leaves = sc.leaves.clone();
    let name = sc.name.clone();
    let plan_steps = sc.plan.len();
    let spine = sc.spine_len(0);

    let t0 = Instant::now();
    let cold_top = sc.run(&leaves, &budget).expect("cold compose plan");
    let cold_seconds = t0.elapsed().as_secs_f64();
    assert!(
        matches!(cold_top, Bounded::Complete(_)),
        "{name}: cold build exhausted an unbounded budget"
    );
    let cold_misses = sc.lib.store().stats().misses;

    let edited = sc.edited_leaf(0);
    let mut patched = leaves.clone();
    patched[0] = edited;
    sc.lib.store_mut().reset_counters();
    let t1 = Instant::now();
    sc.run(&patched, &budget).expect("incremental compose plan");
    let incremental_seconds = t1.elapsed().as_secs_f64();
    let warm = sc.lib.store().stats();

    ModulesRow {
        family: name,
        leaves: leaves.len(),
        plan_steps,
        spine,
        cold_seconds,
        incremental_seconds,
        cold_misses,
        incremental_hits: warm.hits,
        incremental_misses: warm.misses,
    }
}

/// `bench` (modules): cold-vs-incremental recompile sweep over the
/// testkit's module-stack scenarios. The headline acceptance number is
/// the 1000-leaf translator chain: a single-leaf edit must recompile
/// in well under 5% of the cold-build time, because the balanced plan
/// confines recomputation to the `⌈log₂ n⌉`-node spine.
fn bench_modules(quick: bool, json: bool) {
    header(
        "BENCH",
        "module library cold vs incremental recompile (hash-consed derivation store)",
    );
    let chains: &[usize] = if quick { &[64, 256] } else { &[64, 256, 1000] };
    let mut rows = Vec::new();
    for &n in chains {
        rows.push(measure_modules(
            cpn_testkit::ModuleScenario::translator_chain(n),
        ));
    }
    rows.push(measure_modules(
        cpn_testkit::ModuleScenario::handshake_mesh(if quick { 4 } else { 8 }, 2),
    ));
    rows.push(measure_modules(cpn_testkit::ModuleScenario::arbiter_tree(
        if quick { 3 } else { 4 },
    )));

    for r in &rows {
        println!(
            "{}: {} leaves, {} compose steps, spine {}",
            r.family, r.leaves, r.plan_steps, r.spine
        );
        println!(
            "  cold {:>9.4} s ({} store misses)   incremental {:>9.4} s \
             ({} hits / {} misses)   ratio {:.3}%",
            r.cold_seconds,
            r.cold_misses,
            r.incremental_seconds,
            r.incremental_hits,
            r.incremental_misses,
            100.0 * r.ratio()
        );
    }

    if json {
        let mut out = String::from("{\n  \"bench\": \"modules\",\n");
        out.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if quick { "quick" } else { "full" }
        ));
        out.push_str("  \"workloads\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\n      \"family\": \"{}\",\n      \"leaves\": {},\n      \
                 \"plan_steps\": {},\n      \"spine\": {},\n      \
                 \"cold_seconds\": {:.6},\n      \"incremental_seconds\": {:.6},\n      \
                 \"cold_misses\": {},\n      \"incremental_hits\": {},\n      \
                 \"incremental_misses\": {},\n      \"incremental_ratio\": {:.6}\n    }}{}\n",
                r.family,
                r.leaves,
                r.plan_steps,
                r.spine,
                r.cold_seconds,
                r.incremental_seconds,
                r.cold_misses,
                r.incremental_hits,
                r.incremental_misses,
                r.ratio(),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write("BENCH_modules.json", &out).expect("write BENCH_modules.json");
        println!("wrote BENCH_modules.json");
    }
}

/// `smoke-incremental`: the CI gate for the derivation store. Builds a
/// fixed 256-module translator chain cold, edits one leaf, re-runs the
/// plan, and asserts *by store counters* (not timing, which would be
/// flaky on shared runners) that untouched modules were not
/// recompiled: every non-spine compose node must replay from the memo.
fn smoke_incremental() {
    use cpn_petri::Bounded;

    header(
        "SMOKE",
        "incremental recompile: 1-leaf edit of a 256-module stack",
    );
    let n = 256;
    let mut sc = cpn_testkit::ModuleScenario::translator_chain(n);
    let budget = cpn_petri::Budget::new(usize::MAX, usize::MAX);
    let leaves = sc.leaves.clone();
    let top = sc.run(&leaves, &budget).expect("cold compose plan");
    assert!(matches!(top, Bounded::Complete(_)), "cold build exhausted");

    let edited = sc.edited_leaf(0);
    let mut patched = leaves.clone();
    patched[0] = edited;
    sc.lib.store_mut().reset_counters();
    sc.run(&patched, &budget).expect("incremental compose plan");

    let spine = sc.spine_len(0);
    let stats = sc.lib.store().stats();
    let untouched = (sc.plan.len() - spine) as u64;
    assert_eq!(
        stats.hits, untouched,
        "every untouched compose node must replay from the memo \
         (hits {} != untouched nodes {untouched})",
        stats.hits
    );
    assert_eq!(
        stats.misses,
        4 * spine as u64,
        "only the {spine}-node spine may recompute (compose + parallel \
         + hide + reduce each)"
    );
    println!(
        "  ok: {} untouched nodes replayed, {} spine nodes recomputed ({} memo misses)",
        untouched, spine, stats.misses
    );
}

/// `serve`: boot an in-process `cpn-serve` daemon on loopback TCP and
/// measure the service-level numbers the robustness work claims —
/// cached-compile round-trip latency and throughput, deadline-bounded
/// degradation of an explosive request while small requests keep
/// completing on the other workers, and graceful-drain time.
/// The fastest of `n` timed attempts. On a small busy host a single
/// measurement can absorb a scheduler stall several times the workload
/// itself; the minimum is the standard noise-free estimate, and taking
/// it for *every* row keeps the reported ratios symmetric.
fn best_of(n: usize, mut attempt: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| attempt()).fold(f64::INFINITY, f64::min)
}

fn bench_serve(quick: bool, json: bool) {
    use cpn_serve::{Client, Endpoint, PipelinedClient, Request, Response, Server, ServerConfig};
    use std::time::{Duration, Instant};

    let small_net = r#"net small {
    places { p* q }
    transition "a" { pre: p; post: q }
    transition "b" { pre: q; post: p }
}"#;
    // `toggles` independent flip-flops: 2^toggles reachable states,
    // far beyond what a 50 ms deadline can finish.
    let toggles = if quick { 18usize } else { 22 };
    let mut boom_doc = String::from("net boom {\n    places {");
    for i in 0..toggles {
        boom_doc.push_str(&format!(" a{i}* b{i}"));
    }
    boom_doc.push_str(" }\n");
    for i in 0..toggles {
        boom_doc.push_str(&format!(
            "    transition \"up{i}\" {{ pre: a{i}; post: b{i} }}\n"
        ));
        boom_doc.push_str(&format!(
            "    transition \"down{i}\" {{ pre: b{i}; post: a{i} }}\n"
        ));
    }
    boom_doc.push('}');

    let config = ServerConfig {
        workers: 4,
        // Deep enough that the pipeline-depth sweep (window up to 16)
        // never sheds; shedding behaviour has its own measurements.
        queue_depth: 64,
        default_deadline: Duration::from_secs(10),
        drain_grace: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = Server::bind(&[Endpoint::Tcp("127.0.0.1:0".into())], config).expect("bind");
    let ep = server.local_endpoints().expect("endpoints").remove(0);
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let reach = |deadline_ms| Request::Reach {
        net: "small".into(),
        max_states: 1_000,
        deadline_ms,
        threads: 1,
        stream: false,
        doc: small_net.into(),
    };
    let expect_complete = |resp: Response| match resp {
        Response::Result(s) => assert!(s.is_complete()),
        other => panic!("unexpected response: {other:?}"),
    };
    let requests = if quick { 200usize } else { 2_000 };
    let mut client = Client::connect(&ep).expect("connect");
    client
        .request(&reach(None))
        .expect("warm the compile cache");

    let started = Instant::now();
    let mut latencies = Vec::with_capacity(requests);
    for _ in 0..requests {
        let t = Instant::now();
        match client.request(&reach(None)).expect("reach") {
            Response::Result(s) => assert!(s.is_complete()),
            other => panic!("unexpected response: {other:?}"),
        }
        latencies.push(t.elapsed().as_secs_f64());
    }
    let round_trip_seconds = started.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    let rps = requests as f64 / round_trip_seconds;
    let p50_us = latencies[requests / 2] * 1e6;
    let p99_us = latencies[(requests * 99) / 100] * 1e6;

    // Batch-size sweep: the same 64 cached reaches as 64 sequential
    // round trips vs batches of 1/8/64. The per-item compute is
    // microseconds, so the ratio isolates the per-round-trip overhead
    // (syscalls, scheduling, wire turnarounds) the batch path amortizes.
    let batch_total = 64usize;
    let seq64_seconds = best_of(3, || {
        let t = Instant::now();
        for _ in 0..batch_total {
            expect_complete(client.request(&reach(None)).expect("sequential baseline"));
        }
        t.elapsed().as_secs_f64()
    });
    let mut batch_rows: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &size in &[1usize, 8, 64] {
        let rounds = batch_total / size;
        let secs = best_of(3, || {
            let t = Instant::now();
            for _ in 0..rounds {
                let items: Vec<Request> = (0..size).map(|_| reach(None)).collect();
                let resps = client.batch(items, Some(10_000)).expect("batch");
                assert_eq!(resps.len(), size);
                for resp in resps {
                    expect_complete(resp);
                }
            }
            t.elapsed().as_secs_f64()
        });
        batch_rows.push((size, secs, batch_total as f64 / secs, seq64_seconds / secs));
    }

    // Pipeline-depth sweep: the same request stream through a window of
    // 1/4/8/16 in-flight requests. Depth 1 is lock-step; deeper windows
    // keep the pipe full instead of stalling a full round trip per
    // request.
    let pipe_total = if quick { 192usize } else { 768 };
    let mut pipe_rows: Vec<(usize, f64, f64)> = Vec::new();
    for &depth in &[1usize, 4, 8, 16] {
        let secs = best_of(3, || {
            let mut pc = PipelinedClient::connect(&ep, depth).expect("pipelined connect");
            let t = Instant::now();
            for _ in 0..pipe_total {
                pc.submit(&reach(None)).expect("submit");
            }
            let done = pc.drain().expect("drain");
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(done.len(), pipe_total);
            for (_, resp) in done {
                expect_complete(resp);
            }
            secs
        });
        pipe_rows.push((depth, secs, pipe_total as f64 / secs));
    }
    let batch64_speedup = batch_rows.last().map_or(0.0, |r| r.3);
    let depth1_seconds = pipe_rows[0].1;
    let depth8_speedup = depth1_seconds / pipe_rows[2].1;

    let boom_ep = ep.clone();
    let boom = std::thread::spawn(move || {
        let mut c = Client::connect(&boom_ep).expect("connect");
        let t = Instant::now();
        let resp = c
            .request(&Request::Reach {
                net: "boom".into(),
                max_states: 500_000_000,
                deadline_ms: Some(50),
                threads: 1,
                stream: false,
                doc: boom_doc,
            })
            .expect("explosive reach");
        (resp, t.elapsed().as_secs_f64())
    });
    let mut concurrent_small: Vec<f64> = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        match client.request(&reach(Some(5_000))).expect("small reach") {
            Response::Result(s) => assert!(s.is_complete()),
            other => panic!("unexpected response: {other:?}"),
        }
        concurrent_small.push(t.elapsed().as_secs_f64());
    }
    let (boom_resp, boom_seconds) = boom.join().expect("boom thread");
    let (boom_states, boom_stopped) = match boom_resp {
        Response::Result(s) => (s.states, s.stopped.unwrap_or_default()),
        other => panic!("expected a partial Result, got {other:?}"),
    };
    let worst_small_ms = concurrent_small.iter().copied().fold(0.0f64, f64::max) * 1e3;

    drop(client);
    let drain_started = Instant::now();
    handle.begin_drain();
    let stats = join.join().expect("server run");
    let drain_seconds = drain_started.elapsed().as_secs_f64();

    println!(
        "serve: {requests} cached reach round-trips in {round_trip_seconds:.3} s \
         ({rps:.0} req/s, p50 {p50_us:.0} us, p99 {p99_us:.0} us)"
    );
    for (size, secs, brps, speedup) in &batch_rows {
        println!(
            "serve: batch size {size:>2}: {batch_total} reaches in {secs:.4} s \
             ({brps:.0} req/s, {speedup:.1}x vs sequential)"
        );
    }
    for (depth, secs, prps) in &pipe_rows {
        println!(
            "serve: pipeline depth {depth:>2}: {pipe_total} reaches in {secs:.4} s \
             ({prps:.0} req/s)"
        );
    }
    println!(
        "serve: batch-64 speedup {batch64_speedup:.1}x, pipeline depth-8 speedup \
         {depth8_speedup:.1}x"
    );
    println!(
        "serve: explosive 2^{toggles}-state net under a 50 ms deadline -> {boom_states} \
         states (stopped={boom_stopped}) in {boom_seconds:.3} s; worst concurrent small \
         round-trip {worst_small_ms:.1} ms"
    );
    println!(
        "serve: drain {drain_seconds:.3} s; served={} shed={} panics={} \
         cache_hits={} cache_misses={}",
        stats.served, stats.shed, stats.panics, stats.cache_hits, stats.cache_misses
    );

    if json {
        let mut batch_json = String::new();
        for (i, (size, secs, brps, speedup)) in batch_rows.iter().enumerate() {
            batch_json.push_str(&format!(
                "    {{\"size\": {size}, \"requests\": {batch_total}, \"seconds\": {secs:.4}, \
                 \"requests_per_second\": {brps:.0}, \"speedup_vs_sequential\": \
                 {speedup:.2}}}{}\n",
                if i + 1 < batch_rows.len() { "," } else { "" }
            ));
        }
        let mut pipe_json = String::new();
        for (i, (depth, secs, prps)) in pipe_rows.iter().enumerate() {
            pipe_json.push_str(&format!(
                "    {{\"depth\": {depth}, \"requests\": {pipe_total}, \"seconds\": {secs:.4}, \
                 \"requests_per_second\": {prps:.0}}}{}\n",
                if i + 1 < pipe_rows.len() { "," } else { "" }
            ));
        }
        let out = format!(
            "{{\n  \"bench\": \"serve\",\n  \"mode\": \"{}\",\n  \
             \"round_trip\": {{\"requests\": {}, \"seconds\": {:.4}, \
             \"requests_per_second\": {:.0}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}},\n  \
             \"sequential_64_seconds\": {:.4},\n  \
             \"batch_sweep\": [\n{}  ],\n  \
             \"batch64_speedup\": {:.2},\n  \
             \"pipeline_sweep\": [\n{}  ],\n  \
             \"pipeline_depth8_speedup\": {:.2},\n  \
             \"deadline_degradation\": {{\"toggles\": {}, \"deadline_ms\": 50, \
             \"partial_states\": {}, \"stopped\": \"{}\", \"seconds\": {:.4}, \
             \"worst_concurrent_small_ms\": {:.2}}},\n  \
             \"drain_seconds\": {:.4},\n  \
             \"stats\": {{\"accepted\": {}, \"served\": {}, \"shed\": {}, \"panics\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"workers_joined\": {}}}\n}}\n",
            if quick { "quick" } else { "full" },
            requests,
            round_trip_seconds,
            rps,
            p50_us,
            p99_us,
            seq64_seconds,
            batch_json,
            batch64_speedup,
            pipe_json,
            depth8_speedup,
            toggles,
            boom_states,
            boom_stopped,
            boom_seconds,
            worst_small_ms,
            drain_seconds,
            stats.accepted,
            stats.served,
            stats.shed,
            stats.panics,
            stats.cache_hits,
            stats.cache_misses,
            stats.workers_joined,
        );
        std::fs::write("BENCH_serve.json", &out).expect("write BENCH_serve.json");
        println!("wrote BENCH_serve.json");
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    if args.iter().any(|a| a == "bench") {
        bench_explore(quick, json);
        bench_hide(quick, json);
        bench_alphabet(quick, json);
        bench_reduce(quick, json);
        bench_modules(quick, json);
        return;
    }
    if args.iter().any(|a| a == "modules") {
        bench_modules(quick, json);
        return;
    }
    if args.iter().any(|a| a == "smoke-incremental") {
        smoke_incremental();
        return;
    }
    if args.iter().any(|a| a == "serve") {
        bench_serve(quick, json);
        return;
    }
    let run = |id: &str| args.is_empty() || args.iter().any(|a| a == id);
    if run("fig1") {
        fig1();
    }
    if run("fig2") {
        fig2();
    }
    if run("fig3") {
        fig3();
    }
    if run("table1") {
        table1();
    }
    if run("fig4") {
        fig4();
    }
    if run("fig5") || run("fig6") || run("fig7") {
        fig567();
    }
    if run("fig8") {
        fig8();
    }
    if run("fig9") {
        fig9();
    }
    if run("expansion") {
        expansion();
    }
    if run("abl1") {
        abl1();
    }
    if run("abl2") {
        abl2();
    }
    if run("props") {
        props();
    }
    if run("ext1") {
        ext_arbiter();
    }
    if run("faults") {
        faults(quick);
    }
    println!();
}
