//! Regenerates every figure and table of the paper and prints the rows
//! recorded in `EXPERIMENTS.md`.
//!
//! Usage: `cargo run --release -p cpn-bench --bin experiments [id…]`
//! where `id` ∈ {fig1, fig2, fig3, table1, fig4, fig5, fig6, fig7,
//! fig8, fig9, expansion, abl1, abl2, props, ext1, faults}; no argument
//! runs everything. `faults` honours `--quick` (2 trials per class
//! instead of 8) for CI smoke runs.
//!
//! `smoke-incremental` (never part of the default set) is the
//! derivation store's counter gate: it builds four module stacks cold,
//! edits one leaf of each, and asserts the store's exact hit and miss
//! counts. Timing lives in the `cpnbench` benchmark and the `cargo
//! bench` harnesses.

use cpn_bench::{cycle_net, fig2_left, fig2_right, handshake_ring, tau_chain};
use cpn_cip::protocol::{protocol_cip, protocol_cip_restricted};
use cpn_cip::HandshakeProtocol;
use cpn_core::{
    check_receptiveness, check_receptiveness_structural_mg, choice, hide_label, parallel,
    parallel_tracked_common,
};
use cpn_petri::{Bounded, Budget, Label, PetriNet, ReachabilityGraph};
use cpn_sim::monitor_composition;
use cpn_stg::protocol::{
    receiver, sender, sender_inconsistent, sender_restricted, translator, RECEIVER_COMMANDS,
    SENDER_COMMANDS,
};
use cpn_stg::{StateGraph, Stg};
use cpn_testkit::ModuleScenario;
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

/// `smoke-incremental`: the CI gate for the derivation store. Builds
/// each module stack cold, edits one leaf, re-runs the plan, and asserts
/// *by store counters* (not timing, which would be flaky on shared
/// runners) that untouched modules were not recompiled: every
/// non-spine compose node must replay from the memo.
fn smoke_incremental() {
    header(
        "SMOKE",
        "incremental recompile: 1-leaf edit of four module stacks",
    );
    let budget = Budget::unlimited();
    for mut sc in [
        ModuleScenario::translator_chain(64),
        ModuleScenario::translator_chain(256),
        ModuleScenario::handshake_mesh(4, 2),
        ModuleScenario::arbiter_tree(3),
    ] {
        let leaves = sc.leaves.clone();
        let top = sc.run(&leaves, &budget).expect("cold compose plan");
        assert!(top.is_complete(), "{}: cold build exhausted", sc.name);
        // One instantiation per leaf, plus compose, parallel, hide and
        // reduce at each of the `leaves - 1` compose nodes.
        let steps = sc.plan.len() as u64;
        let cold = sc.lib.store().stats();
        assert_eq!(
            cold.misses,
            5 * steps + 1,
            "{}: a cold build derives every node once",
            sc.name
        );

        let mut patched = leaves.clone();
        patched[0] = sc.edited_leaf(0);
        sc.lib.store_mut().reset_counters();
        sc.run(&patched, &budget).expect("incremental compose plan");

        let spine = sc.spine_len(0) as u64;
        let warm = sc.lib.store().stats();
        assert_eq!(
            warm.hits,
            steps - spine,
            "{}: every untouched compose node must replay from the memo",
            sc.name
        );
        assert_eq!(
            warm.misses,
            4 * spine,
            "{}: only the {spine}-node spine may recompute (compose + parallel \
             + hide + reduce each)",
            sc.name
        );
        println!(
            "  ok: {}: {} cold misses; edit replayed {} untouched nodes, \
             recomputed {spine} spine nodes ({} memo misses)",
            sc.name, cold.misses, warm.hits, warm.misses
        );
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    if args.iter().any(|a| a == "smoke-incremental") {
        smoke_incremental();
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
