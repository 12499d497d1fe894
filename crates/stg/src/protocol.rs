//! The paper's Section 6 design example: a simplified I²C-style protocol
//! translation system (Figures 4–9, Table 1).
//!
//! Three modules:
//!
//! * **sender** (Figure 5) — converts environment *transition-signalling*
//!   commands (`rec~`, `reset~`, `send0~`, `send1~`) into a 4-phase
//!   two-wire code toward the translator (Table 1a): two of
//!   `a0/a1/b0/b1` rise, the translator acknowledges on `n`, the wires
//!   return to zero, `n` falls.
//! * **protocol translator** (Figure 7) — initially sends `start` to the
//!   receiver; then serves sender commands: `reset`/`send0`/`send1` map
//!   to `start`/`zero`/`one`; `rec` samples the `DATA`/`STROBE` lines
//!   once they stabilize (boolean guards — the Section 2.2 extension)
//!   and sends `start`/`mute`/`zero`/`one` accordingly, after which the
//!   lines may go unstable again.
//! * **receiver** (Figure 6) — converts the translator's 4-phase code on
//!   `p0/p1/q0/q1` (Table 1b, acknowledge `r`) back into transition
//!   signalling (`start~`, `mute~`, `zero~`, `one~`).
//!
//! Also provided: the **inconsistent** sender of Figure 8 (drops its
//! wires without waiting for `n+` — detected by the receptiveness check)
//! and the **restricted** sender of Figure 9(a) (never issues `rec`),
//! from which the simplified translator and receiver of Figures 9(b,c)
//! are *derived* by compositional synthesis.
//!
//! The level mapping for the `rec` response is fixed as
//! `(STROBE, DATA) = (0,0)→start, (0,1)→mute, (1,0)→zero, (1,1)→one`
//! (the paper does not pin the table; any bijection exercises the same
//! machinery).

use crate::signal::{Edge, Signal, SignalDir};
use crate::stg::{Guard, Stg, StgError};
use cpn_petri::PlaceId;

/// Table 1(a): sender command → the two wires that rise.
pub const SENDER_COMMANDS: [(&str, &str, &str); 4] = [
    ("rec", "a0", "b0"),
    ("reset", "a0", "b1"),
    ("send0", "a1", "b0"),
    ("send1", "a1", "b1"),
];

/// Table 1(b): receiver command → the two wires that rise.
pub const RECEIVER_COMMANDS: [(&str, &str, &str); 4] = [
    ("start", "p0", "q0"),
    ("mute", "p0", "q1"),
    ("zero", "p1", "q0"),
    ("one", "p1", "q1"),
];

/// The `(STROBE, DATA) → receiver command` sampling table used by the
/// translator's `rec` branch.
pub const LINE_TABLE: [((bool, bool), &str); 4] = [
    ((false, false), "start"),
    ((false, true), "mute"),
    ((true, false), "zero"),
    ((true, true), "one"),
];

fn declare_wires(stg: &mut Stg, names: &[&str], dir: SignalDir) -> Vec<Signal> {
    names.iter().map(|n| stg.add_signal(*n, dir)).collect()
}

/// One sender command branch (Figure 5b/c): toggle, both wires rise,
/// `n+`, both wires fall, `n-`, back to idle.
fn sender_branch(
    stg: &mut Stg,
    idle: PlaceId,
    cmd: &str,
    wa: &str,
    wb: &str,
) -> Result<(), StgError> {
    let cmd_sig = Signal::new(cmd);
    let wa = Signal::new(wa);
    let wb = Signal::new(wb);
    let n = Signal::new("n");
    let ua = stg.add_place(format!("{cmd}.ua"));
    let ub = stg.add_place(format!("{cmd}.ub"));
    let ha = stg.add_place(format!("{cmd}.ha"));
    let hb = stg.add_place(format!("{cmd}.hb"));
    let da = stg.add_place(format!("{cmd}.da"));
    let db = stg.add_place(format!("{cmd}.db"));
    let la = stg.add_place(format!("{cmd}.la"));
    let lb = stg.add_place(format!("{cmd}.lb"));
    stg.add_signal_transition([idle], (cmd_sig, Edge::Toggle), [ua, ub])?;
    stg.add_signal_transition([ua], (wa.clone(), Edge::Rise), [ha])?;
    stg.add_signal_transition([ub], (wb.clone(), Edge::Rise), [hb])?;
    stg.add_signal_transition([ha, hb], (n.clone(), Edge::Rise), [da, db])?;
    stg.add_signal_transition([da], (wa, Edge::Fall), [la])?;
    stg.add_signal_transition([db], (wb, Edge::Fall), [lb])?;
    stg.add_signal_transition([la, lb], (n, Edge::Fall), [idle])?;
    Ok(())
}

fn sender_shell() -> (Stg, PlaceId) {
    let mut stg = Stg::new();
    for (cmd, _, _) in SENDER_COMMANDS {
        stg.add_signal(cmd, SignalDir::Input);
    }
    declare_wires(&mut stg, &["a0", "a1", "b0", "b1"], SignalDir::Output);
    stg.add_signal("n", SignalDir::Input);
    let idle = stg.add_place("idle");
    stg.set_initial(idle, 1);
    (stg, idle)
}

/// The sender of Figure 5: all four commands, correct 4-phase protocol.
///
/// # Panics
///
/// Panics on a model-construction bug (cannot occur).
pub fn sender() -> Stg {
    match try_sender() {
        Ok(stg) => stg,
        Err(e) => panic!("sender model construction: {e}"),
    }
}

fn try_sender() -> Result<Stg, StgError> {
    let (mut stg, idle) = sender_shell();
    for (cmd, wa, wb) in SENDER_COMMANDS {
        sender_branch(&mut stg, idle, cmd, wa, wb)?;
    }
    Ok(stg)
}

/// The **restricted** sender of Figure 9(a): `rec` is never issued. The
/// wires and the `rec` toggle stay in the interface (the alphabet keeps
/// them), which is what lets compositional synthesis prove the
/// translator's `rec` handling dead.
pub fn sender_restricted() -> Stg {
    match try_sender_restricted() {
        Ok(stg) => stg,
        Err(e) => panic!("restricted sender model construction: {e}"),
    }
}

fn try_sender_restricted() -> Result<Stg, StgError> {
    let (mut stg, idle) = sender_shell();
    for (cmd, wa, wb) in SENDER_COMMANDS.iter().skip(1) {
        sender_branch(&mut stg, idle, cmd, wa, wb)?;
    }
    Ok(stg)
}

/// The **inconsistent** sender of Figure 8: the wires rise and fall
/// without waiting for the `n+` acknowledge, violating the 4-phase
/// protocol the translator assumes.
pub fn sender_inconsistent() -> Stg {
    match try_sender_inconsistent() {
        Ok(stg) => stg,
        Err(e) => panic!("inconsistent sender model construction: {e}"),
    }
}

fn try_sender_inconsistent() -> Result<Stg, StgError> {
    let (mut stg, idle) = sender_shell();
    let n = Signal::new("n");
    for (cmd, wa, wb) in SENDER_COMMANDS {
        let cmd_sig = Signal::new(cmd);
        let wa = Signal::new(wa);
        let wb = Signal::new(wb);
        let ua = stg.add_place(format!("{cmd}.ua"));
        let ub = stg.add_place(format!("{cmd}.ub"));
        let ma = stg.add_place(format!("{cmd}.ma"));
        let mb = stg.add_place(format!("{cmd}.mb"));
        let la = stg.add_place(format!("{cmd}.la"));
        let lb = stg.add_place(format!("{cmd}.lb"));
        let w = stg.add_place(format!("{cmd}.w"));
        stg.add_signal_transition([idle], (cmd_sig, Edge::Toggle), [ua, ub])?;
        stg.add_signal_transition([ua], (wa.clone(), Edge::Rise), [ma])?;
        stg.add_signal_transition([ma], (wa, Edge::Fall), [la])?;
        stg.add_signal_transition([ub], (wb.clone(), Edge::Rise), [mb])?;
        stg.add_signal_transition([mb], (wb, Edge::Fall), [lb])?;
        stg.add_signal_transition([la, lb], (n.clone(), Edge::Rise), [w])?;
        stg.add_signal_transition([w], (n.clone(), Edge::Fall), [idle])?;
    }
    Ok(stg)
}

/// A 4-phase two-wire transmission toward the receiver (used by the
/// translator): take the link mutex, fork, raise `wp`/`wq`, wait `r+`,
/// lower them, wait `r-` (which releases the mutex). Ends by marking
/// `exit`.
///
/// The mutex serializes transmissions so that the translator may keep
/// listening to the sender while a transmission is in flight (the
/// environment is free to issue the next command at any time — without
/// the overlap the composition would have a spurious receptiveness
/// race on the command wires).
fn xmit(
    stg: &mut Stg,
    tag: &str,
    link: PlaceId,
    entry: PlaceId,
    exit: &[PlaceId],
    wp: &str,
    wq: &str,
) -> Result<(), StgError> {
    let wp = Signal::new(wp);
    let wq = Signal::new(wq);
    let r = Signal::new("r");
    let up = stg.add_place(format!("{tag}.up"));
    let uq = stg.add_place(format!("{tag}.uq"));
    let hp = stg.add_place(format!("{tag}.hp"));
    let hq = stg.add_place(format!("{tag}.hq"));
    let dp = stg.add_place(format!("{tag}.dp"));
    let dq = stg.add_place(format!("{tag}.dq"));
    let lp = stg.add_place(format!("{tag}.lp"));
    let lq = stg.add_place(format!("{tag}.lq"));
    stg.add_dummy([entry, link], [up, uq])?;
    stg.add_signal_transition([up], (wp.clone(), Edge::Rise), [hp])?;
    stg.add_signal_transition([uq], (wq.clone(), Edge::Rise), [hq])?;
    stg.add_signal_transition([hp, hq], (r.clone(), Edge::Rise), [dp, dq])?;
    stg.add_signal_transition([dp], (wp, Edge::Fall), [lp])?;
    stg.add_signal_transition([dq], (wq, Edge::Fall), [lq])?;
    let mut full_exit: Vec<PlaceId> = exit.to_vec();
    full_exit.push(link);
    stg.add_signal_transition([lp, lq], (r, Edge::Fall), full_exit)?;
    Ok(())
}

/// The protocol translator of Figure 7.
///
/// Listening is re-armed by each transaction's final transition (no ε
/// between "ready" and the input wires), so the consistent system has no
/// spurious receptiveness race.
pub fn translator() -> Stg {
    match try_translator() {
        Ok(stg) => stg,
        Err(e) => panic!("translator model construction: {e}"),
    }
}

fn try_translator() -> Result<Stg, StgError> {
    let mut stg = Stg::new();
    declare_wires(&mut stg, &["a0", "a1", "b0", "b1"], SignalDir::Input);
    let data = stg.add_signal("DATA", SignalDir::Input);
    let strobe = stg.add_signal("STROBE", SignalDir::Input);
    stg.add_signal("r", SignalDir::Input);
    stg.add_signal("n", SignalDir::Output);
    declare_wires(&mut stg, &["p0", "p1", "q0", "q1"], SignalDir::Output);

    // Listening posts for the two wire groups — armed from the start, so
    // a command arriving during the initial transmission is accepted.
    let wa = stg.add_place("wA");
    let wb = stg.add_place("wB");
    stg.set_initial(wa, 1);
    stg.set_initial(wb, 1);

    // The receiver-link mutex: one transmission in flight at a time.
    let link = stg.add_place("link");
    stg.set_initial(link, 1);

    // Initial start transmission.
    let init = stg.add_place("init");
    stg.set_initial(init, 1);
    let init_done = stg.add_place("init.done");
    xmit(&mut stg, "init.start", link, init, &[init_done], "p0", "q0")?;

    // Detection: which wire of each group rises.
    let ga0 = stg.add_place("gA0");
    let ga1 = stg.add_place("gA1");
    let gb0 = stg.add_place("gB0");
    let gb1 = stg.add_place("gB1");
    stg.add_signal_transition([wa], (Signal::new("a0"), Edge::Rise), [ga0])?;
    stg.add_signal_transition([wa], (Signal::new("a1"), Edge::Rise), [ga1])?;
    stg.add_signal_transition([wb], (Signal::new("b0"), Edge::Rise), [gb0])?;
    stg.add_signal_transition([wb], (Signal::new("b1"), Edge::Rise), [gb1])?;

    // Command joins. The response is transmitted *before* the `n+`
    // acknowledge: delaying one's own output is always receptive, so the
    // link mutex exerts back-pressure on the sender without ever leaving
    // it committed to an output the translator cannot accept. `n-`
    // re-arms the listening posts atomically with the sender's return to
    // idle (the transitions are fused in the composition), closing the
    // race window on the command wires.
    let finish = |stg: &mut Stg,
                  cmd: &str,
                  cwa: &str,
                  cwb: &str,
                  pre_ack: PlaceId|
     -> Result<(), StgError> {
        let fa = stg.add_place(format!("tr.{cmd}.fa"));
        let fb = stg.add_place(format!("tr.{cmd}.fb"));
        let la = stg.add_place(format!("tr.{cmd}.la"));
        let lb = stg.add_place(format!("tr.{cmd}.lb"));
        stg.add_signal_transition([pre_ack], (Signal::new("n"), Edge::Rise), [fa, fb])?;
        stg.add_signal_transition([fa], (Signal::new(cwa), Edge::Fall), [la])?;
        stg.add_signal_transition([fb], (Signal::new(cwb), Edge::Fall), [lb])?;
        stg.add_signal_transition([la, lb], (Signal::new("n"), Edge::Fall), [wa, wb])?;
        Ok(())
    };

    for (cmd, cwa, cwb) in SENDER_COMMANDS {
        let (g1, g2) = match (cwa, cwb) {
            ("a0", "b0") => (ga0, gb0),
            ("a0", "b1") => (ga0, gb1),
            ("a1", "b0") => (ga1, gb0),
            ("a1", "b1") => (ga1, gb1),
            _ => unreachable!("table is total"),
        };
        let c0 = stg.add_place(format!("tr.{cmd}.c0"));
        stg.add_dummy([g1, g2], [c0])?;

        if cmd == "rec" {
            // Sample DATA/STROBE once stable, transmit the mapped
            // command, let the lines go unstable, then acknowledge.
            let s1 = stg.add_place("tr.rec.s1");
            let s2 = stg.add_place("tr.rec.s2");
            stg.add_signal_transition([c0], (strobe.clone(), Edge::Stable), [s1])?;
            stg.add_signal_transition([s1], (data.clone(), Edge::Stable), [s2])?;
            for ((sv, dv), out_cmd) in LINE_TABLE {
                // LINE_TABLE values are RECEIVER_COMMANDS keys by
                // construction.
                let Some((_, wp, wq)) = RECEIVER_COMMANDS.iter().find(|(c, _, _)| *c == out_cmd)
                else {
                    continue;
                };
                let k0 = stg.add_place(format!("tr.rec.{out_cmd}.k0"));
                let sel = stg.add_dummy([s2], [k0])?;
                stg.set_guard(
                    sel,
                    Guard::new()
                        .require(strobe.clone(), sv)
                        .require(data.clone(), dv),
                );
                let end = stg.add_place(format!("tr.rec.{out_cmd}.end"));
                xmit(
                    &mut stg,
                    &format!("tr.rec.{out_cmd}"),
                    link,
                    k0,
                    &[end],
                    wp,
                    wq,
                )?;
                let u1 = stg.add_place(format!("tr.rec.{out_cmd}.u1"));
                let pre_ack = stg.add_place(format!("tr.rec.{out_cmd}.pre_ack"));
                stg.add_signal_transition([end], (strobe.clone(), Edge::Unstable), [u1])?;
                stg.add_signal_transition([u1], (data.clone(), Edge::Unstable), [pre_ack])?;
                finish(&mut stg, &format!("rec.{out_cmd}"), cwa, cwb, pre_ack)?;
            }
        } else {
            // reset → start, send0 → zero, send1 → one.
            let out_cmd = match cmd {
                "reset" => "start",
                "send0" => "zero",
                "send1" => "one",
                _ => unreachable!("rec handled above"),
            };
            let Some((_, wp, wq)) = RECEIVER_COMMANDS.iter().find(|(c, _, _)| *c == out_cmd) else {
                continue;
            };
            let pre_ack = stg.add_place(format!("tr.{cmd}.pre_ack"));
            xmit(
                &mut stg,
                &format!("tr.{cmd}.{out_cmd}"),
                link,
                c0,
                &[pre_ack],
                wp,
                wq,
            )?;
            finish(&mut stg, cmd, cwa, cwb, pre_ack)?;
        }
    }

    Ok(stg)
}

/// The receiver of Figure 6: detects the translator's two-wire code,
/// emits the transition-signalling command toward the environment, and
/// completes the 4-phase handshake on `r`.
pub fn receiver() -> Stg {
    match try_receiver() {
        Ok(stg) => stg,
        Err(e) => panic!("receiver model construction: {e}"),
    }
}

fn try_receiver() -> Result<Stg, StgError> {
    let mut stg = Stg::new();
    declare_wires(&mut stg, &["p0", "p1", "q0", "q1"], SignalDir::Input);
    stg.add_signal("r", SignalDir::Output);
    for (cmd, _, _) in RECEIVER_COMMANDS {
        stg.add_signal(cmd, SignalDir::Output);
    }
    let r = Signal::new("r");

    let wp = stg.add_place("wP");
    let wq = stg.add_place("wQ");
    stg.set_initial(wp, 1);
    stg.set_initial(wq, 1);

    let gp0 = stg.add_place("gP0");
    let gp1 = stg.add_place("gP1");
    let gq0 = stg.add_place("gQ0");
    let gq1 = stg.add_place("gQ1");
    stg.add_signal_transition([wp], (Signal::new("p0"), Edge::Rise), [gp0])?;
    stg.add_signal_transition([wp], (Signal::new("p1"), Edge::Rise), [gp1])?;
    stg.add_signal_transition([wq], (Signal::new("q0"), Edge::Rise), [gq0])?;
    stg.add_signal_transition([wq], (Signal::new("q1"), Edge::Rise), [gq1])?;

    for (cmd, cwp, cwq) in RECEIVER_COMMANDS {
        let (g1, g2) = match (cwp, cwq) {
            ("p0", "q0") => (gp0, gq0),
            ("p0", "q1") => (gp0, gq1),
            ("p1", "q0") => (gp1, gq0),
            ("p1", "q1") => (gp1, gq1),
            _ => unreachable!("table is total"),
        };
        let c = stg.add_place(format!("rx.{cmd}.c"));
        let fp = stg.add_place(format!("rx.{cmd}.fp"));
        let fq = stg.add_place(format!("rx.{cmd}.fq"));
        let lp = stg.add_place(format!("rx.{cmd}.lp"));
        let lq = stg.add_place(format!("rx.{cmd}.lq"));
        stg.add_signal_transition([g1, g2], (Signal::new(cmd), Edge::Toggle), [c])?;
        stg.add_signal_transition([c], (r.clone(), Edge::Rise), [fp, fq])?;
        stg.add_signal_transition([fp], (Signal::new(cwp), Edge::Fall), [lp])?;
        stg.add_signal_transition([fq], (Signal::new(cwq), Edge::Fall), [lq])?;
        stg.add_signal_transition([lp, lq], (r.clone(), Edge::Fall), [wp, wq])?;
    }

    Ok(stg)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::signal::StgLabel;
    use cpn_petri::{Budget, Verdict};

    #[test]
    fn sender_is_classical() {
        let s = sender();
        let rep = s.classical_report(&Budget::default()).complete().unwrap();
        assert!(rep.live, "sender live");
        assert!(rep.safe, "sender safe");
        assert!(rep.strongly_connected, "sender strongly connected");
    }

    #[test]
    fn receiver_is_classical() {
        let r = receiver();
        let rep = r.classical_report(&Budget::default()).complete().unwrap();
        assert!(rep.live && rep.safe && rep.strongly_connected);
    }

    /// The translator sends `start` once at startup (Figure 7:
    /// "initially, it sends a start command"), so its init chain is a
    /// one-shot transient — quasi-live, not L4-live. The meaningful
    /// checks are: safe, deadlock-free, nothing dead, and everything
    /// outside the init transient live.
    #[test]
    fn translator_is_safe_deadlock_free_and_live_after_init() {
        let t = translator();
        let rg = t
            .net()
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        let an = t.net().analysis(&rg);
        assert!(an.safe, "translator safe");
        assert!(an.deadlock_free, "translator deadlock-free");
        assert!(an.dead_transitions().is_empty(), "nothing dead");
        // Only the 7 init.start transitions (ε fork, two rises, r+, two
        // falls, r−) are transient.
        assert_eq!(an.non_live_transitions().len(), 7);
    }

    #[test]
    fn sender_sizes_match_structure() {
        let s = sender();
        // 4 branches × 7 transitions.
        assert_eq!(s.net().transition_count(), 28);
        assert_eq!(s.net().place_count(), 1 + 4 * 8);
        // Restricted: one branch fewer.
        assert_eq!(sender_restricted().net().transition_count(), 21);
    }

    #[test]
    fn consistent_composition_works() {
        let system = sender()
            .compose(&translator())
            .unwrap()
            .compose(&receiver())
            .unwrap()
            .remove_dead(&Budget::default())
            .complete()
            .unwrap();
        let rg = system
            .net()
            .reachability_bounded(&Budget::default())
            .complete()
            .unwrap();
        let an = system.net().analysis(&rg);
        // Section 6 claim: the composition of the consistent STGs works —
        // safe, deadlock-free, nothing dead; the only non-live
        // transitions are the one-shot initial `start` transmission.
        assert!(an.safe, "composition safe");
        assert!(an.deadlock_free, "composition deadlock-free");
        assert!(an.dead_transitions().is_empty(), "dead removal complete");
        for t in an.non_live_transitions() {
            let has_init_place = system
                .net()
                .transition(t)
                .preset()
                .iter()
                .any(|p| system.net().place(*p).name().contains("init"));
            assert!(
                has_init_place || {
                    // fused init transitions carry receiver-side places
                    // too; identify by the init.start tag instead.
                    system
                        .net()
                        .transition(t)
                        .preset()
                        .iter()
                        .any(|p| system.net().place(*p).name().contains("init.start"))
                },
                "unexpected non-live transition {t}: {}",
                system.net().label_of(t)
            );
        }
    }

    #[test]
    fn inconsistent_sender_builds() {
        let s = sender_inconsistent();
        let rep = s.classical_report(&Budget::default()).complete().unwrap();
        assert!(
            rep.live && rep.safe,
            "the inconsistent sender is fine alone"
        );
    }

    /// Figure 8 / Propositions 5.5–5.6: the consistent sender composes
    /// receptively with the translator; the inconsistent one is caught.
    #[test]
    fn receptiveness_separates_fig5_from_fig8() {
        let tr = translator();
        let good = sender()
            .check_receptiveness(&tr, &Budget::default())
            .unwrap();
        assert!(good.holds(), "consistent spec: {good:?}");

        let bad = sender_inconsistent()
            .check_receptiveness(&tr, &Budget::default())
            .unwrap();
        let Verdict::Fails(bad) = bad else {
            panic!("Figure 8 must be detected: {bad:?}");
        };
        // The failing outputs are the premature wire falls of the sender.
        assert!(bad.failures.iter().any(|f| {
            f.producer == cpn_core::Side::Left
                && matches!(&f.label, StgLabel::Signal(_, Edge::Fall))
        }));
    }

    /// Figure 9(b): reducing the translator against the restricted
    /// sender removes the whole `rec`/DATA/STROBE handling.
    #[test]
    fn fig9_simplified_translator() {
        let tr = translator();
        let reduced = tr
            .reduce_against(&sender_restricted(), &Budget::default(), 10_000)
            .unwrap()
            .complete()
            .unwrap();
        assert!(
            reduced.net().transition_count() < tr.net().transition_count(),
            "reduced {} vs original {}",
            reduced.net().transition_count(),
            tr.net().transition_count()
        );
        // No DATA/STROBE behaviour survives.
        assert!(reduced
            .net()
            .alphabet()
            .iter()
            .all(|l| l.signal_name().map(Signal::name) != Some("DATA")
                && l.signal_name().map(Signal::name) != Some("STROBE")));
        // Theorem 5.1: the reduced traces are contained in the original's
        // (over the surviving alphabet, up to a depth).
        let reduced_lang = reduced.language(5, 1_000_000).unwrap();
        let orig_lang = tr.language(7, 1_000_000).unwrap();
        let keep = reduced.net().alphabet().clone();
        let orig_proj = orig_lang.project(&keep);
        assert!(
            reduced_lang.subset_up_to(&orig_proj, 5),
            "project(L(M1‖M2), A_tr) ⊆ L(M_tr)"
        );
    }

    /// Figure 9(c): the receiver simplified against the reduced
    /// translator loses the `mute` command. The derivation uses
    /// environment-driven pruning (the translator's hidden internals form
    /// cycles the contraction operator rejects — see
    /// [`Stg::prune_against`]).
    #[test]
    fn fig9_simplified_receiver() {
        let tr_reduced = translator()
            .reduce_against(&sender_restricted(), &Budget::default(), 10_000)
            .unwrap()
            .complete()
            .unwrap();
        let rx = receiver();
        let rx_reduced = rx
            .prune_against(&tr_reduced, &Budget::default())
            .unwrap()
            .complete()
            .unwrap();
        assert!(
            rx_reduced.net().transition_count() < rx.net().transition_count(),
            "reduced {} vs original {}",
            rx_reduced.net().transition_count(),
            rx.net().transition_count()
        );
        // mute~ can never be produced.
        assert!(!rx_reduced.net().transitions().any(|(tid, _)| rx_reduced
            .net()
            .label_of(tid)
            .signal_name()
            .map(Signal::name)
            == Some("mute")));
        assert!(!rx_reduced.signals().contains_key(&Signal::new("mute")));
    }
}
