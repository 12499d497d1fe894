//! Integration: the circuit algebra of Section 5.1 over the protocol
//! STGs — interface bookkeeping through composition, and interconnect
//! abstraction via `hide'`.

use cpn::core::Circuit;
use cpn::petri::Budget;
use cpn::stg::protocol::{sender, translator};
use cpn::stg::{Signal, StgLabel};
use cpn::trace::Language;
use std::collections::BTreeSet;

fn as_circuit(stg: &cpn::stg::Stg) -> Circuit<StgLabel> {
    let outputs = stg.output_labels();
    let inputs: BTreeSet<StgLabel> = stg
        .net()
        .alphabet()
        .iter()
        .filter(|l| !outputs.contains(l))
        .cloned()
        .collect();
    Circuit::new(inputs, outputs, stg.net().clone()).expect("well-formed interface")
}

fn labels_of_wires(c: &Circuit<StgLabel>, wires: &[&str]) -> BTreeSet<StgLabel> {
    c.net()
        .alphabet()
        .iter()
        .filter(|l| l.signal_name().is_some_and(|s| wires.contains(&s.name())))
        .cloned()
        .collect()
}

#[test]
fn composition_rewires_the_interface() {
    let sc = as_circuit(&sender());
    let tc = as_circuit(&translator());
    let composed = sc.compose(&tc).expect("no shared outputs");
    // The interconnect wires became internal outputs; the environment
    // toggles stay inputs.
    for w in ["a0", "a1", "b0", "b1"] {
        let l = StgLabel::signal(w, cpn::stg::Edge::Rise);
        assert!(composed.outputs().contains(&l), "{w}+ is an output");
    }
    let rec = StgLabel::signal("rec", cpn::stg::Edge::Toggle);
    assert!(composed.inputs().contains(&rec), "rec~ stays an input");
    // n is the translator's output toward the sender: internal now.
    let n_plus = StgLabel::signal("n", cpn::stg::Edge::Rise);
    assert!(composed.outputs().contains(&n_plus));
}

#[test]
fn interconnect_abstraction_via_hide_prime() {
    // The fused interconnect forms shapes outside the contraction class
    // (both-sided consumers appear during iterated contraction), which
    // is precisely the case Section 5.3's hide' refinement covers:
    // relabel to ε, keep the structure.
    let sc = as_circuit(&sender());
    let tc = as_circuit(&translator());
    let composed = sc.compose(&tc).expect("no shared outputs");

    let interconnect = labels_of_wires(&composed, &["a0", "a1", "b0", "b1", "n"]);
    assert_eq!(interconnect.len(), 10, "five wires, rise and fall each");
    let abstracted = composed
        .hide_relabel(&interconnect, StgLabel::Dummy)
        .expect("all interconnect labels are outputs");

    // The abstracted circuit exposes no interconnect wires.
    for l in &interconnect {
        assert!(!abstracted.net().alphabet().contains(l));
        assert!(!abstracted.outputs().contains(l));
    }
    // Its visible language still runs the commands: rec~ then the
    // translator's response activity are reachable through ε steps.
    let lang = Language::from_net(abstracted.net(), 6, 2_000_000).expect("trace budget");
    let rec = StgLabel::signal("rec", cpn::stg::Edge::Toggle);
    assert!(
        lang.iter().any(|t| t.contains(&rec)),
        "commands still flow through the abstracted interconnect"
    );
}

#[test]
fn strict_hide_on_interconnect_is_rejected_not_wrong() {
    // The contraction operator refuses (rather than silently producing a
    // wrong net) when the interconnect's fused shapes exceed the
    // set-arc expressiveness.
    let sc = as_circuit(&sender());
    let tc = as_circuit(&translator());
    let composed = sc.compose(&tc).expect("no shared outputs");
    let interconnect = labels_of_wires(&composed, &["a0", "a1", "b0", "b1", "n"]);
    let result = composed.hide(&interconnect, 100_000);
    assert!(result.is_err(), "contraction must refuse, not corrupt");
}

#[test]
fn abstracted_circuit_stays_analyzable() {
    let sc = as_circuit(&sender());
    let tc = as_circuit(&translator());
    let composed = sc.compose(&tc).expect("no shared outputs");
    let interconnect = labels_of_wires(&composed, &["a0", "a1", "b0", "b1", "n"]);
    let abstracted = composed
        .hide_relabel(&interconnect, StgLabel::Dummy)
        .expect("relabel");
    let rg = abstracted
        .net()
        .reachability_bounded(&Budget::default())
        .complete()
        .expect("bounded");
    let analysis = abstracted.net().analysis(&rg);
    assert!(analysis.safe);
    assert!(analysis.deadlock_free);
    // Sanity: the signal type survived the round trip.
    let _ = Signal::new("a0");
}
