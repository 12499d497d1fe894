//! Next-state function derivation: the logic-synthesis step downstream of
//! the state graph.
//!
//! The paper (Sections 1, 5.2, 6) assumes each consistent STG is then
//! "synthesized correctly" by STG synthesis à la Chu. This module
//! provides that substrate: for every non-input signal `s` the classical
//! next-state function
//!
//! `F_s(code) = 1  iff  s is excited to rise, or s = 1 and not excited
//! to fall`
//!
//! is extracted from the state graph and covered by a two-level
//! sum-of-products (iterative cube merging with an off-set containment
//! check). CSC violations surface here as on/off-set conflicts — the
//! reason the reduced STGs of Figure 9 are easier to implement is that
//! their smaller state graphs impose fewer constraints on these covers.

use crate::signal::{Edge, Signal, SignalDir, StgLabel};
use crate::state_graph::StateGraph;
use crate::stg::Stg;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// A cube over the signal encoding: a partial assignment; missing
/// signals are don't-cares.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cube {
    /// Literal per signal index: `Some(v)` = signal must equal `v`.
    pub literals: Vec<Option<bool>>,
}

impl Cube {
    /// The cube fixing exactly the given minterm.
    pub fn from_minterm(code: &[bool]) -> Self {
        Cube {
            literals: code.iter().map(|&b| Some(b)).collect(),
        }
    }

    /// Whether the cube contains (covers) a code.
    pub fn covers(&self, code: &[bool]) -> bool {
        self.literals
            .iter()
            .zip(code)
            .all(|(l, &b)| l.is_none_or(|v| v == b))
    }

    /// Merge two cubes differing in exactly one bound literal into one
    /// with that literal freed (the Quine–McCluskey combining step).
    pub fn merge(&self, other: &Cube) -> Option<Cube> {
        let mut diff = None;
        for (i, (a, b)) in self.literals.iter().zip(&other.literals).enumerate() {
            if a != b {
                match (a, b, diff) {
                    (Some(_), Some(_), None) => diff = Some(i),
                    _ => return None,
                }
            }
        }
        let i = diff?;
        let mut literals = self.literals.clone();
        literals[i] = None;
        Some(Cube { literals })
    }

    /// Number of bound literals.
    pub fn literal_count(&self) -> usize {
        self.literals.iter().filter(|l| l.is_some()).count()
    }

    /// Renders the cube over the given signal names (e.g. `a·b'`).
    pub fn render(&self, signals: &[Signal]) -> String {
        let parts: Vec<String> = self
            .literals
            .iter()
            .enumerate()
            .filter_map(|(i, l)| {
                l.map(|v| {
                    if v {
                        signals[i].name().to_owned()
                    } else {
                        format!("{}'", signals[i].name())
                    }
                })
            })
            .collect();
        if parts.is_empty() {
            "1".to_owned()
        } else {
            parts.join("·")
        }
    }
}

/// The derived next-state function of one signal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NextStateFunction {
    /// The implemented signal.
    pub signal: Signal,
    /// Sum-of-products cover of the on-set.
    pub cover: Vec<Cube>,
    /// Number of on-set minterms before covering (for reporting).
    pub on_set_size: usize,
    /// Number of off-set minterms (for reporting).
    pub off_set_size: usize,
}

impl NextStateFunction {
    /// Total literal count of the cover — the paper-era proxy for
    /// implementation cost.
    pub fn literal_cost(&self) -> usize {
        self.cover.iter().map(Cube::literal_count).sum()
    }
}

/// Errors from logic derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LogicError {
    /// The same encoding requires both `F_s = 1` and `F_s = 0`: a CSC
    /// violation for this signal.
    CscConflict {
        /// The signal whose function is ill-defined.
        signal: Signal,
        /// The conflicting encoding.
        code: Vec<bool>,
    },
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicError::CscConflict { signal, code } => {
                let bits: String = code.iter().map(|&b| if b { '1' } else { '0' }).collect();
                write!(f, "csc conflict for signal {signal} at code {bits}")
            }
        }
    }
}

impl Error for LogicError {}

/// Derives next-state functions for every non-input signal of the STG
/// from its state graph.
///
/// # Errors
///
/// [`LogicError::CscConflict`] when an encoding demands both values of
/// some `F_s` — run [`StateGraph::csc_violations`] for the detailed
/// state pair.
pub fn derive_logic(stg: &Stg, sg: &StateGraph) -> Result<Vec<NextStateFunction>, LogicError> {
    let signals = sg.signals();
    let mut out = Vec::new();

    for (idx, signal) in signals.iter().enumerate() {
        let dir = stg.signals()[signal];
        if dir == SignalDir::Input {
            continue;
        }
        // Partition reachable codes into on/off sets of F_s.
        let mut on: BTreeSet<Vec<bool>> = BTreeSet::new();
        let mut off: BTreeSet<Vec<bool>> = BTreeSet::new();
        for i in 0..sg.state_count() {
            let (_, code) = sg.state(i);
            let excited_up = sg.edges(i).iter().any(|&(t, _)| {
                matches!(
                    stg.net().label_of(t),
                    StgLabel::Signal(s, e)
                        if s == signal
                        && (matches!(e, Edge::Rise)
                            || (matches!(e, Edge::Toggle) && !code[idx]))
                )
            });
            let excited_down = sg.edges(i).iter().any(|&(t, _)| {
                matches!(
                    stg.net().label_of(t),
                    StgLabel::Signal(s, e)
                        if s == signal
                        && (matches!(e, Edge::Fall)
                            || (matches!(e, Edge::Toggle) && code[idx]))
                )
            });
            let value = code[idx];
            let f = excited_up || (value && !excited_down);
            if f {
                on.insert(code.clone());
            } else {
                off.insert(code.clone());
            }
        }
        if let Some(code) = on.intersection(&off).next() {
            return Err(LogicError::CscConflict {
                signal: signal.clone(),
                code: code.clone(),
            });
        }

        let cover = cover_on_set(&on, &off);
        out.push(NextStateFunction {
            signal: signal.clone(),
            cover,
            on_set_size: on.len(),
            off_set_size: off.len(),
        });
    }
    Ok(out)
}

/// Greedy two-level cover: merge cubes while no off-set minterm gets
/// covered, then drop redundant cubes.
fn cover_on_set(on: &BTreeSet<Vec<bool>>, off: &BTreeSet<Vec<bool>>) -> Vec<Cube> {
    let mut cubes: Vec<Cube> = on.iter().map(|m| Cube::from_minterm(m)).collect();

    // Iterative pairwise merging (bounded: each round shrinks literal
    // counts, at most `width` rounds).
    loop {
        let mut merged: BTreeSet<Cube> = BTreeSet::new();
        let mut used = vec![false; cubes.len()];
        let mut progress = false;
        for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                if let Some(m) = cubes[i].merge(&cubes[j]) {
                    if !off.iter().any(|o| m.covers(o)) {
                        merged.insert(m);
                        used[i] = true;
                        used[j] = true;
                        progress = true;
                    }
                }
            }
        }
        if !progress {
            break;
        }
        for (i, c) in cubes.iter().enumerate() {
            if !used[i] {
                merged.insert(c.clone());
            }
        }
        cubes = merged.into_iter().collect();
    }

    // Redundancy removal: drop cubes whose on-set minterms are covered by
    // the rest.
    let mut keep: Vec<bool> = vec![true; cubes.len()];
    for i in 0..cubes.len() {
        keep[i] = false;
        let all_covered = on.iter().all(|m| {
            cubes
                .iter()
                .enumerate()
                .any(|(j, c)| keep[j] && j != i && c.covers(m))
                || !cubes[i].covers(m)
        });
        // A cube is redundant only if every minterm it covers is covered
        // by the others.
        let redundant = on.iter().filter(|m| cubes[i].covers(m)).all(|m| {
            cubes
                .iter()
                .enumerate()
                .any(|(j, c)| keep[j] && j != i && c.covers(m))
        }) && all_covered;
        keep[i] = !redundant;
    }
    cubes
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(c, _)| c)
        .collect()
}

/// Convenience: derive the functions and render them as equations.
pub fn render_equations(functions: &[NextStateFunction], signals: &[Signal]) -> String {
    let mut lines = Vec::new();
    for f in functions {
        let terms: Vec<String> = f.cover.iter().map(|c| c.render(signals)).collect();
        let rhs = if terms.is_empty() {
            "0".to_owned()
        } else {
            terms.join(" + ")
        };
        lines.push(format!("{} = {rhs}", f.signal));
    }
    lines.join("\n")
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use cpn_petri::Budget;
    use std::collections::BTreeMap;

    fn four_phase() -> Stg {
        let mut stg = Stg::new();
        let req = stg.add_signal("req", SignalDir::Input);
        let ack = stg.add_signal("ack", SignalDir::Output);
        let p: Vec<_> = (0..4).map(|i| stg.add_place(format!("p{i}"))).collect();
        stg.add_signal_transition([p[0]], (req.clone(), Edge::Rise), [p[1]])
            .unwrap();
        stg.add_signal_transition([p[1]], (ack.clone(), Edge::Rise), [p[2]])
            .unwrap();
        stg.add_signal_transition([p[2]], (req, Edge::Fall), [p[3]])
            .unwrap();
        stg.add_signal_transition([p[3]], (ack, Edge::Fall), [p[0]])
            .unwrap();
        stg.set_initial(p[0], 1);
        stg
    }

    #[test]
    fn ack_follows_req_in_four_phase() {
        let stg = four_phase();
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        let fns = derive_logic(&stg, &sg).unwrap();
        assert_eq!(fns.len(), 1);
        let f = &fns[0];
        assert_eq!(f.signal.name(), "ack");
        // ack = req: single cube, single literal, positive.
        assert_eq!(f.cover.len(), 1);
        assert_eq!(f.cover[0].render(sg.signals()), "req");
        assert_eq!(f.literal_cost(), 1);
    }

    #[test]
    fn csc_conflict_detected() {
        // ε-separated states share a code but differ in x excitation.
        let mut stg = Stg::new();
        let x = stg.add_signal("x", SignalDir::Output);
        let p0 = stg.add_place("p0");
        let p1 = stg.add_place("p1");
        let p2 = stg.add_place("p2");
        stg.add_dummy([p0], [p1]).unwrap();
        stg.add_signal_transition([p1], (x.clone(), Edge::Rise), [p2])
            .unwrap();
        stg.set_initial(p0, 1);
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        let err = derive_logic(&stg, &sg).unwrap_err();
        assert!(matches!(err, LogicError::CscConflict { signal, .. } if signal == x));
    }

    #[test]
    fn cube_merge_rules() {
        let a = Cube::from_minterm(&[true, true]);
        let b = Cube::from_minterm(&[true, false]);
        let m = a.merge(&b).unwrap();
        assert_eq!(m.literals, vec![Some(true), None]);
        // Two differing positions: no merge.
        let c = Cube::from_minterm(&[false, false]);
        assert!(a.merge(&c).is_none());
        assert!(m.covers(&[true, true]));
        assert!(m.covers(&[true, false]));
        assert!(!m.covers(&[false, false]));
    }

    #[test]
    fn constant_function_renders_as_one() {
        // x rises and stays: after covering, F_x covers both codes → "1".
        let mut stg = Stg::new();
        let x = stg.add_signal("x", SignalDir::Output);
        let p0 = stg.add_place("p0");
        let p1 = stg.add_place("p1");
        stg.add_signal_transition([p0], (x, Edge::Rise), [p1])
            .unwrap();
        stg.set_initial(p0, 1);
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        let fns = derive_logic(&stg, &sg).unwrap();
        assert_eq!(fns[0].cover.len(), 1);
        assert_eq!(fns[0].cover[0].render(sg.signals()), "1");
    }

    #[test]
    fn render_equations_format() {
        let stg = four_phase();
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        let fns = derive_logic(&stg, &sg).unwrap();
        let eq = render_equations(&fns, sg.signals());
        assert_eq!(eq, "ack = req");
    }

    #[test]
    fn toggle_output_contributes_excitation() {
        let mut stg = Stg::new();
        let x = stg.add_signal("x", SignalDir::Output);
        let p = stg.add_place("p");
        stg.add_signal_transition([p], (x, Edge::Toggle), [p])
            .unwrap();
        stg.set_initial(p, 1);
        let sg = StateGraph::build_bounded(&stg, &BTreeMap::new(), &Budget::states(1000))
            .complete()
            .unwrap();
        // F_x: at x=0 excited up → on; at x=1 excited down → off.
        let fns = derive_logic(&stg, &sg).unwrap();
        assert_eq!(fns[0].on_set_size, 1);
        assert_eq!(fns[0].off_set_size, 1);
    }
}
