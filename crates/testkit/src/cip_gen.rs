//! Domain generator: CIP modules.
//!
//! Generates sequential CIP processes — a single-token ring of places
//! whose stages send or receive on abstract channels (Section 3 of the
//! paper). By construction the underlying net is a live-safe marked
//! graph, so generated modules are valid inputs for composition,
//! expansion and simulation.

use crate::gen::Strategy;
use crate::rng::TestRng;
use cpn_cip::Module;
use cpn_petri::PlaceId;

/// One stage of a raw CIP process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawStage {
    /// Channel index (`c{channel}`).
    pub channel: usize,
    /// `true` for a send (`c!v`), `false` for a receive (`c?`).
    pub send: bool,
    /// Optional data value: sent value, or selective-receive case.
    pub value: Option<usize>,
}

/// A raw CIP module description the harness can shrink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawCip {
    /// The cyclic sequence of channel operations.
    pub stages: Vec<RawStage>,
}

impl RawCip {
    /// Builds the module `name` as a one-token ring over the stages.
    pub fn build(&self, name: &str) -> Module {
        let mut module = Module::new(name);
        let n = self.stages.len();
        let ps: Vec<PlaceId> = (0..n).map(|i| module.add_place(format!("s{i}"))).collect();
        for (i, stage) in self.stages.iter().enumerate() {
            let (pre, post) = (ps[i], ps[(i + 1) % n]);
            let channel = format!("c{}", stage.channel);
            if stage.send {
                module
                    .add_send([pre], channel.as_str(), stage.value, [post])
                    .expect("ring stage is valid");
            } else {
                match stage.value {
                    Some(v) => module
                        .add_recv_case([pre], channel.as_str(), v, [post])
                        .expect("ring stage is valid"),
                    None => module
                        .add_recv([pre], channel.as_str(), [post])
                        .expect("ring stage is valid"),
                };
            }
        }
        module.set_initial(ps[0], 1);
        module
    }
}

/// Generates [`RawCip`] processes.
#[derive(Clone, Debug)]
pub struct CipStrategy {
    max_stages: usize,
    channels: usize,
    values: usize,
}

impl CipStrategy {
    /// Processes with `1..=max_stages` stages over `channels` channels
    /// and data values `0..values`.
    pub fn new(max_stages: usize, channels: usize, values: usize) -> Self {
        assert!(max_stages >= 1 && channels >= 1 && values >= 1);
        CipStrategy {
            max_stages,
            channels,
            values,
        }
    }
}

impl Strategy for CipStrategy {
    type Value = RawCip;

    fn generate(&self, rng: &mut TestRng) -> RawCip {
        let n = rng.gen_range(1..self.max_stages + 1);
        let stages = (0..n)
            .map(|_| RawStage {
                channel: rng.below(self.channels),
                send: rng.gen_bool(),
                value: if rng.gen_bool() {
                    Some(rng.below(self.values))
                } else {
                    None
                },
            })
            .collect();
        RawCip { stages }
    }

    fn shrink(&self, value: &RawCip) -> Vec<RawCip> {
        let mut out = Vec::new();
        if value.stages.len() > 1 {
            for i in 0..value.stages.len() {
                let mut v = value.clone();
                v.stages.remove(i);
                out.push(v);
            }
        }
        for (i, stage) in value.stages.iter().enumerate() {
            if stage.value.is_some() {
                let mut v = value.clone();
                v.stages[i].value = None;
                out.push(v);
            }
            if stage.channel > 0 {
                let mut v = value.clone();
                v.stages[i].channel = 0;
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpn_petri::Budget;

    #[test]
    fn generated_modules_are_live_safe_rings() {
        let s = CipStrategy::new(6, 3, 2);
        let mut rng = TestRng::seed_from_u64(41);
        for _ in 0..50 {
            let raw = s.generate(&mut rng);
            let module = raw.build("gen");
            let net = module.net();
            assert!(net.structural().is_marked_graph);
            let rg = net
                .reachability_bounded(&Budget::default())
                .complete()
                .unwrap();
            let analysis = net.analysis(&rg);
            assert!(analysis.live && analysis.safe);
        }
    }

    #[test]
    fn channel_sets_match_stages() {
        let raw = RawCip {
            stages: vec![
                RawStage {
                    channel: 0,
                    send: true,
                    value: Some(1),
                },
                RawStage {
                    channel: 1,
                    send: false,
                    value: None,
                },
            ],
        };
        let module = raw.build("two");
        assert_eq!(module.sends().len(), 1);
        assert_eq!(module.receives().len(), 1);
    }

    #[test]
    fn shrinks_still_build() {
        let s = CipStrategy::new(6, 3, 2);
        let mut rng = TestRng::seed_from_u64(43);
        for _ in 0..20 {
            let raw = s.generate(&mut rng);
            for c in s.shrink(&raw) {
                assert!(!c.stages.is_empty());
                c.build("shrunk");
            }
        }
    }
}
