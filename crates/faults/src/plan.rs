//! Declarative fault plans.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s, each naming a rank, a
//! fault kind, and the 0-based index of the rank-local operation the
//! fault hits. Plans are plain data — they can be written by hand for a
//! targeted test or generated pseudo-randomly (and reproducibly) from a
//! seed with [`FaultPlan::random`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::json::Json;

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The rank's compute unit stalls: the batch completes `cycles`
    /// later than it should (refresh storms, thermal throttling).
    Stall {
        /// Added completion delay in memory cycles.
        cycles: u64,
    },
    /// The rank's compute unit hangs: the batch never completes.
    Hang,
    /// The DDR-encoded NDP instruction is silently dropped by the
    /// buffer-chip command parser; the unit never sees the batch.
    DropInstruction,
    /// One bit of the polled result payload flips on the return path.
    CorruptResult {
        /// Bit position within the 64 B payload (0..512).
        bit: u16,
    },
    /// A QSHR result slot is never written: the poll payload carries the
    /// invalid-MAX sentinel where a finished distance should be.
    LostResult,
    /// The poll read transiently returns stale not-done data even though
    /// the batch has completed.
    PollMiss,
}

impl FaultKind {
    /// Whether this fault hits the offload step (vs. compute or poll).
    pub fn is_offload_fault(&self) -> bool {
        matches!(self, FaultKind::DropInstruction)
    }

    /// Whether this fault hits the compute step.
    pub fn is_compute_fault(&self) -> bool {
        matches!(self, FaultKind::Stall { .. } | FaultKind::Hang)
    }

    /// Whether this fault hits the poll/result step.
    pub fn is_poll_fault(&self) -> bool {
        matches!(
            self,
            FaultKind::CorruptResult { .. } | FaultKind::LostResult | FaultKind::PollMiss
        )
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The rank whose NDP unit the fault hits.
    pub rank: usize,
    /// 0-based index of the rank-local operation the fault hits: the
    /// `at`-th offload for offload faults, the `at`-th compute for
    /// compute faults, the `at`-th poll for poll faults. Each event
    /// fires at most once.
    pub at: u64,
    /// The fault.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Per-operation fault probabilities for [`FaultPlan::random`], each in
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability an offload's instruction is dropped.
    pub drop_instruction: f64,
    /// Probability a compute stalls (by a random 100..10_000 cycles).
    pub stall: f64,
    /// Probability a compute hangs.
    pub hang: f64,
    /// Probability a poll payload gets a flipped bit.
    pub corrupt_result: f64,
    /// Probability a result slot is lost.
    pub lost_result: f64,
    /// Probability a poll transiently misses.
    pub poll_miss: f64,
}

impl FaultRates {
    /// A mild mixed-fault profile (every kind represented, nothing
    /// overwhelming): useful as a property-test default.
    pub fn mixed() -> Self {
        FaultRates {
            drop_instruction: 0.02,
            stall: 0.05,
            hang: 0.01,
            corrupt_result: 0.03,
            lost_result: 0.02,
            poll_miss: 0.03,
        }
    }

    /// No faults at all (the oracle baseline).
    pub fn none() -> Self {
        FaultRates {
            drop_instruction: 0.0,
            stall: 0.0,
            hang: 0.0,
            corrupt_result: 0.0,
            lost_result: 0.0,
            poll_miss: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan from explicit events.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// The empty (fault-free) plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generate a reproducible pseudo-random plan: for each of `n_ranks`
    /// ranks and each of the first `ops` rank-local operations, each
    /// fault kind fires with its [`FaultRates`] probability. The same
    /// `(seed, n_ranks, ops, rates)` always yields the same plan.
    pub fn random(seed: u64, n_ranks: usize, ops: u64, rates: FaultRates) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for rank in 0..n_ranks {
            for at in 0..ops {
                if rng.gen_bool(rates.drop_instruction) {
                    events.push(FaultEvent {
                        rank,
                        at,
                        kind: FaultKind::DropInstruction,
                    });
                }
                if rng.gen_bool(rates.hang) {
                    events.push(FaultEvent {
                        rank,
                        at,
                        kind: FaultKind::Hang,
                    });
                } else if rng.gen_bool(rates.stall) {
                    events.push(FaultEvent {
                        rank,
                        at,
                        kind: FaultKind::Stall {
                            cycles: rng.gen_range(100u64..10_000),
                        },
                    });
                }
                if rng.gen_bool(rates.corrupt_result) {
                    events.push(FaultEvent {
                        rank,
                        at,
                        kind: FaultKind::CorruptResult {
                            bit: rng.gen_range(0u16..512),
                        },
                    });
                } else if rng.gen_bool(rates.lost_result) {
                    events.push(FaultEvent {
                        rank,
                        at,
                        kind: FaultKind::LostResult,
                    });
                } else if rng.gen_bool(rates.poll_miss) {
                    events.push(FaultEvent {
                        rank,
                        at,
                        kind: FaultKind::PollMiss,
                    });
                }
            }
        }
        FaultPlan { events }
    }

    /// Serialize to JSON (stable field order, byte-deterministic), so
    /// plans can live in `tests/` as fixtures.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"rank\":");
            s.push_str(&e.rank.to_string());
            s.push_str(",\"at\":");
            s.push_str(&e.at.to_string());
            match e.kind {
                FaultKind::Stall { cycles } => {
                    s.push_str(",\"kind\":\"stall\",\"cycles\":");
                    s.push_str(&cycles.to_string());
                }
                FaultKind::Hang => s.push_str(",\"kind\":\"hang\""),
                FaultKind::DropInstruction => s.push_str(",\"kind\":\"drop_instruction\""),
                FaultKind::CorruptResult { bit } => {
                    s.push_str(",\"kind\":\"corrupt_result\",\"bit\":");
                    s.push_str(&bit.to_string());
                }
                FaultKind::LostResult => s.push_str(",\"kind\":\"lost_result\""),
                FaultKind::PollMiss => s.push_str(",\"kind\":\"poll_miss\""),
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Parse a plan serialized by [`FaultPlan::to_json`].
    pub fn from_json(src: &str) -> Result<Self, String> {
        let root = Json::parse(src)?;
        let events = root
            .get("events")
            .and_then(Json::as_array)
            .ok_or("missing \"events\" array")?;
        let mut out = Vec::with_capacity(events.len());
        for e in events {
            let rank = e
                .get("rank")
                .and_then(Json::as_u64)
                .ok_or("event missing \"rank\"")? as usize;
            let at = e
                .get("at")
                .and_then(Json::as_u64)
                .ok_or("event missing \"at\"")?;
            let kind = match e.get("kind").and_then(Json::as_str) {
                Some("stall") => FaultKind::Stall {
                    cycles: e
                        .get("cycles")
                        .and_then(Json::as_u64)
                        .ok_or("stall event missing \"cycles\"")?,
                },
                Some("hang") => FaultKind::Hang,
                Some("drop_instruction") => FaultKind::DropInstruction,
                Some("corrupt_result") => {
                    let bit = e
                        .get("bit")
                        .and_then(Json::as_u64)
                        .ok_or("corrupt_result event missing \"bit\"")?;
                    if bit >= 512 {
                        return Err(format!("corrupt_result bit {bit} out of range"));
                    }
                    FaultKind::CorruptResult { bit: bit as u16 }
                }
                Some("lost_result") => FaultKind::LostResult,
                Some("poll_miss") => FaultKind::PollMiss,
                Some(other) => return Err(format!("unknown fault kind {other:?}")),
                None => return Err("event missing \"kind\"".into()),
            };
            out.push(FaultEvent { rank, at, kind });
        }
        Ok(FaultPlan::new(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_reproducible() {
        let a = FaultPlan::random(7, 4, 50, FaultRates::mixed());
        let b = FaultPlan::random(7, 4, 50, FaultRates::mixed());
        assert_eq!(a, b);
        let c = FaultPlan::random(8, 4, 50, FaultRates::mixed());
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn zero_rates_give_empty_plan() {
        let p = FaultPlan::random(1, 8, 100, FaultRates::none());
        assert!(p.is_empty());
    }

    #[test]
    fn mixed_rates_cover_every_kind_eventually() {
        let p = FaultPlan::random(42, 8, 400, FaultRates::mixed());
        let has = |f: fn(&FaultKind) -> bool| p.events().iter().any(|e| f(&e.kind));
        assert!(has(|k| matches!(k, FaultKind::DropInstruction)));
        assert!(has(|k| matches!(k, FaultKind::Stall { .. })));
        assert!(has(|k| matches!(k, FaultKind::Hang)));
        assert!(has(|k| matches!(k, FaultKind::CorruptResult { .. })));
        assert!(has(|k| matches!(k, FaultKind::LostResult)));
        assert!(has(|k| matches!(k, FaultKind::PollMiss)));
    }

    #[test]
    fn json_round_trip_preserves_every_kind() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                rank: 0,
                at: 3,
                kind: FaultKind::Stall { cycles: 4_096 },
            },
            FaultEvent {
                rank: 1,
                at: 0,
                kind: FaultKind::Hang,
            },
            FaultEvent {
                rank: 2,
                at: 7,
                kind: FaultKind::DropInstruction,
            },
            FaultEvent {
                rank: 3,
                at: 11,
                kind: FaultKind::CorruptResult { bit: 511 },
            },
            FaultEvent {
                rank: 4,
                at: 2,
                kind: FaultKind::LostResult,
            },
            FaultEvent {
                rank: 5,
                at: 9,
                kind: FaultKind::PollMiss,
            },
        ]);
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
        assert_eq!(back.to_json(), json, "serialization is byte-stable");
    }

    #[test]
    fn json_round_trip_of_random_plan() {
        let plan = FaultPlan::random(42, 8, 100, FaultRates::mixed());
        assert!(!plan.is_empty());
        assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
        let empty = FaultPlan::none();
        assert_eq!(empty.to_json(), "{\"events\":[]}");
        assert_eq!(FaultPlan::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn from_json_rejects_malformed_plans() {
        assert!(FaultPlan::from_json("{}").is_err());
        assert!(FaultPlan::from_json(r#"{"events":[{"rank":0}]}"#).is_err());
        assert!(
            FaultPlan::from_json(r#"{"events":[{"rank":0,"at":0,"kind":"gremlin"}]}"#).is_err()
        );
        assert!(FaultPlan::from_json(
            r#"{"events":[{"rank":0,"at":0,"kind":"corrupt_result","bit":512}]}"#
        )
        .is_err());
    }

    #[test]
    fn from_json_names_the_missing_field() {
        let event = |fields: &str| format!(r#"{{"events":[{{{fields}}}]}}"#);
        let cases = [
            (r#"{"events":{}}"#.to_string(), "missing \"events\" array"),
            (event(r#""at":0,"kind":"hang""#), "event missing \"rank\""),
            (event(r#""rank":0,"kind":"hang""#), "event missing \"at\""),
            (event(r#""rank":0,"at":0"#), "event missing \"kind\""),
            (
                event(r#""rank":0,"at":0,"kind":"stall""#),
                "stall event missing \"cycles\"",
            ),
            (
                event(r#""rank":0,"at":0,"kind":"corrupt_result""#),
                "corrupt_result event missing \"bit\"",
            ),
        ];
        for (src, msg) in cases {
            assert_eq!(FaultPlan::from_json(&src).unwrap_err(), msg, "{src}");
        }
    }

    #[test]
    fn from_json_accepts_fields_in_any_order() {
        let shuffled = r#"{"events":[{"cycles":9,"kind":"stall","at":4,"rank":2},{"kind":"hang","rank":1,"at":0}]}"#;
        let canonical = r#"{"events":[{"rank":2,"at":4,"kind":"stall","cycles":9},{"rank":1,"at":0,"kind":"hang"}]}"#;
        assert_eq!(FaultPlan::from_json(shuffled).unwrap().to_json(), canonical);
    }

    #[test]
    fn kind_classification_is_total() {
        for k in [
            FaultKind::Stall { cycles: 1 },
            FaultKind::Hang,
            FaultKind::DropInstruction,
            FaultKind::CorruptResult { bit: 0 },
            FaultKind::LostResult,
            FaultKind::PollMiss,
        ] {
            let n =
                k.is_offload_fault() as u8 + k.is_compute_fault() as u8 + k.is_poll_fault() as u8;
            assert_eq!(n, 1, "{k:?} must belong to exactly one step");
        }
    }
}
