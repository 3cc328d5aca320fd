//! Scripted sustained fault storms.
//!
//! A [`FaultPlan`] schedules *point* faults — the N-th operation on a
//! rank misbehaves once. Sustained degradation looks different: a rank
//! group goes dark for a window of the serving clock (a stuck refresh
//! engine, a thermally throttled buffer chip, a firmware wedge) and every
//! offload routed there during the window fails, until the device
//! recovers at t′. A [`StormPlan`] models that as a set of
//! [`StormWindow`]s over *rank groups* and *cycles*, which is what the
//! serving tier's health tracker and circuit breakers react to.
//!
//! Storms are plain data with a JSON round-trip so chaos scripts can be
//! checked into `tests/` as fixtures.
//!
//! [`FaultPlan`]: crate::FaultPlan

use crate::json::Json;

/// How an afflicted rank group misbehaves during a storm window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormKind {
    /// Every offload to the group hangs: the batch never completes and
    /// the host's timeout/recovery path must deal with it.
    Hang,
    /// Every offload completes, but `cycles` late (sustained throttling
    /// rather than an outage).
    Stall {
        /// Added completion delay per offload, in memory cycles.
        cycles: u64,
    },
}

/// One contiguous degradation window over a set of rank groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormWindow {
    /// The afflicted rank groups.
    pub groups: Vec<usize>,
    /// First serving-clock cycle of the window (inclusive).
    pub start_cycle: u64,
    /// First cycle *after* the window (exclusive) — recovery instant t′.
    pub end_cycle: u64,
    /// The failure mode inside the window.
    pub kind: StormKind,
}

impl StormWindow {
    /// Whether `group` is afflicted at `cycle`.
    pub fn covers(&self, group: usize, cycle: u64) -> bool {
        cycle >= self.start_cycle && cycle < self.end_cycle && self.groups.contains(&group)
    }
}

/// A deterministic script of sustained fault storms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StormPlan {
    windows: Vec<StormWindow>,
}

impl StormPlan {
    /// A plan from explicit windows.
    pub fn new(windows: Vec<StormWindow>) -> Self {
        StormPlan { windows }
    }

    /// The empty (storm-free) plan.
    pub fn none() -> Self {
        StormPlan::default()
    }

    /// One rank group hung over `[start, end)` — the canonical
    /// single-device outage.
    pub fn single_group_outage(group: usize, start_cycle: u64, end_cycle: u64) -> Self {
        StormPlan::new(vec![StormWindow {
            groups: vec![group],
            start_cycle,
            end_cycle,
            kind: StormKind::Hang,
        }])
    }

    /// Several rank groups hung over the same `[start, end)` window — a
    /// correlated burst (shared power rail, shared refresh controller).
    pub fn correlated_burst(groups: Vec<usize>, start_cycle: u64, end_cycle: u64) -> Self {
        StormPlan::new(vec![StormWindow {
            groups,
            start_cycle,
            end_cycle,
            kind: StormKind::Hang,
        }])
    }

    /// The scripted windows.
    pub fn windows(&self) -> &[StormWindow] {
        &self.windows
    }

    /// Whether the plan scripts no storms.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The failure mode afflicting `group` at `cycle`, if any. Windows
    /// are consulted in script order; the first covering window wins.
    pub fn fault_at(&self, group: usize, cycle: u64) -> Option<StormKind> {
        self.windows
            .iter()
            .find(|w| w.covers(group, cycle))
            .map(|w| w.kind)
    }

    /// The `[earliest start, latest end)` envelope of all windows, or
    /// `None` for an empty plan.
    pub fn span(&self) -> Option<(u64, u64)> {
        let start = self.windows.iter().map(|w| w.start_cycle).min()?;
        let end = self.windows.iter().map(|w| w.end_cycle).max()?;
        Some((start, end))
    }

    /// Serialize to JSON (stable field order, byte-deterministic).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"groups\":[");
            for (j, g) in w.groups.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&g.to_string());
            }
            s.push_str("],\"start_cycle\":");
            s.push_str(&w.start_cycle.to_string());
            s.push_str(",\"end_cycle\":");
            s.push_str(&w.end_cycle.to_string());
            match w.kind {
                StormKind::Hang => s.push_str(",\"kind\":\"hang\"}"),
                StormKind::Stall { cycles } => {
                    s.push_str(",\"kind\":\"stall\",\"cycles\":");
                    s.push_str(&cycles.to_string());
                    s.push('}');
                }
            }
        }
        s.push_str("]}");
        s
    }

    /// Parse a plan serialized by [`StormPlan::to_json`].
    pub fn from_json(src: &str) -> Result<Self, String> {
        let root = Json::parse(src)?;
        let windows = root
            .get("windows")
            .and_then(Json::as_array)
            .ok_or("missing \"windows\" array")?;
        let mut out = Vec::with_capacity(windows.len());
        for w in windows {
            let groups = w
                .get("groups")
                .and_then(Json::as_array)
                .ok_or("window missing \"groups\"")?
                .iter()
                .map(|g| g.as_u64().map(|n| n as usize).ok_or("bad group id"))
                .collect::<Result<Vec<_>, _>>()?;
            let start_cycle = w
                .get("start_cycle")
                .and_then(Json::as_u64)
                .ok_or("window missing \"start_cycle\"")?;
            let end_cycle = w
                .get("end_cycle")
                .and_then(Json::as_u64)
                .ok_or("window missing \"end_cycle\"")?;
            let kind = match w.get("kind").and_then(Json::as_str) {
                Some("hang") => StormKind::Hang,
                Some("stall") => StormKind::Stall {
                    cycles: w
                        .get("cycles")
                        .and_then(Json::as_u64)
                        .ok_or("stall window missing \"cycles\"")?,
                },
                Some(other) => return Err(format!("unknown storm kind {other:?}")),
                None => return Err("window missing \"kind\"".into()),
            };
            out.push(StormWindow {
                groups,
                start_cycle,
                end_cycle,
                kind,
            });
        }
        Ok(StormPlan::new(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_half_open_ranges() {
        let p = StormPlan::single_group_outage(3, 1_000, 5_000);
        assert_eq!(p.fault_at(3, 999), None);
        assert_eq!(p.fault_at(3, 1_000), Some(StormKind::Hang));
        assert_eq!(p.fault_at(3, 4_999), Some(StormKind::Hang));
        assert_eq!(p.fault_at(3, 5_000), None, "recovery instant is exclusive");
        assert_eq!(p.fault_at(2, 2_000), None, "other groups unaffected");
    }

    #[test]
    fn correlated_bursts_hit_all_groups() {
        let p = StormPlan::correlated_burst(vec![0, 5, 9], 100, 200);
        for g in [0, 5, 9] {
            assert_eq!(p.fault_at(g, 150), Some(StormKind::Hang));
        }
        assert_eq!(p.fault_at(1, 150), None);
        assert_eq!(p.span(), Some((100, 200)));
    }

    #[test]
    fn first_covering_window_wins() {
        let p = StormPlan::new(vec![
            StormWindow {
                groups: vec![0],
                start_cycle: 0,
                end_cycle: 100,
                kind: StormKind::Stall { cycles: 7 },
            },
            StormWindow {
                groups: vec![0],
                start_cycle: 50,
                end_cycle: 150,
                kind: StormKind::Hang,
            },
        ]);
        assert_eq!(p.fault_at(0, 60), Some(StormKind::Stall { cycles: 7 }));
        assert_eq!(p.fault_at(0, 120), Some(StormKind::Hang));
        assert_eq!(p.span(), Some((0, 150)));
    }

    #[test]
    fn empty_plan() {
        let p = StormPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.span(), None);
        assert_eq!(p.fault_at(0, 0), None);
    }

    #[test]
    fn json_round_trip() {
        let p = StormPlan::new(vec![
            StormWindow {
                groups: vec![0, 3],
                start_cycle: 1_000,
                end_cycle: 9_000,
                kind: StormKind::Hang,
            },
            StormWindow {
                groups: vec![7],
                start_cycle: 2_500,
                end_cycle: 4_000,
                kind: StormKind::Stall { cycles: 1_200 },
            },
        ]);
        let json = p.to_json();
        let back = StormPlan::from_json(&json).unwrap();
        assert_eq!(p, back);
        assert_eq!(back.to_json(), json, "serialization is byte-stable");
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(StormPlan::from_json("{}").is_err());
        assert!(StormPlan::from_json(r#"{"windows":[{"groups":[0]}]}"#).is_err());
        assert!(StormPlan::from_json(
            r#"{"windows":[{"groups":[0],"start_cycle":0,"end_cycle":1,"kind":"melt"}]}"#
        )
        .is_err());
    }

    #[test]
    fn from_json_names_the_missing_field() {
        // A complete stall window, read with one field left out at a time.
        let fields = [
            (r#""groups":[0]"#, "window missing \"groups\""),
            (r#""start_cycle":0"#, "window missing \"start_cycle\""),
            (r#""end_cycle":1"#, "window missing \"end_cycle\""),
            (r#""kind":"stall""#, "window missing \"kind\""),
            (r#""cycles":5"#, "stall window missing \"cycles\""),
        ];
        let window = |skip: Option<usize>| {
            let kept: Vec<&str> = (0..fields.len())
                .filter(|&i| Some(i) != skip)
                .map(|i| fields[i].0)
                .collect();
            format!(r#"{{"windows":[{{{}}}]}}"#, kept.join(","))
        };
        assert!(StormPlan::from_json(&window(None)).is_ok());
        for (skip, (_, msg)) in fields.iter().enumerate() {
            let src = window(Some(skip));
            assert_eq!(StormPlan::from_json(&src).unwrap_err(), *msg, "{src}");
        }
        let src = window(None).replace("[0]", r#"["a"]"#);
        assert_eq!(StormPlan::from_json(&src).unwrap_err(), "bad group id");
    }
}
