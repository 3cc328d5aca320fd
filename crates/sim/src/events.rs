//! Cross-stack event wheel: the hierarchical wakeup scheduler that
//! unifies DRAM, NDP, host, and serve-clock time-stepping.
//!
//! Every simulated agent registers its *next provable wakeup* — the
//! earliest future cycle at which it can possibly act — and the driving
//! loop advances time straight to the minimum registered wakeup instead
//! of ticking through dead cycles. The DRAM model is the one agent whose
//! wakeup changes as a side effect of other agents' actions (an enqueue
//! creates a new issue opportunity), so drivers query
//! [`MemorySystem::next_event_cycle`](ansmet_dram::MemorySystem::next_event_cycle)
//! fresh each round and take the min with [`EventWheel::next_due`].
//!
//! # Structure
//!
//! A two-tier hierarchical timing wheel:
//!
//! * **Near wheel** — `SLOTS` single-cycle slots covering
//!   `[now, now + SLOTS)`, with a bitmap per 64 slots so finding the next
//!   occupied slot is a couple of trailing-zero counts, not a scan.
//!   Insert and pop are O(1).
//! * **Far calendar** — a sorted map for events beyond the near horizon.
//!   Events migrate into the near wheel lazily as time advances past
//!   their `cycle - SLOTS` boundary.
//!
//! # Determinism
//!
//! Pop order is `(cycle, token)`: same-cycle events drain in ascending
//! token order regardless of insertion order, so wheel-driven replays are
//! bit-identical across runs and thread counts (each worker owns a
//! private wheel, like it owns a private [`MemorySystem`]).
//!
//! [`MemorySystem`]: ansmet_dram::MemorySystem

use std::collections::BTreeMap;

/// Number of single-cycle slots in the near wheel (power of two).
const SLOTS: usize = 256;
/// Bitmap words covering the near wheel (64 slots per word).
const WORDS: usize = SLOTS / 64;

/// A scheduled wakeup: `token` identifies the agent (driver-defined).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Wakeup {
    /// Absolute cycle at which the agent must be serviced.
    pub cycle: u64,
    /// Driver-defined agent id (e.g. a sub-task index).
    pub token: u32,
}

/// Hierarchical wakeup scheduler keyed on the global cycle.
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// Earliest cycle still schedulable; all stored events are `>= now`.
    now: u64,
    /// Near wheel: slot `c & (SLOTS-1)` holds tokens due exactly at `c`
    /// for `c` in `[now, now + SLOTS)`.
    near: Vec<Vec<u32>>,
    /// Occupancy bitmap over `near` (bit i of word w = slot `w*64 + i`).
    occupied: [u64; WORDS],
    /// Events at or beyond `now + SLOTS`.
    far: BTreeMap<u64, Vec<u32>>,
    /// Total events stored (near + far).
    pending: usize,
}

impl EventWheel {
    /// An empty wheel anchored at `now`.
    pub fn new(now: u64) -> Self {
        EventWheel {
            now,
            near: vec![Vec::new(); SLOTS],
            occupied: [0; WORDS],
            far: BTreeMap::new(),
            pending: 0,
        }
    }

    /// Drop every scheduled event and re-anchor the wheel at `now`,
    /// keeping the slot table and each slot's allocation for reuse.
    pub(crate) fn reset(&mut self, now: u64) {
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.near[w * 64 + bits.trailing_zeros() as usize].clear();
                bits &= bits - 1;
            }
        }
        self.far.clear();
        self.pending = 0;
        self.now = now;
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// The wheel's current anchor cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Register `token`'s next wakeup. A cycle in the past is clamped to
    /// `now` (it is due immediately).
    pub fn schedule(&mut self, cycle: u64, token: u32) {
        let cycle = cycle.max(self.now);
        self.pending += 1;
        if cycle - self.now < SLOTS as u64 {
            let slot = (cycle as usize) & (SLOTS - 1);
            self.near[slot].push(token);
            self.occupied[slot / 64] |= 1u64 << (slot % 64);
        } else {
            self.far.entry(cycle).or_default().push(token);
        }
    }

    /// The earliest scheduled cycle, if any.
    pub fn next_due(&self) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        let near = self.next_near_slot();
        match (near, self.far.keys().next().copied()) {
            (Some(n), Some(f)) => Some(n.min(f)),
            (Some(n), None) => Some(n),
            (None, Some(f)) => Some(f),
            (None, None) => None,
        }
    }

    /// Earliest occupied near-wheel cycle (`>= now`), via the bitmap.
    fn next_near_slot(&self) -> Option<u64> {
        let base = self.now as usize & (SLOTS - 1);
        // Slots [base, SLOTS) map to [now, ...), slots [0, base) wrap to
        // the next SLOTS-aligned window.
        for off in 0..=WORDS {
            // Walk words starting at base's word; the first iteration
            // masks off bits below base, the last (wrapped) iteration
            // masks bits at/above base.
            let w = (base / 64 + off) % WORDS;
            let mut bits = self.occupied[w];
            if off == 0 {
                bits &= !0u64 << (base % 64);
            } else if off == WORDS {
                bits &= !(!0u64 << (base % 64));
            }
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                // A slot below `now`'s position belongs to the next
                // SLOTS-aligned window (the wheel wraps).
                let window = self.now & !(SLOTS as u64 - 1);
                let mut cycle = window + slot as u64;
                if cycle < self.now {
                    cycle += SLOTS as u64;
                }
                return Some(cycle);
            }
        }
        None
    }

    /// Advance the anchor to `cycle`, migrating far events whose horizon
    /// is reached into the near wheel. Never moves backwards.
    fn advance(&mut self, cycle: u64) {
        if cycle <= self.now {
            return;
        }
        debug_assert!(
            self.next_due().map(|d| d >= cycle).unwrap_or(true),
            "advance past a due event"
        );
        self.now = cycle;
        // Pull far events now inside the near horizon.
        let horizon = self.now + SLOTS as u64;
        while let Some((&c, _)) = self.far.iter().next() {
            if c >= horizon {
                break;
            }
            let (c, tokens) = self.far.pop_first().expect("checked non-empty");
            let slot = (c as usize) & (SLOTS - 1);
            self.occupied[slot / 64] |= 1u64 << (slot % 64);
            self.near[slot].extend(tokens);
        }
    }

    /// Drain every event due at or before `cycle` into `out`, sorted by
    /// `(cycle, token)`, and advance the anchor to `cycle`. Servicing a
    /// whole batch of same-cycle wakeups through one call is the
    /// coalescing contract: N adjacent QSHR completions cost one wakeup,
    /// not N loop rounds.
    pub fn pop_due(&mut self, cycle: u64, out: &mut Vec<Wakeup>) {
        out.clear();
        while let Some(due) = self.next_due() {
            if due > cycle {
                break;
            }
            self.advance(due);
            let slot = (due as usize) & (SLOTS - 1);
            let start = out.len();
            for t in self.near[slot].drain(..) {
                out.push(Wakeup {
                    cycle: due,
                    token: t,
                });
            }
            self.occupied[slot / 64] &= !(1u64 << (slot % 64));
            self.pending -= out.len() - start;
            out[start..].sort_unstable_by_key(|w| w.token);
        }
        self.advance(cycle);
    }

    /// Pop the single earliest event (ties broken by token).
    pub fn pop_next(&mut self) -> Option<Wakeup> {
        let due = self.next_due()?;
        self.advance(due);
        let slot = (due as usize) & (SLOTS - 1);
        let min_idx = self.near[slot]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(i, _)| i)?;
        let token = self.near[slot].swap_remove(min_idx);
        if self.near[slot].is_empty() {
            self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        }
        self.pending -= 1;
        Some(Wakeup { cycle: due, token })
    }

    /// Merge all events of `other` into `self` (used when a driver folds
    /// per-agent wheels into one scheduler).
    pub fn merge(&mut self, other: &EventWheel) {
        let mut scratch = Vec::new();
        let mut o = other.clone();
        while let Some(d) = o.next_due() {
            o.pop_due(d, &mut scratch);
            for w in &scratch {
                self.schedule(w.cycle, w.token);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_then_token_order() {
        let mut w = EventWheel::new(0);
        w.schedule(10, 3);
        w.schedule(5, 7);
        w.schedule(10, 1);
        w.schedule(5, 2);
        let mut got = Vec::new();
        while let Some(x) = w.pop_next() {
            got.push((x.cycle, x.token));
        }
        assert_eq!(got, vec![(5, 2), (5, 7), (10, 1), (10, 3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn far_events_migrate_into_near_wheel() {
        let mut w = EventWheel::new(0);
        w.schedule(3, 1);
        w.schedule(100_000, 2);
        w.schedule(1_000_000, 3);
        assert_eq!(w.next_due(), Some(3));
        assert_eq!(w.pop_next(), Some(Wakeup { cycle: 3, token: 1 }));
        assert_eq!(w.next_due(), Some(100_000));
        assert_eq!(
            w.pop_next(),
            Some(Wakeup {
                cycle: 100_000,
                token: 2
            })
        );
        assert_eq!(
            w.pop_next(),
            Some(Wakeup {
                cycle: 1_000_000,
                token: 3
            })
        );
        assert_eq!(w.pop_next(), None);
    }

    #[test]
    fn pop_due_coalesces_a_batch() {
        let mut w = EventWheel::new(50);
        for t in 0..10u32 {
            w.schedule(60, t);
        }
        w.schedule(61, 99);
        w.schedule(5_000, 42);
        let mut out = Vec::new();
        w.pop_due(61, &mut out);
        assert_eq!(out.len(), 11);
        assert_eq!(
            out[0],
            Wakeup {
                cycle: 60,
                token: 0
            }
        );
        assert_eq!(
            out[9],
            Wakeup {
                cycle: 60,
                token: 9
            }
        );
        assert_eq!(
            out[10],
            Wakeup {
                cycle: 61,
                token: 99
            }
        );
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_due(), Some(5_000));
    }

    #[test]
    fn reset_empties_and_reanchors() {
        let mut w = EventWheel::new(0);
        w.schedule(7, 1);
        w.schedule(200, 2);
        w.schedule(90_000, 3);
        w.reset(5_000);
        assert!(w.is_empty());
        assert_eq!(w.now(), 5_000);
        assert_eq!(w.next_due(), None);
        // Slots used before the reset hold nothing stale afterwards.
        w.schedule(5_007, 4);
        w.schedule(5_200, 5);
        let mut out = Vec::new();
        w.pop_due(10_000, &mut out);
        let got: Vec<(u64, u32)> = out.iter().map(|x| (x.cycle, x.token)).collect();
        assert_eq!(got, vec![(5_007, 4), (5_200, 5)]);
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut w = EventWheel::new(1000);
        w.schedule(3, 8);
        assert_eq!(w.next_due(), Some(1000));
        assert_eq!(
            w.pop_next(),
            Some(Wakeup {
                cycle: 1000,
                token: 8
            })
        );
    }

    #[test]
    fn merge_combines_schedules() {
        let mut a = EventWheel::new(0);
        a.schedule(10, 1);
        let mut b = EventWheel::new(0);
        b.schedule(5, 2);
        b.schedule(70_000, 3);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.pop_next(), Some(Wakeup { cycle: 5, token: 2 }));
        assert_eq!(
            a.pop_next(),
            Some(Wakeup {
                cycle: 10,
                token: 1
            })
        );
        assert_eq!(
            a.pop_next(),
            Some(Wakeup {
                cycle: 70_000,
                token: 3
            })
        );
    }

    #[test]
    fn dense_and_sparse_mix_matches_reference_heap() {
        // Cross-check against a sorted reference over a pseudo-random
        // schedule spanning near and far horizons.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut w = EventWheel::new(0);
        let mut reference: Vec<(u64, u32)> = Vec::new();
        let mut base = 0u64;
        let mut out = Vec::new();
        for round in 0..200 {
            for _ in 0..(step() % 8) {
                let delta = match step() % 4 {
                    0 => step() % 4,
                    1 => step() % 200,
                    2 => step() % 5_000,
                    _ => step() % 2_000_000,
                };
                let cycle = base + delta;
                let token = (step() % 1000) as u32;
                w.schedule(cycle, token);
                reference.push((cycle.max(base), token));
            }
            // Drain everything due in the next window.
            let upto = base + step() % 10_000;
            w.pop_due(upto, &mut out);
            let mut expect: Vec<(u64, u32)> = reference
                .iter()
                .filter(|&&(c, _)| c <= upto)
                .copied()
                .collect();
            expect.sort_unstable();
            reference.retain(|&(c, _)| c > upto);
            let got: Vec<(u64, u32)> = out.iter().map(|x| (x.cycle, x.token)).collect();
            assert_eq!(got, expect, "round {round} upto {upto}");
            base = upto;
        }
    }
}
