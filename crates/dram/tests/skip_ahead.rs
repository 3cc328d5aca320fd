//! Event-driven skip-ahead must be invisible: driving the memory system
//! with `tick` + `skip_to_event` has to produce exactly the same
//! completion cycles, statistics, and command counts as ticking through
//! every cycle.

use ansmet_dram::{AccessKind, DramConfig, MemoryStats, MemorySystem, Port, Request, Response};

/// One scheduled request: absolute arrival cycle, line index, read?, ndp?
type Op = (u64, u64, bool, bool);

/// `(sorted (id, finish) pairs, stats, per-rank command counts)`.
type StreamOutcome = (Vec<(u64, u64)>, MemoryStats, Vec<(u64, u64, u64, u64, u64)>);

/// xorshift64* — tiny deterministic generator so this test needs no
/// external randomness source.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Build a randomized request stream for `cfg` from `seed`.
fn stream(cfg: &DramConfig, seed: u64, ops: u64) -> Vec<Op> {
    let mut s = seed | 1;
    let lines = (cfg.channels
        * cfg.ranks_per_channel
        * cfg.bank_groups
        * cfg.banks_per_group
        * cfg.rows
        * cfg.columns) as u64;
    let mut t = 0u64;
    (0..ops)
        .map(|_| {
            // Mix dense bursts (gap 0) with idle gaps long enough to make
            // skip-ahead worthwhile.
            let r = xorshift(&mut s);
            let gap = match r % 4 {
                0 => 0,
                1 => r / 7 % 16,
                2 => r / 7 % 300,
                _ => r / 7 % 5000,
            };
            t += gap;
            let line = xorshift(&mut s) % lines;
            let read = !xorshift(&mut s).is_multiple_of(8);
            let ndp = xorshift(&mut s).is_multiple_of(2);
            (t, line, read, ndp)
        })
        .collect()
}

/// Every response completed so far.
fn drain(mem: &mut MemorySystem) -> Vec<Response> {
    let mut out = Vec::new();
    mem.drain_completed(&mut out);
    out
}

/// Drive `ops` to completion. With `skip`, jump over dead cycles via
/// `skip_to_event`; otherwise tick every cycle.
fn run_stream(cfg: &DramConfig, ops: &[Op], skip: bool) -> StreamOutcome {
    let mut mem = MemorySystem::new(cfg.clone());
    let mut done: Vec<(u64, u64)> = Vec::new();
    let mut next = 0usize;
    let mut guard = 0u64;
    while next < ops.len() || mem.busy() {
        let now = mem.now();
        while next < ops.len() && ops[next].0 <= now {
            let (_, line, read, ndp) = ops[next];
            let kind = if read {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let port = if ndp { Port::Ndp } else { Port::Host };
            let req = Request::new(next as u64, kind, line * 64, port);
            match mem.enqueue(req) {
                Ok(()) => next += 1,
                // Queue full: retry after the next cycle.
                Err(_) => break,
            }
        }
        mem.tick();
        for r in drain(&mut mem) {
            done.push((r.id, r.finish));
        }
        if skip {
            let limit = if next < ops.len() {
                ops[next].0
            } else {
                u64::MAX
            };
            mem.skip_to_event(limit);
        }
        guard += 1;
        assert!(guard < 50_000_000, "driver failed to converge");
    }
    // The tick/skip accounting tiles the timeline: every cycle reached
    // was either simulated or skipped, never both, never neither.
    assert_eq!(
        mem.cycles_ticked() + mem.cycles_skipped(),
        mem.now(),
        "cycle accounting does not tile [0, now)"
    );
    if !skip {
        assert_eq!(mem.cycles_skipped(), 0, "tick driver skipped cycles");
    }
    done.sort_unstable();
    (done, mem.stats().clone(), mem.rank_command_counts())
}

/// Drive `ops` with the explicit wakeup-driven drain APIs
/// (`advance_until_accept` on back-pressure, `drain_all` at the end)
/// instead of open-coded tick loops.
fn run_stream_drained(cfg: &DramConfig, ops: &[Op]) -> StreamOutcome {
    let mut mem = MemorySystem::new(cfg.clone());
    let mut done: Vec<(u64, u64)> = Vec::new();
    for (i, &(at, line, read, ndp)) in ops.iter().enumerate() {
        // Wait out the arrival gap with bounded skip-ahead (`fast_forward_to`
        // would jump over refresh cycles the tick reference performs).
        while mem.now() < at {
            mem.tick();
            for r in drain(&mut mem) {
                done.push((r.id, r.finish));
            }
            mem.skip_to_event(at);
        }
        let kind = if read {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        let port = if ndp { Port::Ndp } else { Port::Host };
        mem.advance_until_accept(line * 64, port);
        for r in drain(&mut mem) {
            done.push((r.id, r.finish));
        }
        mem.enqueue(Request::new(i as u64, kind, line * 64, port))
            .expect("slot guaranteed by advance_until_accept");
    }
    mem.drain_all();
    for r in drain(&mut mem) {
        done.push((r.id, r.finish));
    }
    assert_eq!(mem.cycles_ticked() + mem.cycles_skipped(), mem.now());
    done.sort_unstable();
    (done, mem.stats().clone(), mem.rank_command_counts())
}

fn assert_equivalent(cfg: &DramConfig, ops: &[Op]) {
    let (done_t, stats_t, counts_t) = run_stream(cfg, ops, false);
    let (done_s, stats_s, counts_s) = run_stream(cfg, ops, true);
    assert_eq!(done_t, done_s, "completion cycles diverged");
    assert_eq!(stats_t, stats_s, "statistics diverged");
    assert_eq!(counts_t, counts_s, "command counts diverged");
}

#[test]
fn skip_matches_tick_on_idle_gaps() {
    let mut cfg = DramConfig::tiny();
    cfg.refresh_enabled = false;
    let ops: Vec<Op> = vec![
        (0, 0, true, false),
        (3000, 1, true, false),
        (9000, 2, false, true),
        (9000, 130, true, true),
    ];
    assert_equivalent(&cfg, &ops);
}

#[test]
fn skip_matches_tick_with_refresh() {
    let mut cfg = DramConfig::tiny();
    cfg.refresh_enabled = true;
    // Gaps that straddle several refresh intervals.
    let ops: Vec<Op> = (0..12)
        .map(|i| (i * 3100, (i * 37) % 512, i % 5 != 0, i % 2 == 0))
        .collect();
    assert_equivalent(&cfg, &ops);
}

#[test]
fn skip_matches_tick_under_queue_pressure() {
    let mut cfg = DramConfig::tiny();
    cfg.queue_depth = 4;
    // A dense same-bank burst that keeps the tiny queue full.
    let ops: Vec<Op> = (0..32).map(|i| (0, i * 17, true, false)).collect();
    assert_equivalent(&cfg, &ops);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Randomized streams over the tiny config (refresh on) complete
        /// identically under per-cycle ticking and event skip-ahead.
        fn random_streams_tiny(seed in 0u64..100_000, ops in 4u64..48) {
            let mut cfg = DramConfig::tiny();
            cfg.refresh_enabled = true;
            let s = stream(&cfg, seed, ops);
            let (done_t, stats_t, counts_t) = run_stream(&cfg, &s, false);
            let (done_s, stats_s, counts_s) = run_stream(&cfg, &s, true);
            prop_assert_eq!(done_t, done_s);
            prop_assert_eq!(stats_t, stats_s);
            prop_assert_eq!(counts_t, counts_s);
        }

        /// Same property on the full DDR5 geometry (more ranks and banks,
        /// longer refresh interval).
        fn random_streams_ddr5(seed in 0u64..100_000, ops in 4u64..32) {
            let cfg = DramConfig::ddr5_4800();
            let s = stream(&cfg, seed, ops);
            let (done_t, stats_t, counts_t) = run_stream(&cfg, &s, false);
            let (done_s, stats_s, counts_s) = run_stream(&cfg, &s, true);
            prop_assert_eq!(done_t, done_s);
            prop_assert_eq!(stats_t, stats_s);
            prop_assert_eq!(counts_t, counts_s);
        }

        /// A shallow queue keeps back-pressure constant; skip-ahead must
        /// not change when slots free up or requests are accepted.
        fn random_streams_queue_pressure(seed in 0u64..100_000, ops in 8u64..48) {
            let mut cfg = DramConfig::tiny();
            cfg.refresh_enabled = true;
            cfg.queue_depth = 3;
            let s = stream(&cfg, seed, ops);
            let (done_t, stats_t, counts_t) = run_stream(&cfg, &s, false);
            let (done_s, stats_s, counts_s) = run_stream(&cfg, &s, true);
            prop_assert_eq!(done_t, done_s);
            prop_assert_eq!(stats_t, stats_s);
            prop_assert_eq!(counts_t, counts_s);
        }

        /// The explicit drain APIs (`advance_until_accept`, `drain_all`)
        /// are just packaged tick/skip loops: identical completions,
        /// stats, and command streams as the per-cycle reference.
        fn drain_apis_match_tick_reference(seed in 0u64..100_000, ops in 4u64..40) {
            let mut cfg = DramConfig::tiny();
            cfg.refresh_enabled = true;
            cfg.queue_depth = 4;
            let s = stream(&cfg, seed, ops);
            let (done_t, stats_t, counts_t) = run_stream(&cfg, &s, false);
            let (done_d, stats_d, counts_d) = run_stream_drained(&cfg, &s);
            prop_assert_eq!(done_t, done_d);
            prop_assert_eq!(stats_t, stats_d);
            prop_assert_eq!(counts_t, counts_d);
        }
    }
}
