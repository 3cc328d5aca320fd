//! The per-queue ready cycles that gate `MemorySystem::tick` must stay
//! exact. The skip-ahead and dual-driver tests compare two drivers over
//! the same memory system, so a stale cache that hid a queue FR-FCFS
//! would serve fools both of them alike. These properties check the caches
//! themselves: after every enqueue and every tick, each cached ready
//! cycle, `refresh_at` and channel horizon must equal a from-scratch scan
//! of every queued request, and every queue the gate skips must have
//! nothing FR-FCFS would issue (see `MemorySystem::verify_ready_caches`).

use ansmet_dram::{
    AccessKind, AddrMap, DramConfig, Location, MemorySystem, PagePolicy, Port, Request,
};
use proptest::prelude::*;

/// xorshift64* — deterministic stream generator seeded by the property.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// `DramConfig::tiny()` (1 channel × 2 ranks) or, with `wide`, 2 channels
/// × 4 ranks; refresh on with a short interval, so that refresh drains
/// keep overlapping queued work, and shallow queues, so that enqueues
/// meet back-pressure.
fn config(wide: bool, closed: bool) -> DramConfig {
    let mut cfg = DramConfig::tiny();
    if wide {
        cfg.channels = 2;
        cfg.ranks_per_channel = 4;
    }
    cfg.refresh_enabled = true;
    cfg.timing.refi = 1_500;
    cfg.queue_depth = 6;
    cfg.page_policy = if closed {
        PagePolicy::Closed
    } else {
        PagePolicy::Open
    };
    cfg
}

/// A random line confined to four rows per bank, so that streams mix row
/// hits, misses and conflicts on shared banks.
fn random_addr(cfg: &DramConfig, map: &AddrMap, s: &mut u64) -> u64 {
    let mut pick = |n: usize| (xorshift(s) % n as u64) as usize;
    map.encode(Location {
        channel: pick(cfg.channels),
        rank: pick(cfg.ranks_per_channel),
        bank_group: pick(cfg.bank_groups),
        bank: pick(cfg.banks_per_group),
        row: pick(4),
        column: pick(cfg.columns),
    })
}

fn check(mem: &MemorySystem, after: &str) -> Result<(), TestCaseError> {
    mem.verify_ready_caches()
        .map_err(|e| TestCaseError::fail(format!("after {after} at cycle {}: {e}", mem.now())))
}

/// Drive `steps` rounds of random host and NDP reads and writes: each
/// round enqueues a burst of up to three requests, ticks once, and then
/// either ticks on or skips ahead by a random bound. Finally drain, still
/// checking after every tick.
fn drive(cfg: &DramConfig, seed: u64, steps: u64) -> Result<(), TestCaseError> {
    let map = AddrMap::new(cfg);
    let mut mem = MemorySystem::new(cfg.clone());
    let mut s = seed | 1;
    let mut id = 0u64;
    let mut done = Vec::new();
    check(&mem, "construction")?;
    for _ in 0..steps {
        for _ in 0..xorshift(&mut s) % 4 {
            let addr = random_addr(cfg, &map, &mut s);
            let kind = if xorshift(&mut s).is_multiple_of(4) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let port = if xorshift(&mut s).is_multiple_of(2) {
                Port::Host
            } else {
                Port::Ndp
            };
            if mem.enqueue(Request::new(id, kind, addr, port)).is_ok() {
                id += 1;
            }
            check(&mem, "enqueue")?;
        }
        mem.tick();
        check(&mem, "tick")?;
        let r = xorshift(&mut s);
        if !r.is_multiple_of(3) {
            mem.skip_to_event(mem.now() + r / 3 % 2_000);
            check(&mem, "skip")?;
        }
        mem.drain_completed(&mut done);
    }
    while mem.busy() {
        mem.tick();
        check(&mem, "tick")?;
        mem.skip_to_event(u64::MAX);
        check(&mem, "skip")?;
    }
    mem.drain_completed(&mut done);
    prop_assert_eq!(done.len() as u64, id, "every accepted request completes");
    Ok(())
}

proptest! {
    /// One channel, two ranks, open page policy.
    fn caches_exact_tiny_open(seed in 0u64..1_000_000, steps in 20u64..200) {
        drive(&config(false, false), seed, steps)?;
    }

    /// One channel, two ranks, closed page policy (auto-precharge closes
    /// banks without a precharge command).
    fn caches_exact_tiny_closed(seed in 0u64..1_000_000, steps in 20u64..200) {
        drive(&config(false, true), seed, steps)?;
    }

    /// Two channels of four ranks, open page policy: host requests of one
    /// channel share a bus across ranks that NDP traffic also drives.
    fn caches_exact_wide_open(seed in 0u64..1_000_000, steps in 20u64..200) {
        drive(&config(true, false), seed, steps)?;
    }

    /// Two channels of four ranks, closed page policy.
    fn caches_exact_wide_closed(seed in 0u64..1_000_000, steps in 20u64..200) {
        drive(&config(true, true), seed, steps)?;
    }
}

#[test]
#[should_panic(expected = "open-bank mask")]
fn more_banks_than_the_mask_holds_is_rejected_at_build() {
    let mut cfg = DramConfig::tiny();
    cfg.bank_groups = 16;
    cfg.banks_per_group = 8;
    MemorySystem::new(cfg);
}
