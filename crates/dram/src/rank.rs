//! Per-rank DRAM state: banks plus rank-level timing constraints
//! (tRRD, tFAW, tCCD, write/read turnaround, refresh) and the rank-local
//! data bus used by the NDP path.

use std::collections::VecDeque;

use crate::bank::Bank;
use crate::command::{Command, CommandKind};
use crate::config::{DramConfig, PagePolicy, Timing};

/// Banks a rank can hold: the width of [`Rank`]'s open-bank mask.
pub const MAX_BANKS_PER_RANK: usize = u64::BITS as usize;

/// One DRAM rank with its banks and rank-level constraint state.
#[derive(Debug, Clone)]
pub struct Rank {
    banks: Vec<Bank>,
    /// Bit `i` is set while bank `i` (group-major index) holds an open
    /// row, so refresh drains visit only open banks.
    open: u64,
    banks_per_group: usize,
    page_policy: PagePolicy,
    /// Last ACT cycle per bank group (for tRRD_L) and rank-wide (tRRD_S).
    last_act_rank: Option<u64>,
    last_act_group: Vec<Option<u64>>,
    /// Sliding window of the last four ACT cycles (tFAW).
    faw_window: VecDeque<u64>,
    /// Last CAS cycle rank-wide / per group (tCCD_S / tCCD_L).
    last_cas_rank: Option<(u64, CommandKind)>,
    last_cas_group: Vec<Option<(u64, CommandKind)>>,
    /// Earliest next READ allowed after a WRITE (write-to-read turnaround).
    next_read_after_write: u64,
    /// Earliest next WRITE allowed after a READ (read-to-write turnaround).
    next_write_after_read: u64,
    /// Rank-local data bus free time (NDP path).
    pub local_bus_free: u64,
    /// Next refresh deadline.
    next_refresh: u64,
    /// Set while a refresh is pending and banks must drain/precharge.
    refresh_pending: bool,
    /// Command counters for energy accounting.
    pub acts: u64,
    /// Precharge count.
    pub pres: u64,
    /// Read burst count.
    pub reads: u64,
    /// Write burst count.
    pub writes: u64,
    /// Refresh count.
    pub refreshes: u64,
}

impl Rank {
    /// Create a rank for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` has more than [`MAX_BANKS_PER_RANK`] banks per
    /// rank (the open-bank mask would wrap).
    pub fn new(config: &DramConfig) -> Self {
        let nbanks = config.banks_per_rank();
        assert!(
            nbanks <= MAX_BANKS_PER_RANK,
            "{nbanks} banks per rank exceed the {MAX_BANKS_PER_RANK} the open-bank mask holds"
        );
        Rank {
            banks: vec![Bank::default(); nbanks],
            open: 0,
            banks_per_group: config.banks_per_group,
            page_policy: config.page_policy,
            last_act_rank: None,
            last_act_group: vec![None; config.bank_groups],
            faw_window: VecDeque::with_capacity(4),
            last_cas_rank: None,
            last_cas_group: vec![None; config.bank_groups],
            next_read_after_write: 0,
            next_write_after_read: 0,
            local_bus_free: 0,
            next_refresh: config.timing.refi,
            refresh_pending: false,
            acts: 0,
            pres: 0,
            reads: 0,
            writes: 0,
            refreshes: 0,
        }
    }

    fn bank_index(&self, cmd: &Command) -> usize {
        cmd.bank_group * self.banks_per_group + cmd.bank
    }

    /// Immutable access to a bank by (group, bank) coordinates.
    pub fn bank(&self, bank_group: usize, bank: usize) -> &Bank {
        &self.banks[bank_group * self.banks_per_group + bank]
    }

    /// Whether every bank is precharged (required before refresh).
    pub fn all_precharged(&self) -> bool {
        self.open == 0
    }

    /// Indices of the banks holding an open row, ascending.
    fn open_banks(&self) -> impl Iterator<Item = usize> {
        let mut mask = self.open;
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let idx = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(idx)
        })
    }

    /// One cycle of refresh management at `now`: once the deadline passes,
    /// mark the rank as draining; while draining, precharge one open bank
    /// or, with every bank precharged, issue the refresh when its timing
    /// allows. A no-op whenever `now` is before
    /// [`next_refresh_event`](Rank::next_refresh_event).
    pub(crate) fn refresh_step(&mut self, now: u64, t: &Timing) {
        if now >= self.next_refresh {
            self.refresh_pending = true;
        }
        if !self.refresh_pending {
            return;
        }
        if self.all_precharged() {
            let refresh = Command {
                kind: CommandKind::Refresh,
                bank_group: 0,
                bank: 0,
                row: 0,
                column: 0,
            };
            if self.can_issue(&refresh, now, t) {
                self.issue(&refresh, now, t);
            }
        } else {
            self.force_precharge_one(now, t);
        }
    }

    /// Whether the rank is draining toward a refresh (new row activity
    /// should be suppressed).
    pub fn refresh_pending(&self) -> bool {
        self.refresh_pending
    }

    fn check_act(&self, cmd: &Command, now: u64, t: &Timing) -> bool {
        if let Some(last) = self.last_act_rank {
            if now < last + t.rrd_s {
                return false;
            }
        }
        if let Some(last) = self.last_act_group[cmd.bank_group] {
            if now < last + t.rrd_l {
                return false;
            }
        }
        if self.faw_window.len() == 4 {
            let oldest = *self.faw_window.front().expect("len checked");
            if now < oldest + t.faw {
                return false;
            }
        }
        true
    }

    fn check_cas(&self, cmd: &Command, now: u64, t: &Timing) -> bool {
        let is_read = cmd.kind == CommandKind::Read;
        if let Some((last, _)) = self.last_cas_rank {
            if now < last + t.ccd_s {
                return false;
            }
        }
        if let Some((last, _)) = self.last_cas_group[cmd.bank_group] {
            if now < last + t.ccd_l {
                return false;
            }
        }
        if is_read && now < self.next_read_after_write {
            return false;
        }
        if !is_read && now < self.next_write_after_read {
            return false;
        }
        true
    }

    /// Whether `cmd` satisfies all bank- and rank-level constraints at `now`.
    pub fn can_issue(&self, cmd: &Command, now: u64, t: &Timing) -> bool {
        let bank = &self.banks[self.bank_index(cmd)];
        if !bank.can_issue(cmd.kind, cmd.row, now) {
            return false;
        }
        match cmd.kind {
            CommandKind::Activate => !self.refresh_pending && self.check_act(cmd, now, t),
            CommandKind::Read | CommandKind::Write => self.check_cas(cmd, now, t),
            CommandKind::Precharge => true,
            CommandKind::Refresh => self.all_precharged(),
        }
    }

    /// Apply `cmd` at `now`, updating all timing state and counters.
    pub fn issue(&mut self, cmd: &Command, now: u64, t: &Timing) {
        debug_assert!(self.can_issue(cmd, now, t), "illegal {cmd:?} at {now}");
        let idx = self.bank_index(cmd);
        let auto_pre = self.page_policy == PagePolicy::Closed && cmd.kind.is_cas();
        self.banks[idx].issue(cmd, now, t, auto_pre);
        if self.banks[idx].is_precharged() {
            self.open &= !(1 << idx);
        } else {
            self.open |= 1 << idx;
        }
        match cmd.kind {
            CommandKind::Activate => {
                self.last_act_rank = Some(now);
                self.last_act_group[cmd.bank_group] = Some(now);
                if self.faw_window.len() == 4 {
                    self.faw_window.pop_front();
                }
                self.faw_window.push_back(now);
                self.acts += 1;
            }
            CommandKind::Precharge => {
                self.pres += 1;
            }
            CommandKind::Read => {
                self.last_cas_rank = Some((now, cmd.kind));
                self.last_cas_group[cmd.bank_group] = Some((now, cmd.kind));
                // Read-to-write bus turnaround: write data may start only
                // after the read burst clears the bus.
                self.next_write_after_read = self
                    .next_write_after_read
                    .max(now + t.cl + t.burst_cycles + 2 - t.cwl);
                self.reads += 1;
            }
            CommandKind::Write => {
                self.last_cas_rank = Some((now, cmd.kind));
                self.last_cas_group[cmd.bank_group] = Some((now, cmd.kind));
                self.next_read_after_write = self
                    .next_read_after_write
                    .max(now + t.cwl + t.burst_cycles + t.wtr_l);
                self.writes += 1;
            }
            CommandKind::Refresh => {
                for bank in &mut self.banks {
                    bank.block_activates_until(now + t.rfc);
                }
                self.next_refresh = now + t.refi;
                self.refresh_pending = false;
                self.refreshes += 1;
            }
        }
    }

    /// Record a row-buffer outcome on the bank targeted by `cmd`.
    pub fn record_outcome(&mut self, cmd: &Command, hit: bool, conflict: bool) {
        let idx = self.bank_index(cmd);
        self.banks[idx].record_outcome(hit, conflict);
    }

    /// Controller-generated precharge used to drain open banks ahead of a
    /// refresh: precharges the first open bank, in group-major order, whose
    /// timing allows it.
    fn force_precharge_one(&mut self, now: u64, t: &Timing) {
        for idx in self.open_banks() {
            let cmd = Command {
                kind: CommandKind::Precharge,
                bank_group: idx / self.banks_per_group,
                bank: idx % self.banks_per_group,
                row: self.banks[idx].open_row().expect("open-bank mask"),
                column: 0,
            };
            if self.can_issue(&cmd, now, t) {
                self.issue(&cmd, now, t);
                return;
            }
        }
    }

    /// The command the rank needs to issue next to serve a CAS to
    /// (`bank_group`, `bank`, `row`).
    pub fn needed_command(
        &self,
        bank_group: usize,
        bank: usize,
        row: usize,
        is_read: bool,
    ) -> CommandKind {
        self.bank(bank_group, bank).needed_command(row, is_read)
    }

    /// Earliest cycle an ACT to `bank_group` satisfies the rank-level
    /// constraints (tRRD_S, tRRD_L, tFAW). Bank-level tRC/tRP are layered
    /// on top by the caller; refresh draining is not considered.
    pub fn earliest_act(&self, bank_group: usize, t: &Timing) -> u64 {
        let mut e = 0;
        if let Some(last) = self.last_act_rank {
            e = e.max(last + t.rrd_s);
        }
        if let Some(last) = self.last_act_group[bank_group] {
            e = e.max(last + t.rrd_l);
        }
        if self.faw_window.len() == 4 {
            let oldest = *self.faw_window.front().expect("len checked");
            e = e.max(oldest + t.faw);
        }
        e
    }

    /// Earliest cycle a CAS of `kind` to `bank_group` satisfies the
    /// rank-level constraints (tCCD_S, tCCD_L, read/write turnaround).
    /// Bank-level tRCD and data-bus availability are layered on top by the
    /// caller.
    pub fn earliest_cas(&self, bank_group: usize, kind: CommandKind, t: &Timing) -> u64 {
        let is_read = kind == CommandKind::Read;
        let mut e = 0;
        if let Some((last, _)) = self.last_cas_rank {
            e = e.max(last + t.ccd_s);
        }
        if let Some((last, _)) = self.last_cas_group[bank_group] {
            e = e.max(last + t.ccd_l);
        }
        if is_read {
            e = e.max(self.next_read_after_write);
        } else {
            e = e.max(self.next_write_after_read);
        }
        e
    }

    /// Cycle of the next refresh-related state change: the refresh deadline
    /// when none is pending, otherwise the next drain precharge or the
    /// refresh command itself. Used by event-driven skip-ahead.
    pub fn next_refresh_event(&self) -> u64 {
        if !self.refresh_pending {
            return self.next_refresh;
        }
        if self.all_precharged() {
            // The refresh command gates only on bank 0 timing (the
            // controller issues it with bank coordinates (0, 0)).
            self.banks[0].earliest(CommandKind::Refresh)
        } else {
            // The next controller-forced drain precharge.
            self.open_banks()
                .map(|idx| self.banks[idx].earliest(CommandKind::Precharge))
                .min()
                .unwrap_or(self.next_refresh)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::tiny()
    }

    fn cmd(kind: CommandKind, bg: usize, bank: usize, row: usize) -> Command {
        Command {
            kind,
            bank_group: bg,
            bank,
            row,
            column: 0,
        }
    }

    #[test]
    fn rrd_between_activates() {
        let c = cfg();
        let t = c.timing.clone();
        let mut r = Rank::new(&c);
        r.issue(&cmd(CommandKind::Activate, 0, 0, 1), 0, &t);
        // Same bank group: tRRD_L.
        let a2 = cmd(CommandKind::Activate, 0, 1, 1);
        assert!(!r.can_issue(&a2, t.rrd_l - 1, &t));
        assert!(r.can_issue(&a2, t.rrd_l, &t));
        // Different bank group: tRRD_S.
        let a3 = cmd(CommandKind::Activate, 1, 0, 1);
        assert!(!r.can_issue(&a3, t.rrd_s - 1, &t));
        assert!(r.can_issue(&a3, t.rrd_s, &t));
    }

    #[test]
    fn faw_limits_burst_of_activates() {
        let mut c = cfg();
        c.bank_groups = 4;
        c.banks_per_group = 2;
        let t = c.timing.clone();
        let mut r = Rank::new(&c);
        // Issue four ACTs as fast as tRRD_S allows.
        let mut now = 0;
        for i in 0..4 {
            let a = cmd(CommandKind::Activate, i, 0, 1);
            while !r.can_issue(&a, now, &t) {
                now += 1;
            }
            r.issue(&a, now, &t);
        }
        // Fifth ACT must wait for the FAW window.
        let a5 = cmd(CommandKind::Activate, 0, 1, 1);
        let first = 0;
        assert!(!r.can_issue(&a5, (first + t.faw).saturating_sub(1), &t) || t.faw <= now);
        let mut t5 = now;
        while !r.can_issue(&a5, t5, &t) {
            t5 += 1;
        }
        assert!(t5 >= first + t.faw);
    }

    #[test]
    fn ccd_between_reads() {
        let c = cfg();
        let t = c.timing.clone();
        let mut r = Rank::new(&c);
        r.issue(&cmd(CommandKind::Activate, 0, 0, 1), 0, &t);
        r.issue(&cmd(CommandKind::Activate, 1, 0, 1), t.rrd_s, &t);
        let start = t.rcd + t.rrd_s;
        r.issue(&cmd(CommandKind::Read, 0, 0, 1), start, &t);
        // Same group read: tCCD_L; other group: tCCD_S.
        assert!(!r.can_issue(&cmd(CommandKind::Read, 0, 0, 1), start + t.ccd_l - 1, &t));
        assert!(r.can_issue(&cmd(CommandKind::Read, 0, 0, 1), start + t.ccd_l, &t));
        assert!(!r.can_issue(&cmd(CommandKind::Read, 1, 0, 1), start + t.ccd_s - 1, &t));
        assert!(r.can_issue(&cmd(CommandKind::Read, 1, 0, 1), start + t.ccd_s, &t));
    }

    #[test]
    fn write_to_read_turnaround() {
        let c = cfg();
        let t = c.timing.clone();
        let mut r = Rank::new(&c);
        r.issue(&cmd(CommandKind::Activate, 0, 0, 1), 0, &t);
        let wr_at = t.rcd;
        r.issue(&cmd(CommandKind::Write, 0, 0, 1), wr_at, &t);
        let earliest_rd = wr_at + t.cwl + t.burst_cycles + t.wtr_l;
        assert!(!r.can_issue(&cmd(CommandKind::Read, 0, 0, 1), earliest_rd - 1, &t));
        assert!(r.can_issue(&cmd(CommandKind::Read, 0, 0, 1), earliest_rd, &t));
    }

    #[test]
    fn refresh_requires_precharged_banks() {
        let c = cfg();
        let t = c.timing.clone();
        let mut r = Rank::new(&c);
        r.issue(&cmd(CommandKind::Activate, 0, 0, 1), 0, &t);
        let refc = cmd(CommandKind::Refresh, 0, 0, 0);
        assert!(!r.can_issue(&refc, t.refi, &t));
        r.issue(&cmd(CommandKind::Precharge, 0, 0, 1), t.ras, &t);
        assert!(r.can_issue(&refc, t.refi, &t));
        r.issue(&refc, t.refi, &t);
        assert_eq!(r.refreshes, 1);
        // Banks blocked for tRFC... only the refreshed timing applies to ACT.
        assert!(!r.can_issue(&cmd(CommandKind::Activate, 0, 0, 2), t.refi + 1, &t));
    }

    #[test]
    fn counters_accumulate() {
        let c = cfg();
        let t = c.timing.clone();
        let mut r = Rank::new(&c);
        r.issue(&cmd(CommandKind::Activate, 0, 0, 1), 0, &t);
        r.issue(&cmd(CommandKind::Read, 0, 0, 1), t.rcd, &t);
        r.issue(&cmd(CommandKind::Read, 0, 0, 1), t.rcd + t.ccd_l, &t);
        assert_eq!(r.acts, 1);
        assert_eq!(r.reads, 2);
    }
}
