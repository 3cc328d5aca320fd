//! The top-level memory system: channels, queues, tick loop, statistics.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::addrmap::AddrMap;
use crate::command::CommandKind;
use crate::config::DramConfig;
use crate::rank::Rank;
use crate::request::{AccessKind, Port, Request, Response};
use crate::scheduler;

/// Aggregate statistics exported by the memory system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryStats {
    /// Completed host reads.
    pub host_reads: u64,
    /// Completed host writes.
    pub host_writes: u64,
    /// Completed NDP reads.
    pub ndp_reads: u64,
    /// Completed NDP writes.
    pub ndp_writes: u64,
    /// Sum of host request latencies (cycles).
    pub host_latency_sum: u64,
    /// Sum of NDP request latencies (cycles).
    pub ndp_latency_sum: u64,
    /// Row-buffer hits (request served by an immediate CAS).
    pub row_hits: u64,
    /// Row-buffer misses (bank was closed).
    pub row_misses: u64,
    /// Row-buffer conflicts (another row was open).
    pub row_conflicts: u64,
    /// Cycles any host channel data bus carried data.
    pub host_bus_busy_cycles: u64,
    /// Cycles any rank-local (NDP) data bus carried data.
    pub ndp_bus_busy_cycles: u64,
}

impl MemoryStats {
    /// Mean host-read latency in cycles (0 when no reads completed).
    pub fn avg_host_latency(&self) -> f64 {
        let n = self.host_reads + self.host_writes;
        if n == 0 {
            0.0
        } else {
            self.host_latency_sum as f64 / n as f64
        }
    }

    /// Mean NDP-request latency in cycles (0 when none completed).
    pub fn avg_ndp_latency(&self) -> f64 {
        let n = self.ndp_reads + self.ndp_writes;
        if n == 0 {
            0.0
        } else {
            self.ndp_latency_sum as f64 / n as f64
        }
    }

    /// Total completed 64 B transfers.
    pub fn total_accesses(&self) -> u64 {
        self.host_reads + self.host_writes + self.ndp_reads + self.ndp_writes
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PendingDone {
    finish: u64,
    response: Response,
}

impl Ord for PendingDone {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish
            .cmp(&other.finish)
            .then(self.response.id.cmp(&other.response.id))
    }
}

impl PartialOrd for PendingDone {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone)]
struct Channel {
    ranks: Vec<Rank>,
    host_queue: Vec<Request>,
    host_outcome: Vec<Option<bool>>,
    ndp_queues: Vec<Vec<Request>>,
    ndp_outcome: Vec<Vec<Option<bool>>>,
    host_bus_free: u64,
    host_bus_last_rank: Option<usize>,
}

impl Channel {
    fn new(config: &DramConfig) -> Self {
        let nranks = config.ranks_per_channel;
        Channel {
            ranks: (0..nranks).map(|_| Rank::new(config)).collect(),
            host_queue: Vec::new(),
            host_outcome: Vec::new(),
            ndp_queues: vec![Vec::new(); nranks],
            ndp_outcome: vec![Vec::new(); nranks],
            host_bus_free: 0,
            host_bus_last_rank: None,
        }
    }

    fn is_idle(&self) -> bool {
        self.host_queue.is_empty() && self.ndp_queues.iter().all(Vec::is_empty)
    }
}

/// The full, cycle-steppable memory system.
///
/// Drive it by calling [`MemorySystem::enqueue`] and [`MemorySystem::tick`];
/// completed requests appear via [`MemorySystem::completed`] /
/// [`MemorySystem::take_completed`].
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: DramConfig,
    addr_map: AddrMap,
    channels: Vec<Channel>,
    now: u64,
    pending: BinaryHeap<Reverse<PendingDone>>,
    completed: Vec<Response>,
    stats: MemoryStats,
    /// Opt-in per-command trace (`None` = disabled, the default; the
    /// hot path must not pay for a buffer nobody reads).
    command_trace: Option<Vec<CommandRecord>>,
    /// Cycles actually stepped through [`MemorySystem::tick`]. Kept out
    /// of [`MemoryStats`] so equivalence tests comparing stats between
    /// wheel-driven and tick-driven runs still pass — how time advanced
    /// is a host-driver concern, not an observable memory outcome.
    cycles_ticked: u64,
    /// Cycles jumped over by [`MemorySystem::skip_to_event`] /
    /// [`MemorySystem::fast_forward_to`] without ticking.
    cycles_skipped: u64,
    /// Counter used to sample skip-ahead audits in debug builds.
    #[cfg(debug_assertions)]
    skip_audits: u64,
}

/// One issued DRAM command, recorded when command tracing is enabled
/// (see [`MemorySystem::enable_command_trace`]). Refresh-management
/// commands (refreshes and their forced precharges) are not recorded —
/// the trace covers the scheduler's request-serving command stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRecord {
    /// Cycle at which the command issued.
    pub cycle: u64,
    /// Command class.
    pub kind: CommandKind,
    /// Channel index.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Whether the scheduler classified the target access as a row hit.
    pub row_hit: bool,
    /// `true` for the NDP rank-local path, `false` for the host path.
    pub ndp: bool,
}

impl MemorySystem {
    /// Build a memory system for `config`.
    pub fn new(config: DramConfig) -> Self {
        let addr_map = AddrMap::new(&config);
        let channels = (0..config.channels)
            .map(|_| Channel::new(&config))
            .collect();
        MemorySystem {
            config,
            addr_map,
            channels,
            now: 0,
            pending: BinaryHeap::new(),
            completed: Vec::new(),
            stats: MemoryStats::default(),
            command_trace: None,
            cycles_ticked: 0,
            cycles_skipped: 0,
            #[cfg(debug_assertions)]
            skip_audits: 0,
        }
    }

    /// Start recording every issued command into an internal buffer.
    /// Disabled by default; enabling mid-run records from that point on.
    pub fn enable_command_trace(&mut self) {
        if self.command_trace.is_none() {
            self.command_trace = Some(Vec::new());
        }
    }

    /// Whether command tracing is currently enabled.
    pub fn command_trace_enabled(&self) -> bool {
        self.command_trace.is_some()
    }

    /// Drain the recorded commands (empty if tracing is disabled).
    /// Tracing stays enabled; subsequent commands accumulate afresh.
    pub fn take_command_trace(&mut self) -> Vec<CommandRecord> {
        match self.command_trace.as_mut() {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// Current simulation cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The address decoder (shared with callers that pre-compute locations).
    pub fn addr_map(&self) -> &AddrMap {
        &self.addr_map
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Cycles actually stepped through [`MemorySystem::tick`].
    pub fn cycles_ticked(&self) -> u64 {
        self.cycles_ticked
    }

    /// Cycles the event machinery jumped over without ticking.
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// Per-rank command counters, flattened channel-major, for energy
    /// accounting: `(acts, pres, reads, writes, refreshes)` per rank.
    pub fn rank_command_counts(&self) -> Vec<(u64, u64, u64, u64, u64)> {
        self.channels
            .iter()
            .flat_map(|c| {
                c.ranks
                    .iter()
                    .map(|r| (r.acts, r.pres, r.reads, r.writes, r.refreshes))
            })
            .collect()
    }

    /// Whether a request can currently be accepted on `port` for `addr`.
    pub fn can_accept(&self, addr: u64, port: Port) -> bool {
        let loc = self.addr_map.decode(addr);
        let ch = &self.channels[loc.channel];
        match port {
            Port::Host => ch.host_queue.len() < self.config.queue_depth,
            Port::Ndp => ch.ndp_queues[loc.rank].len() < self.config.queue_depth,
        }
    }

    /// Enqueue a 64 B request.
    ///
    /// # Errors
    ///
    /// Returns the request back if the target queue is full.
    pub fn enqueue(&mut self, mut req: Request) -> Result<(), Request> {
        let loc = self.addr_map.decode(req.addr);
        req.loc = loc;
        req.arrival = self.now;
        let ch = &mut self.channels[loc.channel];
        match req.port {
            Port::Host => {
                if ch.host_queue.len() >= self.config.queue_depth {
                    return Err(req);
                }
                ch.host_queue.push(req);
                ch.host_outcome.push(None);
            }
            Port::Ndp => {
                if ch.ndp_queues[loc.rank].len() >= self.config.queue_depth {
                    return Err(req);
                }
                ch.ndp_queues[loc.rank].push(req);
                ch.ndp_outcome[loc.rank].push(None);
            }
        }
        Ok(())
    }

    /// Responses completed but not yet taken.
    pub fn completed(&self) -> &[Response] {
        &self.completed
    }

    /// Drain and return all completed responses.
    pub fn take_completed(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.completed)
    }

    /// Whether any request is queued or in flight.
    pub fn busy(&self) -> bool {
        !self.pending.is_empty() || self.channels.iter().any(|c| !c.is_idle())
    }

    /// Advance the clock directly to `cycle` when the system is idle.
    /// Refresh deadlines catch up lazily (at most one refresh fires per rank
    /// immediately after the jump), which slightly under-counts refresh
    /// energy across long idle gaps — acceptable for this simulator's use.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Busy`](crate::MemoryError::Busy) if requests
    /// are queued or in flight, and
    /// [`MemoryError::PastCycle`](crate::MemoryError::PastCycle) if `cycle`
    /// is behind the clock. The clock is unchanged on error.
    pub fn fast_forward_to(&mut self, cycle: u64) -> Result<(), crate::MemoryError> {
        if self.busy() {
            return Err(crate::MemoryError::Busy { requested: cycle });
        }
        if cycle < self.now {
            return Err(crate::MemoryError::PastCycle {
                now: self.now,
                requested: cycle,
            });
        }
        self.cycles_skipped += cycle - self.now;
        self.now = cycle;
        Ok(())
    }

    /// Lower bound on the earliest cycle at which `req` (queued on `ch`)
    /// could have its next command issued, given the current frozen state.
    /// Never later than the true issue cycle; may be earlier (e.g. while a
    /// refresh drain suppresses activates).
    fn earliest_request_issue(&self, ch: &Channel, req: &Request, host: bool) -> Option<u64> {
        let t = &self.config.timing;
        let rank = &ch.ranks[req.loc.rank];
        let is_read = req.kind == AccessKind::Read;
        let kind = rank.needed_command(req.loc.bank_group, req.loc.bank, req.loc.row, is_read);
        let bank = rank.bank(req.loc.bank_group, req.loc.bank);
        let mut e = bank.earliest(kind);
        match kind {
            CommandKind::Activate => {
                if self.config.refresh_enabled && rank.refresh_pending() {
                    // Unissuable until the refresh fires, which is itself
                    // a tracked event — contribute nothing.
                    return None;
                }
                e = e.max(rank.earliest_act(req.loc.bank_group, t));
            }
            CommandKind::Read | CommandKind::Write => {
                e = e.max(rank.earliest_cas(req.loc.bank_group, kind, t));
                // Data-bus backpressure: a CAS issued at cycle x starts its
                // burst at x + CL/CWL, which must not precede bus release.
                let lead = if kind == CommandKind::Read {
                    t.cl
                } else {
                    t.cwl
                };
                let needed = if host {
                    if ch.host_bus_last_rank.is_some()
                        && ch.host_bus_last_rank != Some(req.loc.rank)
                    {
                        ch.host_bus_free + t.rank_switch
                    } else {
                        ch.host_bus_free
                    }
                } else {
                    rank.local_bus_free
                };
                e = e.max(needed.saturating_sub(lead));
            }
            CommandKind::Precharge | CommandKind::Refresh => {}
        }
        Some(e)
    }

    /// The earliest future cycle at which the system state can change: the
    /// next pending burst retirement, the earliest issue opportunity of any
    /// queued request, or a refresh deadline/drain step. Returns `None`
    /// only when the system is idle with refresh disabled. The value is a
    /// lower bound: ticking any cycle strictly before it is a no-op.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let mut next = u64::MAX;
        if let Some(Reverse(head)) = self.pending.peek() {
            next = next.min(head.finish);
        }
        for ch in &self.channels {
            if self.config.refresh_enabled {
                for rank in &ch.ranks {
                    next = next.min(rank.next_refresh_event());
                }
            }
            for req in &ch.host_queue {
                if let Some(e) = self.earliest_request_issue(ch, req, true) {
                    next = next.min(e);
                }
            }
            for q in &ch.ndp_queues {
                for req in q {
                    if let Some(e) = self.earliest_request_issue(ch, req, false) {
                        next = next.min(e);
                    }
                }
            }
        }
        if next == u64::MAX {
            None
        } else {
            Some(next)
        }
    }

    /// Jump the clock forward to `min(limit, next_event_cycle())` without
    /// ticking, skipping cycles in which nothing can happen. A no-op when
    /// the target is not ahead of the clock. In debug builds a sampled
    /// audit replays the skipped span cycle-by-cycle on a clone and asserts
    /// that no observable state changed.
    pub fn skip_to_event(&mut self, limit: u64) {
        let target = match self.next_event_cycle() {
            Some(e) => e.min(limit),
            None => limit,
        };
        if target <= self.now || target == u64::MAX {
            return;
        }
        #[cfg(debug_assertions)]
        self.audit_skip(target);
        self.cycles_skipped += target - self.now;
        self.now = target;
    }

    /// Sampled cross-check that the span `[now, target)` is truly dead:
    /// a per-cycle shadow replay must leave all observable state unchanged.
    #[cfg(debug_assertions)]
    fn audit_skip(&mut self, target: u64) {
        let jump = target - self.now;
        if jump <= 8 || jump > 4096 {
            return;
        }
        self.skip_audits += 1;
        if self.skip_audits % 64 != 1 {
            return;
        }
        let mut shadow = self.clone();
        while shadow.now < target {
            shadow.tick();
        }
        assert_eq!(
            shadow.stats, self.stats,
            "skip-ahead to {target} jumped over an acting cycle (stats)"
        );
        assert_eq!(
            shadow.completed.len(),
            self.completed.len(),
            "skip-ahead to {target} jumped over a retirement"
        );
        assert_eq!(
            shadow.rank_command_counts(),
            self.rank_command_counts(),
            "skip-ahead to {target} jumped over a command issue"
        );
    }

    /// Advance one cycle: retire finished bursts, schedule refreshes, and
    /// issue at most one host command per channel plus one NDP command per
    /// rank.
    pub fn tick(&mut self) {
        let now = self.now;
        // Retire finished data bursts.
        while let Some(Reverse(head)) = self.pending.peek() {
            if head.finish > now {
                break;
            }
            let done = self.pending.pop().expect("peeked").0;
            self.completed.push(done.response);
        }

        let timing = self.config.timing.clone();
        let refresh_enabled = self.config.refresh_enabled;
        let queue_policy_cl = timing.cl;
        let queue_policy_cwl = timing.cwl;
        let burst = timing.burst_cycles;
        let rank_switch = timing.rank_switch;

        for (ch_idx, ch) in self.channels.iter_mut().enumerate() {
            // --- Refresh management -------------------------------------
            if refresh_enabled {
                for rank in ch.ranks.iter_mut() {
                    if rank.refresh_due(now) && !rank.refresh_pending() {
                        rank.set_refresh_pending(true);
                    }
                    if rank.refresh_pending() {
                        if rank.all_precharged() {
                            let refc = crate::command::Command {
                                kind: CommandKind::Refresh,
                                bank_group: 0,
                                bank: 0,
                                row: 0,
                                column: 0,
                            };
                            if rank.can_issue(&refc, now, &timing) {
                                rank.issue(&refc, now, &timing);
                            }
                        } else {
                            rank.force_precharge_one(now, &timing);
                        }
                    }
                }
            }

            // --- Host path: one command per channel C/A bus per cycle ----
            let host_bus_free = ch.host_bus_free;
            let host_last_rank = ch.host_bus_last_rank;
            let decision = scheduler::pick(
                &ch.host_queue,
                &ch.ranks,
                now,
                &timing,
                |rank_idx, kind, t| {
                    let data_start = t + if kind == CommandKind::Read {
                        queue_policy_cl
                    } else {
                        queue_policy_cwl
                    };
                    let needed = if host_last_rank.is_some() && host_last_rank != Some(rank_idx) {
                        host_bus_free + rank_switch
                    } else {
                        host_bus_free
                    };
                    data_start >= needed
                },
            );
            if let Some(d) = decision {
                let req_kind;
                {
                    let req = &ch.host_queue[d.queue_index];
                    req_kind = req.kind;
                }
                if ch.host_outcome[d.queue_index].is_none() {
                    ch.host_outcome[d.queue_index] = Some(d.row_hit);
                    let conflict = d.command.kind == CommandKind::Precharge;
                    ch.ranks[d.rank].record_outcome(&d.command, d.row_hit, conflict);
                    if d.row_hit {
                        self.stats.row_hits += 1;
                    } else if conflict {
                        self.stats.row_conflicts += 1;
                    } else {
                        self.stats.row_misses += 1;
                    }
                }
                ch.ranks[d.rank].issue(&d.command, now, &timing);
                if let Some(trace) = self.command_trace.as_mut() {
                    trace.push(CommandRecord {
                        cycle: now,
                        kind: d.command.kind,
                        channel: ch_idx,
                        rank: d.rank,
                        row_hit: d.row_hit,
                        ndp: false,
                    });
                }
                if d.completes {
                    let req = ch.host_queue.remove(d.queue_index);
                    let first_hit = ch.host_outcome.remove(d.queue_index).unwrap_or(d.row_hit);
                    let lat = if req_kind == AccessKind::Read {
                        queue_policy_cl + burst
                    } else {
                        queue_policy_cwl + burst
                    };
                    let finish = now + lat;
                    ch.host_bus_free = finish;
                    ch.host_bus_last_rank = Some(d.rank);
                    self.stats.host_bus_busy_cycles += burst;
                    match req.kind {
                        AccessKind::Read => self.stats.host_reads += 1,
                        AccessKind::Write => self.stats.host_writes += 1,
                    }
                    self.stats.host_latency_sum += finish - req.arrival;
                    self.pending.push(Reverse(PendingDone {
                        finish,
                        response: Response {
                            id: req.id,
                            kind: req.kind,
                            arrival: req.arrival,
                            finish,
                            row_hit: first_hit,
                        },
                    }));
                }
            }

            // --- NDP path: one command per rank-local C/A per cycle -------
            for rank_idx in 0..ch.ranks.len() {
                if ch.ndp_queues[rank_idx].is_empty() {
                    continue;
                }
                let local_bus_free = ch.ranks[rank_idx].local_bus_free;
                let decision = scheduler::pick(
                    &ch.ndp_queues[rank_idx],
                    &ch.ranks,
                    now,
                    &timing,
                    |_, kind, t| {
                        let data_start = t + if kind == CommandKind::Read {
                            queue_policy_cl
                        } else {
                            queue_policy_cwl
                        };
                        data_start >= local_bus_free
                    },
                );
                if let Some(d) = decision {
                    debug_assert_eq!(d.rank, rank_idx, "NDP queue is rank-local");
                    let req_kind = ch.ndp_queues[rank_idx][d.queue_index].kind;
                    if ch.ndp_outcome[rank_idx][d.queue_index].is_none() {
                        ch.ndp_outcome[rank_idx][d.queue_index] = Some(d.row_hit);
                        let conflict = d.command.kind == CommandKind::Precharge;
                        ch.ranks[d.rank].record_outcome(&d.command, d.row_hit, conflict);
                        if d.row_hit {
                            self.stats.row_hits += 1;
                        } else if conflict {
                            self.stats.row_conflicts += 1;
                        } else {
                            self.stats.row_misses += 1;
                        }
                    }
                    ch.ranks[d.rank].issue(&d.command, now, &timing);
                    if let Some(trace) = self.command_trace.as_mut() {
                        trace.push(CommandRecord {
                            cycle: now,
                            kind: d.command.kind,
                            channel: ch_idx,
                            rank: d.rank,
                            row_hit: d.row_hit,
                            ndp: true,
                        });
                    }
                    if d.completes {
                        let req = ch.ndp_queues[rank_idx].remove(d.queue_index);
                        let first_hit = ch.ndp_outcome[rank_idx]
                            .remove(d.queue_index)
                            .unwrap_or(d.row_hit);
                        let lat = if req_kind == AccessKind::Read {
                            queue_policy_cl + burst
                        } else {
                            queue_policy_cwl + burst
                        };
                        let finish = now + lat;
                        ch.ranks[rank_idx].local_bus_free = finish;
                        self.stats.ndp_bus_busy_cycles += burst;
                        match req.kind {
                            AccessKind::Read => self.stats.ndp_reads += 1,
                            AccessKind::Write => self.stats.ndp_writes += 1,
                        }
                        self.stats.ndp_latency_sum += finish - req.arrival;
                        self.pending.push(Reverse(PendingDone {
                            finish,
                            response: Response {
                                id: req.id,
                                kind: req.kind,
                                arrival: req.arrival,
                                finish,
                                row_hit: first_hit,
                            },
                        }));
                    }
                }
            }
        }

        self.now += 1;
        self.cycles_ticked += 1;
    }

    /// Advance until at least one response sits in the completed buffer,
    /// jumping dead spans instead of ticking through them. The caller must
    /// have work in flight: with nothing queued or pending there is no
    /// completion to wait for, and this returns immediately (debug builds
    /// assert instead, since such a call is a driver bug).
    ///
    /// Returns the number of cycles advanced (ticked + skipped).
    pub fn advance_to_completion(&mut self) -> u64 {
        debug_assert!(
            self.busy() || !self.completed.is_empty(),
            "advance_to_completion with no request in flight would hang"
        );
        let start = self.now;
        while self.completed.is_empty() && self.busy() {
            let before = self.completed.len();
            self.tick();
            if self.completed.len() == before && self.busy() {
                self.skip_to_event(u64::MAX);
            }
        }
        self.now - start
    }

    /// Advance until [`MemorySystem::can_accept`] holds for (`addr`,
    /// `port`), i.e. until the target queue has a free slot. Progress
    /// requires in-flight work to retire; with an idle system the queue
    /// can never drain further, so this returns immediately (and asserts
    /// in debug builds when the queue is still full — that would be an
    /// unserviceable wait).
    ///
    /// Returns the number of cycles advanced (ticked + skipped).
    pub fn advance_until_accept(&mut self, addr: u64, port: Port) -> u64 {
        let start = self.now;
        while !self.can_accept(addr, port) && self.busy() {
            let before = self.completed.len();
            self.tick();
            // A slot frees when a queued request's data command issues,
            // which retires nothing — recheck before skipping ahead, or
            // the wait would overshoot to the next DRAM event.
            if self.completed.len() == before && self.busy() && !self.can_accept(addr, port) {
                self.skip_to_event(u64::MAX);
            }
        }
        debug_assert!(
            self.can_accept(addr, port),
            "advance_until_accept stalled: queue full with nothing in flight"
        );
        self.now - start
    }

    /// Advance until every queued and in-flight request has completed —
    /// the explicit replacement for open-coded
    /// `while pending > 0 {{ tick(); skip_to_event(u64::MAX) }}` drains.
    /// Debug builds assert the queues really are empty on return.
    ///
    /// Returns the number of cycles advanced (ticked + skipped).
    pub fn drain_all(&mut self) -> u64 {
        let start = self.now;
        while self.busy() {
            let before = self.completed.len();
            self.tick();
            if self.completed.len() == before && self.busy() {
                self.skip_to_event(u64::MAX);
            }
        }
        debug_assert!(
            self.pending.is_empty() && self.channels.iter().all(Channel::is_idle),
            "drain_all returned with work still queued"
        );
        self.now - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_at(mem: &mut MemorySystem, id: u64, addr: u64, port: Port) {
        mem.enqueue(Request::new(id, AccessKind::Read, addr, port))
            .expect("space");
    }

    #[test]
    fn single_read_closed_bank_latency() {
        let mut cfg = DramConfig::tiny();
        cfg.refresh_enabled = false;
        let t = cfg.timing.clone();
        let mut mem = MemorySystem::new(cfg);
        read_at(&mut mem, 1, 0, Port::Host);
        let cycles = mem.drain_all();
        assert!(cycles > 0);
        let done = mem.take_completed();
        assert_eq!(done.len(), 1);
        // Closed bank: ACT at cycle 0, RD at tRCD, data at tRCD+CL+BL.
        assert_eq!(done[0].latency(), t.rcd + t.cl + t.burst_cycles);
        assert!(!done[0].row_hit);
    }

    #[test]
    fn command_trace_records_issue_stream() {
        let mut cfg = DramConfig::tiny();
        cfg.refresh_enabled = false;
        let mut mem = MemorySystem::new(cfg);
        assert!(!mem.command_trace_enabled());
        assert!(mem.take_command_trace().is_empty(), "disabled ⇒ empty");
        mem.enable_command_trace();
        read_at(&mut mem, 1, 0, Port::Host);
        read_at(&mut mem, 2, 64, Port::Host); // same row → RD only
        mem.drain_all();
        let trace = mem.take_command_trace();
        // Closed bank: ACT then RD for the first, RD alone for the hit.
        let kinds: Vec<CommandKind> = trace.iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![CommandKind::Activate, CommandKind::Read, CommandKind::Read]
        );
        assert!(trace.iter().all(|c| c.channel == 0 && !c.ndp));
        assert!(trace[2].row_hit, "second read hits the open row");
        let mut cycles: Vec<u64> = trace.iter().map(|c| c.cycle).collect();
        let sorted = {
            let mut s = cycles.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(cycles, sorted, "trace is in issue order");
        cycles.dedup();
        assert_eq!(cycles.len(), 3, "one command per cycle per channel");
        // Draining leaves tracing on but the buffer empty.
        assert!(mem.command_trace_enabled());
        assert!(mem.take_command_trace().is_empty());
    }

    #[test]
    fn command_trace_disabled_costs_nothing() {
        let mut cfg = DramConfig::tiny();
        cfg.refresh_enabled = false;
        let mut with = MemorySystem::new(cfg.clone());
        with.enable_command_trace();
        let mut without = MemorySystem::new(cfg);
        for m in [&mut with, &mut without] {
            read_at(m, 1, 0, Port::Host);
            read_at(m, 2, 4096, Port::Ndp);
            m.drain_all();
        }
        // Tracing never perturbs timing or stats.
        assert_eq!(with.now(), without.now());
        assert_eq!(with.stats(), without.stats());
        assert!(with.take_command_trace().iter().any(|c| c.ndp));
        assert!(without.take_command_trace().is_empty());
    }

    #[test]
    fn second_read_same_row_is_hit() {
        let mut cfg = DramConfig::tiny();
        cfg.refresh_enabled = false;
        let mut mem = MemorySystem::new(cfg);
        // Same row, different column: addr stride of one channel interleave.
        read_at(&mut mem, 1, 0, Port::Host);
        read_at(&mut mem, 2, 64, Port::Host); // tiny has 1 channel → column 1
        mem.drain_all();
        let done = mem.take_completed();
        assert_eq!(done.len(), 2);
        let second = done.iter().find(|r| r.id == 2).expect("id 2 done");
        assert!(second.row_hit);
        assert_eq!(mem.stats().row_hits, 1);
        assert_eq!(mem.stats().row_misses, 1);
    }

    #[test]
    fn ndp_ranks_operate_in_parallel() {
        let mut cfg = DramConfig::tiny();
        cfg.refresh_enabled = false;
        cfg.queue_depth = 64;
        // Streaming row-hit traffic to both ranks. On the host path the two
        // streams share one channel DQ bus; on the NDP path each rank
        // streams on its own local bus, so NDP should take roughly half the
        // time.
        let map = AddrMap::new(&cfg);
        let addrs: Vec<(u64, u64)> = (0..16u64)
            .flat_map(|col| {
                [0usize, 1].into_iter().map(move |rank| {
                    let loc = crate::addrmap::Location {
                        channel: 0,
                        rank,
                        bank_group: 0,
                        bank: 0,
                        row: 1,
                        column: col as usize,
                    };
                    (rank as u64, loc)
                })
            })
            .map(|(rank, loc)| (rank, map.encode(loc)))
            .collect();

        let mut ndp = MemorySystem::new(cfg.clone());
        for (i, (_, a)) in addrs.iter().enumerate() {
            read_at(&mut ndp, i as u64, *a, Port::Ndp);
        }
        let ndp_cycles = ndp.drain_all();

        let mut host = MemorySystem::new(cfg);
        for (i, (_, a)) in addrs.iter().enumerate() {
            read_at(&mut host, i as u64, *a, Port::Host);
        }
        let host_cycles = host.drain_all();
        assert!(
            (ndp_cycles as f64) < host_cycles as f64 * 0.75,
            "NDP ({ndp_cycles}) should beat host ({host_cycles}) on rank-parallel traffic"
        );
    }

    #[test]
    fn streaming_reads_approach_peak_bandwidth() {
        let mut cfg = DramConfig::tiny();
        cfg.refresh_enabled = false;
        let t = cfg.timing.clone();
        let mut mem = MemorySystem::new(cfg);
        // 16 sequential lines in the same row: after the first ACT the bus
        // should stream at one burst per tCCD_L.
        let mut issued = 0u64;
        let mut next_id = 0u64;
        while issued < 16 {
            if mem.can_accept(issued * 64, Port::Host) {
                read_at(&mut mem, next_id, issued * 64, Port::Host);
                next_id += 1;
                issued += 1;
            }
            mem.tick();
        }
        mem.drain_all();
        let done = mem.take_completed();
        assert_eq!(done.len(), 16);
        let last = done.iter().map(|r| r.finish).max().expect("nonempty");
        // Lower bound: 16 bursts cannot finish faster than 16 × tCCD_L.
        assert!(last >= 16 * t.ccd_l.min(t.burst_cycles));
        // And should be well under fully-serialized closed-bank latency.
        assert!(last < 16 * (t.rcd + t.cl + t.burst_cycles));
    }

    #[test]
    fn refresh_eventually_fires() {
        let mut cfg = DramConfig::tiny();
        cfg.refresh_enabled = true;
        let refi = cfg.timing.refi;
        let mut mem = MemorySystem::new(cfg);
        for _ in 0..(refi + 1200) {
            mem.tick();
        }
        let counts = mem.rank_command_counts();
        assert!(counts.iter().any(|c| c.4 > 0), "some rank refreshed");
    }

    #[test]
    fn queue_full_returns_request() {
        let mut cfg = DramConfig::tiny();
        cfg.queue_depth = 2;
        cfg.refresh_enabled = false;
        let mut mem = MemorySystem::new(cfg);
        assert!(mem
            .enqueue(Request::new(0, AccessKind::Read, 0, Port::Host))
            .is_ok());
        assert!(mem
            .enqueue(Request::new(1, AccessKind::Read, 0, Port::Host))
            .is_ok());
        let r = mem.enqueue(Request::new(2, AccessKind::Read, 0, Port::Host));
        assert!(r.is_err());
        assert_eq!(r.unwrap_err().id, 2);
    }

    #[test]
    fn writes_complete() {
        let mut cfg = DramConfig::tiny();
        cfg.refresh_enabled = false;
        let mut mem = MemorySystem::new(cfg);
        mem.enqueue(Request::new(9, AccessKind::Write, 4096, Port::Host))
            .expect("space");
        mem.drain_all();
        let done = mem.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, AccessKind::Write);
        assert_eq!(mem.stats().host_writes, 1);
    }

    #[test]
    fn closed_page_policy_forfeits_row_hits() {
        let mut cfg = DramConfig::tiny();
        cfg.refresh_enabled = false;
        cfg.page_policy = crate::config::PagePolicy::Closed;
        let mut mem = MemorySystem::new(cfg);
        read_at(&mut mem, 1, 0, Port::Host);
        mem.drain_all();
        read_at(&mut mem, 2, 64, Port::Host); // same row, next column
        mem.drain_all();
        let done = mem.take_completed();
        let second = done.iter().find(|r| r.id == 2).expect("id 2 done");
        assert!(!second.row_hit, "closed policy auto-precharges after CAS");
        assert_eq!(mem.stats().row_misses, 2);
    }

    #[test]
    fn fast_forward_when_idle() {
        let mut mem = MemorySystem::new(DramConfig::tiny());
        mem.fast_forward_to(5000).expect("idle system");
        assert_eq!(mem.now(), 5000);
    }

    #[test]
    fn fast_forward_busy_rejected() {
        let mut mem = MemorySystem::new(DramConfig::tiny());
        mem.enqueue(Request::new(0, AccessKind::Read, 0, Port::Host))
            .expect("space");
        assert_eq!(
            mem.fast_forward_to(10),
            Err(crate::MemoryError::Busy { requested: 10 })
        );
        assert_eq!(mem.now(), 0, "clock unchanged on error");
    }

    #[test]
    fn advance_to_completion_waits_exactly_one_retirement() {
        let mut cfg = DramConfig::tiny();
        cfg.refresh_enabled = false;
        let t = cfg.timing.clone();
        let mut mem = MemorySystem::new(cfg);
        read_at(&mut mem, 1, 0, Port::Host);
        let advanced = mem.advance_to_completion();
        assert!(advanced > 0);
        let done = mem.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].latency(), t.rcd + t.cl + t.burst_cycles);
        // Counters split the advance into ticked + skipped cycles.
        assert_eq!(mem.cycles_ticked() + mem.cycles_skipped(), mem.now());
        assert!(mem.cycles_skipped() > 0, "latency span should skip");
    }

    #[test]
    fn advance_until_accept_frees_a_slot() {
        let mut cfg = DramConfig::tiny();
        cfg.queue_depth = 2;
        cfg.refresh_enabled = false;
        let mut mem = MemorySystem::new(cfg);
        read_at(&mut mem, 0, 0, Port::Host);
        read_at(&mut mem, 1, 64, Port::Host);
        assert!(!mem.can_accept(128, Port::Host));
        mem.advance_until_accept(128, Port::Host);
        assert!(mem.can_accept(128, Port::Host));
        read_at(&mut mem, 2, 128, Port::Host);
        mem.drain_all();
        assert_eq!(mem.take_completed().len(), 3);
        assert!(!mem.busy());
    }

    #[test]
    fn fast_forward_past_rejected() {
        let mut mem = MemorySystem::new(DramConfig::tiny());
        mem.fast_forward_to(100).expect("idle system");
        assert_eq!(
            mem.fast_forward_to(50),
            Err(crate::MemoryError::PastCycle {
                now: 100,
                requested: 50
            })
        );
        assert_eq!(mem.now(), 100);
    }
}
