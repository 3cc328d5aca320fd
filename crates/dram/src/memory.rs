//! The top-level memory system: channels, queues, tick loop, statistics.
//!
//! Each channel caches, per request queue, the earliest cycle anything in
//! that queue can issue, and per rank the next refresh event. The caches
//! depend only on bank, rank and bus state and on queue contents, never on
//! the clock, so [`MemorySystem::tick`] runs FR-FCFS only on queues that
//! can act and [`MemorySystem::next_event_cycle`] reads a few cached
//! values instead of re-deriving every queued request's issue window.

use std::collections::VecDeque;

use crate::addrmap::AddrMap;
use crate::command::CommandKind;
use crate::config::{DramConfig, Timing};
use crate::rank::Rank;
use crate::request::{AccessKind, Port, Request, Response};
use crate::scheduler::{self, Decision};

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

/// Index of the host queue in `Channel::queues`; rank `r`'s NDP queue is
/// at `r + 1`.
const HOST: usize = 0;

/// Cycles from a CAS to the start of its data burst.
fn cas_lead(read: bool, t: &Timing) -> u64 {
    if read {
        t.cl
    } else {
        t.cwl
    }
}

/// One request queue and its cached ready cycle.
#[derive(Debug, Clone)]
struct Queue {
    requests: Vec<Request>,
    /// Row-buffer outcome of each request's first issued command.
    outcome: Vec<Option<bool>>,
    /// Minimum over `requests` of `Channel::earliest_issue`, or `u64::MAX`
    /// when none can issue. Exact between ticks.
    ready: u64,
}

#[derive(Debug, Clone)]
struct Channel {
    ranks: Vec<Rank>,
    /// `queues[HOST]` is the host queue, `queues[r + 1]` rank `r`'s NDP
    /// queue.
    queues: Vec<Queue>,
    /// Per rank: [`Rank::next_refresh_event`], or `u64::MAX` with refresh
    /// off. Exact between ticks.
    refresh_at: Vec<u64>,
    /// Ranks a command touched during the current tick. A touched rank's
    /// NDP queue and `refresh_at` are stale, and so is the host queue,
    /// until the end of the channel's turn.
    touched: Vec<bool>,
    /// Minimum of every queue's `ready` and every `refresh_at`: the
    /// channel cannot act before this cycle.
    next_due: u64,
    host_bus_free: u64,
    host_bus_last_rank: Option<usize>,
}

impl Channel {
    fn new(config: &DramConfig) -> Self {
        let nranks = config.ranks_per_channel;
        let ranks: Vec<Rank> = (0..nranks).map(|_| Rank::new(config)).collect();
        let refresh_at = ranks
            .iter()
            .map(|r| refresh_event(r, config.refresh_enabled))
            .collect::<Vec<_>>();
        let queue = Queue {
            requests: Vec::new(),
            outcome: Vec::new(),
            ready: u64::MAX,
        };
        Channel {
            next_due: refresh_at.iter().copied().min().unwrap_or(u64::MAX),
            ranks,
            queues: vec![queue; nranks + 1],
            refresh_at,
            touched: vec![false; nranks],
            host_bus_free: 0,
            host_bus_last_rank: None,
        }
    }

    /// First cycle at which the data bus that queue `qi` uses for `rank`
    /// can take a burst: the shared channel bus, plus the rank-switch
    /// bubble, for the host queue; the rank-local bus for an NDP queue.
    fn bus_free(&self, qi: usize, rank: usize, t: &Timing) -> u64 {
        if qi != HOST {
            return self.ranks[rank].local_bus_free;
        }
        match self.host_bus_last_rank {
            Some(last) if last != rank => self.host_bus_free + t.rank_switch,
            _ => self.host_bus_free,
        }
    }

    /// FR-FCFS decision for queue `qi` at `now`.
    fn pick(&self, qi: usize, now: u64, t: &Timing) -> Option<Decision> {
        scheduler::pick(
            &self.queues[qi].requests,
            &self.ranks,
            now,
            t,
            |rank, kind, at| {
                at + cas_lead(kind == CommandKind::Read, t) >= self.bus_free(qi, rank, t)
            },
        )
    }

    /// Earliest cycle at which `req`, queued on `qi`, can issue its next
    /// command given the current frozen state, or `None` while the
    /// activate it needs is held back by a refresh drain (the refresh is a
    /// tracked event of its own). Exact: [`scheduler::pick`] finds `req`
    /// issuable at cycle `x` exactly when `x` is at or after this bound.
    fn earliest_issue(&self, qi: usize, req: &Request, t: &Timing) -> Option<u64> {
        let loc = &req.loc;
        let rank = &self.ranks[loc.rank];
        let is_read = req.kind == AccessKind::Read;
        let kind = rank.needed_command(loc.bank_group, loc.bank, loc.row, is_read);
        let e = rank.bank(loc.bank_group, loc.bank).earliest(kind);
        Some(match kind {
            CommandKind::Activate if rank.refresh_pending() => return None,
            CommandKind::Activate => e.max(rank.earliest_act(loc.bank_group, t)),
            CommandKind::Read | CommandKind::Write => {
                // Data-bus backpressure: a CAS issued at cycle x starts its
                // burst at x + CL/CWL, which must not precede bus release.
                let bus = self
                    .bus_free(qi, loc.rank, t)
                    .saturating_sub(cas_lead(is_read, t));
                e.max(rank.earliest_cas(loc.bank_group, kind, t)).max(bus)
            }
            CommandKind::Precharge | CommandKind::Refresh => e,
        })
    }

    /// Queue `qi`'s ready cycle, scanned from scratch.
    fn scan_ready(&self, qi: usize, t: &Timing) -> u64 {
        self.queues[qi]
            .requests
            .iter()
            .filter_map(|req| self.earliest_issue(qi, req, t))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Re-derive the caches a tick left stale, then `next_due`.
    fn rescan_stale(&mut self, host_stale: bool, refresh_enabled: bool, t: &Timing) {
        if host_stale {
            self.queues[HOST].ready = self.scan_ready(HOST, t);
        }
        for r in 0..self.ranks.len() {
            if std::mem::take(&mut self.touched[r]) {
                self.queues[r + 1].ready = self.scan_ready(r + 1, t);
                self.refresh_at[r] = refresh_event(&self.ranks[r], refresh_enabled);
            }
        }
        self.next_due = self
            .queues
            .iter()
            .map(|q| q.ready)
            .chain(self.refresh_at.iter().copied())
            .min()
            .unwrap_or(u64::MAX);
    }
}

/// `rank`'s next refresh-related state change, or `u64::MAX` with refresh
/// off.
fn refresh_event(rank: &Rank, refresh_enabled: bool) -> u64 {
    if refresh_enabled {
        rank.next_refresh_event()
    } else {
        u64::MAX
    }
}

/// The full, cycle-steppable memory system.
///
/// Drive it by calling [`MemorySystem::enqueue`] and [`MemorySystem::tick`];
/// completed requests appear via [`MemorySystem::completed`] /
/// [`MemorySystem::drain_completed`].
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: DramConfig,
    addr_map: AddrMap,
    channels: Vec<Channel>,
    now: u64,
    /// Requests waiting in any queue.
    queued: usize,
    /// Issued bursts awaiting their finish cycle, one FIFO per access kind
    /// (reads, then writes). Each kind has a fixed CAS-to-data latency, so
    /// a FIFO's issue order is its finish order.
    in_flight: [VecDeque<Response>; 2],
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
    ///
    /// # Panics
    ///
    /// Panics if `config` has more banks per rank than
    /// [`MAX_BANKS_PER_RANK`](crate::rank::MAX_BANKS_PER_RANK).
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
            queued: 0,
            in_flight: Default::default(),
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

    /// Index of the queue a request on `port` to `rank` joins.
    fn queue_index(port: Port, rank: usize) -> usize {
        match port {
            Port::Host => HOST,
            Port::Ndp => rank + 1,
        }
    }

    /// Whether a request can currently be accepted on `port` for `addr`.
    pub fn can_accept(&self, addr: u64, port: Port) -> bool {
        let loc = self.addr_map.decode(addr);
        let qi = Self::queue_index(port, loc.rank);
        self.channels[loc.channel].queues[qi].requests.len() < self.config.queue_depth
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
        let qi = Self::queue_index(req.port, loc.rank);
        let ch = &mut self.channels[loc.channel];
        if ch.queues[qi].requests.len() >= self.config.queue_depth {
            return Err(req);
        }
        // The new request can only lower its queue's ready cycle.
        if let Some(e) = ch.earliest_issue(qi, &req, &self.config.timing) {
            ch.queues[qi].ready = ch.queues[qi].ready.min(e);
            ch.next_due = ch.next_due.min(e);
        }
        ch.queues[qi].requests.push(req);
        ch.queues[qi].outcome.push(None);
        self.queued += 1;
        Ok(())
    }

    /// Responses completed but not yet drained.
    pub fn completed(&self) -> &[Response] {
        &self.completed
    }

    /// Move every completed response, in completion order, onto the end of
    /// `out`. The internal buffer keeps its capacity, so a driver that
    /// drains into one reused vector allocates nothing per completion.
    pub fn drain_completed(&mut self, out: &mut Vec<Response>) {
        out.append(&mut self.completed);
    }

    /// Whether any request is queued or in flight.
    pub fn busy(&self) -> bool {
        self.queued > 0 || self.in_flight.iter().any(|f| !f.is_empty())
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

    /// The earliest future cycle at which the system state can change: the
    /// next pending burst retirement, the earliest issue opportunity of any
    /// queued request, or a refresh deadline/drain step. Returns `None`
    /// only when the system is idle with refresh disabled. The value is a
    /// lower bound: ticking any cycle strictly before it is a no-op.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let next = self
            .in_flight
            .iter()
            .filter_map(|f| f.front().map(|r| r.finish))
            .chain(self.channels.iter().map(|c| c.next_due))
            .min()
            .unwrap_or(u64::MAX);
        (next != u64::MAX).then_some(next)
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

    /// Check every cached ready cycle, `refresh_at` and channel horizon
    /// against a from-scratch scan of every queued request, and check that
    /// FR-FCFS finds nothing to issue now on any queue the tick gate would
    /// skip. Debug builds run it on a sample of ticks; the property tests
    /// run it after every step.
    ///
    /// # Errors
    ///
    /// Describes the first stale cache or wrongly gated queue found.
    pub fn verify_ready_caches(&self) -> Result<(), String> {
        let t = &self.config.timing;
        let now = self.now;
        for (c, ch) in self.channels.iter().enumerate() {
            if ch.touched.contains(&true) {
                return Err(format!("channel {c}: a touched rank outlived its tick"));
            }
            let mut due = u64::MAX;
            for (r, rank) in ch.ranks.iter().enumerate() {
                let want = refresh_event(rank, self.config.refresh_enabled);
                if ch.refresh_at[r] != want {
                    return Err(format!(
                        "channel {c} rank {r}: refresh_at cached {} but scans {want}",
                        ch.refresh_at[r]
                    ));
                }
                due = due.min(want);
            }
            for (qi, q) in ch.queues.iter().enumerate() {
                let want = ch.scan_ready(qi, t);
                if q.ready != want {
                    return Err(format!(
                        "channel {c} queue {qi}: ready cached {} but scans {want}",
                        q.ready
                    ));
                }
                due = due.min(want);
                if q.ready > now && ch.pick(qi, now, t).is_some() {
                    return Err(format!(
                        "channel {c} queue {qi}: gated off at cycle {now}, but FR-FCFS issues"
                    ));
                }
            }
            if ch.next_due != due {
                return Err(format!(
                    "channel {c}: next_due cached {} but scans {due}",
                    ch.next_due
                ));
            }
        }
        Ok(())
    }

    /// Move the bursts that finish by `now` to the completed buffer in
    /// `(finish, id)` order.
    fn retire(&mut self, now: u64) {
        let start = self.completed.len();
        for fifo in &mut self.in_flight {
            while fifo.front().is_some_and(|r| r.finish <= now) {
                self.completed.extend(fifo.pop_front());
            }
        }
        if self.completed.len() - start > 1 {
            self.completed[start..].sort_by_key(|r| (r.finish, r.id));
        }
    }

    /// Advance one cycle: retire finished bursts, schedule refreshes, and
    /// issue at most one host command per channel plus one NDP command per
    /// rank. A channel whose cached horizon lies ahead is skipped whole;
    /// otherwise only ranks due for refresh management and queues that are
    /// stale or ready take their turn. Debug builds check the caches with
    /// [`MemorySystem::verify_ready_caches`] after one tick in 64.
    pub fn tick(&mut self) {
        let now = self.now;
        self.retire(now);
        let MemorySystem {
            config,
            channels,
            queued,
            in_flight,
            stats,
            command_trace,
            ..
        } = self;
        let t = &config.timing;
        for (ch_idx, ch) in channels.iter_mut().enumerate() {
            if ch.next_due > now {
                continue;
            }
            let mut host_stale = false;
            for r in 0..ch.ranks.len() {
                if ch.refresh_at[r] <= now {
                    ch.ranks[r].refresh_step(now, t);
                    ch.touched[r] = true;
                    host_stale = true;
                }
            }
            // Host queue first (one command on the channel C/A bus), then
            // one command per rank-local C/A bus.
            for qi in 0..ch.queues.len() {
                let stale = if qi == HOST {
                    host_stale
                } else {
                    ch.touched[qi - 1]
                };
                if ch.queues[qi].requests.is_empty() || (!stale && ch.queues[qi].ready > now) {
                    continue;
                }
                let Some(d) = ch.pick(qi, now, t) else {
                    continue;
                };
                debug_assert!(qi == HOST || d.rank == qi - 1, "NDP queue is rank-local");
                ch.touched[d.rank] = true;
                host_stale = true;
                let q = &mut ch.queues[qi];
                if q.outcome[d.queue_index].is_none() {
                    q.outcome[d.queue_index] = Some(d.row_hit);
                    let conflict = d.command.kind == CommandKind::Precharge;
                    ch.ranks[d.rank].record_outcome(&d.command, d.row_hit, conflict);
                    if d.row_hit {
                        stats.row_hits += 1;
                    } else if conflict {
                        stats.row_conflicts += 1;
                    } else {
                        stats.row_misses += 1;
                    }
                }
                ch.ranks[d.rank].issue(&d.command, now, t);
                if let Some(trace) = command_trace.as_mut() {
                    trace.push(CommandRecord {
                        cycle: now,
                        kind: d.command.kind,
                        channel: ch_idx,
                        rank: d.rank,
                        row_hit: d.row_hit,
                        ndp: qi != HOST,
                    });
                }
                if !d.completes {
                    continue;
                }
                let req = q.requests.remove(d.queue_index);
                let row_hit = q.outcome.remove(d.queue_index).unwrap_or(d.row_hit);
                let read = req.kind == AccessKind::Read;
                let finish = now + cas_lead(read, t) + t.burst_cycles;
                let latency = finish - req.arrival;
                if qi == HOST {
                    ch.host_bus_free = finish;
                    ch.host_bus_last_rank = Some(d.rank);
                    stats.host_bus_busy_cycles += t.burst_cycles;
                    stats.host_latency_sum += latency;
                    match req.kind {
                        AccessKind::Read => stats.host_reads += 1,
                        AccessKind::Write => stats.host_writes += 1,
                    }
                } else {
                    ch.ranks[d.rank].local_bus_free = finish;
                    stats.ndp_bus_busy_cycles += t.burst_cycles;
                    stats.ndp_latency_sum += latency;
                    match req.kind {
                        AccessKind::Read => stats.ndp_reads += 1,
                        AccessKind::Write => stats.ndp_writes += 1,
                    }
                }
                *queued -= 1;
                in_flight[usize::from(!read)].push_back(Response {
                    id: req.id,
                    kind: req.kind,
                    arrival: req.arrival,
                    finish,
                    row_hit,
                });
            }
            ch.rescan_stale(host_stale, config.refresh_enabled, t);
        }

        self.now += 1;
        self.cycles_ticked += 1;
        #[cfg(debug_assertions)]
        if self.cycles_ticked % 64 == 1 {
            if let Err(e) = self.verify_ready_caches() {
                panic!("stale DRAM ready cache after the tick at cycle {now}: {e}");
            }
        }
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
        debug_assert!(!self.busy(), "drain_all returned with work still queued");
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
        let mut done = Vec::new();
        mem.drain_completed(&mut done);
        assert_eq!(done.len(), 1);
        // Closed bank: ACT at cycle 0, RD at tRCD, data at tRCD+CL+BL.
        assert_eq!(done[0].latency(), t.rcd + t.cl + t.burst_cycles);
        assert!(!done[0].row_hit);
    }

    #[test]
    fn same_cycle_bursts_retire_in_id_order() {
        let mut cfg = DramConfig::ddr5_4800();
        cfg.refresh_enabled = false;
        let t = cfg.timing.clone();
        let mut mem = MemorySystem::new(cfg);
        // Lines 0 and 1 sit on channels 0 and 1: both reads issue in the
        // same cycles, channel 0 first, and finish together.
        read_at(&mut mem, 7, 0, Port::Host);
        read_at(&mut mem, 2, 64, Port::Host);
        // A write issued alongside on channel 2 finishes CL - CWL earlier.
        mem.enqueue(Request::new(9, AccessKind::Write, 128, Port::Host))
            .expect("space");
        mem.drain_all();
        let mut done = Vec::new();
        mem.drain_completed(&mut done);
        let order: Vec<(u64, u64)> = done.iter().map(|r| (r.finish, r.id)).collect();
        let read = t.rcd + t.cl + t.burst_cycles;
        let write = t.rcd + t.cwl + t.burst_cycles;
        assert_eq!(order, vec![(write, 9), (read, 2), (read, 7)]);
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
        let mut done = Vec::new();
        mem.drain_completed(&mut done);
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
        let mut done = Vec::new();
        mem.drain_completed(&mut done);
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
        let mut done = Vec::new();
        mem.drain_completed(&mut done);
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
        let mut done = Vec::new();
        mem.drain_completed(&mut done);
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
        let mut done = Vec::new();
        mem.drain_completed(&mut done);
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
        let mut done = Vec::new();
        mem.drain_completed(&mut done);
        assert_eq!(done.len(), 3);
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
