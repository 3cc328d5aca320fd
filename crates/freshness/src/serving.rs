//! Churn-aware serving: a mixed read/write arrival stream through shared
//! WFQ admission, with epochs firing on the event wheel.
//!
//! Query tenants ([`TenantSpec`], the serving layer's seeded arrival
//! processes) and *update tenants* ([`UpdateTenantSpec`], seeded
//! insert/delete streams) share one weighted-fair queue and one
//! queue-depth admission limit — an update burst steals service slots
//! from readers exactly as the WFQ weights dictate, and overload sheds
//! both classes. The device is a serial cycle-domain model:
//!
//! * A read runs the search twice — through [`FreshEtOracle`] (charged:
//!   base + fetched lines) and through an exact oracle — and records
//!   whether the two disagree, proving ET losslessness *in flight* on
//!   the mutated index.
//! * An insert extends the index incrementally (charged per touched
//!   HNSW layer); a delete writes a tombstone.
//! * Epoch wakeups are scheduled on an [`EventWheel`]; when one fires,
//!   the [`EpochManager`] pauses the device for its modeled compaction
//!   cost, which surfaces as queueing delay in the read tail.
//!
//! Everything is integer-cycle and seed-driven: the report — including
//! the chained fingerprint over every served read result — is a pure
//! function of the config, bit-identical across reruns and host thread
//! counts.

use std::collections::VecDeque;

use ansmet_core::EtEngine;
use ansmet_index::{ExactOracle, SearchScratch};
use ansmet_obs::{fingerprint64, EventKind, LatencyHistogram, NoopSink, Phase, TraceSink};
use ansmet_serve::{generate_arrivals, TenantSpec};
use ansmet_sim::EventWheel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::epoch::{EpochConfig, EpochManager, EpochReport};
use crate::mutable::MutableIndex;
use crate::oracle::FreshEtOracle;
use crate::revalidate::LayoutArtifacts;

/// Fixed read service cost before any line is fetched.
pub const READ_BASE_CYCLES: u64 = 512;
/// Service cycles per fetched line (transformed or natural layout).
pub const CYCLES_PER_LINE: u64 = 32;
/// Fixed insert cost (dataset append + bookkeeping).
pub const INSERT_BASE_CYCLES: u64 = 2_048;
/// Additional insert cost per HNSW layer the new node joins.
pub const INSERT_LAYER_CYCLES: u64 = 1_024;
/// Tombstone-write cost of a delete.
pub const DELETE_CYCLES: u64 = 512;

const TOKEN_EPOCH: u32 = 1;

/// One update operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Stream one held-out vector into the index.
    Insert,
    /// Tombstone a seeded-random live vector.
    Delete,
}

/// One tenant's seeded update stream.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateTenantSpec {
    /// Display name (keys the per-tenant report).
    pub name: String,
    /// Weighted-fair-queueing weight, shared scale with query tenants.
    pub weight: u64,
    /// Offered update rate in operations per second (Poisson).
    pub qps: f64,
    /// Operations offered over the run.
    pub ops: usize,
    /// Fraction of operations that are deletes, in `[0, 1]`.
    pub delete_frac: f64,
}

/// Churn run configuration.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Master seed for arrivals and update streams.
    pub seed: u64,
    /// Memory clock translating offered QPS into cycle gaps.
    pub mem_clock_mhz: u64,
    /// Query tenants (read side of the stream).
    pub read_tenants: Vec<TenantSpec>,
    /// Update tenants (write side of the stream).
    pub update_tenants: Vec<UpdateTenantSpec>,
    /// Neighbors returned per read.
    pub k: usize,
    /// HNSW beam width per read.
    pub ef: usize,
    /// Shared admission limit: total queued items across all tenants.
    pub queue_depth_limit: usize,
    /// Epoch cadence and re-validation policy.
    pub epoch: EpochConfig,
}

/// What a churn run measured.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Reads served to completion.
    pub reads_served: u64,
    /// Reads shed at admission.
    pub reads_shed: u64,
    /// Inserts applied.
    pub inserts_applied: u64,
    /// Deletes applied.
    pub deletes_applied: u64,
    /// Updates shed at admission.
    pub updates_shed: u64,
    /// Updates that became no-ops (exhausted insert pool / live set at
    /// the guard floor).
    pub updates_noop: u64,
    /// Reads where the ET and exact oracles disagreed (must be 0: ET is
    /// lossless, and tombstone filtering is oracle-independent).
    pub et_mismatches: u64,
    /// Transformed + natural lines fetched by the ET oracle.
    pub lines_fetched: u64,
    /// Lines a no-ET design would have fetched for the same reads.
    pub lines_baseline: u64,
    /// Comparisons served via the conservative full-fetch path.
    pub conservative_fetches: u64,
    /// Read total latency (arrival → completion), cycles.
    pub read_latency: LatencyHistogram,
    /// Update total latency (arrival → completion), cycles.
    pub update_latency: LatencyHistogram,
    /// Epoch pause durations, cycles.
    pub pause: LatencyHistogram,
    /// Every epoch that ran, in order (the last one is the final
    /// drain-time epoch).
    pub epochs: Vec<EpochReport>,
    /// Chained FNV fingerprint over every served read's neighbor ids.
    pub results_fingerprint: u64,
    /// Per-tenant (name, items served).
    pub tenants_served: Vec<(String, u64)>,
    /// Cycle at which the run (including the final epoch) completed.
    pub end_cycle: u64,
}

impl ChurnReport {
    /// Updates applied per wall-second of simulated time.
    pub fn update_throughput_per_sec(&self, mem_clock_mhz: u64) -> f64 {
        let secs = self.end_cycle as f64 / (mem_clock_mhz as f64 * 1e6);
        (self.inserts_applied + self.deletes_applied) as f64 / secs.max(1e-12)
    }

    /// Epochs that re-planned the layout.
    pub fn replans(&self) -> u64 {
        self.epochs
            .iter()
            .filter(|e| e.revalidated.replanned)
            .count() as u64
    }

    /// Tombstones purged across all epochs.
    pub fn total_purged(&self) -> u64 {
        self.epochs.iter().map(|e| e.purged as u64).sum()
    }

    /// Replica adds + removes shipped across all epochs.
    pub fn replicas_shipped(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| (e.revalidated.replicas_added + e.revalidated.replicas_removed) as u64)
            .sum()
    }
}

impl std::fmt::Display for ChurnReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "reads: {} served, {} shed, p50 {} / p99 {} cycles",
            self.reads_served,
            self.reads_shed,
            self.read_latency.quantile(0.50),
            self.read_latency.quantile(0.99),
        )?;
        writeln!(
            f,
            "updates: {} inserts + {} deletes applied, {} shed, {} no-op, p99 {} cycles",
            self.inserts_applied,
            self.deletes_applied,
            self.updates_shed,
            self.updates_noop,
            self.update_latency.quantile(0.99),
        )?;
        writeln!(
            f,
            "epochs: {} run ({} re-plans), purge total {}, pause p99 {} cycles",
            self.epochs.len(),
            self.replans(),
            self.total_purged(),
            self.pause.quantile(0.99),
        )?;
        write!(
            f,
            "ET under churn: {} mismatches, {} lines vs {} baseline, {} conservative fetches",
            self.et_mismatches, self.lines_fetched, self.lines_baseline, self.conservative_fetches,
        )
    }
}

/// A merged arrival: read or update.
#[derive(Debug, Clone)]
enum ItemKind {
    Read { query: usize },
    Update { op: UpdateOp, draw: u64 },
}

#[derive(Debug, Clone)]
struct Item {
    cycle: u64,
    tenant: usize,
    seq: u64,
    kind: ItemKind,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    idx: usize,
    arrival: u64,
    tag: u64,
}

/// Generate one update tenant's seeded Poisson op stream. Sub-seeded by
/// the tenant's *absolute* index (after the read tenants), so read and
/// update streams never share an RNG and adding one never perturbs
/// another.
fn generate_updates(
    specs: &[UpdateTenantSpec],
    first_tenant: usize,
    seed: u64,
    mem_clock_mhz: u64,
) -> Vec<Item> {
    let mut all = Vec::new();
    for (u, spec) in specs.iter().enumerate() {
        assert!(
            spec.weight > 0,
            "update tenant {} has zero weight",
            spec.name
        );
        assert!(
            spec.qps.is_finite() && spec.qps > 0.0,
            "update tenant {} has non-positive rate",
            spec.name
        );
        assert!(
            (0.0..=1.0).contains(&spec.delete_frac),
            "delete fraction out of range"
        );
        let tenant = first_tenant + u;
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let rate = spec.qps / (mem_clock_mhz as f64 * 1e6);
        let mut now = 0u64;
        for seq in 0..spec.ops as u64 {
            let gap: f64 = rng.gen_range(0.0..1.0);
            now += ((-(1.0 - gap).ln() / rate).round() as u64).max(1);
            let op = if rng.gen_range(0.0..1.0) < spec.delete_frac {
                UpdateOp::Delete
            } else {
                UpdateOp::Insert
            };
            let draw = rng.gen_range(0..1_000_000_007usize) as u64;
            all.push(Item {
                cycle: now,
                tenant,
                seq,
                kind: ItemKind::Update { op, draw },
            });
        }
    }
    all
}

/// Run the churn loop: serve the merged read/update stream against
/// `index`, firing epochs on the event wheel, then run one final
/// drain-time epoch.
///
/// `queries` is the read tenants' query pool; `pending_inserts` is the
/// held-out vector pool insert ops consume (cycling when exhausted —
/// an empty pool turns inserts into no-ops).
///
/// # Panics
///
/// Panics on an empty tenant list or an empty query pool.
pub fn run_churn(
    index: &mut MutableIndex,
    layout: &mut LayoutArtifacts,
    queries: &[Vec<f32>],
    pending_inserts: &[Vec<f32>],
    cfg: &ChurnConfig,
) -> ChurnReport {
    run_churn_with_sink(index, layout, queries, pending_inserts, cfg, &mut NoopSink)
}

/// [`run_churn`] with a [`TraceSink`] observing the run: per-read
/// `QueryComplete` events with `Queue`/`Execute` spans and
/// `churn.{queue,exec,total}_cycles` records, `Shed` events at
/// admission, `CompactionPause` events when an epoch pauses the device,
/// and `churn.queue_depth` samples on the serving clock. The sink is
/// observe-only: the report is bit-identical to the unsunk run.
pub fn run_churn_with_sink<S: TraceSink>(
    index: &mut MutableIndex,
    layout: &mut LayoutArtifacts,
    queries: &[Vec<f32>],
    pending_inserts: &[Vec<f32>],
    cfg: &ChurnConfig,
    sink: &mut S,
) -> ChurnReport {
    assert!(
        !cfg.read_tenants.is_empty() || !cfg.update_tenants.is_empty(),
        "need at least one tenant"
    );
    let n_read = cfg.read_tenants.len();
    let n_tenants = n_read + cfg.update_tenants.len();

    // Merge the two arrival streams into one (cycle, tenant, seq) order.
    let mut items: Vec<Item> = Vec::new();
    if !cfg.read_tenants.is_empty() {
        assert!(!queries.is_empty(), "read tenants need a query pool");
        for a in generate_arrivals(
            &cfg.read_tenants,
            queries.len(),
            cfg.seed,
            cfg.mem_clock_mhz,
        ) {
            items.push(Item {
                cycle: a.cycle,
                tenant: a.tenant,
                seq: a.seq,
                kind: ItemKind::Read { query: a.query },
            });
        }
    }
    items.extend(generate_updates(
        &cfg.update_tenants,
        n_read,
        cfg.seed,
        cfg.mem_clock_mhz,
    ));
    items.sort_by_key(|i| (i.cycle, i.tenant, i.seq));

    let weight_of = |tenant: usize| -> u64 {
        if tenant < n_read {
            cfg.read_tenants[tenant].weight
        } else {
            cfg.update_tenants[tenant - n_read].weight
        }
    };

    let mut wfq = ansmet_serve::WfqState::new(n_tenants.max(1));
    let mut queues: Vec<VecDeque<Queued>> = vec![VecDeque::new(); n_tenants];
    let mut wheel = EventWheel::new(0);
    let mut mgr = EpochManager::new(cfg.epoch);
    wheel.schedule(cfg.epoch.interval_cycles, TOKEN_EPOCH);

    let mut report = ChurnReport {
        reads_served: 0,
        reads_shed: 0,
        inserts_applied: 0,
        deletes_applied: 0,
        updates_shed: 0,
        updates_noop: 0,
        et_mismatches: 0,
        lines_fetched: 0,
        lines_baseline: 0,
        conservative_fetches: 0,
        read_latency: LatencyHistogram::new(),
        update_latency: LatencyHistogram::new(),
        pause: LatencyHistogram::new(),
        epochs: Vec::new(),
        results_fingerprint: 0,
        tenants_served: Vec::new(),
        end_cycle: 0,
    };
    let mut served_per_tenant = vec![0u64; n_tenants];
    let mut scratch = SearchScratch::with_headroom(index.len(), pending_inserts.len().max(64));
    let mut insert_cursor = 0usize;

    let mut now = 0u64;
    let mut busy_until = 0u64;
    let mut epoch_pending = false;
    let mut next_arrival = 0usize;

    loop {
        // Admit everything that has arrived by `now` under the shared
        // depth limit, tagging admitted items with their WFQ finish tag.
        while next_arrival < items.len() && items[next_arrival].cycle <= now {
            let item = &items[next_arrival];
            let depth: usize = queues.iter().map(|q| q.len()).sum();
            if depth >= cfg.queue_depth_limit {
                match item.kind {
                    ItemKind::Read { .. } => report.reads_shed += 1,
                    ItemKind::Update { .. } => report.updates_shed += 1,
                }
                sink.event(now, EventKind::Shed { deadline: false });
            } else {
                let tag = wfq.admit_tag(item.tenant, weight_of(item.tenant));
                queues[item.tenant].push_back(Queued {
                    idx: next_arrival,
                    arrival: item.cycle,
                    tag,
                });
            }
            next_arrival += 1;
        }

        // Collect due wheel wakeups (epoch timer).
        while wheel.next_due().is_some_and(|c| c <= now) {
            if let Some(w) = wheel.pop_next() {
                if w.token == TOKEN_EPOCH {
                    epoch_pending = true;
                }
            }
        }

        if sink.enabled() {
            let depth: usize = queues.iter().map(|q| q.len()).sum();
            sink.sample(now, "churn.queue_depth", depth as u64);
        }

        let device_free = now >= busy_until;
        if device_free && epoch_pending {
            let er = mgr.run_epoch(index, layout);
            report.pause.record(er.pause_cycles);
            busy_until = now + er.pause_cycles;
            sink.event(
                now,
                EventKind::CompactionPause {
                    epoch: er.epoch.min(u32::MAX as u64) as u32,
                    cycles: er.pause_cycles.min(u32::MAX as u64) as u32,
                },
            );
            report.epochs.push(er);
            epoch_pending = false;
            wheel.schedule(now + cfg.epoch.interval_cycles, TOKEN_EPOCH);
            continue;
        }

        if device_free {
            let head = ansmet_serve::WfqState::next_tenant(
                queues
                    .iter()
                    .enumerate()
                    .filter_map(|(t, q)| q.front().map(|h| (t, h.tag))),
            );
            if let Some(t) = head {
                let q = queues[t].pop_front().expect("head tenant has an item");
                wfq.advance_to(q.tag);
                let item = items[q.idx].clone();
                let service = match item.kind {
                    ItemKind::Read { query } => {
                        let cycles = execute_read(
                            index,
                            layout,
                            &queries[query],
                            cfg.k,
                            cfg.ef,
                            &mut scratch,
                            &mut report,
                        );
                        report.reads_served += 1;
                        report.read_latency.record(now + cycles - q.arrival);
                        if sink.enabled() {
                            let completion = now + cycles;
                            sink.event(
                                completion,
                                EventKind::QueryComplete {
                                    query: query.min(u32::MAX as usize) as u32,
                                    tenant: t as u32,
                                },
                            );
                            if now > q.arrival {
                                sink.span(Phase::Queue, q.arrival, now);
                            }
                            sink.span(Phase::Execute, now, completion);
                            sink.record("churn.queue_cycles", now - q.arrival);
                            sink.record("churn.exec_cycles", cycles);
                            sink.record("churn.total_cycles", completion - q.arrival);
                        }
                        cycles
                    }
                    ItemKind::Update { op, draw } => {
                        let cycles = execute_update(
                            index,
                            op,
                            draw,
                            pending_inserts,
                            &mut insert_cursor,
                            cfg.k,
                            &mut report,
                        );
                        report.update_latency.record(now + cycles - q.arrival);
                        cycles
                    }
                };
                served_per_tenant[t] += 1;
                busy_until = now + service;
                continue;
            }
        }

        // Nothing runnable at `now`: jump to the next event, or stop
        // once the stream is drained and the device is idle.
        let drained =
            next_arrival >= items.len() && queues.iter().all(|q| q.is_empty()) && !epoch_pending;
        if drained && device_free {
            break;
        }
        let mut next = u64::MAX;
        if next_arrival < items.len() {
            next = next.min(items[next_arrival].cycle);
        }
        if !device_free {
            next = next.min(busy_until);
        }
        if let Some(c) = wheel.next_due() {
            // The epoch timer only matters while work remains; after the
            // drain it would keep the loop alive forever.
            if !drained {
                next = next.min(c);
            }
        }
        assert!(next > now, "event loop failed to advance");
        now = next;
    }

    // Final drain-time epoch: purge whatever the last interval left.
    let er = mgr.run_epoch(index, layout);
    report.pause.record(er.pause_cycles);
    report.end_cycle = now.max(busy_until) + er.pause_cycles;
    sink.event(
        now.max(busy_until),
        EventKind::CompactionPause {
            epoch: er.epoch.min(u32::MAX as u64) as u32,
            cycles: er.pause_cycles.min(u32::MAX as u64) as u32,
        },
    );
    report.epochs.push(er);

    report.tenants_served = cfg
        .read_tenants
        .iter()
        .map(|t| t.name.clone())
        .chain(cfg.update_tenants.iter().map(|t| t.name.clone()))
        .zip(served_per_tenant)
        .collect();
    report
}

/// Serve one read through both oracles; returns the charged cycles.
fn execute_read(
    index: &MutableIndex,
    layout: &LayoutArtifacts,
    query: &[f32],
    k: usize,
    ef: usize,
    scratch: &mut SearchScratch,
    report: &mut ChurnReport,
) -> u64 {
    // The engine classifies vectors against the *current* data; fresh
    // inserts it has never been re-validated for are routed around it by
    // the conservative flags.
    let engine = EtEngine::new(index.data(), layout.et_config());
    let mut et = FreshEtOracle::new(&engine, index.conservative_flags(), query)
        .expect("read queries match the index");
    let r_et = index.search_with(query, k, ef, &mut et, scratch);
    let mut exact = ExactOracle::new(index.data());
    let r_exact = index.search_with(query, k, ef, &mut exact, scratch);
    if r_et.ids() != r_exact.ids() {
        report.et_mismatches += 1;
    }
    report.lines_fetched += et.lines + et.backup_lines;
    report.lines_baseline += et.baseline_lines();
    report.conservative_fetches += et.conservative_fetches;
    let mut chain = Vec::with_capacity(8 + r_et.neighbors().len() * 8);
    chain.extend_from_slice(&report.results_fingerprint.to_le_bytes());
    for n in r_et.neighbors() {
        chain.extend_from_slice(&(n.id as u64).to_le_bytes());
    }
    report.results_fingerprint = fingerprint64(&chain);
    READ_BASE_CYCLES + (et.lines + et.backup_lines) * CYCLES_PER_LINE
}

/// Apply one update; returns the charged cycles.
fn execute_update(
    index: &mut MutableIndex,
    op: UpdateOp,
    draw: u64,
    pending_inserts: &[Vec<f32>],
    insert_cursor: &mut usize,
    k: usize,
    report: &mut ChurnReport,
) -> u64 {
    match op {
        UpdateOp::Insert => {
            if pending_inserts.is_empty() {
                report.updates_noop += 1;
                return DELETE_CYCLES; // bookkeeping-only cost
            }
            let v = &pending_inserts[*insert_cursor % pending_inserts.len()];
            *insert_cursor += 1;
            let id = index.insert(v);
            report.inserts_applied += 1;
            INSERT_BASE_CYCLES + (index.hnsw().level(id) as u64 + 1) * INSERT_LAYER_CYCLES
        }
        UpdateOp::Delete => {
            // Keep enough live vectors for k-NN to stay meaningful.
            if index.live_len() <= k + 1 {
                report.updates_noop += 1;
                return DELETE_CYCLES;
            }
            let rank = (draw % index.live_len() as u64) as usize;
            let victim = (0..index.len())
                .filter(|&i| index.is_live(i))
                .nth(rank)
                .expect("rank is bounded by the live count");
            let applied = index.delete(victim);
            debug_assert!(applied, "victim was chosen among live ids");
            report.deletes_applied += 1;
            DELETE_CYCLES
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_index::HnswParams;
    use ansmet_serve::ArrivalProcess;
    use ansmet_vecdata::{Dataset, SynthSpec};

    fn setup(
        n: usize,
        held: usize,
    ) -> (MutableIndex, LayoutArtifacts, Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let (data, queries) = SynthSpec::sift().scaled(n, 3).generate();
        let pending: Vec<Vec<f32>> = (n - held..n).map(|i| data.vector(i).to_vec()).collect();
        let base = Dataset::from_values(
            "t",
            data.dtype(),
            data.metric(),
            data.dim(),
            (0..n - held)
                .flat_map(|i| data.vector(i).to_vec())
                .collect(),
        );
        let idx = MutableIndex::build_hnsw(base, HnswParams::quick(), 33);
        let layout = LayoutArtifacts::plan(&idx, 0.01);
        (idx, layout, queries, pending)
    }

    fn config(reads: usize, ops: usize) -> ChurnConfig {
        ChurnConfig {
            seed: 0xC0FFEE,
            mem_clock_mhz: 2400,
            read_tenants: vec![TenantSpec {
                name: "interactive".into(),
                weight: 4,
                process: ArrivalProcess::Poisson { qps: 200_000.0 },
                slo_cycles: 1_000_000,
                queries: reads,
            }],
            update_tenants: vec![UpdateTenantSpec {
                name: "writer".into(),
                weight: 2,
                qps: 100_000.0,
                ops,
                delete_frac: 0.4,
            }],
            k: 5,
            ef: 40,
            queue_depth_limit: 64,
            epoch: EpochConfig {
                interval_cycles: 400_000,
                conservative_headroom: 0.05,
            },
        }
    }

    /// A churn run's counters and results equal those of the run in
    /// which each read evaluated every comparison from the query slice,
    /// before the read's oracle prepared its query: the values were
    /// recorded from that run.
    #[test]
    fn churn_counters_match_the_query_slice_reads() {
        let (mut idx, mut layout, queries, pending) = setup(400, 60);
        let r = run_churn(&mut idx, &mut layout, &queries, &pending, &config(40, 30));
        let got = [
            r.reads_served,
            r.reads_shed,
            r.inserts_applied,
            r.deletes_applied,
            r.updates_shed,
            r.updates_noop,
            r.et_mismatches,
            r.lines_fetched,
            r.lines_baseline,
            r.conservative_fetches,
            r.end_cycle,
            r.results_fingerprint,
        ];
        assert_eq!(
            got,
            [
                40,
                0,
                13,
                17,
                0,
                0,
                0,
                18_659,
                20_988,
                44,
                708_760,
                11_396_562_185_743_668_588
            ]
        );
    }

    #[test]
    fn churn_run_is_deterministic_and_lossless() {
        let (mut idx, mut layout, queries, pending) = setup(400, 60);
        let cfg = config(40, 30);
        let a = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
        assert_eq!(a.et_mismatches, 0, "ET must stay lossless under churn");
        assert_eq!(a.reads_served + a.reads_shed, 40);
        assert!(a.inserts_applied + a.deletes_applied > 0);
        assert!(!a.epochs.is_empty(), "the drain-time epoch always runs");
        assert!(a.end_cycle > 0);
        // Bit-identical rerun from identical initial state.
        let (mut idx2, mut layout2, queries2, pending2) = setup(400, 60);
        let b = run_churn(&mut idx2, &mut layout2, &queries2, &pending2, &cfg);
        assert_eq!(a.results_fingerprint, b.results_fingerprint);
        assert_eq!(a.reads_served, b.reads_served);
        assert_eq!(a.end_cycle, b.end_cycle);
        assert_eq!(idx.generation(), idx2.generation());
    }

    #[test]
    fn shed_kicks_in_under_a_tiny_depth_limit() {
        let (mut idx, mut layout, queries, pending) = setup(300, 30);
        let mut cfg = config(60, 20);
        cfg.queue_depth_limit = 1;
        let r = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
        assert!(
            r.reads_shed + r.updates_shed > 0,
            "depth limit 1 must shed under this load"
        );
    }

    #[test]
    fn writer_weight_shapes_service_share() {
        let (mut idx, mut layout, queries, pending) = setup(300, 80);
        let mut cfg = config(50, 50);
        cfg.update_tenants[0].weight = 8;
        let r = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
        let writer_served = r
            .tenants_served
            .iter()
            .find(|(n, _)| n == "writer")
            .map(|&(_, c)| c)
            .expect("writer tenant reported");
        assert!(writer_served > 0);
        assert!(r.update_latency.count() == writer_served);
    }

    #[test]
    fn sink_is_observe_only_and_the_ops_plane_assembles_the_run() {
        let (mut idx, mut layout, queries, pending) = setup(300, 40);
        let cfg = config(40, 30);
        let a = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
        let (mut idx2, mut layout2, queries2, pending2) = setup(300, 40);
        let mut plane = ansmet_obs::OpsPlane::new(ansmet_obs::OpsConfig::default());
        let b = run_churn_with_sink(
            &mut idx2,
            &mut layout2,
            &queries2,
            &pending2,
            &cfg,
            &mut plane,
        );
        // Observe-only: the instrumented run is bit-identical.
        assert_eq!(a.results_fingerprint, b.results_fingerprint);
        assert_eq!(a.end_cycle, b.end_cycle);
        assert_eq!(a.reads_served, b.reads_served);
        // The plane saw every served read and every epoch pause.
        let report = plane.finish();
        assert_eq!(report.completed, b.reads_served);
        assert_eq!(
            report.series.counter_total("ops.compaction_pauses"),
            b.epochs.len() as u64
        );
    }

    #[test]
    fn epochs_fire_on_the_interval() {
        let (mut idx, mut layout, queries, pending) = setup(300, 40);
        let mut cfg = config(60, 40);
        cfg.epoch.interval_cycles = 100_000;
        let r = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
        assert!(
            r.epochs.len() >= 2,
            "short interval must fire epochs mid-run (got {})",
            r.epochs.len()
        );
        // Epoch numbering is contiguous from 1.
        for (i, e) in r.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i as u64 + 1);
        }
    }
}
