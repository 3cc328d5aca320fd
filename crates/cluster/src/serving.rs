//! Cluster-aware serving: per-shard circuit breakers, scripted fault
//! storms, and replica / host-path failover.
//!
//! Each shard is a rank group in the fleet's [`HealthTracker`]. A
//! dispatch consults the breaker first (a tripped shard is rerouted
//! without burning a timeout), then the [`StormPlan`]: a hung shard
//! costs the timeout penalty, records a breaker failure, and fails over
//! to the first healthy replica on the deterministic probe ring — or to
//! the host's exact path when no replica is available. Failover changes
//! *cycles only*: the merged neighbors come from the functional traces,
//! so a storm-tripped shard still returns fingerprint-identical results.

use std::fmt;

use ansmet_faults::{StormKind, StormPlan};
use ansmet_host::{BreakerConfig, HealthTracker, TIMEOUT_PENALTY_CYCLES};
use ansmet_ndp::ReplicaSet;
use ansmet_obs::{EventKind, TraceSink};

/// Where a shard visit actually executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPath {
    /// The shard's own NDP stack served the visit.
    Primary,
    /// A replica rank group served the visit (same ANSMET layout, same
    /// line costs, plus a fixed redirect penalty).
    Replica(usize),
    /// No healthy replica: the host recomputes exact distances from the
    /// natural layout (no early termination, much higher per-line cost).
    HostFallback,
}

impl DispatchPath {
    /// Stable lowercase name for reports and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            DispatchPath::Primary => "primary",
            DispatchPath::Replica(_) => "replica",
            DispatchPath::HostFallback => "host_fallback",
        }
    }
}

impl fmt::Display for DispatchPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchPath::Replica(g) => write!(f, "replica({g})"),
            other => f.write_str(other.as_str()),
        }
    }
}

/// Fleet policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Whether shard replicas exist (failover targets on the probe
    /// ring). Without replicas every failed dispatch falls back to the
    /// host path.
    pub replicas: bool,
    /// Per-shard circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Fixed cycles added when a visit is redirected to a replica.
    pub replica_redirect_cycles: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: true,
            // One observation per shard visit, so trip fast.
            breaker: BreakerConfig::fast_trip(),
            replica_redirect_cycles: 512,
        }
    }
}

/// Cross-query fleet state: breakers, the storm script, and dispatch
/// tallies.
#[derive(Debug, Clone)]
pub struct ClusterFleet {
    cfg: FleetConfig,
    health: HealthTracker,
    storm: StormPlan,
    /// Serving-clock offset added to per-query cycles: each query
    /// replays on its own wheel starting at 0, and the fleet clock
    /// strings consecutive queries into one timeline so storm windows
    /// and breaker cooldowns span queries.
    clock: u64,
    /// Visits served by the shard's own stack.
    pub primary_dispatches: u64,
    /// Visits redirected to a replica group.
    pub replica_dispatches: u64,
    /// Visits that fell back to the host's exact path.
    pub host_fallbacks: u64,
    /// Dispatches refused outright by an open breaker (no timeout paid).
    pub breaker_rejections: u64,
    /// Dispatches that hung and paid the full timeout penalty.
    pub timeouts: u64,
}

impl ClusterFleet {
    /// A fleet with the given policy and storm script over `shards`
    /// shard groups.
    pub fn new(shards: usize, cfg: FleetConfig, storm: StormPlan) -> Self {
        ClusterFleet {
            cfg,
            health: HealthTracker::new(shards, cfg.breaker),
            storm,
            clock: 0,
            primary_dispatches: 0,
            replica_dispatches: 0,
            host_fallbacks: 0,
            breaker_rejections: 0,
            timeouts: 0,
        }
    }

    /// A storm-free fleet with the default policy.
    pub fn healthy(shards: usize) -> Self {
        ClusterFleet::new(shards, FleetConfig::default(), StormPlan::none())
    }

    /// The per-shard health tracker (breaker states, transition log).
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The scripted storm plan.
    pub fn storm(&self) -> &StormPlan {
        &self.storm
    }

    /// The fleet policy.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The current serving-clock offset.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Advance the serving clock (typically by the latency of the query
    /// that just completed).
    pub fn advance(&mut self, cycles: u64) {
        self.clock += cycles;
    }

    /// Decide where shard `shard`'s visit executes at `cycle`. Returns
    /// the path and the penalty cycles the visit pays before its first
    /// hop (timeout + redirect overhead; zero on the happy path).
    pub fn dispatch<S: TraceSink>(
        &mut self,
        shard: usize,
        cycle: u64,
        sink: &mut S,
    ) -> (DispatchPath, u64) {
        let cycle = self.clock.saturating_add(cycle);
        if !self.health.admits(shard, cycle) {
            // The breaker already knows the shard is sick: reroute
            // immediately without burning a timeout window.
            self.breaker_rejections += 1;
            return self.reroute(shard, cycle, 0, sink);
        }
        match self.storm.fault_at(shard, cycle) {
            None => {
                self.health.record_success(shard, cycle);
                self.primary_dispatches += 1;
                (DispatchPath::Primary, 0)
            }
            Some(StormKind::Stall { cycles }) => {
                // Throttled but alive: the visit completes, just late.
                self.health.record_success(shard, cycle);
                self.primary_dispatches += 1;
                (DispatchPath::Primary, cycles)
            }
            Some(StormKind::Hang) => {
                self.timeouts += 1;
                self.health.record_failure(shard, cycle);
                self.reroute(shard, cycle, TIMEOUT_PENALTY_CYCLES, sink)
            }
        }
    }

    /// Pick the failover target for a shard that cannot serve: the first
    /// replica on the probe ring that is neither storming nor tripped,
    /// else the host path.
    fn reroute<S: TraceSink>(
        &mut self,
        shard: usize,
        cycle: u64,
        penalty: u64,
        sink: &mut S,
    ) -> (DispatchPath, u64) {
        if self.cfg.replicas {
            for g in ReplicaSet::failover_chain(shard, self.health.n_groups()) {
                if self.storm.fault_at(g, cycle).is_none() && self.health.would_accept(g) {
                    self.replica_dispatches += 1;
                    sink.event(
                        cycle,
                        EventKind::ShardFailover {
                            shard: shard as u32,
                            to: g as u32,
                        },
                    );
                    return (
                        DispatchPath::Replica(g),
                        penalty + self.cfg.replica_redirect_cycles,
                    );
                }
            }
        }
        self.host_fallbacks += 1;
        (DispatchPath::HostFallback, penalty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_obs::NoopSink;

    #[test]
    fn healthy_fleet_dispatches_primary_for_free() {
        let mut fleet = ClusterFleet::healthy(4);
        let (path, penalty) = fleet.dispatch(2, 1_000, &mut NoopSink);
        assert_eq!(path, DispatchPath::Primary);
        assert_eq!(penalty, 0);
        assert_eq!(fleet.primary_dispatches, 1);
        assert_eq!(fleet.timeouts, 0);
    }

    #[test]
    fn hung_shard_pays_timeout_then_breaker_short_circuits() {
        let storm = StormPlan::single_group_outage(0, 0, 1_000_000);
        let mut fleet = ClusterFleet::new(4, FleetConfig::default(), storm);
        // First visit eats the timeout and fails over to the probe-ring
        // replica (group 1 is healthy).
        let (path, penalty) = fleet.dispatch(0, 10, &mut NoopSink);
        assert_eq!(path, DispatchPath::Replica(1));
        assert_eq!(penalty, TIMEOUT_PENALTY_CYCLES + 512);
        assert_eq!(fleet.timeouts, 1);
        // fast_trip opens on one failure: the next visit skips the
        // timeout entirely.
        let (path, penalty) = fleet.dispatch(0, 20, &mut NoopSink);
        assert_eq!(path, DispatchPath::Replica(1));
        assert_eq!(penalty, 512);
        assert_eq!(fleet.timeouts, 1);
        assert_eq!(fleet.breaker_rejections, 1);
    }

    #[test]
    fn no_replicas_means_host_fallback() {
        let storm = StormPlan::single_group_outage(1, 0, u64::MAX);
        let cfg = FleetConfig {
            replicas: false,
            ..FleetConfig::default()
        };
        let mut fleet = ClusterFleet::new(2, cfg, storm);
        let (path, penalty) = fleet.dispatch(1, 0, &mut NoopSink);
        assert_eq!(path, DispatchPath::HostFallback);
        assert_eq!(penalty, TIMEOUT_PENALTY_CYCLES);
        assert_eq!(fleet.host_fallbacks, 1);
    }

    #[test]
    fn correlated_storm_walks_the_failover_chain() {
        // Shards 0 and 1 both dark: shard 0 must skip replica 1 and land
        // on replica 2.
        let storm = StormPlan::correlated_burst(vec![0, 1], 0, 1_000_000);
        let mut fleet = ClusterFleet::new(4, FleetConfig::default(), storm);
        let (path, _) = fleet.dispatch(0, 0, &mut NoopSink);
        assert_eq!(path, DispatchPath::Replica(2));
    }

    #[test]
    fn stall_storm_adds_cycles_but_stays_primary() {
        let plan = StormPlan::new(vec![ansmet_faults::StormWindow {
            groups: vec![3],
            start_cycle: 0,
            end_cycle: 1_000,
            kind: StormKind::Stall { cycles: 777 },
        }]);
        let mut fleet = ClusterFleet::new(4, FleetConfig::default(), plan);
        let (path, penalty) = fleet.dispatch(3, 500, &mut NoopSink);
        assert_eq!(path, DispatchPath::Primary);
        assert_eq!(penalty, 777);
    }

    #[test]
    fn recovery_probes_and_closes_after_the_storm() {
        let storm = StormPlan::single_group_outage(0, 0, 10_000);
        let mut fleet = ClusterFleet::new(2, FleetConfig::default(), storm);
        fleet.dispatch(0, 100, &mut NoopSink); // trips the breaker
        assert_eq!(fleet.health().open_groups(), 1);
        // Past the storm *and* the cooldown, the probe dispatch succeeds
        // and fast_trip closes on one success.
        let (path, penalty) = fleet.dispatch(0, 50_000, &mut NoopSink);
        assert_eq!(path, DispatchPath::Primary);
        assert_eq!(penalty, 0);
        assert_eq!(fleet.health().open_groups(), 0);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(DispatchPath::Primary.to_string(), "primary");
        assert_eq!(DispatchPath::Replica(3).to_string(), "replica(3)");
        assert_eq!(DispatchPath::HostFallback.to_string(), "host_fallback");
    }
}
