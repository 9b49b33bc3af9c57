//! Epoch-quantized settlement of shared capacity.
//!
//! A cell's functions only interact through shared platform state: the
//! idle-pod [`ResourcePools`], the per-cluster in-flight counters
//! ([`ClusterState`]) and, with the node model on, the [`NodePool`].
//! Everything else — per-function RNG streams, histories, warm-pod lists —
//! belongs to one function. The engine observes the shared state only
//! through an [`EpochSnapshot`] taken at the last epoch boundary, records
//! what it does to that state in an [`EpochDelta`], and the run's
//! [`EpochLedger`] settles the delta at the next boundary.
//!
//! ```text
//!   engine ──events──▶ EpochDelta ──▶ ledger.reconcile ──▶ refresh ──▶ EpochSnapshot
//!          epoch k                      boundary k+1                  epoch k+1
//! ```
//!
//! The model is an approximation, and every committed output byte depends
//! on it. Within one epoch each function may draw from the pool snapshot up
//! to the snapshot's idle count, so the combined draws of many functions can
//! oversubscribe a pool; the surplus is clamped at the boundary. Cluster
//! placement reacts to load with up to one epoch of lag, and the live-pod
//! peak is sampled only at boundaries. With the default `epoch_ms ==
//! 60_000` the staleness equals the pre-warm and pool-replenish cadence that
//! already governed this state.

use fntrace::ResourceConfig;

use crate::cluster::ClusterState;
use crate::config::PlatformConfig;
use crate::node::{NodeDelta, NodePool, NodeSnapshot};
use crate::pool::ResourcePools;

/// Shared-capacity state as of an epoch boundary.
///
/// The engine reads this — and only this — when it needs pool availability,
/// cluster load, or platform-wide pod counts during an epoch. It keeps one
/// snapshot for the whole run; every boundary refreshes it in place from the
/// ledger, reusing its vectors.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EpochSnapshot {
    /// Idle pooled pods per resource configuration, in ledger entry order.
    /// Indices align with [`EpochDelta::pool_draws`].
    pub pool_idle: Vec<(ResourceConfig, u32)>,
    /// Cluster in-flight counters as of the boundary.
    pub clusters: ClusterState,
    /// Live pods at the boundary.
    pub live_pods: u64,
    /// Node pod counts, pull pressure, and cache membership as of the
    /// boundary; present iff the node model is enabled.
    pub nodes: Option<NodeSnapshot>,
}

impl EpochSnapshot {
    /// Pool entry index and idle count for a configuration, if pooled.
    pub(crate) fn pool_slot(&self, cfg: ResourceConfig) -> Option<(usize, u32)> {
        self.pool_idle
            .iter()
            .position(|&(c, _)| c == cfg)
            .map(|i| (i, self.pool_idle[i].1))
    }

    /// Total idle pooled pods at the boundary.
    pub(crate) fn pooled_idle(&self) -> u32 {
        self.pool_idle.iter().map(|&(_, idle)| idle).sum()
    }
}

/// What the engine did to shared state over one epoch.
///
/// The engine keeps one delta for the whole run; settling a boundary
/// applies it and zeroes it for the next epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct EpochDelta {
    /// Pods drawn from each pool entry during the epoch, aligned with
    /// [`EpochSnapshot::pool_idle`].
    pub pool_draws: Vec<u64>,
    /// Net in-flight change per cluster (begins minus completes).
    pub cluster_delta: Vec<i64>,
    /// Node-state contribution (pod deltas, pull records); present iff the
    /// node model is enabled.
    pub node: Option<NodeDelta>,
}

impl EpochDelta {
    /// An all-zero delta shaped like `snapshot`: one draw counter per pool
    /// entry, one in-flight delta per cluster, and a node part iff the node
    /// model is on. The shapes stay fixed for a run.
    pub(crate) fn zeroed(snapshot: &EpochSnapshot) -> Self {
        Self {
            pool_draws: vec![0; snapshot.pool_idle.len()],
            cluster_delta: vec![0; usize::from(snapshot.clusters.clusters())],
            node: snapshot.nodes.as_ref().map(|nodes| NodeDelta {
                pod_delta: vec![0; nodes.len()],
                pulls: Vec::new(),
            }),
        }
    }

    /// The node part. Pods only land on nodes with the node model on, and
    /// then the delta has one.
    pub(crate) fn node_mut(&mut self) -> &mut NodeDelta {
        self.node.as_mut().expect("node model delta exists")
    }
}

/// The authoritative shared state, advanced once per epoch boundary.
///
/// At each boundary the ledger settles the epoch's pool draws, runs any
/// replenish intervals that became due, applies the net cluster deltas and
/// the node part, and samples the live-pod peak. Between boundaries it is
/// immutable. Settling a boundary allocates nothing.
#[derive(Debug)]
pub(crate) struct EpochLedger {
    pools: ResourcePools,
    clusters: ClusterState,
    nodes: Option<NodePool>,
    replenish_interval_ms: u64,
    last_replenish_ms: u64,
    last_live_pods: u64,
    peak_live_pods: u64,
}

impl EpochLedger {
    /// Creates the run's ledger from the platform configuration.
    pub(crate) fn new(config: &PlatformConfig) -> Self {
        Self {
            pools: ResourcePools::new(config.pool.clone()),
            clusters: ClusterState::new(config.clusters, config.hot_spot_threshold),
            nodes: config
                .node
                .as_ref()
                .map(|nc| NodePool::new(nc, config.clusters)),
            replenish_interval_ms: config.pool.replenish_interval_ms,
            last_replenish_ms: 0,
            last_live_pods: 0,
            peak_live_pods: 0,
        }
    }

    /// The snapshot the engine observes until the next boundary. Live pods
    /// are not tracked incrementally; the count is the one posted at the
    /// previous boundary.
    pub(crate) fn snapshot(&self) -> EpochSnapshot {
        EpochSnapshot {
            pool_idle: self.pools.snapshot_idle(),
            clusters: self.clusters.clone(),
            live_pods: self.last_live_pods,
            nodes: self.nodes.as_ref().map(NodePool::snapshot),
        }
    }

    /// Brings `snapshot`, taken from this ledger at an earlier boundary, up
    /// to date in place: afterwards it equals [`snapshot`](Self::snapshot),
    /// but its vectors are reused.
    pub(crate) fn refresh(&self, snapshot: &mut EpochSnapshot) {
        self.pools.snapshot_idle_into(&mut snapshot.pool_idle);
        snapshot.clusters.copy_from(&self.clusters);
        snapshot.live_pods = self.last_live_pods;
        match (&self.nodes, &mut snapshot.nodes) {
            (Some(pool), Some(nodes)) => pool.refresh(nodes),
            (pool, nodes) => *nodes = pool.as_ref().map(NodePool::snapshot),
        }
    }

    /// Settles one boundary: applies the epoch's delta, runs due replenish
    /// intervals, and samples the live-pod peak from `live_pods`, the pods
    /// alive at the boundary instant. The delta is left zeroed for the next
    /// epoch.
    pub(crate) fn reconcile(&mut self, boundary_ms: u64, delta: &mut EpochDelta, live_pods: u64) {
        // Draws settle first (they happened during the epoch), then any
        // replenish intervals that became due at or before this boundary —
        // the same order the event loop used when replenishment was a tick.
        self.pools.apply_draws(boundary_ms, &delta.pool_draws);
        let interval = self.replenish_interval_ms.max(1);
        if boundary_ms > self.last_replenish_ms {
            let elapsed = (boundary_ms - self.last_replenish_ms) / interval;
            if elapsed > 0 {
                self.pools.replenish_times(boundary_ms, elapsed);
                self.last_replenish_ms += elapsed * interval;
            }
        }
        self.clusters.apply_delta(&delta.cluster_delta);
        if let (Some(pool), Some(node)) = (self.nodes.as_mut(), delta.node.as_mut()) {
            pool.apply(boundary_ms, node);
        }
        self.last_live_pods = live_pods;
        self.peak_live_pods = self.peak_live_pods.max(live_pods);
        delta.pool_draws.fill(0);
        delta.cluster_delta.fill(0);
    }

    /// Consumes the ledger after the final boundary, yielding the pools
    /// (for their memory-waste integral) and the sampled live-pod peak.
    pub(crate) fn into_parts(self) -> (ResourcePools, u64) {
        (self.pools, self.peak_live_pods)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{LayerKey, NodeClass, NodeModelConfig, PullRecord};
    use fntrace::{ClusterId, FunctionId};

    /// Deterministic xorshift stream for the delta sequences.
    fn rng(mut x: u64) -> impl FnMut(u64) -> u64 {
        move |bound| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        }
    }

    /// Drives a ledger through `boundaries` pseudo-random epochs the way the
    /// engine does — one reused delta, one snapshot refreshed in place — and
    /// checks the refreshed snapshot against a fresh one after every
    /// boundary. Cluster in-flight counts, node pods and node pressure are
    /// also checked against running sums kept here, so a buffer the ledger
    /// or node pool reuses cannot carry one boundary's delta into the next.
    /// Returns how many times a layer cached at one boundary was gone at the
    /// next.
    fn refresh_tracks_fresh_snapshots(config: &PlatformConfig, boundaries: u64) -> usize {
        let mut next = rng(0x9e37_79b9_7f4a_7c15);
        let mut ledger = EpochLedger::new(config);
        let mut snapshot = ledger.snapshot();
        let mut delta = EpochDelta::zeroed(&snapshot);
        let layers: Vec<LayerKey> = (1..=6)
            .map(|id| LayerKey::of(FunctionId::new(id)))
            .collect();
        let mut in_flight = vec![0i64; usize::from(snapshot.clusters.clusters())];
        let mut pods = vec![0i64; snapshot.nodes.as_ref().map_or(0, NodeSnapshot::len)];
        let mut evictions = 0;
        for k in 1..=boundaries {
            let boundary_ms = k * config.epoch_ms;
            for draws in &mut delta.pool_draws {
                *draws = next(6);
            }
            for d in &mut delta.cluster_delta {
                *d = next(7) as i64 - 3;
            }
            let live_pods = next(50);
            if let Some(node) = delta.node.as_mut() {
                for d in &mut node.pod_delta {
                    *d = next(6) as i64 - 2;
                }
                let nodes = node.pod_delta.len() as u64;
                for _ in 0..next(8) {
                    node.pulls.push(PullRecord {
                        time_ms: boundary_ms - 1 - next(config.epoch_ms),
                        node: next(nodes) as u32,
                        layer: layers[next(layers.len() as u64) as usize],
                    });
                }
            }
            for (held, &d) in in_flight.iter_mut().zip(&delta.cluster_delta) {
                *held = (*held + d).max(0);
            }
            let mut pressure = vec![0u32; pods.len()];
            if let Some(node) = &delta.node {
                for (held, &d) in pods.iter_mut().zip(&node.pod_delta) {
                    *held = (*held + d).max(0);
                }
                for pull in &node.pulls {
                    pressure[pull.node as usize] += 1;
                }
            }
            let before = snapshot.clone();
            ledger.reconcile(boundary_ms, &mut delta, live_pods);
            ledger.refresh(&mut snapshot);
            assert_eq!(snapshot, ledger.snapshot(), "boundary {k}");
            assert_eq!(snapshot.live_pods, live_pods, "boundary {k}");
            for (cluster, &held) in in_flight.iter().enumerate() {
                let counted = snapshot.clusters.in_flight(cluster as ClusterId);
                assert_eq!(i64::from(counted), held, "boundary {k}");
            }
            if let Some(nodes) = &snapshot.nodes {
                for ((view, &held), &pulls) in nodes.nodes.iter().zip(&pods).zip(&pressure) {
                    assert_eq!(i64::from(view.pods), held, "boundary {k}");
                    assert_eq!(view.pressure, pulls, "boundary {k}");
                }
            }
            assert_eq!(delta, EpochDelta::zeroed(&snapshot), "boundary {k}");
            if let (Some(old), Some(new)) = (&before.nodes, &snapshot.nodes) {
                for node in 0..old.len() as u32 {
                    evictions += layers
                        .iter()
                        .filter(|&&l| old.cache_hit(node, l) && !new.cache_hit(node, l))
                        .count();
                }
            }
        }
        evictions
    }

    #[test]
    fn in_place_refresh_equals_a_fresh_snapshot_without_nodes() {
        let config = PlatformConfig::default();
        assert!(config.node.is_none());
        assert_eq!(refresh_tracks_fresh_snapshots(&config, 200), 0);
    }

    #[test]
    fn in_place_refresh_equals_a_fresh_snapshot_with_nodes() {
        // Three-layer caches over six layers evict on most boundaries, and a
        // rolling redeploy halfway through clears them in batches.
        let config = PlatformConfig {
            node: Some(NodeModelConfig {
                classes_per_cluster: vec![(
                    NodeClass {
                        capacity_pods: 8,
                        pull_bandwidth_mbps: 100,
                        cache_layers: 3,
                    },
                    2,
                )],
                redeploy_at_ms: Some(100 * PlatformConfig::default().epoch_ms),
                ..NodeModelConfig::default()
            }),
            ..PlatformConfig::default()
        };
        let evictions = refresh_tracks_fresh_snapshots(&config, 200);
        assert!(evictions > 0, "the sequence evicts cached layers");
    }
}
