//! Simulator configuration.

use serde::{Deserialize, Serialize};

use crate::node::NodeModelConfig;
use crate::pool::PoolConfig;

/// Static configuration of the simulated platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Number of clusters per region (four in the paper's platform).
    pub clusters: u8,
    /// Resource-pool settings.
    pub pool: PoolConfig,
    /// Interval between pre-warm policy ticks, in milliseconds.
    pub prewarm_interval_ms: u64,
    /// Whether to record a full trace (request + cold-start tables) in
    /// addition to the aggregate report. Disable for large policy sweeps.
    pub record_trace: bool,
    /// A cluster is considered hot when it has this many more in-flight
    /// requests than the least loaded cluster; hot clusters spill new pods to
    /// the least-loaded cluster (Section 2.1's load balancing).
    pub hot_spot_threshold: u32,
    /// Length of one reconciliation epoch, in milliseconds (clamped to at
    /// least one).
    ///
    /// Shared capacity — resource pools, cluster in-flight counts and, with
    /// the node model on, node state — is observed through a snapshot taken
    /// at the last epoch boundary and settled at the next one. The default
    /// matches the pre-warm and pool-replenish cadence, so shared state is
    /// exactly as fresh as the periodic policies that act on it. The epoch
    /// length is part of the simulation semantics: changing it changes
    /// reported numbers, including
    /// [`SimReport::peak_live_pods`](crate::SimReport::peak_live_pods),
    /// which is sampled at boundaries.
    pub epoch_ms: u64,
    /// Node-level fidelity: per-node image caches, placement, and pull
    /// contention (see [`crate::node`]). `None` — the default — keeps the
    /// pre-node behaviour: pods land on clusters only and the
    /// dependency-deployment component of a cold start is the calibrated
    /// latency-model sample.
    pub node: Option<NodeModelConfig>,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            clusters: 4,
            pool: PoolConfig::default(),
            prewarm_interval_ms: 60_000,
            record_trace: true,
            hot_spot_threshold: 64,
            epoch_ms: 60_000,
            node: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_platform() {
        let c = PlatformConfig::default();
        assert_eq!(c.clusters, 4);
        assert_eq!(c.prewarm_interval_ms, 60_000);
        assert!(c.record_trace);
        assert_eq!(c.pool.replenish_interval_ms, 60_000);
        assert_eq!(c.epoch_ms, 60_000);
        assert!(c.node.is_none(), "node model is opt-in");
    }
}
