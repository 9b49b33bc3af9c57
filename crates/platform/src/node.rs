//! Node-level cluster fidelity: per-node image caches, placement, and pull
//! contention.
//!
//! The paper decomposes cold starts into component times — image/layer pull,
//! pod scheduling and creation, runtime init — and shows the pull component
//! collapsing to near zero when the node already caches the function's
//! dependency layers. This module models that: each cluster is backed by a
//! deterministic set of **nodes** ([`NodePool`]), each with a pod capacity,
//! a pull bandwidth, and an LRU image/layer cache keyed by the function's
//! dependency layer. A [`PlacementPolicy`] picks the node for every new pod,
//! *extending* the cluster routing of [`crate::cluster`] rather than
//! replacing it; the dependency-deployment component of a cold start then
//! becomes an explicit layer-pull time — zero on a cache hit,
//! bandwidth-shared when many concurrent pulls hit one node.
//!
//! # Epoch contract
//!
//! Node and cache state are shared mutable state exactly like the resource
//! pools, so they are settled at epoch boundaries with them (see the crate's
//! epoch ledger):
//!
//! * The engine observes node state only through the epoch-start
//!   [`NodeSnapshot`]: per-node pod counts, pull pressure, and a sorted
//!   cache-membership view.
//! * Within an epoch a function sees its **own** placements and pulls
//!   immediately (like its pool-draw budget) but other functions' activity
//!   only from the next boundary on — the same epoch-granularity
//!   approximation the pools use.
//! * The epoch's activity is a [`NodeDelta`]: per-node pod deltas and the
//!   epoch's pull records. At the boundary the authoritative [`NodePool`]
//!   applies the pod deltas and replays the pulls into the LRU caches in
//!   `(time, node, layer)` order, a total order over distinct records.
//!
//! Placement itself is a pure function of the snapshot, the function id,
//! and the function's own within-epoch placements — seeded state only, no
//! RNG. Committed output bytes depend on both the pull order and the
//! placement rules.

use serde::{Deserialize, Serialize};

use fntrace::{ClusterId, FunctionId};

use crate::cluster::ClusterState;

/// Concurrent pulls beyond this share the node's bandwidth as if exactly
/// this many were running: pull pressure is an epoch-granular proxy for
/// instantaneous concurrency, and an unbounded multiplier would let one
/// 60-second pull storm charge hour-long pulls.
pub const MAX_PULL_SHARE: u32 = 64;

/// Identifies one function's dependency-layer image in a node cache.
///
/// Derived from the function id through a SplitMix64 finalizer so layer keys
/// are spread over the full 64-bit space whatever shape the function ids
/// have (hashed names or small test integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LayerKey(u64);

impl LayerKey {
    /// The dependency-layer key of a function.
    pub fn of(function: FunctionId) -> Self {
        let mut z = function.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self(z ^ (z >> 31))
    }
}

/// Hardware class of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeClass {
    /// Pods the node nominally hosts; a soft limit — placement prefers
    /// nodes under it but never rejects a pod (see [`PlacementPolicy`]).
    pub capacity_pods: u32,
    /// Image-pull bandwidth in MB/s, shared among concurrent pulls.
    pub pull_bandwidth_mbps: u64,
    /// Dependency layers the node's image cache retains (LRU beyond that).
    pub cache_layers: u32,
}

/// How the node for a new pod is chosen. Every policy is a pure function of
/// the epoch-start snapshot, the function id, and the function's own
/// within-epoch placements, so placement is byte-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Route through [`ClusterState::place_pod`] (home cluster with the
    /// deterministic hot-spot fallback), then the least-loaded node of that
    /// cluster; ties break toward the lowest node index.
    HomeClusterAffine,
    /// The least-loaded node region-wide; ties rotate over the tied set by
    /// `function.raw() % ties` so simultaneous placements spread instead of
    /// herding onto node 0.
    Spread,
    /// The most-loaded node still under its soft capacity (ties toward the
    /// lowest index); falls back to [`Spread`](Self::Spread) when every
    /// node is at or over capacity.
    BinPack,
}

impl PlacementPolicy {
    /// All policies, in deterministic sweep order.
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::HomeClusterAffine,
        PlacementPolicy::Spread,
        PlacementPolicy::BinPack,
    ];

    /// Stable machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::HomeClusterAffine => "affine",
            PlacementPolicy::Spread => "spread",
            PlacementPolicy::BinPack => "binpack",
        }
    }

    /// Resolves a stable name back to the policy.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Static configuration of the node model. Absent from
/// [`crate::PlatformConfig`] by default: the node layer is opt-in, and with
/// it off the simulator charges the calibrated dependency-deployment sample
/// exactly as before.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeModelConfig {
    /// Node classes per cluster as `(class, count)`; every cluster gets the
    /// same deterministic roster, enumerated cluster-major.
    pub classes_per_cluster: Vec<(NodeClass, u32)>,
    /// Node selection policy.
    pub placement: PlacementPolicy,
    /// Size of one dependency layer in MB — what a cache miss pulls.
    pub layer_size_mb: u64,
    /// Rolling-deploy instant: from the first epoch boundary at or after
    /// this time, node caches are invalidated in rolling batches (a quarter
    /// of the pool per boundary), modelling a deploy that replaces every
    /// function's layers mid-run. `None` disables it.
    pub redeploy_at_ms: Option<u64>,
}

impl Default for NodeModelConfig {
    fn default() -> Self {
        Self {
            classes_per_cluster: vec![(
                NodeClass {
                    capacity_pods: 32,
                    pull_bandwidth_mbps: 200,
                    cache_layers: 16,
                },
                2,
            )],
            placement: PlacementPolicy::HomeClusterAffine,
            layer_size_mb: 64,
            redeploy_at_ms: None,
        }
    }
}

/// Scenario presets the pre-node model could not express. Each is a
/// [`NodeModelConfig`] distortion; pair them with any workload source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeScenario {
    /// Traffic fails over into a region whose node caches hold nothing:
    /// small caches, modest bandwidth, spread placement — the first epochs
    /// are one long pull storm.
    CacheColdFailover,
    /// A deploy six simulated hours in invalidates every cached layer in
    /// rolling batches; warmed-up caches go cold mid-run.
    RollingDeploy,
    /// A mixed pool of small and large nodes under bin-packing: large nodes
    /// absorb most pods (and keep their caches hot), small nodes thrash.
    HeterogeneousPool,
}

impl NodeScenario {
    /// All scenarios, in deterministic order.
    pub const ALL: [NodeScenario; 3] = [
        NodeScenario::CacheColdFailover,
        NodeScenario::RollingDeploy,
        NodeScenario::HeterogeneousPool,
    ];

    /// Stable machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            NodeScenario::CacheColdFailover => "cache-cold-failover",
            NodeScenario::RollingDeploy => "rolling-deploy",
            NodeScenario::HeterogeneousPool => "heterogeneous-pool",
        }
    }

    /// Resolves a stable name back to the scenario.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// One-line description for help output.
    pub fn description(&self) -> &'static str {
        match self {
            NodeScenario::CacheColdFailover => {
                "failover region with cold caches: small caches, modest \
                 bandwidth, spread placement"
            }
            NodeScenario::RollingDeploy => {
                "rolling deploy at six hours invalidates cached layers in \
                 batches"
            }
            NodeScenario::HeterogeneousPool => {
                "mixed small/large node pool under bin-packing placement"
            }
        }
    }

    /// The node-model configuration the scenario runs under.
    pub fn node_config(&self) -> NodeModelConfig {
        match self {
            NodeScenario::CacheColdFailover => NodeModelConfig {
                classes_per_cluster: vec![(
                    NodeClass {
                        capacity_pods: 24,
                        pull_bandwidth_mbps: 100,
                        cache_layers: 4,
                    },
                    2,
                )],
                placement: PlacementPolicy::Spread,
                layer_size_mb: 64,
                redeploy_at_ms: None,
            },
            NodeScenario::RollingDeploy => NodeModelConfig {
                redeploy_at_ms: Some(6 * 3_600_000),
                ..NodeModelConfig::default()
            },
            NodeScenario::HeterogeneousPool => NodeModelConfig {
                classes_per_cluster: vec![
                    (
                        NodeClass {
                            capacity_pods: 8,
                            pull_bandwidth_mbps: 100,
                            cache_layers: 4,
                        },
                        2,
                    ),
                    (
                        NodeClass {
                            capacity_pods: 64,
                            pull_bandwidth_mbps: 400,
                            cache_layers: 32,
                        },
                        1,
                    ),
                ],
                placement: PlacementPolicy::BinPack,
                layer_size_mb: 64,
                redeploy_at_ms: None,
            },
        }
    }

    /// A platform configuration with this scenario's node model enabled on
    /// top of `base`.
    pub fn platform(&self, base: &crate::PlatformConfig) -> crate::PlatformConfig {
        crate::PlatformConfig {
            node: Some(self.node_config()),
            ..base.clone()
        }
    }
}

/// One pull started during an epoch: the boundary replays pulls into the
/// authoritative caches in `(time, node, layer)` order — a total order over
/// distinct records (layer keys are per-function), so the LRU state does
/// not depend on the order the engine recorded them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PullRecord {
    /// Simulation time the pull started, milliseconds.
    pub time_ms: u64,
    /// Node the layer was pulled onto.
    pub node: u32,
    /// The layer pulled.
    pub layer: LayerKey,
}

/// The node-state activity of one epoch: per-node pod deltas and the pulls
/// started, which the boundary sorts before replaying them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeDelta {
    /// Net live-pod change per node (placements minus finalizations).
    pub pod_delta: Vec<i64>,
    /// Pulls started during the epoch, in event order.
    pub pulls: Vec<PullRecord>,
}

/// Read-only per-node view the engine uses during an epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    /// Cluster the node belongs to.
    pub cluster: ClusterId,
    /// Soft pod capacity (from the node's class).
    pub capacity_pods: u32,
    /// Pull bandwidth in MB/s (from the node's class).
    pub pull_bandwidth_mbps: u64,
    /// Live pods on the node as of the boundary.
    pub pods: u32,
    /// Pulls started on the node during the previous epoch — the
    /// contention proxy for bandwidth sharing.
    pub pressure: u32,
}

/// Node state as of an epoch boundary: plain data, refreshed in place at
/// each boundary like the rest of the engine's epoch snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot {
    /// Per-node boundary state.
    pub nodes: Vec<NodeView>,
    /// Cache membership per node, sorted for binary search.
    caches: Vec<Vec<LayerKey>>,
    /// Layer size every miss pulls, MB.
    pub layer_size_mb: u64,
    /// Placement policy in force.
    pub placement: PlacementPolicy,
}

impl NodeSnapshot {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` cached `layer` as of the boundary.
    pub fn cache_hit(&self, node: u32, layer: LayerKey) -> bool {
        self.caches
            .get(node as usize)
            .is_some_and(|c| c.binary_search(&layer).is_ok())
    }

    /// Pull time for one layer on `node`, microseconds: the layer size over
    /// the node's bandwidth, stretched by the node's (clamped) pull
    /// pressure as a share of `1 + pressure` concurrent pulls.
    pub fn pull_micros(&self, node: u32) -> u64 {
        let view = &self.nodes[node as usize];
        let share = 1 + u64::from(view.pressure.min(MAX_PULL_SHARE - 1));
        self.layer_size_mb * 1_000_000 * share / view.pull_bandwidth_mbps.max(1)
    }

    /// Chooses the node for a new pod of `function`.
    ///
    /// `own` reports the function's *own* placements this epoch per node
    /// (invisible to other functions until the next boundary); the
    /// effective load of a node is its snapshot pod count plus that. Pure in
    /// `(self, clusters, function, own)` — no RNG.
    pub fn choose_node(
        &self,
        function: FunctionId,
        clusters: &ClusterState,
        own: impl Fn(u32) -> u32,
    ) -> u32 {
        debug_assert!(!self.nodes.is_empty(), "node pool has at least one node");
        let load = |i: usize| self.nodes[i].pods + own(i as u32);
        match self.placement {
            PlacementPolicy::HomeClusterAffine => {
                let cluster = clusters.place_pod(function);
                let mut best: Option<(u32, usize)> = None;
                for (i, view) in self.nodes.iter().enumerate() {
                    if view.cluster != cluster {
                        continue;
                    }
                    let l = load(i);
                    if best.is_none_or(|(bl, _)| l < bl) {
                        best = Some((l, i));
                    }
                }
                // A cluster without nodes (possible only with a degenerate
                // roster) falls back to the region-wide spread.
                match best {
                    Some((_, i)) => i as u32,
                    None => self.spread(function, &load),
                }
            }
            PlacementPolicy::Spread => self.spread(function, &load),
            PlacementPolicy::BinPack => {
                let mut best: Option<(u32, usize)> = None;
                for (i, view) in self.nodes.iter().enumerate() {
                    let l = load(i);
                    if l < view.capacity_pods && best.is_none_or(|(bl, _)| l > bl) {
                        best = Some((l, i));
                    }
                }
                match best {
                    Some((_, i)) => i as u32,
                    None => self.spread(function, &load),
                }
            }
        }
    }

    /// Least-loaded node with the documented rotation tie-break.
    fn spread(&self, function: FunctionId, load: &impl Fn(usize) -> u32) -> u32 {
        let least = (0..self.nodes.len()).map(load).min().expect("nodes");
        let ties = (0..self.nodes.len()).filter(|&i| load(i) == least).count() as u64;
        let pick = (function.raw() % ties) as usize;
        (0..self.nodes.len())
            .filter(|&i| load(i) == least)
            .nth(pick)
            .expect("tie exists") as u32
    }
}

/// Authoritative node state, owned by the run's epoch ledger and advanced
/// only at epoch boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePool {
    /// `(cluster, class index)` per node, cluster-major enumeration.
    nodes: Vec<(ClusterId, u32)>,
    classes: Vec<NodeClass>,
    /// Live pods per node.
    pods: Vec<u32>,
    /// Cache contents per node, most-recently-used first.
    caches: Vec<Vec<LayerKey>>,
    /// Pulls recorded during the last settled epoch, per node.
    pressure: Vec<u32>,
    layer_size_mb: u64,
    placement: PlacementPolicy,
    redeploy_at_ms: Option<u64>,
    /// Nodes already cache-invalidated by the rolling deploy.
    rolled: u32,
}

impl NodePool {
    /// Builds the deterministic node roster: for each cluster `0..clusters`,
    /// every configured class in declaration order, `count` nodes each.
    pub fn new(config: &NodeModelConfig, clusters: u8) -> Self {
        let classes: Vec<NodeClass> = config
            .classes_per_cluster
            .iter()
            .map(|&(class, _)| class)
            .collect();
        let mut nodes = Vec::new();
        for cluster in 0..clusters.max(1) {
            for (class_idx, &(_, count)) in config.classes_per_cluster.iter().enumerate() {
                for _ in 0..count {
                    nodes.push((ClusterId::from(cluster), class_idx as u32));
                }
            }
        }
        assert!(
            !nodes.is_empty(),
            "node model enabled with an empty node roster"
        );
        let n = nodes.len();
        Self {
            nodes,
            classes,
            pods: vec![0; n],
            caches: vec![Vec::new(); n],
            pressure: vec![0; n],
            layer_size_mb: config.layer_size_mb,
            placement: config.placement,
            redeploy_at_ms: config.redeploy_at_ms,
            rolled: 0,
        }
    }

    /// Number of nodes in the pool.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool has no nodes (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The snapshot the engine observes until the next boundary.
    pub fn snapshot(&self) -> NodeSnapshot {
        let nodes = self
            .nodes
            .iter()
            .zip(&self.pods)
            .zip(&self.pressure)
            .map(|((&(cluster, class_idx), &pods), &pressure)| {
                let class = &self.classes[class_idx as usize];
                NodeView {
                    cluster,
                    capacity_pods: class.capacity_pods,
                    pull_bandwidth_mbps: class.pull_bandwidth_mbps,
                    pods,
                    pressure,
                }
            })
            .collect();
        let caches = self
            .caches
            .iter()
            .map(|c| {
                let mut sorted = c.clone();
                sorted.sort_unstable();
                sorted
            })
            .collect();
        NodeSnapshot {
            nodes,
            caches,
            layer_size_mb: self.layer_size_mb,
            placement: self.placement,
        }
    }

    /// Brings `snapshot`, taken from this pool at an earlier boundary, up to
    /// date in place: afterwards it equals [`snapshot`](Self::snapshot), but
    /// its vectors are reused.
    pub(crate) fn refresh(&self, snapshot: &mut NodeSnapshot) {
        debug_assert_eq!(snapshot.nodes.len(), self.nodes.len(), "same pool");
        for ((view, &pods), &pressure) in snapshot
            .nodes
            .iter_mut()
            .zip(&self.pods)
            .zip(&self.pressure)
        {
            view.pods = pods;
            view.pressure = pressure;
        }
        for (sorted, cache) in snapshot.caches.iter_mut().zip(&self.caches) {
            sorted.clone_from(cache);
            sorted.sort_unstable();
        }
    }

    /// Settles one boundary: applies the epoch's pod deltas (clamped at
    /// zero), replays its pulls into the LRU caches in `(time, node, layer)`
    /// order, records the per-node pull counts as the next epoch's
    /// pressure, and advances the rolling deploy if one is due. The delta is
    /// left zeroed, and its buffers are reused, so this allocates nothing.
    pub fn apply(&mut self, boundary_ms: u64, delta: &mut NodeDelta) {
        for (pods, d) in self.pods.iter_mut().zip(&mut delta.pod_delta) {
            let updated = i64::from(*pods) + std::mem::take(d);
            *pods = u32::try_from(updated.max(0)).unwrap_or(u32::MAX);
        }
        delta.pulls.sort_unstable();
        self.pressure.fill(0);
        for pull in delta.pulls.drain(..) {
            let node = pull.node as usize;
            if node >= self.nodes.len() {
                continue;
            }
            self.pressure[node] += 1;
            let cache = &mut self.caches[node];
            if let Some(pos) = cache.iter().position(|&l| l == pull.layer) {
                cache.remove(pos);
            }
            cache.insert(0, pull.layer);
            let cap = self.classes[self.nodes[node].1 as usize].cache_layers as usize;
            cache.truncate(cap);
        }
        if let Some(at) = self.redeploy_at_ms {
            if boundary_ms >= at && (self.rolled as usize) < self.nodes.len() {
                // Invalidate a quarter of the pool per boundary, lowest
                // node indices first — the "rolling" in rolling deploy.
                let batch = self.nodes.len().div_ceil(4);
                let end = (self.rolled as usize + batch).min(self.nodes.len());
                for cache in &mut self.caches[self.rolled as usize..end] {
                    cache.clear();
                }
                self.rolled = end as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(config: &NodeModelConfig) -> NodePool {
        NodePool::new(config, 4)
    }

    #[test]
    fn roster_is_cluster_major_and_deterministic() {
        let p = pool(&NodeModelConfig::default());
        // Four clusters x one class x two nodes.
        assert_eq!(p.len(), 8);
        let snap = p.snapshot();
        assert_eq!(snap.len(), 8);
        for (i, view) in snap.nodes.iter().enumerate() {
            assert_eq!(usize::from(view.cluster), i / 2);
            assert_eq!(view.pods, 0);
            assert_eq!(view.pressure, 0);
        }
        assert_eq!(p.snapshot(), p.snapshot());
    }

    #[test]
    fn scenario_names_round_trip() {
        for s in NodeScenario::ALL {
            assert_eq!(NodeScenario::from_name(s.name()), Some(s));
            assert!(!s.description().is_empty());
            assert!(!s.node_config().classes_per_cluster.is_empty());
        }
        assert_eq!(NodeScenario::from_name("nope"), None);
        for p in PlacementPolicy::ALL {
            assert_eq!(PlacementPolicy::from_name(p.name()), Some(p));
        }
    }

    #[test]
    fn lru_caches_evict_in_recency_order() {
        let config = NodeModelConfig {
            classes_per_cluster: vec![(
                NodeClass {
                    capacity_pods: 8,
                    pull_bandwidth_mbps: 100,
                    cache_layers: 2,
                },
                1,
            )],
            ..NodeModelConfig::default()
        };
        let mut p = NodePool::new(&config, 1);
        let layer = |id: u64| LayerKey::of(FunctionId::new(id));
        let pull = |t: u64, id: u64| PullRecord {
            time_ms: t,
            node: 0,
            layer: layer(id),
        };
        p.apply(
            60_000,
            &mut NodeDelta {
                pod_delta: vec![3],
                pulls: vec![pull(1, 1), pull(2, 2), pull(3, 1), pull(4, 3)],
            },
        );
        let snap = p.snapshot();
        // Capacity two: layer 2 (pulled at t=2, never touched again) was
        // evicted by layer 3; layer 1 was refreshed at t=3 and survives.
        assert!(snap.cache_hit(0, layer(1)));
        assert!(snap.cache_hit(0, layer(3)));
        assert!(!snap.cache_hit(0, layer(2)));
        assert_eq!(snap.nodes[0].pods, 3);
        assert_eq!(snap.nodes[0].pressure, 4);
        // Pressure resets every epoch; pods clamp at zero.
        p.apply(
            120_000,
            &mut NodeDelta {
                pod_delta: vec![-9],
                pulls: Vec::new(),
            },
        );
        let snap = p.snapshot();
        assert_eq!(snap.nodes[0].pods, 0);
        assert_eq!(snap.nodes[0].pressure, 0);
    }

    #[test]
    fn pull_order_within_a_delta_does_not_matter() {
        // Two layers pulled onto node 0 at the same instant: the cache's
        // recency order comes from the sorted replay, not from the order
        // the pulls were recorded in.
        let layer = |id: u64| LayerKey::of(FunctionId::new(id));
        let pull = |time_ms: u64, node: u32, id: u64| PullRecord {
            time_ms,
            node,
            layer: layer(id),
        };
        let pulls = vec![pull(5, 0, 1), pull(5, 0, 2), pull(9, 0, 3), pull(2, 1, 4)];
        let settle = |pulls: Vec<PullRecord>| {
            let mut p = pool(&NodeModelConfig::default());
            let mut delta = NodeDelta {
                pod_delta: vec![1, 1, 0, 0, 0, 0, 0, 0],
                pulls,
            };
            p.apply(60_000, &mut delta);
            assert_eq!(delta.pod_delta, vec![0; 8], "the delta is left zeroed");
            assert!(delta.pulls.is_empty(), "the delta is left zeroed");
            p
        };
        let recorded = settle(pulls.clone());
        let reversed = settle(pulls.iter().rev().copied().collect());
        let shuffled = settle(vec![pulls[2], pulls[0], pulls[3], pulls[1]]);
        assert_eq!(recorded, reversed);
        assert_eq!(recorded, shuffled);
        assert_eq!(recorded.snapshot(), shuffled.snapshot());
        assert_eq!(recorded.snapshot().nodes[0].pressure, 3);
    }

    #[test]
    fn contention_stretches_pulls_and_is_clamped() {
        let mut p = pool(&NodeModelConfig::default());
        let idle = p.snapshot();
        // 64 MB at 200 MB/s with no contention: 320 ms.
        assert_eq!(idle.pull_micros(0), 320_000);
        let storm: Vec<PullRecord> = (0..200)
            .map(|i| PullRecord {
                time_ms: i,
                node: 0,
                layer: LayerKey::of(FunctionId::new(i + 1)),
            })
            .collect();
        p.apply(
            60_000,
            &mut NodeDelta {
                pod_delta: vec![0; 8],
                pulls: storm,
            },
        );
        let hot = p.snapshot();
        assert_eq!(hot.nodes[0].pressure, 200);
        // Clamped at MAX_PULL_SHARE concurrent shares.
        assert_eq!(hot.pull_micros(0), 320_000 * u64::from(MAX_PULL_SHARE));
    }

    #[test]
    fn placement_policies_differ_and_respect_their_contracts() {
        let clusters = ClusterState::new(4, 64);
        let config = NodeModelConfig::default();
        let f = FunctionId::new(5); // Home cluster 1.
        let make = |placement| {
            let mut snap = NodePool::new(&config, 4).snapshot();
            snap.placement = placement;
            // Loads: nodes 0..8, cluster-major pairs.
            for (i, load) in [3, 1, 0, 2, 5, 4, 0, 1].iter().enumerate() {
                snap.nodes[i].pods = *load;
            }
            snap
        };
        let none = |_: u32| 0;
        // Affine: cluster 1 owns nodes 2 and 3; node 2 is lighter.
        let affine = make(PlacementPolicy::HomeClusterAffine);
        assert_eq!(affine.choose_node(f, &clusters, none), 2);
        // Spread: global least load 0 is tied between nodes 2 and 6;
        // function 5 rotates to the second (5 % 2 == 1).
        let spread = make(PlacementPolicy::Spread);
        assert_eq!(spread.choose_node(f, &clusters, none), 6);
        // BinPack: heaviest node under capacity (32) is node 4 at load 5.
        let binpack = make(PlacementPolicy::BinPack);
        assert_eq!(binpack.choose_node(f, &clusters, none), 4);
        // Own placements this epoch count toward load.
        assert_eq!(spread.choose_node(f, &clusters, |n| u32::from(n == 6)), 2);
    }

    #[test]
    fn rolling_deploy_invalidates_in_batches() {
        let config = NodeModelConfig {
            redeploy_at_ms: Some(100_000),
            ..NodeModelConfig::default()
        };
        let mut p = pool(&config); // 8 nodes -> batches of 2.
        let warm: Vec<PullRecord> = (0..8)
            .map(|n| PullRecord {
                time_ms: 1,
                node: n,
                layer: LayerKey::of(FunctionId::new(99)),
            })
            .collect();
        p.apply(
            60_000,
            &mut NodeDelta {
                pod_delta: vec![0; 8],
                pulls: warm,
            },
        );
        let layer = LayerKey::of(FunctionId::new(99));
        let snap = p.snapshot();
        assert!((0..8).all(|n| snap.cache_hit(n, layer)));
        // First boundary past the deploy: nodes 0 and 1 invalidated.
        p.apply(120_000, &mut NodeDelta::default());
        let snap = p.snapshot();
        assert!(!snap.cache_hit(0, layer) && !snap.cache_hit(1, layer));
        assert!((2..8).all(|n| snap.cache_hit(n, layer)));
        // Two more boundaries finish the roll.
        p.apply(180_000, &mut NodeDelta::default());
        p.apply(240_000, &mut NodeDelta::default());
        let snap = p.snapshot();
        assert!((0..6).all(|n| !snap.cache_hit(n, layer)));
        // Batches are ceil(8/4) = 2 per boundary: 6 rolled after three.
        assert!((6..8).all(|n| snap.cache_hit(n, layer)));
        p.apply(300_000, &mut NodeDelta::default());
        let snap = p.snapshot();
        assert!((0..8).all(|n| !snap.cache_hit(n, layer)));
    }
}
