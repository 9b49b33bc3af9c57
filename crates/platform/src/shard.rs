//! Epoch-quantized reconciliation of shared capacity across shards.
//!
//! A cell's functions only interact through two pieces of shared platform
//! state: the idle-pod [`ResourcePools`] and the per-cluster in-flight
//! counters ([`ClusterState`]). Everything else — per-function RNG streams,
//! histories, warm-pod lists, the timing wheel — is private to a function
//! and therefore private to whichever shard owns it. This module makes that
//! interaction *epoch-quantized*: shared state is only observed through an
//! [`EpochSnapshot`] taken at the last epoch boundary and only mutated by a
//! deterministic merge of per-shard [`ShardDelta`]s at the next boundary.
//!
//! ```text
//!   shard 0 ──events──▶ ┐                      ┌─▶ snapshot ──▶ shard 0
//!   shard 1 ──events──▶ ├─ barrier ─ ledger ───┼─▶ snapshot ──▶ shard 1
//!   shard n ──events──▶ ┘   (merge by shard id)└─▶ snapshot ──▶ shard n
//!        epoch k                boundary k+1            epoch k+1
//! ```
//!
//! Because every within-epoch decision depends only on a function's own
//! state plus the epoch-start snapshot, the simulation outcome is invariant
//! in the shard count: `run_sharded(n)` equals `run_streamed` byte for byte
//! for every `n`. The single-shard engine runs the *same* epoch protocol
//! (with a trivial in-place ledger), so the equality holds by construction,
//! not by coincidence — see `SimulationSpec::run_sharded`.
//!
//! The merge itself is deterministic because every component is either a
//! commutative sum (`u64` counters, pool draws, cluster deltas, summed in
//! shard order anyway) or an explicitly ordered fold: `f64` accumulators
//! are kept per function and folded in dense table order, cold-start
//! latencies concatenate in shard order before the (sorting) distribution
//! summary, and trace tables concatenate then sort by their total
//! `(timestamp, unique id)` keys.
//!
//! The epoch model is an *approximation*, chosen deliberately: within one
//! epoch each function may draw from the pool snapshot up to the snapshot's
//! idle count, so the combined draws of many functions can oversubscribe a
//! pool; the surplus is clamped at the boundary. Cluster placement likewise
//! reacts to load with up to one epoch of lag. With the default
//! `epoch_ms == 60_000` the staleness equals the pre-warm and
//! pool-replenish cadence that already governed this state.

use std::sync::{Barrier, Mutex};

use faas_workload::WorkloadSpec;
use fntrace::{RegionTrace, ResourceConfig};

use crate::cluster::ClusterState;
use crate::config::PlatformConfig;
use crate::node::{NodeDelta, NodePool, NodeSnapshot};
use crate::pool::ResourcePools;
use crate::report::{ComponentTotals, FunctionStats, LatencyStats, SimReport};

/// Shared-capacity state as of an epoch boundary.
///
/// Shards read this — and only this — when they need pool availability,
/// cluster load, or platform-wide pod counts during an epoch. Each shard
/// keeps one snapshot for the whole run; every boundary refreshes it in
/// place from the ledger, reusing its vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// Idle pooled pods per resource configuration, in ledger entry order.
    /// Indices align with [`ShardDelta::pool_draws`].
    pub pool_idle: Vec<(ResourceConfig, u32)>,
    /// Cluster in-flight counters as of the boundary.
    pub clusters: ClusterState,
    /// Live pods across all shards at the boundary.
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

/// One shard's contribution to shared state over one epoch.
///
/// All fields are commutative aggregates, so summing the deltas of all
/// shards — in any order — before applying them to the ledger yields one
/// well-defined boundary state. A shard keeps one delta for the whole run
/// and zeroes it after each boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardDelta {
    /// Pods drawn from each pool entry during the epoch, aligned with
    /// [`EpochSnapshot::pool_idle`].
    pub pool_draws: Vec<u64>,
    /// Net in-flight change per cluster (begins minus completes).
    pub cluster_delta: Vec<i64>,
    /// Pods live on the shard at the boundary instant.
    pub live_pods: u64,
    /// Node-state contribution (pod deltas, pull records); present iff the
    /// node model is enabled.
    pub node: Option<NodeDelta>,
}

impl ShardDelta {
    /// An all-zero delta shaped like `snapshot`: one draw counter per pool
    /// entry, one in-flight delta per cluster, and a node part iff the node
    /// model is on. The shapes stay fixed for a run.
    pub(crate) fn zeroed(snapshot: &EpochSnapshot) -> Self {
        Self {
            pool_draws: vec![0; snapshot.pool_idle.len()],
            cluster_delta: vec![0; usize::from(snapshot.clusters.clusters())],
            live_pods: 0,
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

    /// Zeroes the delta in place for the next epoch.
    pub(crate) fn reset(&mut self) {
        self.pool_draws.fill(0);
        self.cluster_delta.fill(0);
        self.live_pods = 0;
        if let Some(node) = self.node.as_mut() {
            node.pod_delta.fill(0);
            node.pulls.clear();
        }
    }
}

/// The authoritative shared state, advanced once per epoch boundary.
///
/// One ledger exists per run (not per shard). At each boundary it settles
/// the epoch's pool draws, runs any replenish intervals that became due,
/// applies the net cluster deltas, and samples the platform-wide live-pod
/// peak. Between boundaries it is immutable, which is what lets shards run
/// an epoch without synchronization. The shards' deltas are summed into
/// scratch vectors the ledger keeps, so settling a boundary allocates
/// nothing.
#[derive(Debug)]
pub struct EpochLedger {
    pools: ResourcePools,
    clusters: ClusterState,
    nodes: Option<NodePool>,
    replenish_interval_ms: u64,
    last_replenish_ms: u64,
    last_live_pods: u64,
    peak_live_pods: u64,
    /// Summed pool draws of the boundary being settled.
    draws: Vec<u64>,
    /// Summed cluster deltas of the boundary being settled.
    cluster_delta: Vec<i64>,
}

impl EpochLedger {
    /// Creates the run's ledger from the platform configuration.
    pub fn new(config: &PlatformConfig) -> Self {
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
            draws: Vec::new(),
            cluster_delta: Vec::new(),
        }
    }

    /// The snapshot shards observe until the next boundary. Live pods are
    /// not tracked incrementally; the count is the sum the shards posted at
    /// the previous boundary.
    pub fn snapshot(&self) -> EpochSnapshot {
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

    /// Settles one boundary: applies the shards' deltas (in shard-id order,
    /// though every operation is commutative), runs due replenish intervals,
    /// and samples the live-pod peak. `deltas` is walked twice: once for the
    /// pool, cluster and live-pod sums, once for the node parts.
    pub fn reconcile<'a, I>(&mut self, boundary_ms: u64, deltas: I)
    where
        I: IntoIterator<Item = &'a ShardDelta>,
        I::IntoIter: Clone,
    {
        let deltas = deltas.into_iter();
        zero(&mut self.draws, self.pools.entry_count());
        zero(
            &mut self.cluster_delta,
            usize::from(self.clusters.clusters()),
        );
        let mut live = 0u64;
        for d in deltas.clone() {
            for (acc, &x) in self.draws.iter_mut().zip(&d.pool_draws) {
                *acc += x;
            }
            for (acc, &x) in self.cluster_delta.iter_mut().zip(&d.cluster_delta) {
                *acc += x;
            }
            live += d.live_pods;
        }
        // Draws settle first (they happened during the epoch), then any
        // replenish intervals that became due at or before this boundary —
        // the same order the event loop used when replenishment was a tick.
        self.pools.apply_draws(boundary_ms, &self.draws);
        let interval = self.replenish_interval_ms.max(1);
        if boundary_ms > self.last_replenish_ms {
            let elapsed = (boundary_ms - self.last_replenish_ms) / interval;
            if elapsed > 0 {
                self.pools.replenish_times(boundary_ms, elapsed);
                self.last_replenish_ms += elapsed * interval;
            }
        }
        self.clusters.apply_delta(&self.cluster_delta);
        if let Some(pool) = self.nodes.as_mut() {
            pool.apply(boundary_ms, deltas.filter_map(|d| d.node.as_ref()));
        }
        self.last_live_pods = live;
        self.peak_live_pods = self.peak_live_pods.max(live);
    }

    /// Consumes the ledger after the final boundary, yielding the pools
    /// (for their memory-waste integral) and the sampled live-pod peak.
    pub(crate) fn into_parts(self) -> (ResourcePools, u64) {
        (self.pools, self.peak_live_pods)
    }
}

/// Resizes `v` to `len` zeros, reusing its allocation.
fn zero<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    v.clear();
    v.resize(len, T::default());
}

/// How a shard's engine reaches the ledger at each boundary.
///
/// The single-shard path ([`SequentialSync`]) and the threaded path
/// ([`SharedSync`]) implement the same protocol, which is what makes
/// `run_streamed` and `run_sharded(n)` byte-identical by construction: the
/// engine cannot tell which one it is running under.
pub(crate) trait EpochSync {
    /// Posts this shard's delta for the epoch ending at `boundary_ms` and
    /// refreshes `snapshot` in place to the reconciled state for the next
    /// epoch. Every shard of a run must call this for the same sequence of
    /// boundaries, each with the snapshot it was handed at the start and has
    /// refreshed at every boundary since.
    fn reconcile(&mut self, boundary_ms: u64, delta: &ShardDelta, snapshot: &mut EpochSnapshot);
}

/// In-place reconciliation for a single shard: no barrier, no locking, and
/// no allocation.
pub(crate) struct SequentialSync<'a> {
    pub ledger: &'a mut EpochLedger,
}

impl EpochSync for SequentialSync<'_> {
    fn reconcile(&mut self, boundary_ms: u64, delta: &ShardDelta, snapshot: &mut EpochSnapshot) {
        self.ledger.reconcile(boundary_ms, std::iter::once(delta));
        self.ledger.refresh(snapshot);
    }
}

/// Shared state for barrier-synchronised reconciliation across threads.
pub(crate) struct SharedEpochState {
    barrier: Barrier,
    slots: Vec<Mutex<Option<ShardDelta>>>,
    ledger: Mutex<EpochLedger>,
}

impl SharedEpochState {
    pub(crate) fn new(ledger: EpochLedger, shards: usize) -> Self {
        Self {
            barrier: Barrier::new(shards),
            slots: (0..shards).map(|_| Mutex::new(None)).collect(),
            ledger: Mutex::new(ledger),
        }
    }

    pub(crate) fn initial_snapshot(&self) -> EpochSnapshot {
        self.ledger.lock().expect("ledger lock").snapshot()
    }

    pub(crate) fn into_ledger(self) -> EpochLedger {
        self.ledger.into_inner().expect("ledger lock")
    }
}

/// One shard's handle onto the shared epoch state.
///
/// At a boundary every shard posts a copy of its delta into its own slot
/// and waits on the barrier; one arbitrary thread (the barrier leader)
/// drains the slots in shard-id order and advances the ledger, and a second
/// barrier releases every shard to refresh its snapshot from the ledger.
/// Which thread leads is irrelevant to the result because the ledger merge
/// is commutative.
pub(crate) struct SharedSync<'a> {
    pub state: &'a SharedEpochState,
    pub shard: usize,
}

impl EpochSync for SharedSync<'_> {
    fn reconcile(&mut self, boundary_ms: u64, delta: &ShardDelta, snapshot: &mut EpochSnapshot) {
        *self.state.slots[self.shard].lock().expect("slot lock") = Some(delta.clone());
        if self.state.barrier.wait().is_leader() {
            let deltas: Vec<ShardDelta> = self
                .state
                .slots
                .iter()
                .map(|s| s.lock().expect("slot lock").take().expect("delta posted"))
                .collect();
            let mut ledger = self.state.ledger.lock().expect("ledger lock");
            ledger.reconcile(boundary_ms, deltas.iter());
        }
        self.state.barrier.wait();
        self.state
            .ledger
            .lock()
            .expect("ledger lock")
            .refresh(snapshot);
    }
}

/// Per-function floating-point accumulators.
///
/// Kept per function rather than globally so the final report can fold them
/// in dense table order, independent of how functions were interleaved
/// across shards during the run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FnAccum {
    pub pod_lifetime_s: f64,
    pub idle_pod_time_s: f64,
    pub mem_gb_s_wasted: f64,
    pub added_latency_s: f64,
    pub admission_delay_s: f64,
    /// Per-component cold-start attribution, microseconds (exact sums).
    pub cold: ComponentTotals,
    /// Total charged cold-start latency, microseconds, accumulated
    /// independently of `cold` so the components-sum invariant is a real
    /// cross-check rather than a tautology.
    pub cold_us: u64,
}

impl FnAccum {
    fn add(&mut self, other: &FnAccum) {
        self.pod_lifetime_s += other.pod_lifetime_s;
        self.idle_pod_time_s += other.idle_pod_time_s;
        self.mem_gb_s_wasted += other.mem_gb_s_wasted;
        self.added_latency_s += other.added_latency_s;
        self.admission_delay_s += other.admission_delay_s;
        self.cold.add(&other.cold);
        self.cold_us += other.cold_us;
    }
}

/// Everything a shard produces that the merge needs.
pub(crate) struct ShardOutcome {
    /// Aggregate counters; only the `u64` tallies are meaningful here — the
    /// floating-point fields are rebuilt from `accum` during the merge.
    pub report: SimReport,
    /// Dense workload-table indices of the shard's member functions,
    /// ascending; parallel to `accum`.
    pub members: Vec<u32>,
    /// Per-member floating-point accumulators.
    pub accum: Vec<FnAccum>,
    /// Cold-start latencies observed on the shard, in event order.
    pub cold_latencies_s: Vec<f64>,
    /// Per-function replay statistics (replay workloads only).
    pub per_function: Vec<FunctionStats>,
    /// The shard's slice of the trace, if tracing is enabled.
    pub trace: Option<RegionTrace>,
}

/// Folds per-shard outcomes into the run's [`SimReport`] and trace.
///
/// Deterministic in the shard count: counter sums are commutative,
/// floating-point accumulators are folded in dense table order, cold-start
/// latencies feed an order-insensitive distribution summary, and trace
/// tables are re-sorted by their total `(timestamp, unique id)` keys.
pub(crate) fn merge_outcomes(
    workload: &WorkloadSpec,
    outcomes: Vec<ShardOutcome>,
    ledger: EpochLedger,
    policy_names: (&str, &str, &str),
) -> (SimReport, Option<RegionTrace>) {
    let n = workload.functions.len();
    let mut merged = SimReport::default();
    let mut dense = vec![FnAccum::default(); n];
    let mut cold: Vec<f64> = Vec::new();
    let mut per_function: Vec<FunctionStats> = Vec::new();
    let mut trace: Option<RegionTrace> = None;

    for outcome in outcomes {
        let r = &outcome.report;
        merged.events_processed += r.events_processed;
        merged.requests += r.requests;
        merged.warm_starts += r.warm_starts;
        merged.cold_starts += r.cold_starts;
        merged.prewarmed_pods += r.prewarmed_pods;
        merged.prewarmed_pods_used += r.prewarmed_pods_used;
        merged.pool_hits += r.pool_hits;
        merged.scratch_creations += r.scratch_creations;
        merged.delayed_requests += r.delayed_requests;
        merged.layer_pulls += r.layer_pulls;
        merged.layer_cache_hits += r.layer_cache_hits;
        for (&idx, acc) in outcome.members.iter().zip(&outcome.accum) {
            dense[idx as usize].add(acc);
        }
        cold.extend_from_slice(&outcome.cold_latencies_s);
        per_function.extend(outcome.per_function);
        if let Some(shard_trace) = outcome.trace {
            // Duplicate function ids are co-sharded by construction, so the
            // metadata sets of distinct shards are disjoint and the (hash
            // map) iteration order cannot affect the merged table.
            let merged_trace = trace.get_or_insert_with(|| RegionTrace::new(workload.region));
            for meta in shard_trace.functions.iter() {
                merged_trace.functions.insert(meta.clone());
            }
            for &record in shard_trace.requests.records() {
                merged_trace.requests.push(record);
            }
            for &record in shard_trace.cold_starts.records() {
                merged_trace.cold_starts.push(record);
            }
        }
    }

    let mut added_latency_s = 0.0;
    for acc in &dense {
        merged.pod_lifetime_s += acc.pod_lifetime_s;
        merged.idle_pod_time_s += acc.idle_pod_time_s;
        merged.mem_gb_s_wasted += acc.mem_gb_s_wasted;
        merged.total_admission_delay_s += acc.admission_delay_s;
        added_latency_s += acc.added_latency_s;
        merged.cold_components.add(&acc.cold);
        merged.cold_us_total += acc.cold_us;
    }
    merged.cold_start_latency = LatencyStats::from_secs(&cold);
    merged.mean_added_latency_s = if merged.requests == 0 {
        0.0
    } else {
        added_latency_s / merged.requests as f64
    };

    let (pools, peak_live_pods) = ledger.into_parts();
    merged.peak_live_pods = u32::try_from(peak_live_pods).unwrap_or(u32::MAX);
    merged.mem_gb_s_wasted += pools.mem_gb_s();

    if workload.is_replay() {
        per_function.sort_by_key(|f| f.function);
        merged.per_function = per_function;
    }

    merged.keep_alive_policy = policy_names.0.to_string();
    merged.prewarm_policy = policy_names.1.to_string();
    merged.admission_policy = policy_names.2.to_string();

    if let Some(t) = trace.as_mut() {
        t.sort_by_time();
    }
    (merged, trace)
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
        let mut delta = ShardDelta::zeroed(&snapshot);
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
            delta.live_pods = next(50);
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
            let live_pods = delta.live_pods;
            let before = snapshot.clone();
            SequentialSync {
                ledger: &mut ledger,
            }
            .reconcile(boundary_ms, &delta, &mut snapshot);
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
            delta.reset();
            assert_eq!(delta, ShardDelta::zeroed(&snapshot), "boundary {k}");
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
