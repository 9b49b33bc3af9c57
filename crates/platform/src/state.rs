//! Mutable simulation state.
//!
//! [`SimState`] owns everything that changes while (one shard of) a workload
//! replays: the event queue, live pods, per-function histories and RNG
//! streams, the snapshot of shared capacity, and the report being
//! accumulated. The event loop in [`crate::engine`] drives it; splitting the
//! two keeps the loop readable and lets alternative drivers (the sharded
//! run, future incremental re-simulation) reuse the state transitions
//! unchanged.
//!
//! A state covers a *shard*: a subset of the workload table identified by
//! its ascending `members` (dense global indices). The unsharded engine is
//! simply the one-shard special case where `members` is the whole table.
//! Everything per-function — specs, histories, warm-pod lists, RNG streams,
//! accumulators — is indexed by the *local* member position ([`FnIdx`]), so
//! a shard's memory is proportional to its own population, not the cell's.
//!
//! Shared capacity (resource pools, cluster load) is never touched directly:
//! the state reads the epoch-start [`EpochSnapshot`] and records its draws
//! and deltas in a [`ShardDelta`] for the boundary reconciliation (see
//! [`crate::shard`]); both are refreshed in place at every boundary. All
//! randomness is drawn from per-function streams derived independently from
//! the run seed and the function's *global* index, and all public ids (pods,
//! requests) are minted from per-function counters tagged with the global
//! index — which is why nothing the state produces depends on how functions
//! were interleaved across shards.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use faas_stats::rng::Xoshiro256pp;
use faas_workload::{ColdStartLatencyModel, FunctionSpec, WorkloadSpec};
use fntrace::{
    ColdStartRecord, FunctionId, FunctionMeta, PodId, RegionTrace, RequestId, RequestRecord,
    ResourceConfig, MILLIS_PER_DAY, MILLIS_PER_HOUR,
};

use crate::arena::{FnIdx, PodArena, PodIdx};
use crate::config::PlatformConfig;
use crate::event::{Event, EventQueue};
use crate::keepalive::{FunctionHistory, KeepAlivePolicy};
use crate::node::{LayerKey, PullRecord};
use crate::pod::{Pod, PodState};
use crate::policy::{FunctionView, PlatformView};
use crate::pool::PoolAcquire;
use crate::report::{ComponentTotals, FunctionStats, SimReport};
use crate::shard::{EpochSnapshot, EpochSync, FnAccum, ShardDelta, ShardOutcome};

/// Hasher for the arrival-path `FunctionId -> FnIdx` map.
///
/// Function ids are plain 64-bit values (hashed names or small test
/// integers), so a SplitMix64 finalizer — four multiply/xor-shift rounds
/// with full avalanche — replaces SipHash on the one lookup every external
/// arrival performs. It is keyless and deterministic, and the map is only
/// ever probed or inserted into, never iterated, so no observable order
/// depends on it.
#[derive(Clone, Copy, Default)]
pub(crate) struct FnIdHasher(u64);

impl std::hash::Hasher for FnIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic byte fallback (FNV-style); the id map only feeds u64s.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix_mix(x);
    }
}

/// SplitMix64 finalizer: a keyless, bijective 64-bit mix.
fn splitmix_mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

type FnIndexMap = HashMap<FunctionId, FnIdx, BuildHasherDefault<FnIdHasher>>;

/// Derives the simulation RNG stream of one function.
///
/// Streams are derived *independently* — run seed mixed with the function's
/// global table index — rather than forked from a parent stream, because a
/// fork advances the parent: any scheme with a sequential parent would make
/// a function's randomness depend on which functions came before it, and
/// therefore on the sharding.
fn fn_rng(seed: u64, global_idx: u32) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64((seed ^ 0x5151_5151) ^ splitmix_mix(u64::from(global_idx)))
}

/// Mutable state of one shard of one in-flight simulation run.
///
/// Everything here is owned by a single shard of a single run; the engine
/// constructs one `SimState` per shard and consumes it into a
/// `ShardOutcome`, which the merge in [`crate::shard`] folds into the
/// final report.
pub struct SimState<'a> {
    pub(crate) workload: &'a WorkloadSpec,
    pub(crate) config: PlatformConfig,
    /// Global (workload-table) index of each member, ascending; maps the
    /// local [`FnIdx`] back to the dense table position.
    pub(crate) members: Vec<u32>,
    /// Function specs by local member position.
    pub(crate) specs: Vec<&'a FunctionSpec>,
    /// Resolves a hashed function id to its local index; consulted once per
    /// external arrival, never on internal events.
    pub(crate) fn_index: FnIndexMap,
    /// The functions of the pre-warm view, one per member in member order,
    /// each resolved through `fn_index` once (so a duplicate id names the
    /// later entry every time it appears).
    pub(crate) view_order: Vec<FnIdx>,
    pub(crate) latency_model: ColdStartLatencyModel,
    /// Per-member simulation RNG streams (see [`fn_rng`]).
    pub(crate) fn_rngs: Vec<Xoshiro256pp>,
    pub(crate) queue: EventQueue,
    pub(crate) pods: PodArena,
    pub(crate) warm_by_function: Vec<Vec<PodIdx>>,
    pub(crate) histories: Vec<FunctionHistory>,
    /// Histories of functions outside the workload table (replay traces can
    /// reference them); cold path, keyed by public id.
    pub(crate) extra_histories: HashMap<FunctionId, FunctionHistory>,
    pub(crate) recent_arrivals: Vec<u64>,
    /// Per-member pod-id counters; public pod ids are
    /// `(region << 48) | (global_idx << 26) | counter`, so they are unique
    /// across shards and independent of creation interleaving.
    pub(crate) pod_counters: Vec<u32>,
    /// Per-member request-id counters (advanced only when tracing); public
    /// request ids are `((global_idx + 1) << 32) | counter`.
    pub(crate) req_counters: Vec<u32>,
    pub(crate) report: SimReport,
    pub(crate) cold_latencies_s: Vec<f64>,
    /// Per-member floating-point accumulators, folded in global table order
    /// at the merge.
    pub(crate) accum: Vec<FnAccum>,
    pub(crate) trace: Option<RegionTrace>,
    /// Shared capacity as of the last epoch boundary.
    pub(crate) snapshot: EpochSnapshot,
    /// This epoch's contribution to shared capacity: pool draws, net
    /// in-flight change per cluster and, with the node model on, net
    /// live-pod change per node and the layer pulls started.
    pub(crate) delta: ShardDelta,
    /// Per-member draw budget bookkeeping: `draw_marks[i] == epoch` means
    /// `draw_counts[i]` is current, anything else means zero draws so far.
    pub(crate) draw_marks: Vec<u32>,
    pub(crate) draw_counts: Vec<u32>,
    /// Per-member epoch stamp for `fn_node_use`, mirroring `draw_marks`.
    pub(crate) node_marks: Vec<u32>,
    /// A function's *own* node activity this epoch: placements count toward
    /// the load it sees, and its own pulls read as cache hits immediately.
    /// Other functions' activity stays invisible until the boundary — the
    /// same epoch-granularity approximation the pool-draw budget uses.
    pub(crate) fn_node_use: Vec<Vec<FnNodeUse>>,
    /// Current epoch number, starting at 1 so zeroed marks read as stale.
    pub(crate) epoch: u32,
}

/// One function's within-epoch activity on one node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FnNodeUse {
    pub(crate) node: u32,
    pub(crate) placed: u32,
    pub(crate) pulled: bool,
}

impl<'a> SimState<'a> {
    /// Builds fresh state for one shard of one run: the members of the shard
    /// (ascending global indices into the workload table) and the initial
    /// shared-capacity snapshot.
    pub(crate) fn new(
        workload: &'a WorkloadSpec,
        config: &PlatformConfig,
        seed: u64,
        members: Vec<u32>,
        snapshot: EpochSnapshot,
    ) -> Self {
        let n = members.len();
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let mut specs = Vec::with_capacity(n);
        let mut fn_rngs = Vec::with_capacity(n);
        let mut fn_index = FnIndexMap::with_capacity_and_hasher(n, Default::default());
        for (local, &global) in members.iter().enumerate() {
            let spec = &workload.functions[global as usize];
            specs.push(spec);
            fn_rngs.push(fn_rng(seed, global));
            // On duplicate ids the later entry wins, matching the previous
            // map-keyed table; duplicates are co-sharded (see
            // `faas_workload::ShardPlan`), so the winner is the same
            // whatever the shard count.
            fn_index.insert(spec.function, FnIdx::new(local as u32));
        }
        let view_order = specs.iter().map(|spec| fn_index[&spec.function]).collect();
        let trace = if config.record_trace {
            let mut trace = RegionTrace::new(workload.region);
            for &spec in &specs {
                trace.functions.insert(FunctionMeta {
                    function: spec.function,
                    user: spec.user,
                    runtime: spec.runtime,
                    triggers: spec.triggers.clone(),
                    config: spec.config,
                });
            }
            Some(trace)
        } else {
            None
        };
        let delta = ShardDelta::zeroed(&snapshot);
        Self {
            workload,
            config: config.clone(),
            members,
            specs,
            fn_index,
            view_order,
            latency_model: ColdStartLatencyModel::new(workload.profile.clone()),
            fn_rngs,
            queue: EventQueue::new(),
            pods: PodArena::new(),
            warm_by_function: vec![Vec::new(); n],
            histories: vec![FunctionHistory::default(); n],
            extra_histories: HashMap::new(),
            recent_arrivals: vec![0; n],
            pod_counters: vec![0; n],
            req_counters: vec![0; n],
            report: SimReport::default(),
            cold_latencies_s: Vec::new(),
            accum: vec![FnAccum::default(); n],
            trace,
            snapshot,
            delta,
            draw_marks: vec![0; n],
            draw_counts: vec![0; n],
            node_marks: vec![0; n],
            fn_node_use: vec![Vec::new(); n],
            epoch: 1,
        }
    }

    /// Resolves a public function id to its local index, if the function is
    /// a member of this shard. The one hash lookup on the arrival path.
    pub(crate) fn resolve(&self, function: FunctionId) -> Option<FnIdx> {
        self.fn_index.get(&function).copied()
    }

    pub(crate) fn observe_arrival(&mut self, function: FnIdx, t: u64) {
        self.histories[function.index()].observe_arrival(t);
        self.recent_arrivals[function.index()] += 1;
    }

    /// Records an arrival for a function outside the workload table.
    pub(crate) fn observe_unknown_arrival(&mut self, function: FunctionId, t: u64) {
        self.extra_histories
            .entry(function)
            .or_default()
            .observe_arrival(t);
    }

    pub(crate) fn reset_recent_arrivals(&mut self) {
        self.recent_arrivals.fill(0);
    }

    /// Settles the epoch ending at `boundary_ms`: posts this shard's delta
    /// through `sync`, which refreshes the snapshot in place, zeroes the
    /// delta, and opens the next epoch (lazily invalidating every member's
    /// pool-draw budget via the epoch stamp).
    pub(crate) fn settle_epoch(&mut self, boundary_ms: u64, sync: &mut dyn EpochSync) {
        self.delta.live_pods = u64::from(self.pods.live());
        sync.reconcile(boundary_ms, &self.delta, &mut self.snapshot);
        self.delta.reset();
        self.epoch += 1;
    }

    /// Tries to draw a pooled pod against the epoch-start snapshot.
    ///
    /// A draw succeeds while the function's own draws this epoch are below
    /// the snapshot's idle count for its configuration. Draws by *other*
    /// functions (on this or any other shard) are invisible until the next
    /// boundary — that independence is the documented epoch-granularity
    /// approximation, and the reason the decision cannot depend on the
    /// sharding. The ledger clamps any aggregate oversubscription when the
    /// draws settle.
    fn try_draw(
        &mut self,
        function: FnIdx,
        cfg: ResourceConfig,
        pooled_runtime: bool,
    ) -> PoolAcquire {
        if pooled_runtime {
            if let Some((slot, idle)) = self.snapshot.pool_slot(cfg) {
                let i = function.index();
                if self.draw_marks[i] != self.epoch {
                    self.draw_marks[i] = self.epoch;
                    self.draw_counts[i] = 0;
                }
                if self.draw_counts[i] < idle {
                    self.draw_counts[i] += 1;
                    self.delta.pool_draws[slot] += 1;
                    self.report.pool_hits += 1;
                    return PoolAcquire::FromPool;
                }
            }
        }
        self.report.scratch_creations += 1;
        PoolAcquire::FromScratch
    }

    pub(crate) fn function_view(&self, function: FnIdx) -> FunctionView {
        let spec = self.specs[function.index()];
        let history = &self.histories[function.index()];
        FunctionView {
            function: spec.function,
            runtime: spec.runtime,
            trigger: spec.primary_trigger(),
            config: spec.config,
            timer_period_secs: spec.timer_period_secs,
            warm_pods: self.warm_by_function[function.index()].len() as u32,
            arrivals: history.arrivals,
            cold_starts: history.cold_starts,
            recent_arrivals: self.recent_arrivals[function.index()],
            last_arrival_ms: history.last_arrival(),
        }
    }

    /// Refills `view` as the platform-wide view for the pre-warm policy:
    /// the shard's member functions (in ascending global-table order) plus
    /// shared totals from the epoch-start snapshot. Platform totals are
    /// epoch-stale by design; per-function fields are live. The view's
    /// function vector is reused.
    pub(crate) fn fill_platform_view(&self, now_ms: u64, view: &mut PlatformView) {
        view.now_ms = now_ms;
        view.total_warm_pods = u32::try_from(self.snapshot.live_pods).unwrap_or(u32::MAX);
        view.pooled_idle_pods = self.snapshot.pooled_idle();
        view.functions.clear();
        view.functions
            .extend(self.view_order.iter().map(|&idx| self.function_view(idx)));
    }

    /// Samples one cold start for `function` and registers the new pod.
    /// Returns the pod's arena slot and its cold-start duration in
    /// microseconds.
    pub(crate) fn create_pod(&mut self, function: FnIdx, t: u64, prewarmed: bool) -> (PodIdx, u64) {
        let spec = self.specs[function.index()];
        // With the node model on, the placement policy picks a node and the
        // pod's cluster is the node's; otherwise clusters are placed
        // directly as before. Placement reads only the epoch-start snapshot
        // plus the function's own placements this epoch, so it cannot
        // depend on the sharding.
        let (cluster, node) = match self.snapshot.nodes.as_ref() {
            Some(nodes) => {
                let i = function.index();
                if self.node_marks[i] != self.epoch {
                    self.node_marks[i] = self.epoch;
                    self.fn_node_use[i].clear();
                }
                let own = &self.fn_node_use[i];
                let node = nodes.choose_node(spec.function, &self.snapshot.clusters, |n| {
                    own.iter().find(|e| e.node == n).map_or(0, |e| e.placed)
                });
                (nodes.nodes[node as usize].cluster, Some(node))
            }
            None => (self.snapshot.clusters.place_pod(spec.function), None),
        };
        let acquire = self.try_draw(function, spec.config, spec.runtime.has_reserved_pool());
        let day = (t / MILLIS_PER_DAY) as u32;
        let hour = ((t % MILLIS_PER_DAY) / MILLIS_PER_HOUR) as f64;
        let load_factor =
            self.workload
                .profile
                .load_multiplier(&self.workload.calibration, day, hour);
        let mut components = self.latency_model.sample(
            spec.runtime,
            spec.config.size_class(),
            spec.has_dependencies,
            load_factor,
            &mut self.fn_rngs[function.index()],
        );
        if acquire == PoolAcquire::FromScratch && spec.runtime.has_reserved_pool() {
            // The pool was empty: pay the from-scratch allocation path.
            components.pod_alloc_us = (components.pod_alloc_us as f64
                * self.config.pool.scratch_allocation_multiplier)
                as u64;
        }
        if let Some(node) = node {
            let i = function.index();
            let mut pulled = false;
            if spec.has_dependencies {
                let nodes = self.snapshot.nodes.as_ref().expect("node snapshot exists");
                let layer = LayerKey::of(spec.function);
                let own_pulled = self.fn_node_use[i]
                    .iter()
                    .any(|e| e.node == node && e.pulled);
                if own_pulled || nodes.cache_hit(node, layer) {
                    // The layer is already on the node: the dependency
                    // component collapses to zero (the paper's cache hit).
                    components.deploy_dep_us = 0;
                    self.report.layer_cache_hits += 1;
                } else {
                    components.deploy_dep_us = nodes.pull_micros(node);
                    self.delta.node_mut().pulls.push(PullRecord {
                        time_ms: t,
                        node,
                        layer,
                    });
                    self.report.layer_pulls += 1;
                    pulled = true;
                }
            }
            match self.fn_node_use[i].iter_mut().find(|e| e.node == node) {
                Some(e) => {
                    e.placed += 1;
                    e.pulled |= pulled;
                }
                None => self.fn_node_use[i].push(FnNodeUse {
                    node,
                    placed: 1,
                    pulled,
                }),
            }
            self.delta.node_mut().pod_delta[node as usize] += 1;
        }

        // Public pod ids are minted from a per-function never-reused counter
        // tagged with the function's global index, so they are unique across
        // shards, independent of arena slot recycling, and independent of
        // how pod creations interleave across functions.
        self.pod_counters[function.index()] += 1;
        let global = u64::from(self.members[function.index()]);
        let pod_id = PodId::new(
            (u64::from(self.workload.region.index()) << 48)
                | (global << 26)
                | u64::from(self.pod_counters[function.index()]),
        );
        let mut pod = Pod::new(
            pod_id,
            spec.function,
            cluster,
            spec.config,
            t,
            components.total_us(),
            prewarmed,
        );
        pod.node = node;
        let pod_idx = self.pods.insert(pod, function);
        self.warm_by_function[function.index()].push(pod_idx);

        if !prewarmed {
            self.report.cold_starts += 1;
            self.cold_latencies_s.push(components.total_secs());
            let acc = &mut self.accum[function.index()];
            acc.added_latency_s += components.total_secs();
            // Exact integer attribution: `cold` sums the components, while
            // `cold_us` sums each cold start's total independently, so the
            // merge-level components-sum invariant is a real cross-check.
            acc.cold.add(&ComponentTotals {
                pod_alloc_us: components.pod_alloc_us,
                deploy_code_us: components.deploy_code_us,
                deploy_dep_us: components.deploy_dep_us,
                scheduling_us: components.scheduling_us,
            });
            acc.cold_us += components.total_us();
            self.histories[function.index()].observe_cold_start();
            if let Some(trace) = self.trace.as_mut() {
                trace.cold_starts.push(ColdStartRecord {
                    timestamp_ms: t,
                    pod: pod_id,
                    cluster,
                    function: spec.function,
                    user: spec.user,
                    cold_start_us: components.total_us(),
                    pod_alloc_us: components.pod_alloc_us,
                    deploy_code_us: components.deploy_code_us,
                    deploy_dep_us: components.deploy_dep_us,
                    scheduling_us: components.scheduling_us,
                });
            }
        } else {
            self.report.prewarmed_pods += 1;
        }
        (pod_idx, components.total_us())
    }

    /// Dispatches one admitted request.
    pub(crate) fn dispatch(&mut self, function: FnIdx, t: u64) {
        let spec = self.specs[function.index()];
        self.report.requests += 1;

        // Pick the most recently active warm pod with spare capacity that is
        // already ready to serve. The warm list holds arena slots in the
        // same creation order the id-keyed list used, so ties resolve to the
        // same pod.
        let warm_pod = self.warm_by_function[function.index()]
            .iter()
            .filter_map(|&idx| self.pods.get(idx).map(|p| (idx, p)))
            .filter(|(_, p)| p.has_capacity(spec.concurrency) && p.ready_ms <= t)
            .max_by_key(|(_, p)| p.last_activity_ms)
            .map(|(idx, _)| idx);

        let exec_secs = (spec.median_execution_secs
            * (0.6 * self.fn_rngs[function.index()].standard_normal()).exp())
        .clamp(1e-4, 600.0);
        let exec_ms = (exec_secs * 1e3).ceil() as u64;

        let (pod_idx, startup_ms) = match warm_pod {
            Some(pod_idx) => {
                self.report.warm_starts += 1;
                (pod_idx, 0)
            }
            None => {
                let (pod_idx, cold_us) = self.create_pod(function, t, false);
                (pod_idx, cold_us.div_ceil(1000))
            }
        };

        let pod = self.pods.get_mut(pod_idx).expect("pod exists");
        let pod_id = pod.id;
        let was_prewarmed_unused = pod.prewarmed && pod.served == 0;
        pod.begin_request();
        if was_prewarmed_unused {
            self.report.prewarmed_pods_used += 1;
        }
        let cluster = pod.cluster;
        self.delta.cluster_delta[usize::from(cluster)] += 1;
        self.queue.push(
            t + startup_ms + exec_ms,
            Event::RequestComplete {
                pod: pod_idx,
                busy_ms: exec_ms,
            },
        );

        if let Some(trace) = self.trace.as_mut() {
            self.req_counters[function.index()] += 1;
            let global = u64::from(self.members[function.index()]);
            let rng = &mut self.fn_rngs[function.index()];
            let cpu = (spec.cpu_millicores * (0.3 * rng.standard_normal()).exp())
                .clamp(5.0, spec.config.millicores as f64);
            let memory = ((spec.memory_bytes as f64) * (0.9 + 0.2 * rng.next_f64())).round() as u64;
            trace.requests.push(RequestRecord {
                timestamp_ms: t,
                pod: pod_id,
                cluster,
                function: spec.function,
                user: spec.user,
                request: RequestId::new(
                    ((global + 1) << 32) | u64::from(self.req_counters[function.index()]),
                ),
                execution_time_us: (exec_secs * 1e6) as u64,
                cpu_usage_millicores: cpu,
                memory_usage_bytes: memory,
            });
        }
    }

    pub(crate) fn complete_request(
        &mut self,
        pod_idx: PodIdx,
        t: u64,
        busy_ms: u64,
        keep_alive: &dyn KeepAlivePolicy,
    ) {
        let Some((pod, function)) = self.pods.get_mut_with_fn(pod_idx) else {
            return;
        };
        let cluster = pod.cluster;
        let function_id = pod.function;
        let became_idle = pod.complete_request(t, busy_ms);
        let generation = pod.expiry_generation;
        self.delta.cluster_delta[usize::from(cluster)] -= 1;
        if became_idle {
            let history = &self.histories[function.index()];
            let ka = keep_alive.keep_alive_ms(function_id, history);
            self.queue.push(
                t + ka.max(1),
                Event::PodExpire {
                    pod: pod_idx,
                    generation,
                },
            );
        }
    }

    pub(crate) fn expire_pod(&mut self, pod_idx: PodIdx, t: u64, generation: u64) {
        let valid = self
            .pods
            .get(pod_idx)
            .map(|p| {
                p.in_flight == 0
                    && p.expiry_generation == generation
                    && p.state != PodState::Terminated
            })
            .unwrap_or(false);
        if valid {
            self.finalize_pod(pod_idx, t);
        }
    }

    /// Removes a pod from the live set and accounts its lifetime.
    pub(crate) fn finalize_pod(&mut self, pod_idx: PodIdx, t: u64) {
        let Some((mut pod, function)) = self.pods.remove(pod_idx) else {
            return;
        };
        let (lifetime_ms, _served, busy_ms) = pod.terminate(t);
        let acc = &mut self.accum[function.index()];
        acc.pod_lifetime_s += lifetime_ms as f64 / 1e3;
        let startup_ms = pod.cold_start_us / 1000;
        let idle_s = lifetime_ms.saturating_sub(busy_ms + startup_ms) as f64 / 1e3;
        acc.idle_pod_time_s += idle_s;
        acc.mem_gb_s_wasted += idle_s * pod.config.memory_mb as f64 / 1024.0;
        if let Some(node) = pod.node {
            if let Some(d) = self.delta.node_mut().pod_delta.get_mut(node as usize) {
                *d -= 1;
            }
        }
        self.warm_by_function[function.index()].retain(|&idx| idx != pod_idx);
    }

    /// Creates a pre-warmed pod whose startup cost is paid off the critical
    /// path; it joins the warm set once ready and expires like any idle pod.
    pub(crate) fn prewarm_pod(
        &mut self,
        function: FnIdx,
        t: u64,
        keep_alive: &dyn KeepAlivePolicy,
    ) {
        let (pod_idx, _cold_us) = self.create_pod(function, t, true);
        let function_id = self.specs[function.index()].function;
        let ka = keep_alive.keep_alive_ms(function_id, &self.histories[function.index()]);
        let pod = self.pods.get(pod_idx).expect("pod exists");
        let generation = pod.expiry_generation;
        self.queue.push(
            pod.ready_ms + ka.max(1),
            Event::PodExpire {
                pod: pod_idx,
                generation,
            },
        );
    }

    /// Consumes the shard's state into the pieces the cross-shard merge
    /// needs (see [`crate::shard::merge_outcomes`]). Per-function replay
    /// statistics are left unsorted here; the merge sorts the combined set.
    pub(crate) fn into_outcome(self) -> ShardOutcome {
        let per_function: Vec<FunctionStats> = if self.workload.is_replay() {
            self.histories
                .iter()
                .enumerate()
                .filter(|(_, h)| h.arrivals > 0 || h.cold_starts > 0)
                .map(|(i, h)| FunctionStats {
                    function: self.specs[i].function,
                    requests: h.arrivals,
                    cold_starts: h.cold_starts,
                    components: self.accum[i].cold,
                })
                .chain(
                    self.extra_histories
                        .iter()
                        .filter(|(_, h)| h.arrivals > 0 || h.cold_starts > 0)
                        .map(|(&function, h)| FunctionStats {
                            function,
                            requests: h.arrivals,
                            cold_starts: h.cold_starts,
                            // Unknown functions are never dispatched, so no
                            // cold time is ever charged to them.
                            components: ComponentTotals::default(),
                        }),
                )
                .collect()
        } else {
            Vec::new()
        };
        ShardOutcome {
            report: self.report,
            members: self.members,
            accum: self.accum,
            cold_latencies_s: self.cold_latencies_s,
            per_function,
            trace: self.trace,
        }
    }
}
