//! Simulation outcome reporting.

use serde::{Deserialize, Serialize};

use faas_stats::Ecdf;
use fntrace::FunctionId;

/// Latency distribution summary (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LatencyStats {
    /// Number of observations.
    pub count: u64,
    /// Mean in seconds.
    pub mean_s: f64,
    /// Median in seconds.
    pub p50_s: f64,
    /// 95th percentile in seconds.
    pub p95_s: f64,
    /// 99th percentile in seconds.
    pub p99_s: f64,
    /// Maximum in seconds.
    pub max_s: f64,
}

impl LatencyStats {
    /// Computes the summary from raw latencies in seconds. Returns an
    /// all-zero summary for an empty input.
    pub fn from_secs(values: &[f64]) -> Self {
        match Ecdf::from_slice(values) {
            Ok(ecdf) => Self {
                count: values.len() as u64,
                mean_s: ecdf.mean(),
                p50_s: ecdf.quantile(0.5),
                p95_s: ecdf.quantile(0.95),
                p99_s: ecdf.quantile(0.99),
                max_s: ecdf.max(),
            },
            Err(_) => Self::default(),
        }
    }
}

/// Summed per-component cold-start times, in microseconds.
///
/// Components follow the paper's decomposition (pod allocation, code
/// deployment, dependency deployment, scheduling). Each charged cold start
/// contributes its exact integer component samples, so
/// [`total_us`](Self::total_us) — a plain `u64` sum — always equals the sum
/// of the individual cold-start totals: the attribution block is exact, not
/// an estimate. With the node layer enabled the dependency component is the
/// explicit layer-pull time (zero on cache hits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ComponentTotals {
    /// Pod allocation time, microseconds.
    pub pod_alloc_us: u64,
    /// Code deployment time, microseconds.
    pub deploy_code_us: u64,
    /// Dependency deployment (layer pull) time, microseconds.
    pub deploy_dep_us: u64,
    /// Scheduling time, microseconds.
    pub scheduling_us: u64,
}

impl ComponentTotals {
    /// Exact sum of the four components.
    pub fn total_us(&self) -> u64 {
        self.pod_alloc_us + self.deploy_code_us + self.deploy_dep_us + self.scheduling_us
    }

    /// Adds another total in.
    pub fn add(&mut self, other: &ComponentTotals) {
        self.pod_alloc_us += other.pod_alloc_us;
        self.deploy_code_us += other.deploy_code_us;
        self.deploy_dep_us += other.deploy_dep_us;
        self.scheduling_us += other.scheduling_us;
    }
}

/// Per-function request and cold-start counters.
///
/// Attributed only for replay-tagged workloads (see
/// [`faas_workload::WorkloadSource`]): replayed traces carry real function
/// identities worth reporting individually, synthetic populations do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionStats {
    /// The function the counters belong to.
    pub function: FunctionId,
    /// Requests observed for the function.
    pub requests: u64,
    /// Cold starts charged to the function.
    pub cold_starts: u64,
    /// Per-component time attribution of the function's charged cold
    /// starts; `components.total_us()` is exactly their summed latency.
    pub components: ComponentTotals,
}

/// Aggregate outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SimReport {
    /// Arrival events pulled from the workload stream. Matches `requests`
    /// whenever every event references a known function; kept separately so
    /// streaming throughput (events/second) is measured against what the
    /// engine actually consumed.
    pub events_processed: u64,
    /// Requests admitted and executed.
    pub requests: u64,
    /// Requests served by an already warm pod.
    pub warm_starts: u64,
    /// Requests that triggered a cold start.
    pub cold_starts: u64,
    /// Pods created by the pre-warm policy.
    pub prewarmed_pods: u64,
    /// Pre-warmed pods that served at least one request before expiring.
    pub prewarmed_pods_used: u64,
    /// Pods created from the resource pool.
    pub pool_hits: u64,
    /// Pods created from scratch because no pooled pod was available.
    pub scratch_creations: u64,
    /// Requests delayed by the admission (peak shaving) policy.
    pub delayed_requests: u64,
    /// Total delay added by the admission policy, in seconds.
    pub total_admission_delay_s: f64,
    /// Cold-start latency distribution (user-visible cold starts only).
    pub cold_start_latency: LatencyStats,
    /// Per-component attribution of all charged cold starts, microseconds.
    /// Exact: `cold_components.total_us() == cold_us_total` always.
    pub cold_components: ComponentTotals,
    /// Total charged cold-start latency in microseconds — the integer sum of
    /// every charged cold start's component sum.
    pub cold_us_total: u64,
    /// Dependency layers pulled onto nodes, counting cold-start and
    /// pre-warm pod creations alike (node model only; zero otherwise).
    pub layer_pulls: u64,
    /// Pod creations whose dependency layer was already cached on the
    /// chosen node (node model only; zero otherwise).
    pub layer_cache_hits: u64,
    /// End-to-end latency added on top of execution time (cold start plus
    /// admission delay), averaged over all requests, in seconds.
    pub mean_added_latency_s: f64,
    /// Total pod lifetime across all pods, in pod-seconds.
    pub pod_lifetime_s: f64,
    /// Total pod time spent idle in keep-alive, in pod-seconds (wasted
    /// capacity the pool-prediction and keep-alive policies try to reduce).
    pub idle_pod_time_s: f64,
    /// Memory held by idle pods integrated over their idle time, in
    /// GB-seconds. This is the cost axis the parameter sweeps trade against
    /// the cold-start rate: keeping pods warm longer reduces cold starts but
    /// grows this number.
    pub mem_gb_s_wasted: f64,
    /// Largest number of live pods seen at an epoch boundary.
    ///
    /// The count is sampled only when an epoch settles
    /// ([`PlatformConfig::epoch_ms`](crate::PlatformConfig::epoch_ms)), so
    /// pods created and finalized between two boundaries never show: this is
    /// a lower bound on the instantaneous peak, and it depends on the epoch
    /// length.
    pub peak_live_pods: u32,
    /// Per-function cold-start attribution, sorted by function id. Populated
    /// only when the workload is replay-tagged; empty for synthetic runs.
    pub per_function: Vec<FunctionStats>,
    /// Name of the keep-alive policy used.
    pub keep_alive_policy: String,
    /// Name of the pre-warm policy used.
    pub prewarm_policy: String,
    /// Name of the admission policy used.
    pub admission_policy: String,
}

impl SimReport {
    /// Fraction of requests that suffered a cold start.
    pub fn cold_start_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cold_starts as f64 / self.requests as f64
        }
    }

    /// Fraction of pod lifetime spent idle.
    pub fn idle_fraction(&self) -> f64 {
        if self.pod_lifetime_s <= 0.0 {
            0.0
        } else {
            (self.idle_pod_time_s / self.pod_lifetime_s).clamp(0.0, 1.0)
        }
    }

    /// The `n` replay-attributed functions with the most cold starts, ties
    /// broken by function id. Empty unless the run replayed a trace.
    pub fn top_cold_start_functions(&self, n: usize) -> Vec<FunctionStats> {
        let mut ranked = self.per_function.clone();
        ranked.sort_by_key(|s| (std::cmp::Reverse(s.cold_starts), s.function));
        ranked.truncate(n);
        ranked
    }

    /// Renders a short human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "requests {:>9}  cold starts {:>8} ({:>5.1}%)  warm {:>9}  prewarmed {:>6} (used {})\n\
             cold start p50/p95/p99 {:.3}/{:.3}/{:.3} s  mean added latency {:.4} s\n\
             cold components (s): alloc {:.3}  code {:.3}  dep {:.3}  sched {:.3}  layer pulls {} (hits {})\n\
             pods: pool hits {}  scratch {}  peak live {}  idle fraction {:.1}%  mem waste {:.1} GB-s\n\
             policies: keep-alive={} prewarm={} admission={}",
            self.requests,
            self.cold_starts,
            100.0 * self.cold_start_rate(),
            self.warm_starts,
            self.prewarmed_pods,
            self.prewarmed_pods_used,
            self.cold_start_latency.p50_s,
            self.cold_start_latency.p95_s,
            self.cold_start_latency.p99_s,
            self.mean_added_latency_s,
            self.cold_components.pod_alloc_us as f64 / 1e6,
            self.cold_components.deploy_code_us as f64 / 1e6,
            self.cold_components.deploy_dep_us as f64 / 1e6,
            self.cold_components.scheduling_us as f64 / 1e6,
            self.layer_pulls,
            self.layer_cache_hits,
            self.pool_hits,
            self.scratch_creations,
            self.peak_live_pods,
            100.0 * self.idle_fraction(),
            self.mem_gb_s_wasted,
            self.keep_alive_policy,
            self.prewarm_policy,
            self.admission_policy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_from_values() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let stats = LatencyStats::from_secs(&values);
        assert_eq!(stats.count, 100);
        assert!((stats.mean_s - 0.505).abs() < 1e-9);
        assert!((stats.p50_s - 0.5).abs() < 1e-9);
        assert!((stats.p95_s - 0.95).abs() < 1e-9);
        assert!((stats.max_s - 1.0).abs() < 1e-9);
        let empty = LatencyStats::from_secs(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean_s, 0.0);
    }

    #[test]
    fn report_rates() {
        let mut r = SimReport {
            requests: 1000,
            cold_starts: 250,
            ..SimReport::default()
        };
        assert!((r.cold_start_rate() - 0.25).abs() < 1e-12);
        r.pod_lifetime_s = 200.0;
        r.idle_pod_time_s = 50.0;
        assert!((r.idle_fraction() - 0.25).abs() < 1e-12);
        let empty = SimReport::default();
        assert_eq!(empty.cold_start_rate(), 0.0);
        assert_eq!(empty.idle_fraction(), 0.0);
        let text = r.render();
        assert!(text.contains("cold starts"));
        assert!(text.contains("25.0%"));
        assert!(text.contains("cold components"));
    }

    #[test]
    fn component_totals_sum_exactly_and_commute() {
        let a = ComponentTotals {
            pod_alloc_us: 1,
            deploy_code_us: 2,
            deploy_dep_us: 3,
            scheduling_us: 4,
        };
        let b = ComponentTotals {
            pod_alloc_us: 10,
            deploy_code_us: 0,
            deploy_dep_us: 7,
            scheduling_us: 5,
        };
        assert_eq!(a.total_us(), 10);
        let mut ab = a;
        ab.add(&b);
        let mut ba = b;
        ba.add(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total_us(), a.total_us() + b.total_us());
    }
}
