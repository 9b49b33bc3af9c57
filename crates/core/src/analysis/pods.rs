//! Pod lifetime reconstruction.
//!
//! The released dataset has no explicit pod table: a pod's life must be
//! reconstructed by joining the cold-start record that created it with the
//! request records it served (plus the keep-alive tail). Several analyses
//! need this join — running-pod time series (Figure 8), the holiday pod
//! counts (Figure 7), and the pod utility ratio (Figure 17) — so it lives in
//! one place, and a characterization report builds it once per region:
//! every region's lives feed Figure 7 and its pod count, and only the
//! region of interest's are kept, for Figures 8 and 17. The standalone
//! analyses build it themselves.

use serde::{Deserialize, Serialize};

use fntrace::{FunctionId, PodId, RegionTrace, RequestRecord};

/// Reconstructed life of one pod.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PodLife {
    /// The pod.
    pub pod: PodId,
    /// Function deployed in the pod.
    pub function: FunctionId,
    /// Creation time (the cold-start timestamp, or the first request for pods
    /// whose cold start precedes the trace window), in milliseconds.
    pub created_ms: u64,
    /// End of the last request served, in milliseconds.
    pub last_end_ms: u64,
    /// Cold-start duration in microseconds (zero when no cold-start record
    /// exists for the pod).
    pub cold_start_us: u64,
    /// Requests served.
    pub served: u64,
}

impl PodLife {
    /// Pod deletion time assuming the default keep-alive tail.
    pub fn deleted_ms(&self, keep_alive_ms: u64) -> u64 {
        self.last_end_ms + keep_alive_ms
    }

    /// Total lifetime in milliseconds including the keep-alive tail.
    pub fn lifetime_ms(&self, keep_alive_ms: u64) -> u64 {
        self.deleted_ms(keep_alive_ms)
            .saturating_sub(self.created_ms)
    }

    /// Useful lifetime in seconds: the time the pod spent available for work,
    /// i.e. its total lifetime minus the trailing keep-alive wait and minus
    /// the cold start spent becoming ready (Section 4.5's definition of
    /// subtracting the keep-alive from the pod lifetime, applied from the
    /// moment the pod is serviceable).
    pub fn useful_lifetime_secs(&self, keep_alive_ms: u64) -> f64 {
        let ready_ms = self.created_ms + self.cold_start_us.div_ceil(1000);
        self.deleted_ms(keep_alive_ms)
            .saturating_sub(keep_alive_ms)
            .saturating_sub(ready_ms) as f64
            / 1e3
    }

    /// Extends the life by one request it served.
    fn serve(&mut self, r: &RequestRecord) {
        let mut end = r.timestamp_ms + r.execution_time_us.div_ceil(1000);
        // The request that spawned the pod only starts executing once the
        // cold start completes, so its end time includes that delay (zero
        // for a pod without a cold-start record).
        if r.timestamp_ms == self.created_ms {
            end += self.cold_start_us.div_ceil(1000);
        }
        self.created_ms = self.created_ms.min(r.timestamp_ms);
        self.last_end_ms = self.last_end_ms.max(end);
        self.served += 1;
    }

    /// Pod utility ratio: useful lifetime over cold-start time. Pods without
    /// a recorded cold start are skipped by returning `None`.
    pub fn utility_ratio(&self, keep_alive_ms: u64) -> Option<f64> {
        if self.cold_start_us == 0 {
            return None;
        }
        Some(self.useful_lifetime_secs(keep_alive_ms) / (self.cold_start_us as f64 / 1e6))
    }
}

/// All pod lives of one region, in ascending pod order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PodLifetimes {
    lives: Vec<PodLife>,
}

impl PodLifetimes {
    /// Reconstructs pod lives from a region trace.
    ///
    /// The join sorts and binary-searches pod ids, never hashes them. Each
    /// pod with a cold-start record starts from the last such record in
    /// table order; the requests then apply in table order, those of pods
    /// without a cold-start record in a second pass over just them.
    pub fn from_trace(trace: &RegionTrace) -> Self {
        let cold_starts = trace.cold_starts.records();
        let mut by_pod: Vec<(PodId, usize)> = cold_starts
            .iter()
            .enumerate()
            .map(|(i, cs)| (cs.pod, i))
            .collect();
        by_pod.sort_unstable();
        let mut lives: Vec<PodLife> = by_pod
            .chunk_by(|a, b| a.0 == b.0)
            .map(|records| {
                let cs = &cold_starts[records[records.len() - 1].1];
                PodLife {
                    pod: cs.pod,
                    function: cs.function,
                    created_ms: cs.timestamp_ms,
                    last_end_ms: cs.timestamp_ms + cs.cold_start_us.div_ceil(1000),
                    cold_start_us: cs.cold_start_us,
                    served: 0,
                }
            })
            .collect();
        let pods: Vec<PodId> = lives.iter().map(|l| l.pod).collect();

        let requests = trace.requests.records();
        let mut orphans: Vec<(PodId, usize)> = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            match pods.binary_search(&r.pod) {
                Ok(k) => lives[k].serve(r),
                Err(_) => orphans.push((r.pod, i)),
            }
        }
        if !orphans.is_empty() {
            orphans.sort_unstable();
            lives.extend(orphans.chunk_by(|a, b| a.0 == b.0).map(|served| {
                let first = &requests[served[0].1];
                let mut life = PodLife {
                    pod: first.pod,
                    function: first.function,
                    created_ms: first.timestamp_ms,
                    last_end_ms: 0,
                    cold_start_us: 0,
                    served: 0,
                };
                for &(_, i) in served {
                    life.serve(&requests[i]);
                }
                life
            }));
            lives.sort_unstable_by_key(|l| l.pod);
        }
        Self { lives }
    }

    /// Number of pods.
    pub fn len(&self) -> usize {
        self.lives.len()
    }

    /// Whether no pods were reconstructed.
    pub fn is_empty(&self) -> bool {
        self.lives.is_empty()
    }

    /// Iterator over pod lives, in ascending pod order.
    pub fn iter(&self) -> impl Iterator<Item = &PodLife> + '_ {
        self.lives.iter()
    }

    /// Looks up one pod.
    pub fn get(&self, pod: PodId) -> Option<&PodLife> {
        self.lives
            .binary_search_by_key(&pod, |l| l.pod)
            .ok()
            .map(|i| &self.lives[i])
    }

    /// Active intervals `[created, deleted)` of all pods, for running-pod
    /// time series.
    pub fn active_intervals(&self, keep_alive_ms: u64) -> Vec<(u64, u64)> {
        self.lives
            .iter()
            .map(|l| (l.created_ms, l.deleted_ms(keep_alive_ms)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fntrace::{ColdStartRecord, RegionId, RequestId, RequestRecord, UserId};

    fn trace_with_one_pod() -> RegionTrace {
        let mut trace = RegionTrace::new(RegionId::new(1));
        trace.cold_starts.push(ColdStartRecord {
            timestamp_ms: 10_000,
            pod: PodId::new(1),
            cluster: 0,
            function: FunctionId::new(5),
            user: UserId::new(1),
            cold_start_us: 2_000_000,
            pod_alloc_us: 1_000_000,
            deploy_code_us: 500_000,
            deploy_dep_us: 0,
            scheduling_us: 500_000,
        });
        for i in 0..3u64 {
            trace.requests.push(RequestRecord {
                timestamp_ms: 12_000 + i * 30_000,
                pod: PodId::new(1),
                cluster: 0,
                function: FunctionId::new(5),
                user: UserId::new(1),
                request: RequestId::new(i),
                execution_time_us: 1_000_000,
                cpu_usage_millicores: 100.0,
                memory_usage_bytes: 1 << 20,
            });
        }
        trace
    }

    #[test]
    fn reconstruction_joins_cold_starts_and_requests() {
        let trace = trace_with_one_pod();
        let lifetimes = PodLifetimes::from_trace(&trace);
        assert_eq!(lifetimes.len(), 1);
        assert!(!lifetimes.is_empty());
        let life = lifetimes.get(PodId::new(1)).unwrap();
        assert_eq!(life.created_ms, 10_000);
        assert_eq!(life.last_end_ms, 12_000 + 60_000 + 1_000);
        assert_eq!(life.served, 3);
        assert_eq!(life.cold_start_us, 2_000_000);
        assert_eq!(life.function, FunctionId::new(5));
    }

    #[test]
    fn lifetime_and_utility_definitions() {
        let trace = trace_with_one_pod();
        let lifetimes = PodLifetimes::from_trace(&trace);
        let life = lifetimes.get(PodId::new(1)).unwrap();
        let keep_alive = 60_000;
        // Created at 10 s, ready at 12 s, last end at 73 s, deleted at 133 s.
        assert_eq!(life.deleted_ms(keep_alive), 133_000);
        assert_eq!(life.lifetime_ms(keep_alive), 123_000);
        // Useful lifetime excludes the trailing keep-alive and the cold
        // start: 73 s - 12 s = 61 s.
        assert!((life.useful_lifetime_secs(keep_alive) - 61.0).abs() < 1e-9);
        // Cold start was 2 s, so utility ratio is 30.5.
        assert!((life.utility_ratio(keep_alive).unwrap() - 30.5).abs() < 1e-9);
    }

    #[test]
    fn pods_without_cold_start_have_no_utility_ratio() {
        let mut trace = trace_with_one_pod();
        trace.requests.push(RequestRecord {
            timestamp_ms: 1_000,
            pod: PodId::new(2),
            cluster: 0,
            function: FunctionId::new(9),
            user: UserId::new(1),
            request: RequestId::new(99),
            execution_time_us: 500_000,
            cpu_usage_millicores: 50.0,
            memory_usage_bytes: 1 << 20,
        });
        let lifetimes = PodLifetimes::from_trace(&trace);
        assert_eq!(lifetimes.len(), 2);
        let orphan = lifetimes.get(PodId::new(2)).unwrap();
        assert_eq!(orphan.cold_start_us, 0);
        assert!(orphan.utility_ratio(60_000).is_none());
        assert_eq!(orphan.served, 1);
    }

    #[test]
    fn one_life_per_distinct_pod_of_either_table() {
        let mut trace = trace_with_one_pod();
        // A pod whose cold start precedes the trace: requests only.
        trace.requests.push(RequestRecord {
            timestamp_ms: 5_000,
            pod: PodId::new(7),
            cluster: 0,
            function: FunctionId::new(5),
            user: UserId::new(1),
            request: RequestId::new(50),
            execution_time_us: 100_000,
            cpu_usage_millicores: 50.0,
            memory_usage_bytes: 1 << 20,
        });
        // A cold-started pod that served no request, with a lower id than
        // every other pod.
        trace.cold_starts.push(ColdStartRecord {
            timestamp_ms: 40_000,
            pod: PodId::new(0),
            cluster: 0,
            function: FunctionId::new(6),
            user: UserId::new(2),
            cold_start_us: 300_000,
            pod_alloc_us: 100_000,
            deploy_code_us: 100_000,
            deploy_dep_us: 0,
            scheduling_us: 100_000,
        });
        let lifetimes = PodLifetimes::from_trace(&trace);
        assert_eq!(lifetimes.len(), trace.distinct_pod_count());
        assert_eq!(lifetimes.len(), 3);
        let pods: Vec<u64> = lifetimes.iter().map(|l| l.pod.raw()).collect();
        assert_eq!(pods, vec![0, 1, 7], "ascending pod order");
        let idle = lifetimes.get(PodId::new(0)).unwrap();
        assert_eq!((idle.served, idle.last_end_ms), (0, 40_300));
        let orphan = lifetimes.get(PodId::new(7)).unwrap();
        assert_eq!((orphan.served, orphan.cold_start_us), (1, 0));
        assert_eq!(orphan.last_end_ms, 5_100);
        assert!(lifetimes.get(PodId::new(3)).is_none());
    }

    #[test]
    fn a_repeated_cold_start_record_keeps_the_last_in_table_order() {
        let mut trace = trace_with_one_pod();
        let mut again = trace.cold_starts.records()[0];
        again.timestamp_ms = 11_000;
        again.cold_start_us = 1_000_000;
        trace.cold_starts.push(again);
        let lifetimes = PodLifetimes::from_trace(&trace);
        assert_eq!(lifetimes.len(), 1);
        let life = lifetimes.get(PodId::new(1)).unwrap();
        assert_eq!((life.created_ms, life.cold_start_us), (11_000, 1_000_000));
        assert_eq!(life.served, 3);
    }

    #[test]
    fn active_intervals_cover_all_pods() {
        let trace = trace_with_one_pod();
        let lifetimes = PodLifetimes::from_trace(&trace);
        let intervals = lifetimes.active_intervals(60_000);
        assert_eq!(intervals.len(), 1);
        assert_eq!(intervals[0], (10_000, 133_000));
    }
}
