//! Multi-region datasets.
//!
//! A [`RegionTrace`] holds the three tables of one region; a [`Dataset`]
//! holds several regions (the paper analyses five). [`DatasetSummary`]
//! captures the headline counts used in Figure 1 (requests, functions, pods
//! per region) plus the cold-start totals.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::csv;
use crate::ids::RegionId;
use crate::par;
use crate::record::{ColdStartRecord, FunctionMeta, RequestRecord};
use crate::stream::TraceReader;
use crate::table::{ColdStartTable, FunctionTable, RequestTable};

/// Paths of the three per-region CSV files under the public data-release
/// naming convention (`{region}_requests.csv` etc.).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDirPaths {
    /// Request-level table file.
    pub requests: PathBuf,
    /// Pod-level cold-start table file.
    pub cold_starts: PathBuf,
    /// Function-level metadata table file.
    pub functions: PathBuf,
}

impl TraceDirPaths {
    /// Resolves the file names for `region` inside `dir`.
    pub fn new(region: RegionId, dir: &Path) -> Self {
        let prefix = region.label().to_lowercase();
        Self {
            requests: dir.join(format!("{prefix}_requests.csv")),
            cold_starts: dir.join(format!("{prefix}_cold_starts.csv")),
            functions: dir.join(format!("{prefix}_functions.csv")),
        }
    }
}

/// All trace data collected from a single region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionTrace {
    /// Which region this is.
    pub region: RegionId,
    /// Request-level table.
    pub requests: RequestTable,
    /// Pod-level cold-start table.
    pub cold_starts: ColdStartTable,
    /// Function-level metadata table.
    pub functions: FunctionTable,
}

impl RegionTrace {
    /// Creates an empty trace for a region.
    pub fn new(region: RegionId) -> Self {
        Self {
            region,
            requests: RequestTable::new(),
            cold_starts: ColdStartTable::new(),
            functions: FunctionTable::new(),
        }
    }

    /// Sorts the request and cold-start tables chronologically.
    pub fn sort_by_time(&mut self) {
        self.requests.sort_by_time();
        self.cold_starts.sort_by_time();
    }

    /// Overall time span `[min, max]` in milliseconds across both event
    /// tables, or `None` if the trace has no events.
    pub fn time_span_ms(&self) -> Option<(u64, u64)> {
        match (
            self.requests.time_span_ms(),
            self.cold_starts.time_span_ms(),
        ) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (Some(span), None) | (None, Some(span)) => Some(span),
            (None, None) => None,
        }
    }

    /// Number of distinct pods appearing in either table.
    pub fn distinct_pod_count(&self) -> usize {
        let requests = self.requests.records().iter().map(|r| r.pod.raw());
        distinct(requests.chain(self.cold_starts.records().iter().map(|r| r.pod.raw())))
    }

    /// Number of distinct functions appearing in any table.
    pub fn distinct_function_count(&self) -> usize {
        let requests = self.requests.records().iter().map(|r| r.function.raw());
        let cold_starts = self.cold_starts.records().iter().map(|r| r.function.raw());
        distinct(
            requests
                .chain(cold_starts)
                .chain(self.functions.iter().map(|m| m.function.raw())),
        )
    }

    /// Number of distinct users appearing in any table.
    pub fn distinct_user_count(&self) -> usize {
        let requests = self.requests.records().iter().map(|r| r.user.raw());
        distinct(requests.chain(self.functions.iter().map(|m| m.user.raw())))
    }

    /// This region's summary counts (one row of Figure 1 / Table 1).
    pub fn summary(&self) -> RegionSummary {
        self.summary_with_pods(self.distinct_pod_count() as u64)
    }

    /// [`summary`](Self::summary) with the distinct pod count supplied by a
    /// caller that already holds it, such as the length of a pod-lifetime
    /// join over both event tables.
    pub fn summary_with_pods(&self, pods: u64) -> RegionSummary {
        RegionSummary {
            region: self.region,
            requests: self.requests.len() as u64,
            cold_starts: self.cold_starts.len() as u64,
            functions: self.distinct_function_count() as u64,
            pods,
            users: self.distinct_user_count() as u64,
            duration_days: self
                .time_span_ms()
                .map(|(lo, hi)| (hi - lo) as f64 / crate::timebin::MILLIS_PER_DAY as f64)
                .unwrap_or(0.0),
        }
    }

    /// Writes the three tables as CSV files into `dir` using the public
    /// data-release naming convention.
    pub fn write_csv_dir(&self, dir: &Path) -> Result<(), csv::CsvError> {
        let prefix = self.region.label().to_lowercase();
        csv::write_text(
            &dir.join(format!("{prefix}_requests.csv")),
            &csv::request_table_to_csv(&self.requests),
        )?;
        csv::write_text(
            &dir.join(format!("{prefix}_cold_starts.csv")),
            &csv::cold_start_table_to_csv(&self.cold_starts),
        )?;
        csv::write_text(
            &dir.join(format!("{prefix}_functions.csv")),
            &csv::function_table_to_csv(&self.functions),
        )?;
        Ok(())
    }

    /// Reads the three tables back from a directory written by
    /// [`write_csv_dir`](Self::write_csv_dir).
    ///
    /// Files are parsed record-at-a-time (no whole-file buffering), but the
    /// resulting tables are fully resident; for larger-than-memory replay use
    /// the streaming path built on [`TraceReader`] instead.
    pub fn read_csv_dir(region: RegionId, dir: &Path) -> Result<Self, csv::CsvError> {
        let paths = TraceDirPaths::new(region, dir);
        let mut requests = RequestTable::new();
        for rec in TraceReader::<_, RequestRecord>::from_path(&paths.requests)? {
            requests.push(rec?);
        }
        let mut cold_starts = ColdStartTable::new();
        for rec in TraceReader::<_, ColdStartRecord>::from_path(&paths.cold_starts)? {
            cold_starts.push(rec?);
        }
        let mut functions = FunctionTable::new();
        for rec in TraceReader::<_, FunctionMeta>::from_path(&paths.functions)? {
            functions.insert(rec?);
        }
        Ok(Self {
            region,
            requests,
            cold_starts,
            functions,
        })
    }
}

/// Number of distinct values among `ids`, counted by sorting them: trace ids
/// are never hashed.
fn distinct(ids: impl Iterator<Item = u64>) -> usize {
    let mut ids: Vec<u64> = ids.collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

/// A multi-region dataset, keyed by region id.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    regions: BTreeMap<RegionId, RegionTrace>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) one region's trace.
    pub fn insert_region(&mut self, trace: RegionTrace) {
        self.regions.insert(trace.region, trace);
    }

    /// Looks up one region.
    pub fn region(&self, region: RegionId) -> Option<&RegionTrace> {
        self.regions.get(&region)
    }

    /// All region ids in ascending order.
    pub fn region_ids(&self) -> Vec<RegionId> {
        self.regions.keys().copied().collect()
    }

    /// Iterator over the regions in ascending id order.
    pub fn regions(&self) -> impl Iterator<Item = &RegionTrace> + '_ {
        self.regions.values()
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total number of requests across all regions.
    pub fn total_requests(&self) -> u64 {
        self.regions.values().map(|r| r.requests.len() as u64).sum()
    }

    /// Total number of cold starts across all regions.
    pub fn total_cold_starts(&self) -> u64 {
        self.regions
            .values()
            .map(|r| r.cold_starts.len() as u64)
            .sum()
    }

    /// Sorts every region chronologically.
    pub fn sort_by_time(&mut self) {
        for r in self.regions.values_mut() {
            r.sort_by_time();
        }
    }

    /// Applies `f` to every region and returns the results in ascending
    /// region order.
    ///
    /// The regions run in parallel, through [`par::map`], on up to one worker
    /// per available core and never more workers than regions; the calling
    /// thread is one of them. Because each result lands at its region's
    /// position, the output is the same as a sequential loop over
    /// [`regions`](Self::regions) whenever `f` depends only on its region.
    pub fn map_regions<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&RegionTrace) -> T + Sync,
    {
        let traces: Vec<&RegionTrace> = self.regions.values().collect();
        par::map(traces.len(), 0, |i| f(traces[i]))
    }

    /// Per-region and total summary counts (Figure 1 / Table 1 overview),
    /// one [`RegionTrace::summary`] per region.
    pub fn summary(&self) -> DatasetSummary {
        DatasetSummary {
            per_region: self.map_regions(RegionTrace::summary),
        }
    }

    /// Writes every region to CSV files under `dir` (one file set per region).
    pub fn write_csv_dir(&self, dir: &Path) -> Result<(), csv::CsvError> {
        for trace in self.regions.values() {
            trace.write_csv_dir(dir)?;
        }
        Ok(())
    }
}

/// Summary counts for one region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionSummary {
    /// The region.
    pub region: RegionId,
    /// Number of request records.
    pub requests: u64,
    /// Number of cold-start records.
    pub cold_starts: u64,
    /// Number of distinct functions.
    pub functions: u64,
    /// Number of distinct pods.
    pub pods: u64,
    /// Number of distinct users.
    pub users: u64,
    /// Trace duration in days.
    pub duration_days: f64,
}

/// Summary of a whole dataset (one row per region).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DatasetSummary {
    /// Per-region summaries, ordered by region id.
    pub per_region: Vec<RegionSummary>,
}

impl DatasetSummary {
    /// Total requests across regions.
    pub fn total_requests(&self) -> u64 {
        self.per_region.iter().map(|r| r.requests).sum()
    }

    /// Total cold starts across regions.
    pub fn total_cold_starts(&self) -> u64 {
        self.per_region.iter().map(|r| r.cold_starts).sum()
    }

    /// Total distinct pods across regions (regions do not share pods).
    pub fn total_pods(&self) -> u64 {
        self.per_region.iter().map(|r| r.pods).sum()
    }

    /// Renders a fixed-width text table of the summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:>14} {:>12} {:>11} {:>11} {:>9} {:>9}\n",
            "region", "requests", "cold starts", "functions", "pods", "users", "days"
        ));
        for r in &self.per_region {
            out.push_str(&format!(
                "{:<8} {:>14} {:>12} {:>11} {:>11} {:>9} {:>9.1}\n",
                r.region.label(),
                r.requests,
                r.cold_starts,
                r.functions,
                r.pods,
                r.users,
                r.duration_days
            ));
        }
        out.push_str(&format!(
            "{:<8} {:>14} {:>12}\n",
            "total",
            self.total_requests(),
            self.total_cold_starts()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FunctionId, PodId, RequestId, UserId};
    use crate::record::{ColdStartRecord, FunctionMeta, RequestRecord};
    use crate::types::{ResourceConfig, Runtime, TriggerType};

    fn small_region(region: u16, n_requests: u64) -> RegionTrace {
        let mut trace = RegionTrace::new(RegionId::new(region));
        for i in 0..n_requests {
            trace.requests.push(RequestRecord {
                timestamp_ms: i * 60_000,
                pod: PodId::new(i % 3),
                cluster: 0,
                function: FunctionId::new(i % 2),
                user: UserId::new(i % 2),
                request: RequestId::new(i),
                execution_time_us: 5_000,
                cpu_usage_millicores: 100.0,
                memory_usage_bytes: 1 << 20,
            });
        }
        trace.cold_starts.push(ColdStartRecord {
            timestamp_ms: 0,
            pod: PodId::new(0),
            cluster: 0,
            function: FunctionId::new(0),
            user: UserId::new(0),
            cold_start_us: 500_000,
            pod_alloc_us: 200_000,
            deploy_code_us: 100_000,
            deploy_dep_us: 100_000,
            scheduling_us: 100_000,
        });
        trace.functions.insert(FunctionMeta {
            function: FunctionId::new(0),
            user: UserId::new(0),
            runtime: Runtime::Python3,
            triggers: vec![TriggerType::Timer],
            config: ResourceConfig::SMALL_300_128,
        });
        trace
    }

    #[test]
    fn region_counts() {
        let trace = small_region(1, 10);
        assert_eq!(trace.distinct_pod_count(), 3);
        assert_eq!(trace.distinct_function_count(), 2);
        assert_eq!(trace.distinct_user_count(), 2);
        assert_eq!(trace.time_span_ms(), Some((0, 9 * 60_000)));
        let empty = RegionTrace::new(RegionId::new(9));
        assert_eq!(empty.time_span_ms(), None);
        assert_eq!(empty.distinct_pod_count(), 0);
    }

    #[test]
    fn dataset_aggregation_and_summary() {
        let mut ds = Dataset::new();
        ds.insert_region(small_region(1, 20));
        ds.insert_region(small_region(2, 5));
        assert_eq!(ds.region_count(), 2);
        assert_eq!(ds.total_requests(), 25);
        assert_eq!(ds.total_cold_starts(), 2);
        assert_eq!(ds.region_ids(), vec![RegionId::new(1), RegionId::new(2)]);
        assert!(ds.region(RegionId::new(1)).is_some());
        assert!(ds.region(RegionId::new(3)).is_none());

        let summary = ds.summary();
        assert_eq!(summary.per_region.len(), 2);
        assert_eq!(summary.total_requests(), 25);
        assert_eq!(summary.total_cold_starts(), 2);
        assert_eq!(summary.total_pods(), 6);
        let rendered = summary.render();
        assert!(rendered.contains("R1"));
        assert!(rendered.contains("R2"));
        assert!(rendered.contains("total"));
    }

    #[test]
    fn map_regions_returns_results_in_region_order() {
        let mut ds = Dataset::new();
        for region in [5, 2, 4, 1, 3] {
            ds.insert_region(small_region(region, u64::from(region) * 3));
        }
        let mapped = ds.map_regions(|t| (t.region, t.requests.len()));
        let sequential: Vec<_> = ds.regions().map(|t| (t.region, t.requests.len())).collect();
        assert_eq!(mapped, sequential);
        assert_eq!(
            mapped.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            ds.region_ids()
        );
        assert!(Dataset::new().map_regions(|t| t.region).is_empty());
    }

    #[test]
    fn csv_directory_roundtrip() {
        let dir = std::env::temp_dir().join("fntrace_dataset_test");
        std::fs::remove_dir_all(&dir).ok();
        let trace = small_region(4, 7);
        trace.write_csv_dir(&dir).unwrap();
        let loaded = RegionTrace::read_csv_dir(RegionId::new(4), &dir).unwrap();
        assert_eq!(loaded.requests.len(), 7);
        assert_eq!(loaded.cold_starts.len(), 1);
        assert_eq!(loaded.functions.len(), 1);
        assert_eq!(loaded.region, RegionId::new(4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sort_by_time_orders_all_tables() {
        let mut ds = Dataset::new();
        let mut trace = small_region(1, 3);
        // Force out-of-order push.
        trace.requests.push(RequestRecord {
            timestamp_ms: 1,
            pod: PodId::new(9),
            cluster: 0,
            function: FunctionId::new(9),
            user: UserId::new(9),
            request: RequestId::new(99),
            execution_time_us: 1,
            cpu_usage_millicores: 1.0,
            memory_usage_bytes: 1,
        });
        ds.insert_region(trace);
        ds.sort_by_time();
        let r = ds.region(RegionId::new(1)).unwrap();
        let ts: Vec<u64> = r
            .requests
            .records()
            .iter()
            .map(|x| x.timestamp_ms)
            .collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }
}
