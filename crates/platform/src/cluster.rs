//! Cluster routing state.
//!
//! A region is split into four clusters (Section 2.1). Requests for a
//! function are normally routed to one cluster chosen by hashing the function
//! name; when that cluster is hot (carrying many more in-flight requests than
//! the least loaded one), new pods are started on the least-loaded cluster
//! instead, which is the paper's description of inter-cluster load balancing.

use serde::{Deserialize, Serialize};

use fntrace::{ClusterId, FunctionId};

/// Per-cluster load counters for one region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterState {
    in_flight: Vec<u32>,
    hot_spot_threshold: u32,
}

impl ClusterState {
    /// Creates the state for a region with `clusters` clusters.
    pub fn new(clusters: u8, hot_spot_threshold: u32) -> Self {
        Self {
            in_flight: vec![0; clusters.max(1) as usize],
            hot_spot_threshold,
        }
    }

    /// Overwrites this state with `source`, reusing the counter allocation.
    pub(crate) fn copy_from(&mut self, source: &ClusterState) {
        self.in_flight.clone_from(&source.in_flight);
        self.hot_spot_threshold = source.hot_spot_threshold;
    }

    /// Number of clusters.
    pub fn clusters(&self) -> u8 {
        self.in_flight.len() as u8
    }

    /// The cluster a function's requests hash to by default.
    pub fn home_cluster(&self, function: FunctionId) -> ClusterId {
        (function.raw() % self.in_flight.len() as u64) as ClusterId
    }

    /// Chooses the cluster for a new pod of `function`.
    ///
    /// Placement contract (pinned by unit tests; the node layer in
    /// [`crate::node`] builds on it):
    ///
    /// 1. The home cluster is used unless it is *hot*: carrying at least
    ///    `hot_spot_threshold` more in-flight requests than the least-loaded
    ///    cluster.
    /// 2. A hot home spills to the least-loaded cluster. Ties between
    ///    equally least-loaded clusters break by rotating over the tied set
    ///    with the function id (`function.raw() % ties`), not by picking the
    ///    lowest index, so simultaneous spills from many functions spread
    ///    over the tied clusters instead of herding onto the first one.
    ///
    /// The choice is a pure function of `(self, function)` — no RNG, no
    /// hidden state — so for a given seed it is byte-identical whatever the
    /// shard count or evaluation order.
    pub fn place_pod(&self, function: FunctionId) -> ClusterId {
        let home = self.home_cluster(function) as usize;
        let least = *self.in_flight.iter().min().expect("at least one cluster");
        let hot = u64::from(self.in_flight[home])
            >= u64::from(least) + u64::from(self.hot_spot_threshold);
        if !hot {
            return home as ClusterId;
        }
        let ties = self.in_flight.iter().filter(|&&l| l == least).count() as u64;
        let pick = (function.raw() % ties) as usize;
        self.in_flight
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == least)
            .nth(pick)
            .map(|(i, _)| i as ClusterId)
            .expect("tie set is non-empty")
    }

    /// Records the start of a request on a cluster.
    pub fn begin_request(&mut self, cluster: ClusterId) {
        if let Some(c) = self.in_flight.get_mut(cluster as usize) {
            *c += 1;
        }
    }

    /// Records the completion of a request on a cluster.
    pub fn complete_request(&mut self, cluster: ClusterId) {
        if let Some(c) = self.in_flight.get_mut(cluster as usize) {
            *c = c.saturating_sub(1);
        }
    }

    /// Total in-flight requests in the region.
    pub fn total_in_flight(&self) -> u32 {
        self.in_flight.iter().sum()
    }

    /// In-flight requests on one cluster.
    pub fn in_flight(&self, cluster: ClusterId) -> u32 {
        self.in_flight.get(cluster as usize).copied().unwrap_or(0)
    }

    /// Applies one epoch's net in-flight deltas, one entry per cluster.
    ///
    /// Deltas beyond the cluster count are ignored and each counter clamps
    /// at zero, mirroring the bounds-checked saturating behaviour of the
    /// incremental [`begin_request`](Self::begin_request) /
    /// [`complete_request`](Self::complete_request) pair. Summing per-shard
    /// deltas and applying them here is commutative, which is what makes the
    /// epoch merge order-independent (see [`crate::shard`]).
    pub fn apply_delta(&mut self, delta: &[i64]) {
        for (c, &d) in self.in_flight.iter_mut().zip(delta) {
            let updated = i64::from(*c) + d;
            *c = u32::try_from(updated.max(0)).unwrap_or(u32::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_and_within_range() {
        let s = ClusterState::new(4, 16);
        assert_eq!(s.clusters(), 4);
        let f = FunctionId::new(10);
        assert_eq!(s.home_cluster(f), s.home_cluster(f));
        assert!(s.home_cluster(f) < 4);
        assert_eq!(s.home_cluster(FunctionId::new(7)), 3);
    }

    #[test]
    fn zero_clusters_clamped_to_one() {
        let s = ClusterState::new(0, 4);
        assert_eq!(s.clusters(), 1);
        assert_eq!(s.home_cluster(FunctionId::new(99)), 0);
    }

    #[test]
    fn request_counters() {
        let mut s = ClusterState::new(2, 4);
        s.begin_request(0);
        s.begin_request(0);
        s.begin_request(1);
        assert_eq!(s.total_in_flight(), 3);
        assert_eq!(s.in_flight(0), 2);
        s.complete_request(0);
        assert_eq!(s.in_flight(0), 1);
        s.complete_request(1);
        s.complete_request(1);
        assert_eq!(s.in_flight(1), 0, "saturating");
        // Out-of-range clusters are ignored.
        s.begin_request(9);
        s.complete_request(9);
        assert_eq!(s.total_in_flight(), 1);
    }

    #[test]
    fn hot_cluster_spills_to_least_loaded() {
        let mut s = ClusterState::new(4, 8);
        let f = FunctionId::new(4); // Home cluster 0.
        assert_eq!(s.home_cluster(f), 0);
        assert_eq!(s.place_pod(f), 0);
        for _ in 0..10 {
            s.begin_request(0);
        }
        // Cluster 0 is now hot relative to the empty clusters.
        let placed = s.place_pod(f);
        assert_ne!(placed, 0);
        // Relief: once the home cluster cools down, placement returns home.
        for _ in 0..10 {
            s.complete_request(0);
        }
        assert_eq!(s.place_pod(f), 0);
    }

    #[test]
    fn hot_spill_rotates_over_least_loaded_ties_by_function_id() {
        let mut s = ClusterState::new(4, 2);
        // Home cluster 0 hot; clusters 1..4 all idle -> a three-way tie.
        for _ in 0..5 {
            s.begin_request(0);
        }
        // Functions with home cluster 0 rotate over the tied set {1, 2, 3}:
        // raw % 3 picks the 0th, 1st, 2nd tied cluster respectively.
        assert_eq!(s.place_pod(FunctionId::new(0)), 1);
        assert_eq!(s.place_pod(FunctionId::new(4)), 2);
        assert_eq!(s.place_pod(FunctionId::new(8)), 3);
        assert_eq!(s.place_pod(FunctionId::new(12)), 1);
        // Breaking the tie collapses the choice to the unique minimum.
        s.begin_request(1);
        s.begin_request(3);
        assert_eq!(s.place_pod(FunctionId::new(0)), 2);
        assert_eq!(s.place_pod(FunctionId::new(4)), 2);
    }

    #[test]
    fn hot_threshold_boundary_is_inclusive() {
        let mut s = ClusterState::new(2, 3);
        let f = FunctionId::new(0); // Home cluster 0.
        s.begin_request(0);
        s.begin_request(0);
        // Load 2 < least (0) + threshold (3): still home.
        assert_eq!(s.place_pod(f), 0);
        s.begin_request(0);
        // Load 3 >= 0 + 3: exactly at the threshold counts as hot.
        assert_eq!(s.place_pod(f), 1);
    }

    #[test]
    fn placement_is_a_pure_function_of_state() {
        let mut s = ClusterState::new(4, 1);
        for _ in 0..9 {
            s.begin_request(2);
        }
        s.begin_request(1);
        for f in 0..64 {
            let f = FunctionId::new(f);
            let first = s.place_pod(f);
            // Same state, same function -> same cluster, every time.
            assert_eq!(s.place_pod(f), first);
            assert_eq!(s.place_pod(f), first);
        }
    }
}
