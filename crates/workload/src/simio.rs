//! Workload packaging for the discrete-event platform simulator.
//!
//! [`WorkloadSpec`] bundles a region's function population with its merged,
//! time-sorted arrival stream. The `faas-platform` simulator consumes the
//! spec event by event, and the mitigation policies of the core crate are
//! evaluated by running the same spec under different platform
//! configurations.

use serde::{Deserialize, Serialize};

use faas_stats::rng::Xoshiro256pp;
use fntrace::{FunctionId, RegionId};

use crate::population::{FunctionPopulation, FunctionSpec, PopulationConfig};
use crate::profile::{Calibration, RegionProfile};

/// One invocation event: a request for `function` arriving at `timestamp_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadEvent {
    /// Arrival time in milliseconds since the trace epoch.
    pub timestamp_ms: u64,
    /// The invoked function.
    pub function: FunctionId,
}

/// Where a workload's events came from.
///
/// The platform simulator uses the tag to decide whether to attribute cold
/// starts per function in its report: replayed traces carry real function
/// identities worth reporting individually, synthetic workloads do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WorkloadSource {
    /// Generated by the synthetic arrival model.
    #[default]
    Synthetic,
    /// Lowered from trace records by [`crate::replay::TraceReplayWorkload`].
    Replay,
}

/// A region's workload: function specifications plus the merged arrival
/// stream, sorted by time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Region this workload belongs to.
    pub region: RegionId,
    /// Region profile the workload was generated from.
    pub profile: RegionProfile,
    /// Calibration (duration, holiday, keep-alive default).
    pub calibration: Calibration,
    /// Static function attributes.
    pub functions: Vec<FunctionSpec>,
    /// All invocation events, sorted by timestamp.
    pub events: Vec<WorkloadEvent>,
    /// Whether the events were generated or replayed from a trace.
    pub source: WorkloadSource,
}

impl WorkloadSpec {
    /// Builds a workload from an already generated population.
    ///
    /// This is [`StreamedWorkload::from_population`] collected: the events
    /// come out of the same per-function k-way merge the streaming path
    /// yields lazily, so a materialised spec and its streamed twin are
    /// identical by construction.
    ///
    /// [`StreamedWorkload::from_population`]: crate::stream::StreamedWorkload::from_population
    pub fn from_population(
        population: &FunctionPopulation,
        calibration: Calibration,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        crate::stream::StreamedWorkload::from_population(population, calibration, rng).materialize()
    }

    /// Generates a workload directly from a region profile.
    pub fn generate(
        profile: &RegionProfile,
        calibration: Calibration,
        config: &PopulationConfig,
        seed: u64,
    ) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (u64::from(profile.region.index()) << 32));
        let population = FunctionPopulation::generate(profile, &calibration, config, &mut rng);
        Self::from_population(&population, calibration, &mut rng)
    }

    /// Number of invocation events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the workload has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Looks up a function's specification.
    pub fn function(&self, id: FunctionId) -> Option<&FunctionSpec> {
        self.functions.iter().find(|f| f.function == id)
    }

    /// Duration of the workload in milliseconds (from the calibration).
    pub fn duration_ms(&self) -> u64 {
        self.calibration.duration_ms()
    }

    /// Whether this workload was replayed from trace records.
    pub fn is_replay(&self) -> bool {
        self.source == WorkloadSource::Replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PopulationConfig {
        PopulationConfig {
            function_scale: 0.002,
            volume_scale: 2.0e-6,
            max_requests_per_day: 2_000.0,
            min_functions: 15,
        }
    }

    fn short_calibration() -> Calibration {
        Calibration {
            duration_days: 2,
            ..Calibration::default()
        }
    }

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let a =
            WorkloadSpec::generate(&RegionProfile::r2(), short_calibration(), &tiny_config(), 1);
        let b =
            WorkloadSpec::generate(&RegionProfile::r2(), short_calibration(), &tiny_config(), 1);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.events.windows(2) {
            assert!(w[0].timestamp_ms <= w[1].timestamp_ms);
        }
        let c =
            WorkloadSpec::generate(&RegionProfile::r2(), short_calibration(), &tiny_config(), 2);
        assert_ne!(a.len(), 0);
        assert_ne!(a, c);
        assert!(!a.is_replay());
    }

    #[test]
    fn every_event_references_a_known_function() {
        let spec =
            WorkloadSpec::generate(&RegionProfile::r3(), short_calibration(), &tiny_config(), 3);
        for e in &spec.events {
            assert!(spec.function(e.function).is_some());
        }
        assert_eq!(spec.region, RegionId::new(3));
        assert_eq!(spec.duration_ms(), short_calibration().duration_ms());
    }

    #[test]
    fn from_population_matches_population_functions() {
        let calibration = short_calibration();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let pop = FunctionPopulation::generate(
            &RegionProfile::r1(),
            &calibration,
            &tiny_config(),
            &mut rng,
        );
        let spec = WorkloadSpec::from_population(&pop, calibration, &mut rng);
        assert_eq!(spec.functions.len(), pop.len());
        assert_eq!(spec.region, RegionId::new(1));
    }
}
