//! Multi-region workload generation: one `RegionSource` per region profile.

mod tests {
    use faas_workload::population::PopulationConfig;
    use faas_workload::profile::{Calibration, RegionProfile};
    use faas_workload::WorkloadSpec;
    use fntrace::RegionId;

    use crate::session::{RegionSource, WorkloadSource};

    fn multi(profiles: &[RegionProfile]) -> Vec<RegionSource> {
        let calibration = Calibration {
            duration_days: 1,
            ..Calibration::default()
        };
        let population = PopulationConfig {
            function_scale: 0.002,
            volume_scale: 2.0e-6,
            max_requests_per_day: 2_000.0,
            min_functions: 15,
        };
        RegionSource::multi(profiles, calibration, &population)
    }

    #[test]
    fn generates_one_workload_per_region_deterministically() {
        let sources = multi(&[RegionProfile::r2(), RegionProfile::r3()]);
        assert_eq!(sources.len(), 2);
        let a: Vec<_> = sources.iter().map(|s| s.workload(9)).collect();
        let b: Vec<_> = sources.iter().map(|s| s.workload(9)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|w| !w.is_empty()));
        assert_eq!(a[0].region, RegionId::new(2));
        assert_eq!(a[1].region, RegionId::new(3));
    }

    #[test]
    fn per_region_workloads_match_single_region_generation() {
        // A region's workload must not depend on which other regions are in
        // the set — that is what makes grid cells independently replicable.
        let r2 = &multi(&[RegionProfile::r1(), RegionProfile::r2()])[1];
        let solo = WorkloadSpec::generate(&RegionProfile::r2(), r2.calibration, &r2.population, 5);
        assert_eq!(*r2.workload(5), solo);
    }

    #[test]
    fn paper_regions_cover_all_five() {
        let sources = multi(&RegionProfile::paper_regions());
        assert_eq!(sources.len(), 5);
        for i in 1..=5u16 {
            let profile = RegionProfile::paper_region(i).expect("regions 1..=5 exist");
            assert_eq!(sources[usize::from(i) - 1].profile, profile, "region {i}");
        }
        let regions: Vec<u16> = sources
            .iter()
            .map(|s| s.workload(3).region.index())
            .collect();
        assert_eq!(regions, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn different_seeds_differ() {
        let source = &multi(&[RegionProfile::r2()])[0];
        assert_ne!(source.workload(1), source.workload(2));
    }
}
