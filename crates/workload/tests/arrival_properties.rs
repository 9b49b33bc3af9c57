//! Property-based tests for arrival-stream generation: generated arrivals
//! are monotone in time, stay inside the calibration horizon, and replay
//! lowering preserves them exactly.

use faas_stats::rng::Xoshiro256pp;
use faas_workload::arrivals::ArrivalGenerator;
use faas_workload::population::FunctionSpec;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::replay::TraceReplayWorkload;
use fntrace::{FunctionId, ResourceConfig, Runtime, TriggerType, UserId};
use proptest::prelude::*;

fn spec(trigger: TriggerType, requests_per_day: f64, amplitude: f64) -> FunctionSpec {
    FunctionSpec {
        function: FunctionId::new(1),
        user: UserId::new(1),
        runtime: Runtime::Python3,
        triggers: vec![trigger],
        config: ResourceConfig::SMALL_300_128,
        base_requests_per_day: requests_per_day,
        timer_period_secs: if trigger == TriggerType::Timer {
            86_400.0 / requests_per_day
        } else {
            0.0
        },
        diurnal_amplitude: amplitude,
        peak_offset_hours: 0.0,
        median_execution_secs: 0.05,
        cpu_millicores: 100.0,
        memory_bytes: 64 << 20,
        has_dependencies: false,
        concurrency: 1,
        upstream: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn poisson_arrivals_are_monotone_and_inside_the_horizon(
        seed in 0u64..1_000,
        days in 1u32..4,
        requests_per_day in 1.0f64..5_000.0,
        amplitude in 0.0f64..0.98,
    ) {
        let calibration = Calibration { duration_days: days, ..Calibration::default() };
        let gen = ArrivalGenerator::new(RegionProfile::r2(), calibration);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let arrivals = gen.generate(&spec(TriggerType::ApigSync, requests_per_day, amplitude), &mut rng);
        for w in arrivals.timestamps_ms.windows(2) {
            prop_assert!(w[0] <= w[1], "arrivals must be sorted");
        }
        for &ts in &arrivals.timestamps_ms {
            prop_assert!(ts < calibration.duration_ms(), "{ts} beyond horizon");
        }
    }

    #[test]
    fn timer_arrivals_are_strictly_periodic_within_the_horizon(
        seed in 0u64..1_000,
        days in 1u32..4,
        period_idx in 0usize..5,
    ) {
        let periods = [60.0, 120.0, 300.0, 900.0, 3600.0];
        let period = periods[period_idx];
        let calibration = Calibration { duration_days: days, ..Calibration::default() };
        let gen = ArrivalGenerator::new(RegionProfile::r2(), calibration);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let arrivals = gen.generate(&spec(TriggerType::Timer, 86_400.0 / period, 0.0), &mut rng);
        prop_assert!(!arrivals.is_empty());
        let period_ms = (period * 1000.0) as u64;
        for w in arrivals.timestamps_ms.windows(2) {
            prop_assert_eq!(w[1] - w[0], period_ms);
        }
        prop_assert!(*arrivals.timestamps_ms.last().unwrap() < calibration.duration_ms());
        // The periodic stream covers the horizon: one firing per period,
        // plus or minus the random phase.
        let expected = calibration.duration_ms() / period_ms;
        prop_assert!((arrivals.len() as i64 - expected as i64).abs() <= 1);
    }

    #[test]
    fn generation_is_reproducible_per_seed(seed in 0u64..1_000) {
        let calibration = Calibration { duration_days: 1, ..Calibration::default() };
        let gen = ArrivalGenerator::new(RegionProfile::r3(), calibration);
        let a = gen.generate(&spec(TriggerType::ApigSync, 500.0, 0.5),
                             &mut Xoshiro256pp::seed_from_u64(seed));
        let b = gen.generate(&spec(TriggerType::ApigSync, 500.0, 0.5),
                             &mut Xoshiro256pp::seed_from_u64(seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn replay_lowering_preserves_sorted_synthetic_arrivals(
        seed in 0u64..500,
        functions in 2usize..10,
    ) {
        // Synthetic trace -> replay workload: the event stream must contain
        // exactly the trace's request timestamps, sorted, inside the horizon.
        let trace = fntrace::SynthTraceSpec {
            region: fntrace::RegionId::new(5),
            functions,
            duration_days: 1,
            mean_requests_per_day: 100.0,
            seed,
            ..fntrace::SynthTraceSpec::default()
        }
        .generate();
        let workload = TraceReplayWorkload::new().build(&trace).unwrap();
        prop_assert_eq!(workload.len(), trace.requests.len());
        let mut expected: Vec<u64> = trace
            .requests
            .records()
            .iter()
            .map(|r| r.timestamp_ms)
            .collect();
        expected.sort_unstable();
        let got: Vec<u64> = workload.events.iter().map(|e| e.timestamp_ms).collect();
        prop_assert_eq!(got, expected);
        for e in &workload.events {
            prop_assert!(e.timestamp_ms < workload.duration_ms());
        }
    }
}
