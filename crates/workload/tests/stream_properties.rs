//! Property-based tests for `faas_workload::stream`: the k-way heap merge
//! must yield exactly the materialised event sequence — totally ordered by
//! `(timestamp, function)`, stable for duplicate timestamps, covering every
//! per-function arrival exactly once — and replay streams must replay their
//! backing store verbatim.

use faas_workload::population::PopulationConfig;
use faas_workload::profile::{Calibration, RegionProfile};
use faas_workload::replay::TraceReplayWorkload;
use faas_workload::stream::{ArrivalStream, ReplayStream, StreamedWorkload};
use faas_workload::{WorkloadEvent, WorkloadSpec};
use proptest::prelude::*;

fn population(min_functions: usize) -> PopulationConfig {
    PopulationConfig {
        function_scale: 0.002,
        volume_scale: 2.0e-6,
        max_requests_per_day: 2_000.0,
        min_functions,
    }
}

fn calibration(days: u32) -> Calibration {
    Calibration {
        duration_days: days,
        ..Calibration::default()
    }
}

fn region(index: u16) -> RegionProfile {
    RegionProfile::paper_region(index.clamp(1, 5)).expect("paper regions 1..=5 exist")
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn merged_stream_equals_materialised_generation(
        seed in 0u64..500,
        days in 1u32..3,
        region_index in 1u16..6,
        min_functions in 8usize..24,
    ) {
        let profile = region(region_index);
        let config = population(min_functions);
        let streamed = StreamedWorkload::generate(&profile, calibration(days), &config, seed);
        let materialised = WorkloadSpec::generate(&profile, calibration(days), &config, seed);
        let events: Vec<WorkloadEvent> = streamed.stream().collect();
        prop_assert_eq!(&events, &materialised.events);
        prop_assert_eq!(streamed.materialize(), materialised);
    }

    #[test]
    fn merged_stream_is_totally_ordered_and_stable(
        seed in 0u64..500,
        region_index in 1u16..6,
        min_functions in 8usize..24,
    ) {
        let streamed = StreamedWorkload::generate(
            &region(region_index),
            calibration(1),
            &population(min_functions),
            seed,
        );
        let events: Vec<WorkloadEvent> = streamed.stream().collect();
        // Total order on the merge key.
        for w in events.windows(2) {
            prop_assert!(
                (w[0].timestamp_ms, w[0].function.raw())
                    <= (w[1].timestamp_ms, w[1].function.raw()),
                "merge emitted {:?} before {:?}",
                w[0],
                w[1]
            );
        }
        // Stability: duplicate (timestamp, function) keys stay adjacent —
        // once the merge moves past a key it never returns to it.
        let mut seen_keys: Vec<(u64, u64)> = Vec::new();
        for e in &events {
            let key = (e.timestamp_ms, e.function.raw());
            if seen_keys.last() != Some(&key) {
                prop_assert!(
                    !seen_keys.contains(&key),
                    "key {key:?} reappeared after the merge moved past it"
                );
                seen_keys.push(key);
            }
        }
        // Every event lies within the horizon.
        let horizon = streamed.stream().horizon_ms();
        for e in &events {
            prop_assert!(e.timestamp_ms < horizon);
        }
    }

    #[test]
    fn merged_stream_conserves_per_function_arrivals(
        seed in 0u64..500,
        region_index in 1u16..6,
    ) {
        // The merge must be a permutation-free interleaving: each function's
        // subsequence through the merged stream equals its own stream.
        let streamed = StreamedWorkload::generate(
            &region(region_index),
            calibration(1),
            &population(10),
            seed,
        );
        let merged: Vec<WorkloadEvent> = streamed.stream().collect();
        let materialised = streamed.materialize();
        for spec in &materialised.functions {
            let from_merge: Vec<u64> = merged
                .iter()
                .filter(|e| e.function == spec.function)
                .map(|e| e.timestamp_ms)
                .collect();
            let from_materialised: Vec<u64> = materialised
                .events
                .iter()
                .filter(|e| e.function == spec.function)
                .map(|e| e.timestamp_ms)
                .collect();
            prop_assert_eq!(from_merge, from_materialised);
        }
    }

    #[test]
    fn replay_stream_yields_the_materialised_lowering(
        seed in 0u64..500,
        functions in 2usize..10,
    ) {
        let trace = fntrace::SynthTraceSpec {
            region: fntrace::RegionId::new(4),
            functions,
            duration_days: 1,
            mean_requests_per_day: 120.0,
            seed,
            ..fntrace::SynthTraceSpec::default()
        }
        .generate();
        let builder = TraceReplayWorkload::new();
        let materialised = builder.build(&trace).unwrap();
        let (header, stream) = builder.build_streamed(&trace).unwrap();
        prop_assert!(header.events.is_empty());
        prop_assert_eq!(&header.functions, &materialised.functions);
        prop_assert_eq!(stream.events_hint(), Some(trace.requests.len() as u64));
        let events: Vec<WorkloadEvent> = stream.collect();
        prop_assert_eq!(events, materialised.events);
        // Direct ReplayStream construction agrees with the builder's.
        let direct: Vec<WorkloadEvent> =
            ReplayStream::new(&trace, materialised.duration_ms()).collect();
        prop_assert_eq!(direct, materialised.events.clone());
    }
}
