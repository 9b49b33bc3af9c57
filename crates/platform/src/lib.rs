//! Discrete-event serverless platform simulator.
//!
//! This crate models the YuanRong-style platform of Section 2.2 of the paper
//! closely enough that (a) replaying a generated workload reproduces the
//! observable events the paper analyses — requests, cold starts with their
//! four component times, pod lifetimes — and (b) the mitigation strategies of
//! Section 5 (pre-warming, adaptive keep-alive, peak shaving of asynchronous
//! triggers, resource-pool prediction) can be evaluated as pluggable
//! policies.
//!
//! The model:
//!
//! * Each region has four clusters; requests are routed to a cluster by a
//!   hash of the function, spilling over to the least-loaded cluster when the
//!   target is hot (Section 2.1).
//! * Each cluster keeps pools of idle pods per CPU–memory configuration.
//!   A cold start takes a pod from the pool when one is available; otherwise
//!   the pod is created from scratch, which is much slower (the paper's
//!   explanation for the very long `Custom` runtime cold starts).
//! * A warm pod serves up to its function's concurrency limit, then waits for
//!   a keep-alive period (one minute by default) and is deleted if no request
//!   arrives (Figure 2).
//! * Cold-start component times are sampled from the calibrated
//!   [`faas_workload::ColdStartLatencyModel`]. With the opt-in node layer
//!   ([`node`]) enabled, the dependency-deployment component is replaced by
//!   an explicit layer pull against per-node LRU image caches — zero on a
//!   cache hit, bandwidth-shared under pull contention — and pods land on
//!   specific nodes chosen by a deterministic placement policy.
//!
//! The simulator emits both a [`SimReport`] (aggregate outcome metrics) and,
//! optionally, a full [`fntrace::RegionTrace`] so the characterization
//! pipeline can analyse simulated data exactly like measured data.
//!
//! # Entry point
//!
//! [`SimulationSpec::run_streamed`] drives one engine over any
//! [`faas_workload::stream::ArrivalStream`] in memory proportional to the
//! live state, not the event count. The engine is epoch-quantized: shared
//! capacity (pools, cluster load, nodes) is observed through a snapshot
//! taken at the last epoch boundary and settled at the next one
//! ([`PlatformConfig::epoch_ms`]). Committed output bytes depend on that
//! model, as documented end to end in the repository's `ARCHITECTURE.md`.
//! Experiments that need many runs spread whole cells across cores (the
//! `coldstarts` session API). Hot-path internals live in [`event`]
//! (one binary-heap event queue) and [`arena`] (dense index-addressed state).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cluster;
pub mod config;
pub mod engine;
mod epoch;
pub mod event;
pub mod keepalive;
pub mod node;
pub mod pod;
pub mod policy;
pub mod pool;
pub mod report;
pub mod spec;
pub mod state;

pub use arena::{FnIdx, PodArena, PodIdx};
pub use cluster::ClusterState;
pub use config::PlatformConfig;
pub use engine::SimulationEngine;
pub use event::{Event, EventQueue};
pub use keepalive::{AdaptiveKeepAlive, FixedKeepAlive, KeepAlivePolicy, TimerAwareKeepAlive};
pub use node::{
    LayerKey, NodeClass, NodeModelConfig, NodePool, NodeScenario, NodeSnapshot, PlacementPolicy,
};
pub use pod::{Pod, PodState};
pub use policy::{
    AdmissionPolicy, FunctionView, NoAdmissionControl, NoPrewarm, PlatformView, PrewarmPolicy,
    PrewarmRequest,
};
pub use pool::{PoolConfig, ResourcePools};
pub use report::{FunctionStats, LatencyStats, SimReport};
pub use spec::{BaselinePolicies, PolicyFactory, SimulationSpec};
