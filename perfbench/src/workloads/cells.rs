//! Engine-level layer metrics, and session cells replayed outside the
//! session.
//!
//! A session runs its cells on worker threads behind one call, so its
//! layers cannot be decorated from outside. The traced pass therefore
//! replays every cell on the calling thread through the same public calls
//! the session makes — `PolicyConfig::platform`/`factory`/`adjust_workload`,
//! `WorkloadSource::lower`, `seeds::sim_seed`, `SimulationSpec::run_streamed`
//! — and requires each replica's report to equal the session's cell.

use std::sync::Arc;

use coldstarts::session::{seeds, LoweredWorkload};
use coldstarts::{ExperimentSession, PolicyConfig, PolicyFamily, SessionReport};
use faas_platform::{SimReport, SimulationSpec};
use faas_workload::WorkloadSpec;

use super::{secs, timed, Layers, TracedPass};
use crate::layers::{PolicyClock, StreamClock, TimedStream, TracedFactory};
use crate::stats::median;

/// Sums over the simulation runs of one traced phase.
#[derive(Debug, Default, Clone)]
pub struct EngineTotals {
    /// Arrivals the engines consumed.
    pub records: u64,
    /// Epoch boundaries the engines crossed.
    pub epochs: u64,
    /// Cold starts charged.
    pub cold_starts: u64,
    /// Pods created (from a pool or from scratch).
    pub pods_created: u64,
    /// Dependency layers pulled onto nodes.
    pub layer_pulls: u64,
    /// Pod creations that found their layer cached.
    pub layer_hits: u64,
    /// Seconds inside `run_streamed`.
    pub run_s: f64,
}

impl EngineTotals {
    /// Adds one run over a stream with the given horizon and epoch length.
    pub fn add(&mut self, report: &SimReport, horizon_ms: u64, epoch_ms: u64, run_s: f64) {
        self.records += report.events_processed;
        self.epochs += epochs(horizon_ms, epoch_ms);
        self.cold_starts += report.cold_starts;
        self.pods_created += report.pool_hits + report.scratch_creations;
        self.layer_pulls += report.layer_pulls;
        self.layer_hits += report.layer_cache_hits;
        self.run_s += run_s;
    }

    /// Inserts the stream, policy, engine and node-count metrics. Engine
    /// self time is the residual of `run_streamed` after the stream and
    /// policy calls timed inside it.
    pub fn put(&self, layers: &mut Layers, stream: &StreamClock, policy: &PolicyClock) {
        let per_record = |s: f64| s * 1e9 / self.records.max(1) as f64;
        let engine_self = self.run_s - stream.seconds() - policy.seconds();
        for (name, value) in [
            ("stream.records", stream.records() as f64),
            ("stream.next_s", stream.seconds()),
            ("stream.ns_per_record", per_record(stream.seconds())),
            ("engine.self_s", engine_self),
            ("engine.ns_per_record", per_record(engine_self)),
            ("engine.epochs", self.epochs as f64),
            ("engine.cold_starts", self.cold_starts as f64),
            ("engine.pods_created", self.pods_created as f64),
            ("node.layer_pulls", self.layer_pulls as f64),
            (
                "node.cache_hit_ratio",
                self.layer_hits as f64 / (self.layer_hits + self.layer_pulls).max(1) as f64,
            ),
            ("policy.keep_alive.calls", policy.keep_alive.calls() as f64),
            ("policy.keep_alive.s", policy.keep_alive.seconds()),
            ("policy.prewarm.calls", policy.prewarm.calls() as f64),
            ("policy.prewarm.s", policy.prewarm.seconds()),
            (
                "policy.prewarm.pods_requested",
                policy.prewarm_pods() as f64,
            ),
            ("policy.admission.calls", policy.admission.calls() as f64),
            ("policy.admission.s", policy.admission.seconds()),
        ] {
            layers.insert(name.to_string(), value);
        }
    }
}

/// Epoch boundaries one run crosses: multiples of `epoch_ms` clipped to the
/// horizon, which is always the last one (and the only one when it is 0).
pub fn epochs(horizon_ms: u64, epoch_ms: u64) -> u64 {
    horizon_ms.div_ceil(epoch_ms.max(1)).max(1)
}

/// One replayed cell.
#[derive(Debug, Clone)]
pub struct Replica {
    /// Index of the cell's policy in the session.
    pub policy_index: usize,
    /// Arrivals the cell consumed.
    pub records: u64,
    /// Seconds from lowering to report, as the session times a cell.
    pub seconds: f64,
}

/// Every cell of a session, replayed on the calling thread.
#[derive(Debug, Default, Clone)]
pub struct Replicas {
    /// Per-cell facts, in the session's cell order.
    pub cells: Vec<Replica>,
    /// Seconds in `WorkloadSource::lower`.
    pub lower_s: f64,
    /// Sums over the cells' engine runs.
    pub totals: EngineTotals,
    /// Seconds for all cells.
    pub seconds: f64,
}

/// Clocks a traced replay charges its stream and policy calls to.
pub struct Tracer<'a> {
    /// Stream clock.
    pub stream: &'a StreamClock,
    /// Policy clock.
    pub policy: &'a Arc<PolicyClock>,
}

/// Replays every cell of `report` (produced by `session.run()`) and checks
/// each replica against its cell.
pub fn replicate(
    session: &ExperimentSession,
    report: &SessionReport,
    tracer: Option<&Tracer<'_>>,
) -> Result<Replicas, String> {
    let started = std::time::Instant::now();
    let mut out = Replicas::default();
    for cell in &report.cells {
        let cell_started = std::time::Instant::now();
        let policy = &session.policies[cell.policy_index];
        let seed = seeds::sim_seed(cell.seed);
        let platform = policy.platform(&session.platform);
        let mut factory = policy.factory(&platform);
        if let Some(t) = tracer {
            factory = Arc::new(TracedFactory::new(factory, Arc::clone(t.policy)));
        }
        let epoch_ms = platform.epoch_ms;
        let spec = SimulationSpec::new()
            .with_config(platform)
            .with_seed(seed)
            .with_policies(factory);
        let (LoweredWorkload { header, stream }, lower_s) =
            timed(|| session.sources[cell.source_index].lower(seed));
        let adjusted = adjust(policy, &header);
        let header = adjusted.as_ref().unwrap_or(&header);
        let horizon_ms = stream.horizon_ms();
        let ((replica, _), run_s) = match tracer {
            Some(t) => timed(|| spec.run_streamed(header, TimedStream::new(stream, t.stream))),
            None => timed(|| spec.run_streamed(header, stream)),
        };
        if replica != cell.report {
            return Err(format!(
                "replica of cell {} x {} differs from the session's report",
                cell.policy, cell.source
            ));
        }
        out.lower_s += lower_s;
        out.totals.add(&replica, horizon_ms, epoch_ms, run_s);
        out.cells.push(Replica {
            policy_index: cell.policy_index,
            records: replica.events_processed,
            seconds: secs(cell_started),
        });
    }
    out.seconds = secs(started);
    Ok(out)
}

/// The session's header adjustment: applied to an event-free copy, so a
/// spec-backed header's events are never cloned.
fn adjust(policy: &PolicyConfig, header: &WorkloadSpec) -> Option<WorkloadSpec> {
    if !policy.adjusts_workload() {
        return None;
    }
    let stripped = WorkloadSpec {
        region: header.region,
        profile: header.profile.clone(),
        calibration: header.calibration,
        functions: header.functions.clone(),
        events: Vec::new(),
        source: header.source,
    };
    Some(policy.adjust_workload(&stripped).unwrap_or(stripped))
}

/// Sweep label of the node-free configuration the node-placement family is
/// compared with: the same fixed one-minute keep-alive and no pre-warming,
/// without the node model.
const NODE_FREE_BASELINE: &str = "keepalive/mode=fixed,duration_ms=60000";

/// Inserts the session, sweep-family and node-cost metrics, from an untraced
/// replay (cell times) and a traced one (layer split). `phase_s` is the wall
/// time of `session.run()`.
fn put_session_layers(
    layers: &mut Layers,
    session: &ExperimentSession,
    untraced: &Replicas,
    traced: &Replicas,
    phase_s: f64,
) {
    let threads = session.threads.max(1) as f64;
    let cell_ms: Vec<f64> = untraced.cells.iter().map(|c| c.seconds * 1e3).collect();
    let busy_s: f64 = untraced.cells.iter().map(|c| c.seconds).sum();
    for (name, value) in [
        ("session.cells", untraced.cells.len() as f64),
        ("session.cell_ms.p50", median(&cell_ms)),
        (
            "session.cell_ms.max",
            cell_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("session.busy_frac", busy_s / (threads * phase_s)),
        (
            "workload.lower_s",
            traced.lower_s / traced.cells.len().max(1) as f64,
        ),
        ("tracing.overhead_s", traced.seconds - untraced.seconds),
    ] {
        layers.insert(name.to_string(), value);
    }

    // Nanoseconds per record over the cells whose policy matches.
    let ns_per_record = |matches: &dyn Fn(&PolicyConfig) -> bool| {
        let (s, n) = untraced
            .cells
            .iter()
            .filter(|c| matches(&session.policies[c.policy_index]))
            .fold((0.0, 0u64), |(s, n), c| (s + c.seconds, n + c.records));
        (n > 0).then(|| s * 1e9 / n as f64)
    };
    let family_of = |p: &PolicyConfig| p.as_sweep().map(|c| c.family);
    for family in PolicyFamily::ALL {
        if let Some(ns) = ns_per_record(&|p| family_of(p) == Some(family)) {
            layers.insert(format!("sweep.{}.ns_per_record", family.name()), ns);
        }
    }
    let node = ns_per_record(&|p| family_of(p) == Some(PolicyFamily::NodePlacement));
    let node_free = ns_per_record(&|p| p.label() == NODE_FREE_BASELINE);
    if let (Some(node), Some(node_free)) = (node, node_free) {
        layers.insert("node.ns_per_record".to_string(), node - node_free);
    }
}

/// Replays the session's cells untraced (cell times) and traced (layer
/// split) and inserts the engine and session metrics. A replica that
/// differs from its cell is a failed operation of the pass.
pub fn replica_layers(
    traced: &mut TracedPass,
    session: &ExperimentSession,
    report: &SessionReport,
    phase_s: f64,
) {
    let stream = StreamClock::default();
    let policy = Arc::new(PolicyClock::default());
    let tracer = Tracer {
        stream: &stream,
        policy: &policy,
    };
    let replicas = replicate(session, report, None)
        .and_then(|untraced| Ok((untraced, replicate(session, report, Some(&tracer))?)));
    match replicas {
        Ok((untraced, with_clocks)) => {
            with_clocks.totals.put(&mut traced.layers, &stream, &policy);
            put_session_layers(
                &mut traced.layers,
                session,
                &untraced,
                &with_clocks,
                phase_s,
            );
        }
        Err(e) => traced.pass.ops.fail_all(report.cells.len() as u64, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_follow_the_engine_boundary_sequence() {
        assert_eq!(epochs(250_000, 60_000), 5);
        assert_eq!(epochs(240_000, 60_000), 4);
        assert_eq!(epochs(30_000, 60_000), 1);
        assert_eq!(epochs(0, 60_000), 1);
        assert_eq!(epochs(5, 0), 5);
    }
}
