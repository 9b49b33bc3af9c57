//! Timing decorators on the program's public traits.
//!
//! The traced pass measures each layer from outside: it wraps the
//! `ArrivalStream` an engine consumes and the policies a `PolicyFactory`
//! builds, and times every call that crosses those boundaries. The
//! decorators forward `name()` and `is_noop()`, so the engine takes exactly
//! the branches it takes undecorated (a no-op pre-warm policy still lets it
//! skip building platform views) and reports the same policy names.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use faas_platform::keepalive::FunctionHistory;
use faas_platform::{
    AdmissionPolicy, FunctionView, KeepAlivePolicy, PlatformView, PolicyFactory, PrewarmPolicy,
    PrewarmRequest,
};
use faas_workload::stream::ArrivalStream;
use faas_workload::{WorkloadEvent, WorkloadSpec};
use fntrace::FunctionId;

/// Records pulled through a [`TimedStream`] and the time spent pulling them.
#[derive(Debug, Default)]
pub struct StreamClock {
    records: Cell<u64>,
    nanos: Cell<u64>,
}

impl StreamClock {
    /// Records pulled so far.
    pub fn records(&self) -> u64 {
        self.records.get()
    }

    /// Seconds spent inside the wrapped stream's `next`.
    pub fn seconds(&self) -> f64 {
        self.nanos.get() as f64 * 1e-9
    }
}

/// An [`ArrivalStream`] that times every `next` of the stream it wraps.
pub struct TimedStream<'a, S> {
    inner: S,
    clock: &'a StreamClock,
}

impl<'a, S: ArrivalStream> TimedStream<'a, S> {
    /// Wraps `inner`, charging its time to `clock`.
    pub fn new(inner: S, clock: &'a StreamClock) -> Self {
        Self { inner, clock }
    }
}

impl<S: ArrivalStream> Iterator for TimedStream<'_, S> {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        let started = Instant::now();
        let event = self.inner.next();
        let nanos = started.elapsed().as_nanos() as u64;
        self.clock.nanos.set(self.clock.nanos.get() + nanos);
        if event.is_some() {
            self.clock.records.set(self.clock.records.get() + 1);
        }
        event
    }
}

impl<S: ArrivalStream> ArrivalStream for TimedStream<'_, S> {
    fn horizon_ms(&self) -> u64 {
        self.inner.horizon_ms()
    }

    fn events_hint(&self) -> Option<u64> {
        self.inner.events_hint()
    }
}

/// Calls into one policy kind and the time they took.
#[derive(Debug, Default)]
pub struct CallClock {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallClock {
    fn time<T>(&self, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = call();
        let nanos = started.elapsed().as_nanos() as u64;
        // Statistics only: no other data is published through these.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        out
    }

    /// Calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the calls.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Per-kind policy call clocks shared by every policy a [`TracedFactory`]
/// builds.
#[derive(Debug, Default)]
pub struct PolicyClock {
    /// `KeepAlivePolicy::keep_alive_ms` calls.
    pub keep_alive: CallClock,
    /// `PrewarmPolicy::prewarm` calls (the platform view is built before the
    /// call, so its assembly is not included).
    pub prewarm: CallClock,
    /// `AdmissionPolicy::delay_ms` calls.
    pub admission: CallClock,
    prewarm_pods: AtomicU64,
}

impl PolicyClock {
    /// Pods the pre-warm policies asked for.
    pub fn prewarm_pods(&self) -> u64 {
        self.prewarm_pods.load(Ordering::Relaxed)
    }

    /// Seconds spent in all policy calls.
    pub fn seconds(&self) -> f64 {
        self.keep_alive.seconds() + self.prewarm.seconds() + self.admission.seconds()
    }
}

/// A [`PolicyFactory`] whose policies time their calls into a shared
/// [`PolicyClock`].
pub struct TracedFactory {
    inner: Arc<dyn PolicyFactory>,
    clock: Arc<PolicyClock>,
}

impl TracedFactory {
    /// Decorates `inner`.
    pub fn new(inner: Arc<dyn PolicyFactory>, clock: Arc<PolicyClock>) -> Self {
        Self { inner, clock }
    }
}

impl PolicyFactory for TracedFactory {
    fn keep_alive(&self, workload: &WorkloadSpec) -> Box<dyn KeepAlivePolicy> {
        Box::new(Traced {
            inner: self.inner.keep_alive(workload),
            clock: Arc::clone(&self.clock),
        })
    }

    fn prewarm(&self, workload: &WorkloadSpec) -> Box<dyn PrewarmPolicy> {
        Box::new(Traced {
            inner: self.inner.prewarm(workload),
            clock: Arc::clone(&self.clock),
        })
    }

    fn admission(&self, workload: &WorkloadSpec) -> Box<dyn AdmissionPolicy> {
        Box::new(Traced {
            inner: self.inner.admission(workload),
            clock: Arc::clone(&self.clock),
        })
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// One decorated policy of any kind.
pub struct Traced<P: ?Sized> {
    inner: Box<P>,
    clock: Arc<PolicyClock>,
}

impl KeepAlivePolicy for Traced<dyn KeepAlivePolicy> {
    fn keep_alive_ms(&self, function: FunctionId, history: &FunctionHistory) -> u64 {
        self.clock
            .keep_alive
            .time(|| self.inner.keep_alive_ms(function, history))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl PrewarmPolicy for Traced<dyn PrewarmPolicy> {
    fn prewarm(&mut self, view: &PlatformView) -> Vec<PrewarmRequest> {
        let inner = &mut self.inner;
        let requests = self.clock.prewarm.time(|| inner.prewarm(view));
        let pods: u64 = requests.iter().map(|r| u64::from(r.count)).sum();
        self.clock.prewarm_pods.fetch_add(pods, Ordering::Relaxed);
        requests
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }
}

impl AdmissionPolicy for Traced<dyn AdmissionPolicy> {
    fn delay_ms(&mut self, view: &FunctionView, now_ms: u64) -> u64 {
        let inner = &mut self.inner;
        self.clock.admission.time(|| inner.delay_ms(view, now_ms))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_platform::{BaselinePolicies, NoPrewarm};
    use faas_workload::stream::SliceStream;
    use faas_workload::{Calibration, PopulationConfig, RegionProfile};

    #[test]
    fn decorated_no_prewarm_is_still_a_noop() {
        let clock = Arc::new(PolicyClock::default());
        let traced: Traced<dyn PrewarmPolicy> = Traced {
            inner: Box::new(NoPrewarm),
            clock,
        };
        assert!(traced.is_noop());
        assert_eq!(traced.name(), NoPrewarm.name());
    }

    #[test]
    fn traced_factory_forwards_names_and_noop_flags() {
        let clock = Arc::new(PolicyClock::default());
        let factory = TracedFactory::new(Arc::new(BaselinePolicies), clock);
        let spec = WorkloadSpec::generate(
            &RegionProfile::r2(),
            Calibration {
                duration_days: 1,
                ..Calibration::default()
            },
            &PopulationConfig {
                function_scale: 0.002,
                volume_scale: 2.0e-6,
                max_requests_per_day: 100.0,
                min_functions: 5,
            },
            1,
        );
        let plain = BaselinePolicies;
        assert_eq!(factory.label(), plain.label());
        assert_eq!(
            factory.keep_alive(&spec).name(),
            plain.keep_alive(&spec).name()
        );
        assert!(factory.prewarm(&spec).is_noop());
        assert!(factory.admission(&spec).is_noop());
    }

    #[test]
    fn timed_stream_counts_records_and_forwards_metadata() {
        let events: Vec<WorkloadEvent> = (0..5)
            .map(|i| WorkloadEvent {
                timestamp_ms: i * 10,
                function: FunctionId::new(1),
            })
            .collect();
        let clock = StreamClock::default();
        let stream = TimedStream::new(SliceStream::new(&events, 99), &clock);
        assert_eq!(stream.horizon_ms(), 99);
        assert_eq!(stream.events_hint(), Some(5));
        assert_eq!(stream.count(), 5);
        assert_eq!(clock.records(), 5);
    }
}
