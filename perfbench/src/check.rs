//! Output checks: conservation invariants and content digests.
//!
//! Every operation the benchmark times is also checked. A `SimReport` must
//! conserve what the simulator claims to conserve, and every run's outputs
//! fold into a digest that must repeat exactly: across the iterations of a
//! run, between the traced and untraced passes, and — for the default
//! seed — against the value pinned in the workload.

use faas_platform::SimReport;

/// FNV-1a (64-bit) over a sequence of named output fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in one integer.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds in one float, bit for bit.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Folds in a string, length-prefixed.
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.u64(value.len() as u64);
        for byte in value.bytes() {
            self.u64(u64::from(byte));
        }
        self
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Folds in the named fields of a simulation report. Only fields that
    /// exist at this revision are listed, so a new report field does not
    /// change the digest; a changed value of any listed one does.
    pub fn report(&mut self, r: &SimReport) -> &mut Self {
        for v in [
            r.events_processed,
            r.requests,
            r.warm_starts,
            r.cold_starts,
            r.prewarmed_pods,
            r.prewarmed_pods_used,
            r.pool_hits,
            r.scratch_creations,
            r.delayed_requests,
            r.cold_us_total,
            r.cold_components.pod_alloc_us,
            r.cold_components.deploy_code_us,
            r.cold_components.deploy_dep_us,
            r.cold_components.scheduling_us,
            r.layer_pulls,
            r.layer_cache_hits,
            u64::from(r.peak_live_pods),
        ] {
            self.u64(v);
        }
        for v in [
            r.total_admission_delay_s,
            r.cold_start_latency.p50_s,
            r.cold_start_latency.p99_s,
            r.mean_added_latency_s,
            r.pod_lifetime_s,
            r.idle_pod_time_s,
            r.mem_gb_s_wasted,
        ] {
            self.f64(v);
        }
        self
    }
}

/// Checks the conservation laws of one simulation report. `generated` marks
/// workloads whose every arrival names a known function, where each event
/// pulled must also be a request served.
pub fn check_report(r: &SimReport, generated: bool) -> Result<(), String> {
    let mut broken = Vec::new();
    if r.requests != r.warm_starts + r.cold_starts {
        broken.push(format!(
            "requests {} != warm {} + cold {}",
            r.requests, r.warm_starts, r.cold_starts
        ));
    }
    if r.cold_components.total_us() != r.cold_us_total {
        broken.push(format!(
            "component sum {} us != cold_us_total {} us",
            r.cold_components.total_us(),
            r.cold_us_total
        ));
    }
    if r.prewarmed_pods_used > r.prewarmed_pods {
        broken.push(format!(
            "prewarmed used {} > prewarmed {}",
            r.prewarmed_pods_used, r.prewarmed_pods
        ));
    }
    // Both are sums of the same per-pod intervals; allow float rounding only.
    if r.idle_pod_time_s > r.pod_lifetime_s * (1.0 + 1e-9) + 1e-9 {
        broken.push(format!(
            "idle {} s > lifetime {} s",
            r.idle_pod_time_s, r.pod_lifetime_s
        ));
    }
    if generated && r.events_processed != r.requests {
        broken.push(format!(
            "events processed {} != requests {}",
            r.events_processed, r.requests
        ));
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(broken.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sound() -> SimReport {
        let mut r = SimReport {
            events_processed: 100,
            requests: 100,
            warm_starts: 90,
            cold_starts: 10,
            prewarmed_pods: 4,
            prewarmed_pods_used: 3,
            cold_us_total: 10,
            pod_lifetime_s: 50.0,
            idle_pod_time_s: 20.0,
            ..SimReport::default()
        };
        r.cold_components.pod_alloc_us = 4;
        r.cold_components.scheduling_us = 6;
        r
    }

    #[test]
    fn a_sound_report_passes() {
        assert_eq!(check_report(&sound(), true), Ok(()));
    }

    #[test]
    fn doctored_reports_are_rejected() {
        let doctored: [fn(&mut SimReport); 5] = [
            |r| r.warm_starts += 1,
            |r| r.cold_components.deploy_dep_us += 1,
            |r| r.prewarmed_pods_used = 5,
            |r| r.idle_pod_time_s = 51.0,
            |r| r.events_processed = 101,
        ];
        for doctor in doctored {
            let mut r = sound();
            doctor(&mut r);
            assert!(check_report(&r, true).is_err(), "{r:?}");
        }
        // Unknown-function arrivals are legal in hand-written replays.
        let mut r = sound();
        r.events_processed = 101;
        assert_eq!(check_report(&r, false), Ok(()));
    }

    #[test]
    fn digest_sees_every_named_field_and_nothing_else() {
        let base = Digest::default().report(&sound()).value();
        assert_eq!(base, Digest::default().report(&sound()).value());
        let mut moved = sound();
        moved.mem_gb_s_wasted = 1e-12;
        assert_ne!(base, Digest::default().report(&moved).value());
        let mut renamed = sound();
        renamed.keep_alive_policy = "other".into();
        assert_eq!(base, Digest::default().report(&renamed).value());
        assert_ne!(
            Digest::default().str("ab").value(),
            Digest::default().str("a").str("b").value()
        );
    }
}
