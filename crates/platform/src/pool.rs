//! Per-configuration resource pools of inactive pods.
//!
//! The platform keeps pools of pre-created, code-less pods for each standard
//! CPU–memory configuration (Section 2.2). A cold start first tries to take a
//! pod from the matching pool; if the pool is empty (or the runtime has no
//! reserved pool at all, as with `Custom` images) the pod is created from
//! scratch, which is substantially slower. Pools are replenished in the
//! background towards a target size, which the resource-pool-prediction
//! policy can adjust over time.

use serde::{Deserialize, Serialize};

use fntrace::ResourceConfig;

/// Static pool configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Target number of idle pods kept per standard configuration.
    pub target_per_config: u32,
    /// How many pods can be added to each pool per replenish tick.
    pub replenish_per_tick: u32,
    /// Replenish interval in milliseconds.
    pub replenish_interval_ms: u64,
    /// Multiplier applied to the sampled pod-allocation time when a pod has
    /// to be created from scratch because the pool was empty.
    pub scratch_allocation_multiplier: f64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            target_per_config: 8,
            replenish_per_tick: 2,
            replenish_interval_ms: 60_000,
            scratch_allocation_multiplier: 4.0,
        }
    }
}

/// Outcome of trying to acquire a pod from the pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolAcquire {
    /// A pooled pod was available.
    FromPool,
    /// The pool was empty (or not maintained); the pod is created from
    /// scratch and pays the slower allocation path.
    FromScratch,
}

/// One pool: a resource configuration with its idle count and replenish
/// target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PoolEntry {
    cfg: ResourceConfig,
    idle: u32,
    target: u32,
}

/// Idle-pod pools, one per resource configuration.
///
/// There are only a handful of configurations (the four standard ones plus
/// any added by [`set_target`](Self::set_target)), so the pools live in a
/// small `Vec` scanned linearly — cheaper than hashing on the cold-start
/// path and allocation-free on the replenish tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourcePools {
    config: PoolConfig,
    entries: Vec<PoolEntry>,
    /// Cumulative counters for reporting.
    acquired_from_pool: u64,
    acquired_from_scratch: u64,
    /// Last time the idle-memory integral was advanced, milliseconds.
    integrated_to_ms: u64,
    /// Integral of pooled idle memory over time, in MB-milliseconds.
    idle_mem_mb_ms: f64,
}

impl ResourcePools {
    /// Creates pools at their target sizes for the standard configurations.
    pub fn new(config: PoolConfig) -> Self {
        let entries = ResourceConfig::STANDARD
            .into_iter()
            .map(|cfg| PoolEntry {
                cfg,
                idle: config.target_per_config,
                target: config.target_per_config,
            })
            .collect();
        Self {
            config,
            entries,
            acquired_from_pool: 0,
            acquired_from_scratch: 0,
            integrated_to_ms: 0,
            idle_mem_mb_ms: 0.0,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    fn entry(&self, cfg: ResourceConfig) -> Option<&PoolEntry> {
        self.entries.iter().find(|e| e.cfg == cfg)
    }

    fn entry_mut(&mut self, cfg: ResourceConfig) -> Option<&mut PoolEntry> {
        self.entries.iter_mut().find(|e| e.cfg == cfg)
    }

    /// Number of idle pods currently pooled for a configuration.
    pub fn idle_count(&self, cfg: ResourceConfig) -> u32 {
        self.entry(cfg).map(|e| e.idle).unwrap_or(0)
    }

    /// Current replenish target for a configuration.
    pub fn target(&self, cfg: ResourceConfig) -> u32 {
        self.entry(cfg).map(|e| e.target).unwrap_or(0)
    }

    /// Sets the replenish target for a configuration (used by the
    /// resource-pool-prediction policy).
    pub fn set_target(&mut self, cfg: ResourceConfig, target: u32) {
        match self.entry_mut(cfg) {
            Some(entry) => entry.target = target,
            None => self.entries.push(PoolEntry {
                cfg,
                idle: 0,
                target,
            }),
        }
    }

    /// Advances the idle-memory integral to `now_ms`. Called automatically by
    /// [`acquire`](Self::acquire) and [`replenish`](Self::replenish); the
    /// simulation engine calls it once more at the horizon so the integral
    /// covers the full run. Time never goes backwards: stale timestamps are
    /// ignored.
    pub fn integrate_to(&mut self, now_ms: u64) {
        if now_ms <= self.integrated_to_ms {
            return;
        }
        let dt_ms = (now_ms - self.integrated_to_ms) as f64;
        let idle_mb: f64 = self
            .entries
            .iter()
            .map(|e| f64::from(e.cfg.memory_mb) * f64::from(e.idle))
            .sum();
        self.idle_mem_mb_ms += idle_mb * dt_ms;
        self.integrated_to_ms = now_ms;
    }

    /// Memory reserved by pooled idle pods integrated over time, in
    /// GB-seconds, up to the last [`integrate_to`](Self::integrate_to) point.
    pub fn mem_gb_s(&self) -> f64 {
        self.idle_mem_mb_ms / 1024.0 / 1e3
    }

    /// Tries to acquire a pod of the given configuration at `now_ms`.
    ///
    /// `pooled_runtime` is false for runtimes without reserved pools
    /// (`Custom` images), which always take the from-scratch path.
    pub fn acquire(
        &mut self,
        cfg: ResourceConfig,
        pooled_runtime: bool,
        now_ms: u64,
    ) -> PoolAcquire {
        self.integrate_to(now_ms);
        if pooled_runtime {
            if let Some(entry) = self.entry_mut(cfg) {
                if entry.idle > 0 {
                    entry.idle -= 1;
                    self.acquired_from_pool += 1;
                    return PoolAcquire::FromPool;
                }
            }
        }
        self.acquired_from_scratch += 1;
        PoolAcquire::FromScratch
    }

    /// Runs one replenish tick at `now_ms`, adding up to `replenish_per_tick`
    /// pods to each pool that is below target. Returns how many pods were
    /// created.
    pub fn replenish(&mut self, now_ms: u64) -> u32 {
        self.integrate_to(now_ms);
        let per_tick = self.config.replenish_per_tick;
        let mut created = 0;
        for entry in &mut self.entries {
            if entry.idle < entry.target {
                let add = (entry.target - entry.idle).min(per_tick);
                entry.idle += add;
                created += add;
            }
        }
        created
    }

    /// The pools' current idle counts by configuration, in entry order.
    ///
    /// This is the per-epoch snapshot shard engines draw against (see
    /// [`crate::shard`]); indices into the returned vector align with the
    /// draw totals [`apply_draws`](Self::apply_draws) consumes.
    pub fn snapshot_idle(&self) -> Vec<(ResourceConfig, u32)> {
        self.entries.iter().map(|e| (e.cfg, e.idle)).collect()
    }

    /// [`snapshot_idle`](Self::snapshot_idle) copied into `out`, reusing its
    /// allocation.
    pub(crate) fn snapshot_idle_into(&self, out: &mut Vec<(ResourceConfig, u32)>) {
        out.clear();
        out.extend(self.entries.iter().map(|e| (e.cfg, e.idle)));
    }

    /// Number of pool entries: the length of a snapshot or a draw vector.
    pub(crate) fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Settles one epoch's pod draws against the pools at `now_ms`.
    ///
    /// `draws` holds the per-entry totals accumulated by the shard engines
    /// during the epoch, aligned with [`snapshot_idle`](Self::snapshot_idle).
    /// Each entry is clamped at zero: shards draw against the epoch-start
    /// snapshot, so their combined optimistic draws may exceed what was
    /// actually pooled — the surplus is simply absorbed (the oversubscription
    /// is the documented epoch-granularity approximation). The idle-memory
    /// integral is advanced to `now_ms` first, so the epoch is charged at the
    /// snapshot level the shards actually saw.
    pub fn apply_draws(&mut self, now_ms: u64, draws: &[u64]) {
        self.integrate_to(now_ms);
        for (entry, &drawn) in self.entries.iter_mut().zip(draws) {
            let drawn = u32::try_from(drawn).unwrap_or(u32::MAX);
            entry.idle -= drawn.min(entry.idle);
        }
    }

    /// Runs `times` replenish ticks' worth of refill in one call at `now_ms`.
    ///
    /// Equivalent to `times` consecutive [`replenish`](Self::replenish)
    /// calls except that the idle-memory integral is advanced once at
    /// `now_ms` instead of stepwise — the form the epoch-quantized engine
    /// uses when several replenish intervals elapse within one epoch.
    pub fn replenish_times(&mut self, now_ms: u64, times: u64) -> u32 {
        self.integrate_to(now_ms);
        let budget = self
            .config
            .replenish_per_tick
            .saturating_mul(u32::try_from(times).unwrap_or(u32::MAX));
        let mut created = 0;
        for entry in &mut self.entries {
            if entry.idle < entry.target {
                let add = (entry.target - entry.idle).min(budget);
                entry.idle += add;
                created += add;
            }
        }
        created
    }

    /// Total pods handed out from pools so far.
    pub fn pool_hits(&self) -> u64 {
        self.acquired_from_pool
    }

    /// Total pods created from scratch so far.
    pub fn scratch_creations(&self) -> u64 {
        self.acquired_from_scratch
    }

    /// Total idle pods across all pools (a measure of reserved capacity).
    pub fn total_idle(&self) -> u32 {
        self.entries.iter().map(|e| e.idle).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_start_at_target() {
        let pools = ResourcePools::new(PoolConfig::default());
        for cfg in ResourceConfig::STANDARD {
            assert_eq!(pools.idle_count(cfg), 8);
            assert_eq!(pools.target(cfg), 8);
        }
        assert_eq!(pools.idle_count(ResourceConfig::new(2000, 4096)), 0);
        assert_eq!(pools.total_idle(), 32);
    }

    #[test]
    fn acquire_drains_then_falls_back_to_scratch() {
        let mut pools = ResourcePools::new(PoolConfig {
            target_per_config: 2,
            ..PoolConfig::default()
        });
        let cfg = ResourceConfig::SMALL_300_128;
        assert_eq!(pools.acquire(cfg, true, 0), PoolAcquire::FromPool);
        assert_eq!(pools.acquire(cfg, true, 0), PoolAcquire::FromPool);
        assert_eq!(pools.acquire(cfg, true, 0), PoolAcquire::FromScratch);
        assert_eq!(pools.pool_hits(), 2);
        assert_eq!(pools.scratch_creations(), 1);
        // Non-standard configurations have no pool.
        assert_eq!(
            pools.acquire(ResourceConfig::new(2000, 4096), true, 0),
            PoolAcquire::FromScratch
        );
    }

    #[test]
    fn custom_runtimes_never_use_pools() {
        let mut pools = ResourcePools::new(PoolConfig::default());
        let cfg = ResourceConfig::SMALL_300_128;
        assert_eq!(pools.acquire(cfg, false, 0), PoolAcquire::FromScratch);
        assert_eq!(pools.idle_count(cfg), 8, "pool is untouched");
    }

    #[test]
    fn idle_memory_integral_tracks_pool_contents() {
        let mut pools = ResourcePools::new(PoolConfig {
            target_per_config: 1,
            ..PoolConfig::default()
        });
        // One pod of each standard configuration idles for 1024 seconds:
        // (128 + 256 + 512 + 1024) MB * 1024 s / 1024 MB/GB = 1920 GB-s.
        pools.integrate_to(1_024_000);
        assert!((pools.mem_gb_s() - 1_920.0).abs() < 1e-9);
        // Time never runs backwards.
        pools.integrate_to(500_000);
        assert!((pools.mem_gb_s() - 1_920.0).abs() < 1e-9);
        // Draining the small pool stops its contribution.
        pools.acquire(ResourceConfig::SMALL_300_128, true, 1_024_000);
        pools.integrate_to(2_048_000);
        let expected = 1_920.0 + (256.0 + 512.0 + 1024.0);
        assert!((pools.mem_gb_s() - expected).abs() < 1e-9);
    }

    #[test]
    fn replenish_moves_towards_target() {
        let mut pools = ResourcePools::new(PoolConfig {
            target_per_config: 4,
            replenish_per_tick: 1,
            ..PoolConfig::default()
        });
        let cfg = ResourceConfig::MEDIUM_400_256;
        for _ in 0..4 {
            pools.acquire(cfg, true, 0);
        }
        assert_eq!(pools.idle_count(cfg), 0);
        assert_eq!(pools.replenish(0), 1);
        assert_eq!(pools.idle_count(cfg), 1);
        // Replenish never exceeds the target.
        for _ in 0..10 {
            pools.replenish(0);
        }
        assert_eq!(pools.idle_count(cfg), 4);
    }

    #[test]
    fn set_target_affects_replenish() {
        let mut pools = ResourcePools::new(PoolConfig {
            target_per_config: 1,
            replenish_per_tick: 10,
            ..PoolConfig::default()
        });
        let cfg = ResourceConfig::SMALL_300_128;
        pools.set_target(cfg, 6);
        assert_eq!(pools.target(cfg), 6);
        pools.replenish(0);
        assert_eq!(pools.idle_count(cfg), 6);
        // Lowering the target does not delete pods, but stops replenishment.
        pools.set_target(cfg, 2);
        pools.acquire(cfg, true, 0);
        pools.acquire(cfg, true, 0);
        pools.acquire(cfg, true, 0);
        pools.acquire(cfg, true, 0);
        pools.acquire(cfg, true, 0);
        assert_eq!(pools.idle_count(cfg), 1);
        pools.replenish(0);
        assert_eq!(pools.idle_count(cfg), 2);
    }
}
