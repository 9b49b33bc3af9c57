//! The single definition point for experiment seed derivation.
//!
//! This module is the only place a declared seed is turned into a
//! simulation seed: [`ExperimentSession`] — and therefore the
//! [`PolicySweep`](crate::sweep::PolicySweep) declared over it — routes
//! every cell through [`sim_seed`], so the same `(source, seed)` cell
//! produces the same bytes whichever declaration ran it
//! (`tests/entry_point_equivalence.rs` pins this).
//!
//! [`ExperimentSession`]: crate::session::ExperimentSession

/// Seed a new [`ExperimentSession`](crate::session::ExperimentSession)
/// declares, and the bench binaries' default `--seed`.
pub const DEFAULT_SEED: u64 = 7;

/// Maps a declared seed to the simulation seed of every cell that uses it.
///
/// The mapping is the identity — the declared seed *is* the simulation seed,
/// and a cell's seed depends only on the declaration, never on the policy or
/// source index of the cell. Workload generators apply their own internal
/// salting (e.g. per-region) on top of this value; the session layer never
/// adds salt of its own, so a `(source, seed)` pair yields the same workload
/// and the same simulation stream through every entry point.
pub fn sim_seed(declared: u64) -> u64 {
    declared
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_seed_is_the_identity() {
        for s in [0, 1, 7, u64::MAX] {
            assert_eq!(sim_seed(s), s);
        }
    }
}
