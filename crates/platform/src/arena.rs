//! Index-addressed arenas for the simulation hot path.
//!
//! The event loop used to key every lookup by hashed 64-bit identifiers
//! ([`fntrace::FunctionId`], [`fntrace::PodId`]) through `HashMap`s — one or
//! more hash-and-probe per event. This module replaces those maps with dense
//! `u32` indices into plain `Vec`s, so handling an internal event is pure
//! index arithmetic.
//!
//! # Id-allocation scheme
//!
//! Two id spaces coexist; only the *public* one is ever observable in
//! reports and traces, which is what keeps outputs byte-identical across
//! engine internals:
//!
//! * **Public ids**: [`fntrace::FunctionId`] is the hashed 64-bit function
//!   identifier from the workload, and [`fntrace::PodId`] is minted as
//!   `(region << 48) | (table_index << 26) | counter`, where `table_index`
//!   is the function's dense position in the workload table and `counter`
//!   is a never-reused, per-function monotone counter. Deriving the id from
//!   the function (rather than one run-global counter) means a pod's id does
//!   not depend on arena slot reuse or on how pod creations interleave
//!   across functions; committed trace bytes depend on this scheme. Request
//!   ids are minted the same way. Everything written to a trace or a report
//!   uses these.
//! * **Dense ids** are run-internal. [`FnIdx`] is a function's position in
//!   the run's [`faas_workload::WorkloadSpec::functions`] table, assigned
//!   once at state construction (one `HashMap<FunctionId, FnIdx>` lookup per
//!   *external* arrival resolves the public id; every internal event then
//!   carries the dense index). [`PodIdx`] is a slot in [`PodArena`],
//!   recycled through a free list when pods terminate.
//!
//! # Slot recycling and expiry generations
//!
//! Pod slots are reused, but pending [`PodExpire`](crate::Event::PodExpire)
//! events in the queue may still reference a slot's *previous* occupant.
//! With map-keyed pods this was impossible by construction (public pod ids
//! are never reused); with a slab it is neutralized by continuing the expiry
//! generation across occupants: a slot remembers its last occupant's final
//! `expiry_generation`, and the next pod inserted into that slot starts one
//! generation later. Any stale expiry therefore carries a generation the new
//! occupant can never match, and is ignored by the existing generation
//! check. Generations never appear in any output, so the offset is free.
//!
//! # Determinism
//!
//! Index allocation is a pure function of the (deterministic) simulation
//! event sequence: the free list is LIFO and iteration helpers walk slots in
//! index order, so two runs of the same spec make identical decisions —
//! including across threads, which is what the session layer's
//! parallel == sequential byte-equality guarantee rests on.

use crate::pod::Pod;

/// Dense index of a function in one run's workload table.
///
/// Assigned at state construction as the function's position in
/// [`faas_workload::WorkloadSpec::functions`]; valid only within that run.
/// See the [module docs](self) for the id-allocation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnIdx(u32);

impl FnIdx {
    /// Wraps a raw dense index.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw index value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The index as a usize, for table addressing.
    pub(crate) const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense slot index of a pod in a [`PodArena`].
///
/// Slots are recycled when pods terminate, so a `PodIdx` is only meaningful
/// while its occupant is live; stale references held by queued expiry events
/// are disarmed by the generation scheme described in the
/// [module docs](self). The public [`fntrace::PodId`] of the occupant is
/// unaffected by recycling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PodIdx(u32);

impl PodIdx {
    /// Wraps a raw slot index.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw slot value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The slot as a usize, for table addressing.
    pub(crate) const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Slab-style arena of live pods with a LIFO free list.
///
/// Insertion reuses the most recently freed slot (or grows the backing
/// `Vec`), so the arena's footprint tracks the *peak* live-pod count rather
/// than the total number of pods ever created. Each slot also carries the
/// dense [`FnIdx`] of its occupant's function — the event loop needs it on
/// every completion and expiry, and storing it beside the slot avoids
/// re-resolving the pod's public function id.
#[derive(Debug, Default)]
pub struct PodArena {
    slots: Vec<Option<Pod>>,
    /// Dense function index of each slot's occupant (stale when vacant).
    fns: Vec<FnIdx>,
    /// Starting expiry generation for each slot's *next* occupant; advanced
    /// past the departing occupant's final generation on removal.
    epochs: Vec<u64>,
    /// Vacant slots, reused LIFO.
    free: Vec<PodIdx>,
    live: u32,
}

impl PodArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a pod for the function at `function`, returning its slot.
    ///
    /// The pod's `expiry_generation` is initialised to the slot's current
    /// epoch so that expiry events scheduled against any previous occupant
    /// can never match (see the [module docs](self)).
    pub fn insert(&mut self, mut pod: Pod, function: FnIdx) -> PodIdx {
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                pod.expiry_generation = self.epochs[idx.index()];
                self.slots[idx.index()] = Some(pod);
                self.fns[idx.index()] = function;
                idx
            }
            None => {
                let idx = PodIdx::new(self.slots.len() as u32);
                self.slots.push(Some(pod));
                self.fns.push(function);
                self.epochs.push(0);
                idx
            }
        }
    }

    /// The pod in `idx`, if the slot is occupied.
    pub fn get(&self, idx: PodIdx) -> Option<&Pod> {
        self.slots.get(idx.index()).and_then(|s| s.as_ref())
    }

    /// Mutable access to the pod in `idx`, if the slot is occupied.
    pub fn get_mut(&mut self, idx: PodIdx) -> Option<&mut Pod> {
        self.slots.get_mut(idx.index()).and_then(|s| s.as_mut())
    }

    /// Mutable access plus the occupant's dense function index.
    pub fn get_mut_with_fn(&mut self, idx: PodIdx) -> Option<(&mut Pod, FnIdx)> {
        let function = *self.fns.get(idx.index())?;
        self.slots
            .get_mut(idx.index())
            .and_then(|s| s.as_mut())
            .map(|pod| (pod, function))
    }

    /// Removes and returns the pod in `idx` together with its function
    /// index, freeing the slot for reuse. The slot's generation epoch is
    /// advanced past the departing pod's final `expiry_generation`.
    pub fn remove(&mut self, idx: PodIdx) -> Option<(Pod, FnIdx)> {
        let pod = self.slots.get_mut(idx.index())?.take()?;
        self.epochs[idx.index()] = pod.expiry_generation + 1;
        self.free.push(idx);
        self.live -= 1;
        Some((pod, self.fns[idx.index()]))
    }

    /// Number of live pods.
    pub fn live(&self) -> u32 {
        self.live
    }

    /// Whether no pods are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots of all live pods, in ascending slot order (deterministic).
    pub fn live_indices(&self) -> impl Iterator<Item = PodIdx> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| PodIdx::new(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fntrace::{FunctionId, PodId, ResourceConfig};

    fn pod(id: u64) -> Pod {
        Pod::new(
            PodId::new(id),
            FunctionId::new(7),
            0,
            ResourceConfig::SMALL_300_128,
            0,
            0,
            false,
        )
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = PodArena::new();
        let f = FnIdx::new(3);
        let a = arena.insert(pod(1), f);
        let b = arena.insert(pod(2), f);
        assert_ne!(a, b);
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.get(a).unwrap().id, PodId::new(1));
        let (removed, removed_fn) = arena.remove(a).unwrap();
        assert_eq!(removed.id, PodId::new(1));
        assert_eq!(removed_fn, f);
        assert!(arena.get(a).is_none());
        assert!(arena.remove(a).is_none(), "double remove is a no-op");
        assert_eq!(arena.live(), 1);
        assert!(!arena.is_empty());
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut arena = PodArena::new();
        let f = FnIdx::new(0);
        let a = arena.insert(pod(1), f);
        let b = arena.insert(pod(2), f);
        arena.remove(a);
        arena.remove(b);
        // Most recently freed slot comes back first.
        assert_eq!(arena.insert(pod(3), f), b);
        assert_eq!(arena.insert(pod(4), f), a);
        assert_eq!(arena.live(), 2);
    }

    #[test]
    fn generations_continue_across_occupants() {
        let mut arena = PodArena::new();
        let f = FnIdx::new(0);
        let a = arena.insert(pod(1), f);
        // First occupant bumps its generation a few times while serving.
        arena.get_mut(a).unwrap().expiry_generation = 5;
        arena.remove(a);
        // The next occupant of the slot starts strictly later, so an expiry
        // scheduled against the old occupant (generation <= 5) never fires.
        let b = arena.insert(pod(2), f);
        assert_eq!(b, a, "slot reused");
        assert_eq!(arena.get(b).unwrap().expiry_generation, 6);
    }

    #[test]
    fn live_indices_walk_in_slot_order() {
        let mut arena = PodArena::new();
        let f = FnIdx::new(0);
        let ids: Vec<PodIdx> = (1..=4).map(|i| arena.insert(pod(i), f)).collect();
        arena.remove(ids[1]);
        let live: Vec<PodIdx> = arena.live_indices().collect();
        assert_eq!(live, vec![ids[0], ids[2], ids[3]]);
    }

    #[test]
    fn get_mut_with_fn_reports_the_occupants_function() {
        let mut arena = PodArena::new();
        let a = arena.insert(pod(1), FnIdx::new(9));
        let (p, f) = arena.get_mut_with_fn(a).unwrap();
        assert_eq!(p.id, PodId::new(1));
        assert_eq!(f, FnIdx::new(9));
        arena.remove(a);
        assert!(arena.get_mut_with_fn(a).is_none());
    }
}
