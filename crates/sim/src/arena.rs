//! Slab/arena storage for executing plans, with structural interning.
//!
//! The kernel used to move every submitted [`Plan`]'s `Vec<Step>` into
//! its exec slot and recursively steal `Join { branches }` vectors when
//! spawning children — one heap allocation per plan and per branch, all
//! churned at the simulator's hottest rate. The [`PlanArena`] replaces
//! that with flat storage: plan steps live in one contiguous
//! [`FlatStep`] arena, `Join` steps reference their branches as an index
//! range into a shared child table, and every plan is addressed by a
//! generation-checked [`PlanId`] so a stale id (to a freed and reused
//! slot) is detectably inert rather than silently aliased.
//!
//! **Interning.** Stores submit the same plan *shapes* over and over —
//! the read path of a given store on a given topology differs between
//! ops only when cost receipts differ. `intern` hashes the structural
//! content of a plan (FNV-1a over step tags and payloads, recursing into
//! join branches) and reuses the existing record on a structural match,
//! so a repeated shape costs one hash walk and zero allocations per
//! submission. The intern table is bounded ([`PlanArena::DEFAULT_INTERN_CAP`]):
//! shapes beyond the cap become *transient* — reference-counted and
//! freed back to exact-size free lists when their last exec finishes, so
//! receipt-dependent plan shapes cannot grow the arena without bound.
//!
//! **Lifetime rules.** A plan record's reference count is held by (a)
//! the intern table, permanently, for interned records; (b) each parent
//! `Join` step, for each child record it references (tree edges); and
//! (c) each exec running the plan (the kernel retains on spawn and
//! releases on finish). A quorum straggler therefore keeps its branch
//! sub-plan alive after its parent's plan tree is freed.

use crate::kernel::ResourceId;
use crate::plan::{Plan, Step};
use crate::time::SimDuration;
use std::collections::BTreeMap;

/// Generation-checked handle to a plan record in the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanId {
    idx: u32,
    generation: u32,
}

impl PlanId {
    /// Sentinel for "no plan" (dead exec slots).
    pub const NONE: PlanId = PlanId {
        idx: u32::MAX,
        generation: 0,
    };

    pub fn is_none(self) -> bool {
        self.idx == u32::MAX
    }
}

/// One step of a flattened plan. `Copy`, fixed-size: `Join` branches are
/// an index range into the arena's child table instead of owned vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatStep {
    Acquire {
        resource: ResourceId,
        service: SimDuration,
    },
    Delay(SimDuration),
    AlignTo {
        period: SimDuration,
        extra: SimDuration,
    },
    Join {
        /// Start of the branch ids in the arena's child table.
        first_child: u32,
        /// Number of branches.
        children: u32,
        /// Completion quorum (clamped to `children` at execution time,
        /// stored raw so materialization is lossless).
        need: u32,
    },
    Fail {
        latency: SimDuration,
    },
}

#[derive(Debug)]
struct PlanRec {
    first_step: u32,
    step_len: u32,
    /// Owners: intern table (for interned records) + parent join edges +
    /// running execs.
    rc: u32,
    generation: u32,
    interned: bool,
    live: bool,
}

const TABLE_SLOTS: usize = 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Flat plan storage; see the module docs for the interning and
/// lifetime rules.
#[derive(Debug)]
pub struct PlanArena {
    steps: Vec<FlatStep>,
    children: Vec<PlanId>,
    recs: Vec<PlanRec>,
    free_recs: Vec<u32>,
    /// Exact-size free lists: range length → start indices, reused LIFO.
    free_steps: BTreeMap<u32, Vec<u32>>,
    free_children: BTreeMap<u32, Vec<u32>>,
    /// Structural intern table: fixed slots chained as (hash, id) pairs.
    /// Never iterated, so bucket order cannot leak into event order.
    table: Vec<Vec<(u64, PlanId)>>,
    interned: usize,
    intern_cap: usize,
}

impl Default for PlanArena {
    fn default() -> Self {
        PlanArena::new()
    }
}

impl PlanArena {
    /// Default bound on distinct interned shapes; beyond it, new shapes
    /// become transient (refcounted, freed at last release).
    pub const DEFAULT_INTERN_CAP: usize = 4096;

    pub fn new() -> Self {
        PlanArena::with_intern_cap(PlanArena::DEFAULT_INTERN_CAP)
    }

    /// An arena with a custom intern bound; `0` makes every plan
    /// transient (used by the stale-id regression tests).
    pub fn with_intern_cap(intern_cap: usize) -> Self {
        PlanArena {
            steps: Vec::new(),
            children: Vec::new(),
            recs: Vec::new(),
            free_recs: Vec::new(),
            free_steps: BTreeMap::new(),
            free_children: BTreeMap::new(),
            table: (0..TABLE_SLOTS).map(|_| Vec::new()).collect(),
            interned: 0,
            intern_cap,
        }
    }

    /// True while `id` refers to the record it was created for.
    pub fn is_current(&self, id: PlanId) -> bool {
        !id.is_none()
            && (id.idx as usize) < self.recs.len()
            && self.recs[id.idx as usize].live
            && self.recs[id.idx as usize].generation == id.generation
    }

    /// The highest resource id an `Acquire` step in the arena's storage
    /// names, freed ranges too: exact for a restore's fresh arena.
    pub fn max_resource(&self) -> Option<ResourceId> {
        let acquired = self.steps.iter().filter_map(|step| {
            let FlatStep::Acquire { resource, .. } = *step else {
                return None;
            };
            Some(resource)
        });
        acquired.max()
    }

    /// Number of top-level steps of `id`'s plan.
    #[inline]
    pub fn step_len(&self, id: PlanId) -> u32 {
        debug_assert!(self.is_current(id), "step_len on a stale PlanId");
        self.recs[id.idx as usize].step_len
    }

    /// Step `pc` of `id`'s plan (caller keeps `pc < step_len`).
    #[inline]
    pub fn step(&self, id: PlanId, pc: u32) -> FlatStep {
        debug_assert!(self.is_current(id), "step on a stale PlanId");
        let rec = &self.recs[id.idx as usize];
        debug_assert!(pc < rec.step_len);
        self.steps[(rec.first_step + pc) as usize]
    }

    /// Branch id at `slot` in the child table (from a `FlatStep::Join`).
    #[inline]
    pub fn child(&self, slot: u32) -> PlanId {
        self.children[slot as usize]
    }

    /// Adds an owner to `id`'s record (e.g. a child exec being spawned).
    #[inline]
    pub fn retain(&mut self, id: PlanId) {
        debug_assert!(self.is_current(id), "retain on a stale PlanId");
        self.recs[id.idx as usize].rc += 1;
    }

    /// Drops one owner; a transient record whose count reaches zero is
    /// freed (releasing its join-edge references recursively) and its
    /// slot generation advances, invalidating outstanding ids.
    pub fn release(&mut self, id: PlanId) {
        debug_assert!(self.is_current(id), "release on a stale PlanId");
        let rec = &mut self.recs[id.idx as usize];
        rec.rc -= 1;
        if rec.rc == 0 {
            debug_assert!(!rec.interned, "intern table ref keeps rc positive");
            self.free_rec(id.idx);
        }
    }

    /// Returns the id of a record structurally equal to `plan`, creating
    /// (and, under the cap, interning) it if absent. The returned id
    /// carries one owner reference for the caller.
    pub fn intern(&mut self, plan: &Plan) -> PlanId {
        self.intern_steps(&plan.0)
    }

    fn intern_steps(&mut self, steps: &[Step]) -> PlanId {
        let hash = hash_steps(steps);
        let slot = (hash as usize) & (TABLE_SLOTS - 1);
        let mut found = PlanId::NONE;
        for &(entry_hash, id) in &self.table[slot] {
            if entry_hash == hash && self.plan_equals(id, steps) {
                found = id;
                break;
            }
        }
        if !found.is_none() {
            self.recs[found.idx as usize].rc += 1;
            return found;
        }
        let id = self.build(steps);
        if self.interned < self.intern_cap {
            self.recs[id.idx as usize].rc += 1;
            self.recs[id.idx as usize].interned = true;
            self.table[slot].push((hash, id));
            self.interned += 1;
        }
        id
    }

    /// Structural equality between an arena record and a step slice.
    fn plan_equals(&self, id: PlanId, steps: &[Step]) -> bool {
        let rec = &self.recs[id.idx as usize];
        if rec.step_len as usize != steps.len() {
            return false;
        }
        for (i, step) in steps.iter().enumerate() {
            let flat = self.steps[(rec.first_step + i as u32) as usize];
            let matches = match (flat, step) {
                (
                    FlatStep::Acquire { resource, service },
                    Step::Acquire {
                        resource: r,
                        service: s,
                    },
                ) => resource == *r && service == *s,
                (FlatStep::Delay(d), Step::Delay(e)) => d == *e,
                (
                    FlatStep::AlignTo { period, extra },
                    Step::AlignTo {
                        period: p,
                        extra: x,
                    },
                ) => period == *p && extra == *x,
                (
                    FlatStep::Join {
                        first_child,
                        children,
                        need,
                    },
                    Step::Join { branches, need: n },
                ) => {
                    children as usize == branches.len()
                        && need as usize == *n
                        && branches.iter().enumerate().all(|(k, branch)| {
                            self.plan_equals(self.child(first_child + k as u32), &branch.0)
                        })
                }
                (FlatStep::Fail { latency }, Step::Fail { latency: l }) => latency == *l,
                (
                    FlatStep::Acquire { .. }
                    | FlatStep::Delay(_)
                    | FlatStep::AlignTo { .. }
                    | FlatStep::Join { .. }
                    | FlatStep::Fail { .. },
                    Step::Acquire { .. }
                    | Step::Delay(_)
                    | Step::AlignTo { .. }
                    | Step::Join { .. }
                    | Step::Fail { .. },
                ) => false,
            };
            if !matches {
                return false;
            }
        }
        true
    }

    /// Builds a fresh (transient) record for `steps`, interning branch
    /// sub-plans recursively. The record starts with `rc == 1` (the
    /// caller's reference).
    fn build(&mut self, steps: &[Step]) -> PlanId {
        let mut flats: Vec<FlatStep> = Vec::with_capacity(steps.len());
        for step in steps {
            let flat = match step {
                Step::Acquire { resource, service } => FlatStep::Acquire {
                    resource: *resource,
                    service: *service,
                },
                Step::Delay(d) => FlatStep::Delay(*d),
                Step::AlignTo { period, extra } => FlatStep::AlignTo {
                    period: *period,
                    extra: *extra,
                },
                Step::Join { branches, need } => {
                    let ids: Vec<PlanId> =
                        branches.iter().map(|b| self.intern_steps(&b.0)).collect();
                    let first_child = self.alloc_children(&ids);
                    FlatStep::Join {
                        first_child,
                        children: ids.len() as u32,
                        need: *need as u32,
                    }
                }
                Step::Fail { latency } => FlatStep::Fail { latency: *latency },
            };
            flats.push(flat);
        }
        let first_step = self.alloc_steps(&flats);
        let step_len = flats.len() as u32;
        if let Some(idx) = self.free_recs.pop() {
            let rec = &mut self.recs[idx as usize];
            debug_assert!(!rec.live);
            rec.first_step = first_step;
            rec.step_len = step_len;
            rec.rc = 1;
            rec.interned = false;
            rec.live = true;
            PlanId {
                idx,
                generation: rec.generation,
            }
        } else {
            let idx = self.recs.len() as u32;
            self.recs.push(PlanRec {
                first_step,
                step_len,
                rc: 1,
                generation: 0,
                interned: false,
                live: true,
            });
            PlanId { idx, generation: 0 }
        }
    }

    fn alloc_steps(&mut self, flats: &[FlatStep]) -> u32 {
        let len = flats.len() as u32;
        if len == 0 {
            return 0;
        }
        if let Some(start) = self.free_steps.get_mut(&len).and_then(Vec::pop) {
            self.steps[start as usize..(start + len) as usize].copy_from_slice(flats);
            start
        } else {
            let start = self.steps.len() as u32;
            self.steps.extend_from_slice(flats);
            start
        }
    }

    fn alloc_children(&mut self, ids: &[PlanId]) -> u32 {
        let len = ids.len() as u32;
        if len == 0 {
            return 0;
        }
        if let Some(start) = self.free_children.get_mut(&len).and_then(Vec::pop) {
            self.children[start as usize..(start + len) as usize].copy_from_slice(ids);
            start
        } else {
            let start = self.children.len() as u32;
            self.children.extend_from_slice(ids);
            start
        }
    }

    /// Frees record `idx`: releases its join-edge references, returns
    /// its step/child ranges to the exact-size free lists, and advances
    /// the slot generation.
    fn free_rec(&mut self, idx: u32) {
        let (first_step, step_len) = {
            let rec = &mut self.recs[idx as usize];
            rec.live = false;
            rec.generation = rec.generation.wrapping_add(1);
            (rec.first_step, rec.step_len)
        };
        self.free_recs.push(idx);
        for i in 0..step_len {
            if let FlatStep::Join {
                first_child,
                children,
                ..
            } = self.steps[(first_step + i) as usize]
            {
                for k in 0..children {
                    let child = self.children[(first_child + k) as usize];
                    self.release(child);
                }
                if children > 0 {
                    self.free_children
                        .entry(children)
                        .or_default()
                        .push(first_child);
                }
            }
        }
        if step_len > 0 {
            self.free_steps
                .entry(step_len)
                .or_default()
                .push(first_step);
        }
    }

    /// Rebuilds the owned [`Plan`] for `id` — the snapshot codec's view
    /// of an exec's plan. `materialize(intern(p)) == p` for every plan.
    pub fn materialize(&self, id: PlanId) -> Plan {
        debug_assert!(self.is_current(id), "materialize on a stale PlanId");
        let rec = &self.recs[id.idx as usize];
        let mut steps = Vec::with_capacity(rec.step_len as usize);
        for i in 0..rec.step_len {
            let step = match self.steps[(rec.first_step + i) as usize] {
                FlatStep::Acquire { resource, service } => Step::Acquire { resource, service },
                FlatStep::Delay(d) => Step::Delay(d),
                FlatStep::AlignTo { period, extra } => Step::AlignTo { period, extra },
                FlatStep::Join {
                    first_child,
                    children,
                    need,
                } => Step::Join {
                    branches: (0..children)
                        .map(|k| self.materialize(self.child(first_child + k)))
                        .collect(),
                    need: need as usize,
                },
                FlatStep::Fail { latency } => Step::Fail { latency },
            };
            steps.push(step);
        }
        Plan(steps)
    }
}

fn hash_steps(steps: &[Step]) -> u64 {
    let mut h = mix(FNV_OFFSET, steps.len() as u64);
    for step in steps {
        h = match step {
            Step::Acquire { resource, service } => {
                mix(mix(mix(h, 0), u64::from(resource.0)), service.as_nanos())
            }
            Step::Delay(d) => mix(mix(h, 1), d.as_nanos()),
            Step::AlignTo { period, extra } => {
                mix(mix(mix(h, 2), period.as_nanos()), extra.as_nanos())
            }
            Step::Join { branches, need } => {
                let mut j = mix(mix(h, 3), *need as u64);
                for branch in branches {
                    j = mix(j, hash_steps(&branch.0));
                }
                j
            }
            Step::Fail { latency } => mix(mix(h, 4), latency.as_nanos()),
        };
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: ResourceId = ResourceId(0);

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn simple(n: u64) -> Plan {
        Plan::build().acquire(R, us(n)).delay(us(n + 1)).finish()
    }

    fn quorum() -> Plan {
        Plan::build()
            .join_quorum(vec![simple(1), simple(2), simple(3)], 2)
            .delay(us(9))
            .finish()
    }

    #[test]
    fn interning_dedups_repeated_shapes() {
        let mut arena = PlanArena::new();
        let a = arena.intern(&simple(5));
        let b = arena.intern(&simple(5));
        assert_eq!(a, b, "same shape must intern to the same record");
        let c = arena.intern(&simple(6));
        assert_ne!(a, c, "different shapes must not alias");
        assert_eq!(arena.materialize(a), simple(5));
        assert_eq!(arena.materialize(c), simple(6));
    }

    #[test]
    fn materialize_round_trips_nested_joins() {
        let mut arena = PlanArena::new();
        let nested = Plan::build()
            .join_all(vec![quorum(), Plan::empty(), simple(7)])
            .finish();
        let id = arena.intern(&nested);
        assert_eq!(arena.materialize(id), nested);
    }

    #[test]
    fn transient_plans_are_freed_and_ranges_reused() {
        let mut arena = PlanArena::with_intern_cap(0);
        let a = arena.intern(&simple(1));
        let high_water = (arena.steps.len(), arena.recs.len());
        arena.release(a);
        // Same step-count, different payloads: must reuse the freed
        // ranges instead of growing the arena.
        let b = arena.intern(&simple(2));
        assert_eq!((arena.steps.len(), arena.recs.len()), high_water);
        assert_eq!(arena.materialize(b), simple(2));
    }

    #[test]
    fn stale_id_to_a_reused_slot_is_not_current() {
        // The regression the generation counter exists for: a released
        // id whose slot was recycled must be detectably stale, never an
        // alias of the new occupant.
        let mut arena = PlanArena::with_intern_cap(0);
        let stale = arena.intern(&simple(1));
        arena.release(stale);
        let fresh = arena.intern(&simple(2));
        assert_eq!(
            (stale.idx, fresh.idx),
            (0, 0),
            "test premise: the slot is recycled"
        );
        assert!(!arena.is_current(stale), "stale id must be rejected");
        assert!(arena.is_current(fresh));
        assert_eq!(arena.materialize(fresh), simple(2));
    }

    #[test]
    fn straggler_child_survives_parent_release() {
        let mut arena = PlanArena::with_intern_cap(0);
        let parent = arena.intern(&quorum());
        let FlatStep::Join { first_child, .. } = arena.step(parent, 0) else {
            panic!("quorum plan starts with a join");
        };
        let straggler = arena.child(first_child + 2);
        // A child exec holds its own reference while it runs.
        arena.retain(straggler);
        arena.release(parent);
        assert!(
            arena.is_current(straggler),
            "exec-held branch must outlive the parent tree"
        );
        assert_eq!(arena.materialize(straggler), simple(3));
        arena.release(straggler);
        assert!(!arena.is_current(straggler));
    }

    #[test]
    fn interned_plans_survive_release() {
        let mut arena = PlanArena::new();
        let a = arena.intern(&simple(1));
        arena.release(a);
        assert!(arena.is_current(a), "the intern table pins the record");
        let b = arena.intern(&simple(1));
        assert_eq!(a, b);
    }

    #[test]
    fn intern_cap_bounds_the_table() {
        let mut arena = PlanArena::with_intern_cap(2);
        let a = arena.intern(&simple(1));
        let b = arena.intern(&simple(2));
        let c = arena.intern(&simple(3));
        // a and b are interned; c is transient and frees on release.
        arena.release(a);
        arena.release(b);
        assert!(arena.is_current(a) && arena.is_current(b));
        arena.release(c);
        assert!(!arena.is_current(c), "beyond-cap shapes stay transient");
    }

    #[test]
    fn equal_hash_different_shape_does_not_alias() {
        let mut arena = PlanArena::new();
        // Shapes with equal step counts but different payloads share
        // nothing; equality is structural, not hash-only.
        let a = arena.intern(&Plan::build().delay(us(1)).finish());
        let b = arena.intern(&Plan::build().delay(us(2)).finish());
        assert_ne!(a, b);
        assert_eq!(arena.materialize(a), Plan::build().delay(us(1)).finish());
    }
}
