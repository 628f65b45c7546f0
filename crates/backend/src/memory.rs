//! Static memory planning.
//!
//! MNN decouples memory management from computation (paper Section 3.2, Fig. 3):
//! during pre-inference the engine *virtually* walks the graph, records every
//! allocation and release, and computes a reusable memory plan; the actual inference
//! then only computes, touching a pre-allocated arena.
//!
//! [`MemoryPlanner`] is that walk: `plan_acquire` / `plan_release` calls produce
//! offset/size assignments with aggressive reuse. The session that owns the
//! plan backs it with a single allocation and hands each operator its region.

/// Identifier of a planned buffer within a [`MemoryPlanner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(pub usize);

/// A planned buffer assignment: offset and length, in whatever unit the caller
/// acquires in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedBuffer {
    /// Offset inside the arena.
    pub offset: usize,
    /// Length.
    pub len: usize,
}

/// Static memory planner: performs the "virtual walk" of Fig. 3.
///
/// Call [`MemoryPlanner::plan_acquire`] when an intermediate tensor becomes live and
/// [`MemoryPlanner::plan_release`] when its last consumer has run; the planner packs
/// live intervals into an arena with first-fit reuse of freed regions.
#[derive(Debug, Default)]
pub struct MemoryPlanner {
    buffers: Vec<PlannedBuffer>,
    /// Free regions as (offset, len), kept sorted by offset and coalesced.
    free_regions: Vec<(usize, usize)>,
    total: usize,
    live: Vec<bool>,
}

impl MemoryPlanner {
    /// Create an empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an allocation of `len` elements; returns its plan id.
    pub fn plan_acquire(&mut self, len: usize) -> PlanId {
        let offset = self.find_region(len);
        let id = PlanId(self.buffers.len());
        self.buffers.push(PlannedBuffer { offset, len });
        self.live.push(true);
        id
    }

    /// Record that the buffer is no longer needed; its region becomes reusable.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or already released.
    pub fn plan_release(&mut self, id: PlanId) {
        assert!(id.0 < self.buffers.len(), "unknown plan id {id:?}");
        assert!(self.live[id.0], "buffer {id:?} released twice");
        self.live[id.0] = false;
        let buf = self.buffers[id.0];
        self.free_regions.push((buf.offset, buf.len));
        self.coalesce();
    }

    /// Total arena size (in elements) required by the plan so far.
    pub fn total_elements(&self) -> usize {
        self.total
    }

    /// The assignment for a planned buffer.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn buffer(&self, id: PlanId) -> PlannedBuffer {
        self.buffers[id.0]
    }

    fn find_region(&mut self, len: usize) -> usize {
        // first-fit over the free list
        if let Some(pos) = self
            .free_regions
            .iter()
            .position(|&(_, free_len)| free_len >= len)
        {
            let (offset, free_len) = self.free_regions[pos];
            if free_len == len {
                self.free_regions.remove(pos);
            } else {
                self.free_regions[pos] = (offset + len, free_len - len);
            }
            return offset;
        }
        let offset = self.total;
        self.total += len;
        offset
    }

    fn coalesce(&mut self) {
        self.free_regions.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(self.free_regions.len());
        for &(offset, len) in &self.free_regions {
            if let Some(last) = merged.last_mut() {
                if last.0 + last.1 == offset {
                    last.1 += len;
                    continue;
                }
            }
            merged.push((offset, len));
        }
        // Trim a trailing free region that touches the end of the arena.
        if let Some(&(offset, len)) = merged.last() {
            if offset + len == self.total {
                self.total = offset;
                merged.pop();
            }
        }
        self.free_regions = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn planner_reuses_released_regions() {
        // Mirrors Fig. 3: Alloc 0, Alloc 1, Free 0, Alloc 2 — buffer 2 should reuse
        // buffer 0's region when it fits.
        let mut planner = MemoryPlanner::new();
        let b0 = planner.plan_acquire(100);
        let _b1 = planner.plan_acquire(50);
        planner.plan_release(b0);
        let b2 = planner.plan_acquire(80);
        assert_eq!(planner.buffer(b2).offset, planner.buffer(b0).offset);
        assert_eq!(planner.total_elements(), 150);
    }

    #[test]
    fn planner_grows_when_no_region_fits() {
        let mut planner = MemoryPlanner::new();
        let b0 = planner.plan_acquire(10);
        planner.plan_release(b0);
        let b1 = planner.plan_acquire(20);
        // The freed 10-element region does not fit 20 elements; since it sat at the
        // arena tail it was trimmed, so the new buffer starts at offset 0 again.
        assert_eq!(planner.buffer(b1).offset, 0);
        assert_eq!(planner.total_elements(), 20);
    }

    #[test]
    fn planner_coalesces_adjacent_free_regions() {
        let mut planner = MemoryPlanner::new();
        let a = planner.plan_acquire(10);
        let b = planner.plan_acquire(10);
        let _hold = planner.plan_acquire(10);
        planner.plan_release(a);
        planner.plan_release(b);
        // Regions [0,10) and [10,20) coalesce into [0,20) so a 20-element buffer fits.
        let c = planner.plan_acquire(20);
        assert_eq!(planner.buffer(c).offset, 0);
        assert_eq!(planner.total_elements(), 30);
    }

    /// Live buffers must never overlap, whatever the acquire/release pattern.
    #[derive(Debug, Clone)]
    enum PlanOp {
        Acquire(usize),
        ReleaseOldestLive,
    }

    fn plan_ops() -> impl Strategy<Value = Vec<PlanOp>> {
        proptest::collection::vec(
            prop_oneof![
                (1usize..512).prop_map(PlanOp::Acquire),
                Just(PlanOp::ReleaseOldestLive),
            ],
            1..64,
        )
    }

    proptest! {
        #[test]
        fn prop_live_buffers_never_overlap(ops in plan_ops()) {
            let mut planner = MemoryPlanner::new();
            let mut live: Vec<PlanId> = Vec::new();
            for op in ops {
                match op {
                    PlanOp::Acquire(len) => live.push(planner.plan_acquire(len)),
                    PlanOp::ReleaseOldestLive => {
                        if !live.is_empty() {
                            planner.plan_release(live.remove(0));
                        }
                    }
                }
                // check pairwise disjointness of live buffers
                for i in 0..live.len() {
                    for j in (i + 1)..live.len() {
                        let a = planner.buffer(live[i]);
                        let b = planner.buffer(live[j]);
                        let disjoint = a.offset + a.len <= b.offset || b.offset + b.len <= a.offset;
                        prop_assert!(disjoint, "buffers {:?} and {:?} overlap", a, b);
                    }
                }
            }
        }

        #[test]
        fn prop_reuse_saves_memory_versus_no_reuse(
            size in 1usize..256, count in 3usize..32
        ) {
            // A sequential chain of equally-sized buffers (each released right after
            // its successor is allocated) needs at most two slots worth of arena —
            // this is exactly the saving Fig. 3's pre-planned reuse provides.
            let mut planner = MemoryPlanner::new();
            let mut prev: Option<PlanId> = None;
            for _ in 0..count {
                let id = planner.plan_acquire(size);
                if let Some(p) = prev.take() {
                    planner.plan_release(p);
                }
                prev = Some(id);
            }
            prop_assert!(planner.total_elements() <= 2 * size);
            prop_assert!(planner.total_elements() < count * size);
        }
    }
}
