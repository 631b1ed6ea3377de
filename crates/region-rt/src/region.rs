//! Regions: reference counts and the subregion hierarchy.
//!
//! A region is "composed of a reference count and two allocators" plus the
//! `id` / `nextid` fields that support the `parentptr` runtime check: "a
//! depth-first numbering of the region hierarchy stored in the id and nextid
//! fields of each region" (paper §3.3.1–3.3.2). A region `rn` is an ancestor
//! of `rp` exactly when `rp.id >= rn.id && rp.id < rn.nextid`.
//!
//! The traditional region — "the code, stack, global data and malloc heap" —
//! is region 0, the root of the hierarchy, and can never be deleted.

use crate::alloc::BumpAlloc;

/// Identifier of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// The distinguished traditional region.
pub const TRADITIONAL: RegionId = RegionId(0);

/// Per-region state.
#[derive(Debug)]
pub struct RegionData {
    /// Whether the region is live (false after `deleteregion`).
    pub alive: bool,
    /// Deferred-deletion mode: `deleteregion` was called while references
    /// remained; reclaim when the count reaches zero.
    pub doomed: bool,
    /// Count of external (unannotated) references into this region, plus
    /// temporary pins for live locals around `deletes` calls.
    pub rc: i64,
    /// How many of `rc` are pins (tracked so the auditor can separate
    /// heap references from local-variable pins).
    pub pins: i64,
    /// Depth-first preorder number (or interval start under the
    /// gap-based scheme).
    pub id: u64,
    /// One past the largest `id` in this region's subtree (interval end
    /// under the gap-based scheme).
    pub nextid: u64,
    /// Gap-based scheme only: start of the unassigned space inside this
    /// region's interval, from which new children are carved.
    pub child_cursor: u64,
    /// Virtual time of creation, for telemetry's region-lifetime
    /// accounting ([`Event::RegionDeleted`](crate::trace::Event)).
    pub born_at: u64,
    /// Parent region (None only for the traditional region).
    pub parent: Option<RegionId>,
    /// Live child regions.
    pub children: Vec<RegionId>,
    /// Allocator for objects containing unannotated pointers.
    pub normal: BumpAlloc,
    /// Allocator for objects containing no unannotated pointers; its pages
    /// are not scanned at deletion.
    pub pointerfree: BumpAlloc,
}

impl RegionData {
    /// A fresh live region.
    pub fn new(parent: Option<RegionId>) -> RegionData {
        RegionData {
            alive: true,
            doomed: false,
            rc: 0,
            pins: 0,
            id: 0,
            nextid: 0,
            child_cursor: 0,
            born_at: 0,
            parent,
            children: Vec::new(),
            normal: BumpAlloc::new(),
            pointerfree: BumpAlloc::new(),
        }
    }
}

/// Recomputes the depth-first numbering of the live hierarchy rooted at
/// [`TRADITIONAL`]. Returns the number of regions visited (the paper's
/// implementation "updates this numbering every time a region is created";
/// the visit count is what the cost model charges).
pub fn renumber(regions: &mut [RegionData]) -> u64 {
    let mut next = 0u64;
    let mut visited = 0u64;
    // Explicit stack: (region index, child cursor).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    debug_assert!(regions[TRADITIONAL.0 as usize].alive);
    regions[TRADITIONAL.0 as usize].id = next;
    next += 1;
    visited += 1;
    stack.push((TRADITIONAL.0 as usize, 0));
    while let Some(&mut (r, ref mut cursor)) = stack.last_mut() {
        if *cursor < regions[r].children.len() {
            let child = regions[r].children[*cursor].0 as usize;
            *cursor += 1;
            debug_assert!(regions[child].alive, "children lists hold live regions only");
            regions[child].id = next;
            next += 1;
            visited += 1;
            stack.push((child, 0));
        } else {
            regions[r].nextid = next;
            stack.pop();
        }
    }
    visited
}

/// Reassigns *gapped* intervals over the live hierarchy: each region gets
/// an interval nested inside its parent's, with the parent's trailing
/// space reserved for future children. This is the fallback of the
/// gap-based numbering scheme (the "more efficient scheme" the paper
/// anticipates replacing eager renumbering with); after it runs, new
/// subregions are assigned in O(1) until some interval is exhausted
/// again. Returns the number of regions visited.
pub fn renumber_gapped(regions: &mut [RegionData]) -> u64 {
    fn assign(regions: &mut [RegionData], node: usize, lo: u64, hi: u64, visited: &mut u64) {
        *visited += 1;
        regions[node].id = lo;
        regions[node].nextid = hi;
        let kids: Vec<usize> = regions[node].children.iter().map(|c| c.0 as usize).collect();
        // Reserve an equal share per existing child plus one spare share
        // for future children.
        let space = hi.saturating_sub(lo + 1);
        let share = space / (kids.len() as u64 + 1).max(1);
        let mut cursor = lo + 1;
        for k in kids {
            let end = cursor + share.max(2);
            assign(regions, k, cursor, end.min(hi), visited);
            cursor = end.min(hi);
        }
        regions[node].child_cursor = cursor;
    }
    let mut visited = 0;
    assign(regions, TRADITIONAL.0 as usize, 0, u64::MAX / 2, &mut visited);
    visited
}

/// The `parentptr` ancestry test from Figure 3(b): is `anc` an ancestor of
/// (or equal to) `desc`, according to the current DFS numbering?
#[inline]
pub fn is_ancestor(regions: &[RegionData], anc: RegionId, desc: RegionId) -> bool {
    let a = &regions[anc.0 as usize];
    let d = &regions[desc.0 as usize];
    d.id >= a.id && d.id < a.nextid
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a forest: indices are RegionIds; `parents[i]` is the parent of
    /// region i (region 0 is the traditional root).
    fn build(parents: &[Option<usize>]) -> Vec<RegionData> {
        let mut v: Vec<RegionData> =
            parents.iter().map(|p| RegionData::new(p.map(|i| RegionId(i as u32)))).collect();
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                let child = RegionId(i as u32);
                v[*p].children.push(child);
            }
        }
        renumber(&mut v);
        v
    }

    #[test]
    fn numbering_covers_all_live_regions() {
        // 0 -> {1, 2}, 1 -> {3}
        let v = build(&[None, Some(0), Some(0), Some(1)]);
        assert_eq!(v[0].id, 0);
        assert_eq!(v[0].nextid, 4);
        // Preorder: 0, 1, 3, 2.
        assert_eq!(v[1].id, 1);
        assert_eq!(v[3].id, 2);
        assert_eq!(v[2].id, 3);
    }

    #[test]
    fn ancestor_query_matches_structure() {
        let v = build(&[None, Some(0), Some(0), Some(1), Some(3)]);
        let r = |i: u32| RegionId(i);
        // Root is ancestor of everything (this is why parentptr-to-
        // traditional always passes).
        for i in 0..5 {
            assert!(is_ancestor(&v, r(0), r(i)));
        }
        assert!(is_ancestor(&v, r(1), r(3)));
        assert!(is_ancestor(&v, r(1), r(4)));
        assert!(is_ancestor(&v, r(3), r(4)));
        assert!(!is_ancestor(&v, r(2), r(3)));
        assert!(!is_ancestor(&v, r(3), r(1)));
        assert!(!is_ancestor(&v, r(4), r(3)));
        // Reflexive: pointers within one region pass the parentptr check.
        assert!(is_ancestor(&v, r(3), r(3)));
    }

    #[test]
    fn renumber_counts_visits() {
        let mut v = build(&[None, Some(0), Some(1)]);
        assert_eq!(renumber(&mut v), 3);
    }
}
