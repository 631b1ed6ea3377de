//! Snapshot restore: turns a [`HeapSnapshot`] back into a live [`Heap`].
//!
//! A snapshot records *aggregates* — per-region occupancy, the page → owner
//! map with per-page fill, per-`(region, site)` retained words, free-list
//! depths — not individual object addresses. Restore therefore rebuilds a
//! heap that is observationally identical to the captured one rather than
//! bit-identical: it synthesizes an object population whose capture
//! reproduces the source document byte for byte (`restore ∘ snapshot` is an
//! exact fixpoint, enforced at the end of [`Heap::restore`]), whose
//! [`Heap::audit`] passes (reference counts are witnessed by synthesized
//! counted pointers), and whose [`HeapSnapshot::verify_against`] holds.
//!
//! The reconstruction runs in stages:
//!
//! 1. **Validate**: every structural invariant a genuine capture satisfies
//!    (region-id sequence, parent links, page-map/region/site accounting
//!    identities) is checked up front; the first violation returns
//!    [`RtError::SnapshotCorrupt`] naming the offending field.
//! 2. **Split** region 0's site table across its three allocators (its own
//!    bump pages, the malloc heap, the GC heap) so each pool's object and
//!    word totals are met.
//! 3. **Place** malloc and GC objects onto their pools' pages so the
//!    capture-time per-page fold reproduces each page's recorded
//!    `used_words` exactly; region-allocator objects need no placement
//!    because region page occupancy is captured from the allocators' fill
//!    vectors, which restore sets directly from the page map.
//! 4. **Witness** reference counts: for every live region with
//!    `rc − pins > 0`, that many counted-pointer slots in objects of
//!    *other* containers are pointed at the region, so the auditor's
//!    recount agrees with the restored counts.
//! 5. **Assemble** the heap and run the three gates: `verify_against`,
//!    `audit`, and the byte-exact re-snapshot fixpoint.
//!
//! Restored heaps are validation-grade: free lists reproduce per-class
//! depths with placeholder slots on the reserved page 0 (snapshots record
//! depths, not addresses), and object types are synthesized data/holder
//! layouts. Every observable the snapshot records is exact.

use std::collections::HashMap;

use crate::addr::{Addr, WORDS_PER_PAGE};
use crate::alloc::{AllocRecord, BumpAlloc};
use crate::cost::{Clock, CostModel};
use crate::error::RtError;
use crate::gc::{GcObj, GcState};
use crate::heap::{DeletePolicy, Heap, HeapConfig, NumberingScheme};
use crate::layout::{PtrKind, SlotKind, TypeId, TypeLayout, TypeTable};
use crate::malloc::{size_class, MallocObj, MallocState, SIZE_CLASSES};
use crate::page::{PageOwner, PageStore};
use crate::region::{RegionData, RegionId};
use crate::snapshot::{HeapSnapshot, RegionSnapshot, SnapOwner};
use crate::span::{Span, SpanTree};
use crate::trace::NO_REGION;

/// Restore refuses snapshots claiming more committed pages than this
/// (1 Mi pages = 8 GiB of simulated heap): a genuine capture of that size
/// would have required the same memory to produce, so anything beyond it
/// is a corrupt or adversarial document, not a workload.
const MAX_RESTORE_PAGES: usize = 1 << 20;

const PAGE_WORDS: u64 = WORDS_PER_PAGE as u64;

fn corrupt(detail: impl Into<String>) -> RtError {
    RtError::SnapshotCorrupt { detail: detail.into() }
}

/// One `(site → objects, words)` slice of a retained table.
#[derive(Debug, Clone, Copy)]
struct Atom {
    site: u32,
    objects: u64,
    words: u64,
}

/// A synthesized live object. `size` is its payload in words; `counted`
/// marks records whose layout is all counted-pointer slots (reference-count
/// witnesses), everything else gets a pointer-free data layout the auditor
/// never dereferences.
#[derive(Debug, Clone, Copy)]
struct Rec {
    addr: Addr,
    size: u64,
    site: u32,
    counted: bool,
    used_slots: u32,
    placed: bool,
}

// ---------------------------------------------------------------------------
// Stage 1: validation
// ---------------------------------------------------------------------------

/// Everything later stages need, computed while validating.
struct Shape {
    /// Per-page fill, indexed by page number (page 0 unused).
    used: Vec<u32>,
    /// Region-0-owned pages that are *not* in region 0's bump allocator —
    /// the malloc heap's pages, ascending, with their fill targets.
    malloc_pages: Vec<(u32, u32)>,
    /// GC-owned pages, ascending, with fill targets.
    gc_pages: Vec<(u32, u32)>,
    /// Per-region site atoms (region 0's cover all three pools).
    region_atoms: Vec<Vec<Atom>>,
    /// Whether the captured heap had a span tree attached.
    spans_on: bool,
}

fn validate(snap: &HeapSnapshot) -> Result<Shape, RtError> {
    let n = snap.regions.len();
    if n == 0 {
        return Err(corrupt("no regions: the traditional region is mandatory"));
    }
    if n > u32::MAX as usize {
        return Err(corrupt("region count exceeds u32 range"));
    }
    for (i, r) in snap.regions.iter().enumerate() {
        if r.region as usize != i {
            return Err(corrupt(format!(
                "regions[{i}].region is {} (duplicate or shuffled region ids)",
                r.region
            )));
        }
    }
    let r0 = &snap.regions[0];
    if !r0.alive || r0.parent.is_some() || r0.doomed {
        return Err(corrupt(
            "regions[0] must be the live, unparented, undoomed traditional region",
        ));
    }
    for (i, r) in snap.regions.iter().enumerate().skip(1) {
        if r.alive {
            let p = match r.parent {
                Some(p) => p as usize,
                None => return Err(corrupt(format!("regions[{i}] is live but has no parent"))),
            };
            if p >= i {
                return Err(corrupt(format!("regions[{i}].parent {p} is not an earlier region")));
            }
            if !snap.regions[p].alive {
                return Err(corrupt(format!("regions[{i}] is live but its parent {p} is dead")));
            }
        } else {
            if r.doomed {
                return Err(corrupt(format!(
                    "regions[{i}] is reclaimed but still doomed (doomed regions stay alive)"
                )));
            }
            if r.parent.is_some() {
                return Err(corrupt(format!("regions[{i}] is reclaimed but keeps a parent")));
            }
            if r.live_words != 0 || r.objects != 0 || !r.pages.is_empty() {
                return Err(corrupt(format!(
                    "regions[{i}] is reclaimed but still holds words, objects, or pages"
                )));
            }
        }
    }
    for (i, r) in snap.regions.iter().enumerate() {
        if r.alive {
            if r.rc - r.pins < 0 {
                return Err(corrupt(format!(
                    "regions[{i}] has negative external count: rc {} − pins {}",
                    r.rc, r.pins
                )));
            }
            if r.live_words < r.objects {
                return Err(corrupt(format!(
                    "regions[{i}] has fewer live words ({}) than objects ({})",
                    r.live_words, r.objects
                )));
            }
        }
    }

    // Page map.
    let pc = snap.pages.len();
    if pc > MAX_RESTORE_PAGES {
        return Err(corrupt(format!(
            "page count {pc} exceeds the restore sanity bound {MAX_RESTORE_PAGES}"
        )));
    }
    let mut used = vec![0u32; pc + 1];
    for (j, p) in snap.pages.iter().enumerate() {
        if p.page as usize != j + 1 {
            return Err(corrupt(format!(
                "pages[{j}].page is {}, want {} (pages must cover 1..=count in order)",
                p.page,
                j + 1
            )));
        }
        if p.used_words as u64 > PAGE_WORDS {
            return Err(corrupt(format!(
                "pages[{j}].used_words {} exceeds the page size",
                p.used_words
            )));
        }
        match p.owner {
            SnapOwner::Free => {
                if p.used_words != 0 {
                    return Err(corrupt(format!("pages[{j}] is free but occupied")));
                }
            }
            SnapOwner::Gc => {}
            SnapOwner::Region(r) => {
                if r as usize >= n || !snap.regions[r as usize].alive {
                    return Err(corrupt(format!("pages[{j}] owned by invalid or dead region {r}")));
                }
            }
        }
        used[j + 1] = p.used_words;
    }

    // Free chain: a permutation of the free-owned pages.
    let mut in_chain = vec![false; pc + 1];
    for &f in &snap.free_chain {
        let fu = f as usize;
        if fu == 0 || fu > pc {
            return Err(corrupt(format!("free_chain entry {f} is not a committed page")));
        }
        if snap.pages[fu - 1].owner != SnapOwner::Free {
            return Err(corrupt(format!("free_chain entry {f} is not free-owned")));
        }
        if in_chain[fu] {
            return Err(corrupt(format!("free_chain lists page {f} twice")));
        }
        in_chain[fu] = true;
    }
    let free_owned = snap.pages.iter().filter(|p| p.owner == SnapOwner::Free).count();
    if free_owned != snap.free_chain.len() {
        return Err(corrupt(format!(
            "{} free-owned pages but free_chain of {}",
            free_owned,
            snap.free_chain.len()
        )));
    }

    // Region page lists against the owner map.
    let mut owned_by: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut gc_owned: Vec<u32> = Vec::new();
    for p in &snap.pages {
        match p.owner {
            SnapOwner::Region(r) => owned_by[r as usize].push(p.page),
            SnapOwner::Gc => gc_owned.push(p.page),
            SnapOwner::Free => {}
        }
    }
    for (i, r) in snap.regions.iter().enumerate() {
        if !r.pages.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt(format!("regions[{i}].pages is not strictly increasing")));
        }
        let words: u64 = r
            .pages
            .iter()
            .map(|&p| if p as usize == 0 || p as usize > pc { 0 } else { used[p as usize] as u64 })
            .sum();
        if i > 0 {
            if r.pages != owned_by[i] {
                return Err(corrupt(format!(
                    "regions[{i}].pages disagrees with the page-map ownership"
                )));
            }
        } else {
            // Region 0's list covers only its bump allocators; the rest of
            // its owned pages are the malloc heap's.
            let mut it = owned_by[0].iter().copied().peekable();
            for &p in &r.pages {
                loop {
                    match it.next() {
                        Some(q) if q == p => break,
                        Some(_) => continue,
                        None => {
                            return Err(corrupt(format!(
                                "regions[0].pages lists page {p} the page map does not assign to region 0"
                            )));
                        }
                    }
                }
            }
        }
        if words != r.live_words {
            return Err(corrupt(format!(
                "regions[{i}] page fill sums to {words}, live_words says {}",
                r.live_words
            )));
        }
    }
    let malloc_pages: Vec<(u32, u32)> = owned_by[0]
        .iter()
        .filter(|p| !snap.regions[0].pages.contains(p))
        .map(|&p| (p, used[p as usize]))
        .collect();
    let malloc_page_words: u64 = malloc_pages.iter().map(|&(_, u)| u as u64).sum();
    if malloc_page_words != snap.malloc_live_words {
        return Err(corrupt(format!(
            "malloc pages hold {malloc_page_words} words, malloc_live_words says {}",
            snap.malloc_live_words
        )));
    }
    let gc_pages: Vec<(u32, u32)> = gc_owned.iter().map(|&p| (p, used[p as usize])).collect();
    let gc_page_words: u64 = gc_pages.iter().map(|&(_, u)| u as u64).sum();
    if gc_page_words != snap.gc_live_words {
        return Err(corrupt(format!(
            "gc pages hold {gc_page_words} words, gc_live_words says {}",
            snap.gc_live_words
        )));
    }

    // Allocator totals.
    if snap.malloc_free_depths.len() != SIZE_CLASSES.len()
        || snap.gc_free_depths.len() != SIZE_CLASSES.len()
    {
        return Err(corrupt("free-depth tables must cover every size class"));
    }
    if snap.malloc_live_words < snap.malloc_live_objects {
        return Err(corrupt("malloc_live_words below malloc_live_objects"));
    }
    if snap.gc_live_words < snap.gc_live_objects {
        return Err(corrupt("gc_live_words below gc_live_objects"));
    }
    if snap.gc_slot_words < snap.gc_live_words {
        return Err(corrupt("gc_slot_words below gc_live_words"));
    }
    if snap.gc_live_objects == 0 && snap.gc_slot_words != 0 {
        return Err(corrupt("gc slot words without gc objects"));
    }
    if snap.stats.live_words != snap.total_live_words() {
        return Err(corrupt(format!(
            "stats.live_words {} breaks the live-word identity (region + malloc + gc = {})",
            snap.stats.live_words,
            snap.total_live_words()
        )));
    }
    if snap.stats.live_underflows > 0 {
        return Err(corrupt(
            "snapshot records live-gauge underflows; such a heap cannot pass audit",
        ));
    }

    // Site table: strictly sorted, every entry on a live region, and the
    // per-region sums matching the region (plus pool) totals.
    let mut region_atoms: Vec<Vec<Atom>> = vec![Vec::new(); n];
    let mut prev: Option<(u32, u32)> = None;
    for (k, s) in snap.sites.iter().enumerate() {
        if let Some(p) = prev {
            if (s.region, s.site) <= p {
                return Err(corrupt(format!("sites[{k}] breaks strict (region, site) order")));
            }
        }
        prev = Some((s.region, s.site));
        if s.region as usize >= n || !snap.regions[s.region as usize].alive {
            return Err(corrupt(format!(
                "sites[{k}] attributes to invalid or dead region {}",
                s.region
            )));
        }
        if s.objects == 0 || s.words < s.objects {
            return Err(corrupt(format!(
                "sites[{k}] has {} objects and {} words (want ≥1 object, ≥1 word each)",
                s.objects, s.words
            )));
        }
        region_atoms[s.region as usize].push(Atom {
            site: s.site,
            objects: s.objects,
            words: s.words,
        });
    }
    for (i, atoms) in region_atoms.iter().enumerate() {
        let o: u64 = atoms.iter().map(|a| a.objects).sum();
        let w: u64 = atoms.iter().map(|a| a.words).sum();
        let (want_o, want_w) = if i == 0 {
            (
                snap.regions[0].objects + snap.malloc_live_objects + snap.gc_live_objects,
                snap.regions[0].live_words + snap.malloc_live_words + snap.gc_live_words,
            )
        } else {
            (snap.regions[i].objects, snap.regions[i].live_words)
        };
        if (o, w) != (want_o, want_w) {
            return Err(corrupt(format!(
                "region {i} site sums ({o} objects, {w} words) disagree with totals ({want_o}, {want_w})"
            )));
        }
    }

    // Span-tree presence: any aggregate or closed_at implies spans were
    // attached; liveness and closure must then agree exactly. An all-zero
    // tree is indistinguishable from no tree and captures identically
    // either way.
    let spans_on = snap.regions.iter().any(|r| {
        r.closed_at.is_some()
            || r.allocs != 0
            || r.alloc_words != 0
            || r.rc_updates != 0
            || r.checks != 0
            || r.checks_failed != 0
            || r.freed_words != 0
            || r.last_touch != 0
    });
    if spans_on {
        for (i, r) in snap.regions.iter().enumerate() {
            if r.alive != r.closed_at.is_none() {
                return Err(corrupt(format!(
                    "regions[{i}]: span closure disagrees with region liveness"
                )));
            }
        }
    }

    Ok(Shape { used, malloc_pages, gc_pages, region_atoms, spans_on })
}

// ---------------------------------------------------------------------------
// Stages 2+3: the region-0 pool split and physical placement
// ---------------------------------------------------------------------------

/// Splits one atom into `objects` record sizes: every record but the last
/// is capped at a page (so it stays eligible as a reference-count witness),
/// and each gets at least one word.
fn atom_sizes(objects: u64, words: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(objects as usize);
    let mut w = words;
    for i in 0..objects {
        let left = objects - i;
        let s = if left == 1 { w } else { (w - (left - 1)).min(PAGE_WORDS) };
        out.push(s);
        w -= s;
    }
    out
}

/// A chain: a maximal run of physically consecutive pool pages in which
/// every page but the last is full. Inside a chain, records of *any*
/// sizes can be bump-packed back to back across page boundaries: the
/// capture-time fold splits a straddling object exactly at full-page
/// boundaries, so as long as the chain is filled to its capacity the
/// per-page folds land on every page's recorded target. Chains are the
/// unit of placement; a chain must be filled exactly.
struct Chain {
    first_page: u32,
    cap: u64,
    used: u64,
}

fn build_chains(pages: &[(u32, u32)]) -> Vec<Chain> {
    let mut chains = Vec::new();
    let mut i = 0;
    while i < pages.len() {
        let first_page = pages[i].0;
        let mut cap = pages[i].1 as u64;
        let mut j = i;
        while pages[j].1 as u64 == PAGE_WORDS
            && j + 1 < pages.len()
            && pages[j + 1].0 == pages[j].0 + 1
        {
            j += 1;
            cap += pages[j].1 as u64;
        }
        chains.push(Chain { first_page, cap, used: 0 });
        i = j + 1;
    }
    chains
}

impl Chain {
    fn gap(&self) -> u64 {
        self.cap - self.used
    }

    /// Bump-allocates `w` words and returns the record address.
    fn take(&mut self, w: u64) -> Addr {
        let a = Addr::from_parts(
            self.first_page + (self.used / PAGE_WORDS) as u32,
            (self.used % PAGE_WORDS) as u32,
        );
        self.used += w;
        a
    }
}

/// Search budget for [`fill_pools`]: nodes of the backtracking tree. The
/// greedy preference order is the first path tried, so genuine captures
/// resolve in one pass; the budget only bounds pathological documents.
const FILL_NODE_BUDGET: u64 = 500_000;

/// A physical pool's exact `(objects, words)` spending quota for
/// [`fill_pools`].
type PoolBudget = (u64, u64);

/// Cuts records for both physical pools (malloc and GC) from the shared
/// region-0 atom pool so that every chain is filled exactly and each pool
/// spends exactly its `(objects, words)` quota; whatever remains in `atoms`
/// is region 0's own bump population, which needs no placement.
///
/// An atom's last object must carry *all* its remaining words (a later
/// record cannot pick them up), so single-object remainders are rigid,
/// all-or-nothing pieces, while multi-object atoms can cut a record of any
/// size that leaves a word for each other object. That makes the cut an
/// exact-packing problem, solved by depth-first search with greedy
/// preference: close the current chain exactly (rigid piece first, then a
/// flexible cut), else — when the pool can still afford a record for every
/// open chain — the largest rigid piece that fits, then the largest
/// flexible cut, then a minimal one-word cut. Chains are visited smallest
/// first so awkward gaps are closed while the atom pool is still diverse.
fn fill_pools(
    pools: [(&[(u32, u32)], PoolBudget); 2],
    atoms: &mut Vec<(u32, u64, u64)>,
) -> Result<[Vec<Rec>; 2], RtError> {
    struct PoolState {
        o_rem: u64,
        w_rem: u64,
    }
    let mut chains: Vec<(u8, Chain)> = Vec::new();
    for (p, (pages, _)) in pools.iter().enumerate() {
        chains.extend(build_chains(pages).into_iter().map(|c| (p as u8, c)));
    }
    chains.sort_by_key(|(_, c)| c.cap);
    let mut state = [
        PoolState { o_rem: pools[0].1 .0, w_rem: pools[0].1 .1 },
        PoolState { o_rem: pools[1].1 .0, w_rem: pools[1].1 .1 },
    ];

    // One DFS frame per record cut: the candidate list for the chain open
    // at that depth, the next candidate to try, and the applied cut.
    struct Frame {
        ci: usize,
        cands: Vec<(usize, u64)>,
        next: usize,
        applied: Option<(usize, u64, Addr)>,
    }
    let candidates = |chains: &[(u8, Chain)],
                      state: &[PoolState],
                      atoms: &[(u32, u64, u64)],
                      ci: usize|
     -> Vec<(usize, u64)> {
        let (p, chain) = &chains[ci];
        let ps = &state[*p as usize];
        let gap = chain.gap();
        if ps.o_rem == 0 || ps.w_rem < gap {
            return Vec::new();
        }
        // Every later chain of this pool needs at least one record of its
        // own (chains are visited in index order, so all are still open).
        let open_after = chains[ci + 1..].iter().filter(|(q, _)| q == p).count() as u64;
        if ps.o_rem < open_after + 1 {
            return Vec::new();
        }
        // Hold back one word for every other record this pool still owes.
        let cap = gap.min(ps.w_rem - (ps.o_rem - 1));
        let mut singles: Vec<(usize, u64)> = atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.1 == 1 && a.2 <= cap)
            .map(|(k, a)| (k, a.2))
            .collect();
        singles.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut multis: Vec<(usize, u64)> = atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.1 >= 2)
            .map(|(k, a)| (k, cap.min(a.2 - (a.1 - 1))))
            .filter(|&(_, s)| s >= 1)
            .collect();
        multis.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        let mut out: Vec<(usize, u64)> = Vec::new();
        out.extend(singles.iter().copied().filter(|&(_, s)| s == gap));
        out.extend(multis.iter().filter(|&&(_, s)| s >= gap).map(|&(k, _)| (k, gap)));
        if ps.o_rem > open_after + 1 {
            // Non-closing cuts are affordable.
            out.extend(singles.iter().copied().filter(|&(_, s)| s < gap));
            out.extend(multis.iter().copied().filter(|&(_, s)| s < gap));
            // Last resort: burn an object on a minimal cut.
            out.extend(multis.iter().filter(|&&(_, s)| s > 1 && s < gap).map(|&(k, _)| (k, 1)));
        }
        out
    };

    let mut frames: Vec<Frame> = Vec::new();
    let mut nodes: u64 = 0;
    let first_open = |chains: &[(u8, Chain)]| chains.iter().position(|(_, c)| c.gap() > 0);
    match first_open(&chains) {
        Some(ci) => {
            let cands = candidates(&chains, &state, atoms, ci);
            frames.push(Frame { ci, cands, next: 0, applied: None });
        }
        None => {
            if state.iter().any(|ps| ps.o_rem != 0) {
                return Err(corrupt(
                    "malloc/gc pools own no occupied pages for their live objects",
                ));
            }
        }
    }
    let mut done = frames.is_empty();
    while !done {
        let Some(f) = frames.last_mut() else {
            return Err(corrupt(
                "region-0 site table cannot be cut to fit the malloc/gc page runs",
            ));
        };
        // Undo the previous attempt at this depth before trying the next.
        if let Some((k, s, _)) = f.applied.take() {
            let p = chains[f.ci].0 as usize;
            chains[f.ci].1.used -= s;
            atoms[k].1 += 1;
            atoms[k].2 += s;
            state[p].o_rem += 1;
            state[p].w_rem += s;
        }
        if f.next >= f.cands.len() {
            frames.pop();
            continue;
        }
        let (k, s) = f.cands[f.next];
        f.next += 1;
        let p = chains[f.ci].0 as usize;
        let addr = chains[f.ci].1.take(s);
        f.applied = Some((k, s, addr));
        atoms[k].1 -= 1;
        atoms[k].2 -= s;
        state[p].o_rem -= 1;
        state[p].w_rem -= s;
        nodes += 1;
        if nodes > FILL_NODE_BUDGET {
            return Err(corrupt("malloc/gc object placement search exceeded its budget"));
        }
        match first_open(&chains) {
            Some(ci) => {
                let cands = candidates(&chains, &state, atoms, ci);
                frames.push(Frame { ci, cands, next: 0, applied: None });
            }
            None => {
                if state.iter().all(|ps| ps.o_rem == 0) {
                    done = true;
                }
                // Otherwise fall through: the loop revisits this frame,
                // undoes the cut, and tries the next candidate.
            }
        }
    }

    let mut out: [Vec<Rec>; 2] = [Vec::new(), Vec::new()];
    for f in &frames {
        if let Some((k, s, addr)) = f.applied {
            let site = atoms[k].0;
            out[chains[f.ci].0 as usize].push(Rec {
                addr,
                size: s,
                site,
                counted: false,
                used_slots: 0,
                placed: true,
            });
        }
    }
    atoms.retain(|a| a.1 > 0);
    for recs in &mut out {
        recs.sort_by_key(|r| r.addr.raw());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Stage 4: reference-count witnesses
// ---------------------------------------------------------------------------

/// Per-region bump cursor for placing witness records on the region's own
/// pages. Synthesized data records are never dereferenced, so the full page
/// is usable as witness capacity regardless of its fill target.
struct RegionCursor {
    page_idx: usize,
    word: u32,
}

fn place_region_rec(rec: &mut Rec, pages: &[u32], cur: &mut RegionCursor) -> bool {
    if rec.size > PAGE_WORDS {
        return false;
    }
    while cur.page_idx < pages.len() {
        if (WORDS_PER_PAGE as u32 - cur.word) as u64 >= rec.size {
            rec.addr = Addr::from_parts(pages[cur.page_idx], cur.word);
            cur.word += rec.size as u32;
            rec.placed = true;
            return true;
        }
        cur.page_idx += 1;
        cur.word = 0;
    }
    false
}

// ---------------------------------------------------------------------------
// The restore entry point
// ---------------------------------------------------------------------------

impl Heap {
    /// Reconstructs a live heap from a snapshot.
    ///
    /// The result is observationally identical to the captured heap: it
    /// passes [`HeapSnapshot::verify_against`] and [`Heap::audit`], and
    /// re-snapshotting it reproduces the source document byte for byte
    /// (all three are enforced before returning). Object addresses and
    /// free-list slots are synthesized — snapshots record aggregates, not
    /// addresses — so the heap is validation-grade: correct for every
    /// observable the snapshot format defines, and allocation-ready for
    /// supervised re-execution.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::SnapshotCorrupt`] naming the first violated
    /// invariant if the document is internally inconsistent, describes an
    /// unsatisfiable object population, or the restored heap fails any of
    /// the three exit gates.
    pub fn restore(snap: &HeapSnapshot) -> Result<Heap, RtError> {
        let shape = validate(snap)?;
        let n = snap.regions.len();

        // Carve region 0's site atoms across its three pools. Malloc and GC
        // need fold-exact physical placement (capture derives their page
        // occupancy from object addresses), so they cut their records from
        // the shared atoms first — the pool needing more surplus words per
        // object picks before the leaner one — and region 0's own bump
        // allocator keeps the remainder, which needs no placement at all
        // (region occupancy is captured from fill vectors).
        let mut shared: Vec<(u32, u64, u64)> =
            shape.region_atoms[0].iter().map(|a| (a.site, a.objects, a.words)).collect();
        let [mut malloc_recs, gc_recs] = fill_pools(
            [
                (&shape.malloc_pages, (snap.malloc_live_objects, snap.malloc_live_words)),
                (&shape.gc_pages, (snap.gc_live_objects, snap.gc_live_words)),
            ],
            &mut shared,
        )?;
        let rem: (u64, u64) = shared.iter().fold((0, 0), |t, a| (t.0 + a.1, t.1 + a.2));
        if rem != (snap.regions[0].objects, snap.regions[0].live_words) {
            return Err(corrupt("region-0 site table cannot be partitioned across its pools"));
        }
        let r0_atoms: Vec<Atom> =
            shared.iter().map(|&(site, objects, words)| Atom { site, objects, words }).collect();

        // Region records: sizes from the site atoms; addresses are dummies
        // (region occupancy is captured from fill vectors, and data layouts
        // are never dereferenced) until one is placed as a witness.
        let mut region_recs: Vec<Vec<Rec>> = Vec::with_capacity(n);
        for (i, rs) in snap.regions.iter().enumerate() {
            let atoms = if i == 0 { &r0_atoms } else { &shape.region_atoms[i] };
            let mut recs = Vec::new();
            if !atoms.is_empty() {
                // objects > 0 ⇒ live_words > 0 ⇒ at least one page.
                let dummy = Addr::from_parts(rs.pages[0], 0);
                for a in atoms {
                    for s in atom_sizes(a.objects, a.words) {
                        recs.push(Rec {
                            addr: dummy,
                            size: s,
                            site: a.site,
                            counted: false,
                            used_slots: 0,
                            placed: false,
                        });
                    }
                }
            }
            region_recs.push(recs);
        }

        // Witness every live region's external count with counted-pointer
        // slots in other containers.
        let mut writes: Vec<(Addr, u64)> = Vec::new();
        let mut cursors: Vec<RegionCursor> =
            (0..n).map(|_| RegionCursor { page_idx: 0, word: 0 }).collect();
        for t in 0..n {
            let rt = &snap.regions[t];
            if !rt.alive || rt.rc - rt.pins == 0 {
                continue;
            }
            let mut need = (rt.rc - rt.pins) as u64;
            let target = if t > 0 {
                let &page = rt.pages.first().ok_or_else(|| {
                    corrupt(format!(
                        "regions[{t}] has {} external references but no object to reference",
                        need
                    ))
                })?;
                Addr::from_parts(page, 0)
            } else {
                let page = snap.regions[0]
                    .pages
                    .first()
                    .copied()
                    .or_else(|| shape.malloc_pages.first().map(|&(p, _)| p))
                    .or_else(|| shape.gc_pages.first().map(|&(p, _)| p))
                    .ok_or_else(|| {
                        corrupt("region 0 has external references but owns no referable page")
                    })?;
                Addr::from_parts(page, 0)
            };
            // Malloc objects are the natural holders (container = region 0).
            if t > 0 {
                for rec in malloc_recs.iter_mut() {
                    while need > 0 && rec.size <= PAGE_WORDS && (rec.used_slots as u64) < rec.size {
                        rec.counted = true;
                        writes.push((rec.addr.offset(rec.used_slots as usize), target.raw()));
                        rec.used_slots += 1;
                        need -= 1;
                    }
                    if need == 0 {
                        break;
                    }
                }
            }
            // Then region objects of any other live container.
            for s in 0..n {
                if need == 0 {
                    break;
                }
                if s == t || !snap.regions[s].alive {
                    continue;
                }
                let pages = snap.regions[s].pages.clone();
                for rec in region_recs[s].iter_mut() {
                    if need == 0 {
                        break;
                    }
                    if !rec.placed && !place_region_rec(rec, &pages, &mut cursors[s]) {
                        continue;
                    }
                    if rec.size > PAGE_WORDS {
                        continue;
                    }
                    while need > 0 && (rec.used_slots as u64) < rec.size {
                        rec.counted = true;
                        writes.push((rec.addr.offset(rec.used_slots as usize), target.raw()));
                        rec.used_slots += 1;
                        need -= 1;
                    }
                }
            }
            if need > 0 {
                return Err(corrupt(format!(
                    "regions[{t}] claims {} external references but only {} can be witnessed",
                    rt.rc - rt.pins,
                    (rt.rc - rt.pins) as u64 - need
                )));
            }
        }

        // Materialize types: one shared unit data layout (records carry the
        // size in their element count) plus one holder layout per witness
        // size.
        let mut types = TypeTable::new();
        let unit = types.register(TypeLayout::data("snap_data", 1));
        let mut holders: HashMap<u64, TypeId> = HashMap::new();
        let mut ty_of = |types: &mut TypeTable, rec: &Rec| -> (TypeId, u32) {
            if rec.counted {
                let ty = *holders.entry(rec.size).or_insert_with(|| {
                    types.register(TypeLayout::new(
                        format!("snap_holder_{}", rec.size),
                        vec![SlotKind::Ptr(PtrKind::Counted); rec.size as usize],
                    ))
                });
                (ty, 1)
            } else {
                (unit, rec.size as u32)
            }
        };

        let mut malloc_live: HashMap<u64, MallocObj> = HashMap::new();
        for rec in &malloc_recs {
            let (ty, count) = ty_of(&mut types, rec);
            malloc_live.insert(
                rec.addr.raw(),
                MallocObj {
                    ty,
                    count,
                    class: size_class(rec.size as usize).map(|c| c as u8),
                    span_pages: if rec.size > PAGE_WORDS {
                        rec.size.div_ceil(PAGE_WORDS) as u32
                    } else {
                        0
                    },
                    words: rec.size as u32,
                    site: rec.site,
                },
            );
        }
        let gc_pad = snap.gc_slot_words - snap.gc_live_words;
        let mut gc_objects: std::collections::BTreeMap<u64, GcObj> =
            std::collections::BTreeMap::new();
        for (k, rec) in gc_recs.iter().enumerate() {
            let (ty, count) = ty_of(&mut types, rec);
            let pad = if k + 1 == gc_recs.len() { gc_pad } else { 0 };
            let slot = rec.size + pad;
            if slot > u32::MAX as u64 {
                return Err(corrupt("gc slot padding exceeds the u32 slot field"));
            }
            gc_objects.insert(
                rec.addr.raw(),
                GcObj {
                    ty,
                    count,
                    slot_words: slot as u32,
                    words: rec.size as u32,
                    class: size_class(rec.size as usize).map(|c| c as u8),
                    span_pages: if rec.size > PAGE_WORDS {
                        rec.size.div_ceil(PAGE_WORDS) as u32
                    } else {
                        0
                    },
                    marked: false,
                    site: rec.site,
                },
            );
        }

        // Free lists reproduce per-class depths with placeholder slots on
        // the reserved page 0 (snapshots record depths, not addresses).
        let placeholder_lists = |depths: &[u32]| -> Vec<Vec<Addr>> {
            depths
                .iter()
                .map(|&d| (0..d).map(|j| Addr::from_parts(0, j % WORDS_PER_PAGE as u32)).collect())
                .collect()
        };

        // Assemble the page store and apply the witness writes.
        let owners: Vec<PageOwner> = snap
            .pages
            .iter()
            .map(|p| match p.owner {
                SnapOwner::Free => PageOwner::Free,
                SnapOwner::Gc => PageOwner::Gc,
                SnapOwner::Region(r) => PageOwner::Region(RegionId(r)),
            })
            .collect();
        let mut store = PageStore::from_snapshot(owners, snap.free_chain.clone(), 0);
        for &(a, v) in &writes {
            store.write(a, v);
        }

        // Region table.
        let mut regions: Vec<RegionData> = Vec::with_capacity(n);
        for (i, rs) in snap.regions.iter().enumerate() {
            let normal = if rs.alive {
                let fill: Vec<u32> = rs.pages.iter().map(|&p| shape.used[p as usize]).collect();
                let objs: Vec<AllocRecord> = region_recs[i]
                    .iter()
                    .map(|rec| {
                        let (ty, count) = ty_of(&mut types, rec);
                        AllocRecord { addr: rec.addr, ty, count, site: rec.site }
                    })
                    .collect();
                BumpAlloc::from_snapshot(rs.pages.clone(), fill, objs, rs.live_words)
            } else {
                BumpAlloc::new()
            };
            regions.push(RegionData {
                alive: rs.alive,
                doomed: rs.doomed,
                rc: rs.rc,
                pins: rs.pins,
                id: rs.dfs_id,
                nextid: rs.dfs_nextid,
                child_cursor: rs.dfs_nextid,
                born_at: rs.born_at,
                parent: rs.parent.map(RegionId),
                children: Vec::new(),
                normal,
                pointerfree: BumpAlloc::new(),
            });
        }
        for i in 1..n {
            let rs = &snap.regions[i];
            if rs.alive {
                if let Some(p) = rs.parent {
                    regions[p as usize].children.push(RegionId(i as u32));
                }
            }
        }

        let any_doomed = snap.regions.iter().any(|r| r.doomed);
        let mut clock = Clock::new();
        clock.charge(snap.at_cycles);

        let mut heap = Heap {
            store,
            regions,
            types,
            rc_enabled: true,
            delete_policy: if any_doomed { DeletePolicy::Deferred } else { DeletePolicy::Abort },
            numbering: NumberingScheme::RenumberOnCreate,
            malloc: MallocState::from_snapshot(
                placeholder_lists(&snap.malloc_free_depths),
                malloc_live,
            ),
            gc: GcState::from_snapshot(
                gc_objects,
                placeholder_lists(&snap.gc_free_depths),
                HeapConfig::default().gc_threshold_words,
            ),
            stats: snap.stats.clone(),
            clock,
            costs: CostModel::paper(),
            observers: None,
            trace_site: 0,
            sample_countdown: 0,
            timeline: None,
            fault_alloc: None,
            fault_rc: None,
            fault_check: None,
            check_site: crate::checkcount::NO_CHECK_SITE,
        };

        if shape.spans_on {
            let spans = snap.regions.iter().map(span_from).collect();
            heap.observers_mut().spans = Some(Box::new(SpanTree::from_snapshot(spans)));
        }

        // The three exit gates: a restored heap must verify, audit clean,
        // and re-snapshot byte-identically.
        snap.verify_against(&heap)
            .map_err(|e| corrupt(format!("restored heap failed verification: {e}")))?;
        heap.audit().map_err(|e| corrupt(format!("restored heap failed audit: {e}")))?;
        renders_same(snap, &snap.resnapshot(&heap)).map_err(corrupt)?;
        Ok(heap)
    }
}

/// The byte-identity gate: the restored heap's re-snapshot `again` must
/// render as the source document `want` does. Equal snapshots render
/// equally, so the two are rendered only when they differ, which keeps
/// the gate's verdict and names the first differing lines.
fn renders_same(want: &HeapSnapshot, again: &HeapSnapshot) -> Result<(), String> {
    if want == again {
        return Ok(());
    }
    let (want, again) = (want.render(), again.render());
    if want == again {
        return Ok(());
    }
    let diff = want
        .lines()
        .zip(again.lines())
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .take(12)
        .map(|(k, (a, b))| format!("line {}: {} != {}", k + 1, a.trim(), b.trim()))
        .collect::<Vec<_>>()
        .join("; ");
    let diff = if diff.is_empty() { "document lengths differ".to_string() } else { diff };
    Err(format!("restored heap re-snapshot diverges from the source document ({diff})"))
}

/// Rebuilds one region's lifecycle span from its snapshot row. The parent
/// of a reclaimed region is gone from the snapshot (reclaim severs the
/// link); [`NO_REGION`] stands in, which no capture-side observable reads.
fn span_from(rs: &RegionSnapshot) -> Span {
    Span {
        region: rs.region,
        parent: rs.parent.map_or(NO_REGION, |p| p),
        opened_at: rs.born_at,
        closed_at: rs.closed_at,
        allocs: rs.allocs,
        alloc_words: rs.alloc_words,
        rc_updates: rs.rc_updates,
        checks: rs.checks,
        checks_failed: rs.checks_failed,
        faults: 0,
        freed_words: rs.freed_words,
        last_touch: rs.last_touch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TypeLayout;
    use crate::rcops::WriteMode;
    use crate::snapshot::SnapshotReason;

    /// Restore must be an exact fixpoint of this heap's snapshot.
    fn assert_fixpoint(h: &Heap) {
        let snap = h.snapshot(SnapshotReason::Exit);
        snap.verify_against(h).expect("source snapshot verifies");
        let restored = Heap::restore(&snap).expect("restore succeeds");
        let again = snap.resnapshot(&restored);
        assert_eq!(again.render(), snap.render(), "snapshot ∘ restore is the identity");
        assert_eq!(restored.stats.live_words, h.stats.live_words);
        assert_eq!(restored.region_live_words(), h.region_live_words());
        restored.audit().expect("restored heap audits clean");
    }

    #[test]
    fn restores_fresh_heap() {
        assert_fixpoint(&Heap::with_defaults());
    }

    #[test]
    fn restores_worked_heap_with_all_allocators() {
        // Mirrors snapshot.rs's worked_heap: regions, malloc, gc, spans,
        // sites, and a deleted region.
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("cell", 3));
        let big = h.register_type(TypeLayout::data("big", 2000));
        h.enable_spans();
        let r1 = h.new_region();
        let r2 = h.new_subregion(r1).unwrap();
        h.set_trace_site(7);
        h.ralloc(r1, ty).unwrap();
        h.rarray_alloc(r1, ty, 4).unwrap();
        h.set_trace_site(12);
        h.ralloc(r2, big).unwrap();
        let m = h.m_alloc(ty, 2).unwrap();
        h.m_alloc(big, 1).unwrap();
        h.m_free(m).unwrap();
        let g = h.gc_alloc(ty, 5).unwrap();
        h.gc_alloc(ty, 1).unwrap();
        h.gc_collect(&[g.raw()]);
        h.delete_region(r2).unwrap();
        assert_fixpoint(&h);
    }

    #[test]
    fn restores_nonzero_reference_counts() {
        // A malloc global points into a region, and a region object points
        // into a sibling: both rc's must be witnessed by the restored heap.
        let mut h = Heap::with_defaults();
        let holder =
            h.register_type(TypeLayout::new("holder", vec![SlotKind::Ptr(PtrKind::Counted); 2]));
        let cell = h.register_type(TypeLayout::data("cell", 2));
        let ra = h.new_region();
        let rb = h.new_region();
        let a = h.ralloc(ra, cell).unwrap();
        let b = h.ralloc(rb, cell).unwrap();
        let g = h.m_alloc(holder, 1).unwrap();
        h.write_ptr(g, 0, a, WriteMode::Counted).unwrap();
        h.write_ptr(g, 1, b, WriteMode::Counted).unwrap();
        let ha = h.ralloc(ra, holder).unwrap();
        h.write_ptr(ha, 0, b, WriteMode::Counted).unwrap();
        assert_eq!(h.regions[rb.0 as usize].rc, 2);
        h.audit().unwrap();
        assert_fixpoint(&h);
    }

    #[test]
    fn restores_doomed_region_under_deferred_policy() {
        let mut h = Heap::new(HeapConfig {
            delete_policy: DeletePolicy::Deferred,
            ..HeapConfig::default()
        });
        let holder =
            h.register_type(TypeLayout::new("holder", vec![SlotKind::Ptr(PtrKind::Counted)]));
        let cell = h.register_type(TypeLayout::data("cell", 2));
        let r = h.new_region();
        let obj = h.ralloc(r, cell).unwrap();
        let g = h.m_alloc(holder, 1).unwrap();
        h.write_ptr(g, 0, obj, WriteMode::Counted).unwrap();
        h.delete_region(r).unwrap();
        assert!(h.regions[r.0 as usize].doomed);
        assert!(h.regions[r.0 as usize].alive);
        assert_fixpoint(&h);
        let snap = h.snapshot(SnapshotReason::Exit);
        let restored = Heap::restore(&snap).unwrap();
        assert!(restored.regions[r.0 as usize].doomed, "doomed flag survives restore");
    }

    #[test]
    fn restored_heap_accepts_new_work() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("cell", 4));
        let r = h.new_region();
        h.ralloc(r, ty).unwrap();
        let snap = h.snapshot(SnapshotReason::Exit);
        let mut restored = Heap::restore(&snap).unwrap();
        // The restored heap is live: allocate, create regions, audit.
        let ty2 = restored.register_type(TypeLayout::data("more", 8));
        let r2 = restored.new_region();
        restored.ralloc(r2, ty2).unwrap();
        restored.ralloc(RegionId(r.0), ty2).unwrap();
        restored.audit().unwrap();
        assert_eq!(
            restored.stats.live_words,
            h.stats.live_words + 16,
            "live gauge continues from the captured value"
        );
    }

    #[test]
    fn round_trips_through_json() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("cell", 3));
        let r = h.new_region();
        h.ralloc(r, ty).unwrap();
        h.m_alloc(ty, 2).unwrap();
        let mut snap = h.snapshot(SnapshotReason::Trap);
        snap.label = "unit/restore".to_string();
        let text = snap.render();
        let doc = crate::json::Json::parse(&text).unwrap();
        let parsed = HeapSnapshot::from_json(&doc).unwrap();
        let restored = Heap::restore(&parsed).unwrap();
        assert_eq!(parsed.resnapshot(&restored).render(), text);
    }

    #[test]
    fn resnapshot_gate_names_the_diverging_line() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("cell", 3));
        let r = h.new_region();
        h.ralloc(r, ty).unwrap();
        h.m_alloc(ty, 2).unwrap();
        let snap = h.snapshot(SnapshotReason::Exit);
        assert_eq!(renders_same(&snap, &snap.clone()), Ok(()));

        let mut moved = snap.clone();
        moved.malloc_live_words += 1;
        let line = snap.render().lines().position(|l| l.contains("\"malloc_live_words\"")).unwrap();
        let err = renders_same(&snap, &moved).unwrap_err();
        assert!(err.starts_with("restored heap re-snapshot diverges"), "{err}");
        assert!(err.contains(&format!("(line {}: \"malloc_live_words\"", line + 1)), "{err}");
        assert!(!err.contains("; line"), "no other line differs: {err}");
    }

    #[test]
    fn rejects_duplicate_region_ids() {
        let mut h = Heap::with_defaults();
        let _ = h.new_region();
        let mut snap = h.snapshot(SnapshotReason::Exit);
        snap.regions[1].region = 0;
        let err = Heap::restore(&snap).unwrap_err();
        assert!(matches!(err, RtError::SnapshotCorrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("duplicate or shuffled"), "{err}");
    }

    #[test]
    fn rejects_inconsistent_accounting() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("cell", 3));
        let r = h.new_region();
        h.ralloc(r, ty).unwrap();
        let base = h.snapshot(SnapshotReason::Exit);

        let mut bad = base.clone();
        bad.regions[1].live_words += 1;
        assert!(matches!(Heap::restore(&bad).unwrap_err(), RtError::SnapshotCorrupt { .. }));

        let mut bad = base.clone();
        bad.free_chain.push(9999);
        assert!(matches!(Heap::restore(&bad).unwrap_err(), RtError::SnapshotCorrupt { .. }));

        let mut bad = base.clone();
        bad.stats.live_words += 5;
        assert!(matches!(Heap::restore(&bad).unwrap_err(), RtError::SnapshotCorrupt { .. }));

        let mut bad = base.clone();
        bad.regions[1].rc = 3; // nothing can witness these references
        assert!(matches!(Heap::restore(&bad).unwrap_err(), RtError::SnapshotCorrupt { .. }));

        let mut bad = base;
        bad.regions[1].parent = Some(7);
        assert!(matches!(Heap::restore(&bad).unwrap_err(), RtError::SnapshotCorrupt { .. }));
    }
}
