//! Property tests for snapshot restore.
//!
//! For each of 48 SplitMix64 seeds, a random workout drives every
//! allocator — region tree create/delete, bump allocation, malloc
//! alloc/free, GC alloc/collect, counted-pointer stores that raise region
//! reference counts, spans on and off — then asserts the restore
//! contract:
//!
//! 1. `Heap::restore(snapshot(h))` succeeds;
//! 2. the live-word identity holds three ways: original heap, snapshot,
//!    and restored heap all agree on `live_words` (total and per the
//!    region tree);
//! 3. the source snapshot `verify_against` the *restored* heap — the
//!    restored heap is indistinguishable from the captured one for every
//!    observable the snapshot defines;
//! 4. the restored heap passes its own `audit` (reference counts are
//!    witnessed by real counted pointers);
//! 5. re-snapshotting the restored heap reproduces the document byte for
//!    byte (the fixpoint the recovery matrix gates on).
//!
//! Hand-rolled SplitMix64 over fixed seeds (offline build, no proptest):
//! every failure reproduces by seed.

use region_rt::{Heap, PtrKind, RegionId, SlotKind, SnapshotReason, TypeLayout, WriteMode};

/// SplitMix64: tiny, well-distributed, and deterministic across platforms.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Builds a randomly worked heap exercising everything a snapshot
/// records, including non-zero reference counts the restore layer must
/// witness with synthesized counted pointers.
fn workout(seed: u64) -> Heap {
    let mut rng = Rng::new(0xC0FF ^ seed);
    let mut h = Heap::with_defaults();
    if rng.bool() {
        h.enable_spans();
    }
    let types: Vec<_> = (0..4)
        .map(|i| {
            let words = rng.range(1, 600);
            h.register_type(TypeLayout::data(format!("t{i}"), words))
        })
        .collect();
    let holder =
        h.register_type(TypeLayout::new("holder", vec![SlotKind::Ptr(PtrKind::Counted); 3]));

    let mut regions: Vec<RegionId> = vec![region_rt::TRADITIONAL];
    let mut parent: Vec<usize> = vec![0];
    let mut alive: Vec<bool> = vec![true];
    let mut mallocs: Vec<region_rt::Addr> = Vec::new();
    let mut gc_roots: Vec<u64> = Vec::new();
    // Counted-holder objects (addr, container region index) and counted
    // targets (addr, container region index). Pointers are only stored
    // into region indices that stay alive: deleting a region with a
    // non-zero count aborts, so the model never deletes a pointee or a
    // pointer-holding container.
    let mut holders: Vec<(region_rt::Addr, usize, u32)> = Vec::new();
    let mut targets: Vec<(region_rt::Addr, usize)> = Vec::new();
    let mut pinned: Vec<bool> = vec![true];

    for _ in 0..rng.range(20, 120) {
        match rng.below(12) {
            0 | 1 => {
                let p = rng.below(regions.len());
                if alive[p] {
                    let r = h.new_subregion(regions[p]).unwrap();
                    regions.push(r);
                    parent.push(p);
                    alive.push(true);
                    pinned.push(false);
                }
            }
            2..=4 => {
                let i = rng.below(regions.len());
                if alive[i] {
                    h.set_trace_site(rng.below(6) as u32);
                    let ty = types[rng.below(types.len())];
                    let a = if rng.bool() {
                        h.ralloc(regions[i], ty).unwrap()
                    } else {
                        h.rarray_alloc(regions[i], ty, rng.range(1, 4) as u32).unwrap()
                    };
                    if rng.below(3) == 0 {
                        targets.push((a, i));
                    }
                }
            }
            5 | 6 => {
                h.set_trace_site(rng.below(6) as u32);
                let ty = types[rng.below(types.len())];
                mallocs.push(h.m_alloc(ty, rng.range(1, 3) as u32).unwrap());
                if mallocs.len() > 3 && rng.bool() {
                    let a = mallocs.swap_remove(rng.below(mallocs.len()));
                    h.m_free(a).unwrap();
                }
            }
            7 => {
                h.set_trace_site(rng.below(6) as u32);
                let ty = types[rng.below(types.len())];
                let a = h.gc_alloc(ty, 1).unwrap();
                if rng.below(3) == 0 {
                    gc_roots.push(a.raw());
                }
            }
            // Allocate a counted-pointer holder (region or malloc heap).
            8 => {
                h.set_trace_site(rng.below(6) as u32);
                if rng.bool() {
                    let a = h.m_alloc(holder, 1).unwrap();
                    holders.push((a, 0, 0));
                    pinned[0] = true;
                } else {
                    let i = rng.below(regions.len());
                    if alive[i] {
                        let a = h.ralloc(regions[i], holder).unwrap();
                        holders.push((a, i, 0));
                        pinned[i] = true;
                    }
                }
            }
            // Store a counted pointer: raises the target region's rc
            // unless holder and target share a region.
            9 => {
                if !holders.is_empty() && !targets.is_empty() {
                    let hi = rng.below(holders.len());
                    let (ha, _, used) = holders[hi];
                    if used < 3 {
                        let (ta, ti) = targets[rng.below(targets.len())];
                        h.write_ptr(ha, used as usize, ta, WriteMode::Counted).unwrap();
                        holders[hi].2 += 1;
                        pinned[ti] = true;
                    }
                }
            }
            _ => {
                if rng.bool() {
                    let i = rng.below(regions.len());
                    let childless =
                        !(0..regions.len()).any(|c| alive[c] && parent[c] == i && c != i);
                    if i != 0 && alive[i] && childless && !pinned[i] {
                        h.delete_region(regions[i]).unwrap();
                        alive[i] = false;
                        // Objects of a reclaimed region are no longer
                        // valid pointer targets.
                        targets.retain(|&(_, t)| t != i);
                    }
                } else {
                    h.gc_collect(&gc_roots);
                }
            }
        }
    }
    h
}

#[test]
fn restore_is_a_fixpoint_on_random_heaps() {
    let mut witnessed_rc = false;
    for seed in 0..48u64 {
        let h = workout(seed);
        h.audit().unwrap_or_else(|e| panic!("seed {seed}: source heap audit failed: {e:?}"));
        let mut snap = h.snapshot(SnapshotReason::Exit);
        snap.label = format!("restore-props/seed{seed}");
        snap.verify_against(&h)
            .unwrap_or_else(|e| panic!("seed {seed}: source cross-check failed: {e}"));
        witnessed_rc |= snap.regions.iter().any(|r| r.rc - r.pins > 0);

        let restored =
            Heap::restore(&snap).unwrap_or_else(|e| panic!("seed {seed}: restore failed: {e}"));

        // Three-way live-word identity: heap, snapshot, restored heap.
        assert_eq!(
            (h.stats.live_words, h.region_live_words()),
            (snap.stats.live_words, snap.region_live_words()),
            "seed {seed}: snapshot disagrees with source heap"
        );
        assert_eq!(
            (restored.stats.live_words, restored.region_live_words()),
            (h.stats.live_words, h.region_live_words()),
            "seed {seed}: restored heap disagrees with source heap"
        );

        snap.verify_against(&restored)
            .unwrap_or_else(|e| panic!("seed {seed}: restored heap fails verification: {e}"));
        restored
            .audit()
            .unwrap_or_else(|e| panic!("seed {seed}: restored heap fails audit: {e:?}"));
        assert_eq!(
            snap.resnapshot(&restored).render(),
            snap.render(),
            "seed {seed}: restore is not a snapshot fixpoint"
        );
    }
    assert!(
        witnessed_rc,
        "the seed set never exercised a non-zero external count; widen the workout"
    );
}
