//! Auditor coverage: random region DAGs with counted pointers must pass
//! `audit`, and a deliberately corrupted count must be caught as
//! [`AuditError::BadCount`] naming the corrupted region.

use region_rt::{
    Addr, AuditError, Heap, PtrKind, RegionId, SlotKind, TypeLayout, WriteMode,
};

/// SplitMix64 (offline environment — no proptest; failures reproduce by
/// seed).
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
}

/// Builds a random region DAG: a random subregion hierarchy, objects
/// scattered across the regions, and random counted pointers between
/// them (the "DAG" is the cross-region reference graph; cycles within it
/// are legal and exercised too). The maintained counts must satisfy the
/// auditor after every construction.
#[test]
fn random_region_dag_with_counted_pointers_passes_audit() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::new(
            "n",
            vec![
                SlotKind::Ptr(PtrKind::Counted),
                SlotKind::Ptr(PtrKind::Counted),
                SlotKind::Data,
            ],
        ));

        // Random hierarchy of 1..8 regions.
        let mut regions: Vec<RegionId> = vec![h.new_region()];
        for _ in 0..rng.below(7) {
            let parent = regions[rng.below(regions.len())];
            regions.push(h.new_subregion(parent).unwrap());
        }
        // Objects scattered across regions (and a couple of malloc
        // "globals", which also hold counted pointers).
        let mut objs: Vec<Addr> = Vec::new();
        for _ in 0..rng.below(24) + 2 {
            objs.push(h.ralloc(regions[rng.below(regions.len())], ty).unwrap());
        }
        for _ in 0..rng.below(3) {
            objs.push(h.m_alloc(ty, 1).unwrap());
        }
        // Random counted links, with occasional overwrites and nulls.
        for _ in 0..rng.below(64) {
            let a = objs[rng.below(objs.len())];
            let slot = rng.below(2);
            let val = if rng.below(8) == 0 { Addr::NULL } else { objs[rng.below(objs.len())] };
            h.write_ptr(a, slot, val, WriteMode::Counted).unwrap();
        }

        h.audit().unwrap_or_else(|e| panic!("seed {seed}: audit failed: {e}"));
    }
}

/// Page-level accounting ground truth: across random region DAG
/// create/alloc/delete sequences (with malloc and GC traffic mixed in),
/// the pages-in-use figure reported by timeline snapshots must always
/// equal what the page map itself says, the committed pages must
/// partition exactly into in-use and free, and the allocator-side count
/// of region pages must match the page map's owner entries.
#[test]
fn snapshot_page_accounting_matches_page_map_ground_truth() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x5851_F42D));
        let mut h = Heap::with_defaults();
        h.enable_sampling(7, 64);
        let ty = h.register_type(TypeLayout::new(
            "n",
            vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data],
        ));
        // A large pointer-free type so spans and the pointerfree allocator
        // are exercised too.
        let big = h.register_type(TypeLayout::data("big", 1500));

        let mut regions: Vec<RegionId> = Vec::new();
        let mut mallocs: Vec<Addr> = Vec::new();
        for step in 0..rng.below(120) + 40 {
            match rng.below(10) {
                0 | 1 => {
                    let parent = if regions.is_empty() || rng.below(2) == 0 {
                        None
                    } else {
                        Some(regions[rng.below(regions.len())])
                    };
                    let r = match parent {
                        Some(p) => h.new_subregion(p).unwrap(),
                        None => h.new_region(),
                    };
                    regions.push(r);
                }
                2..=5 => {
                    if let Some(&r) = regions.get(rng.below(regions.len().max(1))) {
                        let t = if rng.below(5) == 0 { big } else { ty };
                        h.ralloc(r, t).unwrap();
                    }
                }
                6 => {
                    // Delete a leaf region (no children), if one exists.
                    if let Some(pos) = (0..regions.len())
                        .find(|&i| h.region_alive(regions[i]) && h.delete_region(regions[i]).is_ok())
                    {
                        regions.remove(pos);
                    }
                }
                7 => mallocs.push(h.m_alloc(ty, (rng.below(4) + 1) as u32).unwrap()),
                8 => {
                    if !mallocs.is_empty() {
                        let m = mallocs.swap_remove(rng.below(mallocs.len()));
                        h.m_free(m).unwrap();
                    }
                }
                _ => {
                    h.gc_alloc(ty, 1).unwrap();
                    if h.gc_should_collect() {
                        h.gc_collect(&[]);
                    }
                }
            }

            // Every few steps, force a snapshot and compare it against the
            // page map's ground truth.
            if step % 5 == 0 {
                h.sample_now();
                let s = *h.timeline().unwrap().samples().last().unwrap();
                let g = s.gauges;
                // Recompute in-use pages straight from the owner map (the
                // reserved page 0 is Free and never counts).
                let st = h.page_store();
                let truth_in_use = (0..st.page_count() as u32)
                    .filter(|&p| st.owner(p) != region_rt::page::PageOwner::Free)
                    .count();
                assert_eq!(
                    g.pages_in_use as usize, truth_in_use,
                    "seed {seed} step {step}: snapshot vs page map"
                );
                assert_eq!(
                    g.pages_committed,
                    g.pages_in_use + g.pages_free,
                    "seed {seed} step {step}: committed must partition into in-use + free"
                );
                assert_eq!(
                    g.region_pages,
                    h.mapped_region_pages(),
                    "seed {seed} step {step}: allocator page lists vs page-map owners"
                );
                let occupied: u32 = g.occupancy.iter().sum();
                assert_eq!(
                    occupied, g.region_pages,
                    "seed {seed} step {step}: every region page lands in exactly one bucket"
                );
            }
        }
        h.audit().unwrap_or_else(|e| panic!("seed {seed}: audit failed: {e}"));
    }
}

/// A count corrupted behind the barrier's back (a raw store of a
/// cross-region pointer) is reported as `BadCount` for the *target*
/// region — the one whose maintained count no longer matches reality.
#[test]
fn corrupted_count_is_caught_with_the_right_region() {
    let mut h = Heap::with_defaults();
    let ty = h.register_type(TypeLayout::new(
        "n",
        vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data],
    ));
    let r1 = h.new_region();
    let r2 = h.new_region();
    let a = h.ralloc(r1, ty).unwrap();
    let b = h.ralloc(r2, ty).unwrap();
    // Legitimate link first: r2's count is 1 and the audit passes.
    h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
    h.audit().unwrap();
    // Corruption: overwrite with a raw store. The slot now reads null but
    // r2's maintained count still says 1.
    h.write_ptr(a, 0, Addr::NULL, WriteMode::Raw).unwrap();
    match h.audit() {
        Err(AuditError::BadCount { region, maintained, actual }) => {
            assert_eq!(region, r2, "the corrupted region is named");
            assert_eq!(maintained, 1);
            assert_eq!(actual, 0);
        }
        other => panic!("expected BadCount for {r2:?}, got {other:?}"),
    }
}
