//! Property tests for the heap-snapshot subsystem.
//!
//! For each of 48 SplitMix64 seeds, a random workout drives every
//! allocator the snapshot covers — region tree create/delete, bump
//! allocation (objects and arrays), malloc alloc/free, GC alloc/collect,
//! spans on and off — and then asserts the snapshot contract:
//!
//! 1. `snapshot → render → Json::parse → from_json` rebuilds an
//!    identical value that re-renders byte-identically;
//! 2. `verify_against` passes, i.e. the snapshot's region/word totals
//!    agree with the `Heap`'s gauges and `Stats` along all three
//!    attribution paths (region tree, page map, site table);
//! 3. the heap's own auditor stays green, so the state being
//!    photographed is itself consistent.
//!
//! Hand-rolled SplitMix64 over fixed seeds (offline build, no proptest):
//! every failure reproduces by seed.

use region_rt::{Heap, HeapSnapshot, Json, RegionId, SnapshotReason, TypeLayout};

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

/// Builds a randomly worked heap. Returns the heap with a mix of live and
/// reclaimed regions, live and freed malloc objects, and collected GC
/// state; on odd-ish seeds spans are recorded.
fn workout(seed: u64) -> Heap {
    let mut rng = Rng::new(0x54AF ^ seed);
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

    // Model of the region tree: parent index per region, liveness.
    let mut regions: Vec<RegionId> = vec![region_rt::TRADITIONAL];
    let mut parent: Vec<usize> = vec![0];
    let mut alive: Vec<bool> = vec![true];
    let mut mallocs: Vec<region_rt::Addr> = Vec::new();
    let mut gc_roots: Vec<u64> = Vec::new();

    for _ in 0..rng.range(20, 120) {
        match rng.below(10) {
            // Create a region, sometimes nested.
            0 | 1 => {
                let p = rng.below(regions.len());
                if alive[p] {
                    let r = h.new_subregion(regions[p]).unwrap();
                    regions.push(r);
                    parent.push(p);
                    alive.push(true);
                }
            }
            // Bump-allocate into a random live region, attributed to a
            // random "source line" (0 = unattributed also covered).
            2..=4 => {
                let i = rng.below(regions.len());
                if alive[i] {
                    h.set_trace_site(rng.below(6) as u32);
                    let ty = types[rng.below(types.len())];
                    if rng.bool() {
                        h.ralloc(regions[i], ty).unwrap();
                    } else {
                        h.rarray_alloc(regions[i], ty, rng.range(1, 4) as u32).unwrap();
                    }
                }
            }
            // Malloc, sometimes freeing an older object.
            5 | 6 => {
                h.set_trace_site(rng.below(6) as u32);
                let ty = types[rng.below(types.len())];
                mallocs.push(h.m_alloc(ty, rng.range(1, 3) as u32).unwrap());
                if mallocs.len() > 3 && rng.bool() {
                    let a = mallocs.swap_remove(rng.below(mallocs.len()));
                    h.m_free(a).unwrap();
                }
            }
            // GC-allocate; a third of the objects become roots.
            7 | 8 => {
                h.set_trace_site(rng.below(6) as u32);
                let ty = types[rng.below(types.len())];
                let a = h.gc_alloc(ty, 1).unwrap();
                if rng.below(3) == 0 {
                    gc_roots.push(a.raw());
                }
            }
            // Delete a childless non-traditional region, or collect.
            _ => {
                if rng.bool() {
                    let i = rng.below(regions.len());
                    let childless =
                        !(0..regions.len()).any(|c| alive[c] && parent[c] == i && c != i);
                    if i != 0 && alive[i] && childless {
                        h.delete_region(regions[i]).unwrap();
                        alive[i] = false;
                    }
                } else {
                    h.gc_collect(&gc_roots);
                }
            }
        }
    }
    h
}

/// The snapshot contract holds on every seed: exact JSON round-trip,
/// byte-stable re-render, and totals that agree with the heap's own
/// audit and stats.
#[test]
fn snapshot_round_trips_and_cross_checks_on_random_heaps() {
    for seed in 0..48u64 {
        let h = workout(seed);
        h.audit().unwrap_or_else(|e| panic!("seed {seed}: heap audit failed: {e:?}"));

        let mut snap = h.snapshot(SnapshotReason::Exit);
        snap.label = format!("props/seed{seed}");
        snap.verify_against(&h)
            .unwrap_or_else(|e| panic!("seed {seed}: snapshot cross-check failed: {e}"));

        // Capture is a pure function of heap state.
        let mut again = h.snapshot(SnapshotReason::Exit);
        again.label = snap.label.clone();
        assert_eq!(snap, again, "seed {seed}: capture not deterministic");

        // snapshot → JSON text → parse → rebuild is exact, and the
        // rebuilt value re-renders to the same bytes.
        let text = snap.render();
        let doc = Json::parse(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: rendered JSON does not parse: {e}"));
        let back = HeapSnapshot::from_json(&doc)
            .unwrap_or_else(|e| panic!("seed {seed}: round-trip rejected: {e}"));
        assert_eq!(back, snap, "seed {seed}: round-trip lost information");
        assert_eq!(back.render(), text, "seed {seed}: re-render not byte-identical");

        // Totals agree with Stats by construction of verify_against, but
        // assert the headline identity explicitly so a verify_against
        // regression cannot silently weaken this test.
        assert_eq!(
            snap.total_live_words(),
            h.stats.live_words,
            "seed {seed}: live-word identity broken"
        );
    }
}
