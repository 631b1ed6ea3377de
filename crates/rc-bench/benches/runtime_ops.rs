//! Wall-clock microbenchmarks of the runtime's hot paths: the operations
//! whose *relative* costs the paper's Figure 3 quantifies (23 instructions
//! for a count update, 6–14 for a check) plus allocator comparisons.
//!
//! Telemetry overhead check: each write-barrier benchmark also runs with
//! full event tracing enabled (`*_traced`) and with timeline sampling
//! enabled (`*_sampled`), so the disabled-vs-enabled costs are visible
//! side by side (disabled tracing and disabled sampling are each a
//! single branch and must stay in the noise).

use rc_bench::microbench::Bench;
use region_rt::{Addr, Heap, PtrKind, SlotKind, TypeLayout, WriteMode};
use std::hint::black_box;

fn setup_two_regions() -> (Heap, region_rt::TypeId, Addr, Addr) {
    let mut h = Heap::with_defaults();
    let ty = h.register_type(TypeLayout::new(
        "n",
        vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Ptr(PtrKind::SameRegion)],
    ));
    let r1 = h.new_region();
    let r2 = h.new_region();
    let a = h.ralloc(r1, ty).unwrap();
    let b = h.ralloc(r2, ty).unwrap();
    (h, ty, a, b)
}

fn bench_write_barriers(c: &Bench) {
    let g = c.group("write_barrier");
    // Figure 3(a): the counted store (cross-region, both halves update).
    g.bench("counted_cross_region", {
        let (mut h, _, a, b) = setup_two_regions();
        move || {
            h.write_ptr(a, 0, black_box(b), WriteMode::Counted).unwrap();
            h.write_ptr(a, 0, Addr::NULL, WriteMode::Counted).unwrap();
        }
    });
    g.bench("counted_cross_region_traced", {
        let (mut h, _, a, b) = setup_two_regions();
        h.enable_tracing(4096);
        move || {
            h.write_ptr(a, 0, black_box(b), WriteMode::Counted).unwrap();
            h.write_ptr(a, 0, Addr::NULL, WriteMode::Counted).unwrap();
        }
    });
    g.bench("counted_cross_region_sampled", {
        let (mut h, _, a, b) = setup_two_regions();
        h.enable_sampling(256, 512);
        move || {
            h.write_ptr(a, 0, black_box(b), WriteMode::Counted).unwrap();
            h.write_ptr(a, 0, Addr::NULL, WriteMode::Counted).unwrap();
        }
    });
    // Figure 3(b): sameregion check (within one region).
    g.bench("sameregion_check", {
        let (mut h, ty, a, _) = setup_two_regions();
        let r = h.region_of(a).unwrap();
        let peer = h.ralloc(r, ty).unwrap();
        move || {
            h.write_ptr(a, 1, black_box(peer), WriteMode::Check(PtrKind::SameRegion)).unwrap();
        }
    });
    g.bench("sameregion_check_traced", {
        let (mut h, ty, a, _) = setup_two_regions();
        let r = h.region_of(a).unwrap();
        let peer = h.ralloc(r, ty).unwrap();
        h.enable_tracing(4096);
        move || {
            h.write_ptr(a, 1, black_box(peer), WriteMode::Check(PtrKind::SameRegion)).unwrap();
        }
    });
    g.bench("sameregion_check_sampled", {
        let (mut h, ty, a, _) = setup_two_regions();
        let r = h.region_of(a).unwrap();
        let peer = h.ralloc(r, ty).unwrap();
        h.enable_sampling(256, 512);
        move || {
            h.write_ptr(a, 1, black_box(peer), WriteMode::Check(PtrKind::SameRegion)).unwrap();
        }
    });
    // The eliminated-check store: nothing but the write.
    g.bench("safe_store", {
        let (mut h, ty, a, _) = setup_two_regions();
        let r = h.region_of(a).unwrap();
        let peer = h.ralloc(r, ty).unwrap();
        move || {
            h.write_ptr(a, 1, black_box(peer), WriteMode::Safe).unwrap();
        }
    });
}

fn bench_allocators(c: &Bench) {
    let g = c.group("alloc_1000_objects");
    g.bench("region_bump_plus_delete", {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("obj", 4));
        move || {
            let r = h.new_region();
            for _ in 0..1000 {
                black_box(h.ralloc(r, ty).unwrap());
            }
            h.delete_region(r).unwrap();
        }
    });
    g.bench("malloc_free_each", {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("obj", 4));
        let mut addrs = Vec::with_capacity(1000);
        move || {
            addrs.clear();
            for _ in 0..1000 {
                addrs.push(h.m_alloc(ty, 1).unwrap());
            }
            for &a in &addrs {
                h.m_free(a).unwrap();
            }
        }
    });
    g.bench("gc_alloc_with_collections", {
        let mut h =
            Heap::new(region_rt::HeapConfig { gc_threshold_words: 4096, ..Default::default() });
        let ty = h.register_type(TypeLayout::data("obj", 4));
        move || {
            for _ in 0..1000 {
                black_box(h.gc_alloc(ty, 1).unwrap());
                if h.gc_should_collect() {
                    h.gc_collect(&[]);
                }
            }
        }
    });
}

fn bench_region_lifecycle(c: &Bench) {
    let g = c.group("region_lifecycle");
    g.bench("create_delete_flat", {
        let mut h = Heap::with_defaults();
        move || {
            let r = h.new_region();
            h.delete_region(r).unwrap();
        }
    });
    g.bench("create_delete_nested_depth8", {
        let mut h = Heap::with_defaults();
        move || {
            let mut stack = vec![h.new_region()];
            for _ in 0..7 {
                let top = *stack.last().expect("nonempty");
                stack.push(h.new_subregion(top).unwrap());
            }
            while let Some(r) = stack.pop() {
                h.delete_region(r).unwrap();
            }
        }
    });
}

/// Ablation: eager renumbering (the paper's implementation) vs gap-based
/// interval assignment ("this could easily be replaced by a more
/// efficient scheme"). The gap scheme wins as the live hierarchy grows.
fn bench_numbering_ablation(c: &Bench) {
    use region_rt::{HeapConfig, NumberingScheme};
    let g = c.group("numbering_ablation");
    for (name, scheme) in [
        ("renumber_on_create", NumberingScheme::RenumberOnCreate),
        ("gap_based", NumberingScheme::GapBased),
    ] {
        g.bench(name, move || {
            let mut h = Heap::new(HeapConfig { numbering: scheme, ..Default::default() });
            // A wide live hierarchy (64 connections) with churn: the
            // apache shape that stresses creation cost.
            let conns: Vec<_> = (0..64).map(|_| h.new_region()).collect();
            for &conn in &conns {
                let req = h.new_subregion(conn).unwrap();
                let sub = h.new_subregion(req).unwrap();
                h.delete_region(sub).unwrap();
                h.delete_region(req).unwrap();
            }
            for conn in conns {
                h.delete_region(conn).unwrap();
            }
            black_box(h.clock.cycles());
        });
    }
}

fn main() {
    let bench = Bench::from_args();
    bench_write_barriers(&bench);
    bench_allocators(&bench);
    bench_region_lifecycle(&bench);
    bench_numbering_ablation(&bench);
}
