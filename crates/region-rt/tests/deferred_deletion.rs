//! Tests for the paper's third safety option: implicit (deferred) region
//! deletion — "at various times ... the system deallocates any regions
//! whose reference count has dropped to zero. This last option provides
//! memory safety semantics similar to traditional garbage collection."

use region_rt::{Addr, DeletePolicy, Heap, HeapConfig, PtrKind, SlotKind, TypeLayout, WriteMode};

fn deferred_heap() -> Heap {
    Heap::new(HeapConfig { delete_policy: DeletePolicy::Deferred, ..Default::default() })
}

fn node_ty(h: &mut Heap) -> region_rt::TypeId {
    h.register_type(TypeLayout::new("n", vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data]))
}

#[test]
fn deferred_delete_waits_for_last_reference() {
    let mut h = deferred_heap();
    let ty = node_ty(&mut h);
    let r1 = h.new_region();
    let r2 = h.new_region();
    let holder = h.ralloc(r1, ty).unwrap();
    let target = h.ralloc(r2, ty).unwrap();
    h.write_ptr(holder, 0, target, WriteMode::Counted).unwrap();

    // Deleting r2 succeeds immediately (no abort) but only dooms it.
    h.delete_region(r2).unwrap();
    assert!(h.region_alive(r2), "still referenced: not reclaimed yet");
    assert_eq!(h.stats.regions_deferred, 1);
    assert_eq!(h.stats.regions_deleted, 0);

    // Dropping the last reference reclaims it.
    h.write_ptr(holder, 0, Addr::NULL, WriteMode::Counted).unwrap();
    assert!(!h.region_alive(r2), "last reference gone → reclaimed");
    assert_eq!(h.stats.regions_deleted, 1);
    h.audit().unwrap();
}

#[test]
fn deferred_delete_with_no_refs_is_immediate() {
    let mut h = deferred_heap();
    let r = h.new_region();
    h.delete_region(r).unwrap();
    assert!(!h.region_alive(r));
    assert_eq!(h.stats.regions_deferred, 0);
}

#[test]
fn doomed_parent_waits_for_children() {
    let mut h = deferred_heap();
    let parent = h.new_region();
    let child = h.new_subregion(parent).unwrap();
    h.delete_region(parent).unwrap();
    assert!(h.region_alive(parent), "live subregion blocks reclamation");
    // Deleting the child releases the parent too.
    h.delete_region(child).unwrap();
    assert!(!h.region_alive(child));
    assert!(!h.region_alive(parent), "child death cascades to the doomed parent");
}

#[test]
fn unpin_triggers_reclamation() {
    let mut h = deferred_heap();
    let r = h.new_region();
    h.pin_region(r);
    h.delete_region(r).unwrap();
    assert!(h.region_alive(r), "pinned by a live local");
    h.unpin_region(r);
    assert!(!h.region_alive(r), "unpin released the last count");
}

#[test]
fn unscan_cascade_reclaims_chains() {
    // r1 → r2 → r3: dooming all three then releasing the head reference
    // must cascade through the unscan decrements.
    let mut h = deferred_heap();
    let ty = node_ty(&mut h);
    let r1 = h.new_region();
    let r2 = h.new_region();
    let r3 = h.new_region();
    let a = h.ralloc(r1, ty).unwrap();
    let b = h.ralloc(r2, ty).unwrap();
    let c = h.ralloc(r3, ty).unwrap();
    h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
    h.write_ptr(b, 0, c, WriteMode::Counted).unwrap();

    h.delete_region(r3).unwrap();
    h.delete_region(r2).unwrap();
    assert!(h.region_alive(r2) && h.region_alive(r3));
    // Deleting r1 (no refs into it) unscans a→b, which unblocks r2, whose
    // unscan releases c, which unblocks r3.
    h.delete_region(r1).unwrap();
    assert!(!h.region_alive(r1));
    assert!(!h.region_alive(r2), "cascade step 1");
    assert!(!h.region_alive(r3), "cascade step 2");
    assert_eq!(h.stats.regions_deleted, 3);
    h.audit().unwrap();
}

#[test]
fn abort_policy_is_unchanged() {
    let mut h = Heap::with_defaults();
    let ty = node_ty(&mut h);
    let r1 = h.new_region();
    let r2 = h.new_region();
    let a = h.ralloc(r1, ty).unwrap();
    let b = h.ralloc(r2, ty).unwrap();
    h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
    assert!(h.delete_region(r2).is_err(), "abort policy refuses");
    assert_eq!(h.stats.regions_deferred, 0);
}
