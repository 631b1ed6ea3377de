//! Pointer-write barriers: Figure 3 of the paper.
//!
//! Every store of a pointer into the heap goes through [`Heap::write_ptr`]
//! with a [`WriteMode`] saying how much dynamic work the store performs:
//!
//! - [`WriteMode::Counted`] — the Figure 3(a) reference-count update
//!   (unannotated pointers).
//! - [`WriteMode::Check`] — a Figure 3(b) annotation check
//!   (`sameregion` / `parentptr` / `traditional`), which aborts on failure
//!   and never touches a count.
//! - [`WriteMode::Safe`] — an annotated store whose check was eliminated
//!   statically by the rlang constraint inference (§4.3); just the store.
//! - [`WriteMode::Raw`] — all dynamic work disabled (the paper's `nc` and
//!   `norc` configurations; unsafe).

use crate::addr::Addr;
use crate::error::RtError;
use crate::heap::Heap;
use crate::layout::PtrKind;
use crate::region::{is_ancestor, TRADITIONAL};
use crate::stats::AssignCategory;
use crate::trace::{Event, NO_REGION};

/// How a heap pointer store is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Unannotated pointer: maintain reference counts (Figure 3(a)).
    Counted,
    /// Annotated pointer: run the Figure 3(b) check for this annotation.
    Check(PtrKind),
    /// Annotated pointer whose check was statically eliminated.
    Safe,
    /// No dynamic work at all (unsafe configurations).
    Raw,
    /// Measurement mode for the differential harness: evaluate the
    /// Figure 3(b) predicate and tally its outcome per site (see
    /// [`crate::checkcount`]), but never abort — the store then performs
    /// the full Figure 3(a) reference-count update, so behaviour matches
    /// [`WriteMode::Counted`] exactly.
    CountedCheck(PtrKind),
}

impl Heap {
    /// Stores pointer `val` into word `field` of the object at `obj`,
    /// performing the dynamic work selected by `mode`.
    ///
    /// # Errors
    ///
    /// - [`RtError::WildPointer`] if `obj` is not a live object.
    /// - [`RtError::CheckFailed`] if a [`WriteMode::Check`] annotation check
    ///   fails — in RC this aborts the program.
    pub fn write_ptr(
        &mut self,
        obj: Addr,
        field: usize,
        val: Addr,
        mode: WriteMode,
    ) -> Result<(), RtError> {
        let slot = obj.offset(field);
        if !self.store.is_live(slot) {
            return Err(RtError::WildPointer { addr: slot });
        }
        match mode {
            WriteMode::Counted => self.write_counted(obj, slot, val),
            WriteMode::Check(kind) => self.write_checked(obj, field, slot, val, kind),
            WriteMode::Safe => {
                self.store.write(slot, val.raw());
                self.clock.charge(self.costs.store_plain);
                self.stats.record_assign(AssignCategory::Safe);
                Ok(())
            }
            WriteMode::Raw => {
                self.store.write(slot, val.raw());
                self.clock.charge(self.costs.store_plain);
                self.stats.assigns_raw += 1;
                Ok(())
            }
            WriteMode::CountedCheck(kind) => {
                // The outcome reaches the check counter through the event
                // stream; the store itself never aborts.
                self.eval_check(obj, val, kind)?;
                self.write_counted(obj, slot, val)
            }
        }
    }

    /// Figure 3(a): the straightforward reference-count update for
    /// `*p = newval`. The region of a null pointer is the distinguished
    /// top region, which never matches a real region, so null endpoints
    /// simply skip their half of the update.
    fn write_counted(&mut self, obj: Addr, slot: Addr, val: Addr) -> Result<(), RtError> {
        // Fault plane: a saturated count fails the store before any
        // mutation, so the heap stays consistent.
        self.fault_rc_tick(obj, val)?;
        let rp = self.region_of(obj)?;
        let old = Addr::from_raw(self.store.read(slot));
        let ro = self.try_region_of(old);
        let rn = self.try_region_of(val);
        let full = ro != rn;
        self.emit(|h| Event::RcUpdate {
            from: rp.0,
            to: rn.map_or(NO_REGION, |r| r.0),
            full,
            site: h.trace_site,
            at: h.clock.cycles(),
        });
        let mut decremented = false;
        if full {
            if let Some(ro) = ro {
                if ro != rp {
                    self.regions[ro.0 as usize].rc -= 1;
                    decremented = true;
                }
            }
            if let Some(rn) = rn {
                if rn != rp {
                    self.regions[rn.0 as usize].rc += 1;
                }
            }
            self.stats.rc_updates_full += 1;
            self.stats.rc_cycles += self.costs.rc_update_full;
            self.clock.charge(self.costs.rc_update_full);
        } else {
            self.stats.rc_updates_same += 1;
            self.stats.rc_cycles += self.costs.rc_update_same;
            self.clock.charge(self.costs.rc_update_same);
        }
        self.store.write(slot, val.raw());
        self.stats.record_assign(AssignCategory::Counted);
        if decremented {
            self.sweep_doomed();
        }
        self.sample_tick();
        Ok(())
    }

    /// Figure 3(b): the runtime checks for annotated pointers. "These
    /// checks ... do not need to read the value being overwritten."
    fn write_checked(
        &mut self,
        obj: Addr,
        field: usize,
        slot: Addr,
        val: Addr,
        kind: PtrKind,
    ) -> Result<(), RtError> {
        let ok = self.eval_check(obj, val, kind)?;
        self.sample_tick();
        if !ok {
            return Err(RtError::CheckFailed { kind, obj, field, val });
        }
        self.store.write(slot, val.raw());
        self.stats.record_assign(AssignCategory::Checked);
        Ok(())
    }

    /// Evaluates the Figure 3(b) predicate for one annotated store,
    /// charging the per-kind statistics and cycle costs, and emits its
    /// [`Event::CheckRun`] (the one emission both check paths share). The
    /// fault plane may force a `false` result (its counters and cycle
    /// charges are untouched, so the run stays comparable).
    fn eval_check(&mut self, obj: Addr, val: Addr, kind: PtrKind) -> Result<bool, RtError> {
        let ok = match kind {
            PtrKind::SameRegion => {
                self.stats.checks_sameregion += 1;
                self.stats.check_cycles += self.costs.check_sameregion;
                self.clock.charge(self.costs.check_sameregion);
                val.is_null() || self.region_of(val)? == self.region_of(obj)?
            }
            PtrKind::Traditional => {
                self.stats.checks_traditional += 1;
                self.stats.check_cycles += self.costs.check_traditional;
                self.clock.charge(self.costs.check_traditional);
                val.is_null() || self.region_of(val)? == TRADITIONAL
            }
            PtrKind::ParentPtr => {
                self.stats.checks_parentptr += 1;
                self.stats.check_cycles += self.costs.check_parentptr;
                self.clock.charge(self.costs.check_parentptr);
                val.is_null() || {
                    let rn = self.region_of(val)?;
                    let rp = self.region_of(obj)?;
                    is_ancestor(&self.regions, rn, rp)
                }
            }
            PtrKind::Counted => unreachable!("counted stores use write_counted"),
        };
        // Tick unconditionally so the fault schedule's ordinals are
        // independent of check outcomes.
        let forced = self.fault_check_tick();
        let passed = ok && !forced;
        self.emit(|h| Event::CheckRun {
            kind,
            region: h.try_region_of(obj).unwrap_or(TRADITIONAL).0,
            site: h.trace_site,
            check_site: h.check_site,
            passed,
            at: h.clock.cycles(),
        });
        Ok(passed)
    }

    /// Reads a pointer field.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::WildPointer`] if `obj` is not live.
    #[inline]
    pub fn read_ptr(&self, obj: Addr, field: usize) -> Result<Addr, RtError> {
        Ok(Addr::from_raw(self.read_word(obj, field)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;
    use crate::layout::{SlotKind, TypeLayout};

    /// struct node { T *q p0; T *q p1; int d; } with both pointers of the
    /// given kinds.
    fn node_ty(h: &mut Heap, k0: PtrKind, k1: PtrKind) -> crate::layout::TypeId {
        h.register_type(TypeLayout::new(
            "node",
            vec![SlotKind::Ptr(k0), SlotKind::Ptr(k1), SlotKind::Data],
        ))
    }

    #[test]
    fn counted_external_ref_blocks_delete() {
        let mut h = Heap::with_defaults();
        let ty = node_ty(&mut h, PtrKind::Counted, PtrKind::Counted);
        let r1 = h.new_region();
        let r2 = h.new_region();
        let a = h.ralloc(r1, ty).unwrap();
        let b = h.ralloc(r2, ty).unwrap();
        h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
        assert_eq!(h.region_rc(r2), 1);
        assert!(matches!(h.delete_region(r2), Err(RtError::DeleteWithLiveRefs { rc: 1, .. })));
        // Overwriting the pointer releases the reference.
        h.write_ptr(a, 0, Addr::NULL, WriteMode::Counted).unwrap();
        assert_eq!(h.region_rc(r2), 0);
        h.delete_region(r2).unwrap();
    }

    #[test]
    fn internal_refs_are_not_counted() {
        let mut h = Heap::with_defaults();
        let ty = node_ty(&mut h, PtrKind::Counted, PtrKind::Counted);
        let r = h.new_region();
        let a = h.ralloc(r, ty).unwrap();
        let b = h.ralloc(r, ty).unwrap();
        h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
        h.write_ptr(b, 0, a, WriteMode::Counted).unwrap(); // cycle, in-region
        assert_eq!(h.region_rc(r), 0, "cycles within a region are free");
        h.delete_region(r).unwrap();
    }

    #[test]
    fn overwrite_moves_count_between_regions() {
        let mut h = Heap::with_defaults();
        let ty = node_ty(&mut h, PtrKind::Counted, PtrKind::Counted);
        let (r1, r2, r3) = (h.new_region(), h.new_region(), h.new_region());
        let a = h.ralloc(r1, ty).unwrap();
        let b = h.ralloc(r2, ty).unwrap();
        let c = h.ralloc(r3, ty).unwrap();
        h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
        h.write_ptr(a, 0, c, WriteMode::Counted).unwrap();
        assert_eq!(h.region_rc(r2), 0);
        assert_eq!(h.region_rc(r3), 1);
    }

    #[test]
    fn unscan_releases_outgoing_refs() {
        let mut h = Heap::with_defaults();
        let ty = node_ty(&mut h, PtrKind::Counted, PtrKind::Counted);
        let r1 = h.new_region();
        let r2 = h.new_region();
        let a = h.ralloc(r1, ty).unwrap();
        let b = h.ralloc(r2, ty).unwrap();
        // r1 holds a pointer into r2.
        h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
        assert_eq!(h.region_rc(r2), 1);
        // Deleting r1 must unscan and release r2's count.
        h.delete_region(r1).unwrap();
        assert_eq!(h.region_rc(r2), 0);
        assert!(h.stats.unscan_words > 0);
        h.delete_region(r2).unwrap();
    }

    #[test]
    fn sameregion_check_passes_and_fails() {
        let mut h = Heap::with_defaults();
        let ty = node_ty(&mut h, PtrKind::SameRegion, PtrKind::SameRegion);
        let r1 = h.new_region();
        let r2 = h.new_region();
        let a = h.ralloc(r1, ty).unwrap();
        let b = h.ralloc(r1, ty).unwrap();
        let c = h.ralloc(r2, ty).unwrap();
        h.write_ptr(a, 0, b, WriteMode::Check(PtrKind::SameRegion)).unwrap();
        h.write_ptr(a, 1, Addr::NULL, WriteMode::Check(PtrKind::SameRegion)).unwrap();
        let err = h.write_ptr(a, 0, c, WriteMode::Check(PtrKind::SameRegion));
        assert!(matches!(err, Err(RtError::CheckFailed { kind: PtrKind::SameRegion, .. })));
        assert_eq!(h.stats.checks_sameregion, 3);
        // No reference counting happened.
        assert_eq!(h.region_rc(r1), 0);
        assert_eq!(h.region_rc(r2), 0);
    }

    #[test]
    fn traditional_check_passes_and_fails() {
        let mut h = Heap::with_defaults();
        let ty = node_ty(&mut h, PtrKind::Traditional, PtrKind::Traditional);
        let r = h.new_region();
        let a = h.ralloc(r, ty).unwrap();
        let t = h.m_alloc(ty, 1).unwrap(); // malloc heap = traditional region
        h.write_ptr(a, 0, t, WriteMode::Check(PtrKind::Traditional)).unwrap();
        let bad = h.ralloc(r, ty).unwrap();
        assert!(matches!(
            h.write_ptr(a, 0, bad, WriteMode::Check(PtrKind::Traditional)),
            Err(RtError::CheckFailed { kind: PtrKind::Traditional, .. })
        ));
    }

    #[test]
    fn parentptr_check_follows_hierarchy() {
        let mut h = Heap::with_defaults();
        let ty = node_ty(&mut h, PtrKind::ParentPtr, PtrKind::ParentPtr);
        let parent = h.new_region();
        let child = h.new_subregion(parent).unwrap();
        let sibling = h.new_subregion(parent).unwrap();
        let po = h.ralloc(parent, ty).unwrap();
        let co = h.ralloc(child, ty).unwrap();
        let so = h.ralloc(sibling, ty).unwrap();
        // child → parent: up the hierarchy, OK.
        h.write_ptr(co, 0, po, WriteMode::Check(PtrKind::ParentPtr)).unwrap();
        // child → child (same region): OK.
        h.write_ptr(co, 1, co, WriteMode::Check(PtrKind::ParentPtr)).unwrap();
        // child → sibling: not an ancestor, fails.
        assert!(matches!(
            h.write_ptr(co, 0, so, WriteMode::Check(PtrKind::ParentPtr)),
            Err(RtError::CheckFailed { kind: PtrKind::ParentPtr, .. })
        ));
        // parent → child: downward, fails.
        assert!(matches!(
            h.write_ptr(po, 0, co, WriteMode::Check(PtrKind::ParentPtr)),
            Err(RtError::CheckFailed { kind: PtrKind::ParentPtr, .. })
        ));
        assert_eq!(h.stats.checks_parentptr, 4);
    }

    #[test]
    fn annotated_writes_never_touch_counts() {
        let mut h = Heap::with_defaults();
        let ty = node_ty(&mut h, PtrKind::ParentPtr, PtrKind::SameRegion);
        let parent = h.new_region();
        let child = h.new_subregion(parent).unwrap();
        let po = h.ralloc(parent, ty).unwrap();
        let co = h.ralloc(child, ty).unwrap();
        h.write_ptr(co, 0, po, WriteMode::Check(PtrKind::ParentPtr)).unwrap();
        assert_eq!(h.region_rc(parent), 0, "parentptr refs are uncounted");
        // Child must still be deleted before parent (structural safety).
        assert!(h.delete_region(parent).is_err());
        h.delete_region(child).unwrap();
        h.delete_region(parent).unwrap();
    }

    #[test]
    fn safe_and_raw_modes_do_no_checking() {
        let mut h = Heap::with_defaults();
        let ty = node_ty(&mut h, PtrKind::SameRegion, PtrKind::SameRegion);
        let r1 = h.new_region();
        let r2 = h.new_region();
        let a = h.ralloc(r1, ty).unwrap();
        let c = h.ralloc(r2, ty).unwrap();
        // Safe mode trusts the static verifier; a violating store would not
        // be caught (that is the point of eliminating the check).
        h.write_ptr(a, 0, c, WriteMode::Safe).unwrap();
        h.write_ptr(a, 1, c, WriteMode::Raw).unwrap();
        assert_eq!(h.stats.assigns_safe, 1);
        assert_eq!(h.stats.assigns_raw, 1);
        assert_eq!(h.stats.checks_sameregion, 0);
        assert_eq!(h.stats.rc_updates_full, 0);
    }

    #[test]
    fn counted_write_costs_more_than_check() {
        let mut h = Heap::with_defaults();
        let ty = node_ty(&mut h, PtrKind::Counted, PtrKind::SameRegion);
        let r1 = h.new_region();
        let r2 = h.new_region();
        let a = h.ralloc(r1, ty).unwrap();
        let b = h.ralloc(r2, ty).unwrap();
        let before = h.clock.cycles();
        h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
        let counted_cost = h.clock.cycles() - before;
        let same = h.ralloc(r1, ty).unwrap();
        let before = h.clock.cycles();
        h.write_ptr(a, 1, same, WriteMode::Check(PtrKind::SameRegion)).unwrap();
        let check_cost = h.clock.cycles() - before;
        assert!(check_cost < counted_cost, "{check_cost} !< {counted_cost}");
    }
}
