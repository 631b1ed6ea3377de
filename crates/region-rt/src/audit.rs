//! The heap auditor: independently verifies the reference-count invariant.
//!
//! RC's safety argument rests on one invariant: for every live region `r`,
//! `r.rc` equals the number of *external* unannotated pointers to objects in
//! `r` (pointers not stored within `r`), plus any temporary pins taken for
//! live locals. The auditor recomputes the external-pointer count from
//! scratch by walking every live object in every allocator and compares it
//! against the maintained counts. Integration and property tests run it
//! after executing whole programs.

use std::collections::HashMap;

use crate::addr::Addr;
use crate::heap::Heap;
use crate::region::{RegionId, TRADITIONAL};

/// A discrepancy found by the auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// A region's maintained count disagrees with the recomputed one.
    BadCount {
        /// The region.
        region: RegionId,
        /// `rc - pins` as maintained by the runtime.
        maintained: i64,
        /// The recomputed number of external counted pointers.
        actual: i64,
    },
    /// A counted pointer targets freed memory (a dangling pointer — with
    /// reference counting enabled this must be impossible).
    Dangling {
        /// The object containing the pointer.
        obj: Addr,
        /// Field offset.
        field: usize,
        /// The dangling target.
        val: Addr,
    },
    /// The live-word gauge underflowed at some point during the run (see
    /// [`Stats::sub_live`](crate::stats::Stats::sub_live)): memory was
    /// "freed" that the gauge never saw allocated, so every live/peak
    /// figure after the first underflow is suspect.
    LiveGaugeUnderflow {
        /// How many times the gauge underflowed.
        events: u64,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::BadCount { region, maintained, actual } => write!(
                f,
                "region {region:?}: maintained external count {maintained} != recomputed {actual}"
            ),
            AuditError::Dangling { obj, field, val } => {
                write!(f, "dangling counted pointer {val} in field {field} of {obj}")
            }
            AuditError::LiveGaugeUnderflow { events } => {
                write!(f, "live-word gauge underflowed {events} time(s): double free or allocator accounting bug")
            }
        }
    }
}

impl std::error::Error for AuditError {}

impl Heap {
    /// Recomputes every live region's external reference count and checks
    /// it against the maintained count. With reference counting disabled
    /// the invariant is not maintained, so the audit trivially passes.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found.
    pub fn audit(&self) -> Result<(), AuditError> {
        // The live-word gauge applies to every configuration (it feeds the
        // peak-memory columns), so check it before the RC early-out.
        if self.stats.live_underflows > 0 {
            return Err(AuditError::LiveGaugeUnderflow { events: self.stats.live_underflows });
        }
        if !self.rc_enabled() {
            return Ok(());
        }
        let mut expected: HashMap<RegionId, i64> = HashMap::new();

        // Region-allocated objects: only the `normal` allocators can hold
        // counted pointers (that is the allocator-segregation invariant).
        for (idx, region) in self.regions.iter().enumerate() {
            if !region.alive {
                continue;
            }
            let container = RegionId(idx as u32);
            for rec in region.normal.objs() {
                self.scan_object(rec.addr, rec.ty, rec.count, container, &mut expected)?;
            }
        }
        // Malloc-heap objects live in the traditional region and may hold
        // counted pointers into regions (globals do exactly this).
        let malloc_objs: Vec<(Addr, crate::layout::TypeId, u32)> =
            self.malloc.live_objects().map(|(a, o)| (a, o.ty, o.count)).collect();
        for (addr, ty, count) in malloc_objs {
            self.scan_object(addr, ty, count, TRADITIONAL, &mut expected)?;
        }

        for (idx, region) in self.regions.iter().enumerate() {
            if !region.alive {
                continue;
            }
            let r = RegionId(idx as u32);
            let maintained = region.rc - region.pins;
            let actual = expected.get(&r).copied().unwrap_or(0);
            if maintained != actual {
                return Err(AuditError::BadCount { region: r, maintained, actual });
            }
        }
        Ok(())
    }

    fn scan_object(
        &self,
        addr: Addr,
        ty: crate::layout::TypeId,
        count: u32,
        container: RegionId,
        expected: &mut HashMap<RegionId, i64>,
    ) -> Result<(), AuditError> {
        let layout = self.types.get(ty);
        let size = layout.size_words();
        for elem in 0..count as usize {
            let base = addr.offset(elem * size);
            for off in layout.counted_ptr_offsets() {
                let val = Addr::from_raw(self.store.read(base.offset(off)));
                if val.is_null() {
                    continue;
                }
                match self.try_region_of(val) {
                    None => {
                        return Err(AuditError::Dangling { obj: base, field: off, val });
                    }
                    Some(tgt) => {
                        if tgt != container {
                            *expected.entry(tgt).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{PtrKind, SlotKind, TypeLayout};
    use crate::rcops::WriteMode;

    #[test]
    fn audit_passes_on_consistent_heap() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::new(
            "n",
            vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data],
        ));
        let r1 = h.new_region();
        let r2 = h.new_region();
        let a = h.ralloc(r1, ty).unwrap();
        let b = h.ralloc(r2, ty).unwrap();
        h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
        h.write_ptr(b, 0, a, WriteMode::Counted).unwrap();
        h.audit().unwrap();
    }

    #[test]
    fn audit_catches_unbarriered_store() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::new(
            "n",
            vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data],
        ));
        let r1 = h.new_region();
        let r2 = h.new_region();
        let a = h.ralloc(r1, ty).unwrap();
        let b = h.ralloc(r2, ty).unwrap();
        // Raw store skips the barrier: the maintained count is now wrong.
        h.write_ptr(a, 0, b, WriteMode::Raw).unwrap();
        assert!(matches!(h.audit(), Err(AuditError::BadCount { .. })));
    }

    #[test]
    fn audit_accounts_for_pins() {
        let mut h = Heap::with_defaults();
        let r = h.new_region();
        h.pin_region(r);
        h.audit().unwrap(); // pins are excluded from the heap-ref comparison
        h.unpin_region(r);
        h.audit().unwrap();
    }

    #[test]
    fn audit_skips_when_rc_disabled() {
        let mut h = Heap::new(crate::heap::HeapConfig { rc_enabled: false, ..Default::default() });
        let ty = h.register_type(TypeLayout::new(
            "n",
            vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data],
        ));
        let r1 = h.new_region();
        let r2 = h.new_region();
        let a = h.ralloc(r1, ty).unwrap();
        let b = h.ralloc(r2, ty).unwrap();
        h.write_ptr(a, 0, b, WriteMode::Raw).unwrap();
        h.audit().unwrap();
    }

    #[test]
    fn audit_reports_live_gauge_underflow() {
        let mut h = Heap::with_defaults();
        // Set the counter directly: reaching it organically needs a release
        // build (sub_live panics under debug_assertions).
        h.stats.live_underflows = 2;
        assert_eq!(h.audit(), Err(AuditError::LiveGaugeUnderflow { events: 2 }));
        // Reported even in configurations where the RC audit is skipped.
        let mut h = Heap::new(crate::heap::HeapConfig { rc_enabled: false, ..Default::default() });
        h.stats.live_underflows = 1;
        assert!(matches!(h.audit(), Err(AuditError::LiveGaugeUnderflow { events: 1 })));
    }

    #[test]
    fn audit_counts_malloc_to_region_refs() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::new(
            "n",
            vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data],
        ));
        let r = h.new_region();
        let g = h.m_alloc(ty, 1).unwrap(); // a "global" in the malloc heap
        let obj = h.ralloc(r, ty).unwrap();
        h.write_ptr(g, 0, obj, WriteMode::Counted).unwrap();
        assert_eq!(h.region_rc(r), 1);
        h.audit().unwrap();
    }
}
