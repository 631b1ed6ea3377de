//! Region emulation over `malloc/free` or the GC.
//!
//! For benchmarks that were already region-based, the paper's "lea" column
//! "uses a simple region-emulation library that uses malloc and free to
//! allocate and free each individual object", and the "GC" column "uses the
//! same code ... except that calls to malloc are replaced by calls to
//! garbage collected allocation and calls to free are removed". This module
//! is that emulation library: it gives the workloads an unchanged region
//! API while routing every allocation to the selected baseline allocator.

use crate::addr::Addr;
use crate::error::RtError;
use crate::heap::Heap;
use crate::layout::TypeId;

/// Identifier of an emulated region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EmuRegionId(pub u32);

/// Which baseline allocator backs the emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmuBackend {
    /// `malloc` per object; `deleteregion` frees each object individually.
    MallocFree,
    /// GC allocation per object; `deleteregion` just drops the object list
    /// (memory is reclaimed by collections).
    Gc,
}

/// The region-emulation library.
#[derive(Debug)]
pub struct EmuRegions {
    backend: EmuBackend,
    /// Object lists per emulated region (`None` = deleted).
    regions: Vec<Option<Vec<Addr>>>,
}

impl EmuRegions {
    /// Creates an emulation over the chosen backend.
    pub fn new(backend: EmuBackend) -> EmuRegions {
        EmuRegions { backend, regions: Vec::new() }
    }

    /// The backend in use.
    pub fn backend(&self) -> EmuBackend {
        self.backend
    }

    /// Emulated `newregion` / `newsubregion` (the emulation has no
    /// hierarchy; subregions are independent regions, which matches the
    /// unsafe region libraries the original benchmarks used).
    pub fn new_region(&mut self) -> EmuRegionId {
        let id = EmuRegionId(self.regions.len() as u32);
        self.regions.push(Some(Vec::new()));
        id
    }

    /// Emulated `ralloc` / `rarrayalloc`.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::RegionDead`] if the emulated region was deleted,
    /// or the backend allocator's failure.
    pub fn alloc(
        &mut self,
        heap: &mut Heap,
        r: EmuRegionId,
        ty: TypeId,
        count: u32,
    ) -> Result<Addr, RtError> {
        let addr = match self.backend {
            EmuBackend::MallocFree => heap.m_alloc(ty, count)?,
            EmuBackend::Gc => heap.gc_alloc(ty, count)?,
        };
        let list = self.regions[r.0 as usize]
            .as_mut()
            .ok_or(RtError::RegionDead { region: crate::region::RegionId(r.0) })?;
        list.push(addr);
        Ok(addr)
    }

    /// Emulated `deleteregion`: frees every object individually (malloc
    /// backend) or drops the list (GC backend). Unlike real RC this is
    /// unsafe — no reference count prevents dangling pointers.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::RegionDead`] on double deletion.
    pub fn delete_region(&mut self, heap: &mut Heap, r: EmuRegionId) -> Result<(), RtError> {
        let list = self.regions[r.0 as usize]
            .take()
            .ok_or(RtError::RegionDead { region: crate::region::RegionId(r.0) })?;
        if self.backend == EmuBackend::MallocFree {
            for addr in list {
                heap.m_free(addr)?;
            }
        }
        Ok(())
    }

    /// Objects currently recorded in an emulated region (for GC roots:
    /// the emulation's lists themselves keep objects reachable, matching
    /// the region data structures of the original programs).
    pub fn region_objects(&self, r: EmuRegionId) -> &[Addr] {
        self.regions[r.0 as usize].as_deref().unwrap_or(&[])
    }

    /// Identifiers of the emulated regions that are still live (used by
    /// fault recovery to unwind the emulated region stack).
    pub fn live_regions(&self) -> Vec<EmuRegionId> {
        self.regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(i, _)| EmuRegionId(i as u32))
            .collect()
    }

    /// All live object addresses across emulated regions (GC root set
    /// contribution).
    pub fn all_roots(&self) -> Vec<u64> {
        self.regions.iter().flatten().flat_map(|list| list.iter().map(|a| a.raw())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TypeLayout;

    #[test]
    fn malloc_backend_frees_objects_on_delete() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("obj", 4));
        let mut emu = EmuRegions::new(EmuBackend::MallocFree);
        let r = emu.new_region();
        for _ in 0..10 {
            emu.alloc(&mut h, r, ty, 1).unwrap();
        }
        assert_eq!(h.m_live_count(), 10);
        emu.delete_region(&mut h, r).unwrap();
        assert_eq!(h.m_live_count(), 0);
        assert_eq!(h.stats.free_calls, 10, "lea emulation frees per object");
    }

    #[test]
    fn gc_backend_leaves_reclamation_to_collections() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("obj", 4));
        let mut emu = EmuRegions::new(EmuBackend::Gc);
        let r = emu.new_region();
        for _ in 0..10 {
            emu.alloc(&mut h, r, ty, 1).unwrap();
        }
        emu.delete_region(&mut h, r).unwrap();
        assert_eq!(h.stats.free_calls, 0);
        // After the region list is dropped, nothing roots the objects.
        assert_eq!(h.gc_collect(&emu.all_roots()), 10);
    }

    #[test]
    fn double_delete_detected() {
        let mut h = Heap::with_defaults();
        let mut emu = EmuRegions::new(EmuBackend::MallocFree);
        let r = emu.new_region();
        emu.delete_region(&mut h, r).unwrap();
        assert!(emu.delete_region(&mut h, r).is_err());
    }

    #[test]
    fn alloc_into_deleted_emu_region_fails() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("obj", 4));
        let mut emu = EmuRegions::new(EmuBackend::MallocFree);
        let r = emu.new_region();
        emu.delete_region(&mut h, r).unwrap();
        assert!(emu.alloc(&mut h, r, ty, 1).is_err());
    }

    #[test]
    fn roots_cover_live_regions_only() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("obj", 4));
        let mut emu = EmuRegions::new(EmuBackend::Gc);
        let r1 = emu.new_region();
        let r2 = emu.new_region();
        emu.alloc(&mut h, r1, ty, 1).unwrap();
        emu.alloc(&mut h, r2, ty, 1).unwrap();
        emu.delete_region(&mut h, r1).unwrap();
        assert_eq!(emu.all_roots().len(), 1);
        assert_eq!(emu.region_objects(r1).len(), 0);
        assert_eq!(emu.region_objects(r2).len(), 1);
    }
}
