//! The heap: regions, objects, and the Figure 2 region API.
//!
//! [`Heap`] owns the page store, the region table, the type table, the
//! statistics and the virtual clock. It implements the paper's region API —
//! `newregion`, `newsubregion`, `deleteregion`, `ralloc`, `rarrayalloc`,
//! `regionof` — plus the write barriers of Figure 3 (in
//! [`crate::rcops`]), the malloc/free baseline (in [`crate::malloc`]), and
//! the conservative-GC baseline (in [`crate::gc`]).

use crate::addr::{Addr, WORDS_PER_PAGE};
use crate::cost::{Clock, CostModel};
use crate::error::RtError;
use crate::fault::{FaultArm, FaultMode, FaultPlan, FaultPlane, FaultReport};
use crate::gc::GcState;
use crate::layout::{TypeId, TypeLayout, TypeTable};
use crate::malloc::MallocState;
use crate::page::{PageOwner, PageStore};
use crate::region::{renumber, renumber_gapped, RegionData, RegionId, TRADITIONAL};
use crate::stats::Stats;
use crate::timeline::{occupancy_bucket, HeapGauges, Timeline};
use crate::trace::{Event, Observers};

/// How the region hierarchy is numbered for the `parentptr` interval
/// check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumberingScheme {
    /// The paper's implementation: "updates this numbering every time a
    /// region is created" — O(live regions) per creation.
    #[default]
    RenumberOnCreate,
    /// The "more efficient scheme" the paper anticipates: regions carve
    /// gapped intervals out of their parent's, making creation O(1), with
    /// a full (gapped) renumbering only when an interval is exhausted.
    GapBased,
}

/// What `deleteregion` does when the region still has external references
/// (paper §3: "different notions of memory safety can be realised in the
/// RC framework").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeletePolicy {
    /// "deleteregion abort\[s\] the program when there remain references to
    /// the region" — the paper's default, and ours.
    #[default]
    Abort,
    /// "implicit region deletion: ... the system deallocates any regions
    /// whose reference count has dropped to zero. This last option
    /// provides memory safety semantics similar to traditional garbage
    /// collection." `deleteregion` *dooms* the region; it is reclaimed as
    /// soon as its external count reaches zero and its subregions are
    /// gone.
    Deferred,
}

/// Construction options for a [`Heap`].
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Maximum number of 8 KB pages (0 = unlimited).
    pub page_budget: usize,
    /// Whether reference counting is enabled (the paper's "norc"
    /// configuration disables it, making `deleteregion` unsafe but free).
    pub rc_enabled: bool,
    /// The instruction cost model.
    pub costs: CostModel,
    /// GC heap-growth threshold in words (collection is suggested when this
    /// many words have been allocated since the last collection).
    pub gc_threshold_words: u64,
    /// What `deleteregion` does when references remain.
    pub delete_policy: DeletePolicy,
    /// Hierarchy numbering scheme (ablation knob).
    pub numbering: NumberingScheme,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            page_budget: 0,
            rc_enabled: true,
            costs: CostModel::paper(),
            gc_threshold_words: 4 * 1024,
            delete_policy: DeletePolicy::Abort,
            numbering: NumberingScheme::RenumberOnCreate,
        }
    }
}

/// The simulated heap and region runtime.
#[derive(Debug)]
pub struct Heap {
    pub(crate) store: PageStore,
    pub(crate) regions: Vec<RegionData>,
    pub(crate) types: TypeTable,
    pub(crate) rc_enabled: bool,
    pub(crate) delete_policy: DeletePolicy,
    pub(crate) numbering: NumberingScheme,
    pub(crate) malloc: MallocState,
    pub(crate) gc: GcState,
    /// Dynamic-event counters (public: the harness reads them).
    pub stats: Stats,
    /// The virtual clock (public: the harness reads it).
    pub clock: Clock,
    /// Cost constants (public so ablations can tweak before running).
    pub costs: CostModel,
    /// The consumers of the event stream (tracer, span tree, check
    /// counter); `None` while nothing observes, so every emission site's
    /// guard is one branch (see [`Heap::emit`]).
    pub(crate) observers: Option<Box<Observers>>,
    /// Current source line for event attribution (0 = unattributed).
    pub(crate) trace_site: u32,
    /// Ticks until the next timeline sample; 0 means sampling is off, so
    /// the hot-path guard in [`Heap::sample_tick`] is one compare.
    pub(crate) sample_countdown: u64,
    /// The attached timeline sampler, if sampling is enabled.
    pub(crate) timeline: Option<Box<Timeline>>,
    /// Armed fault plane for the unified allocation counter (rarrayalloc,
    /// malloc, GC alloc). None = disabled: the hot-path hook is one branch,
    /// like `sample_tick`. The page-acquire arm lives in the page store.
    pub(crate) fault_alloc: Option<Box<FaultArm>>,
    /// Armed fault plane for reference-count saturation.
    pub(crate) fault_rc: Option<Box<FaultArm>>,
    /// Armed fault plane for forced annotation-check failures.
    pub(crate) fault_check: Option<Box<FaultArm>>,
    /// Current front-end check-site id for check attribution.
    pub(crate) check_site: u32,
}

impl Heap {
    /// Creates a heap with a live traditional region (region 0).
    pub fn new(config: HeapConfig) -> Heap {
        let mut regions = Vec::new();
        let mut traditional = RegionData::new(None);
        traditional.id = 0;
        traditional.nextid =
            if config.numbering == NumberingScheme::GapBased { u64::MAX / 2 } else { 1 };
        traditional.child_cursor = 1;
        regions.push(traditional);
        Heap {
            store: PageStore::new(config.page_budget),
            regions,
            types: TypeTable::new(),
            rc_enabled: config.rc_enabled,
            delete_policy: config.delete_policy,
            numbering: config.numbering,
            malloc: MallocState::new(),
            gc: GcState::new(config.gc_threshold_words),
            stats: Stats::new(),
            clock: Clock::new(),
            costs: config.costs,
            observers: None,
            trace_site: 0,
            sample_countdown: 0,
            timeline: None,
            fault_alloc: None,
            fault_rc: None,
            fault_check: None,
            check_site: crate::checkcount::NO_CHECK_SITE,
        }
    }

    /// A heap with default configuration.
    pub fn with_defaults() -> Heap {
        Heap::new(HeapConfig::default())
    }

    /// Registers an object type.
    pub fn register_type(&mut self, layout: TypeLayout) -> TypeId {
        self.types.register(layout)
    }

    /// Whether reference counting is enabled.
    pub fn rc_enabled(&self) -> bool {
        self.rc_enabled
    }

    /// Read-only view of the page store, so external tests and tools can
    /// check reported gauges against the page → owner map directly.
    pub fn page_store(&self) -> &PageStore {
        &self.store
    }

    fn region(&self, r: RegionId) -> &RegionData {
        &self.regions[r.0 as usize]
    }

    fn region_mut(&mut self, r: RegionId) -> &mut RegionData {
        &mut self.regions[r.0 as usize]
    }

    pub(crate) fn check_live_region(&self, r: RegionId) -> Result<(), RtError> {
        if !self.region(r).alive {
            Err(RtError::RegionDead { region: r })
        } else {
            Ok(())
        }
    }

    /// `newregion()`: creates a top-level region (a child of the traditional
    /// region, which roots the hierarchy).
    pub fn new_region(&mut self) -> RegionId {
        self.new_subregion(TRADITIONAL).expect("traditional region is always live")
    }

    /// `newsubregion(parent)`: creates a subregion of `parent`.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::RegionDead`] if `parent` was deleted.
    pub fn new_subregion(&mut self, parent: RegionId) -> Result<RegionId, RtError> {
        self.check_live_region(parent)?;
        let id = RegionId(self.regions.len() as u32);
        let born_at = self.clock.cycles();
        let mut data = RegionData::new(Some(parent));
        data.born_at = born_at;
        self.regions.push(data);
        self.region_mut(parent).children.push(id);
        match self.numbering {
            NumberingScheme::RenumberOnCreate => {
                // The paper's implementation renumbers the whole hierarchy
                // on every region creation.
                let visited = renumber(&mut self.regions);
                self.clock
                    .charge(self.costs.region_create + visited * self.costs.renumber_per_region);
            }
            NumberingScheme::GapBased => {
                let p = &self.regions[parent.0 as usize];
                let available = p.nextid.saturating_sub(p.child_cursor);
                if available >= 4 {
                    // O(1): carve half the parent's remaining space.
                    let lo = p.child_cursor;
                    let width = (available / 2).max(2);
                    let hi = lo + width;
                    let child = &mut self.regions[id.0 as usize];
                    child.id = lo;
                    child.nextid = hi;
                    child.child_cursor = lo + 1;
                    self.regions[parent.0 as usize].child_cursor = hi;
                    self.clock.charge(self.costs.region_create);
                } else {
                    // Interval exhausted: fall back to a full gapped
                    // renumbering.
                    let visited = renumber_gapped(&mut self.regions);
                    self.stats.renumber_fallbacks += 1;
                    self.clock.charge(
                        self.costs.region_create + visited * self.costs.renumber_per_region,
                    );
                }
            }
        }
        self.stats.regions_created += 1;
        self.emit(|h| {
            let (region, at) = (id.0, h.clock.cycles());
            if parent == TRADITIONAL {
                Event::RegionCreated { region, born_at, at }
            } else {
                Event::SubregionCreated { region, parent: parent.0, born_at, at }
            }
        });
        self.sample_tick();
        Ok(id)
    }

    /// `deleteregion(r)`: deletes a region and all objects in it.
    ///
    /// When reference counting is enabled the call fails if external
    /// references remain or if live subregions exist; on success the
    /// region's references *into other regions* are removed by scanning the
    /// objects of its `normal` allocator (the "region unscan" of Table 2).
    ///
    /// # Errors
    ///
    /// - [`RtError::TraditionalImmortal`] for the traditional region.
    /// - [`RtError::RegionDead`] if already deleted.
    /// - [`RtError::DeleteWithSubregions`] if live subregions remain.
    /// - [`RtError::DeleteWithLiveRefs`] if the reference count is non-zero
    ///   (only when reference counting is enabled).
    pub fn delete_region(&mut self, r: RegionId) -> Result<(), RtError> {
        if r == TRADITIONAL {
            return Err(RtError::TraditionalImmortal);
        }
        self.check_live_region(r)?;
        let blocked_by_children = !self.region(r).children.is_empty();
        let blocked_by_refs = self.rc_enabled && self.region(r).rc != 0;
        if blocked_by_children || blocked_by_refs {
            match self.delete_policy {
                DeletePolicy::Abort => {
                    if blocked_by_children {
                        return Err(RtError::DeleteWithSubregions { region: r });
                    }
                    return Err(RtError::DeleteWithLiveRefs { region: r, rc: self.region(r).rc });
                }
                DeletePolicy::Deferred => {
                    // Doom the region; it is reclaimed when the count
                    // drops to zero and the last subregion dies.
                    self.regions[r.0 as usize].doomed = true;
                    self.stats.regions_deferred += 1;
                    return Ok(());
                }
            }
        }
        self.reclaim(r);
        Ok(())
    }

    /// Actually frees a region (preconditions: live, no children, no
    /// external references) and cascades to any doomed regions this
    /// release unblocks.
    fn reclaim(&mut self, r: RegionId) {
        let mut worklist = vec![r];
        while let Some(r) = worklist.pop() {
            if self.rc_enabled {
                self.unscan(r);
            }
            // Release pages and account for freed memory.
            let region = &mut self.regions[r.0 as usize];
            let mut freed = region.normal.release_all(&mut self.store);
            freed += region.pointerfree.release_all(&mut self.store);
            region.alive = false;
            region.doomed = false;
            let born_at = region.born_at;
            let parent = region.parent.take();
            if let Some(p) = parent {
                let kids = &mut self.regions[p.0 as usize].children;
                kids.retain(|&c| c != r);
                if self.reclaimable(p) {
                    worklist.push(p);
                }
            }
            self.stats.sub_live(freed);
            self.stats.regions_deleted += 1;
            self.emit(|h| {
                let at = h.clock.cycles();
                let lifetime_cycles = at.saturating_sub(born_at);
                Event::RegionDeleted { region: r.0, live_words: freed, lifetime_cycles, at }
            });
            self.sample_tick();
            // The unscan may have released counts on other doomed regions.
            for i in 0..self.regions.len() {
                let cand = RegionId(i as u32);
                if self.reclaimable(cand) && !worklist.contains(&cand) {
                    worklist.push(cand);
                }
            }
        }
    }

    fn reclaimable(&self, r: RegionId) -> bool {
        let region = &self.regions[r.0 as usize];
        region.alive && region.doomed && region.children.is_empty() && region.rc == 0
    }

    /// Reclaims any doomed regions whose counts have reached zero; called
    /// after operations that decrement counts. No-op under
    /// [`DeletePolicy::Abort`].
    pub(crate) fn sweep_doomed(&mut self) {
        if self.delete_policy != DeletePolicy::Deferred {
            return;
        }
        for i in 0..self.regions.len() {
            let r = RegionId(i as u32);
            if self.reclaimable(r) {
                self.reclaim(r);
            }
        }
    }

    /// Removes the deleted region's counted references into other regions
    /// by scanning its `normal` pages; `pointerfree` pages "need not be
    /// scanned as they do not contain pointers to other regions".
    fn unscan(&mut self, r: RegionId) {
        let mut decrements: Vec<RegionId> = Vec::new();
        let mut scanned_words: u64 = 0;
        for rec in self.regions[r.0 as usize].normal.objs() {
            let size = self.types.get(rec.ty).size_words();
            scanned_words += (size as u64) * rec.count as u64;
            self.counted_targets(rec.addr, rec.ty, rec.count, r, &mut decrements);
        }
        for tgt in decrements {
            self.regions[tgt.0 as usize].rc -= 1;
        }
        self.stats.unscan_words += scanned_words;
        let cycles = scanned_words * self.costs.unscan_per_word;
        self.stats.unscan_cycles += cycles;
        self.clock.charge(cycles);
    }

    /// Appends to `out` the region each non-null counted slot of the
    /// `count` objects of type `ty` at `addr` points into, unless that is
    /// `own`, the objects' own region: one entry per count those slots
    /// hold.
    pub(crate) fn counted_targets(
        &self,
        addr: Addr,
        ty: TypeId,
        count: u32,
        own: RegionId,
        out: &mut Vec<RegionId>,
    ) {
        let layout = self.types.get(ty);
        let size = layout.size_words();
        for elem in 0..count as usize {
            let base = addr.offset(elem * size);
            for off in layout.counted_ptr_offsets() {
                let val = Addr::from_raw(self.store.read(base.offset(off)));
                // A slot can only point at freed memory if the count
                // invariant was already broken (rc off, or a prior fault);
                // skip it rather than panic.
                if let Some(tgt) = self.try_region_of(val).filter(|&t| t != own) {
                    out.push(tgt);
                }
            }
        }
    }

    /// `ralloc(r, type)`: allocates one object of `ty` in region `r`.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::RegionDead`] for a deleted region or
    /// [`RtError::OutOfMemory`] if the page budget is exhausted.
    pub fn ralloc(&mut self, r: RegionId, ty: TypeId) -> Result<Addr, RtError> {
        self.rarray_alloc(r, ty, 1)
    }

    /// `rarrayalloc(r, n, type)`: allocates an array of `n` objects.
    ///
    /// # Errors
    ///
    /// As [`Heap::ralloc`].
    pub fn rarray_alloc(&mut self, r: RegionId, ty: TypeId, n: u32) -> Result<Addr, RtError> {
        self.check_live_region(r)?;
        self.fault_alloc_tick()?;
        debug_assert!(n >= 1);
        let layout = self.types.get(ty);
        let words = layout.size_words() * n as usize;
        let pointerfree = !layout.has_counted_ptrs();
        let site = self.trace_site;
        let region = &mut self.regions[r.0 as usize];
        let alloc = if pointerfree { &mut region.pointerfree } else { &mut region.normal };
        let out = match alloc.alloc(&mut self.store, PageOwner::Region(r), words, ty, n, site) {
            Ok(out) => out,
            Err(e) => return Err(self.fault_stamp_oom(e)),
        };
        let cycles = self.costs.region_alloc
            + out.new_pages as u64 * self.costs.page_fetch
            + out.recycled_pages as u64 * self.costs.page_recycle;
        self.stats.alloc_cycles += cycles;
        self.clock.charge(cycles);
        self.stats.objects_allocated += 1;
        self.stats.words_allocated += words as u64;
        self.stats.add_live(words as u64);
        let words = words as u32;
        self.emit(|h| Event::Alloc { region: r.0, site, words, at: h.clock.cycles() });
        self.sample_tick();
        Ok(out.addr)
    }

    /// `regionof(x)`: the region owning the page `x` points into. Pages of
    /// the malloc and GC heaps report the traditional region, exactly as in
    /// the paper ("traditional C pointers are viewed as pointers to a
    /// distinguished traditional region").
    ///
    /// # Errors
    ///
    /// Returns [`RtError::WildPointer`] for the null pointer or a pointer
    /// into freed memory — a defined failure, never a crash, since the
    /// argument can come straight from interpreted program input.
    #[inline]
    pub fn region_of(&self, a: Addr) -> Result<RegionId, RtError> {
        self.try_region_of(a).ok_or(RtError::WildPointer { addr: a })
    }

    /// As [`Heap::region_of`] but returns `None` for null or freed memory.
    #[inline]
    pub fn try_region_of(&self, a: Addr) -> Option<RegionId> {
        if a.is_null() {
            return None;
        }
        match self.store.owner_of(a) {
            PageOwner::Region(r) => Some(r),
            PageOwner::Gc => Some(TRADITIONAL),
            PageOwner::Free => None,
        }
    }

    /// Reads the word at field offset `field` of the object at `a`.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::WildPointer`] if the address is null or not in
    /// live memory.
    #[inline]
    pub fn read_word(&self, a: Addr, field: usize) -> Result<u64, RtError> {
        let slot = a.offset(field);
        if !self.store.is_live(slot) {
            return Err(RtError::WildPointer { addr: slot });
        }
        Ok(self.store.read(slot))
    }

    /// Writes a non-pointer word; never touches reference counts.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::WildPointer`] for a bad address.
    #[inline]
    pub fn write_int(&mut self, a: Addr, field: usize, val: u64) -> Result<(), RtError> {
        let slot = a.offset(field);
        if !self.store.is_live(slot) {
            return Err(RtError::WildPointer { addr: slot });
        }
        self.store.write(slot, val);
        self.clock.charge(self.costs.store_plain);
        Ok(())
    }

    /// Pins a region on behalf of a live local variable around a call to a
    /// `deletes` function ("RC increments the reference count of all regions
    /// referred to by live local variables and decrements these reference
    /// counts on return", §3.3.2). Each pin must be matched by
    /// [`Heap::unpin_region`].
    pub fn pin_region(&mut self, r: RegionId) {
        if !self.rc_enabled || r == TRADITIONAL {
            return;
        }
        let costs_pin = self.costs.local_pin_pair;
        let region = self.region_mut(r);
        if !region.alive {
            return; // stale handle in a dead local; nothing to protect
        }
        region.rc += 1;
        region.pins += 1;
        self.stats.local_pins += 1;
        self.stats.rc_cycles += costs_pin;
        self.clock.charge(costs_pin);
    }

    /// Releases a pin taken by [`Heap::pin_region`].
    pub fn unpin_region(&mut self, r: RegionId) {
        if !self.rc_enabled || r == TRADITIONAL {
            return;
        }
        let region = self.region_mut(r);
        if !region.alive {
            return;
        }
        region.rc -= 1;
        region.pins -= 1;
        self.sweep_doomed();
    }

    /// The reference count of a region (for tests and the auditor).
    pub fn region_rc(&self, r: RegionId) -> i64 {
        self.region(r).rc
    }

    /// Whether a region is live.
    pub fn region_alive(&self, r: RegionId) -> bool {
        self.region(r).alive
    }

    /// Number of regions ever created (including the traditional region).
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Words currently in use by live regions' allocators.
    pub fn region_live_words(&self) -> u64 {
        self.regions
            .iter()
            .filter(|r| r.alive)
            .map(|r| r.normal.used_words() + r.pointerfree.used_words())
            .sum()
    }

    // ---- timeline sampling ------------------------------------------------

    /// Attaches a [`Timeline`] sampler that snapshots the heap every
    /// `interval` runtime events, retaining at most `cap` samples (older
    /// samples are decimated).
    pub fn enable_sampling(&mut self, interval: u64, cap: usize) {
        let tl = Timeline::new(interval, cap);
        self.sample_countdown = tl.interval();
        self.timeline = Some(Box::new(tl));
    }

    /// Detaches and returns the timeline, disabling further sampling.
    pub fn take_timeline(&mut self) -> Option<Box<Timeline>> {
        self.sample_countdown = 0;
        self.timeline.take()
    }

    /// The attached timeline, if sampling is enabled.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_deref()
    }

    /// Whether a timeline sampler is attached.
    pub fn sampling_enabled(&self) -> bool {
        self.timeline.is_some()
    }

    /// One sampling tick. Every instrumented runtime event (allocation,
    /// count update, check, free, collection) calls this, and so does an
    /// interpreter step that [`Heap::sample_ticks`] could not take; with
    /// sampling disabled it is a single compare against zero.
    #[inline(always)]
    pub fn sample_tick(&mut self) {
        if self.sample_countdown != 0 {
            self.sample_countdown -= 1;
            if self.sample_countdown == 0 {
                self.sample_take();
            }
        }
    }

    /// `n` sampling ticks at once, taken only when no sample falls among
    /// them: returns whether it took them. When it returns `false` nothing
    /// was consumed, and the caller ticks one at a time with
    /// [`Heap::sample_tick`]. The interpreter takes an instruction's steps
    /// this way; with sampling disabled it always succeeds, after one
    /// compare.
    #[inline(always)]
    pub fn sample_ticks(&mut self, n: u64) -> bool {
        // A countdown of 0 (sampling off) wraps to u64::MAX here.
        if self.sample_countdown.wrapping_sub(1) < n {
            return false;
        }
        self.sample_countdown = self.sample_countdown.saturating_sub(n);
        true
    }

    /// Takes an immediate snapshot regardless of the tick countdown (used
    /// for the final sample at end of run). No-op when sampling is off.
    pub fn sample_now(&mut self) {
        if let Some(tl) = self.timeline.as_mut() {
            // Account the ticks consumed from the current window.
            let consumed = tl.interval() - self.sample_countdown.min(tl.interval());
            tl.note_ticks(consumed);
            self.sample_push();
        }
    }

    /// The scheduled (countdown-expired) sample: a full window of ticks
    /// elapsed.
    #[cold]
    fn sample_take(&mut self) {
        if let Some(tl) = self.timeline.as_mut() {
            let window = tl.interval();
            tl.note_ticks(window);
        }
        self.sample_push();
    }

    fn sample_push(&mut self) {
        let gauges = self.gauges();
        let cycles = self.clock.cycles();
        let site = self.trace_site;
        if let Some(tl) = self.timeline.as_mut() {
            tl.push(gauges, &self.stats, cycles, site);
            // Decimation may have doubled the interval; reschedule from it.
            self.sample_countdown = tl.interval();
            // Surface lost resolution in the run's counters (assignment,
            // not +=: the timeline's count is already cumulative).
            self.stats.samples_dropped = tl.samples_dropped();
        }
    }

    /// Point-in-time structural gauges: page-map usage, per-page occupancy
    /// of live regions' allocators, and malloc free-list depth. This is
    /// what timeline samples record; it is public so tests can cross-check
    /// snapshots against the page map directly.
    pub fn gauges(&self) -> HeapGauges {
        let mut g = HeapGauges {
            live_regions: 0,
            pages_committed: self.store.pages_committed() as u32,
            pages_in_use: self.store.pages_in_use() as u32,
            pages_free: self.store.pages_free() as u32,
            region_pages: 0,
            occupancy: [0; crate::timeline::OCCUPANCY_BUCKETS],
            malloc_free_depth: self.malloc.free_list_depth() as u32,
        };
        for (idx, region) in self.regions.iter().enumerate() {
            if !region.alive {
                continue;
            }
            g.live_regions += 1;
            if RegionId(idx as u32) == TRADITIONAL {
                // The traditional region's footprint is the malloc/GC
                // heaps' domain; region_pages covers real regions only, so
                // it can be checked against the page map (malloc pages are
                // also mapped to the traditional region).
                continue;
            }
            for alloc in [&region.normal, &region.pointerfree] {
                g.region_pages += alloc.page_count() as u32;
                for &used in alloc.page_fill() {
                    g.occupancy[occupancy_bucket(used, WORDS_PER_PAGE as u32)] += 1;
                }
            }
        }
        g
    }

    /// Ground truth for [`HeapGauges::region_pages`], from the other side:
    /// pages the page map assigns to non-traditional regions. Only the
    /// bump allocators acquire pages with such owners, so this must always
    /// equal the allocator-side count.
    pub fn mapped_region_pages(&self) -> u32 {
        let mut n = 0;
        for p in 0..self.store.page_count() as u32 {
            if let PageOwner::Region(r) = self.store.owner(p) {
                if r != TRADITIONAL {
                    n += 1;
                }
            }
        }
        n
    }

    // ---- fault injection --------------------------------------------------

    /// Installs a fault-injection plan: one [`FaultArm`] per armed plane.
    /// Replaces any previously installed arms; an empty plan disarms
    /// everything. See `docs/ROBUSTNESS.md`.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        let arm = |plane: FaultPlane, mode: &Option<FaultMode>| {
            mode.clone().map(|m| Box::new(FaultArm::new(plane, m, plan.sticky)))
        };
        self.store.set_fault_arm(arm(FaultPlane::PageAcquire, &plan.page_acquire));
        self.fault_alloc = arm(FaultPlane::Alloc, &plan.alloc);
        self.fault_rc = arm(FaultPlane::RcSaturate, &plan.rc_saturate);
        self.fault_check = arm(FaultPlane::CheckFail, &plan.check_fail);
    }

    /// Whether any fault plane is currently armed.
    pub fn faults_enabled(&self) -> bool {
        self.fault_alloc.is_some()
            || self.fault_rc.is_some()
            || self.fault_check.is_some()
            || self.store.fault_armed()
    }

    /// Detaches every fault arm and returns the harvested report (`None`
    /// if nothing was armed). Recovery code runs after this, so the unwind
    /// itself is never subject to injection; any page-plane injections
    /// still pending a clock stamp are stamped with the current time.
    pub fn take_faults(&mut self) -> Option<FaultReport> {
        self.store.stamp_fault(self.clock.cycles());
        let page_arm = self.store.take_fault_arm();
        if let Some(arm) = page_arm.as_ref() {
            // The page store fires below the heap layer, so its
            // injections reach stats/trace/spans at harvest, with their
            // back-filled stamps (the heap-level planes record at
            // tick time in their slow paths).
            let injected: Vec<crate::fault::InjectedFault> = arm.injected().to_vec();
            for f in injected {
                self.note_fault_injected(f.plane, f.op, f.at);
            }
        }
        let arms: Vec<FaultArm> =
            [page_arm, self.fault_alloc.take(), self.fault_rc.take(), self.fault_check.take()]
                .into_iter()
                .flatten()
                .map(|b| *b)
                .collect();
        if arms.is_empty() {
            None
        } else {
            Some(FaultReport::from_arms(arms))
        }
    }

    /// One allocation-plane tick (shared by `rarrayalloc`, `malloc`, and
    /// GC allocation, so "the Nth allocation" is backend-independent).
    /// Disabled: a single branch.
    #[inline(always)]
    pub(crate) fn fault_alloc_tick(&mut self) -> Result<(), RtError> {
        if self.fault_alloc.is_none() {
            return Ok(());
        }
        self.fault_alloc_slow()
    }

    fn fault_alloc_slow(&mut self) -> Result<(), RtError> {
        let at = self.clock.cycles();
        if self.fault_alloc.as_mut().is_some_and(|arm| arm.tick(at)) {
            let op = self.fault_alloc.as_ref().map_or(0, |a| a.ops());
            self.note_fault_injected(FaultPlane::Alloc, op, at);
            return Err(RtError::OutOfMemory);
        }
        Ok(())
    }

    /// One rc-plane tick, taken by `write_counted` *before* any count or
    /// slot is mutated, so an injected [`RtError::RcOverflow`] leaves the
    /// heap audit-clean. Disabled: a single branch.
    #[inline(always)]
    pub(crate) fn fault_rc_tick(&mut self, obj: Addr, val: Addr) -> Result<(), RtError> {
        if self.fault_rc.is_none() {
            return Ok(());
        }
        self.fault_rc_slow(obj, val)
    }

    fn fault_rc_slow(&mut self, obj: Addr, val: Addr) -> Result<(), RtError> {
        let at = self.clock.cycles();
        let fired = self.fault_rc.as_mut().is_some_and(|arm| arm.tick(at));
        if fired {
            let op = self.fault_rc.as_ref().map_or(0, |a| a.ops());
            self.note_fault_injected(FaultPlane::RcSaturate, op, at);
            // Name the region whose count would have been raised.
            let region =
                self.try_region_of(val).or_else(|| self.try_region_of(obj)).unwrap_or(TRADITIONAL);
            return Err(RtError::RcOverflow { region });
        }
        Ok(())
    }

    /// One check-plane tick; returns whether the annotation check must be
    /// forced to fail. Disabled: a single branch.
    #[inline(always)]
    pub(crate) fn fault_check_tick(&mut self) -> bool {
        if self.fault_check.is_none() {
            return false;
        }
        self.fault_check_slow()
    }

    fn fault_check_slow(&mut self) -> bool {
        let at = self.clock.cycles();
        let fired = self.fault_check.as_mut().is_some_and(|arm| arm.tick(at));
        if fired {
            let op = self.fault_check.as_ref().map_or(0, |a| a.ops());
            self.note_fault_injected(FaultPlane::CheckFail, op, at);
        }
        fired
    }

    /// Records one injected fault: the `faults_injected` stat plus one
    /// [`Event::Fault`].
    #[cold]
    pub(crate) fn note_fault_injected(&mut self, plane: FaultPlane, op: u64, at: u64) {
        self.stats.faults_injected += 1;
        self.emit(|_| Event::Fault { plane, op, at });
    }

    /// Back-fills the virtual-clock stamp on page-plane injections when an
    /// out-of-memory error surfaces at a heap entry point (the page store
    /// fires below the clock, see [`crate::fault::STAMP_PENDING`]).
    #[cold]
    pub(crate) fn fault_stamp_oom(&mut self, e: RtError) -> RtError {
        if e == RtError::OutOfMemory {
            self.store.stamp_fault(self.clock.cycles());
        }
        e
    }

    // ---- fault recovery ---------------------------------------------------

    /// Emergency region-stack teardown after a trapped fault.
    ///
    /// First nulls every counted pointer slot held by live regions' normal
    /// objects and by live malloc objects, decrementing the target region's
    /// count for each live cross-region pointer exactly as a counted NULL
    /// store would — but free of cost-model charges, since recovery is not
    /// program work. Then repeatedly deletes leaf regions (clearing pins
    /// and doom flags, which belonged to the unwound program) until only
    /// the traditional region survives. The heap is audit-clean afterwards.
    /// Returns the number of regions deleted.
    pub fn unwind_regions(&mut self) -> usize {
        for idx in 0..self.regions.len() {
            if !self.regions[idx].alive {
                continue;
            }
            let r = RegionId(idx as u32);
            let slots = self.counted_slots_of_region(r);
            self.null_counted_slots(r, &slots);
        }
        let mut slots = Vec::new();
        for (addr, obj) in self.malloc.live_objects() {
            let layout = self.types.get(obj.ty);
            let size = layout.size_words();
            for elem in 0..obj.count as usize {
                let base = addr.offset(elem * size);
                for off in layout.counted_ptr_offsets() {
                    slots.push(base.offset(off));
                }
            }
        }
        self.null_counted_slots(TRADITIONAL, &slots);
        let live_before = self.regions.iter().filter(|d| d.alive).count();
        loop {
            let leaf = (1..self.regions.len()).map(|i| RegionId(i as u32)).find(|&r| {
                let d = &self.regions[r.0 as usize];
                d.alive && d.children.is_empty()
            });
            let Some(r) = leaf else { break };
            {
                let d = &mut self.regions[r.0 as usize];
                d.rc = 0;
                d.pins = 0;
                d.doomed = false;
            }
            if self.delete_region(r).is_err() {
                break; // unreachable (leaf, rc 0), but never loop forever
            }
        }
        live_before - self.regions.iter().filter(|d| d.alive).count()
    }

    /// Word addresses of every counted pointer slot in a region's normal
    /// objects (its pointer-free allocator holds none by construction).
    fn counted_slots_of_region(&self, r: RegionId) -> Vec<Addr> {
        let mut slots = Vec::new();
        let region = &self.regions[r.0 as usize];
        for rec in region.normal.objs() {
            let layout = self.types.get(rec.ty);
            let size = layout.size_words();
            for elem in 0..rec.count as usize {
                let base = rec.addr.offset(elem * size);
                for off in layout.counted_ptr_offsets() {
                    slots.push(base.offset(off));
                }
            }
        }
        slots
    }

    /// Nulls counted slots owned by `r`, maintaining cross-region counts.
    fn null_counted_slots(&mut self, r: RegionId, slots: &[Addr]) {
        for &slot in slots {
            let val = Addr::from_raw(self.store.read(slot));
            if val.is_null() {
                continue;
            }
            if self.rc_enabled {
                if let Some(tgt) = self.try_region_of(val) {
                    if tgt != r {
                        self.regions[tgt.0 as usize].rc -= 1;
                    }
                }
            }
            self.store.write(slot, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{PtrKind, SlotKind};

    fn list_type(heap: &mut Heap, kind: PtrKind) -> TypeId {
        heap.register_type(TypeLayout::new("node", vec![SlotKind::Ptr(kind), SlotKind::Data]))
    }

    #[test]
    fn alloc_and_regionof() {
        let mut h = Heap::with_defaults();
        let ty = list_type(&mut h, PtrKind::Counted);
        let r = h.new_region();
        let a = h.ralloc(r, ty).unwrap();
        assert_eq!(h.region_of(a), Ok(r));
        assert!(!a.is_null());
        assert_eq!(h.region_of(Addr::NULL), Err(RtError::WildPointer { addr: Addr::NULL }));
    }

    #[test]
    fn pointerfree_and_normal_segregation() {
        let mut h = Heap::with_defaults();
        let counted = list_type(&mut h, PtrKind::Counted);
        let annotated = list_type(&mut h, PtrKind::SameRegion);
        let r = h.new_region();
        let a = h.ralloc(r, counted).unwrap();
        let b = h.ralloc(r, annotated).unwrap();
        // Different allocators → different pages.
        assert_ne!(a.page(), b.page());
        let rd = &h.regions[r.0 as usize];
        assert_eq!(rd.normal.objs().len(), 1);
        assert_eq!(rd.pointerfree.objs().len(), 1);
    }

    #[test]
    fn delete_empty_region() {
        let mut h = Heap::with_defaults();
        let r = h.new_region();
        assert!(h.region_alive(r));
        h.delete_region(r).unwrap();
        assert!(!h.region_alive(r));
        assert_eq!(h.delete_region(r), Err(RtError::RegionDead { region: r }));
    }

    #[test]
    fn traditional_cannot_be_deleted() {
        let mut h = Heap::with_defaults();
        assert_eq!(h.delete_region(TRADITIONAL), Err(RtError::TraditionalImmortal));
    }

    #[test]
    fn subregions_must_go_first() {
        let mut h = Heap::with_defaults();
        let r = h.new_region();
        let s = h.new_subregion(r).unwrap();
        assert_eq!(h.delete_region(r), Err(RtError::DeleteWithSubregions { region: r }));
        h.delete_region(s).unwrap();
        h.delete_region(r).unwrap();
    }

    #[test]
    fn alloc_into_dead_region_fails() {
        let mut h = Heap::with_defaults();
        let ty = list_type(&mut h, PtrKind::Counted);
        let r = h.new_region();
        h.delete_region(r).unwrap();
        assert_eq!(h.ralloc(r, ty), Err(RtError::RegionDead { region: r }));
        assert!(h.new_subregion(r).is_err());
    }

    #[test]
    fn live_words_tracks_alloc_and_delete() {
        let mut h = Heap::with_defaults();
        let ty = list_type(&mut h, PtrKind::Counted);
        let r = h.new_region();
        h.rarray_alloc(r, ty, 10).unwrap();
        assert_eq!(h.stats.live_words, 20);
        assert_eq!(h.region_live_words(), 20);
        h.delete_region(r).unwrap();
        assert_eq!(h.stats.live_words, 0);
    }

    #[test]
    fn pin_blocks_delete() {
        let mut h = Heap::with_defaults();
        let r = h.new_region();
        h.pin_region(r);
        assert!(matches!(h.delete_region(r), Err(RtError::DeleteWithLiveRefs { .. })));
        h.unpin_region(r);
        h.delete_region(r).unwrap();
    }

    #[test]
    fn read_write_int_round_trip() {
        let mut h = Heap::with_defaults();
        let ty = list_type(&mut h, PtrKind::Counted);
        let r = h.new_region();
        let a = h.ralloc(r, ty).unwrap();
        h.write_int(a, 1, 99).unwrap();
        assert_eq!(h.read_word(a, 1).unwrap(), 99);
    }

    /// A fixed workout touching regions, malloc, and GC, identical across
    /// sampled and unsampled heaps.
    fn workout(h: &mut Heap) {
        use crate::rcops::WriteMode;
        let counted = h.register_type(TypeLayout::new(
            "node",
            vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data],
        ));
        let r1 = h.new_region();
        let r2 = h.new_subregion(r1).unwrap();
        for _ in 0..40 {
            let a = h.ralloc(r1, counted).unwrap();
            let b = h.ralloc(r2, counted).unwrap();
            h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
            h.write_ptr(a, 0, Addr::NULL, WriteMode::Counted).unwrap();
        }
        let m = h.m_alloc(counted, 3).unwrap();
        h.m_free(m).unwrap();
        h.gc_alloc(counted, 2).unwrap();
        h.gc_collect(&[]);
        h.delete_region(r2).unwrap();
        h.delete_region(r1).unwrap();
    }

    #[test]
    fn sampling_is_observation_only() {
        let mut plain = Heap::with_defaults();
        workout(&mut plain);
        let mut sampled = Heap::with_defaults();
        sampled.enable_sampling(8, 64);
        workout(&mut sampled);
        // Same counters, same virtual time: the sampler never perturbs the
        // run it observes.
        assert_eq!(plain.stats, sampled.stats);
        assert_eq!(plain.clock.cycles(), sampled.clock.cycles());
        let tl = sampled.take_timeline().expect("sampler attached");
        assert!(tl.len() > 3, "periodic samples were taken: {}", tl.len());
        let last = tl.samples().last().unwrap();
        assert_eq!(last.gauges.pages_in_use as usize, sampled.store.pages_in_use());
        assert_eq!(
            last.gauges.pages_committed,
            last.gauges.pages_in_use + last.gauges.pages_free,
            "committed pages partition into in-use and free"
        );
    }

    #[test]
    fn sample_now_takes_forced_snapshot_and_tracks_gauges() {
        let mut h = Heap::with_defaults();
        h.enable_sampling(1_000_000, 64); // countdown will never expire
        let ty = list_type(&mut h, PtrKind::Counted);
        let r = h.new_region();
        h.rarray_alloc(r, ty, 100).unwrap();
        h.sample_now();
        let tl = h.timeline().unwrap();
        assert_eq!(tl.len(), 1);
        let s = &tl.samples()[0];
        assert_eq!(s.live_words, 200);
        assert_eq!(s.gauges.region_pages, h.mapped_region_pages());
        assert!(s.gauges.live_regions >= 2);
        assert_eq!(s.d_allocs, 1);
        // A second forced sample sees only the delta.
        h.rarray_alloc(r, ty, 1).unwrap();
        h.sample_now();
        let tl = h.timeline().unwrap();
        assert_eq!(tl.samples()[1].d_allocs, 1);
        assert_eq!(tl.samples()[1].d_alloc_words, 2);
    }

    #[test]
    fn sampling_api_is_safe_whether_or_not_the_feature_is_on() {
        let mut h = Heap::with_defaults();
        assert!(!h.sampling_enabled());
        h.sample_tick(); // no-ops before enable_sampling
        h.sample_now();
        h.enable_sampling(4, 16);
        assert!(h.sampling_enabled());
        h.sample_now();
        assert!(h.take_timeline().is_some());
        assert!(!h.sampling_enabled());
    }

    #[test]
    fn sample_ticks_take_only_runs_without_a_sample() {
        let mut h = Heap::with_defaults();
        assert!(h.sample_ticks(u64::MAX), "sampling off: any run is taken");
        h.enable_sampling(4, 16);
        assert!(h.sample_ticks(3));
        assert!(!h.sample_ticks(1), "the 4th tick is a sample");
        assert!(h.timeline().unwrap().is_empty(), "a refused run consumes nothing");
        h.sample_tick();
        assert_eq!(h.timeline().unwrap().len(), 1);
        assert!(!h.sample_ticks(4));
        assert!(h.sample_ticks(3));
        h.sample_tick();
        assert_eq!(h.timeline().unwrap().ticks(), 8);
    }

    #[test]
    fn wild_pointer_detected() {
        let h = Heap::with_defaults();
        assert!(matches!(
            h.read_word(Addr::from_parts(500, 0), 0),
            Err(RtError::WildPointer { .. })
        ));
        assert!(matches!(h.read_word(Addr::NULL, 0), Err(RtError::WildPointer { .. })));
    }

    #[test]
    fn alloc_fault_plane_counts_across_all_backends() {
        use crate::fault::{FaultMode, FaultPlan};
        let mut h = Heap::with_defaults();
        let ty = list_type(&mut h, PtrKind::Counted);
        let r = h.new_region();
        // The 4th allocation fails, wherever it lands: the shared counter
        // makes "the Nth allocation" backend-independent.
        h.install_faults(&FaultPlan::new().fail_alloc(FaultMode::nth(4)).sticky());
        assert!(h.ralloc(r, ty).is_ok());
        assert!(h.m_alloc(ty, 1).is_ok());
        assert!(h.gc_alloc(ty, 1).is_ok());
        assert_eq!(h.ralloc(r, ty), Err(RtError::OutOfMemory));
        // Sticky: every later allocation keeps failing, on every backend.
        assert_eq!(h.m_alloc(ty, 1), Err(RtError::OutOfMemory));
        assert_eq!(h.gc_alloc(ty, 2), Err(RtError::OutOfMemory));
        h.audit().unwrap();
        let report = h.take_faults().expect("arms were installed");
        assert_eq!(report.arms.len(), 1);
        assert_eq!(report.arms[0].ops, 6);
        assert_eq!(report.arms[0].injected.len(), 3);
        assert_eq!(report.first().map(|f| f.op), Some(4));
        assert!(!h.faults_enabled(), "take_faults disarms everything");
        assert!(h.ralloc(r, ty).is_ok(), "disarmed heap allocates again");
    }

    #[test]
    fn rc_fault_fails_store_without_corrupting_counts() {
        use crate::fault::{FaultMode, FaultPlan};
        use crate::rcops::WriteMode;
        let mut h = Heap::with_defaults();
        let ty = list_type(&mut h, PtrKind::Counted);
        let (r1, r2) = (h.new_region(), h.new_region());
        let a = h.ralloc(r1, ty).unwrap();
        let b = h.ralloc(r2, ty).unwrap();
        h.install_faults(&FaultPlan::new().saturate_rc(FaultMode::nth(2)));
        h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
        assert_eq!(h.region_rc(r2), 1);
        // The injected failure names the target region and mutates nothing:
        // the old pointer is still in place, the counts still agree.
        assert_eq!(
            h.write_ptr(a, 0, Addr::NULL, WriteMode::Counted),
            Err(RtError::RcOverflow { region: r1 })
        );
        assert_eq!(h.region_rc(r2), 1);
        assert_eq!(h.read_ptr(a, 0).unwrap(), b);
        h.audit().unwrap();
        // Non-sticky: the next update goes through.
        h.write_ptr(a, 0, Addr::NULL, WriteMode::Counted).unwrap();
        assert_eq!(h.region_rc(r2), 0);
        h.audit().unwrap();
    }

    #[test]
    fn check_fault_forces_a_failure_and_suppresses_the_store() {
        use crate::fault::{FaultMode, FaultPlan};
        use crate::rcops::WriteMode;
        let mut h = Heap::with_defaults();
        let ty = list_type(&mut h, PtrKind::SameRegion);
        let r = h.new_region();
        let a = h.ralloc(r, ty).unwrap();
        let b = h.ralloc(r, ty).unwrap();
        h.install_faults(&FaultPlan::new().fail_checks(FaultMode::nth(1)));
        // A store that would legitimately pass is forced to fail.
        assert!(matches!(
            h.write_ptr(a, 0, b, WriteMode::Check(PtrKind::SameRegion)),
            Err(RtError::CheckFailed { kind: PtrKind::SameRegion, .. })
        ));
        assert!(h.read_ptr(a, 0).unwrap().is_null(), "failed check stores nothing");
        assert_eq!(h.stats.checks_sameregion, 1, "the check was still counted");
        h.write_ptr(a, 0, b, WriteMode::Check(PtrKind::SameRegion)).unwrap();
        h.audit().unwrap();
    }

    #[test]
    fn unwind_regions_clears_a_tangled_heap_audit_clean() {
        use crate::rcops::WriteMode;
        let mut h = Heap::with_defaults();
        let ty = list_type(&mut h, PtrKind::Counted);
        let r1 = h.new_region();
        let r2 = h.new_subregion(r1).unwrap();
        let r3 = h.new_subregion(r2).unwrap();
        let a = h.ralloc(r1, ty).unwrap();
        let b = h.ralloc(r2, ty).unwrap();
        let c = h.ralloc(r3, ty).unwrap();
        let g = h.m_alloc(ty, 1).unwrap();
        // Cross-region and malloc→region references, plus a pin: exactly
        // the state a program traps in mid-flight.
        h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
        h.write_ptr(b, 0, c, WriteMode::Counted).unwrap();
        h.write_ptr(g, 0, c, WriteMode::Counted).unwrap();
        h.pin_region(r2);
        assert!(h.delete_region(r1).is_err(), "normal deletion is blocked");
        let deleted = h.unwind_regions();
        assert_eq!(deleted, 3);
        for r in [r1, r2, r3] {
            assert!(!h.region_alive(r));
        }
        assert!(h.region_alive(TRADITIONAL));
        assert!(h.read_ptr(g, 0).unwrap().is_null(), "malloc slots were nulled");
        h.audit().unwrap();
        // The heap still works: fresh regions allocate and delete normally.
        let r = h.new_region();
        h.ralloc(r, ty).unwrap();
        h.delete_region(r).unwrap();
        h.audit().unwrap();
    }

    #[test]
    fn unwind_regions_on_a_clean_heap_is_a_noop() {
        let mut h = Heap::with_defaults();
        assert_eq!(h.unwind_regions(), 0);
        h.audit().unwrap();
    }
}
