//! Post-mortem heap snapshots.
//!
//! A [`HeapSnapshot`] is a byte-deterministic capture of the full heap
//! state at one virtual-clock instant: the region tree with per-region
//! occupancy and span-derived aggregates, the page → owner map with
//! per-page fill, the allocator free lists, and per-`(region, site)`
//! retained words folded from the live-object tables. Snapshots are taken
//! at program exit, at every GC, and on a trap (before the unwind clears
//! the heap), then serialized with the schema tag [`SNAPSHOT_SCHEMA`] for
//! the `rc-bench inspect` offline analyzer.
//!
//! The capture is exhaustively cross-checked: [`HeapSnapshot::verify_against`]
//! asserts the identity `live_words == region + malloc + gc requested
//! words` along three independent paths (region tree, page map, site
//! table), so a snapshot that loads is also known to be self-consistent.

mod restore;

use std::collections::BTreeMap;

use crate::addr::{Addr, WORDS_PER_PAGE};
use crate::heap::Heap;
use crate::json::Json;
use crate::page::PageOwner;
use crate::region::TRADITIONAL;
use crate::stats::Stats;

/// Schema identifier stamped into every serialized snapshot (registered in
/// `rc_bench::schema` alongside the other artifact schemas).
pub const SNAPSHOT_SCHEMA: &str = "rc-bench-snapshot/v1";

/// Why a snapshot was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotReason {
    /// Orderly program exit (the final heap state).
    Exit,
    /// Immediately after a GC pause (what survived the collection).
    Gc,
    /// An injected fault trapped; captured before the unwind tears the
    /// heap down, so the dump shows the pre-unwind state.
    Trap,
}

impl SnapshotReason {
    /// The serialized tag.
    pub fn as_str(self) -> &'static str {
        match self {
            SnapshotReason::Exit => "exit",
            SnapshotReason::Gc => "gc",
            SnapshotReason::Trap => "trap",
        }
    }

    /// Parses a serialized tag.
    pub fn parse(s: &str) -> Option<SnapshotReason> {
        match s {
            "exit" => Some(SnapshotReason::Exit),
            "gc" => Some(SnapshotReason::Gc),
            "trap" => Some(SnapshotReason::Trap),
            _ => None,
        }
    }
}

/// One region's state at capture time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSnapshot {
    /// Region index (== span index when spans were recorded).
    pub region: u32,
    /// Parent region index; `None` only for the traditional region.
    pub parent: Option<u32>,
    /// Live at capture (doomed regions are still alive: their pages are
    /// held until the deferred reclaim fires).
    pub alive: bool,
    /// Deferred-deletion mode.
    pub doomed: bool,
    /// External reference count (including pins).
    pub rc: i64,
    /// Pins included in `rc`.
    pub pins: i64,
    /// Depth-first preorder number (interval start under gap numbering).
    pub dfs_id: u64,
    /// One past the subtree's largest id (interval end).
    pub dfs_nextid: u64,
    /// Virtual time of creation.
    pub born_at: u64,
    /// Words held by the region's two allocators (0 once reclaimed).
    pub live_words: u64,
    /// Live allocation-log entries across both allocators.
    pub objects: u64,
    /// Pages owned by the region's allocators, sorted.
    pub pages: Vec<u32>,
    /// Span aggregate: objects ever allocated here (0 when spans off).
    pub allocs: u64,
    /// Span aggregate: words ever allocated here.
    pub alloc_words: u64,
    /// Span aggregate: rc increments + decrements charged here.
    pub rc_updates: u64,
    /// Span aggregate: region checks against this region.
    pub checks: u64,
    /// Span aggregate: failed checks.
    pub checks_failed: u64,
    /// Span aggregate: words freed when the region was reclaimed.
    pub freed_words: u64,
    /// Virtual time of reclamation (`None` while live or spans off).
    pub closed_at: Option<u64>,
    /// Span aggregate: virtual time of the last alloc, count update or
    /// check on this region (0 when spans off or never touched) — the
    /// idle time the `leaks` query ranks by.
    pub last_touch: u64,
}

/// Page ownership in a snapshot (mirrors [`PageOwner`] minus the id
/// newtype so it round-trips through JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapOwner {
    /// In the free pool.
    Free,
    /// Owned by the conservative-GC heap.
    Gc,
    /// Owned by a region's allocators (malloc pages belong to the
    /// traditional region, id 0).
    Region(u32),
}

impl SnapOwner {
    /// Serialized form: −1 free, −2 gc, otherwise the region id.
    pub fn to_i64(self) -> i64 {
        match self {
            SnapOwner::Free => -1,
            SnapOwner::Gc => -2,
            SnapOwner::Region(r) => r as i64,
        }
    }

    /// Parses the serialized form.
    pub fn from_i64(v: i64) -> Option<SnapOwner> {
        match v {
            -1 => Some(SnapOwner::Free),
            -2 => Some(SnapOwner::Gc),
            r if (0..=u32::MAX as i64).contains(&r) => Some(SnapOwner::Region(r as u32)),
            _ => None,
        }
    }
}

impl From<PageOwner> for SnapOwner {
    fn from(o: PageOwner) -> SnapOwner {
        match o {
            PageOwner::Free => SnapOwner::Free,
            PageOwner::Gc => SnapOwner::Gc,
            PageOwner::Region(r) => SnapOwner::Region(r.0),
        }
    }
}

/// One committed page's occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSnapshot {
    /// Page index (page 0 is reserved and never appears).
    pub page: u32,
    /// Current owner per the page map.
    pub owner: SnapOwner,
    /// Live payload words on this page: allocator fill for region pages,
    /// folded live malloc/gc objects for traditional/GC pages.
    pub used_words: u32,
}

/// Retained words attributed to one `(region, allocation site)` pair.
/// Malloc and GC objects attribute to the traditional region (id 0); site
/// is the 1-based source line (0 = unattributed, e.g. spans disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteRetained {
    /// Region holding the objects.
    pub region: u32,
    /// Source line that allocated them.
    pub site: u32,
    /// Live objects from this site.
    pub objects: u64,
    /// Live payload words from this site.
    pub words: u64,
}

/// A deterministic capture of the full heap state at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// Why the snapshot was taken.
    pub reason: SnapshotReason,
    /// Virtual clock at capture.
    pub at_cycles: u64,
    /// Free-form label set by the dumping tool (e.g. `workload/config`);
    /// `leaks` renders sites as `label:line`.
    pub label: String,
    /// Full counter state at capture.
    pub stats: Stats,
    /// Every region ever created, in creation (= index) order.
    pub regions: Vec<RegionSnapshot>,
    /// Every committed page (1..page_count), in index order.
    pub pages: Vec<PageSnapshot>,
    /// The page free pool in release order (tail recycled first).
    pub free_chain: Vec<u32>,
    /// Malloc free slots per size class (parallel to `SIZE_CLASSES`):
    /// freed slots plus the uncarved rest of the class's current page.
    pub malloc_free_depths: Vec<u32>,
    /// GC free slots per size class.
    pub gc_free_depths: Vec<u32>,
    /// Live malloc allocations.
    pub malloc_live_objects: u64,
    /// Live malloc payload words.
    pub malloc_live_words: u64,
    /// Live GC objects.
    pub gc_live_objects: u64,
    /// Live GC payload (requested) words.
    pub gc_live_words: u64,
    /// Live GC slot words (`gc_slot_words - gc_live_words` is the GC
    /// heap's internal fragmentation).
    pub gc_slot_words: u64,
    /// Retained words per `(region, site)`, sorted by key.
    pub sites: Vec<SiteRetained>,
}

/// Adds `words` of one object starting at `addr` into the per-page fold,
/// page by page (class objects never straddle a page; span objects cover
/// whole pages from word 0).
fn fold_pages(used: &mut [u32], addr: Addr, words: u32) {
    let mut left = words;
    let mut page = addr.page() as usize;
    let mut room = (WORDS_PER_PAGE as u32) - addr.word();
    while left > 0 && page < used.len() {
        let chunk = left.min(room);
        used[page] += chunk;
        left -= chunk;
        page += 1;
        room = WORDS_PER_PAGE as u32;
    }
}

impl Heap {
    /// Captures a snapshot of the current heap state. Read-only: charges
    /// no cycles, mutates nothing, and is safe at any point — including
    /// after a fault, where the capture shows the pre-unwind heap.
    pub fn snapshot(&self, reason: SnapshotReason) -> HeapSnapshot {
        let spans = self.spans();

        let mut used = vec![0u32; self.store.page_count()];
        let mut sites: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();

        let mut regions = Vec::with_capacity(self.regions.len());
        for (i, rd) in self.regions.iter().enumerate() {
            let mut pages: Vec<u32> = Vec::new();
            let mut objects = 0u64;
            for alloc in [&rd.normal, &rd.pointerfree] {
                pages.extend_from_slice(alloc.pages());
                objects += alloc.objs().len() as u64;
                for (&p, &fill) in alloc.pages().iter().zip(alloc.page_fill()) {
                    used[p as usize] += fill;
                }
                for rec in alloc.objs() {
                    let words = self.types.get(rec.ty).size_words() as u64 * rec.count as u64;
                    let e = sites.entry((i as u32, rec.site)).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += words;
                }
            }
            pages.sort_unstable();
            let span = spans.and_then(|t| t.spans().get(i));
            regions.push(RegionSnapshot {
                region: i as u32,
                parent: rd.parent.map(|p| p.0),
                alive: rd.alive,
                doomed: rd.doomed,
                rc: rd.rc,
                pins: rd.pins,
                dfs_id: rd.id,
                dfs_nextid: rd.nextid,
                born_at: rd.born_at,
                live_words: rd.normal.used_words() + rd.pointerfree.used_words(),
                objects,
                pages,
                allocs: span.map_or(0, |s| s.allocs),
                alloc_words: span.map_or(0, |s| s.alloc_words),
                rc_updates: span.map_or(0, |s| s.rc_updates),
                checks: span.map_or(0, |s| s.checks),
                checks_failed: span.map_or(0, |s| s.checks_failed),
                freed_words: span.map_or(0, |s| s.freed_words),
                closed_at: span.and_then(|s| s.closed_at),
                last_touch: span.map_or(0, |s| s.last_touch),
            });
        }

        // Live malloc objects: per-page fold plus site attribution. The
        // HashMap's iteration order is arbitrary, but both folds are
        // commutative sums into keyed slots, so the result is
        // deterministic regardless.
        let mut malloc_live_objects = 0u64;
        let mut malloc_live_words = 0u64;
        for (addr, obj) in self.malloc.live_objects() {
            malloc_live_objects += 1;
            malloc_live_words += obj.words as u64;
            fold_pages(&mut used, addr, obj.words);
            let e = sites.entry((TRADITIONAL.0, obj.site)).or_insert((0, 0));
            e.0 += 1;
            e.1 += obj.words as u64;
        }

        let mut gc_live_objects = 0u64;
        let mut gc_live_words = 0u64;
        let mut gc_slot_words = 0u64;
        for (addr, obj) in self.gc.live_objects() {
            gc_live_objects += 1;
            gc_live_words += obj.words as u64;
            gc_slot_words += obj.slot_words as u64;
            fold_pages(&mut used, addr, obj.words);
            let e = sites.entry((TRADITIONAL.0, obj.site)).or_insert((0, 0));
            e.0 += 1;
            e.1 += obj.words as u64;
        }

        let pages = (1..self.store.page_count() as u32)
            .map(|p| PageSnapshot {
                page: p,
                owner: self.store.owner(p).into(),
                used_words: used[p as usize],
            })
            .collect();

        HeapSnapshot {
            reason,
            at_cycles: self.clock.cycles(),
            label: String::new(),
            stats: self.stats.clone(),
            regions,
            pages,
            free_chain: self.store.free_chain().to_vec(),
            malloc_free_depths: self.malloc.free_list_depths(),
            gc_free_depths: self.gc.free_list_depths(),
            malloc_live_objects,
            malloc_live_words,
            gc_live_objects,
            gc_live_words,
            gc_slot_words,
            sites: sites
                .into_iter()
                .map(|((region, site), (objects, words))| SiteRetained {
                    region,
                    site,
                    objects,
                    words,
                })
                .collect(),
        }
    }
}

/// `Some(n)` → `n`, `None` → −1 (no `null` in the hand-rolled JSON).
fn opt_json(v: Option<u64>) -> Json {
    match v {
        Some(n) => Json::U(n),
        None => Json::I(-1),
    }
}

impl HeapSnapshot {
    /// Live words across all regions (doomed included), the snapshot-side
    /// counterpart of `Heap::region_live_words`.
    pub fn region_live_words(&self) -> u64 {
        self.regions.iter().map(|r| r.live_words).sum()
    }

    /// The identity total: region + malloc + gc live payload words.
    pub fn total_live_words(&self) -> u64 {
        self.region_live_words() + self.malloc_live_words + self.gc_live_words
    }

    /// Serializes to the `rc-bench-snapshot/v1` JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::s(SNAPSHOT_SCHEMA)),
            ("reason", Json::s(self.reason.as_str())),
            ("at_cycles", Json::U(self.at_cycles)),
            ("label", Json::s(self.label.clone())),
            ("stats", self.stats.to_json()),
            (
                "regions",
                Json::A(
                    self.regions
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("region", Json::U(r.region as u64)),
                                ("parent", opt_json(r.parent.map(u64::from))),
                                ("alive", Json::Bool(r.alive)),
                                ("doomed", Json::Bool(r.doomed)),
                                ("rc", Json::I(r.rc)),
                                ("pins", Json::I(r.pins)),
                                ("dfs_id", Json::U(r.dfs_id)),
                                ("dfs_nextid", Json::U(r.dfs_nextid)),
                                ("born_at", Json::U(r.born_at)),
                                ("live_words", Json::U(r.live_words)),
                                ("objects", Json::U(r.objects)),
                                (
                                    "pages",
                                    Json::A(r.pages.iter().map(|&p| Json::U(p as u64)).collect()),
                                ),
                                ("allocs", Json::U(r.allocs)),
                                ("alloc_words", Json::U(r.alloc_words)),
                                ("rc_updates", Json::U(r.rc_updates)),
                                ("checks", Json::U(r.checks)),
                                ("checks_failed", Json::U(r.checks_failed)),
                                ("freed_words", Json::U(r.freed_words)),
                                ("closed_at", opt_json(r.closed_at)),
                                ("last_touch", Json::U(r.last_touch)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "pages",
                Json::A(
                    self.pages
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("page", Json::U(p.page as u64)),
                                ("owner", Json::I(p.owner.to_i64())),
                                ("used_words", Json::U(p.used_words as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("free_chain", Json::A(self.free_chain.iter().map(|&p| Json::U(p as u64)).collect())),
            (
                "malloc_free_depths",
                Json::A(self.malloc_free_depths.iter().map(|&d| Json::U(d as u64)).collect()),
            ),
            (
                "gc_free_depths",
                Json::A(self.gc_free_depths.iter().map(|&d| Json::U(d as u64)).collect()),
            ),
            ("malloc_live_objects", Json::U(self.malloc_live_objects)),
            ("malloc_live_words", Json::U(self.malloc_live_words)),
            ("gc_live_objects", Json::U(self.gc_live_objects)),
            ("gc_live_words", Json::U(self.gc_live_words)),
            ("gc_slot_words", Json::U(self.gc_slot_words)),
            (
                "sites",
                Json::A(
                    self.sites
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("region", Json::U(s.region as u64)),
                                ("site", Json::U(s.site as u64)),
                                ("objects", Json::U(s.objects)),
                                ("words", Json::U(s.words)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the pretty-printed document with a trailing newline (the
    /// byte-exact on-disk form the determinism gate `cmp`s).
    pub fn render(&self) -> String {
        let mut out = self.to_json().render_pretty();
        out.push('\n');
        out
    }

    /// Parses a serialized snapshot, strictly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field, and
    /// rejects documents with a different schema tag.
    pub fn from_json(doc: &Json) -> Result<HeapSnapshot, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing 'schema'".to_string())?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!("schema mismatch: got '{schema}', want '{SNAPSHOT_SCHEMA}'"));
        }
        let u64_field = |d: &Json, key: &str| -> Result<u64, String> {
            d.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing '{key}'"))
        };
        let u32_field = |d: &Json, key: &str| -> Result<u32, String> {
            let v = u64_field(d, key)?;
            u32::try_from(v).map_err(|_| format!("'{key}' out of range: {v}"))
        };
        let i64_field = |d: &Json, key: &str| -> Result<i64, String> {
            match d.get(key) {
                Some(Json::I(n)) => Ok(*n),
                Some(Json::U(n)) if *n <= i64::MAX as u64 => Ok(*n as i64),
                _ => Err(format!("missing '{key}'")),
            }
        };
        let bool_field = |d: &Json, key: &str| -> Result<bool, String> {
            d.get(key).and_then(Json::as_bool).ok_or_else(|| format!("missing '{key}'"))
        };
        // −1 encodes None (no null in this JSON dialect).
        let opt_field = |d: &Json, key: &str| -> Result<Option<u64>, String> {
            match d.get(key) {
                Some(Json::I(-1)) => Ok(None),
                Some(j) => j.as_u64().map(Some).ok_or_else(|| format!("malformed '{key}'")),
                None => Err(format!("missing '{key}'")),
            }
        };
        let u32_array = |d: &Json, key: &str| -> Result<Vec<u32>, String> {
            d.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("missing '{key}'"))?
                .iter()
                .map(|j| {
                    j.as_u64()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| format!("malformed '{key}' entry"))
                })
                .collect()
        };

        let reason_str = doc
            .get("reason")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing 'reason'".to_string())?;
        let reason = SnapshotReason::parse(reason_str)
            .ok_or_else(|| format!("unknown reason '{reason_str}'"))?;
        let label = doc
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing 'label'".to_string())?
            .to_string();
        let stats =
            Stats::from_json(doc.get("stats").ok_or_else(|| "missing 'stats'".to_string())?)?;

        let regions = doc
            .get("regions")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing 'regions'".to_string())?
            .iter()
            .map(|r| -> Result<RegionSnapshot, String> {
                Ok(RegionSnapshot {
                    region: u32_field(r, "region")?,
                    parent: opt_field(r, "parent")?
                        .map(|p| u32::try_from(p).map_err(|_| "parent out of range"))
                        .transpose()?,
                    alive: bool_field(r, "alive")?,
                    doomed: bool_field(r, "doomed")?,
                    rc: i64_field(r, "rc")?,
                    pins: i64_field(r, "pins")?,
                    dfs_id: u64_field(r, "dfs_id")?,
                    dfs_nextid: u64_field(r, "dfs_nextid")?,
                    born_at: u64_field(r, "born_at")?,
                    live_words: u64_field(r, "live_words")?,
                    objects: u64_field(r, "objects")?,
                    pages: u32_array(r, "pages")?,
                    allocs: u64_field(r, "allocs")?,
                    alloc_words: u64_field(r, "alloc_words")?,
                    rc_updates: u64_field(r, "rc_updates")?,
                    checks: u64_field(r, "checks")?,
                    checks_failed: u64_field(r, "checks_failed")?,
                    freed_words: u64_field(r, "freed_words")?,
                    closed_at: opt_field(r, "closed_at")?,
                    last_touch: u64_field(r, "last_touch")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Structural checks the restore layer would otherwise trip over
        // with a less precise message: region rows must be the identity
        // sequence (a duplicated id is a classic splice corruption).
        for (i, r) in regions.iter().enumerate() {
            if r.region as usize != i {
                return Err(format!(
                    "regions[{i}].region is {} (duplicate or out-of-order region id)",
                    r.region
                ));
            }
        }

        let pages = doc
            .get("pages")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing 'pages'".to_string())?
            .iter()
            .map(|p| -> Result<PageSnapshot, String> {
                let owner = i64_field(p, "owner")?;
                Ok(PageSnapshot {
                    page: u32_field(p, "page")?,
                    owner: SnapOwner::from_i64(owner)
                        .ok_or_else(|| format!("malformed page owner {owner}"))?,
                    used_words: u32_field(p, "used_words")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        for (j, p) in pages.iter().enumerate() {
            if p.page as usize != j + 1 {
                return Err(format!(
                    "pages[{j}].page is {} (pages must cover 1..=count in order)",
                    p.page
                ));
            }
            if p.used_words as usize > WORDS_PER_PAGE {
                return Err(format!(
                    "pages[{j}].used_words {} exceeds the page size",
                    p.used_words
                ));
            }
        }

        let sites = doc
            .get("sites")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing 'sites'".to_string())?
            .iter()
            .map(|s| -> Result<SiteRetained, String> {
                Ok(SiteRetained {
                    region: u32_field(s, "region")?,
                    site: u32_field(s, "site")?,
                    objects: u64_field(s, "objects")?,
                    words: u64_field(s, "words")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        for (k, w) in sites.windows(2).enumerate() {
            if (w[1].region, w[1].site) <= (w[0].region, w[0].site) {
                return Err(format!(
                    "sites[{}] breaks the strict (region, site) sort order",
                    k + 1
                ));
            }
        }

        Ok(HeapSnapshot {
            reason,
            at_cycles: u64_field(doc, "at_cycles")?,
            label,
            stats,
            regions,
            pages,
            free_chain: u32_array(doc, "free_chain")?,
            malloc_free_depths: u32_array(doc, "malloc_free_depths")?,
            gc_free_depths: u32_array(doc, "gc_free_depths")?,
            malloc_live_objects: u64_field(doc, "malloc_live_objects")?,
            malloc_live_words: u64_field(doc, "malloc_live_words")?,
            gc_live_objects: u64_field(doc, "gc_live_objects")?,
            gc_live_words: u64_field(doc, "gc_live_words")?,
            gc_slot_words: u64_field(doc, "gc_slot_words")?,
            sites,
        })
    }

    /// Re-captures `heap` with this snapshot's reason and label — the
    /// restore fixpoint probe: for a heap rebuilt by
    /// [`Heap::restore`](crate::heap::Heap::restore) from `self`,
    /// `self.resnapshot(&restored).render()` must equal `self.render()`
    /// byte for byte.
    pub fn resnapshot(&self, heap: &Heap) -> HeapSnapshot {
        let mut s = heap.snapshot(self.reason);
        s.label = self.label.clone();
        s
    }

    /// Cross-checks the snapshot against the live heap it was taken from
    /// (and internally against itself): counter equality, the live-word
    /// identity along the region, page, and site paths, page-map totals,
    /// and span-aggregate agreement when spans are attached.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency.
    pub fn verify_against(&self, heap: &Heap) -> Result<(), String> {
        if self.at_cycles != heap.clock.cycles() {
            return Err(format!(
                "clock mismatch: snapshot {} vs heap {}",
                self.at_cycles,
                heap.clock.cycles()
            ));
        }
        if self.stats != heap.stats {
            return Err("stats mismatch".to_string());
        }
        if self.regions.len() != heap.region_count() {
            return Err(format!(
                "region count mismatch: snapshot {} vs heap {}",
                self.regions.len(),
                heap.region_count()
            ));
        }
        // Live-word identity, path 1: the region tree. Only alive regions
        // hold words (reclaim zeroes the allocators), so the unfiltered
        // snapshot sum must equal the heap's alive-filtered gauge.
        let region_words = self.region_live_words();
        if region_words != heap.region_live_words() {
            return Err(format!(
                "region live words mismatch: snapshot {} vs heap {}",
                region_words,
                heap.region_live_words()
            ));
        }
        let total = self.total_live_words();
        if total != heap.stats.live_words {
            return Err(format!(
                "live-word identity broken: region {} + malloc {} + gc {} = {} vs stats.live_words {}",
                region_words,
                self.malloc_live_words,
                self.gc_live_words,
                total,
                heap.stats.live_words
            ));
        }
        // Path 2: the page map. Every live payload word lies on exactly
        // one committed page.
        let page_words: u64 = self.pages.iter().map(|p| p.used_words as u64).sum();
        if page_words != total {
            return Err(format!("page-map words {page_words} != live words {total}"));
        }
        if self.pages.len() != heap.page_store().pages_committed() {
            return Err(format!(
                "page count mismatch: snapshot {} vs store {}",
                self.pages.len(),
                heap.page_store().pages_committed()
            ));
        }
        let free_pages = self.pages.iter().filter(|p| p.owner == SnapOwner::Free).count();
        if free_pages != self.free_chain.len()
            || self.free_chain.len() != heap.page_store().pages_free()
        {
            return Err(format!(
                "free pool mismatch: {} free-owned pages, chain of {}, store reports {}",
                free_pages,
                self.free_chain.len(),
                heap.page_store().pages_free()
            ));
        }
        // Path 3: site attribution. The fold partitions the same live
        // objects, so totals must match exactly.
        let site_words: u64 = self.sites.iter().map(|s| s.words).sum();
        if site_words != total {
            return Err(format!("site-attributed words {site_words} != live words {total}"));
        }
        let site_objects: u64 = self.sites.iter().map(|s| s.objects).sum();
        let live_objects: u64 = self.regions.iter().map(|r| r.objects).sum::<u64>()
            + self.malloc_live_objects
            + self.gc_live_objects;
        if site_objects != live_objects {
            return Err(format!(
                "site-attributed objects {site_objects} != live objects {live_objects}"
            ));
        }
        // Span agreement: the snapshot copied the aggregates, so check a
        // global invariant instead of repeating the copy — every closed
        // span must correspond to a non-alive region and vice versa.
        if let Some(tree) = heap.spans() {
            for (r, span) in self.regions.iter().zip(tree.spans()) {
                if r.alive != span.closed_at.is_none() {
                    return Err(format!(
                        "span/region liveness disagreement at region {}",
                        r.region
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TypeLayout;

    /// Exercises regions, malloc, and gc in one heap.
    fn worked_heap() -> Heap {
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
        h
    }

    #[test]
    fn capture_is_consistent_and_deterministic() {
        let h = worked_heap();
        let snap = h.snapshot(SnapshotReason::Exit);
        snap.verify_against(&h).unwrap();
        let again = h.snapshot(SnapshotReason::Exit);
        assert_eq!(snap, again, "capture is a pure function of heap state");
        assert_eq!(snap.render(), again.render(), "rendering is byte-deterministic");
    }

    #[test]
    fn json_round_trip_is_exact() {
        let h = worked_heap();
        let mut snap = h.snapshot(SnapshotReason::Trap);
        snap.label = "unit/rc".to_string();
        let text = snap.render();
        let doc = Json::parse(&text).unwrap();
        let back = HeapSnapshot::from_json(&doc).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn sites_attribute_retained_words_by_line() {
        let h = worked_heap();
        let snap = h.snapshot(SnapshotReason::Exit);
        // Region 1 allocated at site 7: one cell + a 4-element array.
        let s =
            snap.sites.iter().find(|s| s.region == 1 && s.site == 7).expect("site 7 attributed");
        assert_eq!((s.objects, s.words), (2, 15));
        // The site fold partitions all live words.
        assert_eq!(snap.sites.iter().map(|s| s.words).sum::<u64>(), snap.total_live_words());
    }

    #[test]
    fn deleted_region_shows_closed_and_empty() {
        let h = worked_heap();
        let snap = h.snapshot(SnapshotReason::Exit);
        let r2 = &snap.regions[2];
        assert!(!r2.alive);
        assert_eq!(r2.live_words, 0);
        assert!(r2.pages.is_empty());
        assert!(r2.closed_at.is_some(), "span recorded the reclamation");
        assert!(r2.freed_words > 0);
    }

    /// A region's `last_touch` is its span's latest event.
    #[test]
    fn last_touch_is_the_latest_event() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("cell", 1));
        h.enable_spans();
        let r = h.new_region();
        for _ in 0..40 {
            h.ralloc(r, ty).unwrap();
        }
        let at_last_alloc = h.clock.cycles();
        h.new_region();
        let row = &h.snapshot(SnapshotReason::Exit).regions[r.0 as usize];
        assert_eq!((row.allocs, row.last_touch, at_last_alloc), (40, 536, 536));
    }

    #[test]
    fn page_map_partitions_live_words() {
        let h = worked_heap();
        let snap = h.snapshot(SnapshotReason::Exit);
        let by_pages: u64 = snap.pages.iter().map(|p| p.used_words as u64).sum();
        assert_eq!(by_pages, h.stats.live_words);
        // Free pages never carry words.
        for p in &snap.pages {
            if p.owner == SnapOwner::Free {
                assert_eq!(p.used_words, 0, "page {} free but occupied", p.page);
            }
        }
    }

    #[test]
    fn reason_and_owner_tags_round_trip() {
        for r in [SnapshotReason::Exit, SnapshotReason::Gc, SnapshotReason::Trap] {
            assert_eq!(SnapshotReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(SnapshotReason::parse("bogus"), None);
        for o in [SnapOwner::Free, SnapOwner::Gc, SnapOwner::Region(0), SnapOwner::Region(9)] {
            assert_eq!(SnapOwner::from_i64(o.to_i64()), Some(o));
        }
        assert_eq!(SnapOwner::from_i64(-3), None);
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_missing_fields() {
        let h = worked_heap();
        let snap = h.snapshot(SnapshotReason::Exit);
        let mut doc = snap.to_json();
        if let Json::O(fields) = &mut doc {
            fields[0].1 = Json::s("rc-bench-trajectory/v1");
        }
        assert!(HeapSnapshot::from_json(&doc).unwrap_err().contains("schema mismatch"));
        if let Json::O(fields) = &mut doc {
            fields.remove(0);
        }
        assert!(HeapSnapshot::from_json(&doc).unwrap_err().contains("schema"));
    }

    #[test]
    fn snapshot_without_spans_zeroes_aggregates() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("cell", 2));
        let r = h.new_region();
        h.ralloc(r, ty).unwrap();
        let snap = h.snapshot(SnapshotReason::Exit);
        snap.verify_against(&h).unwrap();
        let rs = &snap.regions[r.0 as usize];
        assert_eq!((rs.allocs, rs.alloc_words, rs.last_touch), (0, 0, 0));
        assert_eq!(rs.closed_at, None);
        assert_eq!(rs.live_words, 2);
        // Without a published site, retained words fold under site 0.
        assert!(snap.sites.iter().any(|s| s.region == r.0 && s.site == 0 && s.words == 2));
    }
}
