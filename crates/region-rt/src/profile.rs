//! Folded telemetry profiles: what the raw event trace means.
//!
//! A [`Profile`] is the online fold of every [`Event`] a
//! [`Tracer`](crate::trace::Tracer) records: exact totals per event kind,
//! per-region allocation and lifetime accounting, per-site (source line)
//! attribution of allocations, checks and count updates, a log₂ histogram
//! of region lifetimes, and a text "region flamegraph" of the subregion
//! hierarchy sized by allocated words.
//!
//! Because the fold happens at emission time, profile totals are exact
//! even when the tracer's bounded ring has overwritten old raw events —
//! the invariant the `rc-bench` integration tests pin against the
//! [`Stats`](crate::stats::Stats) counters.

use std::collections::BTreeMap;

use crate::cost::Cycles;
use crate::json::Json;
use crate::layout::PtrKind;
use crate::trace::Event;

/// Exact totals per event kind (matching the `Stats` counters for the
/// same run when all event kinds are enabled).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProfileTotals {
    /// Regions created (top-level and subregions; matches
    /// `Stats::regions_created`).
    pub regions_created: u64,
    /// The subset of `regions_created` that were subregions of a
    /// non-traditional region.
    pub subregions_created: u64,
    /// Regions reclaimed (matches `Stats::regions_deleted`).
    pub regions_deleted: u64,
    /// Objects allocated, all allocators (matches
    /// `Stats::objects_allocated`).
    pub allocs: u64,
    /// Words allocated (matches `Stats::words_allocated`).
    pub alloc_words: u64,
    /// Full reference-count updates (matches `Stats::rc_updates_full`).
    pub rc_updates_full: u64,
    /// Early-exit count updates (matches `Stats::rc_updates_same`).
    pub rc_updates_same: u64,
    /// `sameregion` checks (matches `Stats::checks_sameregion`).
    pub checks_sameregion: u64,
    /// `parentptr` checks (matches `Stats::checks_parentptr`).
    pub checks_parentptr: u64,
    /// `traditional` checks (matches `Stats::checks_traditional`).
    pub checks_traditional: u64,
    /// Checks that failed (each aborts the program, so at most one per
    /// run in practice).
    pub checks_failed: u64,
    /// Mark–sweep collections (matches `Stats::gc_collections`).
    pub gc_collections: u64,
    /// Auditor runs reported via `Heap::record_audit_run`.
    pub audit_runs: u64,
    /// Auditor runs that found a violated invariant.
    pub audit_failures: u64,
    /// Injected faults (matches `Stats::faults_injected`).
    pub faults_injected: u64,
}

impl ProfileTotals {
    /// All annotation checks executed.
    pub fn checks_total(&self) -> u64 {
        self.checks_sameregion + self.checks_parentptr + self.checks_traditional
    }

    /// All reference-count updates executed.
    pub fn rc_updates_total(&self) -> u64 {
        self.rc_updates_full + self.rc_updates_same
    }

    /// Exact fieldwise roll-up (shard → global; see [`crate::shard`]).
    /// Commutative and associative: every field is a sum. The exhaustive
    /// literal makes adding a totals field without a merge rule a
    /// compile error.
    #[must_use]
    pub fn merge(&self, other: &ProfileTotals) -> ProfileTotals {
        ProfileTotals {
            regions_created: self.regions_created + other.regions_created,
            subregions_created: self.subregions_created + other.subregions_created,
            regions_deleted: self.regions_deleted + other.regions_deleted,
            allocs: self.allocs + other.allocs,
            alloc_words: self.alloc_words + other.alloc_words,
            rc_updates_full: self.rc_updates_full + other.rc_updates_full,
            rc_updates_same: self.rc_updates_same + other.rc_updates_same,
            checks_sameregion: self.checks_sameregion + other.checks_sameregion,
            checks_parentptr: self.checks_parentptr + other.checks_parentptr,
            checks_traditional: self.checks_traditional + other.checks_traditional,
            checks_failed: self.checks_failed + other.checks_failed,
            gc_collections: self.gc_collections + other.gc_collections,
            audit_runs: self.audit_runs + other.audit_runs,
            audit_failures: self.audit_failures + other.audit_failures,
            faults_injected: self.faults_injected + other.faults_injected,
        }
    }
}

/// Per-region accounting.
#[derive(Debug, Default, Clone)]
pub struct RegionProfile {
    /// The region.
    pub region: u32,
    /// Parent region, when the creation event was observed (the
    /// traditional region 0 for top-level regions).
    pub parent: Option<u32>,
    /// Virtual time of creation (0 when creation was not observed).
    pub created_at: Cycles,
    /// Objects allocated into this region.
    pub alloc_objects: u64,
    /// Words allocated into this region.
    pub alloc_words: u64,
    /// Whether the region's deletion was observed.
    pub deleted: bool,
    /// Words of storage freed at deletion.
    pub live_words_at_delete: u64,
    /// Virtual lifetime (creation to reclamation).
    pub lifetime_cycles: Cycles,
}

/// Per-source-line attribution.
#[derive(Debug, Default, Clone)]
pub struct SiteProfile {
    /// 1-based source line (0 = unattributed runtime-internal events).
    pub line: u32,
    /// Allocations at this line.
    pub allocs: u64,
    /// Words allocated at this line.
    pub alloc_words: u64,
    /// `sameregion` checks at this line.
    pub checks_sameregion: u64,
    /// `parentptr` checks at this line.
    pub checks_parentptr: u64,
    /// `traditional` checks at this line.
    pub checks_traditional: u64,
    /// Checks at this line that failed.
    pub checks_failed: u64,
    /// Reference-count updates at this line.
    pub rc_updates: u64,
}

impl SiteProfile {
    /// All checks executed at this line.
    pub fn checks_total(&self) -> u64 {
        self.checks_sameregion + self.checks_parentptr + self.checks_traditional
    }
}

/// Number of log₂ lifetime buckets: bucket 0 holds lifetime 0, bucket
/// `i ≥ 1` holds lifetimes in `[2^(i-1), 2^i)`.
pub const LIFETIME_BUCKETS: usize = 65;

/// The folded profile of one traced run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Exact per-kind totals.
    pub totals: ProfileTotals,
    regions: BTreeMap<u32, RegionProfile>,
    sites: BTreeMap<u32, SiteProfile>,
    lifetime_hist: [u64; LIFETIME_BUCKETS],
}

impl Default for Profile {
    fn default() -> Self {
        Profile::new()
    }
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile {
            totals: ProfileTotals::default(),
            regions: BTreeMap::new(),
            sites: BTreeMap::new(),
            lifetime_hist: [0; LIFETIME_BUCKETS],
        }
    }

    fn region_mut(&mut self, region: u32) -> &mut RegionProfile {
        self.regions
            .entry(region)
            .or_insert_with(|| RegionProfile { region, ..RegionProfile::default() })
    }

    fn site_mut(&mut self, line: u32) -> &mut SiteProfile {
        self.sites.entry(line).or_insert_with(|| SiteProfile { line, ..SiteProfile::default() })
    }

    /// The largest region index this profile mentions (0 when none):
    /// the offset base a merging parent passes to
    /// [`Profile::offset_regions`] so shard indices never collide.
    pub fn max_region(&self) -> u32 {
        self.regions.keys().max().copied().unwrap_or(0)
    }

    /// Renumbers every region this profile mentions into a shard-global
    /// namespace: raw region `r > 0` becomes `r + offset`, while region 0
    /// (the traditional region, which every shard shares a facet of)
    /// stays 0. Called before [`Profile::merge`] so per-shard region
    /// indices cannot collide.
    pub fn offset_regions(&mut self, offset: u32) {
        let remap = |r: u32| if r == 0 { 0 } else { r + offset };
        let old = std::mem::take(&mut self.regions);
        for (r, mut p) in old {
            let nr = remap(r);
            p.region = nr;
            p.parent = p.parent.map(remap);
            self.regions.insert(nr, p);
        }
    }

    /// Exact merge of two folded profiles (shard → global roll-up; see
    /// [`crate::shard`]). Totals, per-site rows and the lifetime
    /// histogram sum fieldwise; per-region rows union by region index,
    /// summing counters when both sides observed the same region (only
    /// region 0 after [`Profile::offset_regions`]). Commutative and
    /// associative over well-formed inputs, i.e. inputs that agree on
    /// any shared region's parent and creation time.
    #[must_use]
    pub fn merge(&self, other: &Profile) -> Profile {
        let mut out = self.clone();
        out.totals = self.totals.merge(&other.totals);
        for (r, p) in &other.regions {
            match out.regions.entry(*r) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(p.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let q = e.get_mut();
                    q.parent = q.parent.or(p.parent);
                    q.created_at += p.created_at;
                    q.alloc_objects += p.alloc_objects;
                    q.alloc_words += p.alloc_words;
                    q.deleted |= p.deleted;
                    q.live_words_at_delete += p.live_words_at_delete;
                    q.lifetime_cycles += p.lifetime_cycles;
                }
            }
        }
        for (line, s) in &other.sites {
            match out.sites.entry(*line) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(s.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let t = e.get_mut();
                    t.allocs += s.allocs;
                    t.alloc_words += s.alloc_words;
                    t.checks_sameregion += s.checks_sameregion;
                    t.checks_parentptr += s.checks_parentptr;
                    t.checks_traditional += s.checks_traditional;
                    t.checks_failed += s.checks_failed;
                    t.rc_updates += s.rc_updates;
                }
            }
        }
        for (i, n) in other.lifetime_hist.iter().enumerate() {
            out.lifetime_hist[i] += n;
        }
        out
    }

    /// Folds one event into the profile.
    pub fn fold(&mut self, ev: &Event) {
        match *ev {
            Event::RegionCreated { region, at, .. } => {
                self.totals.regions_created += 1;
                let r = self.region_mut(region);
                r.parent = Some(0);
                r.created_at = at;
            }
            Event::SubregionCreated { region, parent, at, .. } => {
                self.totals.regions_created += 1;
                self.totals.subregions_created += 1;
                let r = self.region_mut(region);
                r.parent = Some(parent);
                r.created_at = at;
            }
            Event::RegionDeleted { region, live_words, lifetime_cycles, .. } => {
                self.totals.regions_deleted += 1;
                let r = self.region_mut(region);
                r.deleted = true;
                r.live_words_at_delete = live_words;
                r.lifetime_cycles = lifetime_cycles;
                self.lifetime_hist[log2_bucket(lifetime_cycles)] += 1;
            }
            Event::Alloc { region, site, words, .. } => {
                self.totals.allocs += 1;
                self.totals.alloc_words += words as u64;
                let r = self.region_mut(region);
                r.alloc_objects += 1;
                r.alloc_words += words as u64;
                let s = self.site_mut(site);
                s.allocs += 1;
                s.alloc_words += words as u64;
            }
            Event::RcUpdate { full, site, .. } => {
                if full {
                    self.totals.rc_updates_full += 1;
                } else {
                    self.totals.rc_updates_same += 1;
                }
                self.site_mut(site).rc_updates += 1;
            }
            Event::CheckRun { kind, site, passed, .. } => {
                let s = self.site_mut(site);
                match kind {
                    PtrKind::SameRegion => s.checks_sameregion += 1,
                    PtrKind::ParentPtr => s.checks_parentptr += 1,
                    PtrKind::Traditional => s.checks_traditional += 1,
                    PtrKind::Counted => {}
                }
                if !passed {
                    s.checks_failed += 1;
                    self.totals.checks_failed += 1;
                }
                match kind {
                    PtrKind::SameRegion => self.totals.checks_sameregion += 1,
                    PtrKind::ParentPtr => self.totals.checks_parentptr += 1,
                    PtrKind::Traditional => self.totals.checks_traditional += 1,
                    PtrKind::Counted => {}
                }
            }
            Event::GcCollection { .. } => self.totals.gc_collections += 1,
            Event::AuditRun { ok, .. } => {
                self.totals.audit_runs += 1;
                if !ok {
                    self.totals.audit_failures += 1;
                }
            }
            Event::Fault { .. } => self.totals.faults_injected += 1,
        }
    }

    /// Per-region profiles, region id ascending.
    pub fn regions(&self) -> impl Iterator<Item = &RegionProfile> {
        self.regions.values()
    }

    /// Per-site profiles, line ascending.
    pub fn sites(&self) -> impl Iterator<Item = &SiteProfile> {
        self.sites.values()
    }

    /// The log₂ lifetime histogram (see [`LIFETIME_BUCKETS`]).
    pub fn lifetime_histogram(&self) -> &[u64; LIFETIME_BUCKETS] {
        &self.lifetime_hist
    }

    /// Top `n` check sites by executed checks (ties: lower line first).
    pub fn hot_check_sites(&self, n: usize) -> Vec<&SiteProfile> {
        let mut v: Vec<&SiteProfile> =
            self.sites.values().filter(|s| s.checks_total() > 0).collect();
        v.sort_by(|a, b| b.checks_total().cmp(&a.checks_total()).then(a.line.cmp(&b.line)));
        v.truncate(n);
        v
    }

    /// Top `n` allocation sites by allocated words (ties: lower line
    /// first).
    pub fn hot_alloc_sites(&self, n: usize) -> Vec<&SiteProfile> {
        let mut v: Vec<&SiteProfile> = self.sites.values().filter(|s| s.allocs > 0).collect();
        v.sort_by(|a, b| b.alloc_words.cmp(&a.alloc_words).then(a.line.cmp(&b.line)));
        v.truncate(n);
        v
    }

    /// The region flamegraph: the subregion hierarchy as an indented
    /// tree, each region sized by the words allocated in its subtree.
    pub fn flamegraph(&self) -> String {
        // children[parent] = ordered child list; regions with an
        // unobserved parent hang off the traditional root 0.
        let mut children: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for r in self.regions.values() {
            if r.region == 0 {
                continue;
            }
            let p = match r.parent {
                Some(p) if p == r.region => 0,
                Some(p) => p,
                None => 0,
            };
            children.entry(p).or_default().push(r.region);
        }
        // Subtree words via post-order accumulation.
        let mut subtree: BTreeMap<u32, u64> = BTreeMap::new();
        fn accumulate(
            node: u32,
            children: &BTreeMap<u32, Vec<u32>>,
            regions: &BTreeMap<u32, RegionProfile>,
            subtree: &mut BTreeMap<u32, u64>,
        ) -> u64 {
            let own = regions.get(&node).map_or(0, |r| r.alloc_words);
            let kids: u64 = children
                .get(&node)
                .map(|ks| ks.iter().map(|&k| accumulate(k, children, regions, subtree)).sum())
                .unwrap_or(0);
            subtree.insert(node, own + kids);
            own + kids
        }
        let total = accumulate(0, &children, &self.regions, &mut subtree).max(1);

        let mut out = String::new();
        out.push_str("region flamegraph (bar ∝ words allocated in subtree)\n");
        fn render(
            node: u32,
            depth: usize,
            children: &BTreeMap<u32, Vec<u32>>,
            regions: &BTreeMap<u32, RegionProfile>,
            subtree: &BTreeMap<u32, u64>,
            total: u64,
            out: &mut String,
        ) {
            let words = subtree.get(&node).copied().unwrap_or(0);
            let bar_len = ((words as f64 / total as f64) * 40.0).round() as usize;
            let label = if node == 0 {
                "r0 (traditional)".to_string()
            } else {
                let dead = if regions.get(&node).is_some_and(|r| r.deleted) { " †" } else { "" };
                format!("r{node}{dead}")
            };
            out.push_str(&format!(
                "{:indent$}{label:<width$} {words:>10} words  {bar}\n",
                "",
                indent = depth * 2,
                width = 24usize.saturating_sub(depth * 2),
                bar = "#".repeat(bar_len.max(usize::from(words > 0)))
            ));
            if let Some(kids) = children.get(&node) {
                for &k in kids {
                    render(k, depth + 1, children, regions, subtree, total, out);
                }
            }
        }
        render(0, 0, &children, &self.regions, &subtree, total, &mut out);
        out
    }

    /// A human-readable report: totals, hot tables, lifetime histogram
    /// and the flamegraph. `source` labels check/alloc sites
    /// (`source:line`).
    pub fn text_report(&self, source: &str) -> String {
        let t = &self.totals;
        let mut out = String::new();
        out.push_str(&format!("telemetry profile — {source}\n"));
        out.push_str(&format!(
            "  regions   {} created ({} subregions), {} deleted\n",
            t.regions_created, t.subregions_created, t.regions_deleted
        ));
        out.push_str(&format!("  allocs    {} objects, {} words\n", t.allocs, t.alloc_words));
        out.push_str(&format!(
            "  rc        {} full + {} early-exit updates\n",
            t.rc_updates_full, t.rc_updates_same
        ));
        out.push_str(&format!(
            "  checks    {} sameregion, {} parentptr, {} traditional ({} failed)\n",
            t.checks_sameregion, t.checks_parentptr, t.checks_traditional, t.checks_failed
        ));
        if t.gc_collections > 0 {
            out.push_str(&format!("  gc        {} collections\n", t.gc_collections));
        }
        if t.audit_runs > 0 {
            out.push_str(&format!(
                "  audits    {} runs, {} failures\n",
                t.audit_runs, t.audit_failures
            ));
        }
        if t.faults_injected > 0 {
            out.push_str(&format!("  faults    {} injected\n", t.faults_injected));
        }
        let checks = self.hot_check_sites(5);
        if !checks.is_empty() {
            out.push_str("  top check sites:\n");
            for s in checks {
                out.push_str(&format!(
                    "    {source}:{:<5} {:>10} checks ({} sr / {} pp / {} trad)\n",
                    s.line,
                    s.checks_total(),
                    s.checks_sameregion,
                    s.checks_parentptr,
                    s.checks_traditional
                ));
            }
        }
        let allocs = self.hot_alloc_sites(5);
        if !allocs.is_empty() {
            out.push_str("  top alloc sites:\n");
            for s in allocs {
                out.push_str(&format!(
                    "    {source}:{:<5} {:>10} words in {} objects\n",
                    s.line, s.alloc_words, s.allocs
                ));
            }
        }
        let hist = self.lifetime_text();
        if !hist.is_empty() {
            out.push_str("  region lifetimes (virtual cycles):\n");
            out.push_str(&hist);
        }
        out.push_str(&self.flamegraph());
        out
    }

    /// The nonempty rows of the lifetime histogram as indented text.
    fn lifetime_text(&self) -> String {
        let max = self.lifetime_hist.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return String::new();
        }
        let mut out = String::new();
        for (i, &n) in self.lifetime_hist.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let range = if i == 0 { "0".to_string() } else { format!("[2^{}, 2^{})", i - 1, i) };
            let bar = "#".repeat(((n as f64 / max as f64) * 30.0).ceil() as usize);
            out.push_str(&format!("    {range:<14} {n:>8}  {bar}\n"));
        }
        out
    }

    /// Encodes the folded profile as one JSON object (one JSONL line via
    /// [`Json::render`]).
    pub fn to_json(&self, source: &str) -> Json {
        let t = &self.totals;
        let totals = Json::obj(vec![
            ("regions_created", Json::U(t.regions_created)),
            ("subregions_created", Json::U(t.subregions_created)),
            ("regions_deleted", Json::U(t.regions_deleted)),
            ("allocs", Json::U(t.allocs)),
            ("alloc_words", Json::U(t.alloc_words)),
            ("rc_updates_full", Json::U(t.rc_updates_full)),
            ("rc_updates_same", Json::U(t.rc_updates_same)),
            ("checks_sameregion", Json::U(t.checks_sameregion)),
            ("checks_parentptr", Json::U(t.checks_parentptr)),
            ("checks_traditional", Json::U(t.checks_traditional)),
            ("checks_failed", Json::U(t.checks_failed)),
            ("gc_collections", Json::U(t.gc_collections)),
            ("audit_runs", Json::U(t.audit_runs)),
            ("audit_failures", Json::U(t.audit_failures)),
            ("faults_injected", Json::U(t.faults_injected)),
        ]);
        let sites = Json::A(
            self.sites
                .values()
                .map(|s| {
                    Json::obj(vec![
                        ("line", Json::U(s.line as u64)),
                        ("allocs", Json::U(s.allocs)),
                        ("alloc_words", Json::U(s.alloc_words)),
                        ("checks_sameregion", Json::U(s.checks_sameregion)),
                        ("checks_parentptr", Json::U(s.checks_parentptr)),
                        ("checks_traditional", Json::U(s.checks_traditional)),
                        ("checks_failed", Json::U(s.checks_failed)),
                        ("rc_updates", Json::U(s.rc_updates)),
                    ])
                })
                .collect(),
        );
        let regions = Json::A(
            self.regions
                .values()
                .map(|r| {
                    Json::obj(vec![
                        ("region", Json::U(r.region as u64)),
                        ("parent", r.parent.map_or(Json::Null, |p| Json::U(p as u64))),
                        ("created_at", Json::U(r.created_at)),
                        ("alloc_objects", Json::U(r.alloc_objects)),
                        ("alloc_words", Json::U(r.alloc_words)),
                        ("deleted", Json::Bool(r.deleted)),
                        ("live_words_at_delete", Json::U(r.live_words_at_delete)),
                        ("lifetime_cycles", Json::U(r.lifetime_cycles)),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("kind", Json::s("profile")),
            ("source", Json::s(source)),
            ("totals", totals),
            ("sites", sites),
            ("regions", regions),
            ("lifetime_hist", Json::A(self.lifetime_hist.iter().map(|&n| Json::U(n)).collect())),
        ])
    }
}

fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NO_REGION;

    fn alloc(region: u32, site: u32, words: u32) -> Event {
        Event::Alloc { region, site, words, at: 0 }
    }

    fn check(kind: PtrKind, site: u32, passed: bool) -> Event {
        let (region, check_site, at) = (1, site, 0);
        Event::CheckRun { kind, region, site, check_site, passed, at }
    }

    #[test]
    fn fold_accumulates_totals_sites_and_regions() {
        let mut p = Profile::new();
        p.fold(&Event::RegionCreated { region: 1, born_at: 10, at: 10 });
        p.fold(&Event::SubregionCreated { region: 2, parent: 1, born_at: 20, at: 20 });
        p.fold(&alloc(1, 5, 3));
        p.fold(&alloc(2, 5, 2));
        p.fold(&alloc(2, 9, 4));
        p.fold(&check(PtrKind::SameRegion, 7, true));
        p.fold(&Event::RcUpdate { from: 1, to: NO_REGION, full: true, site: 7, at: 0 });
        p.fold(&Event::RegionDeleted { region: 2, live_words: 6, lifetime_cycles: 100, at: 120 });

        assert_eq!(p.totals.regions_created, 2);
        assert_eq!(p.totals.subregions_created, 1);
        assert_eq!(p.totals.allocs, 3);
        assert_eq!(p.totals.alloc_words, 9);
        assert_eq!(p.totals.checks_total(), 1);
        assert_eq!(p.totals.rc_updates_total(), 1);

        let site5 = p.sites().find(|s| s.line == 5).unwrap();
        assert_eq!(site5.allocs, 2);
        assert_eq!(site5.alloc_words, 5);
        let site7 = p.sites().find(|s| s.line == 7).unwrap();
        assert_eq!(site7.checks_total(), 1);
        assert_eq!(site7.rc_updates, 1);

        let r2 = p.regions().find(|r| r.region == 2).unwrap();
        assert_eq!(r2.parent, Some(1));
        assert!(r2.deleted);
        assert_eq!(r2.live_words_at_delete, 6);
        assert_eq!(r2.lifetime_cycles, 100);
        // lifetime 100 ∈ [2^6, 2^7) → bucket 7.
        assert_eq!(p.lifetime_histogram()[7], 1);
    }

    #[test]
    fn hot_tables_rank_and_truncate() {
        let mut p = Profile::new();
        for (site, n) in [(3u32, 5u64), (8, 9), (2, 9), (4, 1)] {
            for _ in 0..n {
                p.fold(&check(PtrKind::ParentPtr, site, true));
            }
        }
        let hot = p.hot_check_sites(3);
        let lines: Vec<u32> = hot.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![2, 8, 3], "count desc, line asc on ties, top 3");
    }

    #[test]
    fn flamegraph_indents_subregions_under_parents() {
        let mut p = Profile::new();
        p.fold(&Event::RegionCreated { region: 1, born_at: 0, at: 0 });
        p.fold(&Event::SubregionCreated { region: 2, parent: 1, born_at: 0, at: 0 });
        p.fold(&Event::SubregionCreated { region: 3, parent: 2, born_at: 0, at: 0 });
        p.fold(&alloc(1, 0, 10));
        p.fold(&alloc(2, 0, 20));
        p.fold(&alloc(3, 0, 30));
        let fg = p.flamegraph();
        let lines: Vec<&str> = fg.lines().collect();
        // Header, r0, then r1 > r2 > r3 each two spaces deeper.
        assert!(lines[1].starts_with("r0 (traditional)"));
        assert!(lines[2].starts_with("  r1"));
        assert!(lines[3].starts_with("    r2"));
        assert!(lines[4].starts_with("      r3"));
        // Subtree sizing: r1's subtree holds all 60 words.
        assert!(lines[2].contains("60 words"));
        assert!(lines[3].contains("50 words"));
        assert!(lines[4].contains("30 words"));
    }

    #[test]
    fn log2_buckets() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn offset_regions_shifts_everything_but_the_traditional_region() {
        let mut p = Profile::new();
        p.fold(&Event::RegionCreated { region: 1, born_at: 10, at: 10 });
        p.fold(&Event::SubregionCreated { region: 2, parent: 1, born_at: 20, at: 20 });
        p.fold(&alloc(0, 3, 4));
        p.offset_regions(10);
        let ids: Vec<u32> = p.regions().map(|r| r.region).collect();
        assert_eq!(ids, vec![0, 11, 12]);
        assert_eq!(p.regions().find(|r| r.region == 12).unwrap().parent, Some(11));
        assert_eq!(p.regions().find(|r| r.region == 0).unwrap().alloc_words, 4);
    }

    #[test]
    fn merge_unions_sites_and_regions_and_sums_totals() {
        let mut a = Profile::new();
        a.fold(&Event::RegionCreated { region: 1, born_at: 10, at: 10 });
        a.fold(&alloc(1, 5, 3));
        a.fold(&check(PtrKind::SameRegion, 7, false));
        let mut b = Profile::new();
        b.fold(&Event::RegionCreated { region: 1, born_at: 20, at: 20 });
        b.fold(&alloc(1, 5, 2));
        b.fold(&alloc(1, 9, 4));
        b.fold(&Event::RegionDeleted { region: 1, live_words: 6, lifetime_cycles: 100, at: 120 });
        // A shard merge always offsets the incoming profile first so only
        // the shared traditional region collides.
        b.offset_regions(1);
        let m = a.merge(&b);
        assert_eq!(m.totals.regions_created, 2);
        assert_eq!(m.totals.allocs, 3);
        assert_eq!(m.totals.alloc_words, 9);
        assert_eq!(m.totals.checks_failed, 1);
        let ids: Vec<u32> = m.regions().map(|r| r.region).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(m.regions().find(|r| r.region == 2).unwrap().deleted);
        let site5 = m.sites().find(|s| s.line == 5).unwrap();
        assert_eq!((site5.allocs, site5.alloc_words), (2, 5));
        // lifetime 100 → bucket 7, carried through the histogram sum.
        assert_eq!(m.lifetime_histogram()[7], 1);
    }

    #[test]
    fn merge_is_associative() {
        let mk = |region: u32, site: u32, at: u64| {
            let mut p = Profile::new();
            p.fold(&Event::RegionCreated { region, born_at: at, at });
            p.fold(&alloc(region, site, site + 1));
            p.fold(&check(PtrKind::ParentPtr, site, true));
            p
        };
        let (a, b, c) = (mk(1, 3, 5), mk(2, 4, 6), mk(1, 3, 7));
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left.to_json("x").render(), right.to_json("x").render());
    }

    #[test]
    fn profile_json_has_schema_fields() {
        let mut p = Profile::new();
        p.fold(&alloc(1, 4, 2));
        let j = p.to_json("quickstart.rc").render();
        assert!(j.contains(r#""kind":"profile""#));
        assert!(j.contains(r#""source":"quickstart.rc""#));
        assert!(j.contains(r#""allocs":1"#));
        assert!(j.contains(r#""line":4"#));
    }
}
