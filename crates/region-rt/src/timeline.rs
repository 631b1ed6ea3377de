//! Time-series heap sampling: the timeline behind `BENCH_rc.json`.
//!
//! The [`Stats`] counters and the telemetry
//! [`Profile`](crate::profile::Profile) summarize a whole run; this module
//! records how the heap *evolved* — occupancy, fragmentation, page reuse
//! and RC/check rates over virtual time. A [`Timeline`] attached to a
//! [`Heap`](crate::heap::Heap) takes a [`MetricsSnapshot`] every
//! `interval` runtime events ("ticks": allocations, count updates,
//! checks, frees, collections, interpreter steps). Sampling is driven by
//! the virtual clock's event stream, never by wall time, so two runs of
//! the same program produce byte-identical timelines.
//!
//! Cost discipline matches the tracer (see `docs/OBSERVABILITY.md`):
//! emission sites call [`Heap::sample_tick`](crate::heap::Heap), which is
//! a single compare-with-zero branch while sampling is disabled. The
//! interpreter takes an instruction's steps with one
//! [`Heap::sample_ticks`](crate::heap::Heap::sample_ticks), and ticks them
//! one at a time only when a sample falls among them.
//! Sampling is observation-only: it never changes `Stats`, virtual
//! cycles, or program outcome.
//!
//! Memory is bounded by decimation: when the sample buffer reaches its
//! cap, every other sample is dropped and the interval doubles — the
//! classic fixed-size profiler trick, and still deterministic.

use crate::cost::Cycles;
use crate::json::Json;
use crate::stats::Stats;

/// Number of per-page occupancy buckets in a snapshot (eighths of a page).
pub const OCCUPANCY_BUCKETS: usize = 8;

/// Default sampling interval in ticks for interpreter-driven runs.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 256;

/// Default cap on retained samples before decimation.
pub const DEFAULT_TIMELINE_CAP: usize = 512;

/// Point-in-time structural gauges of the heap, computed by
/// [`Heap::gauges`](crate::heap::Heap::gauges) from the page map and the
/// allocators (not from `Stats`, so tests can cross-check the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapGauges {
    /// Live regions (including the traditional region).
    pub live_regions: u32,
    /// Pages ever committed by the store (excluding the reserved page 0).
    pub pages_committed: u32,
    /// Committed pages currently owned by an allocator (page map says
    /// owner ≠ free).
    pub pages_in_use: u32,
    /// Committed pages sitting in the store's free pool.
    pub pages_free: u32,
    /// Pages owned by live regions' bump allocators, counted from the
    /// allocators' own page lists (the page map is the other source of
    /// truth; the auditor property tests compare them).
    pub region_pages: u32,
    /// Histogram of live region pages by fill fraction: bucket `i` holds
    /// pages with used words in `(i/8, (i+1)/8]` of a page — the
    /// internal-fragmentation picture.
    pub occupancy: [u32; OCCUPANCY_BUCKETS],
    /// Total free slots across the malloc baseline's size classes: freed
    /// slots plus the uncarved rest of each class's current page.
    pub malloc_free_depth: u32,
}

/// One timeline sample: structural gauges plus event/cycle deltas since
/// the previous sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Sample sequence number (0-based, before any decimation).
    pub seq: u64,
    /// Virtual clock when the sample was taken.
    pub at_cycles: Cycles,
    /// Runtime events ("ticks") observed when the sample was taken.
    pub ticks: u64,
    /// Source line the interpreter was executing (0 = unattributed), so
    /// samples align with `file:line` phases of the program.
    pub site: u32,
    /// Live words across all allocators (the `Stats` gauge).
    pub live_words: u64,
    /// Peak of the live-word gauge so far.
    pub peak_live_words: u64,
    /// Structural gauges from the page map and allocators.
    pub gauges: HeapGauges,
    /// Virtual cycles elapsed since the previous sample.
    pub d_cycles: Cycles,
    /// Objects allocated since the previous sample.
    pub d_allocs: u64,
    /// Words allocated since the previous sample.
    pub d_alloc_words: u64,
    /// Reference-count updates (full + early-exit) since the previous
    /// sample.
    pub d_rc_updates: u64,
    /// Annotation checks since the previous sample.
    pub d_checks: u64,
    /// Cycles spent on reference counting since the previous sample.
    pub d_rc_cycles: Cycles,
    /// Cycles spent on annotation checks since the previous sample.
    pub d_check_cycles: Cycles,
    /// Cycles spent in the allocators since the previous sample.
    pub d_alloc_cycles: Cycles,
    /// GC collections since the previous sample.
    pub d_gc_collections: u64,
    /// Cycles spent in GC since the previous sample — the pause
    /// attribution for this window.
    pub d_gc_cycles: Cycles,
}

impl MetricsSnapshot {
    /// Encodes the sample as one JSON object (stable key set; see the
    /// schema section of `docs/OBSERVABILITY.md`).
    pub fn to_json(&self) -> Json {
        let g = &self.gauges;
        Json::obj(vec![
            ("seq", Json::U(self.seq)),
            ("at_cycles", Json::U(self.at_cycles)),
            ("ticks", Json::U(self.ticks)),
            ("site", Json::U(self.site as u64)),
            ("live_words", Json::U(self.live_words)),
            ("peak_live_words", Json::U(self.peak_live_words)),
            ("live_regions", Json::U(g.live_regions as u64)),
            ("pages_committed", Json::U(g.pages_committed as u64)),
            ("pages_in_use", Json::U(g.pages_in_use as u64)),
            ("pages_free", Json::U(g.pages_free as u64)),
            ("region_pages", Json::U(g.region_pages as u64)),
            ("occupancy", Json::A(g.occupancy.iter().map(|&n| Json::U(n as u64)).collect())),
            ("malloc_free_depth", Json::U(g.malloc_free_depth as u64)),
            ("d_cycles", Json::U(self.d_cycles)),
            ("d_allocs", Json::U(self.d_allocs)),
            ("d_alloc_words", Json::U(self.d_alloc_words)),
            ("d_rc_updates", Json::U(self.d_rc_updates)),
            ("d_checks", Json::U(self.d_checks)),
            ("d_rc_cycles", Json::U(self.d_rc_cycles)),
            ("d_check_cycles", Json::U(self.d_check_cycles)),
            ("d_alloc_cycles", Json::U(self.d_alloc_cycles)),
            ("d_gc_collections", Json::U(self.d_gc_collections)),
            ("d_gc_cycles", Json::U(self.d_gc_cycles)),
        ])
    }
}

/// Cumulative counter values at the previous sample, for delta taking.
#[derive(Debug, Clone, Copy, Default)]
struct Baseline {
    cycles: Cycles,
    allocs: u64,
    alloc_words: u64,
    rc_updates: u64,
    checks: u64,
    rc_cycles: Cycles,
    check_cycles: Cycles,
    alloc_cycles: Cycles,
    gc_collections: u64,
    gc_cycles: Cycles,
}

impl Baseline {
    fn of(stats: &Stats, cycles: Cycles) -> Baseline {
        Baseline {
            cycles,
            allocs: stats.objects_allocated,
            alloc_words: stats.words_allocated,
            rc_updates: stats.rc_updates_full + stats.rc_updates_same,
            checks: stats.checks_sameregion + stats.checks_parentptr + stats.checks_traditional,
            rc_cycles: stats.rc_cycles,
            check_cycles: stats.check_cycles,
            alloc_cycles: stats.alloc_cycles,
            gc_collections: stats.gc_collections,
            gc_cycles: stats.gc_cycles,
        }
    }
}

/// The virtual-clock sampler: a bounded, deterministic series of
/// [`MetricsSnapshot`]s.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Current ticks between samples (doubles on decimation).
    interval: u64,
    /// Sample cap; reaching it drops every other sample.
    cap: usize,
    samples: Vec<MetricsSnapshot>,
    seq: u64,
    ticks: u64,
    last: Baseline,
    /// Cumulative samples discarded by decimation (their deltas were
    /// merged into survivors, so window sums remain exact).
    samples_dropped: u64,
}

impl Timeline {
    /// A sampler taking a snapshot every `interval` ticks, decimating at
    /// `cap` retained samples (both clamped to sane minimums).
    pub fn new(interval: u64, cap: usize) -> Timeline {
        let interval = interval.max(1);
        Timeline {
            interval,
            cap: cap.max(8),
            samples: Vec::new(),
            seq: 0,
            ticks: 0,
            last: Baseline::default(),
            samples_dropped: 0,
        }
    }

    /// The current sampling interval in ticks (≥ the configured interval;
    /// doubles every time the buffer decimates).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The sample cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Total ticks observed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> &[MetricsSnapshot] {
        &self.samples
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Cumulative samples discarded by decimation since the last reset.
    /// Their deltas were folded into surviving samples, so this counts
    /// lost *resolution*, not lost events.
    pub fn samples_dropped(&self) -> u64 {
        self.samples_dropped
    }

    /// Extracts one metric as a series, for charting.
    pub fn series(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> Vec<u64> {
        self.samples.iter().map(f).collect()
    }

    /// Records ticks observed by the heap between samples (keeps
    /// [`Timeline::ticks`] exact even though the countdown lives in the
    /// heap for one-branch emission).
    pub(crate) fn note_ticks(&mut self, n: u64) {
        self.ticks += n;
    }

    /// Exact interleave of two timelines (shard → global roll-up; see
    /// [`crate::shard`]): samples merge-sort stably by virtual time —
    /// each shard's clock starts at zero, so this aligns shards on
    /// elapsed virtual work — with this timeline's samples winning ties,
    /// then renumber densely. Tick and drop totals sum; the interval and
    /// cap stay this timeline's. Associative (stable k-way merge with
    /// left-preference over per-shard monotone inputs), and window sums
    /// remain exact because every sample keeps its own deltas.
    pub fn merge(&mut self, other: &Timeline) {
        let mut merged = Vec::with_capacity(self.samples.len() + other.samples.len());
        let (mut i, mut j) = (0, 0);
        while i < self.samples.len() || j < other.samples.len() {
            let take_left = match (self.samples.get(i), other.samples.get(j)) {
                (Some(a), Some(b)) => a.at_cycles <= b.at_cycles,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_left {
                merged.push(self.samples[i]);
                i += 1;
            } else {
                merged.push(other.samples[j]);
                j += 1;
            }
        }
        for (n, s) in merged.iter_mut().enumerate() {
            s.seq = n as u64;
        }
        self.samples = merged;
        self.seq = self.samples.len() as u64;
        self.ticks += other.ticks;
        self.samples_dropped += other.samples_dropped;
    }

    /// Takes a sample from the current gauges and cumulative counters.
    pub(crate) fn push(&mut self, gauges: HeapGauges, stats: &Stats, cycles: Cycles, site: u32) {
        let now = Baseline::of(stats, cycles);
        let last = self.last;
        self.samples.push(MetricsSnapshot {
            seq: self.seq,
            at_cycles: cycles,
            ticks: self.ticks,
            site,
            live_words: stats.live_words,
            peak_live_words: stats.peak_live_words,
            gauges,
            d_cycles: now.cycles - last.cycles,
            d_allocs: now.allocs - last.allocs,
            d_alloc_words: now.alloc_words - last.alloc_words,
            d_rc_updates: now.rc_updates - last.rc_updates,
            d_checks: now.checks - last.checks,
            d_rc_cycles: now.rc_cycles - last.rc_cycles,
            d_check_cycles: now.check_cycles - last.check_cycles,
            d_alloc_cycles: now.alloc_cycles - last.alloc_cycles,
            d_gc_collections: now.gc_collections - last.gc_collections,
            d_gc_cycles: now.gc_cycles - last.gc_cycles,
        });
        self.seq += 1;
        self.last = now;
        if self.samples.len() >= self.cap {
            self.decimate();
        }
    }

    /// Drops every other sample and doubles the interval. Deltas of a
    /// surviving sample absorb its dropped predecessor's so window sums
    /// stay exact.
    fn decimate(&mut self) {
        let before = self.samples.len();
        let mut merged = Vec::with_capacity(self.samples.len() / 2 + 1);
        let mut carry: Option<MetricsSnapshot> = None;
        for (i, s) in self.samples.drain(..).enumerate() {
            if i % 2 == 0 {
                carry = Some(s);
            } else {
                let mut keep = s;
                if let Some(c) = carry.take() {
                    keep.d_cycles += c.d_cycles;
                    keep.d_allocs += c.d_allocs;
                    keep.d_alloc_words += c.d_alloc_words;
                    keep.d_rc_updates += c.d_rc_updates;
                    keep.d_checks += c.d_checks;
                    keep.d_rc_cycles += c.d_rc_cycles;
                    keep.d_check_cycles += c.d_check_cycles;
                    keep.d_alloc_cycles += c.d_alloc_cycles;
                    keep.d_gc_collections += c.d_gc_collections;
                    keep.d_gc_cycles += c.d_gc_cycles;
                }
                merged.push(keep);
            }
        }
        // An odd trailing sample survives as-is (its deltas are intact).
        if let Some(c) = carry {
            merged.push(c);
        }
        self.samples = merged;
        self.samples_dropped += (before - self.samples.len()) as u64;
        self.interval = self.interval.saturating_mul(2);
    }

    /// Encodes the timeline as a JSON array of sample objects.
    pub fn to_json(&self) -> Json {
        Json::A(self.samples.iter().map(|s| s.to_json()).collect())
    }
}

/// Renders a series as a one-line ASCII sparkline: each value scaled
/// against the series maximum onto the ramp `" .:-=+*#%@"` (space = zero,
/// `@` = max). An empty or all-zero series renders as spaces.
pub fn sparkline(values: &[u64]) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let Some(max) = std::num::NonZeroU64::new(values.iter().copied().max().unwrap_or(0)) else {
        return " ".repeat(values.len());
    };
    values
        .iter()
        .map(|&v| {
            let idx = (v * (RAMP.len() as u64 - 1) + max.get() / 2) / max.get();
            RAMP[idx as usize] as char
        })
        .collect()
}

/// The occupancy bucket for a page with `used` of `page_words` words in
/// use: bucket `i` covers fill fractions in `(i/8, (i+1)/8]`.
pub fn occupancy_bucket(used: u32, page_words: u32) -> usize {
    debug_assert!(used >= 1 && used <= page_words);
    ((used as usize - 1) * OCCUPANCY_BUCKETS) / page_words as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick_stats(allocs: u64) -> Stats {
        Stats { objects_allocated: allocs, words_allocated: allocs * 2, ..Stats::new() }
    }

    #[test]
    fn deltas_are_windowed() {
        let mut tl = Timeline::new(4, 16);
        tl.push(HeapGauges::default(), &tick_stats(10), 100, 1);
        tl.push(HeapGauges::default(), &tick_stats(25), 180, 2);
        let s = tl.samples();
        assert_eq!(s[0].d_allocs, 10);
        assert_eq!(s[1].d_allocs, 15);
        assert_eq!(s[1].d_cycles, 80);
        assert_eq!(s[1].site, 2);
    }

    #[test]
    fn decimation_halves_and_preserves_delta_sums() {
        let mut tl = Timeline::new(1, 8);
        for i in 1..=8u64 {
            tl.push(HeapGauges::default(), &tick_stats(i * 10), i * 100, 0);
        }
        // Cap reached: 8 samples decimate to 4 and the interval doubles.
        assert_eq!(tl.len(), 4);
        assert_eq!(tl.interval(), 2);
        let total: u64 = tl.samples().iter().map(|s| s.d_allocs).sum();
        assert_eq!(total, 80, "window sums survive decimation");
        let seqs: Vec<u64> = tl.samples().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![1, 3, 5, 7]);
        assert_eq!(tl.samples_dropped(), 4);
    }

    #[test]
    fn samples_dropped_accumulates_across_decimations() {
        let mut tl = Timeline::new(1, 8);
        assert_eq!(tl.samples_dropped(), 0);
        for i in 1..=16u64 {
            tl.push(HeapGauges::default(), &tick_stats(i), i, 0);
        }
        // Three decimations: at pushes 8, 12, and 16 the buffer refills
        // to cap and halves again, dropping 4 each time.
        assert_eq!(tl.samples_dropped(), 12);
    }

    #[test]
    fn merge_interleaves_by_virtual_time_and_renumbers() {
        let mut a = Timeline::new(1, 16);
        a.push(HeapGauges::default(), &tick_stats(10), 100, 1);
        a.push(HeapGauges::default(), &tick_stats(20), 300, 1);
        a.note_ticks(2);
        let mut b = Timeline::new(1, 16);
        b.push(HeapGauges::default(), &tick_stats(5), 100, 2);
        b.push(HeapGauges::default(), &tick_stats(9), 200, 2);
        b.note_ticks(2);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        let at: Vec<u64> = a.series(|s| s.at_cycles);
        assert_eq!(at, vec![100, 100, 200, 300]);
        // Tie at 100: the left (merge target) sample comes first.
        assert_eq!(a.samples()[0].site, 1);
        assert_eq!(a.samples()[1].site, 2);
        let seqs: Vec<u64> = a.series(|s| s.seq);
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(a.ticks(), 4);
        // Window sums stay exact: every sample kept its own deltas.
        let total: u64 = a.series(|s| s.d_allocs).iter().sum();
        assert_eq!(total, 20 + 9);
    }

    #[test]
    fn merge_is_associative() {
        let mk = |base: u64, site: u32| {
            let mut tl = Timeline::new(1, 16);
            for i in 1..=3u64 {
                tl.push(HeapGauges::default(), &tick_stats(i), base + i * 10, site);
            }
            tl
        };
        let (a, b, c) = (mk(0, 1), mk(5, 2), mk(11, 3));
        let mut left = {
            let mut t = a.clone();
            t.merge(&b);
            t.merge(&c);
            t
        };
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.to_json().render(), right.to_json().render());
        assert_eq!(left.ticks(), right.ticks());
        // And stability actually matters: swapping merge order reorders
        // equal-time samples, so the result differs.
        left.merge(&a);
        right.merge(&a);
        assert_eq!(left.to_json().render(), right.to_json().render());
    }

    #[test]
    fn sparkline_scales_to_ramp() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "  ");
        let line = sparkline(&[0, 5, 10]);
        assert_eq!(line.len(), 3);
        assert!(line.starts_with(' '));
        assert!(line.ends_with('@'));
    }

    #[test]
    fn occupancy_buckets_cover_the_page() {
        assert_eq!(occupancy_bucket(1, 1024), 0);
        assert_eq!(occupancy_bucket(128, 1024), 0);
        assert_eq!(occupancy_bucket(129, 1024), 1);
        assert_eq!(occupancy_bucket(1024, 1024), 7);
    }

    #[test]
    fn json_has_stable_keys() {
        let mut tl = Timeline::new(1, 8);
        tl.push(HeapGauges::default(), &tick_stats(1), 10, 3);
        let txt = tl.to_json().render();
        for key in ["seq", "at_cycles", "pages_in_use", "occupancy", "d_gc_cycles", "site"] {
            assert!(txt.contains(key), "missing {key} in {txt}");
        }
    }
}
