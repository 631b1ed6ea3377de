//! Operation counters.
//!
//! Everything the paper's evaluation section reports is derived from counts
//! of dynamic events: pointer assignments by category (Figure 9), reference
//! count work (Table 2), allocation volume (Table 1), and check executions
//! (Figure 8). [`Stats`] is the single accumulation point; the interpreter
//! and the runtime both write to it.

use crate::cost::Cycles;
use crate::json::Json;

/// Category of a dynamic heap pointer assignment, for Figure 9's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignCategory {
    /// Statically verified annotated assignment: no runtime work.
    Safe,
    /// Annotated assignment that executed a runtime check.
    Checked,
    /// Unannotated assignment that did reference-count work.
    Counted,
}

/// Dynamic event counters for one execution.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Heap pointer assignments that needed no runtime work (statically
    /// safe annotated stores).
    pub assigns_safe: u64,
    /// Heap pointer assignments that ran an annotation check.
    pub assigns_checked: u64,
    /// Heap pointer assignments that did reference-count work.
    pub assigns_counted: u64,
    /// Pointer assignments to local variables (not heap stores; reported
    /// separately because Figure 9 excludes them).
    pub assigns_local: u64,
    /// Heap pointer assignments executed with all dynamic work disabled
    /// (the "nc" and "norc" configurations); kept out of Figure 9's
    /// categories, which describe the checked configurations.
    pub assigns_raw: u64,
    /// Reference-count updates that actually changed a count (both
    /// `regionof`s differed).
    pub rc_updates_full: u64,
    /// Reference-count updates that took the early exit.
    pub rc_updates_same: u64,
    /// `sameregion` checks executed.
    pub checks_sameregion: u64,
    /// `traditional` checks executed.
    pub checks_traditional: u64,
    /// `parentptr` checks executed.
    pub checks_parentptr: u64,
    /// Objects allocated (all allocators).
    pub objects_allocated: u64,
    /// Words allocated (all allocators), for Table 1's "mem alloc".
    pub words_allocated: u64,
    /// Peak live words, for Table 1's "max use".
    pub peak_live_words: u64,
    /// Currently live words (maintained by alloc/free/delete).
    pub live_words: u64,
    /// Regions created.
    pub regions_created: u64,
    /// Regions deleted.
    pub regions_deleted: u64,
    /// `deleteregion` calls deferred because references remained (only
    /// under [`crate::heap::DeletePolicy::Deferred`]).
    pub regions_deferred: u64,
    /// Full renumberings forced by interval exhaustion (gap-based
    /// numbering only).
    pub renumber_fallbacks: u64,
    /// Words visited by the delete-time unscan.
    pub unscan_words: u64,
    /// Locals pinned around `deletes` calls.
    pub local_pins: u64,
    /// malloc calls.
    pub malloc_calls: u64,
    /// free calls.
    pub free_calls: u64,
    /// GC collections run.
    pub gc_collections: u64,
    /// Words examined by GC marking.
    pub gc_marked_words: u64,
    /// Objects reclaimed by GC sweeps.
    pub gc_swept_objects: u64,
    /// Virtual time spent purely on reference counting (count updates +
    /// local pinning), for Table 2's overhead column.
    pub rc_cycles: Cycles,
    /// Virtual time spent on annotation checks.
    pub check_cycles: Cycles,
    /// Virtual time spent on the delete-time unscan (Table 2's "region
    /// unscan" column).
    pub unscan_cycles: Cycles,
    /// Virtual time spent in the allocators.
    pub alloc_cycles: Cycles,
    /// Virtual time spent in GC.
    pub gc_cycles: Cycles,
    /// Times [`Stats::sub_live`] was asked to remove more words than the
    /// gauge held (a double-free or accounting bug; panics under
    /// `debug_assertions`, and the auditor reports it either way).
    pub live_underflows: u64,
    /// Faults injected by armed fault planes (see [`crate::fault`]);
    /// page-plane injections are folded in at harvest.
    pub faults_injected: u64,
    /// Timeline samples discarded by decimation (see
    /// [`crate::timeline::Timeline::samples_dropped`]): nonzero means the
    /// exported timeline lost resolution, though window sums stay exact.
    pub samples_dropped: u64,
    /// Tasks spawned (`spawn` statements executed). A program point, not
    /// a scheduler decision, so the count is identical under every
    /// scheduler mode.
    pub sched_spawns: u64,
    /// `join` points executed with at least one outstanding child. Also
    /// schedule-invariant: joins happen where the program says, however
    /// the tasks were interleaved.
    pub sched_joins: u64,
}

impl Stats {
    /// Fresh zeroed counters.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Records a heap pointer assignment of the given category.
    #[inline]
    pub fn record_assign(&mut self, cat: AssignCategory) {
        match cat {
            AssignCategory::Safe => self.assigns_safe += 1,
            AssignCategory::Checked => self.assigns_checked += 1,
            AssignCategory::Counted => self.assigns_counted += 1,
        }
    }

    /// Total heap pointer assignments (Figure 9's denominator).
    pub fn heap_assigns(&self) -> u64 {
        self.assigns_safe + self.assigns_checked + self.assigns_counted
    }

    /// Fraction of heap assignments in a category, in percent (0 if no
    /// assignments happened).
    pub fn assign_pct(&self, cat: AssignCategory) -> f64 {
        let total = self.heap_assigns();
        if total == 0 {
            return 0.0;
        }
        let n = match cat {
            AssignCategory::Safe => self.assigns_safe,
            AssignCategory::Checked => self.assigns_checked,
            AssignCategory::Counted => self.assigns_counted,
        };
        100.0 * n as f64 / total as f64
    }

    /// Adjusts the live-word gauge and the peak.
    #[inline]
    pub fn add_live(&mut self, words: u64) {
        self.live_words += words;
        if self.live_words > self.peak_live_words {
            self.peak_live_words = self.live_words;
        }
    }

    /// Removes from the live-word gauge.
    ///
    /// Removing more than the gauge holds is an accounting bug (a double
    /// free, or an allocator reporting words it never added): this panics
    /// under `debug_assertions`; in release builds it clamps to zero but
    /// records the event in [`Stats::live_underflows`], which
    /// [`summary`](Stats::summary) flags and the heap auditor surfaces as
    /// an error instead of letting the gauge silently under-report
    /// forever.
    #[inline]
    pub fn sub_live(&mut self, words: u64) {
        match self.live_words.checked_sub(words) {
            Some(left) => self.live_words = left,
            None => {
                debug_assert!(
                    false,
                    "live-word gauge underflow: sub_live({words}) with only {} live",
                    self.live_words
                );
                self.live_underflows += 1;
                self.live_words = 0;
            }
        }
    }

    /// Exact fieldwise roll-up of two counter sets, used when per-shard
    /// heaps report into one global `Stats` (see [`crate::shard`]).
    ///
    /// Every field is summed, so `merge` is commutative and associative
    /// and the shard join order cannot change the global report. Two
    /// gauges deserve a note: `live_words` sums to the true global gauge
    /// (shards partition the live heap), while `peak_live_words` sums the
    /// *per-shard* peaks — an upper bound on the true concurrent peak,
    /// since shards need not peak at the same instant.
    ///
    /// The exhaustive struct literal (no `..`) makes adding a `Stats`
    /// field without deciding its merge a compile error.
    #[must_use]
    pub fn merge(&self, other: &Stats) -> Stats {
        Stats {
            assigns_safe: self.assigns_safe + other.assigns_safe,
            assigns_checked: self.assigns_checked + other.assigns_checked,
            assigns_counted: self.assigns_counted + other.assigns_counted,
            assigns_local: self.assigns_local + other.assigns_local,
            assigns_raw: self.assigns_raw + other.assigns_raw,
            rc_updates_full: self.rc_updates_full + other.rc_updates_full,
            rc_updates_same: self.rc_updates_same + other.rc_updates_same,
            checks_sameregion: self.checks_sameregion + other.checks_sameregion,
            checks_traditional: self.checks_traditional + other.checks_traditional,
            checks_parentptr: self.checks_parentptr + other.checks_parentptr,
            objects_allocated: self.objects_allocated + other.objects_allocated,
            words_allocated: self.words_allocated + other.words_allocated,
            peak_live_words: self.peak_live_words + other.peak_live_words,
            live_words: self.live_words + other.live_words,
            regions_created: self.regions_created + other.regions_created,
            regions_deleted: self.regions_deleted + other.regions_deleted,
            regions_deferred: self.regions_deferred + other.regions_deferred,
            renumber_fallbacks: self.renumber_fallbacks + other.renumber_fallbacks,
            unscan_words: self.unscan_words + other.unscan_words,
            local_pins: self.local_pins + other.local_pins,
            malloc_calls: self.malloc_calls + other.malloc_calls,
            free_calls: self.free_calls + other.free_calls,
            gc_collections: self.gc_collections + other.gc_collections,
            gc_marked_words: self.gc_marked_words + other.gc_marked_words,
            gc_swept_objects: self.gc_swept_objects + other.gc_swept_objects,
            rc_cycles: self.rc_cycles + other.rc_cycles,
            check_cycles: self.check_cycles + other.check_cycles,
            unscan_cycles: self.unscan_cycles + other.unscan_cycles,
            alloc_cycles: self.alloc_cycles + other.alloc_cycles,
            gc_cycles: self.gc_cycles + other.gc_cycles,
            live_underflows: self.live_underflows + other.live_underflows,
            faults_injected: self.faults_injected + other.faults_injected,
            samples_dropped: self.samples_dropped + other.samples_dropped,
            sched_spawns: self.sched_spawns + other.sched_spawns,
            sched_joins: self.sched_joins + other.sched_joins,
        }
    }

    /// The counters that are invariant between a sequential (inline) run
    /// of a `spawn`/`join` program and the shard-merged parallel run of
    /// the same program, rendered as a canonical JSON object.
    ///
    /// Excluded, with reasons:
    /// - `peak_live_words` / `live_words`: per-shard peaks sum to an
    ///   upper bound, and end-of-run residency is attributed per shard;
    /// - `regions_created` / `regions_deleted` / `malloc_calls` /
    ///   `free_calls` / `objects_allocated` / `words_allocated` /
    ///   `unscan_words` / `alloc_cycles`: each task materialises its
    ///   transferred region as a fresh facet (one descriptor allocation
    ///   and one region create/delete pair per handoff);
    /// - `renumber_fallbacks` and every `*_cycles` total: hierarchy
    ///   renumbering visits only the owning shard's regions, so virtual
    ///   time diverges from the single-heap schedule;
    /// - `gc_collections` / `gc_marked_words` / `gc_swept_objects`:
    ///   per-shard heaps cross the collection threshold at different
    ///   points than one shared heap would;
    /// - `samples_dropped` / `faults_injected` / `live_underflows`:
    ///   per-heap instrumentation, not program behaviour.
    ///
    /// The exhaustive destructuring (no `..`) forces every future field
    /// to be classified as invariant or excluded.
    pub fn parallel_invariant_key(&self) -> Json {
        let Stats {
            assigns_safe,
            assigns_checked,
            assigns_counted,
            assigns_local,
            assigns_raw,
            rc_updates_full,
            rc_updates_same,
            checks_sameregion,
            checks_traditional,
            checks_parentptr,
            objects_allocated: _,
            words_allocated: _,
            peak_live_words: _,
            live_words: _,
            regions_created: _,
            regions_deleted: _,
            regions_deferred,
            renumber_fallbacks: _,
            unscan_words: _,
            local_pins,
            malloc_calls: _,
            free_calls: _,
            gc_collections: _,
            gc_marked_words: _,
            gc_swept_objects: _,
            rc_cycles: _,
            check_cycles: _,
            unscan_cycles: _,
            alloc_cycles: _,
            gc_cycles: _,
            live_underflows: _,
            faults_injected: _,
            samples_dropped: _,
            sched_spawns,
            sched_joins,
        } = self;
        Json::obj(vec![
            ("assigns_safe", Json::U(*assigns_safe)),
            ("assigns_checked", Json::U(*assigns_checked)),
            ("assigns_counted", Json::U(*assigns_counted)),
            ("assigns_local", Json::U(*assigns_local)),
            ("assigns_raw", Json::U(*assigns_raw)),
            ("rc_updates_full", Json::U(*rc_updates_full)),
            ("rc_updates_same", Json::U(*rc_updates_same)),
            ("checks_sameregion", Json::U(*checks_sameregion)),
            ("checks_traditional", Json::U(*checks_traditional)),
            ("checks_parentptr", Json::U(*checks_parentptr)),
            ("regions_deferred", Json::U(*regions_deferred)),
            ("local_pins", Json::U(*local_pins)),
            ("sched_spawns", Json::U(*sched_spawns)),
            ("sched_joins", Json::U(*sched_joins)),
        ])
    }

    /// A one-screen human-readable dump of the counters, skipping groups
    /// that are all zero. Also available through `{}` formatting.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "allocation : {} objects, {} words ({} peak live, {} live now)\n",
            self.objects_allocated, self.words_allocated, self.peak_live_words, self.live_words
        ));
        out.push_str(&format!(
            "regions    : {} created, {} deleted",
            self.regions_created, self.regions_deleted
        ));
        if self.regions_deferred > 0 || self.renumber_fallbacks > 0 {
            out.push_str(&format!(
                " ({} deferred, {} renumber fallbacks)",
                self.regions_deferred, self.renumber_fallbacks
            ));
        }
        out.push('\n');
        if self.heap_assigns() + self.assigns_local + self.assigns_raw > 0 {
            out.push_str(&format!(
                "assigns    : {} safe / {} checked / {} counted heap stores ({} local, {} raw)\n",
                self.assigns_safe,
                self.assigns_checked,
                self.assigns_counted,
                self.assigns_local,
                self.assigns_raw
            ));
        }
        if self.rc_updates_full + self.rc_updates_same + self.local_pins > 0 {
            out.push_str(&format!(
                "refcounts  : {} full + {} early-exit updates, {} local pins ({} cycles)\n",
                self.rc_updates_full, self.rc_updates_same, self.local_pins, self.rc_cycles
            ));
        }
        let checks = self.checks_sameregion + self.checks_traditional + self.checks_parentptr;
        if checks > 0 {
            out.push_str(&format!(
                "checks     : {} sameregion / {} parentptr / {} traditional ({} cycles)\n",
                self.checks_sameregion,
                self.checks_parentptr,
                self.checks_traditional,
                self.check_cycles
            ));
        }
        if self.unscan_words > 0 {
            out.push_str(&format!(
                "unscan     : {} words at delete ({} cycles)\n",
                self.unscan_words, self.unscan_cycles
            ));
        }
        if self.malloc_calls + self.free_calls > 0 {
            out.push_str(&format!(
                "malloc     : {} allocs, {} frees\n",
                self.malloc_calls, self.free_calls
            ));
        }
        if self.gc_collections > 0 {
            out.push_str(&format!(
                "gc         : {} collections, {} words marked, {} objects swept ({} cycles)\n",
                self.gc_collections, self.gc_marked_words, self.gc_swept_objects, self.gc_cycles
            ));
        }
        out.push_str(&format!("alloc time : {} cycles\n", self.alloc_cycles));
        if self.faults_injected > 0 {
            out.push_str(&format!("faults     : {} injected\n", self.faults_injected));
        }
        if self.samples_dropped > 0 {
            out.push_str(&format!(
                "timeline   : {} samples dropped by decimation\n",
                self.samples_dropped
            ));
        }
        if self.sched_spawns + self.sched_joins > 0 {
            out.push_str(&format!(
                "tasks      : {} spawned, {} join points\n",
                self.sched_spawns, self.sched_joins
            ));
        }
        if self.live_underflows > 0 {
            out.push_str(&format!(
                "WARNING    : {} live-gauge underflows (double free or allocator accounting bug)\n",
                self.live_underflows
            ));
        }
        out
    }

    /// Every counter as one flat JSON object, in declaration order. This
    /// is the machine-readable twin of [`summary`](Stats::summary): the
    /// JSONL profiles, `--profile` output, and the bench trajectory all
    /// read counters through it, so they cannot drift from each other.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("assigns_safe", Json::U(self.assigns_safe)),
            ("assigns_checked", Json::U(self.assigns_checked)),
            ("assigns_counted", Json::U(self.assigns_counted)),
            ("assigns_local", Json::U(self.assigns_local)),
            ("assigns_raw", Json::U(self.assigns_raw)),
            ("rc_updates_full", Json::U(self.rc_updates_full)),
            ("rc_updates_same", Json::U(self.rc_updates_same)),
            ("checks_sameregion", Json::U(self.checks_sameregion)),
            ("checks_traditional", Json::U(self.checks_traditional)),
            ("checks_parentptr", Json::U(self.checks_parentptr)),
            ("objects_allocated", Json::U(self.objects_allocated)),
            ("words_allocated", Json::U(self.words_allocated)),
            ("peak_live_words", Json::U(self.peak_live_words)),
            ("live_words", Json::U(self.live_words)),
            ("regions_created", Json::U(self.regions_created)),
            ("regions_deleted", Json::U(self.regions_deleted)),
            ("regions_deferred", Json::U(self.regions_deferred)),
            ("renumber_fallbacks", Json::U(self.renumber_fallbacks)),
            ("unscan_words", Json::U(self.unscan_words)),
            ("local_pins", Json::U(self.local_pins)),
            ("malloc_calls", Json::U(self.malloc_calls)),
            ("free_calls", Json::U(self.free_calls)),
            ("gc_collections", Json::U(self.gc_collections)),
            ("gc_marked_words", Json::U(self.gc_marked_words)),
            ("gc_swept_objects", Json::U(self.gc_swept_objects)),
            ("rc_cycles", Json::U(self.rc_cycles)),
            ("check_cycles", Json::U(self.check_cycles)),
            ("unscan_cycles", Json::U(self.unscan_cycles)),
            ("alloc_cycles", Json::U(self.alloc_cycles)),
            ("gc_cycles", Json::U(self.gc_cycles)),
            ("live_underflows", Json::U(self.live_underflows)),
            ("faults_injected", Json::U(self.faults_injected)),
            ("samples_dropped", Json::U(self.samples_dropped)),
            ("sched_spawns", Json::U(self.sched_spawns)),
            ("sched_joins", Json::U(self.sched_joins)),
        ])
    }

    /// Parses a counter object produced by [`to_json`](Stats::to_json).
    ///
    /// The exhaustive literal (no `..`) keeps this in lockstep with the
    /// struct: adding a field without extending the parser is a compile
    /// error, and the round-trip test catches a missing serializer key.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped key. Externally
    /// supplied reports go through this (e.g. snapshots read from disk),
    /// so malformed data must surface as an error, never a panic.
    pub fn from_json(doc: &Json) -> Result<Stats, String> {
        let field = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats: missing or non-integer field {key:?}"))
        };
        Ok(Stats {
            assigns_safe: field("assigns_safe")?,
            assigns_checked: field("assigns_checked")?,
            assigns_counted: field("assigns_counted")?,
            assigns_local: field("assigns_local")?,
            assigns_raw: field("assigns_raw")?,
            rc_updates_full: field("rc_updates_full")?,
            rc_updates_same: field("rc_updates_same")?,
            checks_sameregion: field("checks_sameregion")?,
            checks_traditional: field("checks_traditional")?,
            checks_parentptr: field("checks_parentptr")?,
            objects_allocated: field("objects_allocated")?,
            words_allocated: field("words_allocated")?,
            peak_live_words: field("peak_live_words")?,
            live_words: field("live_words")?,
            regions_created: field("regions_created")?,
            regions_deleted: field("regions_deleted")?,
            regions_deferred: field("regions_deferred")?,
            renumber_fallbacks: field("renumber_fallbacks")?,
            unscan_words: field("unscan_words")?,
            local_pins: field("local_pins")?,
            malloc_calls: field("malloc_calls")?,
            free_calls: field("free_calls")?,
            gc_collections: field("gc_collections")?,
            gc_marked_words: field("gc_marked_words")?,
            gc_swept_objects: field("gc_swept_objects")?,
            rc_cycles: field("rc_cycles")?,
            check_cycles: field("check_cycles")?,
            unscan_cycles: field("unscan_cycles")?,
            alloc_cycles: field("alloc_cycles")?,
            gc_cycles: field("gc_cycles")?,
            live_underflows: field("live_underflows")?,
            faults_injected: field("faults_injected")?,
            samples_dropped: field("samples_dropped")?,
            sched_spawns: field("sched_spawns")?,
            sched_joins: field("sched_joins")?,
        })
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_percentages_sum_to_100() {
        let mut s = Stats::new();
        for _ in 0..5 {
            s.record_assign(AssignCategory::Safe);
        }
        for _ in 0..3 {
            s.record_assign(AssignCategory::Checked);
        }
        for _ in 0..2 {
            s.record_assign(AssignCategory::Counted);
        }
        let total = s.assign_pct(AssignCategory::Safe)
            + s.assign_pct(AssignCategory::Checked)
            + s.assign_pct(AssignCategory::Counted);
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(s.heap_assigns(), 10);
    }

    #[test]
    fn empty_stats_report_zero_pct() {
        let s = Stats::new();
        assert_eq!(s.assign_pct(AssignCategory::Safe), 0.0);
    }

    #[test]
    fn live_gauge_tracks_peak() {
        let mut s = Stats::new();
        s.add_live(10);
        s.add_live(5);
        s.sub_live(12);
        s.add_live(4);
        assert_eq!(s.peak_live_words, 15);
        assert_eq!(s.live_words, 7);
    }

    #[test]
    fn summary_mentions_every_nonzero_group() {
        let mut s = Stats::new();
        s.objects_allocated = 7;
        s.words_allocated = 20;
        s.rc_updates_full = 3;
        s.checks_sameregion = 4;
        s.gc_collections = 1;
        let text = format!("{s}");
        for needle in ["7 objects", "3 full", "4 sameregion", "1 collections"] {
            assert!(text.contains(needle), "summary missing {needle:?}: {text}");
        }
        // Zero groups are skipped.
        assert!(!text.contains("unscan"));
        assert!(!text.contains("malloc"));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "live-word gauge underflow")]
    fn sub_live_underflow_panics_in_debug() {
        let mut s = Stats::new();
        s.add_live(3);
        s.sub_live(10);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn sub_live_underflow_clamps_and_counts_in_release() {
        let mut s = Stats::new();
        s.add_live(3);
        s.sub_live(10);
        assert_eq!(s.live_words, 0);
        assert_eq!(s.live_underflows, 1);
    }

    /// Every field set to a distinct nonzero value; the exhaustive literal
    /// (no `..`) makes adding a `Stats` field without updating the
    /// serialization tests a compile error.
    fn fully_populated() -> Stats {
        Stats {
            assigns_safe: 1,
            assigns_checked: 2,
            assigns_counted: 3,
            assigns_local: 4,
            assigns_raw: 5,
            rc_updates_full: 6,
            rc_updates_same: 7,
            checks_sameregion: 8,
            checks_traditional: 9,
            checks_parentptr: 10,
            objects_allocated: 11,
            words_allocated: 12,
            peak_live_words: 13,
            live_words: 14,
            regions_created: 15,
            regions_deleted: 16,
            regions_deferred: 17,
            renumber_fallbacks: 18,
            unscan_words: 19,
            local_pins: 20,
            malloc_calls: 21,
            free_calls: 22,
            gc_collections: 23,
            gc_marked_words: 24,
            gc_swept_objects: 25,
            rc_cycles: 26,
            check_cycles: 27,
            unscan_cycles: 28,
            alloc_cycles: 29,
            gc_cycles: 30,
            live_underflows: 31,
            faults_injected: 32,
            samples_dropped: 33,
            sched_spawns: 34,
            sched_joins: 35,
        }
    }

    /// A second distinct population for merge tests: field `i` holds
    /// `(i + 1) * k`, built through the JSON round trip so it stays
    /// exhaustive without a second literal.
    fn shifted(k: u64) -> Stats {
        let doc: Vec<(String, Json)> = fully_populated()
            .to_json()
            .as_object()
            .unwrap_or_default()
            .iter()
            .enumerate()
            .map(|(i, (key, _))| (key.clone(), Json::U((i as u64 + 1) * k)))
            .collect();
        Stats::from_json(&Json::O(doc)).expect("round trip")
    }

    #[test]
    fn merge_sums_every_field_exactly() {
        let a = fully_populated();
        let m = a.merge(&a);
        let fields = m.to_json().as_object().unwrap_or_default().to_vec();
        let orig = a.to_json().as_object().unwrap_or_default().to_vec();
        assert_eq!(fields.len(), orig.len());
        for ((k, v), (ok, ov)) in fields.iter().zip(orig.iter()) {
            assert_eq!(k, ok);
            let (Json::U(v), Json::U(ov)) = (v, ov) else { panic!("non-integer counter") };
            assert_eq!(*v, 2 * ov, "{k} not summed");
        }
    }

    #[test]
    fn merge_is_commutative_and_associative_with_zero_identity() {
        let (a, b, c) = (fully_populated(), shifted(3), shifted(7));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&Stats::new()), a);
    }

    #[test]
    fn parallel_invariant_key_is_a_strict_projection() {
        let key = fully_populated().parallel_invariant_key();
        let fields = key.as_object().unwrap_or_default();
        assert!(!fields.is_empty());
        assert!(fields.len() < 35, "key must exclude shard-dependent gauges");
        let full = fully_populated().to_json();
        for (k, v) in fields {
            assert_eq!(full.get(k), Some(v), "{k} drifted from the counter it projects");
        }
        // The headline exclusions stay excluded.
        for gone in ["peak_live_words", "gc_collections", "rc_cycles", "malloc_calls"] {
            assert!(key.get(gone).is_none(), "{gone} must not be in the invariant key");
        }
    }

    #[test]
    fn to_json_covers_every_counter() {
        let s = fully_populated();
        let json = s.to_json();
        // An unexpected shape fails the assertion instead of panicking.
        let fields = json.as_object().unwrap_or_default();
        assert_eq!(fields.len(), 35, "one JSON key per Stats field (got {json:?})");
        for (key, val) in fields {
            assert!(matches!(val, Json::U(v) if *v >= 1 && *v <= 35), "{key} lost its value");
        }
        // Distinct values stay distinct: nothing is aliased or dropped.
        let mut vals: Vec<u64> =
            fields.iter().map(|(_, v)| if let Json::U(u) = v { *u } else { 0 }).collect();
        vals.sort_unstable();
        assert_eq!(vals, (1..=35).collect::<Vec<u64>>());
    }

    #[test]
    fn json_round_trip_preserves_every_counter() {
        let s = fully_populated();
        let text = s.to_json().render();
        let parsed = crate::json::Json::parse(&text).expect("to_json output parses");
        assert_eq!(Stats::from_json(&parsed), Ok(s));
    }

    #[test]
    fn from_json_rejects_malformed_input_without_panicking() {
        // Wrong shape entirely.
        let err = Stats::from_json(&Json::Null).unwrap_err();
        assert!(err.contains("assigns_safe"), "{err}");
        // One key missing.
        let mut fields = fully_populated().to_json().as_object().unwrap_or_default().to_vec();
        assert_eq!(fields.len(), 35);
        fields.retain(|(k, _)| k != "gc_cycles");
        let err = Stats::from_json(&Json::O(fields.clone())).unwrap_err();
        assert!(err.contains("gc_cycles"), "{err}");
        // One key mistyped.
        fields.push(("gc_cycles".to_string(), Json::s("thirty")));
        let err = Stats::from_json(&Json::O(fields)).unwrap_err();
        assert!(err.contains("gc_cycles"), "{err}");
    }

    #[test]
    fn summary_covers_every_counter_group_when_nonzero() {
        let text = format!("{}", fully_populated());
        for needle in [
            "11 objects",
            "12 words",
            "13 peak",
            "14 live",
            "15 created",
            "16 deleted",
            "17 deferred",
            "18 renumber",
            "1 safe",
            "2 checked",
            "3 counted",
            "4 local",
            "5 raw",
            "6 full",
            "7 early-exit",
            "20 local pins",
            "8 sameregion",
            "10 parentptr",
            "9 traditional",
            "19 words at delete",
            "21 allocs",
            "22 frees",
            "23 collections",
            "24 words marked",
            "25 objects swept",
            "26 cycles",
            "27 cycles",
            "28 cycles",
            "29 cycles",
            "30 cycles",
            "31 live-gauge underflows",
            "32 injected",
            "33 samples dropped",
            "34 spawned",
            "35 join points",
        ] {
            assert!(text.contains(needle), "summary missing {needle:?}:\n{text}");
        }
    }
}
