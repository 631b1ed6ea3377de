//! The runtime event stream.
//!
//! Every dynamic event the paper's evaluation is built on — region
//! creation/deletion, allocation, reference-count updates, annotation
//! checks, collections, audits, injected faults — is one typed [`Event`],
//! emitted once at its site and handed to every attached consumer:
//!
//! - the [`Tracer`]: a bounded ring of raw events plus the exact
//!   [`Profile`] fold — the one place raw events are kept;
//! - the [`SpanTree`]: region lifecycles with exact per-span aggregates;
//! - the [`CheckCounter`]: per-check-site outcome tallies, for the
//!   differential harness and the provenance join.
//!
//! The [`Stats`](crate::stats::Stats) counters answer *how many*; the
//! stream answers *which region*, *which allocation site*, and *which
//! check site*, which is what lifetime and locality tuning needs.
//!
//! Design constraints (see `docs/OBSERVABILITY.md`):
//!
//! - **Zero dependencies.** The ring buffer, the profile fold, and the
//!   JSONL encoder are all in-tree.
//! - **Pay only when observed.** The consumers share one slot on
//!   [`Heap`]; every emission site builds its event inside one guard on
//!   that slot (`Heap::emit`). With nothing attached — the default —
//!   the guard is one load and one branch, and the event (its clock read,
//!   its region lookup) is never built.
//! - **Bounded memory, exact totals.** Raw events live in a bounded ring:
//!   old events are overwritten, never reallocated. But every event is
//!   folded into the profile *at emission time*, so folded totals equal
//!   the `Stats` counters exactly no matter how small the ring is.
//!
//! Per-site attribution: events carry a `site`, the 1-based source line
//! of the RC program statement that caused them (0 = unattributed, e.g.
//! events from runtime-internal activity). The interpreter publishes the
//! current line via [`Heap::set_trace_site`] before entering the runtime.

use crate::checkcount::CheckCounter;
use crate::cost::Cycles;
use crate::fault::FaultPlane;
use crate::heap::Heap;
use crate::json::Json;
use crate::layout::PtrKind;
use crate::profile::Profile;
use crate::span::SpanTree;

/// One dynamic event, stamped with the virtual time `at` of its
/// emission. Region fields are raw [`RegionId`](crate::region::RegionId)
/// indices; `site` fields are 1-based source lines (0 = unattributed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A top-level region was created (child of the traditional region).
    RegionCreated {
        /// The new region.
        region: u32,
        /// Virtual time the creation began, before its cost was charged
        /// (where the region's span opens).
        born_at: Cycles,
        /// Virtual time after the creation charge.
        at: Cycles,
    },
    /// A subregion was created.
    SubregionCreated {
        /// The new region.
        region: u32,
        /// Its parent.
        parent: u32,
        /// Virtual time the creation began (see
        /// [`Event::RegionCreated`]).
        born_at: Cycles,
        /// Virtual time after the creation charge.
        at: Cycles,
    },
    /// A region was reclaimed.
    RegionDeleted {
        /// The reclaimed region.
        region: u32,
        /// Words of object storage freed by the reclamation.
        live_words: u64,
        /// Virtual time elapsed between creation and reclamation.
        lifetime_cycles: Cycles,
        /// Virtual time of reclamation.
        at: Cycles,
    },
    /// An object (or array) was allocated.
    Alloc {
        /// Owning region (the traditional region for malloc/GC objects).
        region: u32,
        /// Source line of the allocation (0 = unattributed).
        site: u32,
        /// Size in words.
        words: u32,
        /// Virtual time.
        at: Cycles,
    },
    /// A reference-count update ran.
    RcUpdate {
        /// Region of the object containing the updated slot.
        from: u32,
        /// Region of the newly stored pointer ([`NO_REGION`] for null).
        to: u32,
        /// Whether the counts actually changed (`false` = the Figure 3(a)
        /// early exit: old and new value were co-regional).
        full: bool,
        /// Source line of the store (0 = unattributed).
        site: u32,
        /// Virtual time.
        at: Cycles,
    },
    /// An annotation check ran.
    CheckRun {
        /// Which annotation was checked.
        kind: PtrKind,
        /// Region of the stored-into object.
        region: u32,
        /// Source line of the store (0 = unattributed).
        site: u32,
        /// Front-end check-site id for static↔dynamic attribution
        /// ([`NO_CHECK_SITE`](crate::checkcount::NO_CHECK_SITE) when the
        /// interpreter did not publish one).
        check_site: u32,
        /// Whether the check passed (a failed check aborts the program).
        passed: bool,
        /// Virtual time.
        at: Cycles,
    },
    /// A mark–sweep collection ran.
    GcCollection {
        /// Words examined by marking.
        marked_words: u64,
        /// Objects reclaimed by the sweep.
        swept_objects: u64,
        /// Virtual time after the collection's charge.
        at: Cycles,
    },
    /// The heap auditor ran.
    AuditRun {
        /// Whether the reference-count invariant held.
        ok: bool,
        /// Virtual time.
        at: Cycles,
    },
    /// A fault plane injected a failure.
    Fault {
        /// The plane that fired.
        plane: FaultPlane,
        /// 1-based operation ordinal on that plane.
        op: u64,
        /// Virtual time of injection.
        at: Cycles,
    },
}

/// Sentinel for "no region" in [`Event::RcUpdate::to`] (a null store).
pub const NO_REGION: u32 = u32::MAX;

impl Event {
    /// Encodes the event as one JSON object (one JSONL line). The keys
    /// predate the `at` stamps of most kinds and the span-only fields,
    /// which stay out of the encoding.
    pub fn to_json(&self) -> Json {
        match *self {
            Event::RegionCreated { region, at, .. } => Json::obj(vec![
                ("ev", Json::s("region_created")),
                ("region", Json::U(region as u64)),
                ("at", Json::U(at)),
            ]),
            Event::SubregionCreated { region, parent, at, .. } => Json::obj(vec![
                ("ev", Json::s("subregion_created")),
                ("region", Json::U(region as u64)),
                ("parent", Json::U(parent as u64)),
                ("at", Json::U(at)),
            ]),
            Event::RegionDeleted { region, live_words, lifetime_cycles, .. } => Json::obj(vec![
                ("ev", Json::s("region_deleted")),
                ("region", Json::U(region as u64)),
                ("live_words", Json::U(live_words)),
                ("lifetime_cycles", Json::U(lifetime_cycles)),
            ]),
            Event::Alloc { region, site, words, .. } => Json::obj(vec![
                ("ev", Json::s("alloc")),
                ("region", Json::U(region as u64)),
                ("site", Json::U(site as u64)),
                ("words", Json::U(words as u64)),
            ]),
            Event::RcUpdate { from, to, full, site, .. } => Json::obj(vec![
                ("ev", Json::s("rc_update")),
                ("from", Json::U(from as u64)),
                ("to", if to == NO_REGION { Json::Null } else { Json::U(to as u64) }),
                ("full", Json::Bool(full)),
                ("site", Json::U(site as u64)),
            ]),
            Event::CheckRun { kind, site, passed, .. } => Json::obj(vec![
                ("ev", Json::s("check")),
                ("kind", Json::s(check_kind_name(kind))),
                ("site", Json::U(site as u64)),
                ("passed", Json::Bool(passed)),
            ]),
            Event::GcCollection { marked_words, swept_objects, .. } => Json::obj(vec![
                ("ev", Json::s("gc")),
                ("marked_words", Json::U(marked_words)),
                ("swept_objects", Json::U(swept_objects)),
            ]),
            Event::AuditRun { ok, .. } => {
                Json::obj(vec![("ev", Json::s("audit")), ("ok", Json::Bool(ok))])
            }
            Event::Fault { plane, op, at } => Json::obj(vec![
                ("ev", Json::s("fault")),
                ("plane", Json::s(plane.name())),
                ("op", Json::U(op)),
                ("at", Json::U(at)),
            ]),
        }
    }
}

/// Stable lower-case name of a check kind for export.
pub fn check_kind_name(kind: PtrKind) -> &'static str {
    match kind {
        PtrKind::SameRegion => "sameregion",
        PtrKind::ParentPtr => "parentptr",
        PtrKind::Traditional => "traditional",
        PtrKind::Counted => "counted",
    }
}

/// The event recorder: a bounded ring of recent raw events plus an
/// always-exact online [`Profile`] fold. `Clone` exists so a task's
/// tracer can be preserved un-merged in a
/// [`TaskReport`](crate::shard::TaskReport) while the original is folded
/// into the global profile.
#[derive(Debug, Clone)]
pub struct Tracer {
    capacity: usize,
    ring: Vec<Event>,
    /// Next write position once the ring is full.
    head: usize,
    recorded: u64,
    dropped: u64,
    profile: Profile,
}

/// Default ring capacity (events) when none is given.
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

impl Tracer {
    /// A tracer keeping at most `capacity` raw events (clamped to at
    /// least 16).
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            capacity: capacity.max(16),
            ring: Vec::new(),
            head: 0,
            recorded: 0,
            dropped: 0,
            profile: Profile::new(),
        }
    }

    /// Records one event: folds it into the profile and appends it to the
    /// ring (overwriting the oldest event if full).
    pub fn record(&mut self, ev: Event) {
        self.profile.fold(&ev);
        self.recorded += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Total events recorded (including those since overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Raw events still in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        let (older, newer) = self.ring.split_at(self.head);
        newer.iter().chain(older.iter())
    }

    /// Number of raw events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The online profile fold over *all* recorded events.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Folds another tracer's exact profile into this one's, renumbering
    /// the other side's regions past `region_offset` first (shard →
    /// global roll-up, see [`crate::shard`]). The raw-event rings are
    /// not merged — recent events stay attributed to their own tracer —
    /// but the recorded/dropped totals sum so coverage accounting stays
    /// exact.
    pub fn absorb_profile(&mut self, other: &Tracer, region_offset: u32) {
        let mut p = other.profile.clone();
        p.offset_regions(region_offset);
        self.profile = self.profile.merge(&p);
        self.recorded += other.recorded;
        self.dropped += other.dropped;
    }

    /// Renders the retained raw events as JSONL, one event per line. When
    /// `tag` is non-empty each line carries a `"run"` field, letting
    /// several runs share one file.
    pub fn events_jsonl(&self, tag: &str) -> String {
        let mut out = String::new();
        for ev in self.events() {
            let mut j = ev.to_json();
            if !tag.is_empty() {
                if let Json::O(fields) = &mut j {
                    fields.insert(0, ("run".to_string(), Json::s(tag)));
                }
            }
            out.push_str(&j.render());
            out.push('\n');
        }
        out
    }
}

/// The consumers of the event stream: the one observer slot on [`Heap`].
/// The slot is empty whenever all three are detached, so the disabled
/// path stays one branch.
#[derive(Debug, Default)]
pub(crate) struct Observers {
    pub(crate) tracer: Option<Box<Tracer>>,
    pub(crate) spans: Option<Box<SpanTree>>,
    pub(crate) checks: Option<Box<CheckCounter>>,
}

impl Heap {
    /// The one guard every emission site pays: when a consumer is
    /// attached, builds the event and hands it to all of them. With none
    /// attached this is one load and one branch, and `ev` never runs.
    #[inline(always)]
    pub(crate) fn emit(&mut self, ev: impl FnOnce(&Heap) -> Event) {
        if self.observers.is_some() {
            let ev = ev(self);
            self.dispatch(ev);
        }
    }

    #[cold]
    #[inline(never)]
    fn dispatch(&mut self, ev: Event) {
        let Some(o) = self.observers.as_deref_mut() else { return };
        if let Some(t) = o.tracer.as_deref_mut() {
            t.record(ev);
        }
        if let Some(s) = o.spans.as_deref_mut() {
            s.fold(&ev);
        }
        if let (Some(c), Event::CheckRun { check_site, passed, .. }) = (o.checks.as_deref_mut(), ev)
        {
            c.record(check_site, passed);
        }
    }

    /// The observer slot, created on first attach.
    pub(crate) fn observers_mut(&mut self) -> &mut Observers {
        self.observers.get_or_insert_with(Default::default)
    }

    /// Detaches one consumer, emptying the slot when it was the last.
    pub(crate) fn detach<T>(
        &mut self,
        take: impl FnOnce(&mut Observers) -> Option<T>,
    ) -> Option<T> {
        let o = self.observers.as_deref_mut()?;
        let taken = take(o);
        if o.tracer.is_none() && o.spans.is_none() && o.checks.is_none() {
            self.observers = None;
        }
        taken
    }

    /// Starts recording every event into a fresh tracer keeping at most
    /// `capacity` raw events. Replaces any existing tracer.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.observers_mut().tracer = Some(Box::new(Tracer::new(capacity)));
    }

    /// Stops recording and detaches the tracer, returning it for report
    /// building. Returns `None` if tracing was never enabled.
    pub fn take_tracer(&mut self) -> Option<Box<Tracer>> {
        self.detach(|o| o.tracer.take())
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.observers.as_ref()?.tracer.as_deref()
    }

    /// Publishes the current source line (1-based; 0 = unattributed) for
    /// per-site attribution of subsequent alloc/check/rc-update events.
    /// The interpreter calls this before entering runtime operations.
    #[inline(always)]
    pub fn set_trace_site(&mut self, line: u32) {
        self.trace_site = line;
    }

    /// Records an [`Event::AuditRun`]. The auditor itself takes `&self`,
    /// so harnesses report its outcome through this separate call.
    pub fn record_audit_run(&mut self, ok: bool) {
        self.emit(|h| Event::AuditRun { ok, at: h.clock.cycles() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(site: u32) -> Event {
        Event::Alloc { region: 1, site, words: 1, at: 0 }
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let mut t = Tracer::new(16);
        for i in 0..40u32 {
            t.record(alloc(i));
        }
        assert_eq!(t.len(), 16);
        assert_eq!(t.recorded(), 40);
        assert_eq!(t.dropped(), 24);
        // Only Alloc events were recorded; anything else would shrink the
        // filtered list and fail the equality below — no panic required.
        let sites: Vec<u32> = t
            .events()
            .filter_map(|e| match e {
                Event::Alloc { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        assert_eq!(sites, (24..40).collect::<Vec<_>>(), "oldest-first, newest kept");
        // The fold saw every event even though the ring did not keep them.
        assert_eq!(t.profile().totals.allocs, 40);
    }

    #[test]
    fn jsonl_lines_are_tagged_and_one_per_event() {
        let mut t = Tracer::new(16);
        t.record(Event::RegionCreated { region: 1, born_at: 0, at: 5 });
        t.record(Event::AuditRun { ok: true, at: 5 });
        let jsonl = t.events_jsonl("figure1");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"run":"figure1","ev":"region_created""#));
        assert!(lines[1].contains(r#""ev":"audit""#));
    }

    #[test]
    fn null_target_serializes_as_null() {
        let ev = Event::RcUpdate { from: 2, to: NO_REGION, full: true, site: 7, at: 0 };
        assert!(ev.to_json().render().contains(r#""to":null"#));
    }

    #[test]
    fn events_stay_small_and_copy() {
        fn is_copy<T: Copy>() {}
        is_copy::<Event>();
        assert!(std::mem::size_of::<Event>() <= 40, "{}", std::mem::size_of::<Event>());
    }

    #[test]
    fn the_slot_empties_with_its_last_consumer() {
        let mut h = Heap::with_defaults();
        assert!(h.observers.is_none());
        h.enable_tracing(16);
        h.enable_check_counting();
        assert!(h.take_tracer().is_some());
        assert!(h.observers.is_some(), "the counter is still attached");
        assert!(h.take_check_counter().is_some());
        assert!(h.observers.is_none(), "nothing observes: one branch per site again");
        assert!(h.take_tracer().is_none());
    }
}
