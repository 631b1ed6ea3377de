//! Per-task heap shards and typed region handoff.
//!
//! The paper's RC runtime is single-threaded; this module is the runtime
//! half of the reproduction's parallel extension (`spawn r { ... }` /
//! `join` in rc-lang). The design follows the Spegion line of work:
//! parallelism is introduced *at region granularity*, and a region is
//! exclusively owned by exactly one worker at any time. Ownership moves
//! via a typed [`Handoff`] at `spawn` and returns at `join`.
//!
//! Concretely, each spawned task runs against its own isolated [`Heap`]
//! — a *shard*. The front end (rc-lang's `sema`) guarantees a spawned
//! body can only reach the region subtree that was handed to it and
//! plain integer copies, so no address ever crosses a shard boundary and
//! shards need no cross-heap barriers: every Figure 3 write barrier runs
//! against the task's own heap exactly as in a sequential execution.
//! The handed-off subtree is materialised in the child shard as a fresh
//! *facet* region ([`Facet`]); on the parent side the moved descriptors
//! answer every touch with [`RtError::RegionMoved`](crate::RtError)
//! until the join, so a schedule can never leak access — the abort is
//! identical under the inline, deterministic, and real-thread
//! schedulers.
//!
//! After a task finishes, its shard is handed back whole (heap plus the
//! telemetry the task accumulated) and the interpreter folds it into the
//! global report with the exact `merge` operations on
//! [`Stats`], [`Profile`](crate::Profile),
//! [`SpanTree`], [`Timeline`] and
//! [`CheckCounter`](crate::CheckCounter) — all associativity-tested, so
//! the merged report is byte-deterministic in join order regardless of
//! the schedule that ran the tasks.

use crate::audit::AuditError;
use crate::emu::{EmuRegionId, EmuRegions};
use crate::heap::Heap;
use crate::json::Json;
use crate::region::RegionId;
use crate::span::SpanTree;
use crate::stats::Stats;
use crate::timeline::Timeline;
use crate::trace::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies one heap shard. Shard 0 is the root (the main task's
/// heap); spawned tasks get ids in spawn order, which is deterministic
/// because `spawn` is a program point, not a scheduler decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The main task's shard.
    pub const ROOT: ShardId = ShardId(0);
}

/// The typed ownership-transfer message a `spawn` sends: region
/// `region` (with its whole subtree) moves from shard `from` to shard
/// `to`. `seq` is the global spawn ordinal — it orders joins'
/// telemetry merges so the global report does not depend on thread
/// timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handoff {
    /// Global spawn ordinal (0-based, program order).
    pub seq: u64,
    /// The shard giving the region up (the spawning task).
    pub from: ShardId,
    /// The shard receiving it (the spawned task).
    pub to: ShardId,
    /// The moved region, in the *parent's* id space; the child sees it
    /// as its [`Facet`].
    pub region: RegionId,
}

impl Handoff {
    /// Report encoding, field order fixed for byte-determinism.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::U(self.seq)),
            ("from", Json::U(self.from.0 as u64)),
            ("to", Json::U(self.to.0 as u64)),
            ("region", Json::U(self.region.0 as u64)),
        ])
    }
}

/// How the handed-off region appears inside the child shard: a real
/// region on the region backends, or an emulated one on the malloc/gc
/// baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Facet {
    /// Fresh region in the child heap's region hierarchy.
    Real(RegionId),
    /// Fresh emulated region in the child's [`EmuRegions`] table.
    Emu(EmuRegionId),
}

/// A typed scheduler event, stamped by the interpreter at the scheduling
/// decision points of one task. Structural kinds ([`SchedEventKind::is_structural`])
/// describe the spawn/join tree and are always retained; slice kinds
/// (baton and semaphore traffic) are volume-bounded by the recorder's cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEventKind {
    /// The task began executing (baton turn / permit acquired).
    TaskStart,
    /// The task finished (final event; `local` equals the task's cycles).
    TaskEnd,
    /// The task executed its `nth` `spawn` statement (0-based, per task).
    /// The spawned child is the `nth` handoff whose `from` is this task,
    /// in `Handoff::seq` order.
    Spawn {
        /// Per-task spawn ordinal.
        nth: u32,
    },
    /// Deterministic scheduler: regained the baton for a slice of
    /// `slice` interpreter steps.
    BatonAcquire {
        /// Steps granted by the slice stream.
        slice: u64,
    },
    /// Deterministic scheduler: slice expired after `ran` steps; the
    /// baton passed on.
    BatonRelease {
        /// Steps actually run in the expired slice.
        ran: u64,
    },
    /// Thread scheduler: admitted by the semaphore.
    SemaAdmit,
    /// Thread scheduler: about to give the permit up (blocking).
    SemaBlock,
    /// Entered a `join` with `pending` outstanding children.
    JoinWaitBegin {
        /// Children not yet joined at this point.
        pending: u32,
    },
    /// All children joined; the task runs again.
    JoinWaitEnd,
}

impl SchedEventKind {
    /// Stable lowercase name, used by the JSON encodings.
    pub fn name(self) -> &'static str {
        match self {
            SchedEventKind::TaskStart => "task_start",
            SchedEventKind::TaskEnd => "task_end",
            SchedEventKind::Spawn { .. } => "spawn",
            SchedEventKind::BatonAcquire { .. } => "baton_acquire",
            SchedEventKind::BatonRelease { .. } => "baton_release",
            SchedEventKind::SemaAdmit => "sema_admit",
            SchedEventKind::SemaBlock => "sema_block",
            SchedEventKind::JoinWaitBegin { .. } => "join_wait_begin",
            SchedEventKind::JoinWaitEnd => "join_wait_end",
        }
    }

    /// The numeric payload (0 for kinds without one).
    pub fn arg(self) -> u64 {
        match self {
            SchedEventKind::Spawn { nth } => nth as u64,
            SchedEventKind::BatonAcquire { slice } => slice,
            SchedEventKind::BatonRelease { ran } => ran,
            SchedEventKind::JoinWaitBegin { pending } => pending as u64,
            _ => 0,
        }
    }

    /// Whether the event describes the spawn/join tree (always retained)
    /// rather than scheduler slice traffic (cap-bounded).
    pub fn is_structural(self) -> bool {
        matches!(
            self,
            SchedEventKind::TaskStart
                | SchedEventKind::TaskEnd
                | SchedEventKind::Spawn { .. }
                | SchedEventKind::JoinWaitBegin { .. }
                | SchedEventKind::JoinWaitEnd
        )
    }
}

/// One stamped scheduler event: `at` on the shared virtual clock (the
/// global interleaving position), `local` on the task's own heap clock
/// (charged cycles the task had executed when the event fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// Shared-virtual-clock stamp (see [`SharedClock`]).
    pub at: u64,
    /// The task's own charged cycles at the stamp.
    pub local: u64,
    /// What happened.
    pub kind: SchedEventKind,
}

impl SchedEvent {
    /// Report encoding, field order fixed for byte-determinism.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("at", Json::U(self.at)),
            ("local", Json::U(self.local)),
            ("kind", Json::s(self.kind.name())),
            ("arg", Json::U(self.kind.arg())),
        ])
    }
}

/// The run-global virtual clock scheduler events are stamped on: a
/// shared counter every task advances by its own charged-cycle delta at
/// each stamp. Under the inline and deterministic schedulers the
/// interpreter's driver loop runs one task at a time, round-robin on one
/// thread, so the stamps totally order the run and the final value
/// equals total work (Σ per-task cycles) — deterministically, per seed.
/// Under real threads stamps are coherent and monotone per task but
/// interleaving-dependent.
#[derive(Debug, Clone, Default)]
pub struct SharedClock(Arc<AtomicU64>);

impl SharedClock {
    /// A fresh clock at 0.
    pub fn new() -> SharedClock {
        SharedClock::default()
    }

    /// Advances by `delta` charged cycles; returns the new reading.
    pub fn advance(&self, delta: u64) -> u64 {
        self.0.fetch_add(delta, Ordering::SeqCst) + delta
    }

    /// The current reading.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Slice events retained per task before the recorder starts counting
/// drops instead (structural events are never dropped; the aggregate
/// counters stay exact either way).
pub const SCHED_EVENT_CAP: usize = 4096;

/// One task's finished scheduler log: the retained event stream plus
/// exact online aggregates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedLog {
    /// Retained events in stamp order (structural always; slice events
    /// up to the recorder's cap).
    pub events: Vec<SchedEvent>,
    /// Slice events dropped once the cap was hit.
    pub dropped: u64,
    /// `spawn` statements this task executed.
    pub spawns: u64,
    /// Baton slices granted (equals `baton_releases`: acquire/release
    /// are stamped pairwise at slice expiry).
    pub baton_acquires: u64,
    /// Baton slices expired.
    pub baton_releases: u64,
    /// Semaphore admissions (thread scheduler).
    pub sema_admits: u64,
    /// Semaphore releases ahead of blocking (thread scheduler).
    pub sema_blocks: u64,
    /// `join` points with outstanding children.
    pub join_waits: u64,
    /// Shared-clock reading when the task was spawned (0 for the root).
    pub born_at: u64,
    /// Shared-clock stamp of [`SchedEventKind::TaskStart`].
    pub started_at: u64,
    /// Shared-clock stamp of [`SchedEventKind::TaskEnd`].
    pub ended_at: u64,
    /// Shared-clock time spent not running: waiting to start, blocked in
    /// `join`, or parked between baton slices / semaphore permits.
    pub blocked_cycles: u64,
}

impl SchedLog {
    /// Event-pairing well-formedness: exactly one start and end, every
    /// `join_wait_begin` matched by a `join_wait_end`, baton acquires
    /// equal to releases, and the retained structural events agreeing
    /// with the aggregate counters.
    pub fn balanced(&self) -> bool {
        let count =
            |want: &str| self.events.iter().filter(|e| e.kind.name() == want).count() as u64;
        count("task_start") == 1
            && count("task_end") == 1
            && count("spawn") == self.spawns
            && count("join_wait_begin") == self.join_waits
            && count("join_wait_end") == self.join_waits
            && self.baton_acquires == self.baton_releases
    }

    /// Report encoding: aggregates first, then the event stream. Field
    /// order fixed for byte-determinism.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("spawns", Json::U(self.spawns)),
            ("baton_acquires", Json::U(self.baton_acquires)),
            ("baton_releases", Json::U(self.baton_releases)),
            ("sema_admits", Json::U(self.sema_admits)),
            ("sema_blocks", Json::U(self.sema_blocks)),
            ("join_waits", Json::U(self.join_waits)),
            ("born_at", Json::U(self.born_at)),
            ("started_at", Json::U(self.started_at)),
            ("ended_at", Json::U(self.ended_at)),
            ("blocked_cycles", Json::U(self.blocked_cycles)),
            ("dropped", Json::U(self.dropped)),
            ("events", Json::A(self.events.iter().map(SchedEvent::to_json).collect())),
        ])
    }
}

/// The per-task stamping side of [`SchedLog`]: owned by the interpreter
/// of one task, advances the [`SharedClock`] by the task's charged-cycle
/// delta at every stamp, and maintains the aggregates online.
#[derive(Debug)]
pub struct SchedRecorder {
    clock: SharedClock,
    last_local: u64,
    wait_from: Option<u64>,
    cap: usize,
    log: SchedLog,
}

impl SchedRecorder {
    /// The root task's recorder on a fresh shared clock.
    pub fn root() -> SchedRecorder {
        SchedRecorder::on(SharedClock::new())
    }

    /// A recorder on an existing clock, born now.
    pub fn on(clock: SharedClock) -> SchedRecorder {
        let born = clock.now();
        SchedRecorder {
            clock,
            last_local: 0,
            wait_from: Some(born),
            cap: SCHED_EVENT_CAP,
            log: SchedLog { born_at: born, ..SchedLog::default() },
        }
    }

    /// A child task's recorder: same clock, born at the parent's spawn
    /// stamp. Time from here to the child's `task_start` counts as
    /// blocked (waiting to be scheduled).
    pub fn child(&self) -> SchedRecorder {
        SchedRecorder::on(self.clock.clone())
    }

    /// The shared clock (for tests and derived recorders).
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// `spawn` statements stamped so far (the next spawn's ordinal).
    pub fn spawns(&self) -> u64 {
        self.log.spawns
    }

    /// Stamps one event: advances the shared clock by this task's
    /// charged-cycle delta since its previous stamp (`local` is the
    /// task's current heap-clock reading) and updates the aggregates.
    /// Returns the shared-clock stamp.
    pub fn stamp(&mut self, local: u64, kind: SchedEventKind) -> u64 {
        let delta = local.saturating_sub(self.last_local);
        self.last_local = local.max(self.last_local);
        let at = self.clock.advance(delta);
        match kind {
            SchedEventKind::TaskStart => {
                self.log.started_at = at;
                if let Some(w) = self.wait_from.take() {
                    self.log.blocked_cycles += at.saturating_sub(w);
                }
            }
            SchedEventKind::TaskEnd => self.log.ended_at = at,
            SchedEventKind::Spawn { .. } => self.log.spawns += 1,
            SchedEventKind::BatonAcquire { .. } => {
                self.log.baton_acquires += 1;
                if let Some(w) = self.wait_from.take() {
                    self.log.blocked_cycles += at.saturating_sub(w);
                }
            }
            SchedEventKind::BatonRelease { .. } => {
                self.log.baton_releases += 1;
                self.wait_from = Some(at);
            }
            SchedEventKind::SemaAdmit => {
                self.log.sema_admits += 1;
                if let Some(w) = self.wait_from.take() {
                    self.log.blocked_cycles += at.saturating_sub(w);
                }
            }
            SchedEventKind::SemaBlock => {
                self.log.sema_blocks += 1;
                self.wait_from = Some(at);
            }
            SchedEventKind::JoinWaitBegin { .. } => {
                self.log.join_waits += 1;
                self.wait_from = Some(at);
            }
            SchedEventKind::JoinWaitEnd => {
                if let Some(w) = self.wait_from.take() {
                    self.log.blocked_cycles += at.saturating_sub(w);
                }
            }
        }
        if kind.is_structural() || self.log.events.len() < self.cap {
            self.log.events.push(SchedEvent { at, local, kind });
        } else {
            self.log.dropped += 1;
        }
        at
    }

    /// Seals the log: stamps [`SchedEventKind::TaskEnd`] at the task's
    /// final cycle count and hands the log over.
    pub fn finish(mut self, local: u64) -> SchedLog {
        self.stamp(local, SchedEventKind::TaskEnd);
        self.log
    }
}

/// One task's un-merged observability facet, preserved alongside the
/// merged report when a program spawned: identity (spawn-tree position
/// and source site), work (cycles/steps/[`Stats`]), the scheduler log,
/// and — when sampling was on — the task's own timeline. The merged view
/// is exactly the in-order fold of these (asserted by the fuzz oracle and
/// the critpath property tests). Tracing has no per-task facet: each
/// task's profile folds into the run's one tracer, whose raw events are
/// the root task's.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// The task's shard id ([`ShardId::ROOT`] for the main task).
    pub id: ShardId,
    /// The spawning task ([`ShardId::ROOT`] for the root itself).
    pub parent: ShardId,
    /// Global spawn ordinal (`Handoff::seq`; 0 for the root).
    pub seq: u64,
    /// The moved region in the parent's id space (0 for the root).
    pub region: RegionId,
    /// Source line of the `spawn` statement (0 for the root).
    pub spawn_site: u32,
    /// Charged cycles the task executed.
    pub cycles: u64,
    /// Interpreter steps the task executed.
    pub steps: u64,
    /// The task's own operation counters.
    pub stats: Stats,
    /// The task's scheduler log.
    pub sched: SchedLog,
    /// The task's timeline, if sampling was on.
    pub timeline: Option<Box<Timeline>>,
}

impl TaskReport {
    /// Whether this is the main task's report.
    pub fn is_root(&self) -> bool {
        self.id == ShardId::ROOT
    }

    /// Report encoding: identity, work, and the scheduler log. The
    /// timeline and trace ring travel through their own exporters (JSONL
    /// / Perfetto), not this object. Field order fixed for
    /// byte-determinism.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("task", Json::U(self.id.0 as u64)),
            ("parent", Json::U(self.parent.0 as u64)),
            ("seq", Json::U(self.seq)),
            ("region", Json::U(self.region.0 as u64)),
            ("spawn_site", Json::U(self.spawn_site as u64)),
            ("cycles", Json::U(self.cycles)),
            ("steps", Json::U(self.steps)),
            ("stats", self.stats.to_json()),
            ("sched", self.sched.to_json()),
        ])
    }
}

/// A finished task's shard, handed back to the joining parent: the
/// task's whole heap plus the telemetry it accumulated. The parent
/// folds these into the global report in `Handoff::seq` order.
#[derive(Debug)]
pub struct Shard {
    /// This shard's id.
    pub id: ShardId,
    /// The grant that created it.
    pub handoff: Handoff,
    /// The task's isolated heap (boxed: a `Heap` is large and the shard
    /// crosses a thread boundary).
    pub heap: Box<Heap>,
    /// Emulated-region table, on the malloc/gc baselines.
    pub emu: Option<EmuRegions>,
    /// The moved region as the child saw it.
    pub facet: Facet,
    /// Whether the task deleted its facet (then the parent deletes the
    /// original region at join instead of reclaiming it).
    pub facet_dead: bool,
    /// The task's span tree, if span recording was on.
    pub spans: Option<Box<SpanTree>>,
    /// The task's event ring + profile, if tracing was on.
    pub tracer: Option<Box<Tracer>>,
    /// The task's timeline, if sampling was on.
    pub timeline: Option<Box<Timeline>>,
    /// Virtual steps the task executed (its contribution to the global
    /// step count).
    pub steps: u64,
    /// The task's sealed scheduler log.
    pub sched: SchedLog,
    /// Source line of the `spawn` statement that created the task.
    pub spawn_site: u32,
}

impl Shard {
    /// Audits this shard's heap (the same invariant check a sequential
    /// run gets; isolation means each shard must be independently
    /// clean).
    pub fn audit(&self) -> Result<(), AuditError> {
        self.heap.audit()
    }
}

/// Audits the parent heap and every shard; the post-join cleanliness
/// gate. The parent reports as [`ShardId::ROOT`].
pub fn audit_all<'a>(
    parent: &Heap,
    shards: impl IntoIterator<Item = &'a Shard>,
) -> Result<(), (ShardId, AuditError)> {
    parent.audit().map_err(|e| (ShardId::ROOT, e))?;
    for s in shards {
        s.audit().map_err(|e| (s.id, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{PtrKind, SlotKind, TypeLayout};
    use crate::rcops::WriteMode;

    fn shard_with_list(id: u32, corrupt: bool) -> Shard {
        let mut heap = Box::new(Heap::with_defaults());
        let ty = heap.register_type(TypeLayout::new(
            "node",
            vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data],
        ));
        let facet = heap.new_region();
        let other = heap.new_region();
        let a = heap.ralloc(facet, ty).unwrap();
        let b = heap.ralloc(facet, ty).unwrap();
        heap.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
        if corrupt {
            // Cross-region store without its barrier: the audit must
            // catch the missing count.
            let c = heap.ralloc(other, ty).unwrap();
            heap.write_ptr(a, 0, c, WriteMode::Raw).unwrap();
        }
        Shard {
            id: ShardId(id),
            handoff: Handoff {
                seq: (id - 1) as u64,
                from: ShardId::ROOT,
                to: ShardId(id),
                region: RegionId(7),
            },
            heap,
            emu: None,
            facet: Facet::Real(facet),
            facet_dead: false,
            spans: None,
            tracer: None,
            timeline: None,
            steps: 3,
            sched: SchedLog::default(),
            spawn_site: 0,
        }
    }

    #[test]
    fn audit_all_passes_on_clean_parent_and_shards() {
        let parent = Heap::with_defaults();
        let shards = vec![shard_with_list(1, false), shard_with_list(2, false)];
        audit_all(&parent, &shards).unwrap();
    }

    #[test]
    fn audit_all_attributes_failures_to_the_shard() {
        let parent = Heap::with_defaults();
        let shards = vec![shard_with_list(1, false), shard_with_list(2, true)];
        let (id, _err) = audit_all(&parent, &shards).unwrap_err();
        assert_eq!(id, ShardId(2));
    }

    #[test]
    fn recorder_advances_shared_clock_by_local_deltas() {
        let mut root = SchedRecorder::root();
        let child = root.child();
        assert_eq!(root.stamp(0, SchedEventKind::TaskStart), 0);
        assert_eq!(root.stamp(10, SchedEventKind::Spawn { nth: 0 }), 10);
        // The child's stamps advance the same clock by its own deltas.
        let mut child = child;
        assert_eq!(child.stamp(0, SchedEventKind::TaskStart), 10);
        assert_eq!(child.stamp(7, SchedEventKind::TaskEnd), 17);
        // The root resumes from its own local 10: +5 cycles.
        assert_eq!(root.stamp(15, SchedEventKind::JoinWaitBegin { pending: 1 }), 22);
        let log = root.finish(15);
        // Final clock = total work stamped (10 + 7 + 5).
        assert_eq!(log.ended_at, 22);
        assert_eq!(log.spawns, 1);
        assert_eq!(log.join_waits, 1);
    }

    #[test]
    fn recorder_attributes_blocked_time() {
        let mut root = SchedRecorder::root();
        root.stamp(0, SchedEventKind::TaskStart);
        root.stamp(4, SchedEventKind::JoinWaitBegin { pending: 2 });
        let child = root.child();
        let mut child = child;
        child.stamp(0, SchedEventKind::TaskStart);
        // Child born at shared 4; it waits 0 (starts immediately), runs 9.
        child.stamp(9, SchedEventKind::TaskEnd);
        root.stamp(4, SchedEventKind::JoinWaitEnd);
        let log = root.finish(6);
        // Root was blocked from shared 4 to shared 13 while the child ran.
        assert_eq!(log.blocked_cycles, 9);
        assert_eq!(log.ended_at, 15);
    }

    #[test]
    fn log_balance_checks_event_pairing() {
        let mut r = SchedRecorder::root();
        r.stamp(0, SchedEventKind::TaskStart);
        r.stamp(1, SchedEventKind::Spawn { nth: 0 });
        r.stamp(2, SchedEventKind::BatonRelease { ran: 2 });
        r.stamp(2, SchedEventKind::BatonAcquire { slice: 8 });
        r.stamp(3, SchedEventKind::JoinWaitBegin { pending: 1 });
        r.stamp(3, SchedEventKind::JoinWaitEnd);
        let log = r.finish(4);
        assert!(log.balanced(), "{log:?}");
        let mut broken = log.clone();
        broken.events.retain(|e| e.kind != SchedEventKind::JoinWaitEnd);
        assert!(!broken.balanced());
    }

    #[test]
    fn recorder_caps_slice_events_but_keeps_structural() {
        let mut r = SchedRecorder::root();
        r.cap = 4;
        r.stamp(0, SchedEventKind::TaskStart);
        for i in 0..10 {
            r.stamp(i, SchedEventKind::BatonRelease { ran: 1 });
            r.stamp(i, SchedEventKind::BatonAcquire { slice: 1 });
        }
        r.stamp(11, SchedEventKind::JoinWaitBegin { pending: 1 });
        r.stamp(11, SchedEventKind::JoinWaitEnd);
        let log = r.finish(12);
        assert_eq!(log.dropped, 17, "slice events beyond the cap are counted");
        assert_eq!(log.baton_acquires, 10, "aggregates stay exact");
        assert_eq!(log.baton_releases, 10);
        for want in ["task_start", "task_end", "join_wait_begin", "join_wait_end"] {
            assert!(
                log.events.iter().any(|e| e.kind.name() == want),
                "structural {want} survived the cap"
            );
        }
    }

    #[test]
    fn sched_event_json_is_stable() {
        let e = SchedEvent { at: 42, local: 17, kind: SchedEventKind::BatonAcquire { slice: 8 } };
        assert_eq!(e.to_json().render(), r#"{"at":42,"local":17,"kind":"baton_acquire","arg":8}"#);
    }

    #[test]
    fn handoff_json_is_stable() {
        let h = Handoff { seq: 4, from: ShardId::ROOT, to: ShardId(3), region: RegionId(9) };
        assert_eq!(h.to_json().render(), r#"{"seq":4,"from":0,"to":3,"region":9}"#);
    }
}
