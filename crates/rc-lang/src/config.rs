//! Execution configurations: the compiler/allocator matrix of the paper's
//! evaluation.
//!
//! Figure 7 compares five configurations per benchmark — C@ (the authors'
//! previous region compiler), "lea" (malloc/free), "GC" (Boehm–Weiser),
//! "norc" (RC with reference counting disabled) and "RC" — and Figure 8
//! compares four check regimes under RC: `nq` (annotations ignored), `qs`
//! (annotations checked at runtime), `inf` (provably-safe checks removed)
//! and `nc` (all checks unsafely removed).

use region_rt::{CostModel, FaultPlan, NumberingScheme};

/// What the interpreter does when the runtime reports a fault (injected or
/// organic): abort immediately, or trap it — unwind the region stack,
/// release everything except the traditional region, and report a typed
/// [`crate::interp::Outcome::Trapped`] with the heap left audit-clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnFault {
    /// Stop at the fault and report [`crate::interp::Outcome::Aborted`]
    /// (the historical behaviour, and the paper's: region failures abort).
    #[default]
    Abort,
    /// Trap the fault: tear down the program's regions, null counted
    /// pointers, and report [`crate::interp::Outcome::Trapped`]. The heap
    /// stays usable and audit-clean afterwards.
    TrapAndUnwind,
}

/// What `deleteregion` does when references remain — the paper's three
/// memory-safety options (§3): abort the program, return a failure code,
/// or defer the deletion until the count drops to zero (GC-like).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeleteSemantics {
    /// Abort the program (the paper's chosen default).
    #[default]
    Abort,
    /// `deleteregion` evaluates to 1 on failure, 0 on success, and the
    /// program continues.
    Fail,
    /// Doom the region; reclaim when the last reference disappears.
    Deferred,
}

/// How annotated pointer stores are treated (Figure 8's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// "nq": the annotations are ignored — every pointer store maintains
    /// reference counts.
    Nq,
    /// "qs": the annotations are used and checked at runtime.
    Qs,
    /// "inf": the constraint inference removed provably-safe checks.
    Inf,
    /// "nc": all runtime checks are (unsafely) removed — the lower bound
    /// on what inference could achieve.
    Nc,
}

/// How `spawn`ed tasks are scheduled (see [`crate::parallel`] and
/// `region_rt::shard`). Because every task runs against its own isolated
/// heap shard and sema forbids any data from crossing the task boundary
/// except the handed-off region and int copies, all three modes produce
/// byte-identical merged telemetry — the modes differ only in *when*
/// bodies execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Execute each task body synchronously at its `spawn` point (the
    /// conformance baseline; no threads).
    #[default]
    Inline,
    /// The interpreter's driver loop runs the tasks round-robin on the
    /// caller's thread, one at a time, each preempted at step granularity
    /// with slice lengths drawn from a per-task SplitMix64 stream seeded
    /// here. Different seeds explore different interleavings; every run
    /// with the same seed replays the same schedule.
    Deterministic {
        /// Root of the per-task slice-length streams.
        seed: u64,
    },
    /// Real `std::thread` pool: at most `workers` tasks (including the
    /// spawning parent) execute concurrently, admission-controlled by a
    /// counting semaphore. Non-deterministic timing, deterministic
    /// results.
    Threads {
        /// Concurrency cap (clamped to at least 1).
        workers: u32,
    },
}

/// Which allocator/runtime backs the execution (Figure 7's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// RC with reference counting enabled.
    Rc,
    /// RC with reference counting disabled ("norc"): fast but unsafe.
    NoRc,
    /// C@, the authors' previous system: no annotations, stack scanning at
    /// `deleteregion`, slower base compiler (lcc vs gcc).
    CAt,
    /// "lea": malloc/free with the region-emulation library.
    Lea,
    /// "GC": the conservative collector with the region-emulation library
    /// (deleteregion drops the object list; the collector reclaims).
    Gc,
}

/// A complete run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The allocator/runtime.
    pub backend: Backend,
    /// The check regime (only meaningful for [`Backend::Rc`]).
    pub checks: CheckMode,
    /// Interpreter step budget (0 = unlimited); exceeded → the run stops
    /// with [`crate::interp::Outcome::StepLimit`].
    pub step_limit: u64,
    /// GC heap-growth threshold in words.
    pub gc_threshold_words: u64,
    /// Cost constants.
    pub costs: CostModel,
    /// `deleteregion` failure semantics.
    pub delete_semantics: DeleteSemantics,
    /// Hierarchy numbering scheme (ablation knob).
    pub numbering: NumberingScheme,
    /// Record every runtime event into a [`region_rt::Tracer`] (ring
    /// plus folded profile). Off by default: with no event consumer
    /// attached, each instrumented operation pays one predictable branch.
    pub trace: bool,
    /// Capacity of the telemetry ring buffer (recent raw events kept;
    /// folded profile totals stay exact regardless).
    pub trace_capacity: usize,
    /// Timeline sampling interval in runtime events (interpreter steps and
    /// runtime operations); 0 = sampling off, which costs a single
    /// predictable branch per instrumented operation.
    pub sample_interval: u64,
    /// Maximum retained timeline samples before decimation.
    pub sample_cap: usize,
    /// Page budget handed to the heap (0 = unlimited): the torture
    /// harness sweeps this to provoke organic out-of-memory conditions.
    pub page_budget: usize,
    /// Deterministic fault-injection plan (empty = no injection, which
    /// costs one predictable branch per instrumented operation).
    pub faults: FaultPlan,
    /// What to do when the runtime faults.
    pub on_fault: OnFault,
    /// Per-site check counting (differential-harness measurement mode,
    /// [`Backend::Rc`] only): every annotated store evaluates its
    /// annotation predicate and tallies the outcome per check site, then
    /// performs the full reference-count update instead of aborting —
    /// observationally identical to [`CheckMode::Nq`]. The tallies come
    /// back in [`crate::interp::RunResult::check_counts`].
    pub count_checks: bool,
    /// Region lifecycle spans ([`region_rt::span`]): model every
    /// `newregion`…`deleteregion` interval as a span with exact
    /// alloc/RC/check aggregates, verified against the heap's region
    /// tree at run end and returned in
    /// [`crate::interp::RunResult::spans`]. Also tallies checks per site
    /// into [`crate::interp::RunResult::check_counts`], without changing
    /// how stores are checked (that stays [`RunConfig::count_checks`]'s
    /// job). Off by default (one predictable branch per instrumented
    /// operation).
    pub spans: bool,
    /// How `spawn`ed tasks are scheduled; merged results are identical
    /// across all modes (isolation makes the schedule unobservable).
    pub sched: SchedMode,
    /// Post-mortem heap snapshots ([`region_rt::snapshot`]): capture a
    /// byte-deterministic [`region_rt::HeapSnapshot`] at program exit,
    /// after every GC pause, and — on a trapped fault — of the pre-unwind
    /// heap, returned in [`crate::interp::RunResult::snapshots`]. Off by
    /// default; enabling it also publishes allocation sites so snapshots
    /// can attribute retained words to source lines.
    pub snapshots: bool,
}

impl RunConfig {
    fn base(backend: Backend, checks: CheckMode) -> RunConfig {
        RunConfig {
            backend,
            checks,
            step_limit: 500_000_000,
            gc_threshold_words: 4 * 1024,
            costs: CostModel::paper(),
            delete_semantics: DeleteSemantics::Abort,
            numbering: NumberingScheme::RenumberOnCreate,
            trace: false,
            trace_capacity: region_rt::DEFAULT_RING_CAPACITY,
            sample_interval: 0,
            sample_cap: region_rt::DEFAULT_TIMELINE_CAP,
            page_budget: 0,
            faults: FaultPlan::new(),
            on_fault: OnFault::Abort,
            count_checks: false,
            spans: false,
            sched: SchedMode::Inline,
            snapshots: false,
        }
    }

    /// The same configuration with a chosen task scheduler.
    pub fn with_sched(mut self, sched: SchedMode) -> RunConfig {
        self.sched = sched;
        self
    }

    /// The same configuration under the deterministic (seeded
    /// round-robin) scheduler.
    pub fn det_sched(self, seed: u64) -> RunConfig {
        self.with_sched(SchedMode::Deterministic { seed })
    }

    /// The same configuration under the real-thread scheduler with a
    /// concurrency cap.
    pub fn threaded(self, workers: u32) -> RunConfig {
        self.with_sched(SchedMode::Threads { workers })
    }

    /// The same configuration with region lifecycle spans enabled.
    pub fn with_spans(mut self) -> RunConfig {
        self.spans = true;
        self
    }

    /// The same configuration with post-mortem heap snapshots enabled.
    pub fn with_snapshots(mut self) -> RunConfig {
        self.snapshots = true;
        self
    }

    /// The same configuration with per-site check counting enabled.
    pub fn counting_checks(mut self) -> RunConfig {
        self.count_checks = true;
        self
    }

    /// The same configuration with [`OnFault::TrapAndUnwind`] recovery.
    pub fn trapping(mut self) -> RunConfig {
        self.on_fault = OnFault::TrapAndUnwind;
        self
    }

    /// The same configuration with a fault-injection plan installed.
    pub fn with_faults(mut self, plan: FaultPlan) -> RunConfig {
        self.faults = plan;
        self
    }

    /// The same configuration with a heap page budget (0 = unlimited).
    pub fn with_page_budget(mut self, pages: usize) -> RunConfig {
        self.page_budget = pages;
        self
    }

    /// The same configuration with event tracing enabled.
    pub fn traced(mut self) -> RunConfig {
        self.trace = true;
        self
    }

    /// The same configuration with timeline sampling enabled at the
    /// default interval.
    pub fn sampled(self) -> RunConfig {
        self.with_sampling(region_rt::DEFAULT_SAMPLE_INTERVAL, region_rt::DEFAULT_TIMELINE_CAP)
    }

    /// The same configuration with timeline sampling at a chosen interval
    /// (in runtime events) and sample cap.
    pub fn with_sampling(mut self, interval: u64, cap: usize) -> RunConfig {
        self.sample_interval = interval;
        self.sample_cap = cap;
        self
    }

    /// RC with the given check regime.
    pub fn rc(checks: CheckMode) -> RunConfig {
        RunConfig::base(Backend::Rc, checks)
    }

    /// The paper's headline "RC" configuration (annotations + inference).
    pub fn rc_inf() -> RunConfig {
        RunConfig::rc(CheckMode::Inf)
    }

    /// "norc": reference counting disabled.
    pub fn norc() -> RunConfig {
        RunConfig::base(Backend::NoRc, CheckMode::Nc)
    }

    /// C@.
    pub fn cat() -> RunConfig {
        RunConfig::base(Backend::CAt, CheckMode::Nq)
    }

    /// "lea": malloc/free.
    pub fn lea() -> RunConfig {
        RunConfig::base(Backend::Lea, CheckMode::Nc)
    }

    /// "GC": conservative collection.
    pub fn gc() -> RunConfig {
        RunConfig::base(Backend::Gc, CheckMode::Nc)
    }

    /// All five Figure 7 configurations with their display names.
    pub fn figure7() -> Vec<(&'static str, RunConfig)> {
        vec![
            ("C@", RunConfig::cat()),
            ("lea", RunConfig::lea()),
            ("GC", RunConfig::gc()),
            ("norc", RunConfig::norc()),
            ("RC", RunConfig::rc_inf()),
        ]
    }

    /// The four Figure 8 check regimes with their display names.
    pub fn figure8() -> Vec<(&'static str, RunConfig)> {
        vec![
            ("nq", RunConfig::rc(CheckMode::Nq)),
            ("qs", RunConfig::rc(CheckMode::Qs)),
            ("inf", RunConfig::rc(CheckMode::Inf)),
            ("nc", RunConfig::rc(CheckMode::Nc)),
        ]
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::rc_inf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_the_paper_matrix() {
        assert_eq!(RunConfig::figure7().len(), 5);
        assert_eq!(RunConfig::figure8().len(), 4);
        assert_eq!(RunConfig::rc_inf().backend, Backend::Rc);
        assert_eq!(RunConfig::rc_inf().checks, CheckMode::Inf);
        assert_eq!(RunConfig::default().backend, Backend::Rc);
    }
}
