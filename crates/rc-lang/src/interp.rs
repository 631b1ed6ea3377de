//! The RC interpreter.
//!
//! Executes a checked [`Module`] against the `region-rt` substrate under a
//! [`RunConfig`]. This plays the role of the RC-to-C compiler plus the
//! compiled binary in the paper's setup: every heap pointer store goes
//! through the Figure 3 write barriers, `deletes` calls pin the regions of
//! live locals, and all dynamic events land in the shared
//! [`region_rt::Stats`] / virtual clock from which the evaluation's tables
//! and figures are computed.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use region_rt::{
    audit_all, Addr, EmuBackend, EmuRegionId, EmuRegions, Facet, FaultReport, Handoff, Heap,
    HeapConfig, PtrKind, RegionId, RtError, SchedEventKind, SchedLog, SchedRecorder, Shard, ShardId,
    SlotKind, SnapshotReason, Stats, TaskReport, TypeId, TypeLayout, WriteMode,
};
use rlang::SiteId;

use crate::ast::Qual;
use crate::config::{Backend, CheckMode, DeleteSemantics, OnFault, RunConfig, SchedMode};
use crate::hir::*;
use crate::liveness::{pin_sets, PinSets};
use crate::parallel::Gate;

/// A module prepared for execution: parsed, checked, analysed.
#[derive(Debug)]
pub struct Compiled {
    /// The typed module.
    pub module: Module,
    /// The rlang check-elimination analysis (used by the `inf` regime and
    /// by Table 3).
    pub analysis: rlang::Analysis,
    /// Per-function pin sets for the `deletes` protocol.
    pub pins: Vec<PinSets>,
}

/// Parses, checks and analyses an RC source file.
///
/// # Errors
///
/// Returns the first compile-time error.
pub fn prepare(src: &str) -> Result<Compiled, crate::CompileError> {
    let module = crate::compile(src)?;
    let analysis = crate::to_rlang::analyse_module(&module);
    let pins = module.funcs.iter().map(pin_sets).collect();
    Ok(Compiled { module, analysis, pins })
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `main` returned this exit code.
    Exit(i64),
    /// The program aborted on a runtime failure (failed annotation check,
    /// unsafe `deleteregion`, wild pointer, out-of-bounds index, …).
    Aborted(RtError),
    /// The program hit a runtime failure under
    /// [`OnFault::TrapAndUnwind`]: the fault was trapped, the region
    /// stack unwound, and the heap left audit-clean.
    Trapped(RtError),
    /// An `assert` failed.
    AssertFailed,
    /// The step budget was exhausted.
    StepLimit,
    /// The call stack grew past 2,000 frames. Like the step budget, the
    /// limit is deterministic, so it is neither trapped nor retried.
    StackOverflow,
}

impl Outcome {
    /// Whether the run completed normally.
    pub fn is_exit(&self) -> bool {
        matches!(self, Outcome::Exit(_))
    }
}

/// The result of executing a module.
#[derive(Debug)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: Outcome,
    /// Dynamic-event counters.
    pub stats: Stats,
    /// Total virtual time in charged instructions (includes the C@
    /// base-compiler factor when applicable).
    pub cycles: u64,
    /// Interpreter steps executed.
    pub steps: u64,
    /// Result of the final heap audit (`None` when auditing was off).
    pub audit: Option<Result<(), region_rt::AuditError>>,
    /// The telemetry tracer, when [`RunConfig::trace`] was on:
    /// recent raw events plus the folded [`region_rt::Profile`].
    pub tracer: Option<Box<region_rt::Tracer>>,
    /// Per-site check-outcome tallies, when
    /// [`RunConfig::count_checks`] was on: how often each annotated
    /// store's predicate ran and how often it would have fired.
    pub check_counts: Option<Box<region_rt::CheckCounter>>,
    /// The metrics timeline, when [`RunConfig::sample_interval`] was
    /// nonzero: periodic heap snapshots plus one final forced sample at
    /// end of run.
    pub timeline: Option<Box<region_rt::Timeline>>,
    /// The harvested fault-injection report, when [`RunConfig::faults`]
    /// armed any plane: which faults fired, at which operation ordinals
    /// and virtual times.
    pub faults: Option<FaultReport>,
    /// The region-lifecycle span tree, when [`RunConfig::spans`] was on:
    /// one span per region with provenance-stamped alloc/RC/check notes,
    /// already
    /// verified against the heap's region table (see
    /// [`region_rt::SpanTree::verification`]).
    pub spans: Option<Box<region_rt::SpanTree>>,
    /// Post-mortem heap snapshots, when [`RunConfig::snapshots`] was on:
    /// one per GC pause (reason `gc`), then either the pre-unwind trap
    /// snapshot (reason `trap`, for [`Outcome::Trapped`]) or the final
    /// heap state (reason `exit`), in capture order. Empty otherwise.
    /// Snapshots (like fault reports) cover the root task's heap only.
    pub snapshots: Vec<region_rt::HeapSnapshot>,
    /// One region-ownership handoff per `spawn`, in deterministic merge
    /// (DFS spawn) order — empty for programs without tasks. The
    /// telemetry above (`stats`, `cycles`, `steps`, `spans`, the traced
    /// profile, `timeline`, `check_counts`) is already the exact merge
    /// of the root task and every shard in this order, so it is
    /// byte-identical across schedulers and seeds.
    pub handoffs: Vec<Handoff>,
    /// Each task's un-merged observability facet (root first, then
    /// shards in DFS order), for programs that spawned: per-task
    /// `Stats`/cycles/steps, the typed scheduler-event log on the shared
    /// virtual clock, and — when sampling/tracing were on — the task's
    /// own timeline and trace. The merged telemetry above is exactly the
    /// in-order fold of these. Empty for programs without tasks.
    pub task_reports: Vec<TaskReport>,
}

impl RunResult {
    /// The folded telemetry profile, when tracing was enabled.
    pub fn profile(&self) -> Option<&region_rt::Profile> {
        self.tracer.as_ref().map(|t| t.profile())
    }
}

/// Executes a compiled module under a configuration.
pub fn run(c: &Compiled, config: &RunConfig) -> RunResult {
    run_opts(c, config, false)
}

/// As [`run`], additionally auditing the heap's reference-count invariant
/// at the end (used by the test suite).
pub fn run_audited(c: &Compiled, config: &RunConfig) -> RunResult {
    run_opts(c, config, true)
}

fn run_opts(c: &Compiled, config: &RunConfig, audit: bool) -> RunResult {
    // The tree-walking interpreter nests several host frames per RC frame;
    // deep RC recursion (parse trees, list walks) needs more than a test
    // thread's default 2 MB. Run on a dedicated big-stack thread. The
    // same scope hosts task threads under the deterministic and
    // real-thread schedulers, so every spawned task is joined before the
    // result leaves this function.
    std::thread::scope(|s| {
        let handle = std::thread::Builder::new()
            .name("rc-interp".into())
            .stack_size(256 * 1024 * 1024)
            .spawn_scoped(s, || run_on_this_stack(c, config, audit, Some(s)))
            .expect("spawning the interpreter thread");
        match handle.join() {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

fn run_on_this_stack<'c, 'scope, 'env>(
    c: &'c Compiled,
    config: &'c RunConfig,
    audit: bool,
    scope: Option<&'scope std::thread::Scope<'scope, 'env>>,
) -> RunResult
where
    'c: 'scope,
{
    let mut interp = Interp::new(c, config);
    interp.scope = scope;
    interp.gate = Gate::root(config.sched);
    interp.gate.start();
    if interp.gate.is_threads() {
        interp.sched.stamp(0, SchedEventKind::SemaAdmit);
    }
    interp.sched.stamp(0, SchedEventKind::TaskStart);
    let outcome = interp.run_main();
    // A program may end (or abort) with tasks still outstanding; join
    // them here so every shard is collected and no task thread outlives
    // the run. The root's own failure wins; otherwise the
    // earliest-spawned failed task decides the outcome, exactly as an
    // explicit `join` would have.
    let outcome = match interp.join_children() {
        Ok(()) => outcome,
        Err(h) if outcome.is_exit() => halt_outcome(h),
        Err(_) => outcome,
    };
    interp.gate.finish();
    // Stamp the merge ordinals now that the shard list is final (shard
    // ids are DFS positions fixed by program order, not by timing).
    for (i, s) in interp.shards.iter_mut().enumerate() {
        debug_assert_eq!(s.id.0 as usize, i + 1, "DFS renumbering is dense");
        s.handoff.seq = i as u64;
    }
    let handoffs: Vec<Handoff> = interp.shards.iter().map(|s| s.handoff).collect();
    // Harvest the fault arms before any recovery work so the unwind
    // itself is injection-free (a sticky arm would otherwise fail the
    // very operations that tear the heap down).
    let faults = interp.heap.take_faults();
    let outcome = match outcome {
        Outcome::Aborted(e) if config.on_fault == OnFault::TrapAndUnwind => {
            // Dump the pre-unwind heap: the trap snapshot shows the state
            // the fault left behind, not the cleaned-up aftermath.
            if config.snapshots {
                interp.snapshots.push(interp.heap.snapshot(SnapshotReason::Trap));
            }
            interp.unwind_after_fault();
            Outcome::Trapped(e)
        }
        o => o,
    };
    // The post-join cleanliness gate: the root heap and every shard must
    // be independently audit-clean (isolation means no shard can excuse
    // another).
    let audit = audit.then(|| audit_all(&interp.heap, &interp.shards).map_err(|(_, e)| e));
    if let Some(res) = &audit {
        interp.heap.record_audit_run(res.is_ok());
    }
    // One last forced sample so the timeline always covers the run's end
    // state (no-op when sampling is off).
    interp.heap.sample_now();
    // Verify the span tree against the heap's region table and stamp the
    // outcome into it (no-op when spans are off).
    let _ = interp.heap.seal_spans();
    // The exit snapshot is captured after sealing so its span-derived
    // aggregates are final; trapped runs keep the trap snapshot as their
    // last word instead (the post-unwind heap is empty by construction).
    if config.snapshots && !matches!(outcome, Outcome::Trapped(_)) {
        interp.snapshots.push(interp.heap.snapshot(SnapshotReason::Exit));
    }
    // Seal the root's scheduler log (the final `task_end` stamp) and
    // preserve every task's un-merged observability facet before the
    // destructive fold below. Spawn-free runs skip all of it.
    let root_sched =
        std::mem::replace(&mut interp.sched, SchedRecorder::root()).finish(interp.heap.clock.cycles());
    let mut task_reports: Vec<TaskReport> = Vec::new();
    if !interp.shards.is_empty() {
        task_reports.push(TaskReport {
            id: ShardId::ROOT,
            parent: ShardId::ROOT,
            seq: 0,
            region: RegionId(0),
            spawn_site: 0,
            cycles: interp.heap.clock.cycles(),
            steps: interp.steps,
            stats: interp.heap.stats.clone(),
            sched: root_sched,
            timeline: None, // patched from the root's taken instruments below
            tracer: None,
        });
        for s in &interp.shards {
            task_reports.push(TaskReport {
                id: s.id,
                parent: s.handoff.from,
                seq: s.handoff.seq,
                region: s.handoff.region,
                spawn_site: s.spawn_site,
                cycles: s.heap.clock.cycles(),
                steps: s.steps,
                stats: s.heap.stats.clone(),
                sched: s.sched.clone(),
                timeline: s.timeline.clone(),
                tracer: s.tracer.clone(),
            });
        }
    }
    // Fold every shard into the global report in `Handoff::seq` order.
    // Every merge below is exact and associative, so the report is
    // byte-identical across schedulers, worker counts and seeds.
    let mut stats = interp.heap.stats.clone();
    let mut cycles = interp.heap.clock.cycles();
    let mut steps = interp.steps;
    let mut spans = interp.heap.take_spans();
    let mut tracer = interp.heap.take_tracer();
    let mut timeline = interp.heap.take_timeline();
    let mut check_counts = interp.heap.take_check_counter();
    if let Some(root) = task_reports.first_mut() {
        root.timeline = timeline.clone();
        root.tracer = tracer.clone();
    }
    for s in &mut interp.shards {
        stats = stats.merge(&s.heap.stats);
        cycles += s.heap.clock.cycles();
        steps += s.steps;
        if let Some(sh) = s.spans.take() {
            match &mut spans {
                Some(sp) => sp.merge(&sh),
                None => spans = Some(sh),
            }
        }
        if let Some(st) = s.tracer.take() {
            match &mut tracer {
                Some(t) => {
                    let off = t.profile().max_region();
                    t.absorb_profile(&st, off);
                }
                None => tracer = Some(st),
            }
        }
        if let Some(stl) = s.timeline.take() {
            match &mut timeline {
                Some(tl) => tl.merge(&stl),
                None => timeline = Some(stl),
            }
        }
        if let Some(sc) = s.heap.take_check_counter() {
            match &mut check_counts {
                Some(cc) => cc.merge(&sc),
                None => check_counts = Some(sc),
            }
        }
    }
    // The C@ base-compiler factor covers the whole task tree: every step
    // charges one base operation.
    if config.backend == Backend::CAt {
        cycles += steps * (config.costs.cat_base_factor_pct.saturating_sub(100)) / 100;
    }
    RunResult {
        outcome,
        cycles,
        stats,
        steps,
        audit,
        tracer,
        check_counts,
        timeline,
        faults,
        spans,
        snapshots: interp.snapshots,
        handoffs,
        task_reports,
    }
}

fn halt_outcome(h: Halt) -> Outcome {
    match *h.0 {
        HaltKind::Abort(e) => Outcome::Aborted(e),
        HaltKind::AssertFailed => Outcome::AssertFailed,
        HaltKind::StepLimit => Outcome::StepLimit,
        HaltKind::StackOverflow => Outcome::StackOverflow,
    }
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Int(i64),
    Ptr(Addr),
    Region(Addr), // region descriptor address (NULL = null handle)
}

impl Value {
    fn default_of(ty: RcType) -> Value {
        match ty {
            RcType::Int => Value::Int(0),
            RcType::Region => Value::Region(Addr::NULL),
            _ => Value::Ptr(Addr::NULL),
        }
    }

    fn truthy(self) -> bool {
        match self {
            Value::Int(n) => n != 0,
            Value::Ptr(a) | Value::Region(a) => !a.is_null(),
        }
    }

    fn raw(self) -> u64 {
        match self {
            Value::Int(n) => n as u64,
            Value::Ptr(a) | Value::Region(a) => a.raw(),
        }
    }

    fn from_raw(ty: RcType, raw: u64) -> Value {
        match ty {
            RcType::Int => Value::Int(raw as i64),
            RcType::Region => Value::Region(Addr::from_raw(raw)),
            _ => Value::Ptr(Addr::from_raw(raw)),
        }
    }

    fn addr(self) -> Addr {
        match self {
            Value::Int(_) => Addr::NULL,
            Value::Ptr(a) | Value::Region(a) => a,
        }
    }
}

/// Early exit from evaluation. Boxed, so that the `Result<Value, Halt>`
/// every evaluation returns is two words and comes back in registers.
#[derive(Debug)]
struct Halt(Box<HaltKind>);

#[derive(Debug)]
enum HaltKind {
    Abort(RtError),
    AssertFailed,
    StepLimit,
    StackOverflow,
}

impl Halt {
    /// Out of line: halting is the rare path.
    #[cold]
    fn new(kind: HaltKind) -> Halt {
        Halt(Box::new(kind))
    }

    fn is_abort(&self) -> bool {
        matches!(*self.0, HaltKind::Abort(_))
    }

    /// Whether this is the unsafe-`deleteregion` failure that
    /// [`DeleteSemantics::Fail`] turns into a return code.
    fn is_delete_failure(&self) -> bool {
        matches!(
            *self.0,
            HaltKind::Abort(
                RtError::DeleteWithLiveRefs { .. } | RtError::DeleteWithSubregions { .. }
            )
        )
    }
}

/// Wraps a runtime error as a [`Halt`].
fn abort(e: RtError) -> Halt {
    Halt::new(HaltKind::Abort(e))
}

/// Deepest call nesting before a run ends [`Outcome::StackOverflow`].
const MAX_FRAMES: usize = 2_000;

enum Flow {
    Normal,
    Return(Value),
}

/// What a region descriptor designates.
#[derive(Debug, Clone, Copy)]
enum RtRegion {
    Real(RegionId),
    Emu(EmuRegionId),
}

/// What a finished task hands back to its parent: how the body ended
/// (`None` = clean) and its shard subtree — own shard first, then nested
/// tasks' shards in DFS order, with ids local to this task.
struct TaskDone {
    halt: Option<Halt>,
    shards: Vec<Shard>,
}

enum TaskState<'scope> {
    /// Already ran, at the spawn point (inline scheduler).
    Done(TaskDone),
    /// Running on a scoped thread (deterministic or thread scheduler).
    Running(std::thread::ScopedJoinHandle<'scope, TaskDone>),
}

/// An outstanding spawned task, from the parent's side.
struct ChildTask<'scope> {
    /// Parent-space descriptor of the moved region (answers
    /// [`RtError::RegionMoved`] until the join).
    region_desc: Addr,
    /// Parent-space region number, recorded in the [`Handoff`].
    region_id: RegionId,
    /// The child's scheduler id ([`Gate::task_id`]) — the `join` wait
    /// set under the deterministic baton.
    sched_id: usize,
    state: TaskState<'scope>,
}

struct Interp<'c, 'scope, 'env> {
    c: &'c Compiled,
    config: &'c RunConfig,
    heap: Heap,
    emu: Option<EmuRegions>,
    /// Per-struct type layouts (plus the int-cell type at the end).
    layouts: Vec<TypeId>,
    int_cell: TypeId,
    desc_ty: TypeId,
    /// Region descriptors.
    desc_map: HashMap<Addr, RtRegion>,
    desc_of_real: Vec<Addr>,
    /// Owner of each emu allocation (for `regionof` under lea/GC).
    emu_owner: HashMap<Addr, Addr>, // object -> descriptor
    /// The globals block.
    globals_obj: Addr,
    /// Base address and length of each global array.
    global_arrays: Vec<Option<(Addr, u32)>>,
    /// Cache of stack-array layouts.
    stack_types: HashMap<(String, u8), TypeId>,
    /// Descriptor for the traditional region (`traditionalregion()`).
    trad_desc: Addr,
    /// Every framed call's variables, outermost frame first. A call's
    /// arguments are evaluated straight onto the top and framed in
    /// place, so calls allocate nothing.
    stack: Vec<Value>,
    /// The stack-array base of each framed variable, at its `stack`
    /// position (`None` for scalars and for pending arguments).
    arrays: Vec<Option<Addr>>,
    /// Each framed call's positions in `stack`, outermost first. These
    /// slots, frame by frame, are the GC roots and C@'s stack-scan
    /// slots; arguments still being evaluated sit outside every frame.
    frames: Vec<Range<usize>>,
    /// Start of the innermost frame in `stack`.
    base: usize,
    steps: u64,
    /// `config.step_limit`, with 0 (no limit) as `u64::MAX`.
    step_cap: u64,
    /// `config.costs.base_op`, charged on every step.
    base_op: u64,
    /// First fault hit while building the startup image (globals block,
    /// global arrays, the traditional descriptor): reported from
    /// `run_main` before any user code runs.
    startup_fault: Option<RtError>,
    /// Cached "any facet that reads the source line is on" (tracing,
    /// sampling, spans, snapshots), so site attribution costs one local
    /// branch on the hot paths when all are off. Timeline samples reuse the trace
    /// site, which is how snapshots align with source `file:line` phases.
    observing: bool,
    /// Heap snapshots accumulated during the run (GC pauses, then the
    /// trap or exit capture); empty unless [`RunConfig::snapshots`].
    snapshots: Vec<region_rt::HeapSnapshot>,
    /// Host-thread scope task threads spawn on (`None` ⇒ tasks always
    /// run inline, whatever the configured scheduler).
    scope: Option<&'scope std::thread::Scope<'scope, 'env>>,
    /// This task's scheduler handle (one [`Gate::tick`] per step).
    gate: Gate,
    /// This task's scheduler-event recorder on the run's shared virtual
    /// clock (`run_task` installs a child recorder for spawned tasks).
    sched: SchedRecorder,
    /// The sealed scheduler log, when `run_task` already stamped
    /// `task_end` *before* releasing the gate — sealing after release
    /// would race the next baton-holder's stamps on the shared clock
    /// and break per-seed determinism.
    sealed_sched: Option<SchedLog>,
    /// Source line of the `spawn` that created this task (0 at root).
    spawn_site: u32,
    /// Descriptors of regions currently handed off to running tasks;
    /// every handle-level touch answers [`RtError::RegionMoved`] until
    /// the join returns ownership.
    moved: HashSet<Addr>,
    /// Outstanding tasks spawned by this task, in spawn order.
    children: Vec<ChildTask<'scope>>,
    /// Collected shards, in deterministic DFS order, ids local to this
    /// task (this task = 0, shards 1..; a parent offsets them on join).
    shards: Vec<Shard>,
    /// The facet region this task was handed (tasks only; NULL at root).
    facet_desc: Addr,
    /// The facet as the runtime sees it (tasks only).
    facet: Option<Facet>,
    /// Whether this task deleted its facet region (the parent then
    /// deletes the original at join instead of reclaiming it).
    facet_dead: bool,
}

impl<'c, 'scope, 'env> Interp<'c, 'scope, 'env>
where
    'c: 'scope,
{
    fn new(c: &'c Compiled, config: &'c RunConfig) -> Interp<'c, 'scope, 'env> {
        let rc_enabled = matches!(config.backend, Backend::Rc | Backend::CAt);
        let delete_policy = match config.delete_semantics {
            DeleteSemantics::Deferred => region_rt::DeletePolicy::Deferred,
            _ => region_rt::DeletePolicy::Abort,
        };
        let mut heap = Heap::new(HeapConfig {
            page_budget: config.page_budget,
            rc_enabled,
            costs: config.costs.clone(),
            gc_threshold_words: config.gc_threshold_words,
            delete_policy,
            numbering: config.numbering,
        });
        if config.trace {
            heap.enable_tracing(config.trace_capacity);
        }
        if config.sample_interval != 0 {
            heap.enable_sampling(config.sample_interval, config.sample_cap);
        }
        if config.count_checks {
            heap.enable_check_counting();
        }
        if config.spans {
            heap.enable_spans(region_rt::DEFAULT_SPAN_NOTE_CAP);
        }
        // Arm the fault planes before the startup allocations so those are
        // fault-eligible too (reported via `startup_fault`, not a panic).
        if !config.faults.is_empty() {
            heap.install_faults(&config.faults);
        }
        let mut startup_fault = None;

        // Annotations are ignored in the layouts of nq and C@: every
        // pointer is a counted pointer (so fewer objects qualify for the
        // pointerfree allocator, and the delete-time scan grows).
        let quals_ignored =
            config.backend == Backend::CAt || config.checks == CheckMode::Nq;
        let eff = |q: Qual| -> PtrKind {
            if quals_ignored {
                return PtrKind::Counted;
            }
            match q {
                Qual::None => PtrKind::Counted,
                Qual::SameRegion => PtrKind::SameRegion,
                Qual::ParentPtr => PtrKind::ParentPtr,
                Qual::Traditional => PtrKind::Traditional,
            }
        };
        let slot_of = |ty: RcType| -> SlotKind {
            match ty {
                RcType::Int => SlotKind::Data,
                // Region handles are unannotated `struct region *` values
                // pointing at descriptors in the traditional region.
                RcType::Region => SlotKind::Ptr(eff(Qual::None)),
                RcType::Ptr { qual, .. } => SlotKind::Ptr(eff(qual)),
                RcType::IntPtr(qual) => SlotKind::Ptr(eff(qual)),
            }
        };

        let mut layouts = Vec::new();
        for s in &c.module.structs {
            let slots = s.fields.iter().map(|f| slot_of(f.ty)).collect();
            layouts.push(heap.register_type(TypeLayout::new(s.name.clone(), slots)));
        }
        let int_cell = heap.register_type(TypeLayout::data("__int_cell", 1));
        let desc_ty = heap.register_type(TypeLayout::data("__region_desc", 1));

        // The globals block lives in the malloc heap (the traditional
        // region), one slot per scalar global.
        let gslots: Vec<SlotKind> = c
            .module
            .globals
            .iter()
            .map(|g| if g.array_len.is_some() { SlotKind::Data } else { slot_of(g.ty) })
            .collect();
        let globals_ty = heap.register_type(TypeLayout::new(
            "__globals",
            if gslots.is_empty() { vec![SlotKind::Data] } else { gslots },
        ));
        let globals_obj = startup_alloc(&mut heap, &mut startup_fault, globals_ty);

        // Global arrays are separate traditional-region objects.
        let mut global_arrays = Vec::new();
        for g in &c.module.globals {
            match g.array_len {
                None => global_arrays.push(None),
                Some(n) => {
                    let ty = heap.register_type(TypeLayout::new(
                        format!("__garr_{}", g.name),
                        vec![slot_of(g.ty); n as usize],
                    ));
                    let addr = startup_alloc(&mut heap, &mut startup_fault, ty);
                    global_arrays.push(Some((addr, n)));
                }
            }
        }

        let mut emu = match config.backend {
            Backend::Lea => Some(EmuRegions::new(EmuBackend::MallocFree)),
            Backend::Gc => Some(EmuRegions::new(EmuBackend::Gc)),
            _ => None,
        };

        // Pre-create the traditional-region descriptor. Under the emu
        // backends it is a reserved, never-deleted emulated region (the
        // malloc heap of the original programs).
        let trad_desc = startup_alloc(&mut heap, &mut startup_fault, desc_ty);
        let trad_rt = match &mut emu {
            Some(e) => RtRegion::Emu(e.new_region()),
            None => RtRegion::Real(region_rt::TRADITIONAL),
        };
        let mut desc_map = HashMap::new();
        desc_map.insert(trad_desc, trad_rt);
        let desc_of_real = match trad_rt {
            RtRegion::Real(_) => vec![trad_desc],
            RtRegion::Emu(_) => Vec::new(),
        };

        Interp {
            c,
            config,
            heap,
            emu,
            layouts,
            int_cell,
            desc_ty,
            desc_map,
            desc_of_real,
            emu_owner: HashMap::new(),
            globals_obj,
            global_arrays,
            stack_types: HashMap::new(),
            trad_desc,
            stack: Vec::new(),
            arrays: Vec::new(),
            frames: Vec::new(),
            base: 0,
            steps: 0,
            step_cap: if config.step_limit == 0 { u64::MAX } else { config.step_limit },
            base_op: config.costs.base_op,
            startup_fault,
            observing: config.trace
                || config.sample_interval != 0
                || config.spans
                || config.snapshots,
            snapshots: Vec::new(),
            scope: None,
            gate: Gate::Inline,
            sched: SchedRecorder::root(),
            sealed_sched: None,
            spawn_site: 0,
            moved: HashSet::new(),
            children: Vec::new(),
            shards: Vec::new(),
            facet_desc: Addr::NULL,
            facet: None,
            facet_dead: false,
        }
    }

    fn run_main(&mut self) -> Outcome {
        if let Some(e) = self.startup_fault.take() {
            return Outcome::Aborted(e);
        }
        match self.call(self.c.module.main, 0) {
            Ok(v) => match v {
                Value::Int(n) => Outcome::Exit(n),
                _ => Outcome::Exit(0),
            },
            Err(h) => halt_outcome(h),
        }
    }

    /// One interpreter step. Every evaluated node, every statement and
    /// every `while` back-edge takes exactly one, in evaluation order:
    /// baton slices and timeline samples are counted in steps.
    #[inline(always)]
    fn step(&mut self) -> Result<(), Halt> {
        self.steps += 1;
        self.heap.clock.charge(self.base_op);
        // Drive the timeline sampler from the step counter so snapshots
        // land at regular points in program execution even when the
        // runtime is idle (one branch when sampling is off).
        self.heap.sample_tick();
        // The deterministic scheduler's preemption point: every step
        // burns one slice unit; an expired slice passes the baton (a
        // no-op branch under the inline and thread schedulers).
        if let Some(ran) = self.gate.tick() {
            self.pass_baton(ran);
        }
        if self.steps > self.step_cap {
            return Err(Halt::new(HaltKind::StepLimit));
        }
        Ok(())
    }

    /// Passes the baton at the end of a slice, with release/acquire
    /// events stamped around the pass so the scheduler log shows every
    /// slice boundary. Out of line and cold so that [`Interp::step`]
    /// stays small.
    #[cold]
    #[inline(never)]
    fn pass_baton(&mut self, ran: u64) {
        self.sched.stamp(self.heap.clock.cycles(), SchedEventKind::BatonRelease { ran });
        let slice = self.gate.yield_now();
        self.sched.stamp(self.heap.clock.cycles(), SchedEventKind::BatonAcquire { slice });
    }

    fn func(&self, f: FuncRef) -> &'c HFunc {
        &self.c.module.funcs[f.0 as usize]
    }

    /// Calls `f` on the arguments at `stack[base..]`: frames them in
    /// place with the locals after them, runs the body, and pops the
    /// frame, freeing its stack arrays on every exit.
    fn call(&mut self, f: FuncRef, base: usize) -> Result<Value, Halt> {
        let func = self.func(f);
        // Sema checks arity; a mismatch would drop extra arguments and
        // default missing ones.
        let nargs = (self.stack.len() - base).min(func.params.len());
        self.stack.truncate(base + nargs);
        let vars = func.params[nargs..].iter().chain(&func.locals);
        self.stack.extend(vars.map(|v| Value::default_of(v.ty)));
        self.arrays.resize(self.stack.len(), None);
        let caller = std::mem::replace(&mut self.base, base);
        self.frames.push(base..self.stack.len());
        let result = self.run_frame(f, func);
        self.frames.pop();
        self.base = caller;
        for a in self.arrays.drain(base..).flatten() {
            // Ignore errors during unwinding: the halt outcome wins.
            let _ = self.heap.m_free(a);
        }
        self.stack.truncate(base);
        result
    }

    /// The innermost frame's part of [`Interp::call`]: allocates its
    /// stack arrays in the traditional region, checks the depth, runs
    /// the body.
    fn run_frame(&mut self, f: FuncRef, func: &'c HFunc) -> Result<Value, Halt> {
        for (i, v) in func.params.iter().chain(&func.locals).enumerate() {
            if let Some(n) = v.array_len {
                let ty = self.stack_array_type(v, n);
                self.arrays[self.base + i] = Some(self.heap.m_alloc(ty, 1).map_err(abort)?);
            }
        }
        if self.frames.len() > MAX_FRAMES {
            return Err(Halt::new(HaltKind::StackOverflow));
        }
        match self.exec_block(f, &func.body)? {
            Flow::Normal => Ok(Value::Int(0)),
            Flow::Return(v) => Ok(v),
        }
    }

    /// Registers (once per function/var) the layout for a stack array.
    fn stack_array_type(&mut self, var: &HVar, n: u32) -> TypeId {
        // Cache layouts so repeated calls do not bloat the type table.
        let key_name = format!("__stk_{}_{}", var.name, n);
        let slot = match var.ty {
            RcType::Int => SlotKind::Data,
            RcType::Region => SlotKind::Ptr(self.effective_kind(Qual::None)),
            RcType::Ptr { qual, .. } | RcType::IntPtr(qual) => {
                SlotKind::Ptr(self.effective_kind(qual))
            }
        };
        let key = (key_name.clone(), slot_tag(slot));
        if let Some(id) = self.stack_types.get(&key) {
            return *id;
        }
        let id = self
            .heap
            .register_type(TypeLayout::new(key_name, vec![slot; n as usize]));
        self.stack_types.insert(key, id);
        id
    }

    fn effective_kind(&self, q: Qual) -> PtrKind {
        let quals_ignored =
            self.config.backend == Backend::CAt || self.config.checks == CheckMode::Nq;
        if quals_ignored {
            return PtrKind::Counted;
        }
        match q {
            Qual::None => PtrKind::Counted,
            Qual::SameRegion => PtrKind::SameRegion,
            Qual::ParentPtr => PtrKind::ParentPtr,
            Qual::Traditional => PtrKind::Traditional,
        }
    }

    fn exec_block(&mut self, f: FuncRef, stmts: &'c [HStmt]) -> Result<Flow, Halt> {
        for s in stmts {
            match self.exec_stmt(f, s)? {
                Flow::Normal => {}
                r @ Flow::Return(_) => return Ok(r),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, f: FuncRef, s: &'c HStmt) -> Result<Flow, Halt> {
        self.step()?;
        match s {
            HStmt::Expr(e) => {
                self.eval(f, e)?;
                Ok(Flow::Normal)
            }
            HStmt::Return(e) => {
                let v = match e {
                    None => Value::Int(0),
                    Some(e) => self.eval(f, e)?,
                };
                Ok(Flow::Return(v))
            }
            HStmt::If(c, a, b) => {
                let cv = self.eval(f, c)?;
                if cv.truthy() {
                    self.exec_block(f, a)
                } else {
                    self.exec_block(f, b)
                }
            }
            HStmt::While(c, body) => {
                loop {
                    let cv = self.eval(f, c)?;
                    if !cv.truthy() {
                        break;
                    }
                    match self.exec_block(f, body)? {
                        Flow::Normal => {}
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    self.step()?;
                }
                Ok(Flow::Normal)
            }
            HStmt::Spawn { rvar, body, line } => self.exec_spawn(f, *rvar, body, *line),
            HStmt::Join => {
                self.join_children()?;
                Ok(Flow::Normal)
            }
        }
    }

    /// `spawn r { ... }`: moves `r`'s region to a new task and launches
    /// the body against a fresh heap shard. Under the inline scheduler
    /// the body runs to completion right here; under the deterministic
    /// and thread schedulers it runs on a scoped thread, admitted by
    /// this task's [`Gate`] family. Either way the task's effects reach
    /// the parent only at join, as a [`Shard`].
    fn exec_spawn(
        &mut self,
        f: FuncRef,
        rvar: VarRef,
        body: &'c [HStmt],
        line: u32,
    ) -> Result<Flow, Halt> {
        self.set_site(line);
        let rv = self.stack[self.base + rvar.0 as usize];
        // Null, dangling and already-moved handles all refuse here, with
        // the same error in every scheduler mode.
        let rt = self.resolve_region(rv)?;
        let desc = rv.addr();
        if desc == self.trad_desc {
            // The traditional region backs the globals block and every
            // activation's stack arrays; it cannot be handed off.
            return Err(abort(RtError::WildPointer { addr: desc }));
        }
        let region_id = region_number(rt);
        self.moved.insert(desc);
        let captured = self.capture_frame(f, rvar);
        let gate = if self.scope.is_none() { Gate::Inline } else { self.gate.child() };
        let sched_id = gate.task_id();
        // Stamp the spawn before launching so the child recorder is born
        // at (and its start waits are measured from) the spawn point.
        self.heap.stats.sched_spawns += 1;
        let nth = self.sched.spawns() as u32;
        self.sched.stamp(self.heap.clock.cycles(), SchedEventKind::Spawn { nth });
        let sched = self.sched.child();
        let c = self.c;
        let config = self.config;
        let state = match (config.sched, self.scope) {
            (SchedMode::Inline, _) | (_, None) => TaskState::Done(run_task(
                c, config, f, body, captured, rvar, gate, sched, line, self.scope,
            )),
            (_, Some(s)) => {
                let handle = std::thread::Builder::new()
                    .name("rc-task".into())
                    .stack_size(64 * 1024 * 1024)
                    .spawn_scoped(s, move || {
                        run_task(c, config, f, body, captured, rvar, gate, sched, line, Some(s))
                    })
                    .expect("spawning a task thread");
                TaskState::Running(handle)
            }
        };
        self.children.push(ChildTask { region_desc: desc, region_id, sched_id, state });
        Ok(Flow::Normal)
    }

    /// Builds the value snapshot a task starts from: int scalars are
    /// copied, the spawned region variable is a placeholder the task
    /// replaces with its facet handle, and every other slot is nulled —
    /// sema guarantees the body never reads those.
    fn capture_frame(&self, f: FuncRef, rvar: VarRef) -> Vec<Value> {
        let func = self.func(f);
        let frame = &self.stack[self.base..];
        (0..func.var_count())
            .map(|i| {
                let v = VarRef(i as u32);
                let hv = func.var(v);
                if v == rvar {
                    Value::Region(Addr::NULL)
                } else if hv.ty == RcType::Int && hv.array_len.is_none() {
                    frame[i]
                } else {
                    Value::default_of(hv.ty)
                }
            })
            .collect()
    }

    /// `join;` (and the implicit join at a body's or the program's end):
    /// waits for every outstanding task, returns region ownership to
    /// this task, and absorbs the tasks' shards in spawn order. The
    /// earliest-spawned failure propagates; region returns happen for
    /// all children regardless, so telemetry and audits stay complete.
    fn join_children(&mut self) -> Result<(), Halt> {
        if self.children.is_empty() {
            return Ok(());
        }
        let children = std::mem::take(&mut self.children);
        let any_running = children.iter().any(|ch| matches!(ch.state, TaskState::Running(_)));
        // The join is a program point in every mode; the wait bracket is
        // stamped even when nothing actually blocks (inline) so event
        // pairing is schedule-invariant.
        self.heap.stats.sched_joins += 1;
        self.sched.stamp(
            self.heap.clock.cycles(),
            SchedEventKind::JoinWaitBegin { pending: children.len() as u32 },
        );
        // Hand our turn/permit back while blocked in OS joins so the
        // children we are waiting on can actually run.
        if any_running {
            if self.gate.is_threads() {
                self.sched.stamp(self.heap.clock.cycles(), SchedEventKind::SemaBlock);
            }
            let waiting_on: Vec<usize> = children
                .iter()
                .filter(|ch| matches!(ch.state, TaskState::Running(_)))
                .map(|ch| ch.sched_id)
                .collect();
            self.gate.begin_wait(&waiting_on);
        }
        let collected: Vec<(Addr, RegionId, TaskDone)> = children
            .into_iter()
            .map(|ch| {
                let done = match ch.state {
                    TaskState::Done(d) => d,
                    TaskState::Running(h) => match h.join() {
                        Ok(d) => d,
                        Err(payload) => std::panic::resume_unwind(payload),
                    },
                };
                (ch.region_desc, ch.region_id, done)
            })
            .collect();
        if any_running {
            self.gate.end_wait();
            if self.gate.is_threads() {
                self.sched.stamp(self.heap.clock.cycles(), SchedEventKind::SemaAdmit);
            }
        }
        self.sched.stamp(self.heap.clock.cycles(), SchedEventKind::JoinWaitEnd);
        let mut first_halt: Option<Halt> = None;
        let mut dead_regions: Vec<Addr> = Vec::new();
        for (desc, region_id, done) in collected {
            self.moved.remove(&desc);
            let facet_dead = done.shards.first().is_some_and(|s| s.facet_dead);
            absorb_child_shards(&mut self.shards, done.shards, region_id);
            if let Some(h) = done.halt {
                if first_halt.is_none() {
                    first_halt = Some(h);
                }
            } else if facet_dead {
                dead_regions.push(desc);
            }
        }
        // A task that deleted its facet semantically deleted the whole
        // moved region: mirror that on the original now that ownership
        // is back (under `Fail` semantics an unsafe mirror delete is
        // skipped, exactly like a failing `deleteregion`).
        if first_halt.is_none() {
            for desc in dead_regions {
                if let Err(h) = self.delete_region(Value::Region(desc)) {
                    if self.config.delete_semantics == DeleteSemantics::Fail
                        && h.is_delete_failure()
                    {
                        continue;
                    }
                    first_halt = Some(h);
                    break;
                }
            }
        }
        match first_halt {
            None => Ok(()),
            Some(h) => Err(h),
        }
    }

    /// Finalizes a finished task into its [`TaskDone`]: one shard for
    /// this task's own heap, then the already-collected nested shards.
    fn into_task_done(mut self, halt: Option<Halt>) -> TaskDone {
        self.heap.sample_now();
        let _ = self.heap.seal_spans();
        let spans = self.heap.take_spans();
        let tracer = self.heap.take_tracer();
        let timeline = self.heap.take_timeline();
        let facet = self.facet.unwrap_or(Facet::Real(RegionId(0)));
        // Seal the scheduler log: the task's final cycle count becomes
        // its `task_end` stamp. `run_task` seals before releasing the
        // gate (see `sealed_sched`); inline tasks seal here.
        let sched = match self.sealed_sched.take() {
            Some(s) => s,
            None => self.sched.finish(self.heap.clock.cycles()),
        };
        let mut shards = Vec::with_capacity(1 + self.shards.len());
        shards.push(Shard {
            id: ShardId(0),
            handoff: Handoff {
                seq: 0,
                from: ShardId(0),
                to: ShardId(0),
                region: RegionId(0),
            },
            heap: Box::new(self.heap),
            emu: self.emu,
            facet,
            facet_dead: self.facet_dead,
            spans,
            tracer,
            timeline,
            steps: self.steps,
            sched,
            spawn_site: self.spawn_site,
        });
        shards.append(&mut self.shards);
        TaskDone { halt, shards }
    }

    /// Evaluates `e`. The two leaves that take about a third of all
    /// steps, `ReadLocal` and `Int`, are evaluated inline at every use,
    /// step included; every other node goes to [`Interp::eval_node`].
    #[inline(always)]
    fn eval(&mut self, f: FuncRef, e: &HExpr) -> Result<Value, Halt> {
        match e {
            HExpr::ReadLocal(v) => {
                self.step()?;
                Ok(self.stack[self.base + v.0 as usize])
            }
            HExpr::Int(n) => {
                self.step()?;
                Ok(Value::Int(*n))
            }
            _ => self.eval_node(f, e),
        }
    }

    /// Evaluates any node, out of line; reached through [`Interp::eval`].
    #[inline(never)]
    fn eval_node(&mut self, f: FuncRef, e: &HExpr) -> Result<Value, Halt> {
        self.step()?;
        match e {
            HExpr::Int(n) => Ok(Value::Int(*n)),
            HExpr::Null(ty) => Ok(Value::default_of(*ty)),
            HExpr::ReadLocal(v) => Ok(self.stack[self.base + v.0 as usize]),
            HExpr::ReadGlobal(g) => {
                let ty = self.c.module.global(*g).ty;
                let raw = self
                    .heap
                    .read_word(self.globals_obj, g.0 as usize)
                    .map_err(abort)?;
                Ok(Value::from_raw(ty, raw))
            }
            HExpr::AssignLocal { v, val } => {
                let value = self.eval(f, val)?;
                self.heap.stats.assigns_local += 1;
                self.stack[self.base + v.0 as usize] = value;
                Ok(value)
            }
            HExpr::AssignGlobal { g, val, site } => {
                let value = self.eval(f, val)?;
                let ty = self.c.module.global(*g).ty;
                self.write_slot(self.globals_obj, g.0 as usize, value, ty, *site)?;
                Ok(value)
            }
            HExpr::ReadField { obj, s, field } => {
                let o = self.eval(f, obj)?;
                let addr = self.nonnull(o)?;
                let fty = self.c.module.struct_def(*s).fields[*field as usize].ty;
                let raw = self.heap.read_word(addr, *field as usize).map_err(abort)?;
                Ok(Value::from_raw(fty, raw))
            }
            HExpr::AssignField { obj, s, field, val, site } => {
                let o = self.eval(f, obj)?;
                let addr = self.nonnull(o)?;
                let value = self.eval(f, val)?;
                let fty = self.c.module.struct_def(*s).fields[*field as usize].ty;
                self.write_slot(addr, *field as usize, value, fty, *site)?;
                Ok(value)
            }
            HExpr::ReadArraySlot { base, idx, elem } => {
                let (addr, len) = self.array_base(f, *base)?;
                let i = self.index_in(f, idx, len)?;
                let raw = self.heap.read_word(addr, i).map_err(abort)?;
                Ok(Value::from_raw(*elem, raw))
            }
            HExpr::AssignArraySlot { base, idx, val, elem, site } => {
                let (addr, len) = self.array_base(f, *base)?;
                let i = self.index_in(f, idx, len)?;
                let value = self.eval(f, val)?;
                self.write_slot(addr, i, value, *elem, *site)?;
                Ok(value)
            }
            HExpr::PtrElem { ptr, idx, s } => {
                let p = self.eval(f, ptr)?;
                let addr = self.nonnull(p)?;
                let i = self.eval_int(f, idx)?;
                if i < 0 {
                    return Err(abort(RtError::WildPointer { addr }));
                }
                let size = self.c.module.struct_def(*s).fields.len().max(1);
                Ok(Value::Ptr(addr.offset(i as usize * size)))
            }
            HExpr::ReadIntElem { ptr, idx } => {
                let p = self.eval(f, ptr)?;
                let addr = self.nonnull(p)?;
                let i = self.eval_int(f, idx)?;
                if i < 0 {
                    return Err(abort(RtError::WildPointer { addr }));
                }
                let raw = self.heap.read_word(addr, i as usize).map_err(abort)?;
                Ok(Value::Int(raw as i64))
            }
            HExpr::AssignIntElem { ptr, idx, val } => {
                let p = self.eval(f, ptr)?;
                let addr = self.nonnull(p)?;
                let i = self.eval_int(f, idx)?;
                if i < 0 {
                    return Err(abort(RtError::WildPointer { addr }));
                }
                let value = self.eval(f, val)?;
                self.heap.write_int(addr, i as usize, value.raw()).map_err(abort)?;
                Ok(value)
            }
            HExpr::Bin(op, l, r) => self.eval_bin(f, *op, l, r),
            HExpr::Un(op, inner) => {
                let v = self.eval(f, inner)?;
                Ok(match op {
                    crate::ast::UnOp::Neg => match v {
                        Value::Int(n) => Value::Int(n.wrapping_neg()),
                        _ => Value::Int(0),
                    },
                    crate::ast::UnOp::Not => Value::Int(i64::from(!v.truthy())),
                })
            }
            HExpr::Call { f: callee, args, pin } => {
                // Each argument goes straight onto the stack, where
                // `call` frames it. Until then it is in no frame, so no
                // root scan sees it; a halt leaves it for the enclosing
                // frame's pop to discard.
                let base = self.stack.len();
                for a in args {
                    let v = self.eval(f, a)?;
                    self.stack.push(v);
                }
                let pins = self.pin_for_deletes(f, *callee, *pin);
                let r = self.call(*callee, base);
                self.unpin(pins);
                r
            }
            HExpr::Ralloc { region, s, line } => {
                let r = self.eval(f, region)?;
                self.set_site(*line);
                self.alloc(r, self.layouts[s.0 as usize], 1)
            }
            HExpr::RallocStructArray { region, count, s, line } => {
                let r = self.eval(f, region)?;
                let n = self.eval_int(f, count)?.max(1) as u32;
                self.set_site(*line);
                self.alloc(r, self.layouts[s.0 as usize], n)
            }
            HExpr::RallocIntArray { region, count, line } => {
                let r = self.eval(f, region)?;
                let n = self.eval_int(f, count)?.max(1) as u32;
                self.set_site(*line);
                self.alloc(r, self.int_cell, n)
            }
            HExpr::NewRegion => self.new_region(None),
            HExpr::TraditionalRegion => Ok(Value::Region(self.trad_desc)),
            HExpr::NewSubregion(parent) => {
                let p = self.eval(f, parent)?;
                self.new_region(Some(p))
            }
            HExpr::DeleteRegion(r, pin) => {
                let rv = self.eval(f, r)?;
                let pins = self.pin_list(f, *pin);
                let pinned = self.do_pins(&pins);
                let res = self.delete_region(rv);
                self.unpin(pinned);
                match res {
                    Ok(()) => Ok(Value::Int(0)),
                    // The paper's second option: "simply return a failure
                    // code from deleteregion when its use would be unsafe."
                    Err(halt)
                        if self.config.delete_semantics == DeleteSemantics::Fail
                            && halt.is_delete_failure() =>
                    {
                        Ok(Value::Int(1))
                    }
                    Err(halt) => Err(halt),
                }
            }
            HExpr::RegionOf(x) => {
                let v = self.eval(f, x)?;
                let addr = self.nonnull(v)?;
                let desc = self.descriptor_of(addr)?;
                Ok(Value::Region(desc))
            }
            HExpr::Assert(e) => {
                let v = self.eval(f, e)?;
                if v.truthy() {
                    Ok(Value::Int(0))
                } else {
                    Err(Halt::new(HaltKind::AssertFailed))
                }
            }
        }
    }

    fn eval_bin(
        &mut self,
        f: FuncRef,
        op: crate::ast::BinOp,
        l: &HExpr,
        r: &HExpr,
    ) -> Result<Value, Halt> {
        use crate::ast::BinOp::*;
        // Short-circuit forms first.
        match op {
            And => {
                let lv = self.eval(f, l)?;
                if !lv.truthy() {
                    return Ok(Value::Int(0));
                }
                let rv = self.eval(f, r)?;
                return Ok(Value::Int(i64::from(rv.truthy())));
            }
            Or => {
                let lv = self.eval(f, l)?;
                if lv.truthy() {
                    return Ok(Value::Int(1));
                }
                let rv = self.eval(f, r)?;
                return Ok(Value::Int(i64::from(rv.truthy())));
            }
            _ => {}
        }
        let lv = self.eval(f, l)?;
        let rv = self.eval(f, r)?;
        let out = match op {
            Add => Value::Int(int(lv).wrapping_add(int(rv))),
            Sub => Value::Int(int(lv).wrapping_sub(int(rv))),
            Mul => Value::Int(int(lv).wrapping_mul(int(rv))),
            Div => {
                let d = int(rv);
                Value::Int(if d == 0 { 0 } else { int(lv).wrapping_div(d) })
            }
            Rem => {
                let d = int(rv);
                Value::Int(if d == 0 { 0 } else { int(lv).wrapping_rem(d) })
            }
            Lt => Value::Int(i64::from(int(lv) < int(rv))),
            Le => Value::Int(i64::from(int(lv) <= int(rv))),
            Gt => Value::Int(i64::from(int(lv) > int(rv))),
            Ge => Value::Int(i64::from(int(lv) >= int(rv))),
            Eq => Value::Int(i64::from(lv.raw() == rv.raw())),
            Ne => Value::Int(i64::from(lv.raw() != rv.raw())),
            And | Or => unreachable!("handled above"),
        };
        Ok(out)
    }

    fn eval_int(&mut self, f: FuncRef, e: &HExpr) -> Result<i64, Halt> {
        Ok(int(self.eval(f, e)?))
    }

    fn nonnull(&self, v: Value) -> Result<Addr, Halt> {
        let a = v.addr();
        if a.is_null() {
            return Err(abort(RtError::WildPointer { addr: Addr::NULL }));
        }
        Ok(a)
    }

    fn index_in(&mut self, f: FuncRef, idx: &HExpr, len: u32) -> Result<usize, Halt> {
        let i = self.eval_int(f, idx)?;
        if i < 0 || i >= len as i64 {
            return Err(abort(RtError::WildPointer { addr: Addr::NULL }));
        }
        Ok(i as usize)
    }

    fn array_base(&mut self, f: FuncRef, base: ArrayBase) -> Result<(Addr, u32), Halt> {
        match base {
            // Sema guarantees an array local.
            ArrayBase::Local(v) => {
                match (self.arrays[self.base + v.0 as usize], self.func(f).var(v).array_len) {
                    (Some(addr), Some(len)) => Ok((addr, len)),
                    _ => Err(abort(RtError::WildPointer { addr: Addr::NULL })),
                }
            }
            ArrayBase::Global(g) => {
                let (addr, len) =
                    self.global_arrays[g.0 as usize].expect("sema guarantees array global");
                Ok((addr, len))
            }
        }
    }

    /// Figure 3(a)/(b): dispatches a heap slot write through the barrier
    /// selected by the slot's type, the configuration and the analysis.
    fn write_slot(
        &mut self,
        obj: Addr,
        field: usize,
        val: Value,
        slot_ty: RcType,
        site: SiteId,
    ) -> Result<(), Halt> {
        match slot_ty {
            RcType::Int => {
                self.heap.write_int(obj, field, val.raw()).map_err(abort)
            }
            _ => {
                let qual = slot_ty.qual().unwrap_or(Qual::None);
                let mode = self.write_mode(qual, site);
                if self.observing {
                    let line =
                        self.c.module.site_lines.get(site.0 as usize).copied().unwrap_or(0);
                    self.heap.set_trace_site(line);
                }
                if self.config.count_checks || self.config.spans {
                    self.heap.set_check_site(site.0);
                }
                if self.config.spans {
                    // Stamp the static verdict so the span layer's check
                    // events carry their inference provenance.
                    self.heap.set_check_verdict(self.c.analysis.is_safe(site));
                }
                self.heap.write_ptr(obj, field, val.addr(), mode).map_err(abort)
            }
        }
    }

    /// Attributes subsequent runtime events to a source line (telemetry
    /// only; a no-op branch when neither tracing nor sampling is on).
    #[inline]
    fn set_site(&mut self, line: u32) {
        if self.observing {
            self.heap.set_trace_site(line);
        }
    }

    fn write_mode(&self, qual: Qual, site: SiteId) -> WriteMode {
        match self.config.backend {
            Backend::Lea | Backend::Gc | Backend::NoRc => return WriteMode::Raw,
            Backend::CAt => return WriteMode::Counted,
            Backend::Rc => {}
        }
        let kind = match qual {
            Qual::None => return WriteMode::Counted,
            Qual::SameRegion => PtrKind::SameRegion,
            Qual::ParentPtr => PtrKind::ParentPtr,
            Qual::Traditional => PtrKind::Traditional,
        };
        // Measurement mode: tally the predicate per site, never abort,
        // keep counts maintained (observationally `nq`).
        if self.config.count_checks {
            return WriteMode::CountedCheck(kind);
        }
        match self.config.checks {
            CheckMode::Nq => WriteMode::Counted,
            CheckMode::Qs => WriteMode::Check(kind),
            CheckMode::Inf => {
                if self.c.analysis.is_safe(site) {
                    WriteMode::Safe
                } else {
                    WriteMode::Check(kind)
                }
            }
            CheckMode::Nc => WriteMode::Raw,
        }
    }

    // ---- regions -------------------------------------------------------

    fn new_region(&mut self, parent: Option<Value>) -> Result<Value, Halt> {
        let desc = self.heap.m_alloc(self.desc_ty, 1).map_err(abort)?;
        let rt = match &mut self.emu {
            Some(emu) => RtRegion::Emu(emu.new_region()),
            None => {
                let rid = match parent {
                    None => self.heap.new_region(),
                    Some(p) => {
                        // `resolve_region` also refuses moved parents:
                        // a subregion of a handed-off region would dodge
                        // the ownership transfer.
                        match self.resolve_region(p)? {
                            RtRegion::Real(prid) => {
                                self.heap.new_subregion(prid).map_err(abort)?
                            }
                            RtRegion::Emu(_) => {
                                return Err(abort(RtError::WildPointer {
                                    addr: p.addr(),
                                }))
                            }
                        }
                    }
                };
                while self.desc_of_real.len() <= rid.0 as usize {
                    self.desc_of_real.push(Addr::NULL);
                }
                self.desc_of_real[rid.0 as usize] = desc;
                RtRegion::Real(rid)
            }
        };
        self.desc_map.insert(desc, rt);
        Ok(Value::Region(desc))
    }

    fn resolve_region(&self, v: Value) -> Result<RtRegion, Halt> {
        let desc = v.addr();
        if desc.is_null() {
            return Err(abort(RtError::WildPointer { addr: desc }));
        }
        let rt = self
            .desc_map
            .get(&desc)
            .copied()
            .ok_or_else(|| abort(RtError::WildPointer { addr: desc }))?;
        self.check_not_moved(desc)?;
        Ok(rt)
    }

    /// Refuses handle-level touches of a region whose ownership is
    /// currently with a spawned task. (Ordinary loads/stores through
    /// pre-spawn pointers need no check: the child works on its own
    /// shard, so there is nothing to race with — this is the handle
    /// chokepoint for `ralloc`/`deleteregion`/`newsubregion`/`regionof`
    /// and re-`spawn`.)
    fn check_not_moved(&self, desc: Addr) -> Result<(), Halt> {
        if self.moved.contains(&desc) {
            let region = self
                .desc_map
                .get(&desc)
                .copied()
                .map(region_number)
                .unwrap_or(RegionId(0));
            return Err(abort(RtError::RegionMoved { region }));
        }
        Ok(())
    }

    fn alloc(&mut self, region: Value, ty: TypeId, n: u32) -> Result<Value, Halt> {
        match self.resolve_region(region)? {
            RtRegion::Real(rid) => {
                let a = self.heap.rarray_alloc(rid, ty, n).map_err(abort)?;
                Ok(Value::Ptr(a))
            }
            RtRegion::Emu(eid) => {
                let emu = self.emu.as_mut().expect("emu backend");
                let a = emu.alloc(&mut self.heap, eid, ty, n).map_err(abort)?;
                self.emu_owner.insert(a, region.addr());
                self.maybe_collect();
                Ok(Value::Ptr(a))
            }
        }
    }

    fn delete_region(&mut self, region: Value) -> Result<(), Halt> {
        let desc = region.addr();
        let res = match self.resolve_region(region)? {
            RtRegion::Real(rid) => {
                // C@ scanned the stack at deleteregion instead of pinning
                // at deletes calls; charge that scan.
                if self.config.backend == Backend::CAt {
                    let slots = self
                        .frames
                        .iter()
                        .flat_map(|fr| &self.stack[fr.clone()])
                        .filter(|v| matches!(v, Value::Ptr(_) | Value::Region(_)))
                        .count() as u64;
                    let cost = slots * self.config.costs.cat_stack_scan_per_slot;
                    self.heap.stats.rc_cycles += cost;
                    self.heap.clock.charge(cost);
                }
                self.heap.delete_region(rid).map_err(abort)
            }
            RtRegion::Emu(eid) => {
                let emu = self.emu.as_mut().expect("emu backend");
                emu.delete_region(&mut self.heap, eid).map_err(abort)?;
                self.maybe_collect();
                Ok(())
            }
        };
        if res.is_ok() && desc == self.facet_desc {
            // The task deleted the region it was handed; the joining
            // parent mirrors the delete on the original.
            self.facet_dead = true;
        }
        res
    }

    fn descriptor_of(&mut self, obj: Addr) -> Result<Addr, Halt> {
        if self.emu.is_some() {
            let desc = self
                .emu_owner
                .get(&obj)
                .copied()
                .ok_or_else(|| abort(RtError::WildPointer { addr: obj }))?;
            self.check_not_moved(desc)?;
            return Ok(desc);
        }
        let rid = self
            .heap
            .try_region_of(obj)
            .ok_or_else(|| abort(RtError::WildPointer { addr: obj }))?;
        if let Some(&d) = self.desc_of_real.get(rid.0 as usize) {
            if !d.is_null() {
                self.check_not_moved(d)?;
                return Ok(d);
            }
        }
        // Objects in the traditional region (malloc'd) have no user-created
        // descriptor; lazily create one.
        let desc = self.heap.m_alloc(self.desc_ty, 1).map_err(abort)?;
        while self.desc_of_real.len() <= rid.0 as usize {
            self.desc_of_real.push(Addr::NULL);
        }
        self.desc_of_real[rid.0 as usize] = desc;
        self.desc_map.insert(desc, RtRegion::Real(rid));
        Ok(desc)
    }

    fn maybe_collect(&mut self) {
        if self.config.backend != Backend::Gc || !self.heap.gc_should_collect() {
            return;
        }
        let mut roots: Vec<u64> = Vec::new();
        for fr in &self.frames {
            roots.extend(self.stack[fr.clone()].iter().map(|v| v.raw()));
            roots.extend(self.arrays[fr.clone()].iter().flatten().map(|a| a.raw()));
        }
        // Globals block and global arrays are conservative roots too: scan
        // their slots.
        let gl = self.c.module.globals.len().max(1);
        for i in 0..gl {
            if let Ok(w) = self.heap.read_word(self.globals_obj, i) {
                roots.push(w);
            }
        }
        let garrs: Vec<(Addr, u32)> = self.global_arrays.iter().flatten().copied().collect();
        for (addr, len) in garrs {
            for i in 0..len as usize {
                if let Ok(w) = self.heap.read_word(addr, i) {
                    roots.push(w);
                }
            }
        }
        if let Some(emu) = &self.emu {
            roots.extend(emu.all_roots());
        }
        self.heap.gc_collect(&roots);
        // A per-pause capture: what the collection kept alive, for the
        // offline analyzer's gc-vs-lea retention diffs.
        if self.config.snapshots {
            self.snapshots.push(self.heap.snapshot(SnapshotReason::Gc));
        }
    }

    // ---- deletes pinning -----------------------------------------------

    fn pin_for_deletes(&mut self, f: FuncRef, callee: FuncRef, pin: u32) -> Vec<RegionId> {
        if !self.func(callee).deletes {
            return Vec::new();
        }
        let pins = self.pin_list(f, pin);
        self.do_pins(&pins)
    }

    fn pin_list(&self, f: FuncRef, pin: u32) -> Vec<Addr> {
        if self.config.backend != Backend::Rc {
            return Vec::new();
        }
        self.c.pins[f.0 as usize]
            .pins(pin)
            .iter()
            .filter_map(|&v| {
                match self.stack[self.base + v.0 as usize] {
                    Value::Ptr(a) if !a.is_null() => Some(a),
                    _ => None,
                }
            })
            .collect()
    }

    fn do_pins(&mut self, ptrs: &[Addr]) -> Vec<RegionId> {
        let mut pinned = Vec::new();
        for &a in ptrs {
            if let Some(rid) = self.heap.try_region_of(a) {
                self.heap.pin_region(rid);
                pinned.push(rid);
            }
        }
        pinned
    }

    fn unpin(&mut self, pinned: Vec<RegionId>) {
        for rid in pinned {
            self.heap.unpin_region(rid);
        }
    }

    // ---- fault recovery ------------------------------------------------

    /// Tears the program's memory down after a trapped fault: deletes the
    /// emulated regions and unwinds the real region stack via
    /// [`Heap::unwind_regions`]. Every frame has already been popped, its
    /// stack arrays freed, on the way out of [`Interp::call`]. Called with
    /// the fault arms already detached, so none of this can re-fault;
    /// residual errors are ignored (the trap outcome wins).
    fn unwind_after_fault(&mut self) {
        if let Some(emu) = &mut self.emu {
            let trad = match self.desc_map.get(&self.trad_desc) {
                Some(RtRegion::Emu(id)) => Some(*id),
                _ => None,
            };
            for id in emu.live_regions() {
                if Some(id) == trad {
                    continue;
                }
                let _ = emu.delete_region(&mut self.heap, id);
            }
            self.emu_owner.clear();
        }
        self.heap.unwind_regions();
    }
}

/// Executes one spawned task to completion: fresh interpreter (its own
/// isolated heap shard), a facet region standing in for the moved one, a
/// frame cloned from the captured values, the body, and an implicit join
/// of any tasks the body spawned. Runs on the spawning thread (inline
/// scheduler) or a scoped task thread (the other two) — the [`Gate`]
/// makes both paths take the same schedule-visible transitions.
#[allow(clippy::too_many_arguments)]
fn run_task<'c, 'scope, 'env>(
    c: &'c Compiled,
    config: &'c RunConfig,
    f: FuncRef,
    body: &'c [HStmt],
    mut captured: Vec<Value>,
    rvar: VarRef,
    gate: Gate,
    mut sched: SchedRecorder,
    spawn_site: u32,
    scope: Option<&'scope std::thread::Scope<'scope, 'env>>,
) -> TaskDone
where
    'c: 'scope,
{
    gate.start();
    // Stamp the start before the task heap exists (local 0): everything
    // between the spawn and here was time spent waiting to be scheduled.
    if gate.is_threads() {
        sched.stamp(0, SchedEventKind::SemaAdmit);
    }
    sched.stamp(0, SchedEventKind::TaskStart);
    let mut interp = Interp::new(c, config);
    interp.gate = gate;
    interp.sched = sched;
    interp.spawn_site = spawn_site;
    interp.scope = scope;
    let mut halt = interp.startup_fault.take().map(abort);
    if halt.is_none() {
        match interp.new_region(None) {
            Ok(v) => {
                interp.facet = Some(match interp.resolve_region(v).expect("fresh region") {
                    RtRegion::Real(r) => Facet::Real(r),
                    RtRegion::Emu(e) => Facet::Emu(e),
                });
                interp.facet_desc = v.addr();
                captured[rvar.0 as usize] = v;
                let n = captured.len();
                interp.stack = captured;
                interp.arrays = vec![None; n];
                interp.frames.push(0..n);
                halt = interp.exec_block(f, body).err();
                interp.frames.pop();
            }
            Err(h) => halt = Some(h),
        }
    }
    // A body that ends without `join` joins implicitly: nested tasks
    // never outlive their parent task.
    if let Err(h) = interp.join_children() {
        halt.get_or_insert(h);
    }
    if halt.as_ref().is_some_and(Halt::is_abort) && config.on_fault == OnFault::TrapAndUnwind {
        // Leave the shard audit-clean, like the root does before
        // reporting `Trapped`; the root converts the outcome.
        interp.unwind_after_fault();
    }
    // Seal the scheduler log (the `task_end` stamp) *before* releasing
    // the gate: sealing afterwards would race the next baton-holder's
    // stamps on the shared clock and break per-seed determinism.
    let cycles = interp.heap.clock.cycles();
    let sealed = std::mem::replace(&mut interp.sched, SchedRecorder::root()).finish(cycles);
    interp.sealed_sched = Some(sealed);
    interp.gate.finish();
    interp.into_task_done(halt)
}

/// Appends a joined child's shard subtree to the collecting task's list,
/// renumbering the child-local ids into the collector's space: the
/// collector is 0, already-collected shards are 1..=len, the child's
/// subtree lands right after. `from` links are child-local too and get
/// the same offset — except the child's own shard, whose `from` is the
/// collector (0). The scheme composes: when the collector is itself
/// collected, one more uniform offset fixes everything up, so after the
/// root's join the ids are the global DFS numbering, fixed entirely by
/// program order.
fn absorb_child_shards(dst: &mut Vec<Shard>, mut shards: Vec<Shard>, region: RegionId) {
    let base = dst.len() as u32 + 1;
    for (i, s) in shards.iter_mut().enumerate() {
        s.id.0 += base;
        s.handoff.to = s.id;
        if i == 0 {
            s.handoff.from = ShardId(0);
            s.handoff.region = region;
        } else {
            s.handoff.from.0 += base;
        }
    }
    dst.append(&mut shards);
}

/// The user-facing region number behind a descriptor, for error
/// payloads (emulated regions report their emu index).
fn region_number(rt: RtRegion) -> RegionId {
    match rt {
        RtRegion::Real(rid) => rid,
        RtRegion::Emu(eid) => RegionId(eid.0),
    }
}

/// A startup-image allocation: on failure, records the first fault and
/// yields NULL (`run_main` reports the fault before touching user code).
fn startup_alloc(heap: &mut Heap, fault: &mut Option<RtError>, ty: TypeId) -> Addr {
    match heap.m_alloc(ty, 1) {
        Ok(a) => a,
        Err(e) => {
            fault.get_or_insert(e);
            Addr::NULL
        }
    }
}

fn int(v: Value) -> i64 {
    match v {
        Value::Int(n) => n,
        _ => 0,
    }
}

fn slot_tag(s: SlotKind) -> u8 {
    match s {
        SlotKind::Data => 0,
        SlotKind::Ptr(PtrKind::Counted) => 1,
        SlotKind::Ptr(PtrKind::SameRegion) => 2,
        SlotKind::Ptr(PtrKind::ParentPtr) => 3,
        SlotKind::Ptr(PtrKind::Traditional) => 4,
        SlotKind::RegionHandle => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheckMode, RunConfig};

    fn go(src: &str, config: RunConfig) -> RunResult {
        let c = prepare(src).unwrap();
        let r = run_audited(&c, &config);
        if let Some(Err(e)) = &r.audit {
            panic!("audit failed: {e} (outcome {:?})", r.outcome);
        }
        r
    }

    fn exit_code(src: &str, config: RunConfig) -> i64 {
        let r = go(src, config);
        match r.outcome {
            Outcome::Exit(n) => n,
            other => panic!("program did not exit cleanly: {other:?}"),
        }
    }

    pub const FIG1: &str = r#"
        struct finfo { int sz; };
        struct rlist {
            struct rlist *sameregion next;
            struct finfo *sameregion data;
        };
        int main() deletes {
            struct rlist *rl;
            struct rlist *last = null;
            region r = newregion();
            int i;
            int total = 0;
            for (i = 0; i < 50; i = i + 1) {
                rl = ralloc(r, struct rlist);
                rl->data = ralloc(r, struct finfo);
                rl->data->sz = i;
                rl->next = last;
                last = rl;
            }
            while (last != null) {
                total = total + last->data->sz;
                last = last->next;
            }
            deleteregion(r);
            return total;
        }
    "#;

    #[test]
    fn figure1_runs_under_all_configurations() {
        let expected = (0..50).sum::<i64>();
        for (name, cfg) in RunConfig::figure7() {
            assert_eq!(exit_code(FIG1, cfg), expected, "config {name}");
        }
        for (name, cfg) in RunConfig::figure8() {
            assert_eq!(exit_code(FIG1, cfg), expected, "config {name}");
        }
    }

    #[test]
    fn figure1_inf_eliminates_all_checks() {
        let r = go(FIG1, RunConfig::rc(CheckMode::Inf));
        assert!(r.stats.assigns_safe > 0);
        assert_eq!(r.stats.checks_sameregion, 0, "all checks statically removed");
        let qs = go(FIG1, RunConfig::rc(CheckMode::Qs));
        assert!(qs.stats.checks_sameregion > 0, "qs executes the checks");
        assert!(qs.cycles >= r.cycles, "inf is no slower than qs");
        let nq = go(FIG1, RunConfig::rc(CheckMode::Nq));
        assert!(
            nq.stats.rc_cycles > qs.stats.rc_cycles,
            "ignoring annotations does more refcount work"
        );
    }

    #[test]
    fn unsafe_delete_aborts() {
        // A global keeps a counted pointer into the region: deletion must
        // fail under RC.
        let src = r#"
            struct t { int x; };
            struct t *keep;
            int main() deletes {
                region r = newregion();
                keep = ralloc(r, struct t);
                deleteregion(r);
                return 0;
            }
        "#;
        let c = prepare(src).unwrap();
        let r = run(&c, &RunConfig::rc_inf());
        assert!(
            matches!(r.outcome, Outcome::Aborted(RtError::DeleteWithLiveRefs { .. })),
            "{:?}",
            r.outcome
        );
        // With reference counting disabled the delete (unsafely) succeeds.
        let r2 = run(&c, &RunConfig::norc());
        assert!(r2.outcome.is_exit());
    }

    #[test]
    fn clearing_the_reference_allows_delete() {
        let src = r#"
            struct t { int x; };
            struct t *keep;
            int main() deletes {
                region r = newregion();
                keep = ralloc(r, struct t);
                keep = null;
                deleteregion(r);
                return 0;
            }
        "#;
        assert_eq!(exit_code(src, RunConfig::rc_inf()), 0);
    }

    #[test]
    fn sameregion_violation_aborts_under_qs() {
        let src = r#"
            struct t { struct t *sameregion next; };
            int main() {
                region a = newregion();
                region b = newregion();
                struct t *x = ralloc(a, struct t);
                struct t *y = ralloc(b, struct t);
                x->next = y;
                return 0;
            }
        "#;
        let c = prepare(src).unwrap();
        let r = run(&c, &RunConfig::rc(CheckMode::Qs));
        assert!(
            matches!(r.outcome, Outcome::Aborted(RtError::CheckFailed { kind: PtrKind::SameRegion, .. })),
            "{:?}",
            r.outcome
        );
        // nc removes the check: the bad store goes through (unsafe).
        let r2 = run(&c, &RunConfig::rc(CheckMode::Nc));
        assert!(r2.outcome.is_exit());
    }

    #[test]
    fn parentptr_violation_aborts() {
        let src = r#"
            struct t { struct t *parentptr up; };
            int main() {
                region a = newregion();
                region b = newregion();
                struct t *x = ralloc(a, struct t);
                struct t *y = ralloc(b, struct t);
                x->up = y;
                return 0;
            }
        "#;
        let c = prepare(src).unwrap();
        let r = run(&c, &RunConfig::rc(CheckMode::Qs));
        assert!(matches!(
            r.outcome,
            Outcome::Aborted(RtError::CheckFailed { kind: PtrKind::ParentPtr, .. })
        ));
    }

    #[test]
    fn parentptr_to_parent_is_ok() {
        let src = r#"
            struct t { struct t *parentptr up; };
            int main() deletes {
                region r = newregion();
                region sub = newsubregion(r);
                struct t *p = ralloc(r, struct t);
                struct t *c = ralloc(sub, struct t);
                c->up = p;
                assert(c->up != null);
                deleteregion(sub);
                deleteregion(r);
                return 7;
            }
        "#;
        assert_eq!(exit_code(src, RunConfig::rc(CheckMode::Qs)), 7);
    }

    #[test]
    fn subregion_order_enforced() {
        let src = r#"
            int main() deletes {
                region r = newregion();
                region sub = newsubregion(r);
                deleteregion(r);
                return 0;
            }
        "#;
        let c = prepare(src).unwrap();
        let r = run(&c, &RunConfig::rc_inf());
        assert!(matches!(r.outcome, Outcome::Aborted(RtError::DeleteWithSubregions { .. })));
    }

    #[test]
    fn deletes_pinning_protects_live_locals() {
        // f deletes its scratch region; the caller's live pointer into
        // another region is pinned and unpinned without incident, while a
        // live pointer into the *deleted* region makes the delete abort.
        let src = r#"
            struct t { int x; };
            static void cleanup(region r) deletes { deleteregion(r); }
            int main() deletes {
                region scratch = newregion();
                struct t *dangling = ralloc(scratch, struct t);
                cleanup(scratch);
                dangling->x = 1;
                return 0;
            }
        "#;
        let c = prepare(src).unwrap();
        let r = run(&c, &RunConfig::rc_inf());
        // dangling is live across the call → pinned → delete fails.
        assert!(
            matches!(r.outcome, Outcome::Aborted(RtError::DeleteWithLiveRefs { .. })),
            "{:?}",
            r.outcome
        );
        assert!(r.stats.local_pins > 0);
    }

    #[test]
    fn dead_locals_do_not_block_delete() {
        let src = r#"
            struct t { int x; };
            static void cleanup(region r) deletes { deleteregion(r); }
            int main() deletes {
                region scratch = newregion();
                struct t *tmp = ralloc(scratch, struct t);
                tmp->x = 3;
                cleanup(scratch);
                return 0;
            }
        "#;
        assert_eq!(exit_code(src, RunConfig::rc_inf()), 0);
    }

    #[test]
    fn regionof_and_subregions() {
        let src = r#"
            struct t { int x; };
            int main() deletes {
                region r = newregion();
                struct t *p = ralloc(r, struct t);
                assert(regionof(p) == r);
                struct t *q = ralloc(regionof(p), struct t);
                assert(regionof(q) == r);
                q = null;
                p = null;
                deleteregion(r);
                return 0;
            }
        "#;
        assert_eq!(exit_code(src, RunConfig::rc_inf()), 0);
    }

    #[test]
    fn arrays_and_globals_work() {
        let src = r#"
            struct t { int v; };
            struct t *cache[8];
            int hits;
            int main() deletes {
                region r = newregion();
                int i;
                for (i = 0; i < 8; i = i + 1) {
                    cache[i] = ralloc(r, struct t);
                    cache[i]->v = i * i;
                }
                for (i = 0; i < 8; i = i + 1) {
                    hits = hits + cache[i]->v;
                }
                for (i = 0; i < 8; i = i + 1) {
                    cache[i] = null;
                }
                deleteregion(r);
                return hits;
            }
        "#;
        let expected: i64 = (0..8).map(|i| i * i).sum();
        assert_eq!(exit_code(src, RunConfig::rc_inf()), expected);
        assert_eq!(exit_code(src, RunConfig::lea()), expected);
        assert_eq!(exit_code(src, RunConfig::gc()), expected);
    }

    #[test]
    fn int_arrays_round_trip() {
        let src = r#"
            int main() deletes {
                region r = newregion();
                int *a = rarrayalloc(r, 16, int);
                int i;
                int s = 0;
                for (i = 0; i < 16; i = i + 1) { a[i] = i; }
                for (i = 0; i < 16; i = i + 1) { s = s + a[i]; }
                a = null;
                deleteregion(r);
                return s;
            }
        "#;
        assert_eq!(exit_code(src, RunConfig::rc_inf()), 120);
    }

    #[test]
    fn struct_array_elements() {
        let src = r#"
            struct pt { int x; int y; };
            int main() deletes {
                region r = newregion();
                struct pt *ps = rarrayalloc(r, 5, struct pt);
                int i;
                for (i = 0; i < 5; i = i + 1) {
                    ps[i]->x = i;
                    ps[i]->y = 2 * i;
                }
                int s = ps[4]->x + ps[4]->y;
                ps = null;
                deleteregion(r);
                return s;
            }
        "#;
        assert_eq!(exit_code(src, RunConfig::rc_inf()), 12);
    }

    #[test]
    fn stack_arrays_are_per_call() {
        let src = r#"
            static int fill(int seed) {
                int buf[4];
                int i;
                for (i = 0; i < 4; i = i + 1) { buf[i] = seed + i; }
                return buf[3];
            }
            int main() {
                return fill(10) + fill(20);
            }
        "#;
        assert_eq!(exit_code(src, RunConfig::rc_inf()), 13 + 23);
    }

    #[test]
    fn gc_backend_collects_garbage() {
        let src = r#"
            struct t { int x; };
            int main() deletes {
                int i;
                for (i = 0; i < 5000; i = i + 1) {
                    region r = newregion();
                    struct t *p = ralloc(r, struct t);
                    p->x = i;
                    deleteregion(r);
                }
                return 0;
            }
        "#;
        let mut cfg = RunConfig::gc();
        cfg.gc_threshold_words = 2048;
        let r = go(src, cfg);
        assert!(r.outcome.is_exit());
        assert!(r.stats.gc_collections > 0, "collections must have run");
        assert!(r.stats.gc_swept_objects > 0);
    }

    #[test]
    fn lea_backend_frees_per_object() {
        let src = r#"
            struct t { int x; };
            int main() deletes {
                region r = newregion();
                int i;
                for (i = 0; i < 100; i = i + 1) {
                    struct t *p = ralloc(r, struct t);
                    p->x = i;
                }
                deleteregion(r);
                return 0;
            }
        "#;
        let r = go(src, RunConfig::lea());
        assert!(r.outcome.is_exit());
        assert_eq!(r.stats.free_calls, 100, "region emulation frees each object");
    }

    #[test]
    fn traditional_annotation_checked() {
        let src = r#"
            struct buf { int c; };
            struct holder { struct buf *traditional b; };
            int main() {
                region r = newregion();
                struct holder *h = ralloc(r, struct holder);
                struct buf *bad = ralloc(r, struct buf);
                h->b = bad;
                return 0;
            }
        "#;
        let c = prepare(src).unwrap();
        let r = run(&c, &RunConfig::rc(CheckMode::Qs));
        assert!(matches!(
            r.outcome,
            Outcome::Aborted(RtError::CheckFailed { kind: PtrKind::Traditional, .. })
        ));
    }

    #[test]
    fn cat_config_counts_everything() {
        let r_cat = go(FIG1, RunConfig::cat());
        let r_rc = go(FIG1, RunConfig::rc_inf());
        assert!(r_cat.outcome.is_exit());
        assert!(
            r_cat.stats.rc_cycles > r_rc.stats.rc_cycles,
            "C@ does strictly more refcount work ({} vs {})",
            r_cat.stats.rc_cycles,
            r_rc.stats.rc_cycles
        );
        assert!(r_cat.cycles > r_rc.cycles, "RC beats C@ end to end");
    }

    #[test]
    fn assert_failure_is_reported() {
        let src = "int main() { assert(1 == 2); return 0; }";
        let c = prepare(src).unwrap();
        let r = run(&c, &RunConfig::rc_inf());
        assert_eq!(r.outcome, Outcome::AssertFailed);
    }

    #[test]
    fn step_limit_halts_infinite_loops() {
        let src = "int main() { while (1) { } return 0; }";
        let c = prepare(src).unwrap();
        let mut cfg = RunConfig::rc_inf();
        cfg.step_limit = 10_000;
        let r = run(&c, &cfg);
        assert_eq!(r.outcome, Outcome::StepLimit);
    }

    #[test]
    fn deep_recursion_is_a_stack_overflow_even_when_trapping() {
        let src = r#"
            int down(int n) { if (n == 0) { return 0; } return down(n - 1) + 1; }
            int main() { return down(3000); }
        "#;
        let c = prepare(src).unwrap();
        for cfg in [RunConfig::default(), RunConfig::default().trapping()] {
            let r = run_audited(&c, &cfg);
            assert_eq!(r.outcome, Outcome::StackOverflow, "{:?}", cfg.on_fault);
            assert!(matches!(r.audit, Some(Ok(()))), "{:?}", r.audit);
        }
        // Within the limit the same program completes.
        let shallow = prepare(&src.replace("3000", "1000")).unwrap();
        assert_eq!(run(&shallow, &RunConfig::default()).outcome, Outcome::Exit(1000));
    }

    #[test]
    fn out_of_bounds_array_aborts() {
        let src = r#"
            int g[4];
            int main() { g[7] = 1; return 0; }
        "#;
        let c = prepare(src).unwrap();
        let r = run(&c, &RunConfig::rc_inf());
        assert!(matches!(r.outcome, Outcome::Aborted(RtError::WildPointer { .. })));
    }

    #[test]
    fn null_dereference_aborts() {
        let src = r#"
            struct t { int x; };
            int main() { struct t *p = null; return p->x; }
        "#;
        let c = prepare(src).unwrap();
        let r = run(&c, &RunConfig::rc_inf());
        assert!(matches!(r.outcome, Outcome::Aborted(RtError::WildPointer { .. })));
    }

    #[test]
    fn region_handles_in_structs() {
        let src = r#"
            struct env { region r; struct env *parent; };
            int main() deletes {
                region outer = newregion();
                struct env *top = ralloc(outer, struct env);
                top->r = newregion();
                struct env *inner = ralloc(top->r, struct env);
                inner->parent = top;
                inner->r = null;
                inner = null;
                deleteregion(top->r);
                top->parent = null;
                deleteregion(outer);
                return 0;
            }
        "#;
        let r = go(src, RunConfig::rc_inf());
        assert!(r.outcome.is_exit(), "{:?}", r.outcome);
    }

    #[test]
    fn recursion_works() {
        let src = r#"
            static int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            int main() { return fib(15); }
        "#;
        assert_eq!(exit_code(src, RunConfig::rc_inf()), 610);
    }

    #[test]
    fn cycles_within_a_region_are_free() {
        let src = r#"
            struct node { struct node *next; };
            int main() deletes {
                region r = newregion();
                struct node *a = ralloc(r, struct node);
                struct node *b = ralloc(r, struct node);
                a->next = b;
                b->next = a;
                a = null;
                b = null;
                deleteregion(r);
                return 0;
            }
        "#;
        assert_eq!(exit_code(src, RunConfig::rc_inf()), 0);
    }

    #[test]
    fn cross_region_cycle_blocks_until_broken() {
        let src = r#"
            struct node { struct node *next; };
            int main() deletes {
                region r1 = newregion();
                region r2 = newregion();
                struct node *a = ralloc(r1, struct node);
                struct node *b = ralloc(r2, struct node);
                a->next = b;
                b->next = a;
                a = null;
                b = null;
                deleteregion(r1);
                return 0;
            }
        "#;
        let c = prepare(src).unwrap();
        let r = run(&c, &RunConfig::rc_inf());
        assert!(
            matches!(r.outcome, Outcome::Aborted(RtError::DeleteWithLiveRefs { .. })),
            "cross-region cycles must be broken by the programmer first: {:?}",
            r.outcome
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::config::RunConfig;
    use region_rt::{FaultMode, FaultPlan, FaultPlane};

    #[test]
    fn injected_alloc_fault_aborts_by_default() {
        let c = prepare(super::tests::FIG1).unwrap();
        let cfg = RunConfig::rc_inf()
            .with_faults(FaultPlan::new().fail_alloc(FaultMode::Schedule(vec![10])).sticky());
        let r = run(&c, &cfg);
        assert!(
            matches!(r.outcome, Outcome::Aborted(RtError::OutOfMemory)),
            "{:?}",
            r.outcome
        );
        let report = r.faults.expect("armed plan yields a report");
        assert_eq!(report.first().unwrap().plane, FaultPlane::Alloc);
        assert_eq!(report.first().unwrap().op, 10);
    }

    #[test]
    fn trap_and_unwind_leaves_the_heap_audit_clean() {
        let c = prepare(super::tests::FIG1).unwrap();
        for (name, base) in RunConfig::figure7() {
            let cfg = base
                .trapping()
                .with_faults(FaultPlan::new().fail_alloc(FaultMode::Schedule(vec![10])).sticky());
            let r = run_audited(&c, &cfg);
            assert!(
                matches!(r.outcome, Outcome::Trapped(RtError::OutOfMemory)),
                "config {name}: {:?}",
                r.outcome
            );
            assert!(matches!(r.audit, Some(Ok(()))), "config {name}: {:?}", r.audit);
        }
    }

    #[test]
    fn organic_page_exhaustion_traps_too() {
        let c = prepare(super::tests::FIG1).unwrap();
        let cfg = RunConfig::rc_inf().trapping().with_page_budget(1);
        let r = run_audited(&c, &cfg);
        assert!(
            matches!(r.outcome, Outcome::Trapped(RtError::OutOfMemory)),
            "{:?}",
            r.outcome
        );
        assert!(matches!(r.audit, Some(Ok(()))));
        assert!(r.faults.is_none(), "no arms were installed");
    }

    #[test]
    fn startup_fault_is_reported_not_panicked() {
        let src = r#"
            int g[8];
            int main() { return g[0]; }
        "#;
        let c = prepare(src).unwrap();
        // Fail the very first allocation: the globals block itself.
        let cfg = RunConfig::rc_inf()
            .with_faults(FaultPlan::new().fail_alloc(FaultMode::Schedule(vec![1])).sticky());
        let r = run(&c, &cfg);
        assert!(
            matches!(r.outcome, Outcome::Aborted(RtError::OutOfMemory)),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn rc_saturation_fault_traps_cleanly() {
        let c = prepare(super::tests::FIG1).unwrap();
        // Under nq every pointer store is a counted store, so the
        // RcSaturate plane sees every barrier crossing.
        let cfg = RunConfig::rc(CheckMode::Nq)
            .trapping()
            .with_faults(FaultPlan::new().saturate_rc(FaultMode::Schedule(vec![3])).sticky());
        let r = run_audited(&c, &cfg);
        assert!(
            matches!(r.outcome, Outcome::Trapped(RtError::RcOverflow { .. })),
            "{:?}",
            r.outcome
        );
        assert!(matches!(r.audit, Some(Ok(()))), "{:?}", r.audit);
    }

    #[test]
    fn check_fault_surfaces_as_a_failed_check() {
        let c = prepare(super::tests::FIG1).unwrap();
        let cfg = RunConfig::rc(CheckMode::Qs)
            .trapping()
            .with_faults(FaultPlan::new().fail_checks(FaultMode::Schedule(vec![1])).sticky());
        let r = run_audited(&c, &cfg);
        assert!(
            matches!(r.outcome, Outcome::Trapped(RtError::CheckFailed { .. })),
            "{:?}",
            r.outcome
        );
        assert!(matches!(r.audit, Some(Ok(()))), "{:?}", r.audit);
    }

    #[test]
    fn disarmed_plan_changes_nothing() {
        let c = prepare(super::tests::FIG1).unwrap();
        let plain = run(&c, &RunConfig::rc_inf());
        let armed = run(&c, &RunConfig::rc_inf().with_faults(FaultPlan::new()));
        assert_eq!(plain.outcome, armed.outcome);
        assert_eq!(plain.cycles, armed.cycles, "empty plan must not perturb the clock");
        assert!(armed.faults.is_none());
    }
}

#[cfg(test)]
mod frame_tests {
    use super::*;
    use crate::config::RunConfig;
    use region_rt::{FaultMode, FaultPlan};

    /// The GC root set is exactly the framed variables: an argument that
    /// is still pending while a later argument's call collects is not a
    /// root (one extra root word would move `gc_marked_words` and the
    /// cycle count).
    #[test]
    fn pending_arguments_are_not_gc_roots() {
        let src = r#"
            struct t { int x; };
            static int churn(region r) {
                int i;
                for (i = 0; i < 300; i = i + 1) {
                    struct t *q = ralloc(r, struct t);
                    q->x = i;
                }
                return i;
            }
            static int f(struct t *p, int n) { p->x = n; return p->x; }
            int main() deletes {
                region r = newregion();
                int s = f(ralloc(r, struct t), churn(r));
                deleteregion(r);
                return s;
            }
        "#;
        let c = prepare(src).unwrap();
        let mut cfg = RunConfig::gc();
        cfg.gc_threshold_words = 64;
        let r = run_audited(&c, &cfg);
        assert_eq!(r.outcome, Outcome::Exit(300));
        let got = (r.stats.gc_collections, r.stats.gc_marked_words, r.stats.rc_cycles, r.cycles);
        assert_eq!(got, (4, 1304, 0, 19152));
    }

    /// C@'s `deleteregion` stack scan counts the framed variables only:
    /// `p`, pending as `f`'s first argument while `g` deletes a region,
    /// is counted once (as `main`'s local), not twice.
    #[test]
    fn pending_arguments_are_not_scanned_by_cat_deleteregion() {
        let src = r#"
            struct t { int x; };
            static int f(struct t *p, int n) { p->x = n; return n; }
            static int g(region r) deletes { deleteregion(r); return 1; }
            int main() deletes {
                region r1 = newregion();
                region r2 = newregion();
                struct t *p = ralloc(r1, struct t);
                int s = f(p, g(r2));
                p = null;
                deleteregion(r1);
                return s;
            }
        "#;
        let c = prepare(src).unwrap();
        let r = run_audited(&c, &RunConfig::cat());
        assert_eq!(r.outcome, Outcome::Exit(1));
        let got = (r.stats.gc_collections, r.stats.gc_marked_words, r.stats.rc_cycles, r.cycles);
        assert_eq!(got, (0, 0, 42, 705));
    }

    /// A fault allocating a call's second stack array frees the first:
    /// only the globals block and the traditional descriptor stay live.
    #[test]
    fn faulting_stack_array_allocation_frees_earlier_arrays() {
        let src = r#"
            int f() { int a[4]; int b[4]; a[0] = 1; b[0] = 2; return a[0] + b[0]; }
            int main() { return f(); }
        "#;
        let c = prepare(src).unwrap();
        assert_eq!(run_audited(&c, &RunConfig::rc_inf()).stats.live_words, 2);
        // Allocation 3 is `a`, allocation 4 is `b`.
        for op in [3, 4] {
            let cfg = RunConfig::rc_inf()
                .trapping()
                .with_faults(FaultPlan::new().fail_alloc(FaultMode::Schedule(vec![op])).sticky());
            let r = run_audited(&c, &cfg);
            assert_eq!(r.outcome, Outcome::Trapped(RtError::OutOfMemory), "fault at {op}");
            assert!(matches!(r.audit, Some(Ok(()))), "fault at {op}: {:?}", r.audit);
            assert_eq!(r.stats.live_words, 2, "fault at {op}");
        }
    }

    /// The frame that overflows the stack frees its stack arrays.
    #[test]
    fn stack_overflow_frees_the_overflowing_frames_arrays() {
        let src = r#"
            int f(int n) {
                int a[4];
                a[0] = n;
                if (n == 0) { return 0; }
                return f(n - 1) + a[0];
            }
            int main() { return f(2500); }
        "#;
        let c = prepare(src).unwrap();
        let r = run_audited(&c, &RunConfig::rc_inf());
        assert_eq!(r.outcome, Outcome::StackOverflow);
        assert!(matches!(r.audit, Some(Ok(()))), "{:?}", r.audit);
        assert_eq!(r.stats.live_words, 2);
        let shallow = prepare(&src.replace("2500", "25")).unwrap();
        let r = run_audited(&shallow, &RunConfig::rc_inf());
        assert!(r.outcome.is_exit(), "{:?}", r.outcome);
        assert_eq!(r.stats.live_words, 2);
    }
}

#[cfg(test)]
mod delete_semantics_tests {
    use super::*;
    use crate::config::{DeleteSemantics, RunConfig};

    /// A program whose deleteregion fails while a global still points in,
    /// clears the global, then retries.
    const RETRY: &str = r#"
        struct t { int x; };
        struct t *keep;
        int main() deletes {
            region r = newregion();
            keep = ralloc(r, struct t);
            int first = deleteregion(r);
            keep = null;
            int second = deleteregion(r);
            return first * 10 + second;
        }
    "#;

    #[test]
    fn abort_semantics_abort() {
        let c = prepare(RETRY).unwrap();
        let r = run(&c, &RunConfig::rc_inf());
        assert!(matches!(r.outcome, Outcome::Aborted(RtError::DeleteWithLiveRefs { .. })));
    }

    #[test]
    fn fail_semantics_return_a_code() {
        let c = prepare(RETRY).unwrap();
        let mut cfg = RunConfig::rc_inf();
        cfg.delete_semantics = DeleteSemantics::Fail;
        let r = run(&c, &cfg);
        // First delete fails (1), second succeeds (0).
        assert_eq!(r.outcome, Outcome::Exit(10), "{:?}", r.outcome);
    }

    #[test]
    fn deferred_semantics_reclaim_when_clear() {
        let src = r#"
            struct t { int x; };
            struct t *keep;
            int main() deletes {
                region r = newregion();
                keep = ralloc(r, struct t);
                int status = deleteregion(r);   // doomed, not freed
                keep->x = 42;                   // still safely usable!
                int v = keep->x;
                keep = null;                    // last ref: reclaimed now
                return v + status;
            }
        "#;
        let c = prepare(src).unwrap();
        let mut cfg = RunConfig::rc_inf();
        cfg.delete_semantics = DeleteSemantics::Deferred;
        let r = run_audited(&c, &cfg);
        assert_eq!(r.outcome, Outcome::Exit(42), "{:?}", r.outcome);
        assert_eq!(r.stats.regions_deferred, 1);
        assert_eq!(r.stats.regions_deleted, 1, "reclaimed once the global cleared");
        assert!(matches!(r.audit, Some(Ok(()))));
    }

    #[test]
    fn deferred_still_detects_wild_access_after_reclaim() {
        // Once the count hits zero and the region is reclaimed, a stale
        // *uncounted* access (via a dangling handle idiom) is caught by
        // the simulated heap rather than corrupting silently.
        let src = r#"
            struct t { int x; };
            int main() deletes {
                region r = newregion();
                struct t *p = ralloc(r, struct t);
                p->x = 1;
                int unused = deleteregion(r);
                return 0;
            }
        "#;
        let c = prepare(src).unwrap();
        let mut cfg = RunConfig::rc_inf();
        cfg.delete_semantics = DeleteSemantics::Deferred;
        let r = run_audited(&c, &cfg);
        // p is dead at the delete, so the region is reclaimed immediately.
        assert!(r.outcome.is_exit());
        assert_eq!(r.stats.regions_deleted, 1);
    }
}

#[cfg(test)]
mod spawn_tests {
    use super::*;
    use crate::config::{RunConfig, SchedMode};

    fn go(src: &str, config: RunConfig) -> RunResult {
        let c = prepare(src).unwrap();
        let r = run_audited(&c, &config);
        if let Some(Err(e)) = &r.audit {
            panic!("audit failed: {e} (outcome {:?})", r.outcome);
        }
        r
    }

    /// Every scheduler the task machinery supports, with a few seeds and
    /// worker counts.
    fn all_scheds() -> Vec<(&'static str, SchedMode)> {
        vec![
            ("inline", SchedMode::Inline),
            ("det-1", SchedMode::Deterministic { seed: 1 }),
            ("det-42", SchedMode::Deterministic { seed: 42 }),
            ("threads-1", SchedMode::Threads { workers: 1 }),
            ("threads-4", SchedMode::Threads { workers: 4 }),
        ]
    }

    const SPAWN_TWO: &str = r#"
        struct cell { int v; struct cell *sameregion next; };
        int main() deletes {
            region a = newregion();
            region b = newregion();
            int n = 40;
            spawn a {
                struct cell *head = null;
                int i;
                i = 0;
                while (i < n) {
                    struct cell *c = ralloc(a, struct cell);
                    c->v = i;
                    c->next = head;
                    head = c;
                    i = i + 1;
                }
            }
            spawn b {
                struct cell *p = ralloc(b, struct cell);
                p->v = n;
            }
            join;
            deleteregion(a);
            deleteregion(b);
            return n;
        }
    "#;

    #[test]
    fn spawn_runs_under_every_scheduler_with_identical_reports() {
        let mut results = Vec::new();
        for (name, sched) in all_scheds() {
            let r = go(SPAWN_TWO, RunConfig::rc_inf().with_sched(sched));
            assert_eq!(r.outcome, Outcome::Exit(40), "sched {name}");
            assert_eq!(r.handoffs.len(), 2, "sched {name}");
            assert_eq!(r.handoffs[0].seq, 0);
            assert_eq!(r.handoffs[1].seq, 1);
            assert_eq!(r.handoffs[0].from, region_rt::ShardId::ROOT);
            results.push((name, r));
        }
        let (base_name, base) = &results[0];
        for (name, r) in &results[1..] {
            assert_eq!(
                r.stats, base.stats,
                "stats must be schedule-invariant ({name} vs {base_name})"
            );
            assert_eq!(r.cycles, base.cycles, "{name} vs {base_name}");
            assert_eq!(r.steps, base.steps, "{name} vs {base_name}");
            assert_eq!(
                r.stats.parallel_invariant_key().render(),
                base.stats.parallel_invariant_key().render()
            );
        }
    }

    #[test]
    fn task_reports_fold_to_the_merged_view_under_every_scheduler() {
        let mut structural = Vec::new();
        for (name, sched) in all_scheds() {
            let r = go(SPAWN_TWO, RunConfig::rc_inf().with_sched(sched));
            assert_eq!(r.task_reports.len(), r.handoffs.len() + 1, "sched {name}");
            assert!(r.task_reports[0].is_root(), "sched {name}");
            // The merged report is exactly the in-order fold of the
            // per-task facets.
            let folded = r
                .task_reports
                .iter()
                .skip(1)
                .fold(r.task_reports[0].stats.clone(), |acc, t| acc.merge(&t.stats));
            assert_eq!(folded, r.stats, "sched {name}");
            assert_eq!(
                r.task_reports.iter().map(|t| t.cycles).sum::<u64>(),
                r.cycles,
                "sched {name}"
            );
            assert_eq!(
                r.task_reports.iter().map(|t| t.steps).sum::<u64>(),
                r.steps,
                "sched {name}"
            );
            assert_eq!(r.stats.sched_spawns, 2, "sched {name}");
            assert_eq!(r.stats.sched_joins, 1, "sched {name}");
            for t in &r.task_reports {
                assert!(t.sched.balanced(), "sched {name} task {}: {:?}", t.id.0, t.sched);
            }
            // Tasks carry their spawn site; the root has none.
            assert_eq!(r.task_reports[0].spawn_site, 0);
            assert!(r.task_reports.iter().skip(1).all(|t| t.spawn_site > 0), "sched {name}");
            // Work/span come from structural events only, so the
            // critical path is schedule-invariant too.
            let cp = region_rt::critpath::analyze(&r.task_reports)
                .unwrap_or_else(|e| panic!("sched {name}: {e}"));
            assert_eq!(cp.work, r.cycles, "sched {name}");
            assert!(cp.span <= cp.work, "sched {name}");
            let longest = r.task_reports.iter().map(|t| t.cycles).max().unwrap_or(0);
            assert!(cp.span >= longest, "sched {name}");
            structural.push((
                name,
                cp.work,
                cp.span,
                cp.path.iter().map(region_rt::PathSeg::to_json).map(|j| j.render()).collect::<Vec<_>>(),
            ));
        }
        let base = &structural[0];
        for s in &structural[1..] {
            assert_eq!((&s.1, &s.2, &s.3), (&base.1, &base.2, &base.3), "{} vs {}", s.0, base.0);
        }
    }

    #[test]
    fn task_reports_are_byte_deterministic_per_seed() {
        let render = |r: &RunResult| {
            r.task_reports.iter().map(|t| t.to_json().render()).collect::<Vec<_>>().join("\n")
        };
        let a = go(SPAWN_TWO, RunConfig::rc_inf().det_sched(42));
        let b = go(SPAWN_TWO, RunConfig::rc_inf().det_sched(42));
        assert_eq!(render(&a), render(&b), "same seed, same per-task reports");
        // A different seed interleaves differently (different baton
        // traffic) but the structural identities still hold.
        let c = go(SPAWN_TWO, RunConfig::rc_inf().det_sched(7));
        assert_eq!(c.stats, a.stats);
        assert_eq!(c.cycles, a.cycles);
    }

    #[test]
    fn per_task_timelines_fold_to_the_merged_timeline() {
        let cfg = RunConfig::rc_inf().det_sched(11).sampled();
        let r = go(SPAWN_TWO, cfg);
        let merged = r.timeline.as_ref().expect("sampling was on");
        let mut folded: Option<Box<region_rt::Timeline>> = None;
        for t in &r.task_reports {
            let tl = t.timeline.as_ref().expect("every task samples");
            match &mut folded {
                Some(acc) => acc.merge(tl),
                None => folded = Some(tl.clone()),
            }
        }
        let folded = folded.expect("at least the root task");
        assert_eq!(folded.to_json().render(), merged.to_json().render());
    }

    #[test]
    fn spawn_free_runs_carry_no_task_reports() {
        let r = go(
            "int main() { return 3; }",
            RunConfig::rc_inf().det_sched(1),
        );
        assert!(r.task_reports.is_empty());
        assert_eq!(r.stats.sched_spawns, 0);
        assert_eq!(r.stats.sched_joins, 0);
    }

    #[test]
    fn spawn_runs_under_every_figure7_backend() {
        for (name, cfg) in RunConfig::figure7() {
            let r = go(SPAWN_TWO, cfg.det_sched(7));
            assert_eq!(r.outcome, Outcome::Exit(40), "backend {name}");
            assert_eq!(r.handoffs.len(), 2, "backend {name}");
        }
    }

    #[test]
    fn touching_a_moved_region_aborts_with_region_moved() {
        let src = r#"
            struct t { int x; };
            int main() deletes {
                region r = newregion();
                int n = 500;
                spawn r {
                    struct t *q = ralloc(r, struct t);
                    int i;
                    i = 0;
                    while (i < n) { i = i + 1; }
                }
                struct t *p = ralloc(r, struct t);
                join;
                return 0;
            }
        "#;
        for (name, sched) in all_scheds() {
            let r = go(src, RunConfig::rc_inf().with_sched(sched));
            assert!(
                matches!(r.outcome, Outcome::Aborted(RtError::RegionMoved { .. })),
                "sched {name}: {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn deleting_and_subregioning_a_moved_region_also_abort() {
        for body in ["deleteregion(r);", "region s = newsubregion(r);"] {
            let src = format!(
                r#"
                struct t {{ int x; }};
                int main() deletes {{
                    region r = newregion();
                    spawn r {{ struct t *q = ralloc(r, struct t); }}
                    {body}
                    join;
                    return 0;
                }}
            "#
            );
            let r = go(&src, RunConfig::rc_inf());
            assert!(
                matches!(r.outcome, Outcome::Aborted(RtError::RegionMoved { .. })),
                "{body}: {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn child_deleting_its_facet_deletes_the_parents_original() {
        let src = r#"
            struct t { int x; };
            int main() deletes {
                region r = newregion();
                spawn r {
                    struct t *p = ralloc(r, struct t);
                    p->x = 1;
                    deleteregion(r);
                }
                join;
                return 0;
            }
        "#;
        for (name, sched) in all_scheds() {
            let r = go(src, RunConfig::rc_inf().with_sched(sched));
            assert_eq!(r.outcome, Outcome::Exit(0), "sched {name}");
            // Both the facet (child shard) and the original (root heap)
            // are gone: two region deletions in the merged stats.
            assert_eq!(r.stats.regions_deleted, 2, "sched {name}");
        }
    }

    #[test]
    fn child_failure_propagates_at_join() {
        let src = r#"
            int main() {
                region r = newregion();
                int n = 3;
                spawn r { assert(n > 5); }
                join;
                return 0;
            }
        "#;
        for (name, sched) in all_scheds() {
            let c = prepare(src).unwrap();
            let r = run(&c, &RunConfig::rc_inf().with_sched(sched));
            assert_eq!(r.outcome, Outcome::AssertFailed, "sched {name}");
        }
    }

    #[test]
    fn program_end_joins_implicitly() {
        let src = r#"
            int main() {
                region r = newregion();
                int n = 3;
                spawn r { assert(n > 5); }
                return 0;
            }
        "#;
        let c = prepare(src).unwrap();
        for (name, sched) in all_scheds() {
            let r = run(&c, &RunConfig::rc_inf().with_sched(sched));
            assert_eq!(r.outcome, Outcome::AssertFailed, "sched {name}");
            assert_eq!(r.handoffs.len(), 1, "the shard is still collected");
        }
    }

    #[test]
    fn nested_spawn_collects_shards_in_dfs_order() {
        let src = r#"
            struct t { int x; };
            int main() deletes {
                region outer = newregion();
                spawn outer {
                    struct t *p = ralloc(outer, struct t);
                    region inner = newsubregion(outer);
                    spawn inner {
                        struct t *q = ralloc(inner, struct t);
                        q->x = 5;
                    }
                    join;
                    p->x = 1;
                }
                join;
                deleteregion(outer);
                return 0;
            }
        "#;
        for (name, sched) in all_scheds() {
            let r = go(src, RunConfig::rc_inf().with_sched(sched));
            assert_eq!(r.outcome, Outcome::Exit(0), "sched {name}");
            assert_eq!(r.handoffs.len(), 2, "sched {name}");
            // DFS: the outer task is shard 1 (spawned by the root), the
            // nested task shard 2 (spawned by shard 1).
            assert_eq!(r.handoffs[0].from, region_rt::ShardId::ROOT);
            assert_eq!(r.handoffs[0].to, region_rt::ShardId(1));
            assert_eq!(r.handoffs[1].from, region_rt::ShardId(1));
            assert_eq!(r.handoffs[1].to, region_rt::ShardId(2));
        }
    }

    #[test]
    fn telemetry_merges_across_shards() {
        let cfg = RunConfig::rc(CheckMode::Qs)
            .det_sched(11)
            .with_spans()
            .traced()
            .sampled()
            .counting_checks();
        let r = go(SPAWN_TWO, cfg);
        assert_eq!(r.outcome, Outcome::Exit(40));
        let spans = r.spans.as_ref().expect("spans on");
        spans.structurally_well_formed().expect("merged span tree is well-formed");
        let profile = r.profile().expect("tracing on");
        assert!(profile.totals.allocs >= 41, "both shards' allocs folded in");
        assert!(r.timeline.is_some());
        // The merged report is identical to the inline scheduler's.
        let inline_r = go(
            SPAWN_TWO,
            RunConfig::rc(CheckMode::Qs).with_spans().traced().sampled().counting_checks(),
        );
        assert_eq!(r.stats, inline_r.stats);
        assert_eq!(r.cycles, inline_r.cycles);
    }
}
