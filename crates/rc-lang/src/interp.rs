//! The RC interpreter.
//!
//! Executes a checked [`Module`] against the `region-rt` substrate under a
//! [`RunConfig`]. This plays the role of the RC-to-C compiler plus the
//! compiled binary in the paper's setup: every heap pointer store goes
//! through the Figure 3 write barriers, `deletes` calls pin the regions of
//! live locals, and all dynamic events land in the shared
//! [`region_rt::Stats`] / virtual clock from which the evaluation's tables
//! and figures are computed.
//!
//! Sema lowers every function body and `spawn` body once to flat code
//! ([`Code`]). The interpreter runs that code on an explicit operand and
//! frame stack kept per task, one driver loop per host thread: an RC call
//! pushes a frame, and the loop switches tasks itself. Under the inline
//! scheduler a task runs to its end inside the loop before its spawner
//! resumes; under the deterministic one the loop interleaves the tasks,
//! a slice at a time, round-robin. No RC construct nests host frames, so a
//! run needs no big host stack, and only the thread scheduler starts
//! threads.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use region_rt::{
    audit_all, Addr, EmuBackend, EmuRegionId, EmuRegions, Facet, FaultReport, Handoff, Heap,
    HeapConfig, PtrKind, RegionId, RtError, SchedEventKind, SchedLog, SchedRecorder, Shard,
    ShardId, SlotKind, SnapshotReason, Stats, TaskReport, TypeId, TypeLayout, WriteMode,
};
use rlang::SiteId;

use crate::ast::Qual;
use crate::config::{Backend, CheckMode, DeleteSemantics, OnFault, RunConfig, SchedMode};
use crate::hir::*;
use crate::liveness::{pin_sets, PinSets};
use crate::parallel::{RoundRobin, Semaphore, Slices};

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

    /// The stable tag of the variant: `exit`, `trapped`, `aborted`,
    /// `assert-failed`, `step-limit` or `stack-overflow`.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Exit(_) => "exit",
            Outcome::Trapped(_) => "trapped",
            Outcome::Aborted(_) => "aborted",
            Outcome::AssertFailed => "assert-failed",
            Outcome::StepLimit => "step-limit",
            Outcome::StackOverflow => "stack-overflow",
        }
    }

    /// The runtime error of a trapped or aborted run.
    pub fn error(&self) -> Option<&RtError> {
        match self {
            Outcome::Trapped(e) | Outcome::Aborted(e) => Some(e),
            _ => None,
        }
    }

    /// A schedule- and allocator-independent key: `exit:N`,
    /// `abort:<kind>`, `trap:<kind>` or the [`tag`](Self::tag). An error
    /// keeps only its kind, since its addresses and region ids differ
    /// across backends.
    pub fn key(&self) -> String {
        match self {
            Outcome::Exit(code) => format!("exit:{code}"),
            Outcome::Aborted(e) => format!("abort:{}", e.kind_name()),
            Outcome::Trapped(e) => format!("trap:{}", e.kind_name()),
            _ => self.tag().to_string(),
        }
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
    /// Per-site check-outcome tallies, when [`RunConfig::count_checks`]
    /// or [`RunConfig::spans`] was on: how often each annotated store's
    /// check ran and how often it failed (or, when counting, would have
    /// fired).
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
    /// one span per region with its exact alloc/RC/check aggregates,
    /// already verified against the heap's region table (see
    /// [`region_rt::SpanTree::verification`]). The run's raw events are
    /// in [`RunResult::tracer`] and its per-site check tallies in
    /// [`RunResult::check_counts`].
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
    /// virtual clock, and — when sampling was on — the task's own
    /// timeline. The merged telemetry above is exactly the in-order fold
    /// of these. Empty for programs without tasks.
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
    // The run stays on the caller's thread. Only the thread scheduler runs
    // tasks on threads of their own, in a scope that joins every one
    // before the result leaves this function.
    match config.sched {
        SchedMode::Threads { workers } => {
            let sem = Semaphore::new(workers);
            std::thread::scope(|scope| run_root(c, config, audit, Some(Pool { scope, sem: &sem })))
        }
        _ => run_root(c, config, audit, None),
    }
}

fn run_root<'c, 'scope, 'env>(
    c: &'c Compiled,
    config: &'c RunConfig,
    audit: bool,
    pool: Option<Pool<'scope, 'env>>,
) -> RunResult
where
    'c: 'scope,
{
    let mut interp = Box::new(Interp::new(c, config));
    interp.pool = pool;
    if let Some(pool) = pool {
        pool.sem.acquire();
        interp.sched.stamp(0, SchedEventKind::SemaAdmit);
    }
    // A program may end (or abort) with tasks still outstanding; the
    // driver loop joins them, so every shard is collected and no task
    // thread outlives the run. The root's own failure wins; otherwise the
    // earliest-spawned failed task decides the outcome, exactly as an
    // explicit `join` would have.
    let outcome = Interp::run_main(&mut interp);
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
    let root_sched = std::mem::replace(&mut interp.sched, SchedRecorder::root())
        .finish(interp.heap.clock.cycles());
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
            timeline: None, // patched from the root's taken timeline below
        });
        for s in &mut interp.shards {
            task_reports.push(TaskReport {
                id: s.id,
                parent: s.handoff.from,
                seq: s.handoff.seq,
                region: s.handoff.region,
                spawn_site: s.spawn_site,
                cycles: s.heap.clock.cycles(),
                steps: s.steps,
                stats: s.heap.stats.clone(),
                sched: std::mem::take(&mut s.sched),
                timeline: s.timeline.clone(),
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

/// Why [`Interp::run_code`] stopped inside an instruction: a halt, or
/// the end of the task's det slice, which parks the task at `pc`.
enum Stop {
    Halt(Halt),
    Slice,
}

impl From<Halt> for Stop {
    fn from(h: Halt) -> Stop {
        Stop::Halt(h)
    }
}

/// Deepest call nesting before a run ends [`Outcome::StackOverflow`]. A
/// task counts on from the depth of the frame that spawned it, so a chain
/// of spawns that recurses is capped like plain recursion.
const MAX_FRAMES: usize = 2_000;

/// What a region descriptor designates.
#[derive(Debug, Clone, Copy)]
enum RtRegion {
    Real(RegionId),
    Emu(EmuRegionId),
}

/// What a finished task hands back to its parent: how the body ended
/// (`None` = clean) and its shard subtree — own shard first, then nested
/// tasks' shards in DFS order, with ids local to this task.
#[derive(Default)]
struct TaskDone {
    halt: Option<Halt>,
    shards: Vec<Shard>,
}

enum TaskState<'scope> {
    /// Run by the driver loop (inline or deterministic scheduler): its
    /// place in the loop's table.
    Driven(usize),
    /// Running on a scoped thread (thread scheduler).
    Thread(std::thread::ScopedJoinHandle<'scope, TaskDone>),
}

/// The thread scheduler's share of a run: the scope task threads spawn
/// on, and the semaphore that admits running tasks.
#[derive(Clone, Copy)]
struct Pool<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    sem: &'scope Semaphore,
}

/// An outstanding spawned task, from the parent's side.
struct ChildTask<'scope> {
    /// Parent-space descriptor of the moved region (answers
    /// [`RtError::RegionMoved`] until the join).
    region_desc: Addr,
    /// Parent-space region number, recorded in the [`Handoff`].
    region_id: RegionId,
    state: TaskState<'scope>,
}

/// A map keyed by heap address.
type AddrMap<V> = HashMap<Addr, V, BuildHasherDefault<AddrHasher>>;

/// A multiply-rotate hasher for the address-keyed maps, which the runtime
/// consults on every `ralloc` and fills on every lea or GC allocation.
/// Addresses are not chosen by an adversary, and no code iterates these
/// maps, so the order it gives them shows in no output.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// The product's well-mixed high half lands in the low bits, which
    /// pick the bucket.
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
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
    desc_map: AddrMap<RtRegion>,
    desc_of_real: Vec<Addr>,
    /// Owner of each emu allocation (for `regionof` under lea/GC).
    emu_owner: AddrMap<Addr>, // object -> descriptor
    /// The globals block.
    globals_obj: Addr,
    /// Base address and length of each global array.
    global_arrays: Vec<Option<(Addr, u32)>>,
    /// Cache of stack-array layouts, by type name and slot kind.
    stack_types: HashMap<(String, u8), TypeId>,
    /// Each stack array's layout, by function and variable: what
    /// `stack_types` gave it on its function's first call.
    stack_type_of: HashMap<(FuncRef, u32), TypeId>,
    /// Descriptor for the traditional region (`traditionalregion()`).
    trad_desc: Addr,
    /// The operand stack, which also holds every frame's variables: a
    /// call's arguments are evaluated onto the top and framed in place,
    /// so calls allocate nothing.
    stack: Vec<Value>,
    /// The stack-array base of each framed variable, at its `stack`
    /// position (`None` for scalars and for pending arguments).
    arrays: Vec<Option<Addr>>,
    /// The frame stack, outermost first. The framed variables, frame by
    /// frame, are the GC roots and C@'s stack-scan slots; operands in
    /// flight, pending arguments included, sit outside every frame.
    frames: Vec<Frame>,
    /// Start of the innermost frame in `stack`.
    base: usize,
    /// The function running in the innermost frame.
    func: FuncRef,
    /// The next instruction to run, in [`Code`]; the driver loop keeps
    /// it in a local while it runs and stores it here whenever it leaves.
    pc: usize,
    /// Regions pinned for `deletes` calls in progress, in pinning order;
    /// each frame releases its part when it is popped.
    pins: Vec<RegionId>,
    /// Call depth below this task's first frame: its spawner's depth for a
    /// task, 0 at the root.
    depth_base: usize,
    steps: u64,
    /// `config.step_limit`, with 0 (no limit) as `u64::MAX`.
    step_cap: u64,
    /// `config.costs.base_op`, charged on every step.
    base_op: u64,
    /// No step below this one meets the step cap or ends the det slice,
    /// so [`Interp::charge`] may take steps at once up to it. It never
    /// exceeds `step_cap + 1` or the slice's last step, and lags behind
    /// them (0 at the start) until a step at or past it moves it up.
    bound: u64,
    /// Steps the instruction at `pc` still owes, when a det slice ended
    /// among them.
    owed: Option<u32>,
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
    /// Where children's threads spawn, under the thread scheduler.
    pool: Option<Pool<'scope, 'env>>,
    /// This task's slice stream, under the deterministic scheduler; only
    /// a step at or past `bound` reads it.
    slices: Option<Slices>,
    /// This task's scheduler-event recorder on the run's shared virtual
    /// clock (`start_task` installs a child recorder for spawned tasks).
    sched: SchedRecorder,
    /// Source line of the `spawn` that created this task (0 at root).
    spawn_site: u32,
    /// Descriptors of regions currently handed off to running tasks;
    /// every handle-level touch answers [`RtError::RegionMoved`] until
    /// the join returns ownership.
    moved: HashSet<Addr, BuildHasherDefault<AddrHasher>>,
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
        // A span run's per-site check tallies come from the counter too.
        if config.count_checks || config.spans {
            heap.enable_check_counting();
        }
        if config.spans {
            heap.enable_spans();
        }
        // Arm the fault planes before the startup allocations so those are
        // fault-eligible too (reported via `startup_fault`, not a panic).
        if !config.faults.is_empty() {
            heap.install_faults(&config.faults);
        }
        let mut startup_fault = None;
        let slices = Slices::of(config.sched, 0);

        let mut layouts = Vec::new();
        for s in &c.module.structs {
            let slots = s.fields.iter().map(|f| slot_kind(config, f.ty)).collect();
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
            .map(|g| if g.array_len.is_some() { SlotKind::Data } else { slot_kind(config, g.ty) })
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
                        vec![slot_kind(config, g.ty); n as usize],
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
        let mut desc_map = AddrMap::default();
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
            emu_owner: AddrMap::default(),
            globals_obj,
            global_arrays,
            stack_types: HashMap::new(),
            stack_type_of: HashMap::new(),
            trad_desc,
            stack: Vec::new(),
            arrays: Vec::new(),
            frames: Vec::new(),
            base: 0,
            func: c.module.main,
            pc: 0,
            pins: Vec::new(),
            depth_base: 0,
            steps: 0,
            step_cap: if config.step_limit == 0 { u64::MAX } else { config.step_limit },
            base_op: config.costs.base_op,
            bound: 0,
            owed: None,
            startup_fault,
            observing: config.trace
                || config.sample_interval != 0
                || config.spans
                || config.snapshots,
            snapshots: Vec::new(),
            pool: None,
            slices,
            sched: SchedRecorder::root(),
            spawn_site: 0,
            moved: HashSet::default(),
            children: Vec::new(),
            shards: Vec::new(),
            facet_desc: Addr::NULL,
            facet: None,
            facet_dead: false,
        }
    }

    fn run_main(this: &mut Box<Self>) -> Outcome {
        let halt = match this.startup_fault.take() {
            Some(e) => Some(abort(e)),
            None => this.enter(this.c.module.main, 0, 0, 0).err(),
        };
        match Interp::drive(this, Resume::Start(halt)) {
            Ok(Value::Int(n)) => Outcome::Exit(n),
            Ok(_) => Outcome::Exit(0),
            Err(h) => halt_outcome(h),
        }
    }

    /// Runs this task to its end, its implicit join included, and with it
    /// every task it spawns under the inline and deterministic schedulers.
    ///
    /// The tasks the loop is not running wait in its table, in spawn
    /// order, each with how it resumes; [`RoundRobin`] picks the next one
    /// whenever a task parks. A task parks when its det slice ends, at a
    /// `join` (or at its end) with children, and, under the inline
    /// scheduler, at a `spawn`: it then waits on its child, which so runs
    /// to its end at once. A det spawner keeps its turn. Every task, this
    /// one included, is a boxed `Interp`, so a switch swaps two pointers,
    /// not two interpreters. Under the thread scheduler children run on
    /// threads of their own, so only this task is here, and a join waits
    /// for them on the spot. No RC construct nests host frames, and no det
    /// or inline run starts a thread.
    fn drive(this: &mut Box<Self>, start: Resume) -> Result<Value, Halt> {
        let mut turns = RoundRobin::default();
        let mut table: Vec<Parked<'c, 'scope, 'env>> = vec![Parked::Empty];
        let mut cur = 0;
        let mut exit = this.resume(start, &mut table);
        loop {
            let how = match exit {
                Exit::Spawn(spawned) => {
                    let Spawned { start, region_desc, region_id } = *spawned;
                    let id = turns.spawn(cur);
                    let (mut task, halt) = start_task(this.c, this.config, start, None);
                    task.slices = Slices::of(this.config.sched, id);
                    table.push(Parked::Ready(task, Resume::Start(halt)));
                    let state = TaskState::Driven(id);
                    this.children.push(ChildTask { region_desc, region_id, state });
                    if this.slices.is_some() {
                        exit = this.exec();
                        continue;
                    }
                    turns.block(cur);
                    Resume::Run
                }
                Exit::Slice => Resume::Slice,
                Exit::Join => Resume::Join,
                Exit::Done(res) if !this.children.is_empty() => Resume::End(res),
                Exit::Done(res) => {
                    // The task has ended. The task this loop was called
                    // for ends last, when no other is left to run.
                    turns.finish(cur);
                    let next = turns.next(cur);
                    let Some((mut task, how)) = take_parked(&mut table, next, cur) else {
                        debug_assert_eq!(cur, 0, "a task ended with no task left to run");
                        return res;
                    };
                    let halt = res.err();
                    let sched = this.end_task(&halt);
                    std::mem::swap(this, &mut task);
                    table[cur] = Parked::Done(task.into_task_done(halt, sched));
                    cur = next;
                    exit = this.resume(how, &mut table);
                    continue;
                }
            };
            if let Resume::Join | Resume::End(_) = how {
                this.begin_join();
                if this.pool.is_some() {
                    exit = this.resume(how, &mut table);
                    continue;
                }
                // A join always passes the turn, even when every child
                // has already ended.
                turns.block(cur);
            }
            let next = turns.next(cur);
            exit = match take_parked(&mut table, next, cur) {
                Some((mut task, next_how)) => {
                    std::mem::swap(this, &mut task);
                    table[cur] = Parked::Ready(task, how);
                    cur = next;
                    this.resume(next_how, &mut table)
                }
                None => this.resume(how, &mut table),
            };
        }
    }

    /// Goes on with a task that [`Interp::drive`] gave the turn.
    fn resume(&mut self, how: Resume, table: &mut [Parked<'c, 'scope, 'env>]) -> Exit {
        match how {
            Resume::Start(halt) => {
                self.sched.stamp(0, SchedEventKind::TaskStart);
                match halt {
                    Some(h) => {
                        self.unwind();
                        Exit::Done(Err(h))
                    }
                    None => self.exec(),
                }
            }
            Resume::Run => self.exec(),
            Resume::Slice => {
                if let Some(s) = &mut self.slices {
                    let slice = s.grant(self.steps);
                    self.sched
                        .stamp(self.heap.clock.cycles(), SchedEventKind::BatonAcquire { slice });
                }
                // The step that ended the slice meets the cap only now.
                if self.steps > self.step_cap {
                    self.unwind();
                    return Exit::Done(Err(Halt::new(HaltKind::StepLimit)));
                }
                self.exec()
            }
            Resume::Join => match self.end_join(table) {
                Ok(()) => self.exec(),
                Err(h) => {
                    self.unwind();
                    Exit::Done(Err(h))
                }
            },
            // The task's own halt wins over its children's.
            Resume::End(res) => {
                let joined = self.end_join(table);
                Exit::Done(res.and_then(|v| joined.map(|()| v)))
            }
        }
    }

    /// Runs this task's code from `pc` until it has to leave the driver
    /// loop's hands. A halt first unwinds every frame, innermost first.
    fn exec(&mut self) -> Exit {
        match self.run_code() {
            Ok(exit) => exit,
            Err(Stop::Slice) => Exit::Slice,
            Err(Stop::Halt(h)) => {
                self.unwind();
                Exit::Done(Err(h))
            }
        }
    }

    /// One interpreter step, the unit [`Interp::charge`] counts in. Every
    /// evaluated node, every statement and every `while` back-edge takes
    /// exactly one, in evaluation order: det slices and timeline samples
    /// are counted in steps. Steps arrive in batches; this one-at-a-time
    /// form runs only for an instruction among whose steps the step cap,
    /// the end of the det slice or a timeline sample falls. A step that
    /// ends the task's det slice stops it with [`Stop::Slice`], and meets
    /// the step cap only when the task runs again.
    #[inline(always)]
    fn step(&mut self) -> Result<(), Stop> {
        self.steps += 1;
        self.heap.clock.charge(self.base_op);
        // Drive the timeline sampler from the step counter so snapshots
        // land at regular points in program execution even when the
        // runtime is idle (one branch when sampling is off).
        self.heap.sample_tick();
        if self.steps >= self.bound {
            return self.at_bound();
        }
        Ok(())
    }

    /// A step at or past `bound`: the deterministic scheduler's preemption
    /// point and the step cap. Ends the det slice or halts at the cap when
    /// this step meets either; otherwise moves `bound` up to the nearer of
    /// the two. Out of line and cold so that [`Interp::step`] stays small.
    #[cold]
    #[inline(never)]
    fn at_bound(&mut self) -> Result<(), Stop> {
        if let Some(ran) = self.slices.as_ref().and_then(|s| s.ends_at(self.steps)) {
            // The task parks, and stamps its next slice's `baton_acquire`
            // when it runs again.
            self.sched.stamp(self.heap.clock.cycles(), SchedEventKind::BatonRelease { ran });
            return Err(Stop::Slice);
        }
        if self.steps > self.step_cap {
            return Err(Halt::new(HaltKind::StepLimit).into());
        }
        let slice_end = self.slices.as_ref().map_or(u64::MAX, Slices::end);
        self.bound = self.step_cap.saturating_add(1).min(slice_end);
        Ok(())
    }

    /// `n` steps, as [`Interp::step`] would take them one by one. They
    /// are taken at once, in one compare against `bound` and one against
    /// the sampler's countdown, unless the step cap, the end of the det
    /// slice or a timeline sample may fall among them; only then do they
    /// go one at a time, for this instruction alone. When a step ends the
    /// det slice, the instruction resumes with only the steps it still
    /// owes, which `owed` keeps (the slice's end left `bound` behind, so
    /// the resumed instruction goes one at a time too).
    #[inline(always)]
    fn charge(&mut self, n: u32) -> Result<(), Stop> {
        let n64 = u64::from(n);
        if self.steps + n64 < self.bound && self.heap.sample_ticks(n64) {
            self.steps += n64;
            self.heap.clock.charge(self.base_op * n64);
            return Ok(());
        }
        self.charge_each(n)
    }

    /// [`Interp::charge`]'s step-by-step path.
    #[cold]
    #[inline(never)]
    fn charge_each(&mut self, n: u32) -> Result<(), Stop> {
        let mut left = self.owed.take().unwrap_or(n);
        while left != 0 {
            left -= 1;
            if let Err(stop) = self.step() {
                self.owed = Some(left);
                return Err(stop);
            }
        }
        Ok(())
    }

    fn func(&self, f: FuncRef) -> &'c HFunc {
        &self.c.module.funcs[f.0 as usize]
    }

    /// `Call`: pins the regions of the caller's live pointer locals when
    /// `f` is `deletes`, then enters `f` on the `nargs` arguments on top
    /// of the stack; the callee resumes the caller at `ret`.
    fn call(&mut self, f: FuncRef, nargs: usize, pin: u32, ret: usize) -> Result<(), Halt> {
        let pins = self.pins.len();
        if self.func(f).deletes {
            let pinned = self.pin_live(pin);
            self.pins.extend(pinned);
        }
        self.enter(f, self.stack.len() - nargs, ret, pins)
    }

    /// Frames the values at `stack[base..]` as `f`'s arguments with its
    /// locals after them, allocates its stack arrays in the traditional
    /// region, checks the depth, and points `pc` at its body. A halt here
    /// leaves the new frame for [`Interp::unwind`] to pop.
    fn enter(&mut self, f: FuncRef, base: usize, ret: usize, pins: usize) -> Result<(), Halt> {
        let c: &'c Compiled = self.c;
        let func = self.func(f);
        let frame = c.module.code.frame(f);
        // Sema checks arity; a mismatch would drop extra arguments and
        // default missing ones.
        let nargs = (self.stack.len() - base).min(func.params.len());
        self.stack.truncate(base + nargs);
        self.stack.extend_from_slice(&frame.defaults[nargs..]);
        self.arrays.resize(self.stack.len(), None);
        let end = self.stack.len();
        self.frames.push(Frame { base, end, func: f, ret, pins, arrays: frame.arrays });
        self.base = base;
        self.func = f;
        if frame.arrays {
            for (i, v) in func.params.iter().chain(&func.locals).enumerate() {
                if let Some(n) = v.array_len {
                    let ty = self.stack_array_type(f, i as u32, v, n);
                    self.arrays[base + i] = Some(self.heap.m_alloc(ty, 1).map_err(abort)?);
                }
            }
        }
        if self.depth_base + self.frames.len() > MAX_FRAMES {
            return Err(Halt::new(HaltKind::StackOverflow));
        }
        self.pc = self.c.module.code.entry(f);
        Ok(())
    }

    /// `Return`: pops the innermost frame and hands `v` to the caller.
    /// Returns `v` back when that was the task's outermost frame.
    fn leave(&mut self, v: Value) -> Option<Value> {
        if let Some(fr) = self.frames.pop() {
            self.pop_frame(&fr);
            if let Some(caller) = self.frames.last() {
                self.base = caller.base;
                self.func = caller.func;
                self.pc = fr.ret;
                self.stack.push(v);
                return None;
            }
        }
        Some(v)
    }

    /// Pops every frame, innermost first, as a halt leaves them.
    fn unwind(&mut self) {
        while let Some(fr) = self.frames.pop() {
            self.pop_frame(&fr);
        }
    }

    /// Frees a popped frame's stack arrays, drops its values, then
    /// releases the `deletes` pins its caller took for it.
    fn pop_frame(&mut self, fr: &Frame) {
        if fr.arrays {
            for a in self.arrays.drain(fr.base..).flatten() {
                // Ignore errors during unwinding: the halt outcome wins.
                let _ = self.heap.m_free(a);
            }
        } else {
            self.arrays.truncate(fr.base);
        }
        self.stack.truncate(fr.base);
        for rid in self.pins.drain(fr.pins..) {
            self.heap.unpin_region(rid);
        }
    }

    /// The layout of variable `v` of function `f`, a stack array of `n`
    /// elements, registered on first use. Later calls find it without
    /// building its name.
    fn stack_array_type(&mut self, f: FuncRef, v: u32, var: &HVar, n: u32) -> TypeId {
        if let Some(&id) = self.stack_type_of.get(&(f, v)) {
            return id;
        }
        // Cache layouts by name so repeated calls do not bloat the type
        // table.
        let key_name = format!("__stk_{}_{}", var.name, n);
        let slot = slot_kind(self.config, var.ty);
        let key = (key_name.clone(), slot_tag(slot));
        let id = match self.stack_types.get(&key) {
            Some(&id) => id,
            None => {
                let id = self.heap.register_type(TypeLayout::new(key_name, vec![slot; n as usize]));
                self.stack_types.insert(key, id);
                id
            }
        };
        self.stack_type_of.insert((f, v), id);
        id
    }

    /// The driver loop proper: runs instructions from `pc`, charging each
    /// one's steps before its operation, until the task ends, spawns a
    /// task the loop runs, ends its det slice, or joins children the loop
    /// runs.
    fn run_code(&mut self) -> Result<Exit, Stop> {
        let c: &'c Compiled = self.c;
        let code = &c.module.code.ops[..];
        let mut pc = self.pc;
        loop {
            let ins = &code[pc];
            pc += 1;
            if ins.steps != 0 {
                if let Err(stop) = self.charge(ins.steps) {
                    self.pc = pc - 1;
                    return Err(stop);
                }
            }
            match ins.op {
                Op::Push(v) => self.stack.push(v),
                Op::Local(v) => {
                    let x = self.stack[self.base + v as usize];
                    self.stack.push(x);
                }
                Op::SetLocal(v) => {
                    let x = self.top();
                    self.heap.stats.assigns_local += 1;
                    self.stack[self.base + v as usize] = x;
                }
                Op::Store(v) => {
                    let x = self.pop();
                    self.heap.stats.assigns_local += 1;
                    self.stack[self.base + v as usize] = x;
                }
                Op::Global { g, ty } => {
                    let raw = self.heap.read_word(self.globals_obj, g as usize).map_err(abort)?;
                    self.stack.push(Value::from_raw(ty, raw));
                }
                Op::SetGlobal { g, ty, site } => {
                    let x = self.top();
                    self.write_slot(self.globals_obj, g as usize, x, ty, site)?;
                }
                Op::StoreGlobal { g, ty, site } => {
                    let x = self.pop();
                    self.write_slot(self.globals_obj, g as usize, x, ty, site)?;
                }
                Op::NonNull => {
                    nonnull(self.top())?;
                }
                Op::Field { field, ty } => {
                    let addr = nonnull(self.pop())?;
                    let raw = self.heap.read_word(addr, field as usize).map_err(abort)?;
                    self.stack.push(Value::from_raw(ty, raw));
                }
                Op::LocalField { v, field, ty } => {
                    let addr = nonnull(self.stack[self.base + v as usize])?;
                    let raw = self.heap.read_word(addr, field as usize).map_err(abort)?;
                    self.stack.push(Value::from_raw(ty, raw));
                }
                Op::SetField { field, ty, site } => {
                    let x = self.pop();
                    let obj = self.pop().addr();
                    self.write_slot(obj, field as usize, x, ty, site)?;
                    self.stack.push(x);
                }
                Op::StoreField { field, ty, site } => {
                    let x = self.pop();
                    let obj = self.pop().addr();
                    self.write_slot(obj, field as usize, x, ty, site)?;
                }
                Op::LocalArray(v) => match self.arrays[self.base + v as usize] {
                    Some(a) => self.stack.push(Value::Ptr(a)),
                    None => return Err(abort(RtError::WildPointer { addr: Addr::NULL }).into()),
                },
                Op::GlobalArray(g) => match self.global_arrays[g as usize] {
                    Some((a, _)) => self.stack.push(Value::Ptr(a)),
                    None => return Err(abort(RtError::WildPointer { addr: Addr::NULL }).into()),
                },
                Op::Index(len) => {
                    index_in(self.top(), len)?;
                }
                Op::Slot { len, ty } => {
                    let i = index_in(self.pop(), len)?;
                    let addr = self.pop().addr();
                    let raw = self.heap.read_word(addr, i).map_err(abort)?;
                    self.stack.push(Value::from_raw(ty, raw));
                }
                Op::SetSlot { ty, site } => {
                    let x = self.pop();
                    let i = int(self.pop()) as usize;
                    let addr = self.pop().addr();
                    self.write_slot(addr, i, x, ty, site)?;
                    self.stack.push(x);
                }
                Op::NonNeg => {
                    if int(self.top()) < 0 {
                        let addr = self.stack[self.stack.len() - 2].addr();
                        return Err(abort(RtError::WildPointer { addr }).into());
                    }
                }
                Op::Elem { size } => {
                    let i = int(self.pop());
                    let addr = self.pop().addr();
                    if i < 0 {
                        return Err(abort(RtError::WildPointer { addr }).into());
                    }
                    self.stack.push(Value::Ptr(addr.offset(i as usize * size as usize)));
                }
                Op::IntElem => {
                    let i = int(self.pop());
                    let addr = self.pop().addr();
                    if i < 0 {
                        return Err(abort(RtError::WildPointer { addr }).into());
                    }
                    let raw = self.heap.read_word(addr, i as usize).map_err(abort)?;
                    self.stack.push(Value::Int(raw as i64));
                }
                Op::SetIntElem => {
                    let x = self.pop();
                    let i = int(self.pop()) as usize;
                    let addr = self.pop().addr();
                    self.heap.write_int(addr, i, x.raw()).map_err(abort)?;
                    self.stack.push(x);
                }
                Op::StoreIntElem => {
                    let x = self.pop();
                    let i = int(self.pop()) as usize;
                    let addr = self.pop().addr();
                    self.heap.write_int(addr, i, x.raw()).map_err(abort)?;
                }
                Op::Bin(op) => {
                    let r = self.pop();
                    let l = self.pop();
                    self.stack.push(binary(op, l, r));
                }
                Op::BinL(op, b) => {
                    let r = self.stack[self.base + b as usize];
                    let l = self.pop();
                    self.stack.push(binary(op, l, r));
                }
                Op::BinK(op, k) => {
                    let l = self.pop();
                    self.stack.push(binary(op, l, Value::Int(k)));
                }
                Op::BinLL(op, a, b) => {
                    let l = self.stack[self.base + a as usize];
                    let r = self.stack[self.base + b as usize];
                    self.stack.push(binary(op, l, r));
                }
                Op::BinLK(op, a, k) => {
                    let l = self.stack[self.base + a as usize];
                    self.stack.push(binary(op, l, Value::Int(k)));
                }
                Op::Un(op) => {
                    let v = self.pop();
                    self.stack.push(match op {
                        crate::ast::UnOp::Neg => match v {
                            Value::Int(n) => Value::Int(n.wrapping_neg()),
                            _ => Value::Int(0),
                        },
                        crate::ast::UnOp::Not => Value::Int(i64::from(!v.truthy())),
                    });
                }
                Op::And(end) => {
                    let v = self.pop();
                    if !v.truthy() {
                        self.stack.push(Value::Int(0));
                        pc = end as usize;
                    }
                }
                Op::Or(end) => {
                    let v = self.pop();
                    if v.truthy() {
                        self.stack.push(Value::Int(1));
                        pc = end as usize;
                    }
                }
                Op::Truth => {
                    let v = self.pop();
                    self.stack.push(Value::Int(i64::from(v.truthy())));
                }
                Op::Call { f, nargs, pin } => {
                    self.call(f, nargs as usize, pin, pc)?;
                    pc = self.pc;
                }
                Op::Ralloc { s, line } => {
                    let r = self.pop();
                    self.set_site(line);
                    let v = self.alloc(r, self.layouts[s as usize], 1)?;
                    self.stack.push(v);
                }
                Op::RallocStructs { s, line } => {
                    let n = int(self.pop()).max(1) as u32;
                    let r = self.pop();
                    self.set_site(line);
                    let v = self.alloc(r, self.layouts[s as usize], n)?;
                    self.stack.push(v);
                }
                Op::RallocInts { line } => {
                    let n = int(self.pop()).max(1) as u32;
                    let r = self.pop();
                    self.set_site(line);
                    let v = self.alloc(r, self.int_cell, n)?;
                    self.stack.push(v);
                }
                Op::NewRegion => {
                    let v = self.new_region(None)?;
                    self.stack.push(v);
                }
                Op::TraditionalRegion => self.stack.push(Value::Region(self.trad_desc)),
                Op::NewSubregion => {
                    let p = self.pop();
                    let v = self.new_region(Some(p))?;
                    self.stack.push(v);
                }
                Op::DeleteRegion(pin) => {
                    let rv = self.pop();
                    let pinned = self.pin_live(pin);
                    let res = self.delete_region(rv);
                    self.unpin(pinned);
                    let code = match res {
                        Ok(()) => 0,
                        // The paper's second option: "simply return a
                        // failure code from deleteregion when its use
                        // would be unsafe."
                        Err(halt)
                            if self.config.delete_semantics == DeleteSemantics::Fail
                                && halt.is_delete_failure() =>
                        {
                            1
                        }
                        Err(halt) => return Err(halt.into()),
                    };
                    self.stack.push(Value::Int(code));
                }
                Op::RegionOf => {
                    let addr = nonnull(self.pop())?;
                    let desc = self.descriptor_of(addr)?;
                    self.stack.push(Value::Region(desc));
                }
                Op::Assert => {
                    if !self.pop().truthy() {
                        return Err(Halt::new(HaltKind::AssertFailed).into());
                    }
                    self.stack.push(Value::Int(0));
                }
                Op::Pop => {
                    self.stack.pop();
                }
                Op::Jump(to) => pc = to as usize,
                Op::JumpIfFalse(to) => {
                    if !self.pop().truthy() {
                        pc = to as usize;
                    }
                }
                Op::JumpIfTrue(to) => {
                    if self.pop().truthy() {
                        pc = to as usize;
                    }
                }
                Op::Return => {
                    let v = self.pop();
                    if let Some(v) = self.leave(v) {
                        return Ok(Exit::Done(Ok(v)));
                    }
                    pc = self.pc;
                }
                Op::ReturnVoid => {
                    if let Some(v) = self.leave(Value::Int(0)) {
                        return Ok(Exit::Done(Ok(v)));
                    }
                    pc = self.pc;
                }
                Op::Spawn { rvar, line, body } => {
                    self.pc = pc;
                    if let Some(task) = self.spawn(VarRef(rvar), line, body as usize)? {
                        return Ok(Exit::Spawn(task));
                    }
                }
                Op::Join => {
                    if !self.children.is_empty() {
                        self.pc = pc;
                        return Ok(Exit::Join);
                    }
                }
                Op::TaskEnd => {
                    // The task's own frame holds no arrays and no pins.
                    self.unwind();
                    return Ok(Exit::Done(Ok(Value::Int(0))));
                }
                Op::BinLKJump { op, a, k, to, when } => {
                    let l = self.stack[self.base + a as usize];
                    if binary(op, l, Value::Int(k)).truthy() == when {
                        pc = to as usize;
                    }
                }
                Op::BinLJump { op, b, to, when } => {
                    let r = self.stack[self.base + b as usize];
                    let l = self.pop();
                    if binary(op, l, r).truthy() == when {
                        pc = to as usize;
                    }
                }
                Op::BinKJump { op, k, to, when } => {
                    let l = self.pop();
                    if binary(op, l, Value::Int(k)).truthy() == when {
                        pc = to as usize;
                    }
                }
                Op::BinJump { op, to, when } => {
                    let r = self.pop();
                    let l = self.pop();
                    if binary(op, l, r).truthy() == when {
                        pc = to as usize;
                    }
                }
                Op::BinLKStore { op, a, k, dst } => {
                    let l = self.stack[self.base + a as usize];
                    self.heap.stats.assigns_local += 1;
                    self.stack[self.base + dst as usize] = binary(op, l, Value::Int(k));
                }
                Op::BinLStore { op, b, dst } => {
                    let r = self.stack[self.base + b as usize];
                    let l = self.pop();
                    self.heap.stats.assigns_local += 1;
                    self.stack[self.base + dst as usize] = binary(op, l, r);
                }
                Op::BinKStore { op, k, dst } => {
                    let l = self.pop();
                    self.heap.stats.assigns_local += 1;
                    self.stack[self.base + dst as usize] = binary(op, l, Value::Int(k));
                }
                Op::LocalFieldStore { v, field, ty, dst } => {
                    let addr = nonnull(self.stack[self.base + v as usize])?;
                    let raw = self.heap.read_word(addr, field as usize).map_err(abort)?;
                    self.heap.stats.assigns_local += 1;
                    self.stack[self.base + dst as usize] = Value::from_raw(ty, raw);
                }
                Op::LocalFieldNonNull { v, field, ty } => {
                    let addr = nonnull(self.stack[self.base + v as usize])?;
                    let raw = self.heap.read_word(addr, field as usize).map_err(abort)?;
                    let x = Value::from_raw(ty, raw);
                    nonnull(x)?;
                    self.stack.push(x);
                }
            }
        }
    }

    /// The operand on top of the stack.
    #[inline(always)]
    fn top(&self) -> Value {
        self.stack.last().copied().unwrap_or(Value::Int(0))
    }

    /// Pops the operand on top of the stack (lowered code never pops an
    /// empty stack).
    #[inline(always)]
    fn pop(&mut self) -> Value {
        self.stack.pop().unwrap_or(Value::Int(0))
    }

    /// `spawn r { ... }`: moves `r`'s region to a new task that runs the
    /// body at `body` against a fresh heap shard. Under the thread
    /// scheduler the task starts on a scoped thread, admitted by the
    /// semaphore; otherwise it is returned for the driver loop to run.
    /// Either way the task's effects reach the parent only at join, as a
    /// [`Shard`].
    fn spawn(
        &mut self,
        rvar: VarRef,
        line: u32,
        body: usize,
    ) -> Result<Option<Box<Spawned>>, Halt> {
        self.set_site(line);
        let rv = self.stack[self.base + rvar.0 as usize];
        // Null, dangling and already-moved handles all refuse here, with
        // the same error in every scheduler mode.
        let rt = self.resolve_region(rv)?;
        let region_desc = rv.addr();
        if region_desc == self.trad_desc {
            // The traditional region backs the globals block and every
            // activation's stack arrays; it cannot be handed off.
            return Err(abort(RtError::WildPointer { addr: region_desc }));
        }
        let region_id = region_number(rt);
        self.moved.insert(region_desc);
        // Stamp the spawn before the child's recorder is born, so its
        // wait to start is measured from the spawn point.
        self.heap.stats.sched_spawns += 1;
        let nth = self.sched.spawns() as u32;
        self.sched.stamp(self.heap.clock.cycles(), SchedEventKind::Spawn { nth });
        let start = TaskStart {
            func: self.func,
            body,
            captured: self.capture_frame(rvar),
            rvar,
            sched: self.sched.child(),
            spawn_site: line,
            // The task's frame stands at the depth of the one spawning it.
            depth_base: self.depth_base + self.frames.len() - 1,
        };
        let Some(pool) = self.pool else {
            return Ok(Some(Box::new(Spawned { start, region_desc, region_id })));
        };
        let (c, config) = (self.c, self.config);
        let handle = std::thread::Builder::new()
            .name("rc-task".into())
            .spawn_scoped(pool.scope, move || run_task(c, config, start, pool))
            .expect("spawning a task thread");
        let state = TaskState::Thread(handle);
        self.children.push(ChildTask { region_desc, region_id, state });
        Ok(None)
    }

    /// Builds the value snapshot a task starts from: int scalars are
    /// copied, the spawned region variable is a placeholder the task
    /// replaces with its facet handle, and every other slot is nulled —
    /// sema guarantees the body never reads those.
    fn capture_frame(&self, rvar: VarRef) -> Vec<Value> {
        let func = self.func(self.func);
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

    /// The start of a `join` with children (or of the implicit join at a
    /// task's end): the wait is stamped, and under the thread scheduler
    /// the permit is given back so the children can run. The join is a
    /// program point under every scheduler, so the wait is stamped even
    /// where nothing blocks (inline), and event pairing is
    /// schedule-invariant.
    fn begin_join(&mut self) {
        self.heap.stats.sched_joins += 1;
        let pending = self.children.len() as u32;
        self.sched.stamp(self.heap.clock.cycles(), SchedEventKind::JoinWaitBegin { pending });
        if let Some(pool) = self.pool {
            self.sched.stamp(self.heap.clock.cycles(), SchedEventKind::SemaBlock);
            pool.sem.release();
        }
    }

    /// The rest of the join, once the driver loop's children have ended:
    /// takes each child's [`TaskDone`] from `table`, or from its thread,
    /// returns region ownership to this task, and absorbs the tasks'
    /// shards in spawn order. The earliest-spawned failure propagates;
    /// region returns happen for all children regardless, so telemetry
    /// and audits stay complete.
    fn end_join(&mut self, table: &mut [Parked<'c, 'scope, 'env>]) -> Result<(), Halt> {
        let children = std::mem::take(&mut self.children);
        let collected: Vec<(Addr, RegionId, TaskDone)> = children
            .into_iter()
            .map(|ch| {
                let done = match ch.state {
                    // The loop resumes a join only once every child has
                    // ended, so the default is never taken.
                    TaskState::Driven(id) => match std::mem::take(&mut table[id]) {
                        Parked::Done(d) => d,
                        _ => {
                            debug_assert!(false, "joined task {id} has not ended");
                            TaskDone::default()
                        }
                    },
                    TaskState::Thread(h) => match h.join() {
                        Ok(d) => d,
                        Err(payload) => std::panic::resume_unwind(payload),
                    },
                };
                (ch.region_desc, ch.region_id, done)
            })
            .collect();
        if let Some(pool) = self.pool {
            pool.sem.acquire();
            self.sched.stamp(self.heap.clock.cycles(), SchedEventKind::SemaAdmit);
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
    /// this task's own heap and its sealed scheduler log `sched`, then the
    /// already-collected nested shards.
    fn into_task_done(mut self, halt: Option<Halt>, sched: SchedLog) -> TaskDone {
        self.heap.sample_now();
        let _ = self.heap.seal_spans();
        let spans = self.heap.take_spans();
        let tracer = self.heap.take_tracer();
        let timeline = self.heap.take_timeline();
        let facet = self.facet.unwrap_or(Facet::Real(RegionId(0)));
        let mut shards = Vec::with_capacity(1 + self.shards.len());
        shards.push(Shard {
            id: ShardId(0),
            handoff: Handoff { seq: 0, from: ShardId(0), to: ShardId(0), region: RegionId(0) },
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
            RcType::Int => self.heap.write_int(obj, field, val.raw()).map_err(abort),
            _ => {
                let qual = slot_ty.qual().unwrap_or(Qual::None);
                let mode = self.write_mode(qual, site);
                if self.observing {
                    let line = self.c.module.site_lines.get(site.0 as usize).copied().unwrap_or(0);
                    self.heap.set_trace_site(line);
                }
                if self.config.count_checks || self.config.spans {
                    self.heap.set_check_site(site.0);
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
                            RtRegion::Real(prid) => self.heap.new_subregion(prid).map_err(abort)?,
                            RtRegion::Emu(_) => {
                                return Err(abort(RtError::WildPointer { addr: p.addr() }))
                            }
                        }
                    }
                };
                self.set_descriptor(rid, desc);
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
            let region =
                self.desc_map.get(&desc).copied().map(region_number).unwrap_or(RegionId(0));
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
                        .flat_map(|fr| &self.stack[fr.base..fr.end])
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
        self.set_descriptor(rid, desc);
        self.desc_map.insert(desc, RtRegion::Real(rid));
        Ok(desc)
    }

    /// Records `desc` as real region `rid`'s descriptor.
    fn set_descriptor(&mut self, rid: RegionId, desc: Addr) {
        let i = rid.0 as usize;
        if self.desc_of_real.len() <= i {
            self.desc_of_real.resize(i + 1, Addr::NULL);
        }
        self.desc_of_real[i] = desc;
    }

    fn maybe_collect(&mut self) {
        if self.config.backend != Backend::Gc || !self.heap.gc_should_collect() {
            return;
        }
        let mut roots: Vec<u64> = Vec::new();
        for fr in &self.frames {
            roots.extend(self.stack[fr.base..fr.end].iter().map(|v| v.raw()));
            roots.extend(self.arrays[fr.base..fr.end].iter().flatten().map(|a| a.raw()));
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

    /// Pins the regions of the current frame's live pointer locals at pin
    /// site `pin` (a `deletes` call or a `deleteregion`), returning them
    /// in pinning order; nothing is pinned outside the RC backend.
    fn pin_live(&mut self, pin: u32) -> Vec<RegionId> {
        let mut pinned = Vec::new();
        if self.config.backend != Backend::Rc {
            return pinned;
        }
        let c: &'c Compiled = self.c;
        for v in c.pins[self.func.0 as usize].pins(pin) {
            match self.stack[self.base + v.0 as usize] {
                Value::Ptr(a) if !a.is_null() => {
                    if let Some(rid) = self.heap.try_region_of(a) {
                        self.heap.pin_region(rid);
                        pinned.push(rid);
                    }
                }
                _ => {}
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
    /// stack arrays freed, by [`Interp::unwind`]. Called with
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

/// What a spawned task starts from, as its spawner hands it over.
struct TaskStart {
    /// The function whose frame layout the body runs in.
    func: FuncRef,
    /// The body's first instruction.
    body: usize,
    /// The task's frame, from [`Interp::capture_frame`].
    captured: Vec<Value>,
    rvar: VarRef,
    /// The task's scheduler recorder, born at the spawn.
    sched: SchedRecorder,
    spawn_site: u32,
    /// The depth of the frame that spawned it.
    depth_base: usize,
}

/// A task for the driver loop to run, with the spawner's [`ChildTask`]
/// entry.
struct Spawned {
    start: TaskStart,
    region_desc: Addr,
    region_id: RegionId,
}

/// How a parked task goes on when the driver loop gives it the turn.
enum Resume {
    /// Not started yet; `Some` ends it before its body runs.
    Start(Option<Halt>),
    /// Waited on its inline child: runs on.
    Run,
    /// Its det slice ended: takes the next one, then runs on.
    Slice,
    /// Its `join` waited for its children: completes the join.
    Join,
    /// Ended with this result, and its implicit join waited for its
    /// children: completes that join.
    End(Result<Value, Halt>),
}

/// A task in the driver loop's table.
#[derive(Default)]
enum Parked<'c, 'scope, 'env> {
    /// Waiting for its turn.
    Ready(Box<Interp<'c, 'scope, 'env>>, Resume),
    /// Ended: what its parent collects at join.
    Done(TaskDone),
    /// Running, or collected.
    #[default]
    Empty,
}

/// Takes task `next`'s interpreter out of the table to run it, unless
/// `next` is `cur`, which then goes on itself. A task that
/// [`RoundRobin::next`] picks is always parked ready.
fn take_parked<'c, 'scope, 'env>(
    table: &mut [Parked<'c, 'scope, 'env>],
    next: usize,
    cur: usize,
) -> Option<(Box<Interp<'c, 'scope, 'env>>, Resume)> {
    if next == cur {
        return None;
    }
    debug_assert!(matches!(table[next], Parked::Ready(..)), "task {next} is not parked ready");
    match std::mem::take(&mut table[next]) {
        Parked::Ready(task, how) => Some((task, how)),
        other => {
            table[next] = other;
            None
        }
    }
}

/// Why [`Interp::exec`] handed control back to the driver loop.
enum Exit {
    /// The task ended: its value, or the halt that ended it (frames
    /// already unwound).
    Done(Result<Value, Halt>),
    /// The task spawned a task for the loop to run; it resumes after the
    /// `spawn`.
    Spawn(Box<Spawned>),
    /// The task's det slice ended at the instruction at `pc`.
    Slice,
    /// The task reached a `join` with children; it resumes after it.
    Join,
}

/// One RC call's activation on the explicit stacks.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Its variables' positions in [`Interp::stack`].
    base: usize,
    end: usize,
    /// The function running in it.
    func: FuncRef,
    /// Where the caller resumes.
    ret: usize,
    /// Where the pins its caller took for it start in [`Interp::pins`].
    pins: usize,
    /// Whether any of its variables is a stack array.
    arrays: bool,
}

/// Sets up a spawned task: a fresh interpreter (its own isolated heap
/// shard) with the recorder born at the spawn, a facet region standing in
/// for the moved one, and a frame cloned from the captured values, with
/// `pc` at the body. Returns the halt that stops it before its body runs,
/// if any.
fn start_task<'c, 'scope, 'env>(
    c: &'c Compiled,
    config: &'c RunConfig,
    start: TaskStart,
    pool: Option<Pool<'scope, 'env>>,
) -> (Box<Interp<'c, 'scope, 'env>>, Option<Halt>)
where
    'c: 'scope,
{
    let TaskStart { func, body, mut captured, rvar, sched, spawn_site, depth_base } = start;
    let mut interp = Box::new(Interp::new(c, config));
    interp.sched = sched;
    interp.spawn_site = spawn_site;
    interp.pool = pool;
    interp.depth_base = depth_base;
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
                let frame = Frame { base: 0, end: n, func, ret: 0, pins: 0, arrays: false };
                interp.frames.push(frame);
                interp.func = func;
                interp.pc = body;
            }
            Err(h) => halt = Some(h),
        }
    }
    (interp, halt)
}

/// Executes one spawned task to completion on a scoped task thread (the
/// thread scheduler). The task is set up only once the semaphore admits
/// it.
fn run_task<'c, 'scope, 'env>(
    c: &'c Compiled,
    config: &'c RunConfig,
    mut start: TaskStart,
    pool: Pool<'scope, 'env>,
) -> TaskDone
where
    'c: 'scope,
{
    pool.sem.acquire();
    start.sched.stamp(0, SchedEventKind::SemaAdmit);
    let (mut task, halt) = start_task(c, config, start, Some(pool));
    let halt = Interp::drive(&mut task, Resume::Start(halt)).err();
    let sched = task.end_task(&halt);
    pool.sem.release();
    task.into_task_done(halt, sched)
}

impl<'c, 'scope, 'env> Interp<'c, 'scope, 'env>
where
    'c: 'scope,
{
    /// Ends a task whose body finished (`halt` = `None`) or halted, its
    /// implicit join done: the unwind a trapped fault needs, then the
    /// sealed scheduler log (the `task_end` stamp), which the next task to
    /// run stamps on from.
    fn end_task(&mut self, halt: &Option<Halt>) -> SchedLog {
        if halt.as_ref().is_some_and(Halt::is_abort)
            && self.config.on_fault == OnFault::TrapAndUnwind
        {
            // Leave the shard audit-clean, like the root does before
            // reporting `Trapped`; the root converts the outcome.
            self.unwind_after_fault();
        }
        let cycles = self.heap.clock.cycles();
        std::mem::replace(&mut self.sched, SchedRecorder::root()).finish(cycles)
    }
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

fn nonnull(v: Value) -> Result<Addr, Halt> {
    let a = v.addr();
    if a.is_null() {
        return Err(abort(RtError::WildPointer { addr: Addr::NULL }));
    }
    Ok(a)
}

/// An array index checked against the array's length.
fn index_in(v: Value, len: u32) -> Result<usize, Halt> {
    let i = int(v);
    if i < 0 || i >= len as i64 {
        return Err(abort(RtError::WildPointer { addr: Addr::NULL }));
    }
    Ok(i as usize)
}

/// A strict binary operator (`&&` and `||` are lowered to jumps).
/// Inlined into each operator instruction, which so costs no call.
#[inline(always)]
fn binary(op: crate::ast::BinOp, l: Value, r: Value) -> Value {
    use crate::ast::BinOp::*;
    match op {
        Add => Value::Int(int(l).wrapping_add(int(r))),
        Sub => Value::Int(int(l).wrapping_sub(int(r))),
        Mul => Value::Int(int(l).wrapping_mul(int(r))),
        Div => {
            let d = int(r);
            Value::Int(if d == 0 { 0 } else { int(l).wrapping_div(d) })
        }
        Rem => {
            let d = int(r);
            Value::Int(if d == 0 { 0 } else { int(l).wrapping_rem(d) })
        }
        Lt => Value::Int(i64::from(int(l) < int(r))),
        Le => Value::Int(i64::from(int(l) <= int(r))),
        Gt => Value::Int(i64::from(int(l) > int(r))),
        Ge => Value::Int(i64::from(int(l) >= int(r))),
        Eq => Value::Int(i64::from(l.raw() == r.raw())),
        Ne => Value::Int(i64::from(l.raw() != r.raw())),
        And => Value::Int(i64::from(l.truthy() && r.truthy())),
        Or => Value::Int(i64::from(l.truthy() || r.truthy())),
    }
}

/// The slot a value of type `ty` takes in a heap object's layout.
/// Annotations are ignored in the layouts of nq and C@: every pointer is a
/// counted pointer (so fewer objects qualify for the pointerfree
/// allocator, and the delete-time scan grows).
fn slot_kind(config: &RunConfig, ty: RcType) -> SlotKind {
    let qual = match ty {
        RcType::Int => return SlotKind::Data,
        // Region handles are unannotated `struct region *` values
        // pointing at descriptors in the traditional region.
        RcType::Region => Qual::None,
        RcType::Ptr { qual, .. } | RcType::IntPtr(qual) => qual,
    };
    if config.backend == Backend::CAt || config.checks == CheckMode::Nq {
        return SlotKind::Ptr(PtrKind::Counted);
    }
    SlotKind::Ptr(match qual {
        Qual::None => PtrKind::Counted,
        Qual::SameRegion => PtrKind::SameRegion,
        Qual::ParentPtr => PtrKind::ParentPtr,
        Qual::Traditional => PtrKind::Traditional,
    })
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

// ---- lowering ------------------------------------------------------------

/// Every function body and `spawn` body of a module, lowered once to flat
/// code for the interpreter. [`crate::sema::check`] builds it, so every
/// checked [`Module`] carries its own.
///
/// Each instruction charges its interpreter steps before its operation.
/// A node's step precedes its children's, so a node's step rides on the
/// first instruction its subtree emits, and a step never lands after a
/// runtime operation it used to precede: step counts, det slices and
/// timeline samples fall exactly where a walk of the tree puts them.
///
/// Some pairs of instructions run as one: a binary operator (`BinLK`,
/// `BinL`, `BinK` or `Bin`) and the conditional jump after it; `BinLK`,
/// `BinL` or `BinK` and the `Store` after it; and `LocalField` and the
/// `Store` or `NonNull` after it. `Lower::emit` fuses a pair only when
/// its second instruction charges no steps and no jump lands on it, so
/// the fused instruction charges the first one's steps before both
/// operations, as the pair did, and no step falls between the two. No
/// step count, cycle, det slice end, timeline sample or abort point can
/// fall there either: a halt in the first operation skips the second, as
/// it did. Fusion saves only dispatches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Code {
    /// Each function's body followed by its spawn bodies, function by
    /// function.
    ops: Vec<Instr>,
    /// Each function's first instruction.
    entries: Vec<u32>,
    /// Each function's frame template.
    frames: Vec<FrameTemplate>,
}

impl Code {
    /// Lowers every body of `m`.
    pub(crate) fn lower(m: &Module) -> Code {
        let mut code = Code::default();
        for f in &m.funcs {
            let vars = || f.params.iter().chain(&f.locals);
            code.frames.push(FrameTemplate {
                defaults: vars().map(|v| Value::default_of(v.ty)).collect(),
                arrays: vars().any(|v| v.array_len.is_some()),
            });
            code.entries.push(code.ops.len() as u32);
            let mut l =
                Lower { m, f, ops: &mut code.ops, pending: 0, label: 0, spawns: Vec::new() };
            l.label();
            l.block(&f.body);
            l.emit(Op::ReturnVoid);
            // Spawn bodies follow the function; a body's own spawns queue
            // up behind it.
            let mut next = 0;
            while let Some(&(at, body)) = l.spawns.get(next) {
                next += 1;
                let start = l.label();
                if let Op::Spawn { body: b, .. } = &mut l.ops[at].op {
                    *b = start;
                }
                l.block(body);
                l.emit(Op::TaskEnd);
            }
        }
        code
    }

    fn entry(&self, f: FuncRef) -> usize {
        self.entries[f.0 as usize] as usize
    }

    fn frame(&self, f: FuncRef) -> &FrameTemplate {
        &self.frames[f.0 as usize]
    }
}

/// What [`Interp::enter`] frames a call to a function with, built at
/// lowering.
#[derive(Debug, Clone, PartialEq)]
struct FrameTemplate {
    /// Each variable's initial value, parameters first; a call's
    /// arguments stand in for the parameters' ones.
    defaults: Vec<Value>,
    /// Whether any variable is a stack array.
    arrays: bool,
}

/// One instruction: `steps` interpreter steps, then `op`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Instr {
    op: Op,
    steps: u32,
}

// The dispatch loop reads one instruction per turn; keep it half a cache
// line.
const _: () = assert!(std::mem::size_of::<Instr>() == 32);

/// An operation on the operand stack (`a b → c`: pops `b`, then `a`,
/// pushes `c`).
///
/// The variants after `TaskEnd` are fused pairs (see [`Code`]): each does
/// what its two instructions did, one after the other. A pair fuses only
/// when its second instruction charges no steps and no jump lands on it,
/// so the pair's steps all fall before both operations, as they did, and
/// a halt in the first skips the second, as it did. The jumps among them
/// jump when the operator's result is truthy and `when` is true
/// (`JumpIfTrue`), or when it is falsy and `when` is false
/// (`JumpIfFalse`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// `→ v`: `Int` and `Null`.
    Push(Value),
    /// `→ x`: a variable of the current frame.
    Local(u32),
    /// `x → x`, storing into a variable.
    SetLocal(u32),
    /// `x →`, storing into a variable (an assignment statement).
    Store(u32),
    /// `→ g`: a scalar global.
    Global {
        g: u32,
        ty: RcType,
    },
    /// `x → x`, storing into a scalar global.
    SetGlobal {
        g: u32,
        ty: RcType,
        site: SiteId,
    },
    /// `x →`, storing into a scalar global (an assignment statement).
    StoreGlobal {
        g: u32,
        ty: RcType,
        site: SiteId,
    },
    /// `p → p`, aborting when `p` is null: a dereference checked before
    /// the operands after it are evaluated.
    NonNull,
    /// `p → p->field`.
    Field {
        field: u32,
        ty: RcType,
    },
    /// `→ v->field` for a variable `v`.
    LocalField {
        v: u32,
        field: u32,
        ty: RcType,
    },
    /// `p x → x`, storing into a field (`p` already checked non-null).
    SetField {
        field: u32,
        ty: RcType,
        site: SiteId,
    },
    /// `p x →`, storing into a field (an assignment statement).
    StoreField {
        field: u32,
        ty: RcType,
        site: SiteId,
    },
    /// `→ a`: a local array's storage.
    LocalArray(u32),
    /// `→ a`: a global array's storage.
    GlobalArray(u32),
    /// `i → i`, aborting unless `0 <= i < len`.
    Index(u32),
    /// `a i → a[i]`, checking `i` against `len`.
    Slot {
        len: u32,
        ty: RcType,
    },
    /// `a i x → x`, storing into an array slot (`i` already checked).
    SetSlot {
        ty: RcType,
        site: SiteId,
    },
    /// `p i → p i`, aborting when `i < 0`.
    NonNeg,
    /// `p i → &p[i]` over struct elements of `size` words.
    Elem {
        size: u32,
    },
    /// `p i → p[i]` over ints.
    IntElem,
    /// `p i x → x`, storing into an int element (`i` already checked).
    SetIntElem,
    /// `p i x →`, storing into an int element (an assignment statement).
    StoreIntElem,
    /// `a b → a op b`.
    Bin(crate::ast::BinOp),
    /// `a → a op v` for a variable `v`.
    BinL(crate::ast::BinOp, u32),
    /// `a → a op k` for a constant `k` (`null` is 0 to every operator).
    BinK(crate::ast::BinOp, i64),
    /// `→ a op b` for variables `a` and `b`.
    BinLL(crate::ast::BinOp, u32, u32),
    /// `→ a op k` for a variable `a` and a constant `k`.
    BinLK(crate::ast::BinOp, u32, i64),
    /// `a → op a`.
    Un(crate::ast::UnOp),
    /// `a →`; when `a` is false, pushes 0 and jumps past the right operand.
    And(u32),
    /// `a →`; when `a` is true, pushes 1 and jumps past the right operand.
    Or(u32),
    /// `a → 0 or 1`.
    Truth,
    /// `args → result`.
    Call {
        f: FuncRef,
        nargs: u32,
        pin: u32,
    },
    /// `r → p`.
    Ralloc {
        s: u32,
        line: u32,
    },
    /// `r n → p`.
    RallocStructs {
        s: u32,
        line: u32,
    },
    /// `r n → p`.
    RallocInts {
        line: u32,
    },
    /// `→ r`.
    NewRegion,
    /// `→ r`.
    TraditionalRegion,
    /// `r → sub`.
    NewSubregion,
    /// `r → status`, pinning at the given pin site.
    DeleteRegion(u32),
    /// `p → r`.
    RegionOf,
    /// `x → 0`, halting when `x` is false.
    Assert,
    /// `x →`.
    Pop,
    Jump(u32),
    /// `x →`, jumping when `x` is false.
    JumpIfFalse(u32),
    /// `x →`, jumping when `x` is true.
    JumpIfTrue(u32),
    /// `x →`, returning `x`.
    Return,
    /// Returns 0.
    ReturnVoid,
    /// Spawns the body at `body` on the region in `rvar`.
    Spawn {
        rvar: u32,
        line: u32,
        body: u32,
    },
    Join,
    /// Ends a spawn body.
    TaskEnd,
    /// `BinLK` then a conditional jump.
    BinLKJump {
        op: crate::ast::BinOp,
        a: u32,
        k: i64,
        to: u32,
        when: bool,
    },
    /// `BinL` then a conditional jump.
    BinLJump {
        op: crate::ast::BinOp,
        b: u32,
        to: u32,
        when: bool,
    },
    /// `BinK` then a conditional jump.
    BinKJump {
        op: crate::ast::BinOp,
        k: i64,
        to: u32,
        when: bool,
    },
    /// `Bin` then a conditional jump.
    BinJump {
        op: crate::ast::BinOp,
        to: u32,
        when: bool,
    },
    /// `BinLK` then `Store(dst)`.
    BinLKStore {
        op: crate::ast::BinOp,
        a: u32,
        k: i64,
        dst: u32,
    },
    /// `BinL` then `Store(dst)`.
    BinLStore {
        op: crate::ast::BinOp,
        b: u32,
        dst: u32,
    },
    /// `BinK` then `Store(dst)`.
    BinKStore {
        op: crate::ast::BinOp,
        k: i64,
        dst: u32,
    },
    /// `LocalField` then `Store(dst)`.
    LocalFieldStore {
        v: u32,
        field: u32,
        ty: RcType,
        dst: u32,
    },
    /// `LocalField` then `NonNull`: `→ v->field`, aborting when it is
    /// null.
    LocalFieldNonNull {
        v: u32,
        field: u32,
        ty: RcType,
    },
}

/// The instruction that does `first`, then `second`, if the pair fuses.
fn fuse(first: Op, second: Op) -> Option<Op> {
    let jump = match second {
        Op::JumpIfTrue(to) => Some((to, true)),
        Op::JumpIfFalse(to) => Some((to, false)),
        _ => None,
    };
    Some(match (first, second, jump) {
        (Op::BinLK(op, a, k), _, Some((to, when))) => Op::BinLKJump { op, a, k, to, when },
        (Op::BinL(op, b), _, Some((to, when))) => Op::BinLJump { op, b, to, when },
        (Op::BinK(op, k), _, Some((to, when))) => Op::BinKJump { op, k, to, when },
        (Op::Bin(op), _, Some((to, when))) => Op::BinJump { op, to, when },
        (Op::BinLK(op, a, k), Op::Store(dst), _) => Op::BinLKStore { op, a, k, dst },
        (Op::BinL(op, b), Op::Store(dst), _) => Op::BinLStore { op, b, dst },
        (Op::BinK(op, k), Op::Store(dst), _) => Op::BinKStore { op, k, dst },
        (Op::LocalField { v, field, ty }, Op::Store(dst), _) => {
            Op::LocalFieldStore { v, field, ty, dst }
        }
        (Op::LocalField { v, field, ty }, Op::NonNull, _) => Op::LocalFieldNonNull { v, field, ty },
        _ => return None,
    })
}

/// An operand a binary operator reads for itself.
enum Leaf {
    Local(u32),
    Const(i64),
}

fn leaf(e: &HExpr) -> Option<Leaf> {
    match e {
        HExpr::ReadLocal(v) => Some(Leaf::Local(v.0)),
        HExpr::Int(n) => Some(Leaf::Const(*n)),
        HExpr::Null(_) => Some(Leaf::Const(0)),
        _ => None,
    }
}

/// Lowers one function and its spawn bodies.
struct Lower<'m> {
    m: &'m Module,
    f: &'m HFunc,
    ops: &'m mut Vec<Instr>,
    /// Steps of started nodes that the next instruction charges.
    pending: u32,
    /// The latest jump target, or entry: no pair fuses into the
    /// instruction emitted there.
    label: u32,
    /// Spawn instructions and the bodies still to emit for them.
    spawns: Vec<(usize, &'m [HStmt])>,
}

impl<'m> Lower<'m> {
    /// Starts a node or statement: its step rides on the next instruction.
    fn step(&mut self) {
        self.pending += 1;
    }

    /// Appends `op`, which charges the steps pending, and returns its
    /// position. Instead, `op` fuses into the last instruction when the
    /// pair fuses (a binary operator and a conditional jump; `BinLK`,
    /// `BinL` or `BinK` and `Store`; `LocalField` and `Store` or
    /// `NonNull`), no steps are pending and no jump lands on `op`. The
    /// fused instruction keeps the first one's steps, so they still fall
    /// before both operations, and no step, det slice end, sample or
    /// abort point can fall between the two. The position is then the
    /// fused instruction's, where a jump fused so is patched.
    fn emit(&mut self, op: Op) -> usize {
        let at = self.ops.len();
        if self.pending == 0 && self.label != self.here() {
            if let Some(fused) = self.ops.last().and_then(|last| fuse(last.op, op)) {
                self.ops[at - 1].op = fused;
                return at - 1;
            }
        }
        let steps = std::mem::take(&mut self.pending);
        self.ops.push(Instr { op, steps });
        at
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Marks the next instruction as a jump target and returns its
    /// position.
    fn label(&mut self) -> u32 {
        self.label = self.here();
        self.label
    }

    /// Points the jump at `at` to the next instruction.
    fn patch(&mut self, at: usize) {
        let to = self.label();
        match &mut self.ops[at].op {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::And(t)
            | Op::Or(t)
            | Op::BinLKJump { to: t, .. }
            | Op::BinLJump { to: t, .. }
            | Op::BinKJump { to: t, .. }
            | Op::BinJump { to: t, .. } => *t = to,
            _ => {}
        }
    }

    fn block(&mut self, stmts: &'m [HStmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &'m HStmt) {
        self.step();
        match s {
            // Assignment statements store without keeping the value.
            HStmt::Expr(HExpr::AssignLocal { v, val }) => {
                self.step();
                self.expr(val);
                self.emit(Op::Store(v.0));
            }
            HStmt::Expr(HExpr::AssignField { obj, s, field, val, site }) => {
                self.step();
                self.expr(obj);
                self.emit(Op::NonNull);
                self.expr(val);
                let ty = self.field_ty(*s, *field);
                self.emit(Op::StoreField { field: *field, ty, site: *site });
            }
            HStmt::Expr(HExpr::AssignGlobal { g, val, site }) => {
                self.step();
                self.expr(val);
                self.emit(Op::StoreGlobal { g: g.0, ty: self.m.global(*g).ty, site: *site });
            }
            HStmt::Expr(HExpr::AssignIntElem { ptr, idx, val }) => {
                self.step();
                self.expr(ptr);
                self.emit(Op::NonNull);
                self.expr(idx);
                self.emit(Op::NonNeg);
                self.expr(val);
                self.emit(Op::StoreIntElem);
            }
            HStmt::Expr(e) => {
                self.expr(e);
                self.emit(Op::Pop);
            }
            HStmt::Return(None) => {
                self.emit(Op::ReturnVoid);
            }
            HStmt::Return(Some(e)) => {
                self.expr(e);
                self.emit(Op::Return);
            }
            HStmt::If(c, a, b) => {
                self.expr(c);
                let to_else = self.emit(Op::JumpIfFalse(0));
                self.block(a);
                if b.is_empty() {
                    self.patch(to_else);
                } else {
                    let to_end = self.emit(Op::Jump(0));
                    self.patch(to_else);
                    self.block(b);
                    self.patch(to_end);
                }
            }
            HStmt::While(c, body) => {
                // The test is emitted twice: on entry, after the
                // statement's step, and at the bottom, after the back-edge
                // step, so an iteration takes one jump.
                self.expr(c);
                let to_end = self.emit(Op::JumpIfFalse(0));
                let top = self.label();
                self.block(body);
                self.step();
                self.expr(c);
                self.emit(Op::JumpIfTrue(top));
                self.patch(to_end);
            }
            HStmt::Spawn { rvar, body, line } => {
                let at = self.emit(Op::Spawn { rvar: rvar.0, line: *line, body: 0 });
                self.spawns.push((at, body));
            }
            HStmt::Join => {
                self.emit(Op::Join);
            }
        }
    }

    fn expr(&mut self, e: &'m HExpr) {
        self.step();
        match e {
            HExpr::Int(n) => {
                self.emit(Op::Push(Value::Int(*n)));
            }
            HExpr::Null(ty) => {
                self.emit(Op::Push(Value::default_of(*ty)));
            }
            HExpr::ReadLocal(v) => {
                self.emit(Op::Local(v.0));
            }
            HExpr::ReadGlobal(g) => {
                self.emit(Op::Global { g: g.0, ty: self.m.global(*g).ty });
            }
            HExpr::AssignLocal { v, val } => {
                self.expr(val);
                self.emit(Op::SetLocal(v.0));
            }
            HExpr::AssignGlobal { g, val, site } => {
                self.expr(val);
                self.emit(Op::SetGlobal { g: g.0, ty: self.m.global(*g).ty, site: *site });
            }
            HExpr::ReadField { obj, s, field } => {
                let ty = self.field_ty(*s, *field);
                if let HExpr::ReadLocal(v) = **obj {
                    self.step();
                    self.emit(Op::LocalField { v: v.0, field: *field, ty });
                } else {
                    self.expr(obj);
                    self.emit(Op::Field { field: *field, ty });
                }
            }
            HExpr::AssignField { obj, s, field, val, site } => {
                self.expr(obj);
                self.emit(Op::NonNull);
                self.expr(val);
                let ty = self.field_ty(*s, *field);
                self.emit(Op::SetField { field: *field, ty, site: *site });
            }
            HExpr::ReadArraySlot { base, idx, elem } => {
                let len = self.array(*base);
                self.expr(idx);
                self.emit(Op::Slot { len, ty: *elem });
            }
            HExpr::AssignArraySlot { base, idx, val, elem, site } => {
                let len = self.array(*base);
                self.expr(idx);
                self.emit(Op::Index(len));
                self.expr(val);
                self.emit(Op::SetSlot { ty: *elem, site: *site });
            }
            HExpr::PtrElem { ptr, idx, s } => {
                self.expr(ptr);
                self.emit(Op::NonNull);
                self.expr(idx);
                let size = self.m.struct_def(*s).fields.len().max(1) as u32;
                self.emit(Op::Elem { size });
            }
            HExpr::ReadIntElem { ptr, idx } => {
                self.expr(ptr);
                self.emit(Op::NonNull);
                self.expr(idx);
                self.emit(Op::IntElem);
            }
            HExpr::AssignIntElem { ptr, idx, val } => {
                self.expr(ptr);
                self.emit(Op::NonNull);
                self.expr(idx);
                self.emit(Op::NonNeg);
                self.expr(val);
                self.emit(Op::SetIntElem);
            }
            HExpr::Bin(op @ (crate::ast::BinOp::And | crate::ast::BinOp::Or), l, r) => {
                self.expr(l);
                let short = match op {
                    crate::ast::BinOp::And => Op::And(0),
                    _ => Op::Or(0),
                };
                let at = self.emit(short);
                self.expr(r);
                self.emit(Op::Truth);
                self.patch(at);
            }
            // A leaf operand is read by the operator itself. A leaf on the
            // left waits only when the right is a leaf too: a later read
            // could see the right operand's side effects.
            HExpr::Bin(op, l, r) => {
                let op = *op;
                match (leaf(l), leaf(r)) {
                    (Some(Leaf::Local(a)), Some(Leaf::Local(b))) => {
                        self.pending += 2;
                        self.emit(Op::BinLL(op, a, b));
                    }
                    (Some(Leaf::Local(a)), Some(Leaf::Const(k))) => {
                        self.pending += 2;
                        self.emit(Op::BinLK(op, a, k));
                    }
                    (_, Some(Leaf::Local(b))) => {
                        self.expr(l);
                        self.step();
                        self.emit(Op::BinL(op, b));
                    }
                    (_, Some(Leaf::Const(k))) => {
                        self.expr(l);
                        self.step();
                        self.emit(Op::BinK(op, k));
                    }
                    (_, None) => {
                        self.expr(l);
                        self.expr(r);
                        self.emit(Op::Bin(op));
                    }
                }
            }
            HExpr::Un(op, inner) => {
                self.expr(inner);
                self.emit(Op::Un(*op));
            }
            HExpr::Call { f, args, pin } => {
                for a in args {
                    self.expr(a);
                }
                self.emit(Op::Call { f: *f, nargs: args.len() as u32, pin: *pin });
            }
            HExpr::Ralloc { region, s, line } => {
                self.expr(region);
                self.emit(Op::Ralloc { s: s.0, line: *line });
            }
            HExpr::RallocStructArray { region, count, s, line } => {
                self.expr(region);
                self.expr(count);
                self.emit(Op::RallocStructs { s: s.0, line: *line });
            }
            HExpr::RallocIntArray { region, count, line } => {
                self.expr(region);
                self.expr(count);
                self.emit(Op::RallocInts { line: *line });
            }
            HExpr::NewRegion => {
                self.emit(Op::NewRegion);
            }
            HExpr::TraditionalRegion => {
                self.emit(Op::TraditionalRegion);
            }
            HExpr::NewSubregion(parent) => {
                self.expr(parent);
                self.emit(Op::NewSubregion);
            }
            HExpr::DeleteRegion(r, pin) => {
                self.expr(r);
                self.emit(Op::DeleteRegion(*pin));
            }
            HExpr::RegionOf(x) => {
                self.expr(x);
                self.emit(Op::RegionOf);
            }
            HExpr::Assert(x) => {
                self.expr(x);
                self.emit(Op::Assert);
            }
        }
    }

    fn field_ty(&self, s: StructRef, field: u32) -> RcType {
        self.m.struct_def(s).fields[field as usize].ty
    }

    /// Pushes an array's storage; returns its length.
    fn array(&mut self, base: ArrayBase) -> u32 {
        match base {
            ArrayBase::Local(v) => {
                self.emit(Op::LocalArray(v.0));
                self.f.var(v).array_len.unwrap_or(0)
            }
            ArrayBase::Global(g) => {
                self.emit(Op::GlobalArray(g.0));
                self.m.global(g).array_len.unwrap_or(0)
            }
        }
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

    #[test]
    fn outcome_names_are_stable() {
        let (oom, immortal) = (RtError::OutOfMemory, RtError::TraditionalImmortal);
        let cases = [
            (Outcome::Exit(7), "exit", "exit:7", None),
            (Outcome::Trapped(oom.clone()), "trapped", "trap:out_of_memory", Some(&oom)),
            (
                Outcome::Aborted(immortal.clone()),
                "aborted",
                "abort:traditional_immortal",
                Some(&immortal),
            ),
            (Outcome::AssertFailed, "assert-failed", "assert-failed", None),
            (Outcome::StepLimit, "step-limit", "step-limit", None),
            (Outcome::StackOverflow, "stack-overflow", "stack-overflow", None),
        ];
        for (o, tag, key, error) in cases {
            assert_eq!(o.tag(), tag);
            assert_eq!(o.key(), key);
            assert_eq!(o.error(), error);
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
            matches!(
                r.outcome,
                Outcome::Aborted(RtError::CheckFailed { kind: PtrKind::SameRegion, .. })
            ),
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
        assert!(matches!(r.outcome, Outcome::Aborted(RtError::OutOfMemory)), "{:?}", r.outcome);
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
        assert!(matches!(r.outcome, Outcome::Trapped(RtError::OutOfMemory)), "{:?}", r.outcome);
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
        assert!(matches!(r.outcome, Outcome::Aborted(RtError::OutOfMemory)), "{:?}", r.outcome);
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
mod lowering_tests {
    use super::*;

    /// The name of a fused form.
    fn fused_name(op: &Op) -> Option<&'static str> {
        Some(match op {
            Op::BinLKJump { .. } => "BinLKJump",
            Op::BinLJump { .. } => "BinLJump",
            Op::BinKJump { .. } => "BinKJump",
            Op::BinJump { .. } => "BinJump",
            Op::BinLKStore { .. } => "BinLKStore",
            Op::BinLStore { .. } => "BinLStore",
            Op::BinKStore { .. } => "BinKStore",
            Op::LocalFieldStore { .. } => "LocalFieldStore",
            Op::LocalFieldNonNull { .. } => "LocalFieldNonNull",
            _ => return None,
        })
    }

    /// Each fused form the code holds, by name, with its count.
    fn fused_counts(code: &Code) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for name in code.ops.iter().filter_map(|ins| fused_name(&ins.op)) {
            match counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => counts.push((name, 1)),
            }
        }
        counts.sort();
        counts
    }

    #[test]
    fn every_pair_fuses_once_where_it_may() {
        let src = r#"
            struct t { int v; struct t *next; };
            int main() {
                region r = newregion();
                struct t *p = ralloc(r, struct t);
                p->next = ralloc(r, struct t);
                int i = 0;
                int x;
                while (i < 3) { i = i + 1; }
                if (p->v < i) { x = p->v + i; }
                if (p->v < 3) { x = p->v + 1; }
                if (p->v < p->next->v) { x = p->v; }
                if (i == 3 && x != 0) { x = 0; }
                p->next->v = x;
                return x;
            }
        "#;
        let c = prepare(src).unwrap();
        let got = fused_counts(&c.module.code);
        let want = [
            ("BinJump", 1),
            ("BinKJump", 1),
            ("BinKStore", 1),
            ("BinLJump", 1),
            ("BinLKJump", 2),
            ("BinLKStore", 1),
            ("BinLStore", 1),
            ("LocalFieldNonNull", 1),
            ("LocalFieldStore", 1),
        ];
        assert_eq!(got, want);
        // Both conditional jumps fuse: the loop's entry test jumps when
        // false, its bottom test when true.
        let whens: Vec<bool> = c
            .module
            .code
            .ops
            .iter()
            .filter_map(|ins| match ins.op {
                Op::BinLKJump { when, .. } => Some(when),
                _ => None,
            })
            .collect();
        assert_eq!(whens, [false, true]);
        assert_eq!(run(&c, &RunConfig::rc_inf()).outcome, Outcome::Exit(0));
    }

    /// Assignment statements to globals and int elements store without
    /// keeping the value, as those to locals and fields do: no `SetGlobal`
    /// or `SetIntElem` is followed by a `Pop`. Assignments inside
    /// expressions keep the value.
    #[test]
    fn assignment_statements_store_without_a_pop() {
        let src = r#"
            int total;
            int *digits;
            int main() {
                region r = newregion();
                digits = rarrayalloc(r, 4, int);
                int i = 0;
                while (i < 4) {
                    digits[i] = i * 2;
                    total = total + digits[i];
                    i = i + 1;
                }
                int x = total = digits[1] = 7;
                return total + x + digits[1];
            }
        "#;
        let c = prepare(src).unwrap();
        let ops: Vec<&Op> = c.module.code.ops.iter().map(|ins| &ins.op).collect();
        for pair in ops.windows(2) {
            let set = matches!(pair[0], Op::SetGlobal { .. } | Op::SetIntElem);
            assert!(!(set && *pair[1] == Op::Pop), "{:?} then Pop", pair[0]);
        }
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count();
        assert_eq!(count(|op| matches!(op, Op::StoreGlobal { .. })), 2);
        assert_eq!(count(|op| matches!(op, Op::StoreIntElem)), 1);
        assert_eq!(count(|op| matches!(op, Op::SetGlobal { .. })), 1);
        assert_eq!(count(|op| matches!(op, Op::SetIntElem)), 1);
        assert_eq!(run(&c, &RunConfig::rc_inf()).outcome, Outcome::Exit(21));
    }

    #[test]
    fn no_pair_fuses_into_a_jump_target_or_a_charging_instruction() {
        let c = prepare("int main() { return 0; }").unwrap();
        let (m, f) = (&c.module, &c.module.funcs[0]);
        let mut ops = Vec::new();
        let mut l = Lower { m, f, ops: &mut ops, pending: 0, label: 0, spawns: Vec::new() };
        l.label();
        l.pending = 1;
        l.emit(Op::BinLK(crate::ast::BinOp::Add, 0, 1));
        l.label();
        assert_eq!(l.emit(Op::Store(0)), 1, "a jump lands on the store");
        l.pending = 1;
        l.emit(Op::BinLK(crate::ast::BinOp::Add, 0, 1));
        l.pending = 1;
        assert_eq!(l.emit(Op::Store(0)), 3, "the store charges a step");
        l.pending = 1;
        l.emit(Op::BinLK(crate::ast::BinOp::Add, 0, 1));
        assert_eq!(l.emit(Op::Store(0)), 4, "the pair fuses");
        assert_eq!(ops.len(), 5);
        assert_eq!(ops[4].op, Op::BinLKStore { op: crate::ast::BinOp::Add, a: 0, k: 1, dst: 0 });
        assert_eq!(ops[4].steps, 1);
    }
}

#[cfg(test)]
mod frame_tests {
    use super::*;
    use crate::config::RunConfig;
    use region_rt::{FaultMode, FaultPlan};

    /// A popped frame's stack array releases the counts its pointer slots
    /// hold, so the region they point into can be deleted afterwards.
    #[test]
    fn a_freed_stack_array_releases_its_counts() {
        let src = r#"
            struct t { int x; };
            static int fill(region r) {
                struct t *tmp[1];
                tmp[0] = ralloc(r, struct t);
                return 0;
            }
            int main() deletes {
                region r = newregion();
                fill(r);
                deleteregion(r);
                return 7;
            }
        "#;
        let c = prepare(src).unwrap();
        for (name, cfg) in RunConfig::figure7() {
            let r = run_audited(&c, &cfg);
            assert_eq!(r.outcome, Outcome::Exit(7), "{name}");
            assert!(matches!(r.audit, Some(Ok(()))), "{name}: {:?}", r.audit);
        }
    }

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
                cp.path
                    .iter()
                    .map(region_rt::PathSeg::to_json)
                    .map(|j| j.render())
                    .collect::<Vec<_>>(),
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
        // A different seed interleaves differently (different slice
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
        let r = go("int main() { return 3; }", RunConfig::rc_inf().det_sched(1));
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
