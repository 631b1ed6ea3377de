//! Work/span critical-path analysis over per-task reports.
//!
//! The classic work/span model (Brent; Cilk's instrumentation) applied
//! to the spawn/join task tree a parallel region program leaves behind
//! in its [`TaskReport`]s:
//!
//! * **work** — total charged cycles across every task (what one
//!   processor would execute);
//! * **span** — the longest dependency chain through the spawn/join
//!   tree (what infinitely many processors could not beat);
//! * **ideal parallelism** — work / span, the ceiling on any
//!   scheduler's speedup.
//!
//! The span is computed by simulating an ideal schedule: each task's
//! structural scheduler events ([`SchedEventKind::is_structural`]) are
//! replayed on the task's *local* cycle axis; a `spawn` forks the chain,
//! a `join` takes the latest-arriving arm. By construction the returned
//! [`CritPath::path`] is a gap-free chain of per-task cycle intervals
//! whose lengths sum exactly to the span, so `work − span` is exactly
//! the overlappable (off-path) time — the identity the parallel-matrix
//! attribution gates rely on.
//!
//! All arithmetic is integer (charged cycles and permille ratios), so
//! reports are byte-deterministic wherever the underlying run is.

use crate::json::Json;
use crate::shard::{SchedEventKind, ShardId, TaskReport};

/// Guard against a corrupt spawn tree sending the simulator into
/// unbounded recursion; real programs nest spawns far shallower.
const MAX_DEPTH: usize = 4096;

/// One link of the critical path: task `task` executing its local cycle
/// interval `[from_local, to_local)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSeg {
    /// The task executing this link.
    pub task: ShardId,
    /// Start of the interval on the task's own cycle axis.
    pub from_local: u64,
    /// End of the interval (exclusive).
    pub to_local: u64,
}

impl PathSeg {
    /// The link's length in charged cycles.
    pub fn len(&self) -> u64 {
        self.to_local - self.from_local
    }

    /// Whether the link is empty.
    pub fn is_empty(&self) -> bool {
        self.from_local == self.to_local
    }

    /// Report encoding, field order fixed for byte-determinism.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("task", Json::U(self.task.0 as u64)),
            ("from", Json::U(self.from_local)),
            ("to", Json::U(self.to_local)),
        ])
    }
}

/// One task's share of the work/span decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskBreakdown {
    /// The task.
    pub id: ShardId,
    /// Its spawning task (itself for the root).
    pub parent: ShardId,
    /// Global spawn ordinal (0 for the root).
    pub seq: u64,
    /// Source line of the `spawn` that created it (0 for the root).
    pub spawn_site: u32,
    /// Charged cycles the task executed.
    pub cycles: u64,
    /// Cycles on the critical path.
    pub on_path_cycles: u64,
    /// Cycles off the path (`cycles − on_path_cycles`): overlappable
    /// with the path under an ideal schedule.
    pub off_path_cycles: u64,
    /// Shared-clock time the task spent not running under the schedule
    /// that was actually observed (from its [`SchedLog`]).
    ///
    /// [`SchedLog`]: crate::shard::SchedLog
    pub blocked_cycles: u64,
    /// Whether any of the task's cycles are on the path.
    pub on_path: bool,
}

impl TaskBreakdown {
    /// Report encoding, field order fixed for byte-determinism.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("task", Json::U(self.id.0 as u64)),
            ("parent", Json::U(self.parent.0 as u64)),
            ("seq", Json::U(self.seq)),
            ("spawn_site", Json::U(self.spawn_site as u64)),
            ("cycles", Json::U(self.cycles)),
            ("on_path_cycles", Json::U(self.on_path_cycles)),
            ("off_path_cycles", Json::U(self.off_path_cycles)),
            ("blocked_cycles", Json::U(self.blocked_cycles)),
            ("on_path", Json::Bool(self.on_path)),
        ])
    }
}

/// The work/span decomposition of one parallel run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritPath {
    /// Total work: Σ per-task charged cycles.
    pub work: u64,
    /// The critical path length (== Σ [`CritPath::path`] segment
    /// lengths, by construction).
    pub span: u64,
    /// Per-task breakdowns, in report order (root first).
    pub tasks: Vec<TaskBreakdown>,
    /// The critical path, root start → run end, adjacent same-task
    /// links merged.
    pub path: Vec<PathSeg>,
}

impl CritPath {
    /// Ideal parallelism, work/span, in permille (integer, so reports
    /// stay byte-deterministic; 1000 = perfectly serial). 0 when the
    /// span is empty.
    pub fn ideal_parallelism_milli(&self) -> u64 {
        if self.span == 0 {
            return 0;
        }
        self.work * 1000 / self.span
    }

    /// Critical-path cycles executed by the root task — the serial
    /// fraction no schedule can overlap away (Amdahl's bound, measured).
    pub fn root_serial(&self) -> u64 {
        self.path.iter().filter(|s| s.task == ShardId::ROOT).map(PathSeg::len).sum()
    }

    /// Off-path cycles (`work − span`): the time an ideal schedule
    /// overlaps with the path.
    pub fn overlapped(&self) -> u64 {
        self.work - self.span
    }

    /// Observed blocked time summed over every task.
    pub fn blocked_total(&self) -> u64 {
        self.tasks.iter().map(|t| t.blocked_cycles).sum()
    }

    /// Report encoding, field order fixed for byte-determinism.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("work", Json::U(self.work)),
            ("span", Json::U(self.span)),
            ("ideal_parallelism_milli", Json::U(self.ideal_parallelism_milli())),
            ("root_serial", Json::U(self.root_serial())),
            ("overlapped", Json::U(self.overlapped())),
            ("blocked_total", Json::U(self.blocked_total())),
            ("tasks", Json::A(self.tasks.iter().map(TaskBreakdown::to_json).collect())),
            ("path", Json::A(self.path.iter().map(PathSeg::to_json).collect())),
        ])
    }
}

struct Ctx<'a> {
    reports: &'a [TaskReport],
    /// Children of each report (indices into `reports`), in spawn
    /// (`Handoff::seq`) order.
    children: Vec<Vec<usize>>,
}

/// Simulates task `i` starting at absolute ideal time `start`; returns
/// the time its chain finishes and the path realizing it (as segments
/// from `start` to the finish — the caller prepends its own prefix).
fn simulate(ctx: &Ctx, i: usize, start: u64, depth: usize) -> Result<(u64, Vec<PathSeg>), String> {
    if depth > MAX_DEPTH {
        return Err(format!("critpath: spawn tree deeper than {MAX_DEPTH}"));
    }
    let r = &ctx.reports[i];
    let id = r.id;
    let mut finish = start;
    let mut path: Vec<PathSeg> = Vec::new();
    // Arms a pending join must wait for: (child finish, chain to it).
    let mut pending: Vec<(u64, Vec<PathSeg>)> = Vec::new();
    let mut last_local = 0u64;
    let mut nth_spawn = 0u32;
    let mut ended = false;
    for ev in r.sched.events.iter().filter(|e| e.kind.is_structural()) {
        if ev.local < last_local {
            return Err(format!(
                "critpath: task {} events go backwards ({} after {last_local})",
                id.0, ev.local
            ));
        }
        let advance = |finish: &mut u64, path: &mut Vec<PathSeg>, last_local: &mut u64, to: u64| {
            if to > *last_local {
                *finish += to - *last_local;
                path.push(PathSeg { task: id, from_local: *last_local, to_local: to });
                *last_local = to;
            }
        };
        match ev.kind {
            SchedEventKind::TaskStart => {}
            SchedEventKind::Spawn { nth } => {
                if nth != nth_spawn {
                    return Err(format!(
                        "critpath: task {} spawn ordinal {nth} out of order (expected {nth_spawn})",
                        id.0
                    ));
                }
                let child =
                    *ctx.children.get(i).and_then(|c| c.get(nth as usize)).ok_or_else(|| {
                        format!("critpath: task {} spawn #{nth} has no matching handoff", id.0)
                    })?;
                advance(&mut finish, &mut path, &mut last_local, ev.local);
                let (cf, cpath) = simulate(ctx, child, finish, depth + 1)?;
                let mut chain = path.clone();
                chain.extend(cpath);
                pending.push((cf, chain));
                nth_spawn += 1;
            }
            SchedEventKind::JoinWaitBegin { .. } => {
                advance(&mut finish, &mut path, &mut last_local, ev.local);
                // The latest arm wins; ties go to the parent, then to
                // the earliest-spawned child (strict `>` on an in-order
                // scan encodes both).
                for (cf, chain) in pending.drain(..) {
                    if cf > finish {
                        finish = cf;
                        path = chain;
                    }
                }
            }
            SchedEventKind::TaskEnd => {
                if ev.local < r.cycles {
                    return Err(format!(
                        "critpath: task {} ended at {} but reports {} cycles",
                        id.0, ev.local, r.cycles
                    ));
                }
                advance(&mut finish, &mut path, &mut last_local, ev.local);
                ended = true;
            }
            SchedEventKind::JoinWaitEnd => {}
            // Structural filter above excludes slice events.
            _ => {}
        }
    }
    if !ended {
        return Err(format!("critpath: task {} has no task_end event", id.0));
    }
    if !pending.is_empty() {
        return Err(format!(
            "critpath: task {} ended with {} unjoined children",
            id.0,
            pending.len()
        ));
    }
    if nth_spawn as usize != ctx.children[i].len() {
        return Err(format!(
            "critpath: task {} stamped {} spawns but has {} handoffs",
            id.0,
            nth_spawn,
            ctx.children[i].len()
        ));
    }
    Ok((finish, path))
}

/// Analyzes per-task reports (root first, as produced by the
/// interpreter) into the work/span decomposition.
///
/// # Errors
///
/// Returns a message if the reports are not a well-formed spawn/join
/// tree: missing root, dangling parents, unmatched spawn events,
/// missing `task_end`, or non-monotone event streams. The fuzz oracle
/// treats any such error as a `task_report_divergence`.
pub fn analyze(reports: &[TaskReport]) -> Result<CritPath, String> {
    let root = reports.first().ok_or("critpath: no task reports")?;
    if !root.is_root() {
        return Err(format!("critpath: first report is task {}, not the root", root.id.0));
    }
    let mut index: Vec<Option<usize>> = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        let slot = r.id.0 as usize;
        if slot >= index.len() {
            index.resize(slot + 1, None);
        }
        if index[slot].replace(i).is_some() {
            return Err(format!("critpath: task {} reported twice", r.id.0));
        }
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); reports.len()];
    for (i, r) in reports.iter().enumerate() {
        if r.is_root() {
            continue;
        }
        let p = index.get(r.parent.0 as usize).copied().flatten().ok_or_else(|| {
            format!("critpath: task {} has unknown parent {}", r.id.0, r.parent.0)
        })?;
        children[p].push(i);
    }
    for c in &mut children {
        c.sort_by_key(|&i| reports[i].seq);
    }
    let (span, raw_path) = simulate(&Ctx { reports, children }, 0, 0, 0)?;
    debug_assert_eq!(
        raw_path.iter().map(PathSeg::len).sum::<u64>(),
        span,
        "path segments must sum to the span by construction"
    );
    // Merge adjacent same-task links so the rendered path reads as one
    // interval per scheduling episode.
    let mut path: Vec<PathSeg> = Vec::new();
    for seg in raw_path.into_iter().filter(|s| !s.is_empty()) {
        match path.last_mut() {
            Some(last) if last.task == seg.task && last.to_local == seg.from_local => {
                last.to_local = seg.to_local;
            }
            _ => path.push(seg),
        }
    }
    let mut on_path: Vec<u64> = vec![0; reports.len()];
    for seg in &path {
        if let Some(i) = index.get(seg.task.0 as usize).copied().flatten() {
            on_path[i] += seg.len();
        }
    }
    let work = reports.iter().map(|r| r.cycles).sum();
    let tasks = reports
        .iter()
        .enumerate()
        .map(|(i, r)| TaskBreakdown {
            id: r.id,
            parent: r.parent,
            seq: r.seq,
            spawn_site: r.spawn_site,
            cycles: r.cycles,
            on_path_cycles: on_path[i],
            off_path_cycles: r.cycles.saturating_sub(on_path[i]),
            blocked_cycles: r.sched.blocked_cycles,
            on_path: on_path[i] > 0,
        })
        .collect();
    Ok(CritPath { work, span, tasks, path })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionId;
    use crate::shard::{SchedEvent, SchedLog};
    use crate::stats::Stats;

    fn report(
        id: u32,
        parent: u32,
        seq: u64,
        cycles: u64,
        events: Vec<(u64, SchedEventKind)>,
    ) -> TaskReport {
        TaskReport {
            id: ShardId(id),
            parent: ShardId(parent),
            seq,
            region: RegionId(0),
            spawn_site: 10 + id,
            cycles,
            steps: cycles,
            stats: Stats::new(),
            sched: SchedLog {
                events: events
                    .into_iter()
                    .map(|(local, kind)| SchedEvent { at: 0, local, kind })
                    .collect(),
                ..SchedLog::default()
            },
            timeline: None,
            tracer: None,
        }
    }

    fn leaf(id: u32, parent: u32, seq: u64, cycles: u64) -> TaskReport {
        report(
            id,
            parent,
            seq,
            cycles,
            vec![(0, SchedEventKind::TaskStart), (cycles, SchedEventKind::TaskEnd)],
        )
    }

    #[test]
    fn sequential_run_is_all_span() {
        let r = vec![leaf(0, 0, 0, 40)];
        let cp = analyze(&r).unwrap();
        assert_eq!(cp.work, 40);
        assert_eq!(cp.span, 40);
        assert_eq!(cp.ideal_parallelism_milli(), 1000);
        assert_eq!(cp.path, vec![PathSeg { task: ShardId::ROOT, from_local: 0, to_local: 40 }]);
    }

    #[test]
    fn long_child_dominates_the_path() {
        // Root: 10 cycles, spawn c1; 10 more, spawn c2; 10 more, join;
        // 10 more, end (40 total). c1 runs 50, c2 runs 5.
        let root = report(
            0,
            0,
            0,
            40,
            vec![
                (0, SchedEventKind::TaskStart),
                (10, SchedEventKind::Spawn { nth: 0 }),
                (20, SchedEventKind::Spawn { nth: 1 }),
                (30, SchedEventKind::JoinWaitBegin { pending: 2 }),
                (30, SchedEventKind::JoinWaitEnd),
                (40, SchedEventKind::TaskEnd),
            ],
        );
        let r = vec![root, leaf(1, 0, 0, 50), leaf(2, 0, 1, 5)];
        let cp = analyze(&r).unwrap();
        assert_eq!(cp.work, 95);
        // Path: root 0..10, c1 0..50, root 30..40 = 70.
        assert_eq!(cp.span, 70);
        assert_eq!(
            cp.path,
            vec![
                PathSeg { task: ShardId(0), from_local: 0, to_local: 10 },
                PathSeg { task: ShardId(1), from_local: 0, to_local: 50 },
                PathSeg { task: ShardId(0), from_local: 30, to_local: 40 },
            ]
        );
        assert_eq!(cp.root_serial(), 20);
        assert_eq!(cp.overlapped(), 25);
        assert_eq!(cp.ideal_parallelism_milli(), 95 * 1000 / 70);
        // The per-task split covers the span exactly.
        let on: u64 = cp.tasks.iter().map(|t| t.on_path_cycles).sum();
        assert_eq!(on, cp.span);
        assert!(cp.tasks[1].on_path && !cp.tasks[2].on_path);
        assert_eq!(cp.tasks[2].off_path_cycles, 5);
    }

    #[test]
    fn parent_wins_path_ties() {
        // Child finishes exactly when the parent reaches the join: the
        // parent's own chain is reported as the path.
        let root = report(
            0,
            0,
            0,
            30,
            vec![
                (0, SchedEventKind::TaskStart),
                (10, SchedEventKind::Spawn { nth: 0 }),
                (30, SchedEventKind::JoinWaitBegin { pending: 1 }),
                (30, SchedEventKind::JoinWaitEnd),
                (30, SchedEventKind::TaskEnd),
            ],
        );
        let r = vec![root, leaf(1, 0, 0, 20)];
        let cp = analyze(&r).unwrap();
        assert_eq!(cp.span, 30);
        assert_eq!(cp.path, vec![PathSeg { task: ShardId(0), from_local: 0, to_local: 30 }]);
        assert!(!cp.tasks[1].on_path);
    }

    #[test]
    fn nested_spawns_chain_through_both_levels() {
        // Root spawns c1; c1 spawns c2 (the grandchild does the work).
        let root = report(
            0,
            0,
            0,
            10,
            vec![
                (0, SchedEventKind::TaskStart),
                (5, SchedEventKind::Spawn { nth: 0 }),
                (8, SchedEventKind::JoinWaitBegin { pending: 1 }),
                (8, SchedEventKind::JoinWaitEnd),
                (10, SchedEventKind::TaskEnd),
            ],
        );
        let mid = report(
            1,
            0,
            0,
            6,
            vec![
                (0, SchedEventKind::TaskStart),
                (2, SchedEventKind::Spawn { nth: 0 }),
                (4, SchedEventKind::JoinWaitBegin { pending: 1 }),
                (4, SchedEventKind::JoinWaitEnd),
                (6, SchedEventKind::TaskEnd),
            ],
        );
        let r = vec![root, mid, leaf(2, 1, 1, 100)];
        let cp = analyze(&r).unwrap();
        assert_eq!(cp.work, 116);
        // root 0..5, mid 0..2, c2 0..100, mid 4..6, root 8..10.
        assert_eq!(cp.span, 5 + 2 + 100 + 2 + 2);
        assert!(cp.tasks.iter().all(|t| t.on_path));
    }

    #[test]
    fn malformed_trees_error_instead_of_panicking() {
        // Spawn event with no handoff behind it.
        let root = report(
            0,
            0,
            0,
            10,
            vec![
                (0, SchedEventKind::TaskStart),
                (5, SchedEventKind::Spawn { nth: 0 }),
                (10, SchedEventKind::TaskEnd),
            ],
        );
        assert!(analyze(&[root]).unwrap_err().contains("no matching handoff"));
        // Missing task_end.
        let stub = report(0, 0, 0, 10, vec![(0, SchedEventKind::TaskStart)]);
        assert!(analyze(&[stub]).unwrap_err().contains("no task_end"));
        // Unjoined child at end.
        let root = report(
            0,
            0,
            0,
            10,
            vec![
                (0, SchedEventKind::TaskStart),
                (5, SchedEventKind::Spawn { nth: 0 }),
                (10, SchedEventKind::TaskEnd),
            ],
        );
        let r = vec![root, leaf(1, 0, 0, 3)];
        assert!(analyze(&r).unwrap_err().contains("unjoined"));
        // No reports at all.
        assert!(analyze(&[]).is_err());
    }

    #[test]
    fn report_json_is_deterministic() {
        let root = report(
            0,
            0,
            0,
            30,
            vec![
                (0, SchedEventKind::TaskStart),
                (10, SchedEventKind::Spawn { nth: 0 }),
                (20, SchedEventKind::JoinWaitBegin { pending: 1 }),
                (20, SchedEventKind::JoinWaitEnd),
                (30, SchedEventKind::TaskEnd),
            ],
        );
        let r = vec![root, leaf(1, 0, 0, 25)];
        let a = analyze(&r).unwrap().to_json().render();
        let b = analyze(&r).unwrap().to_json().render();
        assert_eq!(a, b);
        assert!(a.contains(r#""work":55"#) && a.contains(r#""span":"#));
    }
}
