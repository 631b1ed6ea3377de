//! Critical-path collection: work/span attribution for one parallel
//! workload cell, rendered three ways.
//!
//! [`collect`] runs a [`rc_workloads::parspawn`] variant under the
//! deterministic scheduler and feeds its per-task reports through
//! [`region_rt::critpath_analyze`]. The result is emitted as:
//!
//! - a schema-stamped JSON report ([`CritPathRun::to_json`]) whose
//!   numbers are all virtual-clock, hence byte-deterministic per seed;
//! - a human rendering ([`CritPathRun::render_text`]) that walks the
//!   critical path link by link with `workload:line` spawn-site
//!   attribution (the `rc-bench-critpath` CLI output);
//! - a multi-track Chrome trace-event JSON ([`multi_track_trace`]):
//!   one Perfetto track per task — an `"X"` slice spanning the task's
//!   shared-clock lifetime, scheduler events as `"i"` instants on the
//!   task's track — so spawn fan-out, baton slices and join stalls are
//!   visible on one timeline. Byte-deterministic under `det_sched`
//!   because every timestamp is the shared virtual clock.

use rc_lang::{run_audited, RunConfig};
use rc_workloads::parspawn::par_source;
use rc_workloads::Scale;
use region_rt::{critpath_analyze, CritPath, Json, ShardId, TaskReport};

use crate::chrome;

/// Schema identifier embedded in every report; bumped on layout change
/// (registered in [`crate::schema`]).
pub const SCHEMA: &str = crate::schema::Schema::CritPath.id();

/// The default deterministic-scheduler seed (shared with the parallel
/// matrix so the two artifacts describe the same schedule).
pub const DET_SEED: u64 = crate::parallelmatrix::DET_SEED;

/// One analyzed cell: the run's identity, its task reports, and the
/// work/span decomposition.
#[derive(Debug, Clone)]
pub struct CritPathRun {
    /// Workload name.
    pub workload: String,
    /// Spawned task count.
    pub tasks: u32,
    /// Configuration display name.
    pub config: String,
    /// Workload scale.
    pub scale: u32,
    /// Deterministic-scheduler seed.
    pub seed: u64,
    /// Outcome key (`exit:N` on success).
    pub outcome: String,
    /// Merged virtual cycles.
    pub cycles: u64,
    /// The per-task reports the analysis consumed (root first).
    pub reports: Vec<TaskReport>,
    /// The work/span decomposition.
    pub cp: CritPath,
}

/// Runs one `workload × tasks` cell under `cfg` with the deterministic
/// scheduler seeded `seed`, and analyzes its critical path.
pub fn collect(
    workload: &str,
    tasks: u32,
    config_name: &str,
    cfg: &RunConfig,
    scale: Scale,
    seed: u64,
) -> Result<CritPathRun, String> {
    let src = par_source(workload, scale, tasks)
        .ok_or_else(|| format!("{workload}: no parallel variant"))?;
    let compiled = rc_lang::prepare(&src)
        .map_err(|e| format!("{workload}/t{tasks}: does not compile: {e}"))?;
    let r = run_audited(&compiled, &cfg.clone().det_sched(seed));
    if !matches!(r.audit, Some(Ok(()))) {
        return Err(format!("{workload}/t{tasks}/{config_name}: post-run audit failed"));
    }
    let cp = critpath_analyze(&r.task_reports)
        .map_err(|e| format!("{workload}/t{tasks}/{config_name}: {e}"))?;
    Ok(CritPathRun {
        workload: workload.to_string(),
        tasks,
        config: config_name.to_string(),
        scale: scale.0,
        seed,
        outcome: r.outcome.key(),
        cycles: r.cycles,
        reports: r.task_reports,
        cp,
    })
}

impl CritPathRun {
    /// `workload:line` attribution for a task's spawn site (the root
    /// task has no spawn site).
    fn site(&self, id: ShardId) -> String {
        match self.cp.tasks.iter().find(|t| t.id == id) {
            Some(t) if t.spawn_site != 0 => format!("{}:{}", self.workload, t.spawn_site),
            _ => "(root)".to_string(),
        }
    }

    /// Encodes the run, schema string first; all virtual-clock numbers,
    /// so byte-deterministic per seed.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::s(SCHEMA)),
            ("workload", Json::s(&*self.workload)),
            ("tasks", Json::U(u64::from(self.tasks))),
            ("config", Json::s(&*self.config)),
            ("scale", Json::U(u64::from(self.scale))),
            ("seed", Json::U(self.seed)),
            ("outcome", Json::s(&*self.outcome)),
            ("cycles", Json::U(self.cycles)),
            ("critpath", self.cp.to_json()),
        ])
    }

    /// Renders the report as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut s = self.to_json().render_pretty();
        s.push('\n');
        s
    }

    /// The human rendering: headline work/span numbers, the critical
    /// path link by link with spawn-site attribution, then the per-task
    /// breakdown table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path — {} ×{} ({}, seed {:#x})",
            self.workload, self.tasks, self.config, self.seed
        );
        let m = self.cp.ideal_parallelism_milli();
        let _ = writeln!(
            out,
            "work {} cycles, span {} cycles, ideal parallelism {}.{:02}x",
            self.cp.work,
            self.cp.span,
            m / 1000,
            m % 1000 / 10,
        );
        let _ = writeln!(
            out,
            "root-serial {} cycles, overlappable {} cycles, blocked (observed) {} cycles",
            self.cp.root_serial(),
            self.cp.overlapped(),
            self.cp.blocked_total(),
        );
        let _ = writeln!(out, "path ({} links):", self.cp.path.len());
        for seg in &self.cp.path {
            let _ = writeln!(
                out,
                "  task {:<3} {:<12} [{}..{})  {} cycles",
                seg.task.0,
                self.site(seg.task),
                seg.from_local,
                seg.to_local,
                seg.len(),
            );
        }
        let _ = writeln!(out, "per-task:");
        let _ = writeln!(out, "  task  parent  site          cycles  on-path  off-path  blocked");
        for t in &self.cp.tasks {
            let _ = writeln!(
                out,
                "  {:<4}  {:<6}  {:<12}  {:<6}  {:<7}  {:<8}  {}{}",
                t.id.0,
                t.parent.0,
                self.site(t.id),
                t.cycles,
                t.on_path_cycles,
                t.off_path_cycles,
                t.blocked_cycles,
                if t.on_path { "  *" } else { "" },
            );
        }
        out
    }
}

/// Builds the multi-track Chrome trace-event JSON for a parallel run:
/// pid 1 is the run, each task is a track (`tid` = shard id). Per track:
/// a `"task"` `"X"` slice from the task's first to last shared-clock
/// stamp (args carry its cycles, blocked time, and critical-path
/// share), then every retained scheduler event as an `"i"` instant.
/// Timestamps are the shared virtual clock throughout — byte-identical
/// across runs under the deterministic scheduler.
pub fn multi_track_trace(run: &CritPathRun) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for r in &run.reports {
        let bd = run.cp.tasks.iter().find(|t| t.id == r.id);
        let name = if r.is_root() {
            "task 0 (root)".to_string()
        } else {
            format!("task {} ({}:{})", r.id.0, run.workload, r.spawn_site)
        };
        events.push(chrome::event(
            name,
            "task",
            r.id.0 as u64,
            r.sched.born_at,
            Some(r.sched.ended_at.saturating_sub(r.sched.born_at)),
            vec![
                ("parent", Json::U(r.parent.0 as u64)),
                ("seq", Json::U(r.seq)),
                ("cycles", Json::U(r.cycles)),
                ("steps", Json::U(r.steps)),
                ("blocked_cycles", Json::U(r.sched.blocked_cycles)),
                ("on_path_cycles", Json::U(bd.map_or(0, |t| t.on_path_cycles))),
                ("on_path", Json::Bool(bd.is_some_and(|t| t.on_path))),
                ("events_dropped", Json::U(r.sched.dropped)),
            ],
        ));
        for e in &r.sched.events {
            events.push(chrome::event(
                e.kind.name(),
                "sched",
                r.id.0 as u64,
                e.at,
                None,
                vec![("local", Json::U(e.local)), ("arg", Json::U(e.kind.arg()))],
            ));
        }
    }
    chrome::document(
        events,
        vec![
            ("schema", Json::s(SCHEMA)),
            ("workload", Json::s(&*run.workload)),
            ("config", Json::s(&*run.config)),
            ("tasks", Json::U(u64::from(run.tasks))),
            ("seed", Json::U(run.seed)),
            ("work", Json::U(run.cp.work)),
            ("span", Json::U(run.cp.span)),
            ("ideal_parallelism_milli", Json::U(run.cp.ideal_parallelism_milli())),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CritPathRun {
        collect("moss", 4, "lea", &RunConfig::lea(), Scale::TINY, DET_SEED)
            .expect("moss ×4 collects")
    }

    #[test]
    fn collects_and_identities_hold() {
        let run = tiny();
        assert_eq!(run.outcome, "exit:4");
        assert_eq!(run.cp.work, run.cycles, "no base factor under lea");
        assert!(run.cp.span <= run.cp.work);
        assert_eq!(run.cp.span + run.cp.overlapped(), run.cp.work);
        assert_eq!(run.reports.len(), 5, "root + 4 tasks");
        assert_eq!(run.cp.tasks.len(), 5);
    }

    #[test]
    fn text_rendering_walks_the_path_with_sites() {
        let run = tiny();
        let text = run.render_text();
        assert!(text.contains("critical path — moss ×4"), "{text}");
        assert!(text.contains("ideal parallelism"), "{text}");
        assert!(text.contains("(root)"), "{text}");
        assert!(text.contains("moss:"), "spawn-site attribution missing:\n{text}");
        assert!(text.contains("per-task:"), "{text}");
    }

    #[test]
    fn json_and_trace_are_byte_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.render(), b.render());
        let ta = multi_track_trace(&a).render_pretty();
        let tb = multi_track_trace(&b).render_pretty();
        assert_eq!(ta, tb, "multi-track export must be byte-identical per seed");
        assert!(a.render().contains(SCHEMA));
        assert!(ta.contains(SCHEMA));
    }

    #[test]
    fn trace_has_one_track_per_task_plus_sched_instants() {
        let run = tiny();
        let doc = multi_track_trace(&run);
        let evs = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let slices: Vec<_> =
            evs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(slices.len(), run.reports.len(), "one X slice per task");
        let instants = evs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"));
        let total_events: usize = run.reports.iter().map(|r| r.sched.events.len()).sum();
        assert_eq!(instants.count(), total_events, "one instant per retained sched event");
        // Every task id appears as a tid.
        for r in &run.reports {
            assert!(
                slices.iter().any(|e| e.get("tid").and_then(Json::as_u64) == Some(r.id.0 as u64)),
                "task {} has no track",
                r.id.0
            );
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(collect("nope", 2, "lea", &RunConfig::lea(), Scale::TINY, DET_SEED).is_err());
    }
}
