//! `spawn-sched`: the schedulers. A job runs one `parspawn` program (four
//! tasks, `Scale::SMALL`) under the seeded baton scheduler, analyses its
//! critical path, then runs it again on two real threads. Baton handoffs
//! and shard join/merge do most of the work here and none in the other
//! workloads. `--seed` picks each job's baton seed, so runs at different
//! seeds explore different interleavings while every pass of one run
//! repeats the same ones.

use std::hint::black_box;

use rc_lang::{run, Compiled, Outcome, RunConfig, RunResult};
use rc_workloads::{parspawn::par_source, Scale};

use crate::harness::Workload;
use crate::metrics::Values;
use crate::spans::{per, SelfTable, Spans};

/// Spawned tasks per program.
const TASKS: u32 = 4;

/// Real-thread concurrency cap (the benchmark host has two cores).
const WORKERS: u32 = 2;

pub struct SpawnSched;

pub struct State {
    config: RunConfig,
    programs: Vec<Program>,
}

struct Program {
    name: &'static str,
    compiled: Compiled,
    /// The inline (sequential) reference run's outcome and merged stats.
    outcome: Outcome,
    stats_json: String,
}

impl Program {
    /// Fails unless `r` matches the inline reference.
    fn check(&self, r: &RunResult, sched: &str) -> Result<(), String> {
        if r.outcome != self.outcome {
            return Err(format!(
                "{sched}: ended {:?}, inline {:?}",
                r.outcome, self.outcome
            ));
        }
        if r.stats.to_json().render() != self.stats_json {
            return Err(format!(
                "{sched}: merged stats differ from the inline run's"
            ));
        }
        Ok(())
    }
}

impl Workload for SpawnSched {
    type State = State;

    fn setup(&self, sp: &mut Spans) -> Result<State, String> {
        let config = RunConfig::rc_inf();
        let mut programs = Vec::new();
        for w in rc_workloads::all() {
            let src = par_source(w.name, Scale::SMALL, TASKS)
                .ok_or_else(|| format!("{}: no parallel variant", w.name))?;
            let compiled =
                crate::frontend::prepare(&src, sp).map_err(|e| format!("{}: {e}", w.name))?;
            let r = sp.leaf("sched.reference", || run(&compiled, &config));
            if !r.outcome.is_exit() {
                return Err(format!(
                    "{}: inline reference run ended {:?}",
                    w.name, r.outcome
                ));
            }
            let stats_json = r.stats.to_json().render();
            programs.push(Program {
                name: w.name,
                compiled,
                outcome: r.outcome,
                stats_json,
            });
        }
        Ok(State { config, programs })
    }

    fn jobs(&self, st: &State) -> usize {
        st.programs.len()
    }

    fn label(&self, st: &State, job: usize) -> String {
        st.programs[job].name.to_string()
    }

    fn run_job(&self, st: &State, job: usize, seed: u64, sp: &mut Spans) -> Result<(), String> {
        let p = &st.programs[job];
        let c = &p.compiled;
        if sp.on() {
            // The base for `sched.det.us_per_handoff`.
            let r = sp.leaf("sched.inline", || run(c, &st.config));
            p.check(&r, "inline")?;
        }
        let det_cfg = st.config.clone().det_sched(seed);
        let det = sp.leaf("sched.det", || run(c, &det_cfg));
        let logs = || det.task_reports.iter().map(|t| &t.sched);
        sp.count("baton_acquires", logs().map(|l| l.baton_acquires).sum());
        sp.count("join_waits", logs().map(|l| l.join_waits).sum());
        sp.count("blocked_cycles", logs().map(|l| l.blocked_cycles).sum());
        sp.count("events_dropped", logs().map(|l| l.dropped).sum());
        sp.count("handoffs", det.handoffs.len() as u64);
        p.check(&det, "det")?;
        let cp = sp.leaf("critpath", || {
            region_rt::critpath_analyze(&det.task_reports)
        });
        let cp = cp.map_err(|e| format!("critpath rejected the task reports: {e}"))?;
        sp.count("parallelism_milli", cp.ideal_parallelism_milli());
        if cp.work != det.cycles {
            return Err(format!(
                "critpath work {} != run cycles {}",
                cp.work, det.cycles
            ));
        }
        let thr_cfg = st.config.clone().threaded(WORKERS);
        let thr = sp.leaf("sched.threads", || run(c, &thr_cfg));
        sp.count(
            "sema_blocks",
            thr.task_reports.iter().map(|t| t.sched.sema_blocks).sum(),
        );
        p.check(&thr, "threads")?;
        black_box((det, cp, thr));
        Ok(())
    }

    fn layer_metrics(&self, _st: &State, _sp: &Spans, t: &SelfTable, m: &mut Values) {
        let det = "sched.det";
        let acquires = t.sum(det, "baton_acquires");
        let det_over_inline_us = 1e3 * (t.self_ms(det) - t.self_ms("sched.inline"));
        let mut put = |k: &str, v: f64| {
            m.insert(k.to_string(), v);
        };
        put("sched.inline.run_ms", t.mean_ms("sched.inline"));
        put("sched.det.run_ms", t.mean_ms(det));
        put("sched.threads.run_ms", t.mean_ms("sched.threads"));
        put("sched.det.baton_acquires", t.mean(det, "baton_acquires"));
        put(
            "sched.det.us_per_handoff",
            per(det_over_inline_us, acquires),
        );
        put("sched.join_waits", t.mean(det, "join_waits"));
        put("sched.blocked_cycles", t.mean(det, "blocked_cycles"));
        put("sched.events_dropped", t.mean(det, "events_dropped"));
        put(
            "sched.threads.sema_blocks",
            t.mean("sched.threads", "sema_blocks"),
        );
        put("shard.handoffs", t.mean(det, "handoffs"));
        put("critpath.busy_ms", t.mean_ms("critpath"));
        put(
            "critpath.parallelism",
            t.mean("critpath", "parallelism_milli") / 1e3,
        );
    }
}
