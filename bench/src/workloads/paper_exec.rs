//! `paper-exec`: the paper's own matrix. A job is one `rc_lang::run` of a
//! Figure 7 program at `Scale::SMALL` under one of seven configurations,
//! so interpreter dispatch and runtime operations (alloc, rc update,
//! check, unscan, GC) do nearly all the work; compilation happens only in
//! setup.

use std::collections::BTreeMap;
use std::hint::black_box;

use rc_lang::{run, CheckMode, Compiled, Outcome, RunConfig};
use region_rt::Stats;

use crate::harness::Workload;
use crate::metrics::Values;
use crate::spans::{per, SelfTable, Spans};

/// The Figure 7 configurations plus Figure 8's `nq` and `qs`, by their
/// metric-name suffixes.
fn configs() -> Vec<(&'static str, RunConfig)> {
    vec![
        ("cat", RunConfig::cat()),
        ("lea", RunConfig::lea()),
        ("gc", RunConfig::gc()),
        ("norc", RunConfig::norc()),
        ("rc", RunConfig::rc_inf()),
        ("nq", RunConfig::rc(CheckMode::Nq)),
        ("qs", RunConfig::rc(CheckMode::Qs)),
    ]
}

/// Runs of the empty program timed for `interp.fixed_cost_us`.
const FIXED_COST_RUNS: usize = 200;

pub struct PaperExec;

pub struct State {
    programs: Vec<(&'static str, Compiled)>,
    configs: Vec<(&'static str, RunConfig)>,
    /// (steps, cycles) of one reference run per job, made in setup.
    reference: Vec<(u64, u64)>,
    /// The reference runs' merged counters: one pass's runtime work.
    pass_stats: Stats,
}

impl Workload for PaperExec {
    type State = State;

    fn setup(&self, sp: &mut Spans) -> Result<State, String> {
        let programs = super::paper_programs(sp)?;
        let configs = configs();
        let mut reference = Vec::with_capacity(programs.len() * configs.len());
        let mut pass_stats = Stats::new();
        for (name, c) in &programs {
            for (cfg_name, cfg) in &configs {
                let r = sp.leaf("interp.reference", || run(c, cfg));
                if !r.outcome.is_exit() {
                    return Err(format!(
                        "{name}/{cfg_name}: reference run ended {:?}",
                        r.outcome
                    ));
                }
                reference.push((r.steps, r.cycles));
                pass_stats = pass_stats.merge(&r.stats);
            }
        }
        Ok(State {
            programs,
            configs,
            reference,
            pass_stats,
        })
    }

    fn jobs(&self, st: &State) -> usize {
        st.reference.len()
    }

    fn label(&self, st: &State, job: usize) -> String {
        let n = st.configs.len();
        format!("{}/{}", st.programs[job / n].0, st.configs[job % n].0)
    }

    fn run_job(&self, st: &State, job: usize, _seed: u64, sp: &mut Spans) -> Result<(), String> {
        let n = st.configs.len();
        let (c, cfg) = (&st.programs[job / n].1, &st.configs[job % n].1);
        let r = sp.leaf("interp.run", || run(c, cfg));
        sp.count("steps", r.steps);
        let (steps, cycles) = st.reference[job];
        if !r.outcome.is_exit() {
            return Err(format!("ended {:?}", r.outcome));
        }
        if (r.steps, r.cycles) != (steps, cycles) {
            return Err(format!(
                "steps/cycles {}/{} differ from the reference run's {steps}/{cycles}",
                r.steps, r.cycles
            ));
        }
        black_box(r);
        Ok(())
    }

    /// Times `run` on an empty program: the per-run thread, heap and
    /// interpreter set-up cost every job pays.
    fn probe(&self, _st: &State, sp: &mut Spans) -> Result<(), String> {
        let c = rc_lang::prepare("int main() { return 0; }").map_err(|e| e.to_string())?;
        let cfg = RunConfig::rc_inf();
        for _ in 0..FIXED_COST_RUNS {
            let r = sp.leaf("interp.fixed_cost", || run(&c, &cfg));
            if r.outcome != Outcome::Exit(0) {
                return Err(format!("the empty program ended {:?}", r.outcome));
            }
        }
        Ok(())
    }

    fn layer_metrics(&self, st: &State, sp: &Spans, _t: &SelfTable, m: &mut Values) {
        // (ns, steps) per metric name, from the traced job spans.
        let mut by: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for s in sp.all().iter().filter(|s| s.name == "interp.run") {
            let (prog, cfg) = sp.root_label(s).split_once('/').unwrap_or_default();
            let keys = [
                "interp.ns_per_step".to_string(),
                format!("interp.ns_per_step.cfg.{cfg}"),
                format!("interp.ns_per_step.prog.{prog}"),
            ];
            for k in keys {
                let e = by.entry(k).or_default();
                e.0 += s.dur_ns();
                e.1 += s.count("steps");
            }
        }
        if let Some(&(ns, steps)) = by.get("interp.ns_per_step") {
            m.insert("interp.msteps_per_s".into(), per(steps as f64 * 1e3, ns));
        }
        for (k, (ns, steps)) in by {
            m.insert(k, per(ns as f64, steps));
        }
        let fixed: Vec<f64> = sp
            .all()
            .iter()
            .filter(|s| s.name == "interp.fixed_cost")
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        m.insert(
            "interp.fixed_cost_us".into(),
            crate::stats::median(&fixed).unwrap_or(0.0),
        );

        let s = &st.pass_stats;
        let counters = [
            (
                "region_rt.rc_updates",
                s.rc_updates_full + s.rc_updates_same,
            ),
            (
                "region_rt.checks",
                s.checks_sameregion + s.checks_traditional + s.checks_parentptr,
            ),
            ("region_rt.objects_allocated", s.objects_allocated),
            ("region_rt.regions_created", s.regions_created),
            ("region_rt.unscan_words", s.unscan_words),
            ("region_rt.malloc_calls", s.malloc_calls),
            ("region_rt.gc_collections", s.gc_collections),
            ("region_rt.gc_marked_words", s.gc_marked_words),
            ("region_rt.local_pins", s.local_pins),
        ];
        for (k, v) in counters {
            m.insert(k.into(), v as f64);
        }
        let eliminated = per(s.assigns_safe as f64, s.assigns_safe + s.assigns_checked);
        m.insert("region_rt.checks_eliminated_ratio".into(), eliminated);
    }
}
