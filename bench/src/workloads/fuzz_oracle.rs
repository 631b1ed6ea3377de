//! `fuzz-oracle`: the differential campaign CI runs. A job is one
//! `rc_fuzz::check_source` of a generated program: compile, then about
//! ten audited runs across the allocator matrix. Region inference does
//! nearly all of the work and interpretation little.
//!
//! The programs are early campaign seeds at sizes 6 (the CLI default),
//! 10 and 14 (where inference cost was last claimed to drop). They do
//! not depend on `--seed`: one program's cost varies by two orders of
//! magnitude across generator seeds, so a seed-drawn set of a dozen would
//! make runs at different seeds incomparable. `--seed` orders the jobs.
//! A job's cost is its fastest pass, which needs ten or more passes in a
//! run to be steady, so a pass is kept near 1.5 s: size 10's seeds 0 and
//! 3 and size 14's seed 1 are left out, as each check takes 0.8–1.3 s.

use std::hint::black_box;
use std::ops::Range;

use rc_fuzz::{check_source, generate_source, GenConfig};

use crate::harness::Workload;
use crate::metrics::Values;
use crate::spans::{per, SelfTable, Spans};

/// (size, campaign seeds).
const PROGRAMS: [(u32, Range<u64>); 3] = [(6, 0..9), (10, 1..3), (14, 0..1)];

/// Per-run step budget, as the campaign passes it.
const STEP_BUDGET: u64 = 20_000_000;

pub struct FuzzOracle;

pub struct State {
    /// (label, source).
    sources: Vec<(String, String)>,
}

impl Workload for FuzzOracle {
    type State = State;

    fn setup(&self, sp: &mut Spans) -> Result<State, String> {
        let mut sources = Vec::new();
        for (size, seeds) in PROGRAMS {
            let cfg = GenConfig {
                size,
                ..GenConfig::default()
            };
            for seed in seeds {
                let src = sp.leaf("rc_fuzz.gen", || generate_source(seed, &cfg));
                sources.push((format!("size{size}/seed{seed}"), src));
            }
        }
        Ok(State { sources })
    }

    fn jobs(&self, st: &State) -> usize {
        st.sources.len()
    }

    fn label(&self, st: &State, job: usize) -> String {
        st.sources[job].0.clone()
    }

    fn run_job(&self, st: &State, job: usize, _seed: u64, sp: &mut Spans) -> Result<(), String> {
        let src = &st.sources[job].1;
        if sp.on() {
            // The front end layer by layer, plus the `prepare` that
            // `rc_fuzz.oracle.runs_ms` subtracts.
            crate::frontend::prepare(src, sp)?;
        }
        let report = sp.leaf("rc_fuzz.oracle", || check_source(src, STEP_BUDGET));
        let report = report.map_err(|e| format!("does not compile: {e}"))?;
        sp.count("steps", report.steps);
        sp.count("eliminated_sites", report.eliminated_sites as u64);
        sp.count("checks_counted", report.checks_counted);
        if !report.passed() {
            let v: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
            return Err(format!("oracle violations: {}", v.join("; ")));
        }
        black_box(report);
        Ok(())
    }

    fn layer_metrics(&self, _st: &State, _sp: &Spans, t: &SelfTable, m: &mut Values) {
        let oracle = "rc_fuzz.oracle";
        let runs_ms = t.self_ms(oracle) - t.self_ms("prepare");
        let mut put = |k: &str, v: f64| {
            m.insert(k.to_string(), v);
        };
        put("rc_fuzz.gen.busy_ms", t.mean_ms("rc_fuzz.gen"));
        put("rc_fuzz.oracle.runs_ms", per(runs_ms, t.n(oracle)));
        put("rc_fuzz.oracle.steps", t.mean(oracle, "steps"));
        put(
            "rc_fuzz.oracle.eliminated_sites",
            t.mean(oracle, "eliminated_sites"),
        );
        put(
            "rc_fuzz.oracle.checks_counted",
            t.mean(oracle, "checks_counted"),
        );
    }
}
