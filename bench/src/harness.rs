//! The closed-loop harness every workload shares: timed setup
//! repetitions, one untimed warm-up pass, then timed passes over the
//! workload's jobs in a seeded order until the time budget is spent.

use std::path::PathBuf;
use std::time::Instant;

use region_rt::Json;

use crate::cpu;
use crate::metrics::{self, Metric, Values};
use crate::spans::{SelfTable, Spans};
use crate::stats;

/// Schema tag of the per-run result file.
pub const RESULT_SCHEMA: &str = "rc-perf-result/v1";

/// One workload: its inputs, its jobs and the gates on their outputs.
pub trait Workload {
    /// Inputs built by setup and shared by every job.
    type State;

    /// Builds the inputs. Timed, and repeated; any error is fatal to the
    /// run. Inputs do not depend on `--seed`, which orders the jobs and
    /// draws each job's `job_seed`.
    fn setup(&self, sp: &mut Spans) -> Result<Self::State, String>;

    /// Jobs in one pass.
    fn jobs(&self, st: &Self::State) -> usize;

    /// What job `job` runs, for span labels and error messages.
    fn label(&self, st: &Self::State, job: usize) -> String;

    /// Runs job `job` and checks its output. `job_seed` is drawn from the
    /// run's seed for this job and is the same on every pass, so each pass
    /// repeats the same work. With spans on, each call into a layer gets
    /// a span.
    fn run_job(
        &self,
        st: &Self::State,
        job: usize,
        job_seed: u64,
        sp: &mut Spans,
    ) -> Result<(), String>;

    /// Traced runs only: measurements outside the jobs, under a `probe`
    /// root span.
    fn probe(&self, _st: &Self::State, _sp: &mut Spans) -> Result<(), String> {
        Ok(())
    }

    /// Traced runs only: this workload's per-layer metrics.
    fn layer_metrics(&self, st: &Self::State, sp: &Spans, t: &SelfTable, m: &mut Values);
}

/// How one `run` is measured.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// One setup, no warm-up, one timed pass (one untraced and one traced
    /// when tracing).
    pub smoke: bool,
    /// Directory for result and trace files.
    pub out: PathBuf,
}

/// Setup runs once before the warm-up pass, whose inputs every pass uses,
/// and again before each timed pass until it has run `SETUP_MIN_REPS`
/// times and `SETUP_BUDGET_S` seconds, or `SETUP_MAX_REPS` times;
/// `setup_s` is the median. The repetitions are spread over the run
/// because the host's speed changes every few seconds: back to back, a
/// short setup's repetitions would all see the same speed.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;

/// An untraced run times passes past `--seconds` until it holds this
/// many, so each job's fastest repetition is taken over at least as many
/// samples.
const MIN_TIMED_PASSES: usize = 5;

/// What a run produced.
pub struct Report {
    /// Jobs run, warm-up included.
    pub attempted: u64,
    /// Jobs whose output failed its gate.
    pub failed: u64,
    /// The metrics the final line carries.
    pub metrics: Json,
    /// The result document written to `--out`.
    pub result: Json,
    /// Human-readable summary lines.
    pub text: String,
}

/// Jobs run and jobs that failed their gate.
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, label: impl FnOnce() -> String, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("rc-perf: job {} failed: {e}", label());
            }
        }
    }
}

/// One pass: each job's milliseconds, in job order, the pass's wall
/// time, gates and job-order bookkeeping included, and the CPU it ran on.
struct Pass {
    job_ms: Vec<f64>,
    /// The probe's time on the pass's CPU just after each job.
    probe_ms: Vec<f64>,
    wall_s: f64,
    on: cpu::Probed,
}

/// Each job's fastest repetition over `passes`, in milliseconds.
fn fastest(passes: &[Pass]) -> Vec<f64> {
    let job_ms: Vec<Vec<f64>> = passes.iter().map(|p| p.job_ms.clone()).collect();
    stats::fastest(&job_ms)
}

/// Runs one workload end to end.
///
/// # Errors
///
/// A setup failure or a probe failure; job failures are counted instead.
pub fn execute<W: Workload>(w: &W, o: &Options) -> Result<Report, String> {
    let cpus = cpu::allowed()?;
    let mut sp = if o.trace { Spans::new() } else { Spans::off() };
    let mut setup_s: Vec<f64> = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>, sp: &mut Spans| -> Result<W::State, String> {
        cpu::move_to_fastest(&cpus)?;
        sp.set_on(o.trace);
        sp.begin_root("setup", || format!("rep {}", setup_s.len()));
        let t = Instant::now();
        let st = w.setup(sp)?;
        setup_s.push(t.elapsed().as_secs_f64());
        sp.end_root();
        Ok(st)
    };
    let wants_setup = |setup_s: &[f64]| {
        !o.smoke
            && setup_s.len() < SETUP_MAX_REPS
            && (setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    };
    let st = set_up(&mut setup_s, &mut sp)?;
    let jobs = w.jobs(&st);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
    };
    let mut run_pass = |pass: u64, traced: bool, sp: &mut Spans| -> Result<Pass, String> {
        let on = cpu::move_to_fastest(&cpus)?;
        sp.set_on(traced);
        let mut job_ms = vec![0.0; jobs];
        let mut probe_ms = vec![0.0; jobs];
        let start = Instant::now();
        for j in permutation(jobs, mix(o.seed, pass)) {
            sp.begin_root("job", || w.label(&st, j));
            let t = Instant::now();
            let r = w.run_job(&st, j, mix(o.seed, j as u64), sp);
            job_ms[j] = t.elapsed().as_secs_f64() * 1e3;
            sp.end_root();
            probe_ms[j] = cpu::probe_ms();
            tally.record(|| w.label(&st, j), r);
        }
        Ok(Pass {
            job_ms,
            probe_ms,
            wall_s: start.elapsed().as_secs_f64(),
            on,
        })
    };
    if !o.smoke {
        run_pass(0, false, &mut sp)?;
    }
    // A traced run alternates untraced and traced passes, so the two
    // throughputs come from the same stretch of time.
    let min_passes = match (o.smoke, o.trace) {
        (true, false) => 1,
        (true, true) => 2,
        (false, false) => MIN_TIMED_PASSES,
        (false, true) => 4,
    };
    let (mut plain, mut traced) = (Vec::<Pass>::new(), Vec::<Pass>::new());
    let start = Instant::now();
    let mut pass = 1;
    while plain.len() + traced.len() < min_passes
        || (!o.smoke && start.elapsed().as_secs() < o.seconds)
    {
        if wants_setup(&setup_s) {
            set_up(&mut setup_s, &mut sp)?;
        }
        let is_traced = o.trace && pass % 2 == 0;
        let p = run_pass(pass, is_traced, &mut sp)?;
        if is_traced { &mut traced } else { &mut plain }.push(p);
        pass += 1;
    }
    let measured_s = start.elapsed().as_secs_f64();
    let others = if o.trace {
        crate::workloads::other_layers(o, &mut tally)?
    } else {
        Values::new()
    };
    let Tally { attempted, failed } = tally;

    // Every pass repeats the same work, and the host only ever slows it
    // down: a CPU's speed drops by up to half for seconds to minutes at a
    // time. A job's fastest timed repetition is its cost with those slow
    // stretches removed. What remains is the speed of the host's fast
    // stretches, which differs from run to run by up to a sixth. The
    // probe's 5th percentile tracks it one for one, so the timings are
    // scaled to a CPU on which the probe takes `cpu::REFERENCE_PROBE_MS`
    // (README, "Measuring well").
    let best = fastest(&plain);
    let plain_jobs_per_s = stats::jobs_per_s(&best).unwrap_or(0.0);
    let probe_ms: Vec<f64> = plain.iter().flat_map(|p| p.probe_ms.clone()).collect();
    let host_probe_ms = stats::percentile(&probe_ms, 5.0).expect("a timed pass ran");
    let slowness = host_probe_ms / cpu::REFERENCE_PROBE_MS;
    let unscaled = [
        ("setup_s", stats::median(&setup_s).unwrap_or(0.0)),
        ("jobs_per_s", plain_jobs_per_s),
        ("job_ms_geomean", stats::geomean(&best).unwrap_or(0.0)),
    ];
    let mut e2e = Values::new();
    for (name, v) in unscaled {
        let rate = name == "jobs_per_s";
        e2e.insert(name.into(), if rate { v * slowness } else { v / slowness });
    }
    e2e.insert("peak_rss_mb".into(), peak_rss_mb());

    let mut text = format!(
        "rc-perf {} seed {}: {} setups, {} timed passes x {} jobs in {:.1} s, \
         {} attempted, {} failed\n\
         host: probe p5 {host_probe_ms:.4} ms, so timings are divided by \
         {slowness:.4} (the probe takes {} ms on the reference CPU)\n",
        o.workload,
        o.seed,
        setup_s.len(),
        plain.len() + traced.len(),
        jobs,
        measured_s,
        attempted,
        failed,
        cpu::REFERENCE_PROBE_MS
    );
    let job_ms: Vec<Vec<f64>> = plain.iter().map(|p| p.job_ms.clone()).collect();
    let mut result = vec![
        ("schema", Json::s(RESULT_SCHEMA)),
        ("workload", Json::s(&*o.workload)),
        ("seed", Json::U(o.seed)),
        ("seconds", Json::U(o.seconds)),
        ("trace", Json::Bool(o.trace)),
        ("smoke", Json::Bool(o.smoke)),
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U(attempted)),
        ("failed", Json::U(failed)),
        (
            "failed_frac",
            Json::F(failed as f64 / attempted.max(1) as f64),
        ),
        ("jobs_per_pass", Json::U(jobs as u64)),
        ("timed_passes", Json::U(plain.len() as u64)),
        ("setup_s_samples", floats(&setup_s)),
        (
            "job_labels",
            Json::A((0..jobs).map(|j| Json::s(w.label(&st, j))).collect()),
        ),
        (
            "pass_wall_s",
            Json::A(plain.iter().map(|p| Json::F(p.wall_s)).collect()),
        ),
        (
            "pass_cpu",
            Json::A(plain.iter().map(|p| Json::U(p.on.cpu as u64)).collect()),
        ),
        (
            "pass_cpu_probe_ms",
            Json::A(plain.iter().map(|p| Json::F(p.on.probe_ms)).collect()),
        ),
        (
            "pass_job_probe_ms",
            Json::A(plain.iter().map(|p| floats(&p.probe_ms)).collect()),
        ),
        ("host_probe_ms", Json::F(host_probe_ms)),
        ("reference_probe_ms", Json::F(cpu::REFERENCE_PROBE_MS)),
        (
            "unscaled",
            Json::obj(unscaled.iter().map(|&(k, v)| (k, Json::F(v))).collect()),
        ),
        (
            "pass_job_ms",
            Json::A(job_ms.iter().map(|p| floats(p)).collect()),
        ),
        ("job_fastest_ms", floats(&best)),
        (
            "threads_available",
            Json::U(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
    ];

    let spec = metrics::spec();
    let metrics = if o.trace {
        sp.set_on(true);
        sp.begin_root("probe", String::new);
        w.probe(&st, &mut sp)?;
        sp.end_root();
        let table = sp.self_table();
        let mut layer = Values::new();
        crate::frontend::layer_metrics(&table, &mut layer);
        w.layer_metrics(&st, &sp, &table, &mut layer);
        for (k, v) in others {
            layer.entry(k).or_insert(v);
        }
        let traced_jps = stats::jobs_per_s(&fastest(&traced)).unwrap_or(0.0);
        let overhead = if traced_jps > 0.0 {
            100.0 * (plain_jobs_per_s / traced_jps - 1.0)
        } else {
            0.0
        };
        layer.insert("bench.trace_overhead_pct".into(), overhead);
        let job = table.row("job");
        let unattributed = crate::spans::per(100.0 * job.self_ns as f64, job.total_ns);
        layer.insert("bench.unattributed_pct".into(), unattributed);

        let trace_path = o.out.join(format!("{}.trace.json", o.workload));
        write(&trace_path, &sp.chrome_trace(&o.workload).render())?;
        text.push_str(&table.render());
        text.push_str(&format!("spans written to {}\n", trace_path.display()));
        text.push_str(&lines(&spec.per_layer, &layer));
        result.push(("self_time", table.to_json()));
        metrics::to_json(&spec.per_layer, &layer)
    } else {
        text.push_str(&lines(&spec.end_to_end, &e2e));
        metrics::to_json(&spec.end_to_end, &e2e)
    };
    result.push(("metrics", metrics.clone()));
    Ok(Report {
        attempted,
        failed,
        metrics,
        result: Json::obj(result),
        text,
    })
}

/// Adds to `m` the per-layer metrics of `w`'s own layers, measured on
/// fresh inputs, `w`'s probe and one traced pass of its jobs; their gates
/// count in `tally`. A traced run of another workload takes from it the
/// metrics its own jobs leave unmeasured.
///
/// # Errors
///
/// A setup failure or a probe failure.
pub fn layer_sample<W: Workload>(
    w: &W,
    seed: u64,
    tally: &mut Tally,
    m: &mut Values,
) -> Result<(), String> {
    let mut sp = Spans::new();
    sp.begin_root("setup", || "layer sample".into());
    let st = w.setup(&mut sp)?;
    sp.end_root();
    sp.begin_root("probe", String::new);
    w.probe(&st, &mut sp)?;
    sp.end_root();
    for j in permutation(w.jobs(&st), mix(seed, 0)) {
        sp.begin_root("job", || w.label(&st, j));
        let r = w.run_job(&st, j, mix(seed, j as u64), &mut sp);
        sp.end_root();
        tally.record(|| w.label(&st, j), r);
    }
    w.layer_metrics(&st, &sp, &sp.self_table(), m);
    Ok(())
}

fn floats(xs: &[f64]) -> Json {
    Json::A(xs.iter().map(|&x| Json::F(x)).collect())
}

fn lines(defs: &[Metric], values: &Values) -> String {
    defs.iter()
        .map(|d| {
            let v = values.get(&d.name).copied().unwrap_or(0.0);
            format!("  {:<36} {:>16.6} {}\n", d.name, v, d.unit)
        })
        .collect()
}

/// Writes `text` to `path`, creating its directory.
pub fn write(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A well-mixed 64-bit value derived from two inputs.
fn mix(a: u64, b: u64) -> u64 {
    rc_fuzz::Rng::new(a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = rc_fuzz::Rng::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(56, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..56).collect::<Vec<_>>());
        assert_eq!(a, permutation(56, 7));
        assert_ne!(a, permutation(56, 8));
        assert_ne!(mix(1, 2), mix(2, 1));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
