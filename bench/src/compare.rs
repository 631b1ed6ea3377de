//! `rc-perf compare <parent results…> -- <change results…>`: one row per
//! workload × end-to-end metric, judged by the bounds in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use region_rt::Json;

use crate::harness::RESULT_SCHEMA;
use crate::metrics::Spec;
use crate::stats::{self, Verdict};

/// One side's values: workload → metric → one value per result file,
/// plus (failed, attempted) jobs per workload.
#[derive(Default)]
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failures: BTreeMap<String, (u64, u64)>,
}

impl Side {
    fn load(paths: &[String]) -> Result<Side, String> {
        let mut side = Side::default();
        for path in paths {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            let field = |k: &str| doc.get(k).ok_or_else(|| format!("{path}: missing '{k}'"));
            if field("schema")?.as_str() != Some(RESULT_SCHEMA) {
                return Err(format!("{path}: not an {RESULT_SCHEMA} document"));
            }
            if field("trace")? != &Json::Bool(false) {
                return Err(format!(
                    "{path}: a traced run carries no end-to-end metrics"
                ));
            }
            let workload = field("workload")?
                .as_str()
                .ok_or(format!("{path}: bad 'workload'"))?;
            let count = |k: &str| field(k)?.as_u64().ok_or(format!("{path}: bad '{k}'"));
            let (failed, attempted) = (count("failed")?, count("attempted")?);
            let f = side.failures.entry(workload.to_string()).or_default();
            f.0 += failed;
            f.1 += attempted;
            let Json::O(metrics) = field("metrics")? else {
                return Err(format!("{path}: 'metrics' is not an object"));
            };
            for (name, m) in metrics {
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("{path}: metric '{name}' has no value"))?;
                let per_workload = side.values.entry(workload.to_string()).or_default();
                per_workload.entry(name.clone()).or_default().push(v);
            }
        }
        Ok(side)
    }
}

/// Runs the comparison. Exit code: 0 clean, 1 a regression, 2 bad input.
pub fn main(args: &[String]) -> i32 {
    match compare(args) {
        Ok(report) => {
            print!("{}", report.text);
            i32::from(report.regressed)
        }
        Err(e) => {
            eprintln!("rc-perf compare: {e}");
            2
        }
    }
}

struct Report {
    text: String,
    regressed: bool,
}

fn compare(args: &[String]) -> Result<Report, String> {
    let split = args.iter().position(|a| a == "--");
    let (parent, change) = match split {
        Some(i) if i > 0 && i + 1 < args.len() => (&args[..i], &args[i + 1..]),
        _ => return Err("usage: rc-perf compare <parent results…> -- <change results…>".into()),
    };
    let (parent, change) = (Side::load(parent)?, Side::load(change)?);
    judge(crate::metrics::spec(), &parent, &change)
}

/// The worsening, in the metric's unit, that stays within bound however
/// small the parent's median: set-up and memory read too close to zero on
/// some workloads for a share alone to separate a change from noise.
fn floor(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.05,
        "peak_rss_mb" => 2.0,
        _ => 0.0,
    }
}

fn judge(spec: &Spec, parent: &Side, change: &Side) -> Result<Report, String> {
    let mut out = format!(
        "{:<15} {:<14} {:<4} {:>34} {:>34} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "unit",
        "parent median [q1 q3] n",
        "change median [q1 q3] n",
        "delta",
        "bound"
    );
    let mut regressed = false;
    let mut rows = 0;
    for workload in &spec.workloads {
        let (Some(pv), Some(cv)) = (parent.values.get(workload), change.values.get(workload))
        else {
            if parent.values.contains_key(workload) != change.values.contains_key(workload) {
                return Err(format!(
                    "workload '{workload}' has results on one side only"
                ));
            }
            continue;
        };
        for m in &spec.end_to_end {
            let (Some(p), Some(c)) = (pv.get(&m.name), cv.get(&m.name)) else {
                return Err(format!(
                    "{workload}: metric '{}' missing from a result",
                    m.name
                ));
            };
            let (pm, cm) = (
                stats::median(p).unwrap_or(0.0),
                stats::median(c).unwrap_or(0.0),
            );
            if pm == 0.0 {
                return Err(format!("{workload}/{}: the parent's median is 0", m.name));
            }
            let bound = m.bound.unwrap_or(0.0).max(floor(&m.name) / pm.abs());
            let verdict = stats::classify(p, c, m.better, bound)
                .ok_or(format!("{workload}/{}: a side has no values", m.name))?;
            regressed |= verdict == Verdict::Worse;
            out.push_str(&format!(
                "{:<15} {:<14} {:<4} {:>34} {:>34} {:>+7.1}% {:>5.0}%  {}\n",
                workload,
                m.name,
                m.unit,
                summary(p),
                summary(c),
                100.0 * (cm - pm) / pm,
                100.0 * bound,
                verdict.as_str()
            ));
            rows += 1;
        }
        let (pf, cf) = (parent.failures[workload], change.failures[workload]);
        let rate = |(f, a): (u64, u64)| f as f64 / a.max(1) as f64;
        if rate(cf) > rate(pf) {
            regressed = true;
            out.push_str(&format!(
                "{workload:<15} failed jobs: parent {}/{}, change {}/{}  worse\n",
                pf.0, pf.1, cf.0, cf.1
            ));
        }
    }
    if rows == 0 {
        return Err("no workload has results on both sides".into());
    }
    out.push_str(if regressed {
        "regression\n"
    } else {
        "no regression\n"
    });
    Ok(Report {
        text: out,
        regressed,
    })
}

/// `median [q1 q3] n` of one side's values.
fn summary(xs: &[f64]) -> String {
    let med = stats::median(xs).unwrap_or(0.0);
    let (q1, q3) = stats::quartiles(xs).unwrap_or((0.0, 0.0));
    format!("{} [{} {}] {}", sig(med), sig(q1), sig(q3), xs.len())
}

/// Four significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 {
        0
    } else {
        (3 - x.abs().log10().floor() as i32).max(0)
    };
    format!("{x:.*}", digits as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(workload: &str, metric: &str, values: &[f64], failed: u64) -> Side {
        let mut s = Side::default();
        let m = s.values.entry(workload.into()).or_default();
        m.insert(metric.into(), values.to_vec());
        s.failures
            .insert(workload.into(), (failed, 100 * values.len() as u64));
        s
    }

    fn spec() -> Spec {
        Spec::parse(
            r#"{"run_seconds": 1, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap()
    }

    #[test]
    fn a_throughput_drop_past_the_bound_is_a_regression() {
        let parent = side("w", "jobs_per_s", &[100.0, 101.0, 99.0], 0);
        let same = side("w", "jobs_per_s", &[100.5, 99.5, 100.0], 0);
        let slow = side("w", "jobs_per_s", &[80.0, 81.0, 79.0], 0);
        assert!(!judge(&spec(), &parent, &same).unwrap().regressed);
        let r = judge(&spec(), &parent, &slow).unwrap();
        assert!(r.regressed && r.text.contains("worse"));
    }

    #[test]
    fn set_up_time_may_grow_by_its_floor_when_that_exceeds_the_share() {
        let spec = Spec::parse(
            r#"{"run_seconds": 1, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap();
        // A 1.5 ms set-up may grow by 0.05 s, not only by 10%.
        let parent = side("w", "setup_s", &[0.0015, 0.0016, 0.0014], 0);
        let slower = side("w", "setup_s", &[0.0300, 0.0310, 0.0290], 0);
        let much_slower = side("w", "setup_s", &[0.0600, 0.0610, 0.0590], 0);
        assert!(!judge(&spec, &parent, &slower).unwrap().regressed);
        assert!(judge(&spec, &parent, &much_slower).unwrap().regressed);
    }

    #[test]
    fn more_failed_jobs_is_a_regression_and_missing_sides_are_bad_input() {
        let parent = side("w", "jobs_per_s", &[100.0, 101.0, 99.0], 0);
        let failing = side("w", "jobs_per_s", &[100.0, 101.0, 99.0], 1);
        assert!(judge(&spec(), &parent, &failing).unwrap().regressed);
        assert!(judge(&spec(), &parent, &Side::default()).is_err());
        assert_eq!(sig(1234.5678), "1235");
        assert_eq!(sig(0.012345), "0.01235");
    }
}
