//! The metric definitions, read from the root `BENCHMARK.json`: the one
//! place each metric's name, unit, direction and bound are written. The
//! code names the metrics it measures; everything else about them comes
//! from here.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use region_rt::Json;

use crate::stats::Better;

/// `BENCHMARK.json`, compiled in so that every subcommand, `compare`
/// included, reads the definitions of the checkout it was built from.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Which way is better.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run, each with its bound.
    pub end_to_end: Vec<Metric>,
    /// Metrics of a traced run.
    pub per_layer: Vec<Metric>,
}

/// The compiled-in specification.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

impl Spec {
    /// Parses `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let array = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing array '{key}'"))
        };
        let field = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks '{key}'"))
        };
        let metric = |m: &Json, bounded: bool| -> Result<Metric, String> {
            let name = field(m, "name")?;
            let better = field(m, "better")?;
            let bound = m.get("bound").and_then(Json::as_f64);
            if bounded && bound.is_none() {
                return Err(format!("BENCHMARK.json: '{name}' lacks 'bound'"));
            }
            Ok(Metric {
                unit: field(m, "unit")?,
                better: Better::parse(&better)
                    .ok_or_else(|| format!("BENCHMARK.json: bad 'better' value '{better}'"))?,
                bound,
                name,
            })
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
            array(key)?.iter().map(|m| metric(m, bounded)).collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: missing 'run_seconds'")?,
            workloads: array("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }
}

/// Measured metric values by name.
pub type Values = BTreeMap<String, f64>;

/// `{"name": {"value": v, "unit": u}, …}` for every metric in `defs`, in
/// definition order. A metric missing from `values` reads 0 (a layer the
/// workload does not exercise).
///
/// # Panics
///
/// When `values` holds a name `defs` does not define: the code measured
/// a metric `BENCHMARK.json` does not list.
pub fn to_json(defs: &[Metric], values: &Values) -> Json {
    for name in values.keys() {
        assert!(
            defs.iter().any(|d| &d.name == name),
            "metric '{name}' is not defined in BENCHMARK.json"
        );
    }
    Json::O(
        defs.iter()
            .map(|d| {
                let v = values.get(&d.name).copied().unwrap_or(0.0);
                let entry = Json::obj(vec![("value", Json::F(v)), ("unit", Json::s(&*d.unit))]);
                (d.name.clone(), entry)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names the workloads the code runs, and its bounds
    /// stay within 10%, except `peak_rss_mb`'s, within 20%, and
    /// `setup_s`'s, the largest and within 25%.
    #[test]
    fn benchmark_json_defines_what_the_code_runs() {
        let s = spec();
        assert_eq!(s.workloads, crate::workloads::NAMES.to_vec());
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let bound = |m: &Metric| m.bound.expect("end-to-end metrics carry a bound");
        let largest = s.end_to_end.iter().map(bound).fold(0.0, f64::max);
        for m in &s.end_to_end {
            let most = match m.name.as_str() {
                "setup_s" => 0.25,
                "peak_rss_mb" => 0.20,
                _ => 0.10,
            };
            assert!(
                bound(m) > 0.0 && bound(m) <= most,
                "{}: {}",
                m.name,
                bound(m)
            );
        }
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s");
        assert_eq!(setup.map(bound), Some(largest));
    }

    #[test]
    fn missing_metrics_read_zero_in_definition_order() {
        let mut v = Values::new();
        v.insert("jobs_per_s".into(), 2.5);
        let j = to_json(&spec().end_to_end[..2], &v).render();
        assert_eq!(
            j,
            r#"{"setup_s":{"value":0.0,"unit":"s"},"jobs_per_s":{"value":2.5,"unit":"1/s"}}"#
        );
    }

    #[test]
    #[should_panic(expected = "not defined in BENCHMARK.json")]
    fn an_undefined_metric_is_a_bug() {
        let mut v = Values::new();
        v.insert("no_such_metric".into(), 1.0);
        to_json(&spec().end_to_end, &v);
    }
}
