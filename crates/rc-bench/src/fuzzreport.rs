//! The differential-fuzzing report schema (`rc-fuzz-report/v1`).
//!
//! Pure data: the rc-fuzz harness fills these rows in; this module owns
//! the JSON layout so report consumers (`tools/pins.sh`, the docs)
//! depend on rc-bench alone. Like the fault matrix and the trajectory
//! exports, every field is virtual — seeds, step counts, outcome keys —
//! so two reports generated from the same tree are byte-identical, which
//! is exactly what the pinned digest asserts.

use region_rt::Json;

/// Schema identifier embedded in every report; bumped on layout change
/// (registered in [`crate::schema`]).
pub const SCHEMA: &str = crate::schema::Schema::FuzzReport.id();

/// One generated program's trip through the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// The generator seed.
    pub seed: u64,
    /// Outcome key every configuration agreed on (baseline's when they
    /// did not agree).
    pub outcome: String,
    /// Whether every oracle assertion held.
    pub passed: bool,
    /// Human-readable violation descriptions, detection order.
    pub violations: Vec<String>,
    /// Interpreter steps summed over all oracle runs.
    pub steps: u64,
    /// Check sites the inference eliminated.
    pub eliminated_sites: u64,
    /// Annotation predicates evaluated in the counting rerun.
    pub checks_counted: u64,
    /// Annotation predicates that failed in the counting rerun.
    pub checks_fired: u64,
    /// Statement count of the shrunk repro, for failing cases.
    pub shrunk_statements: Option<u64>,
    /// Regression file the shrunk repro was written to, if any.
    pub repro: Option<String>,
}

impl FuzzCase {
    /// Encodes the case as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::U(self.seed)),
            ("outcome", Json::s(&*self.outcome)),
            ("passed", Json::Bool(self.passed)),
            ("violations", Json::A(self.violations.iter().map(Json::s).collect())),
            ("steps", Json::U(self.steps)),
            ("eliminated_sites", Json::U(self.eliminated_sites)),
            ("checks_counted", Json::U(self.checks_counted)),
            ("checks_fired", Json::U(self.checks_fired)),
            ("shrunk_statements", self.shrunk_statements.map_or(Json::Null, Json::U)),
            ("repro", self.repro.as_deref().map_or(Json::Null, Json::s)),
        ])
    }
}

/// A full campaign: the generation parameters plus every case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Number of seeds swept (seeds `0..seeds`).
    pub seeds: u64,
    /// Generator size knob.
    pub size: u32,
    /// Per-run step budget (0 = unlimited).
    pub budget_steps: u64,
    /// Per-case results, in seed order.
    pub cases: Vec<FuzzCase>,
}

impl FuzzReport {
    /// Whether every case passed.
    pub fn passed(&self) -> bool {
        self.cases.iter().all(|c| c.passed)
    }

    /// The failing cases.
    pub fn failures(&self) -> Vec<&FuzzCase> {
        self.cases.iter().filter(|c| !c.passed).collect()
    }

    /// Encodes the report (schema header included).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::s(SCHEMA)),
            ("seeds", Json::U(self.seeds)),
            ("size", Json::U(self.size as u64)),
            ("budget_steps", Json::U(self.budget_steps)),
            ("passed", Json::Bool(self.passed())),
            (
                "totals",
                Json::obj(vec![
                    ("cases", Json::U(self.cases.len() as u64)),
                    ("failures", Json::U(self.failures().len() as u64)),
                    ("steps", Json::U(self.cases.iter().map(|c| c.steps).sum())),
                    (
                        "eliminated_sites",
                        Json::U(self.cases.iter().map(|c| c.eliminated_sites).sum()),
                    ),
                    ("checks_counted", Json::U(self.cases.iter().map(|c| c.checks_counted).sum())),
                    ("checks_fired", Json::U(self.cases.iter().map(|c| c.checks_fired).sum())),
                ]),
            ),
            ("cases", Json::A(self.cases.iter().map(FuzzCase::to_json).collect())),
        ])
    }

    /// Pretty-printed JSON (stable field order; byte-deterministic).
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// A one-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "rc-fuzz: {} seeds, {} failures, {} checks counted ({} fired), {} sites eliminated",
            self.seeds,
            self.failures().len(),
            self.cases.iter().map(|c| c.checks_counted).sum::<u64>(),
            self.cases.iter().map(|c| c.checks_fired).sum::<u64>(),
            self.cases.iter().map(|c| c.eliminated_sites).sum::<u64>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FuzzReport {
        FuzzReport {
            seeds: 2,
            size: 6,
            budget_steps: 1000,
            cases: vec![
                FuzzCase {
                    seed: 0,
                    outcome: "exit:7".into(),
                    passed: true,
                    violations: vec![],
                    steps: 420,
                    eliminated_sites: 3,
                    checks_counted: 11,
                    checks_fired: 0,
                    shrunk_statements: None,
                    repro: None,
                },
                FuzzCase {
                    seed: 1,
                    outcome: "exit:0".into(),
                    passed: false,
                    violations: vec![
                        "divergence: qs saw abort:check_failed, baseline saw exit:0".into()
                    ],
                    steps: 99,
                    eliminated_sites: 0,
                    checks_counted: 4,
                    checks_fired: 2,
                    shrunk_statements: Some(5),
                    repro: Some("seed0001-divergence.rc".into()),
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_and_is_deterministic() {
        let r = sample();
        assert!(!r.passed());
        assert_eq!(r.failures().len(), 1);
        let a = r.render();
        let b = r.render();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).expect("valid JSON");
        let Json::O(fields) = &parsed else { panic!("not an object") };
        assert_eq!(fields[0].0, "schema");
        assert_eq!(fields[0].1, Json::s(SCHEMA));
        assert!(a.contains("checks_fired"));
        assert!(r.summary().contains("1 failures"));
    }
}
