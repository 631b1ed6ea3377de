//! The driver the fault, recovery and parallel matrices share.
//!
//! Each matrix sweeps workloads × one more axis × configurations, checks
//! every cell against its contract, and collects the violations instead
//! of stopping at the first, so one bad cell never hides the rest.
//! [`Matrix`] is the report all three produce. Its cells encode through
//! [`Row`]; the JSON holds `schema`, `scale`, the matrix's own header
//! fields, `passed`, `violations` and `runs`, in that order. Every number
//! in it is virtual-clock, so two reports from the same tree are
//! byte-identical and `tools/pins.sh` pins them. [`Matrix::cell`] runs a
//! cell under `catch_unwind`, so a panic is a violation too, and
//! [`Matrix::finish`] is the matrix commands' shared ending.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use rc_workloads::Scale;
use region_rt::Json;

use crate::report::{rows_json, Row};

/// A gated matrix report: every cell plus the contract violations.
#[derive(Debug, Clone)]
pub struct Matrix<C> {
    /// Schema identifier, first in the JSON (registered in
    /// [`crate::schema`]).
    pub schema: &'static str,
    /// Workload scale the matrix ran at.
    pub scale: u32,
    /// The matrix's own header fields, encoded after `scale`.
    pub header: Vec<(&'static str, Json)>,
    /// All cells, in sweep order.
    pub runs: Vec<C>,
    /// Contract violations (empty = the gate passes).
    pub violations: Vec<String>,
}

impl<C: Row> Matrix<C> {
    /// An empty report with no header fields.
    pub fn new(schema: &'static str, scale: Scale) -> Self {
        Matrix {
            schema,
            scale: scale.0,
            header: Vec::new(),
            runs: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Runs one cell: `run` builds it and pushes the contract violations
    /// it finds. If `run` panics, its violations are dropped, the cell is
    /// `panicked()` instead, and the one violation is
    /// `key: panicked: <message>`.
    pub fn cell(
        &mut self,
        key: &str,
        run: impl FnOnce(&mut Vec<String>) -> C,
        panicked: impl FnOnce() -> C,
    ) {
        let mut found = Vec::new();
        let cell = match catch_unwind(AssertUnwindSafe(|| run(&mut found))) {
            Ok(cell) => {
                self.violations.append(&mut found);
                cell
            }
            Err(payload) => {
                self.violations.push(format!("{key}: panicked: {}", panic_msg(&*payload)));
                panicked()
            }
        };
        self.runs.push(cell);
    }

    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Encodes the report, schema string first.
    pub fn to_json(&self) -> Json {
        let mut fields =
            vec![("schema", Json::s(self.schema)), ("scale", Json::U(self.scale.into()))];
        fields.extend(self.header.iter().cloned());
        fields.push(("passed", Json::Bool(self.passed())));
        fields.push(("violations", Json::A(self.violations.iter().map(Json::s).collect())));
        fields.push(("runs", rows_json(&self.runs)));
        Json::obj(fields)
    }

    /// Renders the report as pretty-printed JSON (the `*MATRIX_rc.json`
    /// format).
    pub fn render(&self) -> String {
        let mut s = self.to_json().render_pretty();
        s.push('\n');
        s
    }

    /// The summary's gate lines: `<gate> gate: PASS`, or
    /// `<gate> gate: FAIL (n violations)` and one `  - <violation>` line
    /// each.
    pub fn verdict(&self, gate: &str) -> String {
        if self.passed() {
            return format!("{gate} gate: PASS\n");
        }
        let mut out = format!("{gate} gate: FAIL ({} violations)\n", self.violations.len());
        for v in &self.violations {
            let _ = writeln!(out, "  - {v}");
        }
        out
    }

    /// The matrix commands' ending: prints `summary`, writes the report
    /// to `out` when given (see [`crate::write_output`]), and exits 0
    /// when the gate passes, 1 on a violation, 2 when the report cannot
    /// be written.
    pub fn finish(&self, program: &str, summary: &str, out: Option<&str>) -> ExitCode {
        print!("{summary}");
        if let Some(path) = out {
            if let Err(code) = crate::write_output(program, path, &self.render()) {
                return code;
            }
            println!("report written to {path}");
        }
        if self.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

/// The message of a caught panic.
fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Cell(&'static str, u64);

    impl Row for Cell {
        fn fields(&self) -> Vec<(&'static str, Json)> {
            vec![("name", Json::s(self.0)), ("n", Json::U(self.1))]
        }
    }

    fn matrix() -> Matrix<Cell> {
        let mut m = Matrix::new("test-matrix/v1", Scale(3));
        m.cell("a", |_| Cell("a", 1), || Cell("a", 0));
        m.cell(
            "b",
            |v| {
                v.push("b: dropped with the panic".to_string());
                panic!("cell b broke")
            },
            || Cell("b-placeholder", 0),
        );
        m.cell(
            "c",
            |v| {
                v.push("c: contract broken".to_string());
                Cell("c", 3)
            },
            || Cell("c", 0),
        );
        m
    }

    #[test]
    fn a_panicking_cell_is_one_violation_and_a_placeholder() {
        let m = matrix();
        let names: Vec<&str> = m.runs.iter().map(|c| c.0).collect();
        assert_eq!(names, ["a", "b-placeholder", "c"], "the cells after a panic still run");
        assert_eq!(m.violations, ["b: panicked: cell b broke", "c: contract broken"]);
        assert!(!m.passed());
    }

    #[test]
    fn verdict_lists_each_violation() {
        let mut m = matrix();
        assert_eq!(
            m.verdict("test"),
            "test gate: FAIL (2 violations)\n  - b: panicked: cell b broke\n  - c: contract broken\n"
        );
        m.violations.clear();
        assert_eq!(m.verdict("test"), "test gate: PASS\n");
    }

    #[test]
    fn json_keeps_the_header_order() {
        let mut m = matrix();
        m.header.push(("seed", Json::U(9)));
        let doc = m.to_json();
        let Json::O(fields) = &doc else { panic!("not an object: {doc:?}") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "scale", "seed", "passed", "violations", "runs"]);
        assert_eq!(doc.get("scale").and_then(Json::as_u64), Some(3));
        let runs = doc.get("runs").and_then(Json::as_array).unwrap();
        assert_eq!(runs[2].get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(Json::parse(&m.render()).unwrap(), doc);
    }
}
