//! Diagnostic coverage: every class of compile-time error the RC front
//! end reports, with its phase and message content, plus edge cases of
//! the surface language.

use rc_lang::error::ErrorKind;
use rc_lang::interp::{prepare, run, Outcome};
use rc_lang::RunConfig;

fn err(src: &str) -> rc_lang::CompileError {
    rc_lang::compile(src).expect_err("expected a compile error")
}

fn ok(src: &str) {
    rc_lang::compile(src).unwrap_or_else(|e| panic!("should compile: {e}"));
}

// ---- lexical --------------------------------------------------------

#[test]
fn lex_errors() {
    assert_eq!(err("int main() { return 0 @ 1; }").kind, ErrorKind::Lex);
    assert_eq!(err("/* unterminated").kind, ErrorKind::Lex);
    assert_eq!(err("int x = 99999999999999999999;").kind, ErrorKind::Lex);
}

// ---- syntactic ------------------------------------------------------

#[test]
fn parse_errors() {
    for src in [
        "int main() { return 0 }",             // missing semicolon
        "int main( { return 0; }",             // bad parameter list
        "struct t { int x; }",                 // missing `;` after struct
        "int main() { if return; }",           // bad condition
        "struct t { int x; }; struct t **p;",  // pointer to pointer
        "int main() { int a[0]; return 0; }",  // zero-length array
        "void g(void x) { }",                  // void parameter
        "int main() { ralloc(1); return 0; }", // ralloc arity
    ] {
        assert_eq!(err(src).kind, ErrorKind::Parse, "src: {src}");
    }
}

// ---- semantic -------------------------------------------------------

#[test]
fn sema_errors_name_resolution() {
    assert!(err("int main() { return y; }").msg.contains("unknown variable"));
    assert!(err("int main() { g(); return 0; }").msg.contains("unknown function"));
    assert!(err("struct a { struct b *p; }; int main() { return 0; }")
        .msg
        .contains("unknown struct"));
    assert!(err("struct t { int x; int x; }; int main() { return 0; }")
        .msg
        .contains("duplicate field"));
    assert!(err("int g; int g; int main() { return 0; }").msg.contains("duplicate global"));
    assert!(err("void f() {} void f() {} int main() { return 0; }")
        .msg
        .contains("duplicate function"));
}

#[test]
fn sema_errors_types() {
    let t = "struct t { int x; };";
    assert!(err(&format!("{t} int main() {{ struct t *p; return p; }}"))
        .msg
        .contains("type mismatch"));
    assert!(err(&format!("{t} int main() {{ struct t *p; p->nope = 1; return 0; }}"))
        .msg
        .contains("no field"));
    assert!(err(&format!("{t} int main() {{ int x; x->x = 1; return 0; }}")).msg.contains("->"));
    assert!(err("int main() { int x; x = null; return 0; }").msg.contains("null"));
    assert!(err("int main() { return 1 + null; }").msg.contains("operator"));
    assert!(err(&format!(
        "{t} int main() {{ region r = newregion(); struct t *p = ralloc(r, struct t); return p[0 ==  1]; }}"
    ))
    .msg
    .contains("type mismatch"), "indexing a struct ptr yields a ptr, not an int");
}

#[test]
fn sema_errors_regions() {
    assert!(err("int main() { deleteregion(3); return 0; }").msg.contains("expected a region"));
    assert!(err("int main() { regionof(4); return 0; }").msg.contains("pointer"));
    assert!(err("struct t { int x; }; int main() { ralloc(7, struct t); return 0; }")
        .msg
        .contains("expected a region"));
}

#[test]
fn sema_errors_deletes_rule() {
    // Direct, indirect, and via-deleteregion each require the qualifier.
    let direct = "int main() { region r = newregion(); deleteregion(r); return 0; }";
    assert!(err(direct).msg.contains("deletes"));
    let indirect = r#"
        static void inner() deletes { region r = newregion(); deleteregion(r); }
        static void middle() { inner(); }
        int main() { return 0; }
    "#;
    assert!(err(indirect).msg.contains("middle"));
}

#[test]
fn sema_errors_returns() {
    assert!(err("void f() { return 3; } int main() { return 0; }").msg.contains("void function"));
    assert!(err("static int f() { return; } int main() { return f(); }")
        .msg
        .contains("must return a value"));
}

// ---- accepted edge cases -------------------------------------------

#[test]
fn edge_cases_compile() {
    // Shadowing in nested blocks.
    ok(r#"
        int main() {
            int x = 1;
            { int x = 2; x = x + 1; }
            return x;
        }
    "#);
    // Empty statements and blocks.
    ok("int main() { ;;; {} return 0; }");
    // Deeply nested expressions.
    ok("int main() { return ((((1 + 2) * 3) - 4) / 5) % 6; }");
    // Region arrays.
    ok(r#"
        region pool[4];
        int main() deletes {
            pool[0] = newregion();
            region r = pool[0];
            pool[0] = null;
            deleteregion(r);
            return 0;
        }
    "#);
    // A function named like a variable elsewhere.
    ok(r#"
        static int count() { return 1; }
        int main() { int counted = count(); return counted; }
    "#);
}

#[test]
fn shadowing_runs_correctly() {
    let c = prepare(
        r#"
        int main() {
            int x = 10;
            int sum = 0;
            {
                int x = 1;
                sum = sum + x;
            }
            sum = sum + x;
            return sum;
        }
    "#,
    )
    .unwrap();
    let r = run(&c, &RunConfig::rc_inf());
    assert_eq!(r.outcome, Outcome::Exit(11));
}

#[test]
fn division_by_zero_is_defined() {
    // The dialect defines x/0 = x%0 = 0 (no UB in the interpreter).
    let c = prepare("int main() { int z = 0; return 7 / z + 7 % z; }").unwrap();
    let r = run(&c, &RunConfig::rc_inf());
    assert_eq!(r.outcome, Outcome::Exit(0));
}

#[test]
fn short_circuit_evaluation_observable() {
    // `p != null && p->x == 1` must not dereference a null p.
    let c = prepare(
        r#"
        struct t { int x; };
        int main() {
            struct t *p = null;
            if (p != null && p->x == 1) { return 1; }
            if (p == null || p->x == 2) { return 2; }
            return 3;
        }
    "#,
    )
    .unwrap();
    let r = run(&c, &RunConfig::rc_inf());
    assert_eq!(r.outcome, Outcome::Exit(2));
}

#[test]
fn comparison_chains_and_negation() {
    let c = prepare(
        r#"
        int main() {
            int a = 5;
            int ok = 0;
            if (!(a < 5) && a <= 5 && a >= 5 && a > 4 && a == 5 && a != 6) { ok = 1; }
            return ok - -1;
        }
    "#,
    )
    .unwrap();
    assert_eq!(run(&c, &RunConfig::rc_inf()).outcome, Outcome::Exit(2));
}

#[test]
fn error_lines_are_plausible() {
    let e = err("struct t { int x; };\n\nint main() {\n    unknown = 1;\n    return 0;\n}\n");
    assert_eq!(e.line, 4, "error should point at the offending line: {e}");
}
