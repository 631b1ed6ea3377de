//! Table-driven accept/reject matrix for the three pointer qualifiers
//! (`sameregion`, `parentptr`, `traditional` — paper §3.2, Table 1).
//!
//! The matrix has two halves, mirroring how RC actually enforces
//! qualifiers:
//!
//! * **Static rows** run `sema::check` alone. Qualifier semantics are
//!   dynamic in RC, so the type checker accepts any qualifier mixing on
//!   assignment ("no special treatment when mixing region and
//!   traditional pointers") — but it still rejects programs whose
//!   *erased* types are wrong. Each reject row pins the error to a
//!   message substring so a reworded diagnostic is a conscious change.
//!
//! * **Dynamic rows** run the same store under `CheckMode::Qs` (all
//!   qualifier checks live) and assert the Table-1 verdict: a
//!   conforming store exits, a violating one aborts with
//!   `check_failed`. Every violating row is also rerun under
//!   `CheckMode::Nq` to confirm the failure really is the *qualifier*
//!   check and not an unsafe deletion (the programs null the offending
//!   field back out before teardown, so `nq` runs them to completion).

use rc_lang::{prepare, run, CheckMode, RunConfig};

// ---------------------------------------------------------------------------
// Static half: sema accept/reject.
// ---------------------------------------------------------------------------

enum Static {
    /// `sema::check` succeeds.
    Accept,
    /// `sema::check` fails and the message contains the substring.
    Reject(&'static str),
}

/// Shared preamble: one struct carrying all three qualified fields.
const PREAMBLE: &str = "
struct node {
    int v;
    struct node *sameregion sr;
    struct node *parentptr pp;
    struct node *traditional tr;
    struct node *plain;
};
";

fn with_preamble(body: &str) -> String {
    format!("{PREAMBLE}\n{body}")
}

static STATIC_MATRIX: &[(&str, &str, Static)] = &[
    (
        "sameregion slot accepts an unqualified pointer",
        "int main() deletes {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            struct node *b = ralloc(r, struct node);
            a->sr = b;
            deleteregion(r);
            return 0;
        }",
        Static::Accept,
    ),
    (
        "parentptr slot accepts an unqualified pointer",
        "int main() deletes {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            a->pp = a;
            deleteregion(r);
            return 0;
        }",
        Static::Accept,
    ),
    (
        "traditional slot accepts an unqualified pointer",
        "int main() deletes {
            region t = traditionalregion();
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            struct node *b = ralloc(t, struct node);
            a->tr = b;
            a->tr = null;
            deleteregion(r);
            return 0;
        }",
        Static::Accept,
    ),
    (
        "every qualified slot accepts null",
        "int main() {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            a->sr = null;
            a->pp = null;
            a->tr = null;
            return 0;
        }",
        Static::Accept,
    ),
    (
        "qualified pointers may be read back and compared",
        "int main() {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            a->sr = a;
            if (a->sr == a->pp) { return 1; }
            return 0;
        }",
        Static::Accept,
    ),
    (
        "an int cannot be stored into a sameregion slot",
        "int main() {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            a->sr = 3;
            return 0;
        }",
        Static::Reject("type mismatch"),
    ),
    (
        "a pointer of the wrong struct type is rejected despite the qualifier",
        "struct other { int w; };
        int main() {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            struct other *o = ralloc(r, struct other);
            a->tr = o;
            return 0;
        }",
        Static::Reject("type mismatch"),
    ),
    (
        "a region handle is not a pointer value",
        "int main() {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            a->pp = r;
            return 0;
        }",
        Static::Reject("type mismatch"),
    ),
    (
        "null cannot initialise an int field",
        "int main() {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            a->v = null;
            return 0;
        }",
        Static::Reject("null assigned to an int"),
    ),
    (
        "a qualified field of an unknown struct is rejected",
        "struct bad { struct ghost *sameregion g; };
        int main() {
            region r = newregion();
            struct bad *b = ralloc(r, struct bad);
            return 0;
        }",
        Static::Reject("unknown struct"),
    ),
    (
        "deleteregion still demands a deletes annotation",
        "int main() {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            a->sr = a;
            deleteregion(r);
            return 0;
        }",
        Static::Reject("deletes"),
    ),
    (
        "qualifiers do not create new field names",
        "int main() {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            a->sr_missing = a;
            return 0;
        }",
        Static::Reject("no field"),
    ),
];

#[test]
fn static_qualifier_matrix() {
    for (name, body, want) in STATIC_MATRIX {
        let src = with_preamble(body);
        let got = rc_lang::compile(&src);
        match want {
            Static::Accept => {
                assert!(got.is_ok(), "{name}: expected accept, got {:?}", got.err());
            }
            Static::Reject(needle) => match got {
                Ok(_) => {
                    panic!("{name}: expected rejection mentioning `{needle}`, but sema accepted")
                }
                Err(e) => {
                    let msg = e.to_string();
                    assert!(
                        msg.contains(needle),
                        "{name}: error does not mention `{needle}`: {msg}"
                    );
                }
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Dynamic half: Table-1 verdicts under CheckMode::Qs.
// ---------------------------------------------------------------------------

enum Dynamic {
    /// The store conforms: the program exits with this code under `qs`.
    Pass(i64),
    /// The store violates its qualifier: `qs` aborts with
    /// `check_failed`, while `nq` still exits with this code.
    FailCheck(i64),
}

static DYNAMIC_MATRIX: &[(&str, &str, Dynamic)] = &[
    // --- sameregion: target must live in the same region (or be null).
    (
        "sameregion: same-region store conforms",
        "int main() deletes {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            struct node *b = ralloc(r, struct node);
            b->v = 7;
            a->sr = b;
            int out = a->sr->v;
            deleteregion(r);
            return out;
        }",
        Dynamic::Pass(7),
    ),
    (
        "sameregion: null store conforms",
        "int main() deletes {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            a->sr = null;
            deleteregion(r);
            return 1;
        }",
        Dynamic::Pass(1),
    ),
    (
        "sameregion: cross-region store violates",
        "int main() deletes {
            region r1 = newregion();
            region r2 = newregion();
            struct node *a = ralloc(r1, struct node);
            struct node *b = ralloc(r2, struct node);
            a->sr = b;
            a->sr = null;
            deleteregion(r2);
            deleteregion(r1);
            return 2;
        }",
        Dynamic::FailCheck(2),
    ),
    (
        "sameregion: store into a traditional object from a region violates",
        "int main() deletes {
            region t = traditionalregion();
            region r = newregion();
            struct node *a = ralloc(t, struct node);
            struct node *b = ralloc(r, struct node);
            a->sr = b;
            a->sr = null;
            deleteregion(r);
            return 3;
        }",
        Dynamic::FailCheck(3),
    ),
    // --- parentptr: target must live in an ancestor region (or the same
    // --- region, or be null).
    (
        "parentptr: store up to the parent conforms",
        "int main() deletes {
            region p = newregion();
            region c = newsubregion(p);
            struct node *up = ralloc(p, struct node);
            struct node *kid = ralloc(c, struct node);
            up->v = 9;
            kid->pp = up;
            int out = kid->pp->v;
            deleteregion(c);
            deleteregion(p);
            return out;
        }",
        Dynamic::Pass(9),
    ),
    (
        "parentptr: same-region store conforms",
        "int main() deletes {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            a->pp = a;
            deleteregion(r);
            return 4;
        }",
        Dynamic::Pass(4),
    ),
    (
        "parentptr: store up to the grandparent conforms",
        "int main() deletes {
            region g = newregion();
            region p = newsubregion(g);
            region c = newsubregion(p);
            struct node *top = ralloc(g, struct node);
            struct node *kid = ralloc(c, struct node);
            top->v = 11;
            kid->pp = top;
            int out = kid->pp->v;
            deleteregion(c);
            deleteregion(p);
            deleteregion(g);
            return out;
        }",
        Dynamic::Pass(11),
    ),
    (
        "parentptr: store down into a child violates",
        "int main() deletes {
            region p = newregion();
            region c = newsubregion(p);
            struct node *up = ralloc(p, struct node);
            struct node *kid = ralloc(c, struct node);
            up->pp = kid;
            up->pp = null;
            deleteregion(c);
            deleteregion(p);
            return 5;
        }",
        Dynamic::FailCheck(5),
    ),
    (
        "parentptr: store across siblings violates",
        "int main() deletes {
            region p = newregion();
            region c1 = newsubregion(p);
            region c2 = newsubregion(p);
            struct node *a = ralloc(c1, struct node);
            struct node *b = ralloc(c2, struct node);
            a->pp = b;
            a->pp = null;
            deleteregion(c2);
            deleteregion(c1);
            deleteregion(p);
            return 6;
        }",
        Dynamic::FailCheck(6),
    ),
    // --- traditional: target must live in a traditional region (or be
    // --- null).
    (
        "traditional: store of a traditional object conforms",
        "int main() deletes {
            region t = traditionalregion();
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            struct node *b = ralloc(t, struct node);
            b->v = 13;
            a->tr = b;
            int out = a->tr->v;
            a->tr = null;
            deleteregion(r);
            return out;
        }",
        Dynamic::Pass(13),
    ),
    (
        "traditional: null store conforms",
        "int main() deletes {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            a->tr = null;
            deleteregion(r);
            return 8;
        }",
        Dynamic::Pass(8),
    ),
    (
        "traditional: store of a region object violates",
        "int main() deletes {
            region r = newregion();
            struct node *a = ralloc(r, struct node);
            struct node *b = ralloc(r, struct node);
            a->tr = b;
            a->tr = null;
            deleteregion(r);
            return 9;
        }",
        Dynamic::FailCheck(9),
    ),
    // --- unqualified pointers are never qualifier-checked.
    (
        "plain: cross-region store is not a qualifier violation",
        "int main() deletes {
            region r1 = newregion();
            region r2 = newregion();
            struct node *a = ralloc(r1, struct node);
            struct node *b = ralloc(r2, struct node);
            b->v = 10;
            a->plain = b;
            int out = a->plain->v;
            a->plain = null;
            deleteregion(r2);
            deleteregion(r1);
            return out;
        }",
        Dynamic::Pass(10),
    ),
];

fn run_with(src: &str, config: RunConfig) -> String {
    let compiled = prepare(src).expect("dynamic matrix programs compile");
    run(&compiled, &config).outcome.key()
}

#[test]
fn dynamic_qualifier_matrix_under_qs() {
    for (name, body, want) in DYNAMIC_MATRIX {
        let src = with_preamble(body);
        let qs = run_with(&src, RunConfig::rc(CheckMode::Qs));
        match want {
            Dynamic::Pass(code) => {
                assert_eq!(qs, format!("exit:{code}"), "{name}: expected a clean qs run");
            }
            Dynamic::FailCheck(_) => {
                assert_eq!(
                    qs, "abort:check_failed",
                    "{name}: expected the qualifier check to fire"
                );
            }
        }
    }
}

#[test]
fn violating_rows_pass_without_qualifier_checks() {
    // The same programs with checks off (`nq`) run to completion: the
    // abort under `qs` is attributable to the qualifier check alone,
    // not to an unsafe deletion or a wild pointer.
    for (name, body, want) in DYNAMIC_MATRIX {
        if let Dynamic::FailCheck(code) = want {
            let src = with_preamble(body);
            let nq = run_with(&src, RunConfig::rc(CheckMode::Nq));
            assert_eq!(
                nq,
                format!("exit:{code}"),
                "{name}: violating program should still complete under nq"
            );
        }
    }
}
