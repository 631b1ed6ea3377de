//! Pretty-printer for RC surface syntax.
//!
//! Renders an [`Ast`] back to compilable RC source. The round-trip
//! property — parse → print → parse yields the same AST modulo site ids —
//! is what keeps the printer and the grammar in sync; see the tests here
//! and in `tests/frontend_props.rs`.

use std::fmt::Write as _;

use crate::ast::*;

/// Renders a whole translation unit.
pub fn print_ast(ast: &Ast) -> String {
    let mut out = String::new();
    for s in &ast.structs {
        let _ = writeln!(out, "struct {} {{", s.name);
        for (ty, name) in &s.fields {
            let _ = writeln!(out, "    {} {};", type_str(ty), name);
        }
        let _ = writeln!(out, "}};");
    }
    for g in &ast.globals {
        match g.array_len {
            Some(n) => {
                let _ = writeln!(out, "{} {}[{}];", type_str(&g.ty), g.name, n);
            }
            None => {
                let _ = writeln!(out, "{} {};", type_str(&g.ty), g.name);
            }
        }
    }
    for f in &ast.funcs {
        let stat = if f.is_static { "static " } else { "" };
        let ret = match &f.ret {
            None => "void".to_string(),
            Some(t) => type_str(t),
        };
        let params: Vec<String> =
            f.params.iter().map(|(t, n)| format!("{} {}", type_str(t), n)).collect();
        let del = if f.deletes { " deletes" } else { "" };
        let _ = writeln!(out, "{stat}{ret} {}({}){del} {{", f.name, params.join(", "));
        for item in &f.body {
            print_item(&mut out, item, 1);
        }
        let _ = writeln!(out, "}}");
    }
    out
}

fn type_str(t: &TypeExpr) -> String {
    match t {
        TypeExpr::Int => "int".into(),
        TypeExpr::Region => "region".into(),
        TypeExpr::IntPtr(q) => format!("int *{}", qual_str(*q)).trim_end().to_string(),
        TypeExpr::StructPtr { name, qual } => {
            format!("struct {name} *{}", qual_str(*qual)).trim_end().to_string()
        }
    }
}

fn qual_str(q: Qual) -> &'static str {
    match q {
        Qual::None => "",
        Qual::SameRegion => "sameregion",
        Qual::ParentPtr => "parentptr",
        Qual::Traditional => "traditional",
    }
}

fn print_item(out: &mut String, item: &BlockItem, depth: usize) {
    let pad = "    ".repeat(depth);
    match item {
        BlockItem::Decl(d) => {
            let arr = d.array_len.map(|n| format!("[{n}]")).unwrap_or_default();
            match &d.init {
                Some(e) => {
                    let _ =
                        writeln!(out, "{pad}{} {}{arr} = {};", type_str(&d.ty), d.name, expr(e));
                }
                None => {
                    let _ = writeln!(out, "{pad}{} {}{arr};", type_str(&d.ty), d.name);
                }
            }
        }
        BlockItem::Stmt(s) => print_stmt(out, s, depth),
    }
}

fn print_stmt(out: &mut String, s: &Stmt, depth: usize) {
    let pad = "    ".repeat(depth);
    match s {
        Stmt::Empty => {
            let _ = writeln!(out, "{pad};");
        }
        Stmt::Expr(e) => {
            let _ = writeln!(out, "{pad}{};", expr(e));
        }
        Stmt::Block(items) => {
            let _ = writeln!(out, "{pad}{{");
            for item in items {
                print_item(out, item, depth + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::If(c, t, e) => {
            let _ = writeln!(out, "{pad}if ({}) {{", expr(c));
            print_stmt_body(out, t, depth + 1);
            match e {
                None => {
                    let _ = writeln!(out, "{pad}}}");
                }
                Some(e) => {
                    let _ = writeln!(out, "{pad}}} else {{");
                    print_stmt_body(out, e, depth + 1);
                    let _ = writeln!(out, "{pad}}}");
                }
            }
        }
        Stmt::While(c, body) => {
            let _ = writeln!(out, "{pad}while ({}) {{", expr(c));
            print_stmt_body(out, body, depth + 1);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::For(init, cond, step, body) => {
            let p = |o: &Option<Expr>| o.as_ref().map(expr).unwrap_or_default();
            let _ = writeln!(out, "{pad}for ({}; {}; {}) {{", p(init), p(cond), p(step));
            print_stmt_body(out, body, depth + 1);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Return(e, _) => match e {
            Some(e) => {
                let _ = writeln!(out, "{pad}return {};", expr(e));
            }
            None => {
                let _ = writeln!(out, "{pad}return;");
            }
        },
        Stmt::Spawn { region, body, .. } => {
            let _ = writeln!(out, "{pad}spawn {region} {{");
            for item in body {
                print_item(out, item, depth + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Join(_) => {
            let _ = writeln!(out, "{pad}join;");
        }
    }
}

/// Bodies of if/while/for: a block statement flattens (the braces are
/// printed by the parent), anything else prints as a statement.
fn print_stmt_body(out: &mut String, s: &Stmt, depth: usize) {
    match s {
        Stmt::Block(items) => {
            for item in items {
                print_item(out, item, depth);
            }
        }
        other => print_stmt(out, other, depth),
    }
}

/// Renders an expression, fully parenthesised (correct and reparseable,
/// if not minimal).
pub fn expr(e: &Expr) -> String {
    match e {
        Expr::Int(n) => {
            // Negative literals only arise from folding; print via unary
            // minus so the lexer accepts them.
            if *n < 0 {
                format!("(-{})", -n)
            } else {
                n.to_string()
            }
        }
        Expr::Null => "null".into(),
        Expr::Var(n, _) => n.clone(),
        Expr::Assign { lhs, rhs, .. } => format!("{} = {}", expr(lhs), expr(rhs)),
        Expr::Bin(op, l, r) => format!("({} {} {})", expr(l), bin_str(*op), expr(r)),
        Expr::Un(UnOp::Neg, e) => format!("(-{})", expr(e)),
        Expr::Un(UnOp::Not, e) => format!("(!{})", expr(e)),
        Expr::Field { obj, name, .. } => format!("{}->{}", expr(obj), name),
        Expr::Index { arr, idx, .. } => format!("{}[{}]", expr(arr), expr(idx)),
        Expr::Call { name, args, .. } => {
            let args: Vec<String> = args.iter().map(expr).collect();
            format!("{name}({})", args.join(", "))
        }
        Expr::Ralloc { region, ty, .. } => {
            format!("ralloc({}, {})", expr(region), alloc_ty(ty))
        }
        Expr::RarrayAlloc { region, count, ty, .. } => {
            format!("rarrayalloc({}, {}, {})", expr(region), expr(count), alloc_ty(ty))
        }
        Expr::NewRegion => "newregion()".into(),
        Expr::TraditionalRegion => "traditionalregion()".into(),
        Expr::NewSubregion(r) => format!("newsubregion({})", expr(r)),
        Expr::DeleteRegion(r, _) => format!("deleteregion({})", expr(r)),
        Expr::RegionOf(x, _) => format!("regionof({})", expr(x)),
        Expr::Assert(e, _) => format!("assert({})", expr(e)),
    }
}

fn alloc_ty(t: &TypeExpr) -> String {
    match t {
        TypeExpr::StructPtr { name, .. } => format!("struct {name}"),
        TypeExpr::Int => "int".into(),
        other => type_str(other),
    }
}

fn bin_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

/// Erases source positions and site ids so round-tripped ASTs compare
/// structurally.
pub fn normalise(ast: &Ast) -> Ast {
    let mut a = ast.clone();
    for s in &mut a.structs {
        s.line = 0;
    }
    for g in &mut a.globals {
        g.line = 0;
    }
    let mut next_site = 0u32;
    for f in &mut a.funcs {
        f.line = 0;
        for item in &mut f.body {
            norm_item(item, &mut next_site);
        }
    }
    a
}

fn norm_item(item: &mut BlockItem, next: &mut u32) {
    match item {
        BlockItem::Decl(d) => {
            d.line = 0;
            if let Some(e) = &mut d.init {
                norm_expr(e, next);
            }
        }
        BlockItem::Stmt(s) => norm_stmt(s, next),
    }
}

fn norm_stmt(s: &mut Stmt, next: &mut u32) {
    match s {
        Stmt::Empty => {}
        Stmt::Expr(e) => norm_expr(e, next),
        Stmt::Block(items) => items.iter_mut().for_each(|i| norm_item(i, next)),
        Stmt::If(c, t, e) => {
            norm_expr(c, next);
            norm_stmt(t, next);
            if let Some(e) = e {
                norm_stmt(e, next);
            }
        }
        Stmt::While(c, b) => {
            norm_expr(c, next);
            norm_stmt(b, next);
        }
        Stmt::For(i, c, st, b) => {
            for e in [i, c, st].into_iter().flatten() {
                norm_expr(e, next);
            }
            norm_stmt(b, next);
        }
        Stmt::Return(e, line) => {
            *line = 0;
            if let Some(e) = e {
                norm_expr(e, next);
            }
        }
        Stmt::Spawn { body, line, .. } => {
            *line = 0;
            body.iter_mut().for_each(|i| norm_item(i, next));
        }
        Stmt::Join(line) => *line = 0,
    }
}

fn norm_expr(e: &mut Expr, next: &mut u32) {
    match e {
        Expr::Int(_) | Expr::Null | Expr::NewRegion | Expr::TraditionalRegion => {}
        Expr::Var(_, line) => *line = 0,
        Expr::Assign { lhs, rhs, site, line } => {
            *line = 0;
            *site = crate::ast::SiteId(*next);
            *next += 1;
            norm_expr(lhs, next);
            norm_expr(rhs, next);
        }
        Expr::Bin(_, l, r) => {
            norm_expr(l, next);
            norm_expr(r, next);
        }
        Expr::Un(_, inner) => norm_expr(inner, next),
        Expr::Field { obj, line, .. } => {
            *line = 0;
            norm_expr(obj, next);
        }
        Expr::Index { arr, idx, line } => {
            *line = 0;
            norm_expr(arr, next);
            norm_expr(idx, next);
        }
        Expr::Call { args, line, .. } => {
            *line = 0;
            args.iter_mut().for_each(|a| norm_expr(a, next));
        }
        Expr::Ralloc { region, line, .. } => {
            *line = 0;
            norm_expr(region, next);
        }
        Expr::RarrayAlloc { region, count, line, .. } => {
            *line = 0;
            norm_expr(region, next);
            norm_expr(count, next);
        }
        Expr::NewSubregion(r) => norm_expr(r, next),
        Expr::DeleteRegion(r, line) | Expr::RegionOf(r, line) | Expr::Assert(r, line) => {
            *line = 0;
            norm_expr(r, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Parse → print → parse is the identity modulo positions/sites.
    fn round_trip(src: &str) {
        let a1 = parse(src).unwrap();
        let printed = print_ast(&a1);
        let a2 = parse(&printed)
            .unwrap_or_else(|e| panic!("printed source does not parse: {e}\n{printed}"));
        assert_eq!(normalise(&a1), normalise(&a2), "round trip changed the AST:\n{printed}");
    }

    #[test]
    fn round_trips_figure1() {
        round_trip(include_str!("../testdata/figure1.rc"));
    }

    #[test]
    fn round_trips_all_workloads() {
        // The pretty-printer must faithfully reproduce every construct the
        // benchmark suite uses.
        for w in [&rc_workload_sources::CFRAC_LIKE, &rc_workload_sources::KITCHEN_SINK] {
            round_trip(w);
        }
    }

    /// Local fixtures exercising the full grammar.
    mod rc_workload_sources {
        pub const CFRAC_LIKE: &str = r#"
            struct big { int len; int *sameregion d; };
            struct big *gscratch;
            static struct big *mk(region r, int n) {
                struct big *b = ralloc(r, struct big);
                b->d = rarrayalloc(regionof(b), 12, int);
                b->len = n;
                return b;
            }
            int main() deletes {
                region r = newregion();
                struct big *x = mk(r, 5);
                gscratch = x;
                gscratch = null;
                x = null;
                deleteregion(r);
                return 0;
            }
        "#;

        pub const KITCHEN_SINK: &str = r#"
            struct node {
                int v;
                struct node *sameregion next;
                struct node *parentptr up;
                struct node *traditional t;
                struct node *plain;
                region held;
            };
            struct node *cache[7];
            int counter;
            static int helper(int a, int b) {
                if (a > b || a == 0 && b != 1) { return a; } else { return b; }
            }
            int main() deletes {
                int xs[3];
                region r = newregion();
                region s = newsubregion(r);
                region t = traditionalregion();
                struct node *n = ralloc(s, struct node);
                n->up = null;
                n->v = -3;
                xs[0] = !(1 < 2);
                xs[1] = helper(xs[0], 4) % 3;
                xs[2] = xs[0] + xs[1] * 2 - 1 / 1;
                int i;
                for (i = 0; i < 3; i = i + 1) {
                    counter = counter + xs[i];
                    while (counter > 100) { counter = counter - 100; }
                }
                cache[2] = n;
                cache[2] = null;
                n = null;
                assert(counter >= 0);
                deleteregion(s);
                deleteregion(r);
                return counter;
            }
        "#;
    }

    #[test]
    fn printed_programs_recompile_and_run_identically() {
        use crate::interp::{prepare, run};
        use crate::RunConfig;
        let src = include_str!("../testdata/figure1.rc");
        let printed = print_ast(&parse(src).unwrap());
        let a = run(&prepare(src).unwrap(), &RunConfig::rc_inf());
        let b = run(&prepare(&printed).unwrap(), &RunConfig::rc_inf());
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.stats, b.stats);
    }
}
