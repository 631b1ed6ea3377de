//! Pretty-printing of rlang programs.
//!
//! Renders programs in a notation close to the paper's Figure 5, with the
//! §4.3 existential field types spelled out — useful for debugging
//! translations and for documentation. The output is stable, so tests can
//! golden-match it.

use std::fmt::Write as _;

use crate::program::{Callee, FuncDef, Program, Stmt, VarId};
use crate::types::{FieldQual, FieldType, VarType};

/// Renders a whole program.
pub fn program_to_string(p: &Program) -> String {
    let mut out = String::new();
    for (i, s) in p.structs.iter().enumerate() {
        let _ = writeln!(out, "struct {}[ρ] {{  // #{i}", s.name);
        for (fname, fty) in &s.fields {
            let _ = writeln!(out, "    {fname}: {};", field_type_str(p, fty));
        }
        let _ = writeln!(out, "}}");
    }
    for (i, f) in p.funcs.iter().enumerate() {
        let _ = writeln!(out, "\n{}", func_signature(p, f, i));
        let mut body = String::new();
        stmt(&mut body, p, f, &f.body, 1);
        out.push_str(&body);
    }
    out
}

fn field_type_str(p: &Program, fty: &FieldType) -> String {
    match fty {
        FieldType::Int => "int".into(),
        FieldType::Region => "∃ρ'. region@ρ'".into(),
        FieldType::Ptr { target, qual } => {
            let t = &p.struct_decl(*target).name;
            match qual {
                FieldQual::Unknown => format!("∃ρ'. {t}[ρ']@ρ'"),
                FieldQual::SameRegion => format!("∃ρ'/ρ'=⊤ ∨ ρ'=ρ. {t}[ρ']@ρ'"),
                FieldQual::ParentPtr => format!("∃ρ'/ρ ≤ ρ'. {t}[ρ']@ρ'"),
                FieldQual::Traditional => format!("∃ρ'/ρ'=⊤ ∨ ρ'=R_T. {t}[ρ']@ρ'"),
            }
        }
    }
}

fn var_type_str(p: &Program, v: VarType, rho: u32) -> String {
    match v {
        VarType::Int => "int".into(),
        VarType::Region => format!("region@ρ{rho}"),
        VarType::Ptr(sid) => {
            format!("{}[ρ{rho}]@ρ{rho}", p.struct_decl(sid).name)
        }
    }
}

fn func_signature(p: &Program, f: &FuncDef, idx: usize) -> String {
    let params: Vec<String> = f
        .params
        .iter()
        .enumerate()
        .map(|(i, &t)| format!("x{}: {}", i, var_type_str(p, t, i as u32)))
        .collect();
    let vis = if f.exported { "export " } else { "" };
    format!("{vis}fn {}({})  // #{idx}", f.name, params.join(", "))
}

fn v(x: VarId) -> String {
    format!("x{}", x.0)
}

fn stmt(out: &mut String, p: &Program, f: &FuncDef, s: &Stmt, depth: usize) {
    let pad = "    ".repeat(depth);
    match s {
        Stmt::Seq(ss) => {
            for s in ss {
                stmt(out, p, f, s, depth);
            }
        }
        Stmt::If { cond, then_s, else_s } => {
            let _ = writeln!(out, "{pad}if {} {{", v(*cond));
            stmt(out, p, f, then_s, depth + 1);
            let _ = writeln!(out, "{pad}}} else {{");
            stmt(out, p, f, else_s, depth + 1);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::While { cond, body } => {
            let _ = writeln!(out, "{pad}while {} {{", v(*cond));
            stmt(out, p, f, body, depth + 1);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Assign { dst, src } => {
            let _ = writeln!(out, "{pad}{} = {};", v(*dst), v(*src));
        }
        Stmt::AssignNull { dst } => {
            let _ = writeln!(out, "{pad}{} = null;", v(*dst));
        }
        Stmt::Havoc { dst } => {
            let _ = writeln!(out, "{pad}{} = ⟨unknown⟩;", v(*dst));
        }
        Stmt::ReadField { dst, obj, field } => {
            let _ =
                writeln!(out, "{pad}{} = {}.{};", v(*dst), v(*obj), field_name(p, f, *obj, *field));
        }
        Stmt::WriteField { obj, field, src } => {
            let _ =
                writeln!(out, "{pad}{}.{} = {};", v(*obj), field_name(p, f, *obj, *field), v(*src));
        }
        Stmt::New { dst, ty, region } => {
            let _ = writeln!(
                out,
                "{pad}{} = new {}[ρ{}](…)@{};",
                v(*dst),
                p.struct_decl(*ty).name,
                dst.0,
                v(*region)
            );
        }
        Stmt::Call { dst, callee, args } => {
            let name = match callee {
                Callee::User(g) => p.func(*g).name.clone(),
                Callee::NewRegion => "newregion".into(),
                Callee::NewSubRegion => "newsubregion".into(),
                Callee::DeleteRegion => "deleteregion".into(),
                Callee::RegionOf => "regionof".into(),
            };
            let args: Vec<String> = args.iter().map(|&a| v(a)).collect();
            match dst {
                Some(d) => {
                    let _ = writeln!(out, "{pad}{} = {name}({});", v(*d), args.join(", "));
                }
                None => {
                    let _ = writeln!(out, "{pad}{name}({});", args.join(", "));
                }
            }
        }
        Stmt::Chk { fact, site } => {
            let _ = writeln!(out, "{pad}chk {fact};  // site {}", site.0);
        }
        Stmt::Assume { facts } => {
            let fs: Vec<String> = facts.iter().map(|f| f.to_string()).collect();
            let _ = writeln!(out, "{pad}assume {};", fs.join(" ∧ "));
        }
        Stmt::Task { region, body } => {
            let _ = writeln!(out, "{pad}task {} {{", v(*region));
            stmt(out, p, f, body, depth + 1);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Return { src } => match src {
            Some(s) => {
                let _ = writeln!(out, "{pad}return {};", v(*s));
            }
            None => {
                let _ = writeln!(out, "{pad}return;");
            }
        },
    }
}

fn field_name(p: &Program, f: &FuncDef, obj: VarId, field: usize) -> String {
    if let VarType::Ptr(sid) = f.var_type(obj) {
        if let Some((name, _)) = p.struct_decl(sid).fields.get(field) {
            return name.clone();
        }
    }
    format!("f{field}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::SiteId;
    use crate::types::{Fact, FieldQual, RegionExpr, RhoId, StructDecl, StructId};

    #[test]
    fn renders_figure1_shape() {
        let mut p = Program::new();
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: StructId(0), qual: FieldQual::SameRegion },
            )],
        });
        let (r, x, y) = (VarId(0), VarId(1), VarId(2));
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![VarType::Region, VarType::Ptr(StructId(0)), VarType::Ptr(StructId(0))],
            result: None,
            body: Stmt::Seq(vec![
                Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
                Stmt::New { dst: x, ty: StructId(0), region: r },
                Stmt::AssignNull { dst: y },
                Stmt::Chk {
                    fact: Fact::EqOrNull(
                        RegionExpr::Abstract(y.rho()),
                        RegionExpr::Abstract(x.rho()),
                    ),
                    site: SiteId(0),
                },
                Stmt::WriteField { obj: x, field: 0, src: y },
                Stmt::Return { src: None },
            ]),
        });
        let text = program_to_string(&p);
        assert!(text.contains("struct rlist[ρ]"), "{text}");
        assert!(text.contains("∃ρ'/ρ'=⊤ ∨ ρ'=ρ. rlist[ρ']@ρ'"), "{text}");
        assert!(text.contains("x0 = newregion();"), "{text}");
        assert!(text.contains("chk "), "{text}");
        assert!(text.contains("x1.next = x2;"), "{text}");
    }

    #[test]
    fn renders_every_statement_form() {
        let mut p = Program::new();
        p.add_struct(StructDecl { name: "t".into(), fields: vec![("x".into(), FieldType::Int)] });
        let body = Stmt::Seq(vec![
            Stmt::Havoc { dst: VarId(0) },
            Stmt::Assume { facts: vec![Fact::NotTop(RegionExpr::Abstract(RhoId(0)))] },
            Stmt::If {
                cond: VarId(1),
                then_s: Box::new(Stmt::Assign { dst: VarId(0), src: VarId(2) }),
                else_s: Box::new(Stmt::skip()),
            },
            Stmt::While { cond: VarId(1), body: Box::new(Stmt::skip()) },
        ]);
        p.add_func(FuncDef {
            name: "f".into(),
            exported: false,
            params: vec![VarType::Ptr(StructId(0))],
            locals: vec![VarType::Int, VarType::Ptr(StructId(0))],
            result: None,
            body,
        });
        let text = program_to_string(&p);
        for needle in ["⟨unknown⟩", "assume", "if x1 {", "while x1 {", "fn f(x0:"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
