//! Structural well-formedness of rlang programs.
//!
//! The inference ([`crate::infer`]) assumes the translation's invariants:
//! variable and field indices in range, arities matching, results held in
//! locals, `chk` facts mentioning only the function's own abstract
//! regions. [`well_formed`] verifies all of that up front, so a malformed
//! hand-built program fails with a message instead of a panic deep inside
//! the dataflow engine. (The semantic counterpart — Figure 6's checking
//! judgments against a set of summaries — is [`crate::infer::validate`].)

use crate::program::{Callee, FuncDef, Program, Stmt, VarId};
use crate::types::{FieldType, RhoId, VarType};

/// A structural defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WfError {
    /// Function where the defect was found (or `<program>`).
    pub func: String,
    /// What is wrong.
    pub msg: String,
}

impl std::fmt::Display for WfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "in {}: {}", self.func, self.msg)
    }
}

impl std::error::Error for WfError {}

/// Checks every structural invariant the analysis relies on.
///
/// # Errors
///
/// Returns the first defect found.
pub fn well_formed(prog: &Program) -> Result<(), WfError> {
    for decl in &prog.structs {
        for (fname, fty) in &decl.fields {
            if let FieldType::Ptr { target, .. } = fty {
                if target.0 as usize >= prog.structs.len() {
                    return Err(WfError {
                        func: "<program>".into(),
                        msg: format!(
                            "struct `{}` field `{fname}` targets unknown struct #{}",
                            decl.name, target.0
                        ),
                    });
                }
            }
        }
    }
    for f in &prog.funcs {
        check_func(prog, f)?;
    }
    Ok(())
}

fn check_func(prog: &Program, f: &FuncDef) -> Result<(), WfError> {
    let err = |msg: String| Err(WfError { func: f.name.clone(), msg });
    if let Some(r) = f.result {
        if (r.0 as usize) < f.params.len() {
            return err("result variable is a parameter; it must be a local".into());
        }
        if r.0 as usize >= f.var_count() {
            return err(format!("result variable v{} out of range", r.0));
        }
    }
    check_stmt(prog, f, &f.body)
}

fn check_var(f: &FuncDef, v: VarId) -> Result<(), String> {
    if (v.0 as usize) >= f.var_count() {
        return Err(format!("variable v{} out of range (have {})", v.0, f.var_count()));
    }
    Ok(())
}

fn check_stmt(prog: &Program, f: &FuncDef, s: &Stmt) -> Result<(), WfError> {
    let wrap = |r: Result<(), String>| r.map_err(|msg| WfError { func: f.name.clone(), msg });
    match s {
        Stmt::Seq(ss) => ss.iter().try_for_each(|s| check_stmt(prog, f, s)),
        Stmt::If { cond, then_s, else_s } => {
            wrap(check_var(f, *cond))?;
            check_stmt(prog, f, then_s)?;
            check_stmt(prog, f, else_s)
        }
        Stmt::While { cond, body } => {
            wrap(check_var(f, *cond))?;
            check_stmt(prog, f, body)
        }
        Stmt::Assign { dst, src } => {
            wrap(check_var(f, *dst))?;
            wrap(check_var(f, *src))?;
            if dst == src {
                return wrap(Err(format!(
                    "assignment v{} = v{}: destination used in the statement",
                    dst.0, src.0
                )));
            }
            Ok(())
        }
        Stmt::AssignNull { dst } | Stmt::Havoc { dst } => wrap(check_var(f, *dst)),
        Stmt::ReadField { dst, obj, field } => {
            wrap(check_var(f, *dst))?;
            wrap(check_var(f, *obj))?;
            wrap(check_field(prog, f, *obj, *field))
        }
        Stmt::WriteField { obj, field, src } => {
            wrap(check_var(f, *obj))?;
            wrap(check_var(f, *src))?;
            wrap(check_field(prog, f, *obj, *field))
        }
        Stmt::New { dst, ty, region } => {
            wrap(check_var(f, *dst))?;
            wrap(check_var(f, *region))?;
            if ty.0 as usize >= prog.structs.len() {
                return wrap(Err(format!("new of unknown struct #{}", ty.0)));
            }
            if f.var_type(*region) != VarType::Region {
                return wrap(Err(format!("new through non-region variable v{}", region.0)));
            }
            Ok(())
        }
        Stmt::Call { dst, callee, args } => {
            if let Some(d) = dst {
                wrap(check_var(f, *d))?;
            }
            args.iter().try_for_each(|&a| wrap(check_var(f, a)))?;
            match callee {
                Callee::User(g) => {
                    let Some(gf) = prog.funcs.get(g.0 as usize) else {
                        return wrap(Err(format!("call to unknown function #{}", g.0)));
                    };
                    if gf.params.len() != args.len() {
                        return wrap(Err(format!(
                            "call to `{}`: {} argument(s), expected {}",
                            gf.name,
                            args.len(),
                            gf.params.len()
                        )));
                    }
                    Ok(())
                }
                Callee::NewRegion => expect_arity(f, args, 0).map_err(wf(f)),
                Callee::NewSubRegion | Callee::DeleteRegion | Callee::RegionOf => {
                    expect_arity(f, args, 1).map_err(wf(f))
                }
            }
        }
        Stmt::Chk { fact, .. } => wrap(check_fact_scope(f, fact.exprs().filter_map(|e| e.rho()))),
        Stmt::Assume { facts } => wrap(check_fact_scope(
            f,
            facts.iter().flat_map(|fa| fa.exprs()).filter_map(|e| e.rho()),
        )),
        Stmt::Return { src } => match src {
            None => Ok(()),
            Some(v) => wrap(check_var(f, *v)),
        },
        Stmt::Task { region, body } => {
            wrap(check_var(f, *region))?;
            if f.var_type(*region) != VarType::Region {
                return wrap(Err(format!("task through non-region variable v{}", region.0)));
            }
            check_stmt(prog, f, body)
        }
    }
}

fn wf(f: &FuncDef) -> impl Fn(String) -> WfError + '_ {
    move |msg| WfError { func: f.name.clone(), msg }
}

fn expect_arity(_f: &FuncDef, args: &[VarId], n: usize) -> Result<(), String> {
    if args.len() != n {
        return Err(format!("predefined call: {} argument(s), expected {n}", args.len()));
    }
    Ok(())
}

fn check_field(prog: &Program, f: &FuncDef, obj: VarId, field: usize) -> Result<(), String> {
    match f.var_type(obj) {
        VarType::Ptr(sid) => {
            let decl = prog.struct_decl(sid);
            if field >= decl.fields.len() {
                return Err(format!("field #{field} out of range for struct `{}`", decl.name));
            }
            Ok(())
        }
        other => Err(format!("field access through non-pointer v{} ({other:?})", obj.0)),
    }
}

fn check_fact_scope(f: &FuncDef, rhos: impl Iterator<Item = RhoId>) -> Result<(), String> {
    for RhoId(i) in rhos {
        if i as usize >= f.var_count() {
            return Err(format!("fact mentions ρ{i}, beyond the function's variables"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FuncDef, Program, SiteId};
    use crate::types::{Fact, FieldQual, RegionExpr, StructDecl, StructId};

    fn base_prog() -> Program {
        let mut p = Program::new();
        p.add_struct(StructDecl {
            name: "t".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: StructId(0), qual: FieldQual::SameRegion },
            )],
        });
        p
    }

    fn func(body: Stmt, locals: Vec<VarType>) -> FuncDef {
        FuncDef { name: "main".into(), exported: true, params: vec![], locals, result: None, body }
    }

    #[test]
    fn good_program_passes() {
        let mut p = base_prog();
        let body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(VarId(0)), callee: Callee::NewRegion, args: vec![] },
            Stmt::New { dst: VarId(1), ty: StructId(0), region: VarId(0) },
            Stmt::WriteField { obj: VarId(1), field: 0, src: VarId(1) },
        ]);
        p.add_func(func(body, vec![VarType::Region, VarType::Ptr(StructId(0))]));
        assert_eq!(well_formed(&p), Ok(()));
    }

    #[test]
    fn out_of_range_variable_rejected() {
        let mut p = base_prog();
        p.add_func(func(Stmt::AssignNull { dst: VarId(7) }, vec![VarType::Int]));
        let e = well_formed(&p).unwrap_err();
        assert!(e.msg.contains("out of range"), "{e}");
    }

    #[test]
    fn bad_field_rejected() {
        let mut p = base_prog();
        p.add_func(func(
            Stmt::ReadField { dst: VarId(0), obj: VarId(0), field: 9 },
            vec![VarType::Ptr(StructId(0))],
        ));
        let e = well_formed(&p).unwrap_err();
        assert!(e.msg.contains("field"), "{e}");
    }

    #[test]
    fn self_assignment_rejected() {
        let mut p = base_prog();
        p.add_func(func(
            Stmt::Assign { dst: VarId(0), src: VarId(0) },
            vec![VarType::Ptr(StructId(0))],
        ));
        assert!(well_formed(&p).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut p = base_prog();
        let callee = p.add_func(func(Stmt::skip(), vec![]));
        let body = Stmt::Call { dst: None, callee: Callee::User(callee), args: vec![VarId(0)] };
        p.add_func(FuncDef {
            name: "caller".into(),
            exported: true,
            params: vec![],
            locals: vec![VarType::Int],
            result: None,
            body,
        });
        let e = well_formed(&p).unwrap_err();
        assert!(e.msg.contains("argument"), "{e}");
    }

    #[test]
    fn fact_scope_enforced() {
        let mut p = base_prog();
        p.add_func(func(
            Stmt::Chk { fact: Fact::NotTop(RegionExpr::Abstract(RhoId(40))), site: SiteId(0) },
            vec![VarType::Int],
        ));
        let e = well_formed(&p).unwrap_err();
        assert!(e.msg.contains("ρ40"), "{e}");
    }

    #[test]
    fn result_must_be_local() {
        let mut p = base_prog();
        p.add_func(FuncDef {
            name: "f".into(),
            exported: true,
            params: vec![VarType::Int],
            locals: vec![],
            result: Some(VarId(0)),
            body: Stmt::skip(),
        });
        assert!(well_formed(&p).is_err());
    }

    #[test]
    fn inferred_summaries_always_validate() {
        // The greatest-fixed-point property, checked via Figure 6.
        let mut p = base_prog();
        let (r, x, y) = (VarId(0), VarId(1), VarId(2));
        p.add_func(func(
            Stmt::Seq(vec![
                Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
                Stmt::New { dst: x, ty: StructId(0), region: r },
                Stmt::New { dst: y, ty: StructId(0), region: r },
                Stmt::WriteField { obj: x, field: 0, src: y },
            ]),
            vec![VarType::Region, VarType::Ptr(StructId(0)), VarType::Ptr(StructId(0))],
        ));
        well_formed(&p).unwrap();
        let a = crate::infer::analyse(&p);
        assert!(crate::infer::validate(&p, &a).is_empty());
    }

    #[test]
    fn forged_summaries_fail_validation() {
        // Claim an output the body cannot prove.
        let mut p = base_prog();
        let f = p.add_func(FuncDef {
            name: "id".into(),
            exported: false,
            params: vec![VarType::Ptr(StructId(0))],
            locals: vec![VarType::Ptr(StructId(0))],
            result: Some(VarId(1)),
            body: Stmt::Seq(vec![
                Stmt::Havoc { dst: VarId(1) },
                Stmt::Return { src: Some(VarId(1)) },
            ]),
        });
        p.add_func(func(
            Stmt::Seq(vec![
                Stmt::Call { dst: Some(VarId(0)), callee: Callee::NewRegion, args: vec![] },
                Stmt::New { dst: VarId(1), ty: StructId(0), region: VarId(0) },
                Stmt::Call { dst: Some(VarId(2)), callee: Callee::User(f), args: vec![VarId(1)] },
            ]),
            vec![VarType::Region, VarType::Ptr(StructId(0)), VarType::Ptr(StructId(0))],
        ));
        let analysed = crate::infer::analyse(&p);
        let mut a = analysed.clone();
        // Forge: claim the result is always in the argument's region.
        a.summaries[f.0 as usize].output = crate::ConstraintSet::from_facts([Fact::Eq(
            RegionExpr::Abstract(RhoId(0)),
            RegionExpr::Abstract(RhoId(1)),
        )]);
        let violations = crate::infer::validate(&p, &a);
        assert!(!violations.is_empty(), "forged output summary must be caught");

        // Forge: demand a null argument, which the caller's fresh object
        // is not.
        let mut a = analysed;
        a.summaries[f.0 as usize].input =
            crate::ConstraintSet::from_facts([Fact::IsTop(RegionExpr::Abstract(RhoId(0)))]);
        let violations = crate::infer::validate(&p, &a);
        let call = violations
            .iter()
            .find(|v| v.starts_with("call to `id` in `main`"))
            .expect("forged input summary must be caught at the call site");
        let expected = "call to `id` in `main`: input summary not entailed (need ρ1 = ⊤, have ";
        assert!(call.starts_with(expected), "{call}");
    }
}
