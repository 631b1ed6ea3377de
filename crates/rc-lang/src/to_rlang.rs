//! Translation of RC programs into rlang (paper §4.3).
//!
//! "Our goal ... we want to translate an RC program P into an rlang program
//! P′ that faithfully matches P, then analyse P′ to verify the correctness
//! of sameregion, parentptr and traditional annotations."
//!
//! The translation follows the paper's recipe:
//!
//! - every struct `X` becomes `X[ρ]` where ρ is the region the struct is
//!   stored in; unannotated pointer fields get type `∃ρ′.T[ρ′]@ρ′`,
//!   annotated ones the qualifier's bounded existential;
//! - every local variable and parameter `x` gets its own abstract region
//!   ρₓ;
//! - every annotated field assignment is preceded by the matching `chk`,
//!   carrying the [`SiteId`] minted by the parser so the interpreter can
//!   later skip checks the analysis proves redundant;
//! - global variables are *not* tracked ("our region type system does not
//!   represent the region of global variables"): reads of unannotated
//!   pointer globals havoc their destination; annotated globals contribute
//!   their qualifier's fact against the traditional-region constant;
//! - reads from arrays havoc ("nothing is known about objects accessed
//!   from arbitrary arrays"), except `rarrayalloc`'d struct-array element
//!   access, which is region-preserving pointer arithmetic;
//! - compound expressions are flattened through fresh temporaries, each
//!   with its own abstract region.

use crate::ast::Qual;
use crate::hir::*;
use rlang::program::{Callee, FuncDef, Program, Stmt as RStmt, VarId};
use rlang::types::{
    Fact, FieldQual, FieldType, RegionExpr, StructDecl, StructId, VarType, TRADITIONAL_CONST,
};

/// Translates a checked module into an rlang program. Function, struct and
/// variable indices are preserved (`FuncRef(i)` ↦ `FuncId(i)`, etc.); a
/// pseudo-struct representing `int[]` arrays is appended after the real
/// structs.
pub fn translate(m: &Module) -> Program {
    let mut p = Program::new();
    let int_array = StructId(m.structs.len() as u32);
    for s in &m.structs {
        p.add_struct(StructDecl {
            name: s.name.clone(),
            fields: s
                .fields
                .iter()
                .map(|f| (f.name.clone(), field_type(f.ty, int_array)))
                .collect(),
        });
    }
    p.add_struct(StructDecl { name: "__int_array".into(), fields: vec![] });

    for f in &m.funcs {
        let mut tr = Tr {
            m,
            int_array,
            vartypes: f
                .params
                .iter()
                .chain(f.locals.iter())
                .map(|v| var_type(v, int_array))
                .collect(),
            n_params: f.params.len(),
        };
        let result = f.ret.map(|rt| tr.temp(rc_var_type(rt, int_array)));
        let mut body = Vec::new();
        tr.tr_stmts(&f.body, &mut body);
        let locals = tr.vartypes.split_off(f.params.len());
        p.add_func(FuncDef {
            name: f.name.clone(),
            exported: f.exported,
            params: tr.vartypes,
            locals,
            result,
            body: RStmt::Seq(body),
        });
    }
    p
}

/// Runs the whole-program check-elimination analysis on a module.
pub fn analyse_module(m: &Module) -> rlang::Analysis {
    rlang::analyse(&translate(m))
}

/// One row of the static↔dynamic provenance join: a check site's source
/// line, its inference verdict, and the reason behind the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteVerdict {
    /// The front-end check site id (dense, minted by the parser).
    pub site: u32,
    /// Source line of the annotated store (0 = unknown).
    pub line: u32,
    /// `true` when the inference proved the check redundant.
    pub safe: bool,
    /// Human-readable inference reason (rendered
    /// [`rlang::ProvenanceReason`]).
    pub reason: String,
}

/// Joins a module's check sites with the analysis provenance, ascending by
/// site id — the table the benchmark layer's coverage report and Perfetto
/// trace export consume.
pub fn site_verdicts(m: &Module, analysis: &rlang::Analysis) -> Vec<SiteVerdict> {
    (0..m.n_sites)
        .map(|s| {
            let site = rlang::SiteId(s);
            let line = m.site_lines.get(s as usize).copied().unwrap_or(0);
            let (safe, reason) = match analysis.provenance_of(site) {
                Some(p) => (p.safe, p.reason.to_string()),
                // A site the analysis never visited keeps its check.
                None => (false, "never reached by the analysis".to_string()),
            };
            SiteVerdict { site: s, line, safe, reason }
        })
        .collect()
}

fn qual_to_field(q: Qual) -> FieldQual {
    match q {
        Qual::None => FieldQual::Unknown,
        Qual::SameRegion => FieldQual::SameRegion,
        Qual::ParentPtr => FieldQual::ParentPtr,
        Qual::Traditional => FieldQual::Traditional,
    }
}

fn field_type(ty: RcType, int_array: StructId) -> FieldType {
    match ty {
        RcType::Int => FieldType::Int,
        RcType::Region => FieldType::Region,
        RcType::Ptr { target, qual } => {
            FieldType::Ptr { target: StructId(target.0), qual: qual_to_field(qual) }
        }
        RcType::IntPtr(qual) => FieldType::Ptr { target: int_array, qual: qual_to_field(qual) },
    }
}

fn rc_var_type(ty: RcType, int_array: StructId) -> VarType {
    match ty {
        RcType::Int => VarType::Int,
        RcType::Region => VarType::Region,
        RcType::Ptr { target, .. } => VarType::Ptr(StructId(target.0)),
        RcType::IntPtr(_) => VarType::Ptr(int_array),
    }
}

fn var_type(v: &HVar, int_array: StructId) -> VarType {
    if v.array_len.is_some() {
        // Array locals are storage, not tracked values; their elements are
        // reached through havoc'd reads.
        VarType::Int
    } else {
        rc_var_type(v.ty, int_array)
    }
}

struct Tr<'a> {
    m: &'a Module,
    int_array: StructId,
    vartypes: Vec<VarType>,
    n_params: usize,
}

impl Tr<'_> {
    fn temp(&mut self, t: VarType) -> VarId {
        let id = VarId(self.vartypes.len() as u32);
        self.vartypes.push(t);
        id
    }

    fn rho(&self, v: VarId) -> RegionExpr {
        RegionExpr::Abstract(v.rho())
    }

    fn rt() -> RegionExpr {
        RegionExpr::Const(TRADITIONAL_CONST)
    }

    fn has_region(&self, v: VarId) -> bool {
        self.vartypes[v.0 as usize].has_region()
    }

    fn tr_stmts(&mut self, stmts: &[HStmt], out: &mut Vec<RStmt>) {
        for s in stmts {
            self.tr_stmt(s, out);
        }
    }

    fn tr_stmt(&mut self, s: &HStmt, out: &mut Vec<RStmt>) {
        match s {
            HStmt::Expr(e) => {
                self.tr_expr(e, out);
            }
            HStmt::Return(e) => {
                let src = e.as_ref().map(|e| self.tr_expr(e, out));
                out.push(RStmt::Return { src });
            }
            HStmt::If(c, t, e) => {
                let (cv, negated) = self.tr_cond(c, out);
                let mut ts = Vec::new();
                self.tr_stmts(t, &mut ts);
                let mut es = Vec::new();
                self.tr_stmts(e, &mut es);
                let (then_s, else_s) = if negated { (es, ts) } else { (ts, es) };
                out.push(RStmt::If {
                    cond: cv,
                    then_s: Box::new(RStmt::Seq(then_s)),
                    else_s: Box::new(RStmt::Seq(else_s)),
                });
            }
            HStmt::While(c, body) => {
                let (cv, negated) = self.tr_cond(c, out);
                if negated || !self.has_region(cv) {
                    // Int-valued (or negated) condition: no region
                    // refinement to preserve; re-evaluate for effects only.
                    let mut b = Vec::new();
                    self.tr_stmts(body, &mut b);
                    let mut tail = Vec::new();
                    self.tr_cond(c, &mut tail);
                    b.extend(tail);
                    let cond = if negated { self.temp(VarType::Int) } else { cv };
                    out.push(RStmt::While { cond, body: Box::new(RStmt::Seq(b)) });
                } else {
                    // Pointer-valued condition: loop on a dedicated
                    // variable so every re-evaluation feeds the same ρ.
                    let tc = self.temp(self.vartypes[cv.0 as usize]);
                    out.push(RStmt::Assign { dst: tc, src: cv });
                    let mut b = Vec::new();
                    self.tr_stmts(body, &mut b);
                    let (cv2, _) = self.tr_cond(c, &mut b);
                    if cv2 != tc {
                        b.push(RStmt::Assign { dst: tc, src: cv2 });
                    }
                    out.push(RStmt::While { cond: tc, body: Box::new(RStmt::Seq(b)) });
                }
            }
            HStmt::Spawn { rvar, body, .. } => {
                // The spawn body becomes an rlang task: analysed in
                // isolation from the spawning context (only the region
                // handle crosses the boundary), with no dataflow effects on
                // the parent — exactly the sharded execution model.
                let mut b = Vec::new();
                self.tr_stmts(body, &mut b);
                out.push(RStmt::Task { region: VarId(rvar.0), body: Box::new(RStmt::Seq(b)) });
            }
            // join has no region dataflow: the child regions never flow
            // back (sema forbids pointer captures in either direction).
            HStmt::Join => {}
        }
    }

    /// Translates a condition, recognising the null-test shapes whose
    /// region refinement matters: `p`, `p != null` (positive) and
    /// `p == null` (negated).
    fn tr_cond(&mut self, c: &HExpr, out: &mut Vec<RStmt>) -> (VarId, bool) {
        use crate::ast::BinOp;
        match c {
            HExpr::Bin(BinOp::Ne, a, b) => match (a.as_ref(), b.as_ref()) {
                (x, HExpr::Null(_)) | (HExpr::Null(_), x) => (self.tr_expr(x, out), false),
                _ => (self.tr_expr(c, out), false),
            },
            HExpr::Bin(BinOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
                (x, HExpr::Null(_)) | (HExpr::Null(_), x) => (self.tr_expr(x, out), true),
                _ => (self.tr_expr(c, out), false),
            },
            _ => (self.tr_expr(c, out), false),
        }
    }

    /// Translates an expression, appending statements to `out` and
    /// returning the variable holding its value (a dummy int temp for void
    /// expressions).
    fn tr_expr(&mut self, e: &HExpr, out: &mut Vec<RStmt>) -> VarId {
        match e {
            HExpr::Int(_) => self.temp(VarType::Int),
            HExpr::Null(ty) => {
                let t = self.temp(rc_var_type(*ty, self.int_array));
                out.push(RStmt::AssignNull { dst: t });
                t
            }
            HExpr::ReadLocal(v) => VarId(v.0),
            HExpr::ReadGlobal(g) => {
                let ty = self.m.global(*g).ty;
                let t = self.temp(rc_var_type(ty, self.int_array));
                if self.has_region(t) {
                    out.push(RStmt::Havoc { dst: t });
                    if let Some(q) = ty.qual() {
                        let facts = qual_to_field(q).read_facts(self.rho(t), Self::rt());
                        if !facts.is_empty() {
                            out.push(RStmt::Assume { facts });
                        }
                    }
                }
                t
            }
            HExpr::AssignLocal { v, val } => {
                let dst = VarId(v.0);
                let tv = self.tr_expr(val, out);
                if tv != dst && self.has_region(dst) {
                    out.push(RStmt::Assign { dst, src: tv });
                }
                dst
            }
            HExpr::AssignGlobal { g, val, site } => {
                let ty = self.m.global(*g).ty;
                let tv = self.tr_expr(val, out);
                if let Some(q) = ty.qual() {
                    if let Some(fact) = qual_to_field(q).obligation(self.rho(tv), Self::rt()) {
                        out.push(RStmt::Chk { fact, site: *site });
                    }
                }
                tv
            }
            HExpr::ReadField { obj, s, field } => {
                let to = self.tr_expr(obj, out);
                let fty = self.m.struct_def(*s).fields[*field as usize].ty;
                let t = self.temp(rc_var_type(fty, self.int_array));
                out.push(RStmt::ReadField { dst: t, obj: to, field: *field as usize });
                t
            }
            HExpr::AssignField { obj, s, field, val, site } => {
                let to = self.tr_expr(obj, out);
                let tv = self.tr_expr(val, out);
                let fty = self.m.struct_def(*s).fields[*field as usize].ty;
                if let Some(q) = fty.qual() {
                    if let Some(fact) = qual_to_field(q).obligation(self.rho(tv), self.rho(to)) {
                        out.push(RStmt::Chk { fact, site: *site });
                    }
                }
                out.push(RStmt::WriteField { obj: to, field: *field as usize, src: tv });
                tv
            }
            HExpr::ReadArraySlot { base: _, idx, elem } => {
                self.tr_expr(idx, out);
                let t = self.temp(rc_var_type(*elem, self.int_array));
                if self.has_region(t) {
                    out.push(RStmt::Havoc { dst: t });
                    if let Some(q) = elem.qual() {
                        // Declared arrays live in the traditional region.
                        let facts = qual_to_field(q).read_facts(self.rho(t), Self::rt());
                        if !facts.is_empty() {
                            out.push(RStmt::Assume { facts });
                        }
                    }
                }
                t
            }
            HExpr::AssignArraySlot { base: _, idx, val, elem, site } => {
                self.tr_expr(idx, out);
                let tv = self.tr_expr(val, out);
                if let Some(q) = elem.qual() {
                    if let Some(fact) = qual_to_field(q).obligation(self.rho(tv), Self::rt()) {
                        out.push(RStmt::Chk { fact, site: *site });
                    }
                }
                tv
            }
            HExpr::PtrElem { ptr, idx, s } => {
                let tp = self.tr_expr(ptr, out);
                self.tr_expr(idx, out);
                let t = self.temp(VarType::Ptr(StructId(s.0)));
                // Pointer arithmetic is region-preserving: the element is
                // in the same region as the array, and both are non-null.
                out.push(RStmt::Havoc { dst: t });
                out.push(RStmt::Assume {
                    facts: vec![
                        Fact::NotTop(self.rho(tp)),
                        Fact::NotTop(self.rho(t)),
                        Fact::Eq(self.rho(t), self.rho(tp)),
                    ],
                });
                t
            }
            HExpr::ReadIntElem { ptr, idx } => {
                let tp = self.tr_expr(ptr, out);
                self.tr_expr(idx, out);
                out.push(RStmt::Assume { facts: vec![Fact::NotTop(self.rho(tp))] });
                self.temp(VarType::Int)
            }
            HExpr::AssignIntElem { ptr, idx, val } => {
                let tp = self.tr_expr(ptr, out);
                self.tr_expr(idx, out);
                let tv = self.tr_expr(val, out);
                out.push(RStmt::Assume { facts: vec![Fact::NotTop(self.rho(tp))] });
                tv
            }
            HExpr::Bin(op, l, r) => {
                use crate::ast::BinOp;
                match op {
                    BinOp::And => {
                        let lv = self.tr_expr(l, out);
                        // The right operand only evaluates when the left is
                        // true — its facts must not leak onto the other
                        // path.
                        let mut rs = Vec::new();
                        self.tr_expr(r, &mut rs);
                        out.push(RStmt::If {
                            cond: lv,
                            then_s: Box::new(RStmt::Seq(rs)),
                            else_s: Box::new(RStmt::skip()),
                        });
                    }
                    BinOp::Or => {
                        let lv = self.tr_expr(l, out);
                        let mut rs = Vec::new();
                        self.tr_expr(r, &mut rs);
                        out.push(RStmt::If {
                            cond: lv,
                            then_s: Box::new(RStmt::skip()),
                            else_s: Box::new(RStmt::Seq(rs)),
                        });
                    }
                    _ => {
                        self.tr_expr(l, out);
                        self.tr_expr(r, out);
                    }
                }
                self.temp(VarType::Int)
            }
            HExpr::Un(_, inner) => {
                self.tr_expr(inner, out);
                self.temp(VarType::Int)
            }
            HExpr::Call { f, args, .. } => {
                let targs: Vec<VarId> = args.iter().map(|a| self.tr_expr(a, out)).collect();
                let ret = self.m.func(*f).ret;
                let dst = ret.map(|rt| self.temp(rc_var_type(rt, self.int_array)));
                out.push(RStmt::Call {
                    dst,
                    callee: Callee::User(rlang::FuncId(f.0)),
                    args: targs,
                });
                dst.unwrap_or_else(|| self.temp(VarType::Int))
            }
            HExpr::Ralloc { region, s, .. } => {
                let tr = self.tr_expr(region, out);
                let t = self.temp(VarType::Ptr(StructId(s.0)));
                out.push(RStmt::New { dst: t, ty: StructId(s.0), region: tr });
                t
            }
            HExpr::RallocStructArray { region, count, s, .. } => {
                let tr = self.tr_expr(region, out);
                self.tr_expr(count, out);
                let t = self.temp(VarType::Ptr(StructId(s.0)));
                out.push(RStmt::New { dst: t, ty: StructId(s.0), region: tr });
                t
            }
            HExpr::RallocIntArray { region, count, .. } => {
                let tr = self.tr_expr(region, out);
                self.tr_expr(count, out);
                let t = self.temp(VarType::Ptr(self.int_array));
                out.push(RStmt::New { dst: t, ty: self.int_array, region: tr });
                t
            }
            HExpr::NewRegion => {
                let t = self.temp(VarType::Region);
                out.push(RStmt::Call { dst: Some(t), callee: Callee::NewRegion, args: vec![] });
                t
            }
            HExpr::TraditionalRegion => {
                // region@R_T: a handle known to designate the traditional
                // region, which is what lets flex-style traditional stores
                // verify statically.
                let t = self.temp(VarType::Region);
                out.push(RStmt::Havoc { dst: t });
                out.push(RStmt::Assume {
                    facts: vec![Fact::NotTop(self.rho(t)), Fact::Eq(self.rho(t), Self::rt())],
                });
                t
            }
            HExpr::NewSubregion(r) => {
                let tr = self.tr_expr(r, out);
                let t = self.temp(VarType::Region);
                out.push(RStmt::Call {
                    dst: Some(t),
                    callee: Callee::NewSubRegion,
                    args: vec![tr],
                });
                t
            }
            HExpr::DeleteRegion(r, _) => {
                let tr = self.tr_expr(r, out);
                out.push(RStmt::Call { dst: None, callee: Callee::DeleteRegion, args: vec![tr] });
                self.temp(VarType::Int)
            }
            HExpr::RegionOf(x) => {
                let tx = self.tr_expr(x, out);
                let t = self.temp(VarType::Region);
                out.push(RStmt::Call { dst: Some(t), callee: Callee::RegionOf, args: vec![tx] });
                t
            }
            HExpr::Assert(e) => {
                self.tr_expr(e, out);
                self.temp(VarType::Int)
            }
        }
    }

    /// Suppress the unused-field warning: `n_params` documents the
    /// param/local split for debugging.
    #[allow(dead_code)]
    fn params(&self) -> usize {
        self.n_params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use rlang::SiteId;

    fn analyse_src(src: &str) -> rlang::Analysis {
        let m = compile(src).unwrap();
        analyse_module(&m)
    }

    /// Verdicts for every chk site in the program, ordered by site id.
    fn verdicts(src: &str) -> Vec<bool> {
        let a = analyse_src(src);
        let mut sites: Vec<(SiteId, bool)> = a.site_safe.iter().map(|(&s, &b)| (s, b)).collect();
        sites.sort();
        sites.into_iter().map(|(_, b)| b).collect()
    }

    #[test]
    fn figure1_fully_verified_end_to_end() {
        let src = r#"
            struct finfo { int sz; };
            struct rlist {
                struct rlist *sameregion next;
                struct finfo *sameregion data;
            };
            int main() deletes {
                struct rlist *rl;
                struct rlist *last = null;
                region r = newregion();
                int i;
                for (i = 0; i < 100; i = i + 1) {
                    rl = ralloc(r, struct rlist);
                    rl->data = ralloc(r, struct finfo);
                    rl->data->sz = i;
                    rl->next = last;
                    last = rl;
                }
                deleteregion(r);
                return 0;
            }
        "#;
        let v = verdicts(src);
        assert!(!v.is_empty());
        assert!(v.iter().all(|&b| b), "all sameregion checks eliminated: {v:?}");
    }

    #[test]
    fn regionof_alloc_idiom_verified() {
        let src = r#"
            struct rlist { struct rlist *sameregion next; };
            int main() {
                region r = newregion();
                struct rlist *x = ralloc(r, struct rlist);
                x->next = ralloc(regionof(x), struct rlist);
                return 0;
            }
        "#;
        assert_eq!(verdicts(src), vec![true]);
    }

    #[test]
    fn array_access_defeats_verification() {
        let src = r#"
            struct rlist { struct rlist *sameregion next; };
            struct rlist *objects[100];
            int main() {
                region r = newregion();
                struct rlist *x = ralloc(r, struct rlist);
                x->next = objects[23];
                return 0;
            }
        "#;
        assert_eq!(verdicts(src), vec![false]);
    }

    #[test]
    fn global_region_defeats_but_regionof_recovers() {
        // Allocating from a region stored in a global defeats inference;
        // using regionof on a local recovers it (the paper's workaround:
        // "we changed these programs to keep regions in local variables,
        // or used regionof to find the appropriate region").
        let defeated = r#"
            struct t { struct t *sameregion next; };
            region g;
            int main() {
                g = newregion();
                struct t *x = ralloc(g, struct t);
                struct t *y = ralloc(g, struct t);
                x->next = y;
                return 0;
            }
        "#;
        let v = verdicts(defeated);
        assert_eq!(v, vec![false], "global-held regions are untracked");

        let recovered = r#"
            struct t { struct t *sameregion next; };
            region g;
            int main() {
                g = newregion();
                struct t *x = ralloc(g, struct t);
                struct t *y = ralloc(regionof(x), struct t);
                x->next = y;
                return 0;
            }
        "#;
        assert_eq!(verdicts(recovered), vec![true]);
    }

    #[test]
    fn traditional_global_reads_verify_traditional_stores() {
        // The flex idiom: a traditional-qualified global buffer pointer is
        // read and stored into another traditional slot — no check needed.
        let src = r#"
            struct buf { int c; };
            struct buf *traditional current;
            struct holder { struct buf *traditional b; };
            int main() {
                region r = newregion();
                struct holder *h = ralloc(r, struct holder);
                h->b = current;
                return 0;
            }
        "#;
        assert_eq!(verdicts(src), vec![true]);
    }

    #[test]
    fn parentptr_subregion_idiom_verified() {
        let src = r#"
            struct req { struct req *parentptr parent; };
            int main() deletes {
                region r = newregion();
                region sub = newsubregion(r);
                struct req *top = ralloc(r, struct req);
                struct req *child = ralloc(sub, struct req);
                child->parent = top;
                deleteregion(sub);
                deleteregion(r);
                return 0;
            }
        "#;
        assert_eq!(verdicts(src), vec![true]);
    }

    #[test]
    fn null_stores_always_verify() {
        let src = r#"
            struct t { struct t *sameregion next; };
            int main() {
                region r = newregion();
                struct t *x = ralloc(r, struct t);
                x->next = null;
                return 0;
            }
        "#;
        assert_eq!(verdicts(src), vec![true]);
    }

    #[test]
    fn while_loop_null_test_refines() {
        // Walking a sameregion list and re-linking within it.
        let src = r#"
            struct t { struct t *sameregion next; };
            static void relink(struct t *head) {
                struct t *p = head;
                while (p != null) {
                    p->next = p->next;
                    p = p->next;
                }
            }
            int main() {
                region r = newregion();
                struct t *a = ralloc(r, struct t);
                a->next = ralloc(regionof(a), struct t);
                relink(a);
                return 0;
            }
        "#;
        let v = verdicts(src);
        assert!(v.iter().all(|&b| b), "sameregion list walking verifies: {v:?}");
    }

    #[test]
    fn interprocedural_constructor_verified_with_consistent_sites() {
        let src = r#"
            struct t { struct t *sameregion next; };
            static struct t *cons(region r, struct t *next) {
                struct t *n = ralloc(r, struct t);
                n->next = next;
                return n;
            }
            int main() {
                region r = newregion();
                struct t *list = null;
                int i;
                for (i = 0; i < 10; i = i + 1) {
                    list = cons(r, list);
                }
                return 0;
            }
        "#;
        let v = verdicts(src);
        assert!(v.iter().all(|&b| b), "consistent constructor sites verify: {v:?}");
    }

    #[test]
    fn short_circuit_facts_do_not_leak() {
        // `p && p->next` must not let the analysis believe p is non-null
        // on the else path.
        let src = r#"
            struct t { struct t *sameregion next; };
            int main() {
                region r = newregion();
                region r2 = newregion();
                struct t *p = ralloc(r, struct t);
                struct t *q = ralloc(r2, struct t);
                if (p != null && p->next != null) {
                    p = null;
                } else {
                    q->next = q;
                }
                p->next = q;
                return 0;
            }
        "#;
        let v = verdicts(src);
        // site order: q->next = q (true: same region), p->next = q (false:
        // different regions).
        assert_eq!(v, vec![true, false]);
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;
    use crate::compile;

    /// Every workload's translation is structurally well-formed and its
    /// inferred summaries survive the Figure 6 checking judgments — the
    /// machine-checked version of the soundness argument.
    #[test]
    fn translations_are_well_formed_and_validate() {
        let src = include_str!("../testdata/figure1.rc");
        let m = compile(src).unwrap();
        let p = translate(&m);
        rlang::well_formed(&p).unwrap();
        let a = rlang::analyse(&p);
        let violations = rlang::validate(&p, &a);
        assert!(violations.is_empty(), "{violations:?}");
    }
}

#[cfg(test)]
mod golden_tests {
    use super::*;
    use crate::compile;

    /// The translated Figure 1 program, pretty-printed in the paper's
    /// notation, contains the structures §4.3 prescribes. This locks the
    /// translation's shape against silent regressions.
    #[test]
    fn figure1_translation_golden() {
        let m = compile(include_str!("../testdata/figure1.rc")).unwrap();
        let p = translate(&m);
        let text = rlang::display::program_to_string(&p);

        // Struct types with the sameregion existential.
        assert!(text.contains("struct rlist[ρ]"), "{text}");
        assert!(
            text.contains("next: ∃ρ'/ρ'=⊤ ∨ ρ'=ρ. rlist[ρ']@ρ'"),
            "sameregion field type missing:\n{text}"
        );
        // newregion and the allocation form.
        assert!(text.contains("= newregion();"), "{text}");
        assert!(text.contains("= new rlist["), "{text}");
        // chk statements precede the annotated stores.
        let chk_pos = text.find("chk ").expect("chk present");
        let store_pos = text.find(".data = ").expect("store present");
        assert!(chk_pos < store_pos, "chk must precede the store:\n{text}");
        // deleteregion call survives translation.
        assert!(text.contains("deleteregion("), "{text}");
        // Return statement present.
        assert!(text.contains("return "), "{text}");
    }

    /// Global reads havoc; traditional globals get assumed facts.
    #[test]
    fn global_translation_golden() {
        let src = r#"
            struct t { int x; };
            struct t *untracked;
            struct t *traditional tbuf;
            int main() {
                struct t *a = untracked;
                struct t *b = tbuf;
                return 0;
            }
        "#;
        let m = compile(src).unwrap();
        let p = translate(&m);
        let text = rlang::display::program_to_string(&p);
        assert!(text.contains("⟨unknown⟩"), "global reads havoc:\n{text}");
        assert!(text.contains("assume"), "traditional global contributes facts:\n{text}");
        assert!(text.contains("R0"), "the traditional-region constant appears:\n{text}");
    }
}
