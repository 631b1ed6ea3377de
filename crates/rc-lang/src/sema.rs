//! Semantic analysis: name resolution, type checking, the `deletes` rule,
//! and HIR construction.
//!
//! Qualifier semantics are *dynamic* in RC — a `struct T *` value may be
//! stored into a `struct T *sameregion` slot, with a runtime check (or a
//! reference-count update) guarding the store — so assignment compatibility
//! here ignores qualifiers and checks only the pointed-to type, exactly as
//! in the paper ("RC has one basic kind of pointer that can hold both
//! region and traditional pointers").
//!
//! The `deletes` rule (§3.3.2): a function that calls `deleteregion`, or
//! calls a function qualified with `deletes`, must itself be qualified with
//! `deletes`. This is what lets the compiler know where to pin the regions
//! referenced by live locals without whole-program analysis.

use std::collections::HashMap;

use crate::ast::{self, Ast, BinOp, BlockItem, Expr, Stmt, TypeExpr, UnOp};
use crate::error::{CompileError, ErrorKind};
use crate::hir::*;

/// Checks an AST and produces the typed module.
///
/// # Errors
///
/// Returns the first semantic error (unknown names, type mismatches,
/// missing `deletes`, bad `main`, …).
pub fn check(ast: &Ast) -> Result<Module, CompileError> {
    let mut cx = Checker::new(ast)?;
    cx.run(ast)
}

/// The type of a value-producing expression (qualifiers erased).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VTy {
    Int,
    Region,
    Ptr(StructRef),
    IntPtr,
    Null,
    Void,
}

impl VTy {
    fn of(ty: RcType) -> VTy {
        match ty {
            RcType::Int => VTy::Int,
            RcType::Region => VTy::Region,
            RcType::Ptr { target, .. } => VTy::Ptr(target),
            RcType::IntPtr(_) => VTy::IntPtr,
        }
    }

    fn describe(self) -> String {
        match self {
            VTy::Int => "int".into(),
            VTy::Region => "region".into(),
            VTy::Ptr(s) => format!("struct#{} pointer", s.0),
            VTy::IntPtr => "int pointer".into(),
            VTy::Null => "null".into(),
            VTy::Void => "void".into(),
        }
    }
}

struct FuncSig {
    params: Vec<RcType>,
    ret: Option<RcType>,
    deletes: bool,
}

struct Checker {
    struct_ids: HashMap<String, StructRef>,
    structs: Vec<HStruct>,
    global_ids: HashMap<String, GlobalRef>,
    globals: Vec<HGlobal>,
    func_ids: HashMap<String, FuncRef>,
    sigs: Vec<FuncSig>,
    n_sites: u32,
    site_lines: Vec<u32>,
    /// Per function: whether its body touches a global directly (spawn
    /// bodies may only call functions that are transitively global-free,
    /// since a task runs against its own isolated heap).
    touches_globals: Vec<bool>,
    /// Per function: its direct callees (for the transitive closure).
    callees: Vec<Vec<FuncRef>>,
    /// Calls made from inside `spawn` bodies, validated after the
    /// `touches_globals` closure is known: `(callee, line)`.
    spawn_calls: Vec<(FuncRef, u32)>,
}

impl Checker {
    fn new(ast: &Ast) -> Result<Checker, CompileError> {
        let mut cx = Checker {
            struct_ids: HashMap::new(),
            structs: Vec::new(),
            global_ids: HashMap::new(),
            globals: Vec::new(),
            func_ids: HashMap::new(),
            sigs: Vec::new(),
            n_sites: 0,
            site_lines: Vec::new(),
            touches_globals: Vec::new(),
            callees: Vec::new(),
            spawn_calls: Vec::new(),
        };

        // Pass 1: struct names (so fields may reference later structs).
        for s in &ast.structs {
            if cx.struct_ids.insert(s.name.clone(), StructRef(cx.structs.len() as u32)).is_some() {
                return Err(err(s.line, format!("duplicate struct `{}`", s.name)));
            }
            cx.structs.push(HStruct { name: s.name.clone(), fields: Vec::new() });
        }
        // Pass 2: fields.
        for (i, s) in ast.structs.iter().enumerate() {
            let mut fields = Vec::new();
            for (ty, name) in &s.fields {
                if fields.iter().any(|f: &HField| f.name == *name) {
                    return Err(err(s.line, format!("duplicate field `{name}` in `{}`", s.name)));
                }
                fields.push(HField { name: name.clone(), ty: cx.resolve_type(ty, s.line)? });
            }
            cx.structs[i].fields = fields;
        }
        // Globals.
        for g in &ast.globals {
            if cx.global_ids.insert(g.name.clone(), GlobalRef(cx.globals.len() as u32)).is_some() {
                return Err(err(g.line, format!("duplicate global `{}`", g.name)));
            }
            cx.globals.push(HGlobal {
                name: g.name.clone(),
                ty: cx.resolve_type(&g.ty, g.line)?,
                array_len: g.array_len,
            });
        }
        // Function signatures.
        for f in &ast.funcs {
            if cx.func_ids.insert(f.name.clone(), FuncRef(cx.sigs.len() as u32)).is_some() {
                return Err(err(f.line, format!("duplicate function `{}`", f.name)));
            }
            let params = f
                .params
                .iter()
                .map(|(t, _)| cx.resolve_type(t, f.line))
                .collect::<Result<Vec<_>, _>>()?;
            let ret = f.ret.as_ref().map(|t| cx.resolve_type(t, f.line)).transpose()?;
            cx.sigs.push(FuncSig { params, ret, deletes: f.deletes });
        }
        cx.touches_globals = vec![false; cx.sigs.len()];
        cx.callees = vec![Vec::new(); cx.sigs.len()];
        Ok(cx)
    }

    fn resolve_type(&self, ty: &TypeExpr, line: u32) -> Result<RcType, CompileError> {
        Ok(match ty {
            TypeExpr::Int => RcType::Int,
            TypeExpr::Region => RcType::Region,
            TypeExpr::IntPtr(q) => RcType::IntPtr(*q),
            TypeExpr::StructPtr { name, qual } => {
                let target = *self
                    .struct_ids
                    .get(name)
                    .ok_or_else(|| err(line, format!("unknown struct `{name}`")))?;
                RcType::Ptr { target, qual: *qual }
            }
        })
    }

    fn run(&mut self, ast: &Ast) -> Result<Module, CompileError> {
        let mut funcs = Vec::new();
        for (i, f) in ast.funcs.iter().enumerate() {
            funcs.push(self.check_func(f, FuncRef(i as u32))?);
        }
        let main =
            *self.func_ids.get("main").ok_or_else(|| err(0, "program has no `main` function"))?;
        let msig = &self.sigs[main.0 as usize];
        if !msig.params.is_empty() || msig.ret != Some(RcType::Int) {
            return Err(err(
                ast.funcs[main.0 as usize].line,
                "`main` must be `int main()` with no parameters",
            ));
        }

        // Spawn-body purity: a task runs against its own isolated heap, so
        // any function it calls must be transitively global-free. Close
        // `touches_globals` over the call graph, then validate every call
        // recorded inside a spawn body.
        let mut tainted = std::mem::take(&mut self.touches_globals);
        loop {
            let mut changed = false;
            for (i, callees) in self.callees.iter().enumerate() {
                if !tainted[i] && callees.iter().any(|c| tainted[c.0 as usize]) {
                    tainted[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for &(f, line) in &self.spawn_calls {
            if tainted[f.0 as usize] {
                return Err(err(
                    line,
                    format!(
                        "function `{}` touches globals (possibly via callees) and cannot be called from a spawn body",
                        ast.funcs[f.0 as usize].name
                    ),
                ));
            }
        }
        let mut module = Module {
            structs: std::mem::take(&mut self.structs),
            globals: std::mem::take(&mut self.globals),
            funcs,
            main,
            n_sites: self.n_sites,
            site_lines: {
                let mut lines = std::mem::take(&mut self.site_lines);
                lines.resize(self.n_sites as usize, 0);
                lines
            },
            code: Default::default(),
        };
        module.code = crate::interp::Code::lower(&module);
        Ok(module)
    }

    fn check_func(&mut self, f: &ast::FuncDefAst, id: FuncRef) -> Result<HFunc, CompileError> {
        let mut fcx = FuncCx {
            cx: self,
            id,
            params: Vec::new(),
            locals: Vec::new(),
            scopes: vec![HashMap::new()],
            ret: None,
            calls_deletes: false,
            next_pin: 0,
            spawn_frames: Vec::new(),
        };
        for (ty, name) in &f.params {
            let rc = fcx.cx.resolve_type(ty, f.line)?;
            let v = VarRef(fcx.params.len() as u32);
            if fcx.scopes[0].insert(name.clone(), v).is_some() {
                return Err(err(f.line, format!("duplicate parameter `{name}`")));
            }
            fcx.params.push(HVar { name: name.clone(), ty: rc, array_len: None });
        }
        fcx.ret = f.ret.as_ref().map(|t| fcx.cx.resolve_type(t, f.line)).transpose()?;

        let body = fcx.check_block(&f.body)?;

        if fcx.calls_deletes && !f.deletes {
            return Err(err(
                f.line,
                format!("function `{}` may delete a region but is not declared `deletes`", f.name),
            ));
        }
        Ok(HFunc {
            name: f.name.clone(),
            deletes: f.deletes,
            exported: !f.is_static || f.name == "main",
            params: fcx.params,
            locals: fcx.locals,
            ret: fcx.ret,
            body,
        })
    }
}

fn err(line: u32, msg: impl Into<String>) -> CompileError {
    CompileError::new(ErrorKind::Sema, line, msg)
}

/// One enclosing `spawn` body during checking. Variables numbered below
/// `first_inner` were declared outside the body; the innermost frame
/// governs which of them may be referenced.
struct SpawnFrame {
    first_inner: u32,
    rvar: VarRef,
}

struct FuncCx<'a> {
    cx: &'a mut Checker,
    id: FuncRef,
    params: Vec<HVar>,
    locals: Vec<HVar>,
    scopes: Vec<HashMap<String, VarRef>>,
    ret: Option<RcType>,
    calls_deletes: bool,
    next_pin: u32,
    spawn_frames: Vec<SpawnFrame>,
}

impl FuncCx<'_> {
    fn in_spawn(&self) -> bool {
        !self.spawn_frames.is_empty()
    }

    /// Marks the current function as touching a global, for the spawn-body
    /// callee closure, and rejects the access if it happens inside a spawn
    /// body itself.
    fn note_global_use(&mut self, name: &str, line: u32) -> Result<(), CompileError> {
        self.cx.touches_globals[self.id.0 as usize] = true;
        if self.in_spawn() {
            return Err(err(line, format!("global `{name}` cannot be used inside a spawn body")));
        }
        Ok(())
    }

    /// Validates a reference to a local/param from inside a spawn body:
    /// variables declared outside the body are visible only if they are the
    /// spawned region variable or int-typed scalars (captured by value).
    fn check_spawn_capture(&self, v: VarRef, name: &str, line: u32) -> Result<(), CompileError> {
        let Some(frame) = self.spawn_frames.last() else {
            return Ok(());
        };
        if v.0 >= frame.first_inner || v == frame.rvar {
            return Ok(());
        }
        let hv = self.var(v);
        if hv.ty == RcType::Int && hv.array_len.is_none() {
            return Ok(());
        }
        Err(err(
            line,
            format!(
                "`{name}` cannot be captured by a spawn body (only the spawned region and int scalars may cross the task boundary)"
            ),
        ))
    }
    fn fresh_pin(&mut self) -> u32 {
        let p = self.next_pin;
        self.next_pin += 1;
        p
    }

    fn lookup_var(&self, name: &str) -> Option<VarRef> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn var(&self, v: VarRef) -> &HVar {
        let i = v.0 as usize;
        if i < self.params.len() {
            &self.params[i]
        } else {
            &self.locals[i - self.params.len()]
        }
    }

    fn declare(&mut self, d: &ast::VarDecl) -> Result<(VarRef, Option<HExpr>), CompileError> {
        let ty = self.cx.resolve_type(&d.ty, d.line)?;
        if d.array_len.is_some() && d.init.is_some() {
            return Err(err(d.line, "array locals cannot have initialisers"));
        }
        if d.array_len.is_some() && self.in_spawn() {
            return Err(err(d.line, "array locals cannot be declared inside a spawn body"));
        }
        let v = VarRef((self.params.len() + self.locals.len()) as u32);
        self.locals.push(HVar { name: d.name.clone(), ty, array_len: d.array_len });
        self.scopes.last_mut().expect("scope stack is never empty").insert(d.name.clone(), v);
        let init = match &d.init {
            None => None,
            Some(e) => {
                let val = self.check_against(e, ty, d.line)?;
                Some(HExpr::AssignLocal { v, val: Box::new(val) })
            }
        };
        Ok((v, init))
    }

    fn check_block(&mut self, items: &[BlockItem]) -> Result<Vec<HStmt>, CompileError> {
        self.scopes.push(HashMap::new());
        let mut out = Vec::new();
        for item in items {
            match item {
                BlockItem::Decl(d) => {
                    let (_, init) = self.declare(d)?;
                    if let Some(e) = init {
                        out.push(HStmt::Expr(e));
                    }
                }
                BlockItem::Stmt(s) => self.check_stmt(s, &mut out)?,
            }
        }
        self.scopes.pop();
        Ok(out)
    }

    fn check_stmt(&mut self, s: &Stmt, out: &mut Vec<HStmt>) -> Result<(), CompileError> {
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Expr(e) => {
                let (he, _) = self.check_expr(e)?;
                out.push(HStmt::Expr(he));
                Ok(())
            }
            Stmt::Block(items) => {
                let inner = self.check_block(items)?;
                out.extend(inner);
                Ok(())
            }
            Stmt::If(c, t, e) => {
                let cond = self.check_cond(c)?;
                let mut ts = Vec::new();
                self.check_stmt(t, &mut ts)?;
                let mut es = Vec::new();
                if let Some(e) = e {
                    self.check_stmt(e, &mut es)?;
                }
                out.push(HStmt::If(cond, ts, es));
                Ok(())
            }
            Stmt::While(c, b) => {
                let cond = self.check_cond(c)?;
                let mut body = Vec::new();
                self.check_stmt(b, &mut body)?;
                out.push(HStmt::While(cond, body));
                Ok(())
            }
            Stmt::For(init, cond, step, b) => {
                // Desugar: init; while (cond) { body; step; }
                if let Some(i) = init {
                    let (he, _) = self.check_expr(i)?;
                    out.push(HStmt::Expr(he));
                }
                let cond = match cond {
                    Some(c) => self.check_cond(c)?,
                    None => HExpr::Int(1),
                };
                let mut body = Vec::new();
                self.check_stmt(b, &mut body)?;
                if let Some(st) = step {
                    let (he, _) = self.check_expr(st)?;
                    body.push(HStmt::Expr(he));
                }
                out.push(HStmt::While(cond, body));
                Ok(())
            }
            Stmt::Spawn { region, body, line } => {
                let Some(rv) = self.lookup_var(region) else {
                    return Err(err(
                        *line,
                        if self.cx.global_ids.contains_key(region) {
                            format!("spawn region `{region}` must be a local or parameter, not a global")
                        } else {
                            format!("unknown variable `{region}`")
                        },
                    ));
                };
                self.check_spawn_capture(rv, region, *line)?;
                let hv = self.var(rv);
                if hv.ty != RcType::Region || hv.array_len.is_some() {
                    return Err(err(
                        *line,
                        format!("spawn needs a region variable, `{region}` is not one"),
                    ));
                }
                let first_inner = (self.params.len() + self.locals.len()) as u32;
                self.spawn_frames.push(SpawnFrame { first_inner, rvar: rv });
                let hbody = self.check_block(body);
                self.spawn_frames.pop();
                out.push(HStmt::Spawn { rvar: rv, body: hbody?, line: *line });
                Ok(())
            }
            Stmt::Join(_) => {
                out.push(HStmt::Join);
                Ok(())
            }
            Stmt::Return(e, line) => {
                if self.in_spawn() {
                    return Err(err(*line, "`return` cannot appear inside a spawn body"));
                }
                match (&self.ret, e) {
                    (None, None) => out.push(HStmt::Return(None)),
                    (None, Some(_)) => return Err(err(*line, "void function returning a value")),
                    (Some(_), None) => {
                        return Err(err(*line, "non-void function must return a value"))
                    }
                    (Some(rt), Some(e)) => {
                        let rt = *rt;
                        let he = self.check_against(e, rt, *line)?;
                        out.push(HStmt::Return(Some(he)));
                    }
                }
                Ok(())
            }
        }
    }

    /// A condition: any value type, truthiness = non-zero / non-null.
    fn check_cond(&mut self, e: &Expr) -> Result<HExpr, CompileError> {
        let (he, ty) = self.check_expr(e)?;
        if ty == VTy::Void {
            return Err(err(0, "void value used as a condition"));
        }
        Ok(he)
    }

    /// Checks `e` and coerces `null` to the expected type.
    fn check_against(&mut self, e: &Expr, want: RcType, line: u32) -> Result<HExpr, CompileError> {
        let (he, got) = self.check_expr(e)?;
        if got == VTy::Null {
            if want.is_addr() {
                return Ok(HExpr::Null(want));
            }
            return Err(err(line, "null assigned to an int"));
        }
        if VTy::of(want) != got {
            return Err(err(
                line,
                format!(
                    "type mismatch: expected {}, found {}",
                    VTy::of(want).describe(),
                    got.describe()
                ),
            ));
        }
        Ok(he)
    }

    fn check_expr(&mut self, e: &Expr) -> Result<(HExpr, VTy), CompileError> {
        match e {
            Expr::Int(n) => Ok((HExpr::Int(*n), VTy::Int)),
            Expr::Null => Ok((HExpr::Null(RcType::Int), VTy::Null)),
            Expr::Var(name, line) => {
                if let Some(v) = self.lookup_var(name) {
                    let hv = self.var(v);
                    if hv.array_len.is_some() {
                        return Err(err(*line, format!("array `{name}` used without an index")));
                    }
                    let ty = VTy::of(hv.ty);
                    self.check_spawn_capture(v, name, *line)?;
                    Ok((HExpr::ReadLocal(v), ty))
                } else if let Some(&g) = self.cx.global_ids.get(name) {
                    self.note_global_use(name, *line)?;
                    let hg = &self.cx.globals[g.0 as usize];
                    if hg.array_len.is_some() {
                        return Err(err(*line, format!("array `{name}` used without an index")));
                    }
                    Ok((HExpr::ReadGlobal(g), VTy::of(hg.ty)))
                } else {
                    Err(err(*line, format!("unknown variable `{name}`")))
                }
            }
            Expr::Assign { lhs, rhs, site, line } => self.check_assign(lhs, rhs, *site, *line),
            Expr::Un(op, inner) => {
                let (he, ty) = self.check_expr(inner)?;
                match op {
                    UnOp::Neg => {
                        if ty != VTy::Int {
                            return Err(err(0, "unary `-` needs an int"));
                        }
                    }
                    UnOp::Not => {
                        if ty == VTy::Void {
                            return Err(err(0, "`!` applied to void"));
                        }
                    }
                }
                Ok((HExpr::Un(*op, Box::new(he)), VTy::Int))
            }
            Expr::Bin(op, l, r) => {
                let (hl, tl) = self.check_expr(l)?;
                let (hr, tr) = self.check_expr(r)?;
                let ok = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        tl == VTy::Int && tr == VTy::Int
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        tl == VTy::Int && tr == VTy::Int
                    }
                    BinOp::Eq | BinOp::Ne => {
                        tl == tr
                            || (matches!(tl, VTy::Ptr(_) | VTy::IntPtr | VTy::Region)
                                && tr == VTy::Null)
                            || (matches!(tr, VTy::Ptr(_) | VTy::IntPtr | VTy::Region)
                                && tl == VTy::Null)
                    }
                    BinOp::And | BinOp::Or => tl != VTy::Void && tr != VTy::Void,
                };
                if !ok {
                    return Err(err(
                        0,
                        format!(
                            "operator {:?} cannot combine {} and {}",
                            op,
                            tl.describe(),
                            tr.describe()
                        ),
                    ));
                }
                Ok((HExpr::Bin(*op, Box::new(hl), Box::new(hr)), VTy::Int))
            }
            Expr::Field { obj, name, line } => {
                let (hobj, s, fi, fty) = self.check_field_access(obj, name, *line)?;
                Ok((HExpr::ReadField { obj: Box::new(hobj), s, field: fi }, VTy::of(fty)))
            }
            Expr::Index { arr, idx, line } => {
                let (hidx, it) = self.check_expr(idx)?;
                if it != VTy::Int {
                    return Err(err(*line, "array index must be an int"));
                }
                // Array variable?
                if let Expr::Var(name, _) = arr.as_ref() {
                    if let Some(base) = self.array_base(name) {
                        self.check_base_access(base, name, *line)?;
                        let elem = self.base_elem(base);
                        let he = HExpr::ReadArraySlot { base, idx: Box::new(hidx), elem };
                        return Ok((he, VTy::of(elem)));
                    }
                }
                let (harr, at) = self.check_expr(arr)?;
                match at {
                    VTy::Ptr(s) => Ok((
                        HExpr::PtrElem { ptr: Box::new(harr), idx: Box::new(hidx), s },
                        VTy::Ptr(s),
                    )),
                    VTy::IntPtr => Ok((
                        HExpr::ReadIntElem { ptr: Box::new(harr), idx: Box::new(hidx) },
                        VTy::Int,
                    )),
                    other => Err(err(*line, format!("cannot index a {}", other.describe()))),
                }
            }
            Expr::Call { name, args, line } => {
                let f = *self
                    .cx
                    .func_ids
                    .get(name)
                    .ok_or_else(|| err(*line, format!("unknown function `{name}`")))?;
                let (nparams, ret, deletes) = {
                    let sig = &self.cx.sigs[f.0 as usize];
                    (sig.params.len(), sig.ret, sig.deletes)
                };
                if args.len() != nparams {
                    return Err(err(
                        *line,
                        format!("`{name}` expects {nparams} argument(s), got {}", args.len()),
                    ));
                }
                let mut hargs = Vec::new();
                for (i, a) in args.iter().enumerate() {
                    let want = self.cx.sigs[f.0 as usize].params[i];
                    hargs.push(self.check_against(a, want, *line)?);
                }
                if deletes {
                    self.calls_deletes = true;
                }
                self.cx.callees[self.id.0 as usize].push(f);
                if self.in_spawn() {
                    self.cx.spawn_calls.push((f, *line));
                }
                let vty = match ret {
                    None => VTy::Void,
                    Some(t) => VTy::of(t),
                };
                let pin = self.fresh_pin();
                Ok((HExpr::Call { f, args: hargs, pin }, vty))
            }
            Expr::Ralloc { region, ty, line } => {
                let hr = self.expect_region(region, *line)?;
                match self.cx.resolve_type(ty, *line)? {
                    RcType::Ptr { target, .. } => Ok((
                        HExpr::Ralloc { region: Box::new(hr), s: target, line: *line },
                        VTy::Ptr(target),
                    )),
                    _ => Err(err(*line, "ralloc allocates struct types; use rarrayalloc for ints")),
                }
            }
            Expr::RarrayAlloc { region, count, ty, line } => {
                let hr = self.expect_region(region, *line)?;
                let (hc, ct) = self.check_expr(count)?;
                if ct != VTy::Int {
                    return Err(err(*line, "rarrayalloc count must be an int"));
                }
                match self.cx.resolve_type(ty, *line)? {
                    RcType::Ptr { target, .. } => Ok((
                        HExpr::RallocStructArray {
                            region: Box::new(hr),
                            count: Box::new(hc),
                            s: target,
                            line: *line,
                        },
                        VTy::Ptr(target),
                    )),
                    RcType::Int => Ok((
                        HExpr::RallocIntArray {
                            region: Box::new(hr),
                            count: Box::new(hc),
                            line: *line,
                        },
                        VTy::IntPtr,
                    )),
                    _ => Err(err(*line, "rarrayalloc element must be a struct or int")),
                }
            }
            Expr::NewRegion => Ok((HExpr::NewRegion, VTy::Region)),
            Expr::TraditionalRegion => Ok((HExpr::TraditionalRegion, VTy::Region)),
            Expr::NewSubregion(r) => {
                let hr = self.expect_region(r, 0)?;
                Ok((HExpr::NewSubregion(Box::new(hr)), VTy::Region))
            }
            Expr::DeleteRegion(r, line) => {
                let hr = self.expect_region(r, *line)?;
                self.calls_deletes = true;
                let pin = self.fresh_pin();
                // deleteregion evaluates to a status code (0 = deleted):
                // meaningful under the `Fail` semantics, ignorable
                // otherwise.
                Ok((HExpr::DeleteRegion(Box::new(hr), pin), VTy::Int))
            }
            Expr::RegionOf(x, line) => {
                let (hx, ty) = self.check_expr(x)?;
                if !matches!(ty, VTy::Ptr(_) | VTy::IntPtr) {
                    return Err(err(*line, "regionof needs a pointer"));
                }
                Ok((HExpr::RegionOf(Box::new(hx)), VTy::Region))
            }
            Expr::Assert(e, line) => {
                let (he, ty) = self.check_expr(e)?;
                if ty == VTy::Void {
                    return Err(err(*line, "assert needs a value"));
                }
                Ok((HExpr::Assert(Box::new(he)), VTy::Void))
            }
        }
    }

    fn expect_region(&mut self, e: &Expr, line: u32) -> Result<HExpr, CompileError> {
        let (he, ty) = self.check_expr(e)?;
        if ty != VTy::Region {
            return Err(err(line, format!("expected a region, found {}", ty.describe())));
        }
        Ok(he)
    }

    /// Spawn-body / global-taint bookkeeping for indexing into a named
    /// array (outer arrays never cross the task boundary).
    fn check_base_access(
        &mut self,
        base: ArrayBase,
        name: &str,
        line: u32,
    ) -> Result<(), CompileError> {
        match base {
            ArrayBase::Local(v) => self.check_spawn_capture(v, name, line),
            ArrayBase::Global(_) => self.note_global_use(name, line),
        }
    }

    fn array_base(&self, name: &str) -> Option<ArrayBase> {
        if let Some(v) = self.lookup_var(name) {
            if self.var(v).array_len.is_some() {
                return Some(ArrayBase::Local(v));
            }
            return None;
        }
        if let Some(&g) = self.cx.global_ids.get(name) {
            if self.cx.globals[g.0 as usize].array_len.is_some() {
                return Some(ArrayBase::Global(g));
            }
        }
        None
    }

    fn base_elem(&self, base: ArrayBase) -> RcType {
        match base {
            ArrayBase::Local(v) => self.var(v).ty,
            ArrayBase::Global(g) => self.cx.globals[g.0 as usize].ty,
        }
    }

    fn check_field_access(
        &mut self,
        obj: &Expr,
        name: &str,
        line: u32,
    ) -> Result<(HExpr, StructRef, u32, RcType), CompileError> {
        let (hobj, ty) = self.check_expr(obj)?;
        let VTy::Ptr(s) = ty else {
            return Err(err(line, format!("`->` applied to {}", ty.describe())));
        };
        let sd = &self.cx.structs[s.0 as usize];
        let fi = sd
            .fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| err(line, format!("struct `{}` has no field `{name}`", sd.name)))?;
        let fty = sd.fields[fi].ty;
        Ok((hobj, s, fi as u32, fty))
    }

    fn check_assign(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        site: SiteId,
        line: u32,
    ) -> Result<(HExpr, VTy), CompileError> {
        self.cx.n_sites = self.cx.n_sites.max(site.0 + 1);
        if self.cx.site_lines.len() <= site.0 as usize {
            self.cx.site_lines.resize(site.0 as usize + 1, 0);
        }
        self.cx.site_lines[site.0 as usize] = line;
        match lhs {
            Expr::Var(name, _) => {
                if let Some(v) = self.lookup_var(name) {
                    if self.var(v).array_len.is_some() {
                        return Err(err(line, format!("cannot assign whole array `{name}`")));
                    }
                    if let Some(frame) = self.spawn_frames.last() {
                        if v.0 < frame.first_inner {
                            return Err(err(
                                line,
                                format!(
                                    "`{name}` is captured by value and cannot be assigned inside a spawn body"
                                ),
                            ));
                        }
                    }
                    let ty = self.var(v).ty;
                    let val = self.check_against(rhs, ty, line)?;
                    Ok((HExpr::AssignLocal { v, val: Box::new(val) }, VTy::of(ty)))
                } else if let Some(&g) = self.cx.global_ids.get(name) {
                    self.note_global_use(name, line)?;
                    let hg = &self.cx.globals[g.0 as usize];
                    if hg.array_len.is_some() {
                        return Err(err(line, format!("cannot assign whole array `{name}`")));
                    }
                    let ty = hg.ty;
                    let val = self.check_against(rhs, ty, line)?;
                    Ok((HExpr::AssignGlobal { g, val: Box::new(val), site }, VTy::of(ty)))
                } else {
                    Err(err(line, format!("unknown variable `{name}`")))
                }
            }
            Expr::Field { obj, name, line: fline } => {
                let (hobj, s, fi, fty) = self.check_field_access(obj, name, *fline)?;
                let val = self.check_against(rhs, fty, line)?;
                Ok((
                    HExpr::AssignField {
                        obj: Box::new(hobj),
                        s,
                        field: fi,
                        val: Box::new(val),
                        site,
                    },
                    VTy::of(fty),
                ))
            }
            Expr::Index { arr, idx, line: iline } => {
                let (hidx, it) = self.check_expr(idx)?;
                if it != VTy::Int {
                    return Err(err(*iline, "array index must be an int"));
                }
                if let Expr::Var(name, _) = arr.as_ref() {
                    if let Some(base) = self.array_base(name) {
                        self.check_base_access(base, name, line)?;
                        let elem = self.base_elem(base);
                        let val = self.check_against(rhs, elem, line)?;
                        return Ok((
                            HExpr::AssignArraySlot {
                                base,
                                idx: Box::new(hidx),
                                val: Box::new(val),
                                elem,
                                site,
                            },
                            VTy::of(elem),
                        ));
                    }
                }
                let (harr, at) = self.check_expr(arr)?;
                match at {
                    VTy::IntPtr => {
                        let val = self.check_against(rhs, RcType::Int, line)?;
                        Ok((
                            HExpr::AssignIntElem {
                                ptr: Box::new(harr),
                                idx: Box::new(hidx),
                                val: Box::new(val),
                            },
                            VTy::Int,
                        ))
                    }
                    VTy::Ptr(_) => {
                        Err(err(line, "cannot assign a whole struct element; assign its fields"))
                    }
                    other => Err(err(line, format!("cannot index-assign a {}", other.describe()))),
                }
            }
            _ => Err(err(line, "left side of `=` is not assignable")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile(src: &str) -> Result<Module, CompileError> {
        check(&parse(src).unwrap())
    }

    const FIG1: &str = r#"
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
            last = null;
            rl = null;
            deleteregion(r);
            return 0;
        }
    "#;

    #[test]
    fn figure1_checks() {
        let m = compile(FIG1).unwrap();
        assert_eq!(m.structs.len(), 2);
        assert_eq!(m.funcs.len(), 1);
        assert!(m.funcs[0].deletes);
        assert_eq!(m.funcs[0].locals.len(), 4);
    }

    #[test]
    fn missing_deletes_is_an_error() {
        let e = compile("int main() { region r = newregion(); deleteregion(r); return 0; }");
        assert!(e.unwrap_err().msg.contains("deletes"));
    }

    #[test]
    fn deletes_is_transitive() {
        let src = r#"
            void helper() deletes { region r = newregion(); deleteregion(r); }
            int main() { helper(); return 0; }
        "#;
        assert!(compile(src).unwrap_err().msg.contains("deletes"));
    }

    #[test]
    fn unknown_names_are_errors() {
        assert!(compile("int main() { x = 1; return 0; }").is_err());
        assert!(compile("int main() { f(); return 0; }").is_err());
        assert!(compile("struct t { struct nope *p; }; int main() { return 0; }").is_err());
    }

    #[test]
    fn type_mismatches_are_errors() {
        let base = "struct t { int x; }; struct u { int y; };";
        // ptr of wrong struct
        assert!(compile(&format!(
            "{base} int main() {{ struct t *a; struct u *b; region r = newregion(); a = ralloc(r, struct u); b = b; return 0; }}"
        ))
        .is_err());
        // int = null
        assert!(compile("int main() { int x; x = null; return 0; }").is_err());
        // region = int
        assert!(compile("int main() { region r; r = 3; return 0; }").is_err());
    }

    #[test]
    fn main_signature_enforced() {
        assert!(compile("void main() { }").is_err());
        assert!(compile("int f() { return 0; }").is_err());
    }

    #[test]
    fn arrays_require_indexing() {
        let src = "struct t { int x; }; struct t *g[4]; int main() { g = null; return 0; }";
        assert!(compile(src).is_err());
        let src2 = "int main() { int a[4]; a[0] = 1; a[1] = a[0] + 1; return a[1]; }";
        assert!(compile(src2).is_ok());
    }

    #[test]
    fn qualifier_mixing_is_allowed_in_assignments() {
        // An unqualified pointer may be stored into a sameregion slot —
        // safety is dynamic.
        let src = r#"
            struct t { struct t *sameregion next; };
            int main() {
                region r = newregion();
                struct t *a = ralloc(r, struct t);
                struct t *b = ralloc(r, struct t);
                a->next = b;
                return 0;
            }
        "#;
        assert!(compile(src).is_ok());
    }

    #[test]
    fn ptr_element_indexing_types() {
        let src = r#"
            struct t { int x; };
            int main() {
                region r = newregion();
                struct t *arr = rarrayalloc(r, 10, struct t);
                int *nums = rarrayalloc(r, 10, int);
                arr[3]->x = 1;
                nums[4] = arr[3]->x;
                return nums[4];
            }
        "#;
        assert!(compile(src).is_ok(), "{:?}", compile(src));
    }

    #[test]
    fn exportedness() {
        let src = r#"
            static void helper() { }
            void pub() { }
            int main() { helper(); pub(); return 0; }
        "#;
        let m = compile(src).unwrap();
        assert!(!m.funcs[0].exported);
        assert!(m.funcs[1].exported);
        assert!(m.funcs[2].exported, "main is always exported");
    }

    #[test]
    fn spawn_checks_and_lowers() {
        let src = r#"
            struct t { int x; };
            int main() deletes {
                region r = newregion();
                int n = 8;
                spawn r {
                    struct t *p = ralloc(r, struct t);
                    p->x = n;
                    assert(p->x == n);
                    deleteregion(r);
                }
                join;
                return 0;
            }
        "#;
        let m = compile(src).unwrap();
        let body = &m.funcs[0].body;
        assert!(body.iter().any(|s| matches!(s, HStmt::Spawn { .. })), "spawn survives lowering");
        assert!(body.iter().any(|s| matches!(s, HStmt::Join)));
    }

    #[test]
    fn spawn_capture_restrictions() {
        // A pointer capture is the whole reason the shards can be isolated
        // — it must be rejected.
        let ptr_capture = r#"
            struct t { int x; };
            int main() {
                region r = newregion();
                struct t *p = ralloc(r, struct t);
                spawn r { p->x = 1; }
                join;
                return 0;
            }
        "#;
        let e = compile(ptr_capture).unwrap_err();
        assert!(e.msg.contains("captured"), "{}", e.msg);

        // A second region variable is just as bad.
        let region_capture = r#"
            int main() {
                region r = newregion();
                region q = newregion();
                spawn r { int *a = rarrayalloc(q, 4, int); a[0] = 1; }
                join;
                return 0;
            }
        "#;
        assert!(compile(region_capture).unwrap_err().msg.contains("captured"));

        // Assigning an int capture writes to a by-value copy: rejected.
        let int_write = r#"
            int main() {
                region r = newregion();
                int n = 0;
                spawn r { n = 1; }
                join;
                return 0;
            }
        "#;
        assert!(compile(int_write).unwrap_err().msg.contains("captured by value"));

        // Reading an int capture is fine.
        let int_read = r#"
            int main() {
                region r = newregion();
                int n = 3;
                spawn r { int *a = rarrayalloc(r, n, int); a[0] = n; }
                join;
                return 0;
            }
        "#;
        assert!(compile(int_read).is_ok(), "{:?}", compile(int_read));
    }

    #[test]
    fn spawn_body_structure_restrictions() {
        let with_return = r#"
            int main() {
                region r = newregion();
                spawn r { return 1; }
                return 0;
            }
        "#;
        assert!(compile(with_return).unwrap_err().msg.contains("return"));

        let with_global = r#"
            int counter;
            int main() {
                region r = newregion();
                spawn r { counter = 1; }
                return 0;
            }
        "#;
        assert!(compile(with_global).unwrap_err().msg.contains("global"));

        let with_array_decl = r#"
            int main() {
                region r = newregion();
                spawn r { int a[4]; a[0] = 1; }
                return 0;
            }
        "#;
        assert!(compile(with_array_decl).unwrap_err().msg.contains("array"));

        let non_region = r#"
            int main() {
                int r = 0;
                spawn r { int x = 1; }
                return 0;
            }
        "#;
        assert!(compile(non_region).unwrap_err().msg.contains("region variable"));
    }

    #[test]
    fn spawn_callees_must_be_transitively_global_free() {
        let tainted = r#"
            int counter;
            static void bump() { counter = counter + 1; }
            static void helper() { bump(); }
            int main() {
                region r = newregion();
                spawn r { helper(); }
                join;
                return 0;
            }
        "#;
        let e = compile(tainted).unwrap_err();
        assert!(e.msg.contains("globals"), "{}", e.msg);

        let clean = r#"
            struct t { int x; };
            static int fill(region q, int n) {
                struct t *p = ralloc(q, struct t);
                p->x = n;
                return p->x;
            }
            int main() {
                region r = newregion();
                spawn r { assert(fill(r, 4) == 4); }
                join;
                return 0;
            }
        "#;
        assert!(compile(clean).is_ok(), "{:?}", compile(clean));
    }

    #[test]
    fn nested_spawn_rejects_outer_region_reuse() {
        // The inner task may not re-spawn (or touch) a region owned by an
        // enclosing task's parent.
        let src = r#"
            int main() {
                region r = newregion();
                region q = newregion();
                spawn r {
                    spawn q { int x = 1; }
                }
                join;
                return 0;
            }
        "#;
        assert!(compile(src).unwrap_err().msg.contains("captured"));

        // But a region created inside the body can be spawned.
        let ok = r#"
            int main() deletes {
                region r = newregion();
                spawn r {
                    region q = newregion();
                    spawn q { int *a = rarrayalloc(q, 2, int); a[1] = 5; }
                    join;
                    deleteregion(q);
                }
                join;
                return 0;
            }
        "#;
        assert!(compile(ok).is_ok(), "{:?}", compile(ok));
    }

    #[test]
    fn globals_resolve() {
        let src = r#"
            struct t { int x; };
            struct t *current;
            region hold;
            int counter;
            int main() {
                region r = newregion();
                hold = r;
                current = ralloc(hold, struct t);
                counter = counter + 1;
                current->x = counter;
                return current->x;
            }
        "#;
        let m = compile(src).unwrap();
        assert_eq!(m.globals.len(), 3);
    }
}
