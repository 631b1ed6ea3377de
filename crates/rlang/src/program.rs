//! rlang programs (paper Figure 5).
//!
//! rlang is "a simple imperative language with regions": functions with
//! parameters, local variables and a result variable; statements are
//! assignments, field reads/writes, object creation, runtime checks `chk δ`
//! and the usual sequencing/if/while. The language exists to be the target
//! of the RC translation (§4.3): analysing the translated program lets the
//! compiler eliminate provably-redundant runtime checks.
//!
//! The representation here bakes in the translation's invariants: every
//! variable `x` has its own abstract region ρₓ (its [`RhoId`] equals its
//! [`VarId`]), every struct has exactly one region parameter (the region it
//! is stored in), and `chk` facts are expressed directly over variable
//! regions.

use crate::types::{Fact, RhoId, StructDecl, StructId, VarType};

/// Identifier of a variable within a function (parameters first, then
/// locals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The abstract region owned by this variable (ρₓ).
    pub fn rho(self) -> RhoId {
        RhoId(self.0)
    }
}

/// Identifier of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifier of a check/assignment site, shared with the RC front end so
/// that elimination verdicts can be applied to the lowered code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// What a call statement invokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callee {
    /// A user-defined function.
    User(FuncId),
    /// `newregion()`: fresh top-level region.
    NewRegion,
    /// `newsubregion(r)`: fresh subregion of the argument.
    NewSubRegion,
    /// `deleteregion(r)`.
    DeleteRegion,
    /// `regionof(x)`: the region of the argument's target.
    RegionOf,
}

/// An rlang statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Sequential composition.
    Seq(Vec<Stmt>),
    /// `if x s1 s2` — "assume null is false and everything else is true":
    /// a region-carrying condition refines both branches.
    If {
        /// Condition variable.
        cond: VarId,
        /// Taken when `cond` is non-null / non-zero.
        then_s: Box<Stmt>,
        /// Taken when `cond` is null / zero.
        else_s: Box<Stmt>,
    },
    /// `while x s`.
    While {
        /// Condition variable.
        cond: VarId,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `x0 = x1` (the destination is never used elsewhere in the
    /// statement, per the translation).
    Assign {
        /// Destination.
        dst: VarId,
        /// Source.
        src: VarId,
    },
    /// `x0 = null`.
    AssignNull {
        /// Destination.
        dst: VarId,
    },
    /// `x0 = x1.field` — also establishes that `x1` is non-null.
    ReadField {
        /// Destination.
        dst: VarId,
        /// Dereferenced object.
        obj: VarId,
        /// Field index in the struct declaration.
        field: usize,
    },
    /// `x1.field = x2` — also establishes that `x1` is non-null. In
    /// translated RC code every annotated field write is preceded by the
    /// matching [`Stmt::Chk`].
    WriteField {
        /// Dereferenced object.
        obj: VarId,
        /// Field index.
        field: usize,
        /// Stored value.
        src: VarId,
    },
    /// `x0 = new T(...)@x'` — `ralloc`: a fresh object of `ty` in the
    /// region designated by the handle `region` (fields start null).
    New {
        /// Destination.
        dst: VarId,
        /// Struct allocated.
        ty: StructId,
        /// Region-handle variable.
        region: VarId,
    },
    /// `x0 = f(...)` or a predefined-function call.
    Call {
        /// Destination (None for calls used as statements).
        dst: Option<VarId>,
        /// What is invoked.
        callee: Callee,
        /// Argument variables.
        args: Vec<VarId>,
    },
    /// `chk δ`: a runtime check; execution aborts if `fact` does not hold.
    /// Check elimination asks whether the flow state already entails
    /// `fact`.
    Chk {
        /// The checked property (over variable regions).
        fact: Fact,
        /// Site shared with the RC lowering.
        site: SiteId,
    },
    /// The destination receives a value about whose region nothing is
    /// known (array-element reads, unmodelled library calls). This is what
    /// makes the `objects[23]` idiom of §5.2 unverifiable.
    Havoc {
        /// Destination.
        dst: VarId,
    },
    /// Facts known to hold by construction (e.g. a read of a
    /// `traditional`-qualified global is null or in the traditional
    /// region). Unlike [`Stmt::Chk`] this is not a runtime check — it
    /// encodes knowledge the translation has about unmodelled storage.
    Assume {
        /// The assumed facts.
        facts: Vec<Fact>,
    },
    /// `return x` / `return`: assigns the function's result variable (if
    /// any), contributes the current state to the function's output
    /// summary, and makes the fall-through unreachable.
    Return {
        /// Returned variable (None for void).
        src: Option<VarId>,
    },
    /// `task r s` — the lowering of RC's `spawn r { ... }`: `s` runs in
    /// another heap shard that receives exclusive ownership of `region`'s
    /// subtree (see the `region-rt` shard module). The front end
    /// guarantees `s` touches only that subtree and task-local state, so
    /// from the parent's perspective the statement has no dataflow
    /// effects; the body is analysed in isolation for its own checks.
    Task {
        /// The region handle whose subtree moves to the task.
        region: VarId,
        /// The task body.
        body: Box<Stmt>,
    },
}

impl Stmt {
    /// An empty statement.
    pub fn skip() -> Stmt {
        Stmt::Seq(Vec::new())
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Name (diagnostics).
    pub name: String,
    /// Whether the function is visible outside the analysed file; exported
    /// functions (and those called via function pointers) "have empty
    /// input, output and result constraint sets".
    pub exported: bool,
    /// Parameter types (variables `0..params.len()`).
    pub params: Vec<VarType>,
    /// Local variable types (variables `params.len()..`).
    pub locals: Vec<VarType>,
    /// The variable holding the result (always a local, never a
    /// parameter), or `None` for void functions.
    pub result: Option<VarId>,
    /// The body.
    pub body: Stmt,
}

impl FuncDef {
    /// Total number of variables.
    pub fn var_count(&self) -> usize {
        self.params.len() + self.locals.len()
    }

    /// The type of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var_type(&self, v: VarId) -> VarType {
        let i = v.0 as usize;
        if i < self.params.len() {
            self.params[i]
        } else {
            self.locals[i - self.params.len()]
        }
    }

    /// Whether `v` carries a region of interest.
    pub fn var_has_region(&self, v: VarId) -> bool {
        self.var_type(v).has_region()
    }

    /// Region-carrying parameter variables — the function's abstract
    /// region parameters in the summaries.
    pub fn region_params(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.params.len() as u32).map(VarId).filter(|&v| self.var_has_region(v))
    }

    /// The user functions the body calls, ascending and without repeats,
    /// counting calls inside `if`, `while` and `task` bodies.
    pub(crate) fn callees(&self) -> Vec<FuncId> {
        let mut out = Vec::new();
        collect_callees(&self.body, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }
}

fn collect_callees(s: &Stmt, out: &mut Vec<FuncId>) {
    match s {
        Stmt::Seq(ss) => ss.iter().for_each(|s| collect_callees(s, out)),
        Stmt::If { then_s, else_s, .. } => {
            collect_callees(then_s, out);
            collect_callees(else_s, out);
        }
        Stmt::While { body, .. } | Stmt::Task { body, .. } => collect_callees(body, out),
        Stmt::Call { callee: Callee::User(g), .. } => out.push(*g),
        _ => {}
    }
}

/// A whole rlang program (one "source file" for the analysis, which "is
/// restricted ... to a single source file").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Struct declarations.
    pub structs: Vec<StructDecl>,
    /// Function definitions.
    pub funcs: Vec<FuncDef>,
    /// Names of region constants (index 0 is the traditional region).
    pub consts: Vec<String>,
}

impl Program {
    /// An empty program with the traditional-region constant predefined.
    pub fn new() -> Program {
        Program { structs: Vec::new(), funcs: Vec::new(), consts: vec!["R_T".to_string()] }
    }

    /// Adds a struct and returns its id.
    pub fn add_struct(&mut self, decl: StructDecl) -> StructId {
        let id = StructId(self.structs.len() as u32);
        self.structs.push(decl);
        id
    }

    /// Adds a function and returns its id.
    pub fn add_func(&mut self, def: FuncDef) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(def);
        id
    }

    /// Looks up a struct.
    ///
    /// # Panics
    ///
    /// Panics for a foreign id.
    pub fn struct_decl(&self, id: StructId) -> &StructDecl {
        &self.structs[id.0 as usize]
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics for a foreign id.
    pub fn func(&self, id: FuncId) -> &FuncDef {
        &self.funcs[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegionExpr;

    #[test]
    fn var_types_split_params_and_locals() {
        let f = FuncDef {
            name: "f".into(),
            exported: false,
            params: vec![VarType::Ptr(StructId(0)), VarType::Int],
            locals: vec![VarType::Region],
            result: Some(VarId(2)),
            body: Stmt::skip(),
        };
        assert_eq!(f.var_count(), 3);
        assert_eq!(f.var_type(VarId(0)), VarType::Ptr(StructId(0)));
        assert_eq!(f.var_type(VarId(1)), VarType::Int);
        assert_eq!(f.var_type(VarId(2)), VarType::Region);
        assert_eq!(f.region_params().collect::<Vec<_>>(), vec![VarId(0)]);
    }

    #[test]
    fn program_collects_callees() {
        let mut p = Program::new();
        let call = |callee| Stmt::Call { dst: None, callee, args: vec![] };
        let user = |g| call(Callee::User(FuncId(g)));
        let body = Stmt::Seq(vec![
            user(2),
            Stmt::Chk { fact: Fact::NotTop(RegionExpr::Abstract(RhoId(1))), site: SiteId(4) },
            Stmt::If {
                cond: VarId(0),
                then_s: Box::new(call(Callee::NewRegion)),
                else_s: Box::new(user(3)),
            },
            Stmt::While { cond: VarId(0), body: Box::new(user(2)) },
            Stmt::Task { region: VarId(1), body: Box::new(user(0)) },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![VarType::Int, VarType::Region],
            result: None,
            body,
        });
        assert_eq!(p.funcs[0].callees(), vec![FuncId(0), FuncId(2), FuncId(3)]);
        assert_eq!(p.consts[0], "R_T");
    }
}
