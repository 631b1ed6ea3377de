//! The typed high-level IR produced by semantic analysis.
//!
//! All names are resolved to indices, every expression is typed, `for`
//! loops are desugared to `while`, and declarations with initialisers have
//! become assignments. Both back ends — the rlang translator
//! ([`crate::to_rlang`]) and the interpreter ([`crate::interp`]) — consume
//! this form, which is what keeps the statically-analysed program and the
//! executed program in sync: they share [`SiteId`]s minted by the parser.

use crate::ast::Qual;
pub use rlang::SiteId;

/// Index of a struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructRef(pub u32);

/// Index of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncRef(pub u32);

/// Index of a global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalRef(pub u32);

/// Index of a variable within a function (parameters first, then locals —
/// the same numbering the rlang translation uses for its abstract
/// regions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarRef(pub u32);

/// A resolved RC type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcType {
    /// `int`
    Int,
    /// `region`
    Region,
    /// `struct T *qual`
    Ptr {
        /// Target struct.
        target: StructRef,
        /// Pointer qualifier.
        qual: Qual,
    },
    /// `int *qual` (pointer to an int array)
    IntPtr(Qual),
}

impl RcType {
    /// The qualifier if this is a pointer type.
    pub fn qual(self) -> Option<Qual> {
        match self {
            RcType::Ptr { qual, .. } => Some(qual),
            RcType::IntPtr(q) => Some(q),
            _ => None,
        }
    }

    /// Whether values of this type are heap pointers (structs or int
    /// arrays) — the things reference counting is about.
    pub fn is_heap_ptr(self) -> bool {
        matches!(self, RcType::Ptr { .. } | RcType::IntPtr(_))
    }

    /// Whether values carry an address at all (pointers or region
    /// handles).
    pub fn is_addr(self) -> bool {
        self.is_heap_ptr() || matches!(self, RcType::Region)
    }
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct HStruct {
    /// Name.
    pub name: String,
    /// Fields in order (one word each).
    pub fields: Vec<HField>,
}

/// A struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct HField {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: RcType,
}

/// A global variable (scalar or array).
#[derive(Debug, Clone, PartialEq)]
pub struct HGlobal {
    /// Name.
    pub name: String,
    /// Element type (the scalar's type when not an array).
    pub ty: RcType,
    /// `Some(n)` for arrays.
    pub array_len: Option<u32>,
}

/// A variable (parameter or local).
#[derive(Debug, Clone, PartialEq)]
pub struct HVar {
    /// Name.
    pub name: String,
    /// Element type.
    pub ty: RcType,
    /// `Some(n)` for local arrays (storage in the traditional region for
    /// the call's duration, like a C stack array).
    pub array_len: Option<u32>,
}

/// A function.
#[derive(Debug, Clone, PartialEq)]
pub struct HFunc {
    /// Name.
    pub name: String,
    /// Declared `deletes`.
    pub deletes: bool,
    /// Visible outside the file (non-`static`, or `main`).
    pub exported: bool,
    /// Parameters.
    pub params: Vec<HVar>,
    /// Locals (declaration order, flattened across blocks).
    pub locals: Vec<HVar>,
    /// Return type (None = void).
    pub ret: Option<RcType>,
    /// Body.
    pub body: Vec<HStmt>,
}

impl HFunc {
    /// Looks up a variable.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn var(&self, v: VarRef) -> &HVar {
        let i = v.0 as usize;
        if i < self.params.len() {
            &self.params[i]
        } else {
            &self.locals[i - self.params.len()]
        }
    }

    /// Total variable count.
    pub fn var_count(&self) -> usize {
        self.params.len() + self.locals.len()
    }
}

/// The base storage of an indexable array variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayBase {
    /// A local array (`T x[N];`).
    Local(VarRef),
    /// A global array (`T g[N];`).
    Global(GlobalRef),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum HStmt {
    /// Expression statement.
    Expr(HExpr),
    /// `if`.
    If(HExpr, Vec<HStmt>, Vec<HStmt>),
    /// `while`.
    While(HExpr, Vec<HStmt>),
    /// `return`.
    Return(Option<HExpr>),
    /// `spawn r { ... }`: run the body as a task with exclusive ownership
    /// of `rvar`'s region subtree. Sema guarantees the body touches only
    /// that subtree, int-typed captures (copied by value), and
    /// spawn-safe callees — see [`crate::sema`].
    Spawn {
        /// The region variable handed to the task.
        rvar: VarRef,
        /// The task body.
        body: Vec<HStmt>,
        /// Source line, for telemetry attribution.
        line: u32,
    },
    /// `join;`: block until every task spawned so far by this function
    /// activation has finished, reclaiming their regions.
    Join,
}

/// A typed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum HExpr {
    /// Integer literal.
    Int(i64),
    /// `null`, typed by context.
    Null(RcType),
    /// Read a scalar variable.
    ReadLocal(VarRef),
    /// Read a scalar global.
    ReadGlobal(GlobalRef),
    /// `x = e` for a local.
    AssignLocal {
        /// Variable.
        v: VarRef,
        /// Value.
        val: Box<HExpr>,
    },
    /// `g = e` for a scalar global — a heap store into the traditional
    /// region's globals block.
    AssignGlobal {
        /// Global.
        g: GlobalRef,
        /// Value.
        val: Box<HExpr>,
        /// Shared program point.
        site: SiteId,
    },
    /// `obj->field` read.
    ReadField {
        /// Object.
        obj: Box<HExpr>,
        /// Struct.
        s: StructRef,
        /// Field index.
        field: u32,
    },
    /// `obj->field = e`.
    AssignField {
        /// Object.
        obj: Box<HExpr>,
        /// Struct.
        s: StructRef,
        /// Field index.
        field: u32,
        /// Value.
        val: Box<HExpr>,
        /// Shared program point.
        site: SiteId,
    },
    /// `arr[i]` where `arr` is a declared array variable: reads the slot.
    ReadArraySlot {
        /// The array.
        base: ArrayBase,
        /// Index.
        idx: Box<HExpr>,
        /// Element type.
        elem: RcType,
    },
    /// `arr[i] = e` for a declared array variable.
    AssignArraySlot {
        /// The array.
        base: ArrayBase,
        /// Index.
        idx: Box<HExpr>,
        /// Value.
        val: Box<HExpr>,
        /// Element type.
        elem: RcType,
        /// Shared program point.
        site: SiteId,
    },
    /// `p[i]` where `p: struct T*` — the address of the i-th element of a
    /// `rarrayalloc`'d struct array (pointer arithmetic; region-preserving).
    PtrElem {
        /// Array base pointer.
        ptr: Box<HExpr>,
        /// Index.
        idx: Box<HExpr>,
        /// Element struct.
        s: StructRef,
    },
    /// `p[i]` read where `p: int*`.
    ReadIntElem {
        /// Array base pointer.
        ptr: Box<HExpr>,
        /// Index.
        idx: Box<HExpr>,
    },
    /// `p[i] = e` where `p: int*`.
    AssignIntElem {
        /// Array base pointer.
        ptr: Box<HExpr>,
        /// Index.
        idx: Box<HExpr>,
        /// Value.
        val: Box<HExpr>,
    },
    /// Binary operation (`&&`/`||` short-circuit).
    Bin(crate::ast::BinOp, Box<HExpr>, Box<HExpr>),
    /// Unary operation.
    Un(crate::ast::UnOp, Box<HExpr>),
    /// Call to a user function.
    Call {
        /// Callee.
        f: FuncRef,
        /// Arguments.
        args: Vec<HExpr>,
        /// Pin-site index (per function) for the `deletes` local-pinning
        /// protocol; see [`crate::liveness`].
        pin: u32,
    },
    /// `ralloc(r, struct T)`.
    Ralloc {
        /// Region handle.
        region: Box<HExpr>,
        /// Struct.
        s: StructRef,
        /// Source line, for telemetry attribution.
        line: u32,
    },
    /// `rarrayalloc(r, n, struct T)`.
    RallocStructArray {
        /// Region handle.
        region: Box<HExpr>,
        /// Element count.
        count: Box<HExpr>,
        /// Struct.
        s: StructRef,
        /// Source line, for telemetry attribution.
        line: u32,
    },
    /// `rarrayalloc(r, n, int)`.
    RallocIntArray {
        /// Region handle.
        region: Box<HExpr>,
        /// Element count.
        count: Box<HExpr>,
        /// Source line, for telemetry attribution.
        line: u32,
    },
    /// `newregion()`.
    NewRegion,
    /// `traditionalregion()`.
    TraditionalRegion,
    /// `newsubregion(r)`.
    NewSubregion(Box<HExpr>),
    /// `deleteregion(r)` (void). Carries a pin-site index like calls —
    /// `deleteregion` is itself a `deletes` operation.
    DeleteRegion(Box<HExpr>, u32),
    /// `regionof(x)`.
    RegionOf(Box<HExpr>),
    /// `assert(e)` (void; aborts when false).
    Assert(Box<HExpr>),
}

/// A whole checked module.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Structs.
    pub structs: Vec<HStruct>,
    /// Globals.
    pub globals: Vec<HGlobal>,
    /// Functions.
    pub funcs: Vec<HFunc>,
    /// Entry point.
    pub main: FuncRef,
    /// Total number of assignment sites minted by the parser.
    pub n_sites: u32,
    /// Source line of each assignment site (indexed by
    /// [`rlang::SiteId`]), for telemetry attribution; 0 = unknown.
    pub site_lines: Vec<u32>,
    /// Every body lowered for the interpreter, built once the module
    /// checks.
    pub code: crate::interp::Code,
}

impl Module {
    /// Looks up a struct.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn struct_def(&self, s: StructRef) -> &HStruct {
        &self.structs[s.0 as usize]
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn func(&self, f: FuncRef) -> &HFunc {
        &self.funcs[f.0 as usize]
    }

    /// Looks up a global.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn global(&self, g: GlobalRef) -> &HGlobal {
        &self.globals[g.0 as usize]
    }
}
