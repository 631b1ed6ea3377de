//! Grammar-directed generation of well-typed RC programs.
//!
//! The generator builds surface [`Ast`]s directly (no string templates)
//! and is *correct by construction*: every program it emits in clean mode
//! compiles, runs to a normal exit under every allocator configuration,
//! never fails an annotation check, and tears its regions down in an
//! order that satisfies both the reference-count and the subregion
//! deletion rules. That discipline is what lets the differential oracle
//! demand *strict* agreement across configurations.
//!
//! Grammar coverage: regions, subregions, the traditional region, all
//! three pointer qualifiers plus unannotated (counted) pointers, global
//! variables, `deletes` functions, local and region int arrays
//! (`rarrayalloc`), bounded `for`/`while` loops, `if` with null guards,
//! straight and recursive calls, `regionof`, `assert`, and (unless
//! [`GenConfig::spawn`] is off) `spawn`/`join` tasks.
//!
//! ## The invariants behind "clean"
//!
//! - **sameregion** stores only use a source allocated in the object's
//!   region (or null). **parentptr** sources live in an ancestor-or-self
//!   region along the generated `newsubregion` chain. **traditional**
//!   sources live in the traditional region.
//! - Unannotated (counted) cross-region stores `obj.plain = val` are only
//!   emitted when the object's region is deleted *before* the value's
//!   (regions are deleted in LIFO creation order, and `deleteregion`
//!   unscans outgoing references), when the value lives in the
//!   traditional region (never deleted), or when the store is `null`.
//! - Global pointer stores are reference-counted against the globals
//!   block, so the teardown nulls every pointer global before the first
//!   `deleteregion`.
//! - Loops are bounded by literal counters, recursion by a decreasing
//!   depth argument, and all arithmetic in the dialect is total
//!   (wrapping; division by zero yields zero), so every program
//!   terminates with a deterministic exit code.
//! - **spawn** bodies are disjoint by construction: each task gets a
//!   dedicated region (`s0`, `s1`, …) created just before its `spawn`
//!   and never touched by any other statement arm (node and `rarray`
//!   allocation only ever target the pre-spawn regions), captures only
//!   that region handle plus read-only int scalars, builds and checks a
//!   private list entirely inside its own shard, and the single `join`
//!   lands before the region teardown — so the spawned regions delete
//!   LIFO with everything else.
//!
//! With [`GenConfig::violations`] set, the generator *additionally*
//! plants qualifier-violating stores (for example a cross-region
//! `sameregion` store) whose victim region order still tears down
//! cleanly. These programs abort under `qs` by design; they exist to
//! exercise the inference-soundness oracle and the shrinker, not the
//! five-way differential gate.

use rc_lang::ast::*;

use crate::rng::Rng;

/// Generation knobs. A program is a pure function of `(seed, GenConfig)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenConfig {
    /// Scale knob: roughly proportional to statement count.
    pub size: u32,
    /// Plant qualifier-violating stores (mutation/shrinker mode; such
    /// programs abort under `qs` by design).
    pub violations: bool,
    /// Allow `spawn`/`join` task sections (on by default; a coin flip
    /// per program decides whether one is actually emitted).
    pub spawn: bool,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { size: 6, violations: false, spawn: true }
    }
}

/// Generates one well-typed program.
pub fn generate(seed: u64, cfg: &GenConfig) -> Ast {
    Gen::new(seed, cfg).program()
}

/// Generates one program and renders it to RC source. The bytes are a
/// pure function of `(seed, cfg)` — the replay-determinism oracle holds
/// the harness to exactly that.
pub fn generate_source(seed: u64, cfg: &GenConfig) -> String {
    let mut out = format!(
        "// rc-fuzz seed={} size={}{}\n",
        seed,
        cfg.size,
        if cfg.violations { " violations=1" } else { "" }
    );
    out.push_str(&rc_lang::pretty::print_ast(&generate(seed, cfg)));
    out
}

/// Counts block items (declarations and statements, including nested
/// ones) across all functions — the size metric the shrinker minimises.
pub fn statement_count(ast: &Ast) -> usize {
    fn stmt(s: &Stmt) -> usize {
        match s {
            Stmt::Block(items) | Stmt::Spawn { body: items, .. } => {
                items.iter().map(item).sum::<usize>()
            }
            Stmt::If(_, t, e) => stmt(t) + e.as_deref().map_or(0, stmt),
            Stmt::While(_, b) | Stmt::For(_, _, _, b) => stmt(b),
            _ => 0,
        }
    }
    fn item(i: &BlockItem) -> usize {
        1 + match i {
            BlockItem::Decl(_) => 0,
            BlockItem::Stmt(s) => stmt(s),
        }
    }
    ast.funcs.iter().flat_map(|f| f.body.iter()).map(item).sum()
}

/// Where a pointer value provably lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reg {
    /// The traditional region.
    Trad,
    /// Generated region `regions[i]`.
    R(usize),
}

#[derive(Debug)]
struct RegionInfo {
    name: String,
    parent: Option<usize>,
}

#[derive(Debug)]
struct NodeVar {
    name: String,
    region: Reg,
    /// May hold null (chain variables); never used as an unguarded store
    /// object.
    nullable: bool,
}

struct Gen<'a> {
    rng: Rng,
    cfg: &'a GenConfig,
    regions: Vec<RegionInfo>,
    nodes: Vec<NodeVar>,
    /// Mutable int locals usable as assignment targets.
    int_vars: Vec<String>,
    /// Local int arrays `(name, len)`.
    arrays: Vec<(String, i64)>,
    /// Region int arrays from `rarrayalloc` `(name, len)`.
    rarrays: Vec<(String, i64)>,
    /// Loop counters (used only by the loop arms).
    counters: Vec<String>,
    has_globals: bool,
    global_node_stored: bool,
    use_helper: bool,
    use_recur: bool,
    use_mk: bool,
    use_spawn: bool,
    called_helper: bool,
    called_recur: bool,
    called_mk: bool,
    /// Index of the chain variable (region-pinned, nullable) when mk is in
    /// play.
    chain: Option<usize>,
}

// ---- small AST builders ------------------------------------------------

fn var(n: &str) -> Expr {
    Expr::Var(n.to_string(), 0)
}

fn int(n: i64) -> Expr {
    Expr::Int(n)
}

fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr::Bin(op, Box::new(l), Box::new(r))
}

fn assign(lhs: Expr, rhs: Expr) -> Expr {
    Expr::Assign { lhs: Box::new(lhs), rhs: Box::new(rhs), site: SiteId(0), line: 0 }
}

fn field(obj: Expr, name: &str) -> Expr {
    Expr::Field { obj: Box::new(obj), name: name.to_string(), line: 0 }
}

fn index(arr: Expr, idx: Expr) -> Expr {
    Expr::Index { arr: Box::new(arr), idx: Box::new(idx), line: 0 }
}

fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::Call { name: name.to_string(), args, line: 0 }
}

fn estmt(e: Expr) -> BlockItem {
    BlockItem::Stmt(Stmt::Expr(e))
}

fn node_ptr(qual: Qual) -> TypeExpr {
    TypeExpr::StructPtr { name: "node".to_string(), qual }
}

fn decl(ty: TypeExpr, name: &str, init: Option<Expr>) -> BlockItem {
    BlockItem::Decl(VarDecl { ty, name: name.to_string(), array_len: None, init, line: 0 })
}

fn ralloc_node(region: Expr) -> Expr {
    Expr::Ralloc { region: Box::new(region), ty: node_ptr(Qual::None), line: 0 }
}

impl<'a> Gen<'a> {
    fn new(seed: u64, cfg: &'a GenConfig) -> Gen<'a> {
        Gen {
            rng: Rng::new(seed),
            cfg,
            regions: Vec::new(),
            nodes: Vec::new(),
            int_vars: Vec::new(),
            arrays: Vec::new(),
            rarrays: Vec::new(),
            counters: Vec::new(),
            has_globals: false,
            global_node_stored: false,
            use_helper: false,
            use_recur: false,
            use_mk: false,
            use_spawn: false,
            called_helper: false,
            called_recur: false,
            called_mk: false,
            chain: None,
        }
    }

    fn program(mut self) -> Ast {
        self.has_globals = self.rng.chance(60);
        self.use_helper = self.rng.chance(70);
        self.use_recur = self.rng.chance(55);
        self.use_mk = self.rng.chance(70);
        self.use_spawn = self.cfg.spawn && self.rng.chance(50);

        let main = self.gen_main();

        let mut funcs = Vec::new();
        if self.called_helper {
            let f = self.with_only_globals(|g| g.gen_helper());
            funcs.push(f);
        }
        if self.called_recur {
            let f = self.with_only_globals(|g| g.gen_recur());
            funcs.push(f);
        }
        if self.called_mk {
            funcs.push(self.gen_mk());
        }
        funcs.push(main);

        let mut globals = Vec::new();
        if self.has_globals {
            globals.push(GlobalDef {
                ty: TypeExpr::Int,
                name: "gcount".to_string(),
                array_len: None,
                line: 0,
            });
            globals.push(GlobalDef {
                ty: TypeExpr::Int,
                name: "gslots".to_string(),
                array_len: Some(4),
                line: 0,
            });
            globals.push(GlobalDef {
                ty: node_ptr(Qual::None),
                name: "gnode".to_string(),
                array_len: None,
                line: 0,
            });
        }

        Ast { structs: vec![self.node_struct()], globals, funcs }
    }

    fn node_struct(&self) -> StructDef {
        StructDef {
            name: "node".to_string(),
            fields: vec![
                (TypeExpr::Int, "v".to_string()),
                (node_ptr(Qual::SameRegion), "next".to_string()),
                (node_ptr(Qual::ParentPtr), "up".to_string()),
                (node_ptr(Qual::Traditional), "tr".to_string()),
                (node_ptr(Qual::None), "plain".to_string()),
            ],
            line: 0,
        }
    }

    // ---- region topology ----------------------------------------------

    /// Whether generated region `a` is an ancestor of (or equal to) `b`.
    fn ancestor_or_self(&self, a: usize, b: usize) -> bool {
        let mut cur = Some(b);
        while let Some(i) = cur {
            if i == a {
                return true;
            }
            cur = self.regions[i].parent;
        }
        false
    }

    /// Whether a *counted* store of a pointer to `val` into an object in
    /// `obj` leaves the teardown deletable: regions are deleted in LIFO
    /// creation order, and deleting a region unscans (releases) its
    /// outgoing references, so a reference is safe when the referring
    /// region dies no later than the referent.
    fn counted_ref_ok(&self, obj: Reg, val: Reg) -> bool {
        match (obj, val) {
            (_, Reg::Trad) => true,           // the traditional region never dies
            (Reg::Trad, Reg::R(_)) => false,  // would pin the referent forever
            (Reg::R(i), Reg::R(j)) => i >= j, // i created later → deleted first
        }
    }

    fn region_expr(&self, r: Reg) -> Expr {
        match r {
            Reg::Trad => var("tr"),
            Reg::R(i) => var(&self.regions[i].name),
        }
    }

    // ---- int expressions ----------------------------------------------

    /// One leaf of an int expression. `extra` contributes in-scope atoms
    /// such as loop counters or function parameters.
    fn int_atom(&mut self, extra: &[Expr]) -> Expr {
        let mut arms: Vec<u32> = vec![0, 0]; // literals twice: keep them common
        if !extra.is_empty() {
            arms.push(1);
            arms.push(1);
        }
        let readable: Vec<usize> =
            (0..self.nodes.len()).filter(|&i| !self.nodes[i].nullable).collect();
        if !readable.is_empty() {
            arms.push(2);
        }
        if !self.arrays.is_empty() {
            arms.push(3);
        }
        if self.has_globals {
            arms.push(4);
        }
        match *self.rng.pick(&arms) {
            1 => self.rng.pick(extra).clone(),
            2 => {
                let i = *self.rng.pick(&readable);
                field(var(&self.nodes[i].name.clone()), "v")
            }
            3 => {
                let (name, len) = self.rng.pick(&self.arrays).clone();
                index(var(&name), int(self.rng.range(0, len - 1)))
            }
            4 => {
                if self.rng.chance(50) {
                    var("gcount")
                } else {
                    index(var("gslots"), int(self.rng.range(0, 3)))
                }
            }
            _ => {
                // Negative literals print as `(-n)` and reparse as unary
                // minus, so emit that shape directly to keep the
                // parse→pretty→parse round trip structural.
                let v = self.rng.range(-9, 9);
                if v < 0 {
                    Expr::Un(UnOp::Neg, Box::new(int(-v)))
                } else {
                    int(v)
                }
            }
        }
    }

    /// A small arithmetic/logical expression. All operators in the
    /// dialect are total (wrapping arithmetic, zero for division by
    /// zero), so no value constraints are needed.
    fn int_expr(&mut self, depth: u32, extra: &[Expr]) -> Expr {
        if depth == 0 || self.rng.chance(35) {
            return self.int_atom(extra);
        }
        let ops = [
            BinOp::Add,
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::Lt,
            BinOp::Eq,
            BinOp::And,
            BinOp::Or,
        ];
        let op = *self.rng.pick(&ops);
        let l = self.int_expr(depth - 1, extra);
        let r = self.int_expr(depth - 1, extra);
        if self.rng.chance(10) {
            Expr::Un(
                if self.rng.chance(50) { UnOp::Neg } else { UnOp::Not },
                Box::new(bin(op, l, r)),
            )
        } else {
            bin(op, l, r)
        }
    }

    // ---- functions -----------------------------------------------------

    /// Hides `main`'s locals while generating a standalone function body
    /// (globals stay visible — they really are in scope everywhere).
    fn with_only_globals<T>(&mut self, f: impl FnOnce(&mut Gen<'a>) -> T) -> T {
        let nodes = std::mem::take(&mut self.nodes);
        let arrays = std::mem::take(&mut self.arrays);
        let rarrays = std::mem::take(&mut self.rarrays);
        let out = f(self);
        self.nodes = nodes;
        self.arrays = arrays;
        self.rarrays = rarrays;
        out
    }

    fn gen_helper(&mut self) -> FuncDefAst {
        let extra = [var("a"), var("b")];
        let mut body = Vec::new();
        if self.rng.chance(50) {
            let e = self.int_expr(2, &extra);
            body.push(decl(TypeExpr::Int, "t", Some(e)));
            let cond = bin(BinOp::Gt, var("t"), self.int_atom(&extra));
            let ret_t = Stmt::Return(Some(var("t")), 0);
            let e2 = self.int_expr(1, &[var("a"), var("b"), var("t")]);
            body.push(BlockItem::Stmt(Stmt::If(
                cond,
                Box::new(Stmt::Block(vec![BlockItem::Stmt(ret_t)])),
                None,
            )));
            body.push(BlockItem::Stmt(Stmt::Return(Some(e2), 0)));
        } else {
            let e = self.int_expr(2, &extra);
            body.push(BlockItem::Stmt(Stmt::Return(Some(e), 0)));
        }
        FuncDefAst {
            name: "helper".to_string(),
            is_static: true,
            deletes: false,
            ret: Some(TypeExpr::Int),
            params: vec![(TypeExpr::Int, "a".to_string()), (TypeExpr::Int, "b".to_string())],
            body,
            line: 0,
        }
    }

    fn gen_recur(&mut self) -> FuncDefAst {
        let base = int(self.rng.range(0, 5));
        let step = self.int_expr(1, &[var("n")]);
        let body = vec![
            BlockItem::Stmt(Stmt::If(
                bin(BinOp::Le, var("n"), int(0)),
                Box::new(Stmt::Block(vec![BlockItem::Stmt(Stmt::Return(Some(base), 0))])),
                None,
            )),
            BlockItem::Stmt(Stmt::Return(
                Some(bin(BinOp::Add, step, call("recur", vec![bin(BinOp::Sub, var("n"), int(1))]))),
                0,
            )),
        ];
        FuncDefAst {
            name: "recur".to_string(),
            is_static: true,
            deletes: false,
            ret: Some(TypeExpr::Int),
            params: vec![(TypeExpr::Int, "n".to_string())],
            body,
            line: 0,
        }
    }

    /// The Figure 1 constructor idiom: allocate in the region argument,
    /// link via the `sameregion` field. Call sites always pass `prev`
    /// allocated in `r` (or null), so the store is clean — and, when the
    /// call sites are consistent, the §5 interprocedural inference can
    /// eliminate its check.
    fn gen_mk(&mut self) -> FuncDefAst {
        let mut body = vec![
            decl(node_ptr(Qual::None), "n", Some(ralloc_node(var("r")))),
            estmt(assign(field(var("n"), "v"), var("val"))),
            estmt(assign(field(var("n"), "next"), var("prev"))),
        ];
        if self.rng.chance(40) {
            // prev is in r (or null): an internal counted store, also
            // clean.
            body.push(estmt(assign(field(var("n"), "plain"), var("prev"))));
        }
        body.push(BlockItem::Stmt(Stmt::Return(Some(var("n")), 0)));
        FuncDefAst {
            name: "mk".to_string(),
            is_static: true,
            deletes: false,
            ret: Some(node_ptr(Qual::None)),
            params: vec![
                (TypeExpr::Region, "r".to_string()),
                (node_ptr(Qual::None), "prev".to_string()),
                (TypeExpr::Int, "val".to_string()),
            ],
            body,
            line: 0,
        }
    }

    // ---- main ----------------------------------------------------------

    fn gen_main(&mut self) -> FuncDefAst {
        let size = self.cfg.size.max(1);
        let mut body = Vec::new();
        body.push(decl(TypeExpr::Int, "acc", Some(int(0))));

        // Regions: a root plus a mix of siblings and subregions.
        let n_regions = 1 + self.rng.below(3.min(1 + size as u64 / 3)) as usize;
        for i in 0..n_regions {
            let name = format!("r{i}");
            let (parent, init) = if i > 0 && self.rng.chance(55) {
                let p = self.rng.below(i as u64) as usize;
                (Some(p), Expr::NewSubregion(Box::new(var(&self.regions[p].name))))
            } else {
                (None, Expr::NewRegion)
            };
            body.push(decl(TypeExpr::Region, &name, Some(init)));
            self.regions.push(RegionInfo { name, parent });
        }

        // Spawned tasks: each gets a fresh region whose subtree it owns
        // exclusively until the single `join`. The task regions are
        // *appended* after the `n_regions` ordinary ones, and every other
        // arm draws regions via `below(n_regions)`, so nothing outside
        // the spawn body ever touches them; the LIFO teardown deletes
        // them first, which is legal once the join has merged the shards
        // back. Bodies capture only the task's region handle and the
        // read-only int `spv`, and assert their own list internally —
        // shards are separate heaps, so the parent cannot inspect
        // child-built data after the join.
        if self.use_spawn {
            let spv = self.rng.range(1, 7);
            body.push(decl(TypeExpr::Int, "spv", Some(int(spv))));
            let tasks = 1 + self.rng.below(2) as usize;
            for t in 0..tasks {
                let rname = format!("s{t}");
                body.push(decl(TypeExpr::Region, &rname, Some(Expr::NewRegion)));
                self.regions.push(RegionInfo { name: rname.clone(), parent: None });
                let bound = self.rng.range(2, 6);
                let loop_body = vec![
                    decl(node_ptr(Qual::None), "m", Some(ralloc_node(var(&rname)))),
                    estmt(assign(field(var("m"), "v"), bin(BinOp::Add, var("q"), var("spv")))),
                    estmt(assign(field(var("m"), "next"), var("h"))),
                    estmt(assign(var("h"), var("m"))),
                    estmt(assign(var("w"), bin(BinOp::Add, var("w"), field(var("m"), "v")))),
                ];
                let sbody = vec![
                    decl(node_ptr(Qual::None), "h", Some(Expr::Null)),
                    decl(TypeExpr::Int, "w", Some(int(0))),
                    decl(TypeExpr::Int, "q", None),
                    BlockItem::Stmt(Stmt::For(
                        Some(assign(var("q"), int(0))),
                        Some(bin(BinOp::Lt, var("q"), int(bound))),
                        Some(assign(var("q"), bin(BinOp::Add, var("q"), int(1)))),
                        Box::new(Stmt::Block(loop_body)),
                    )),
                    BlockItem::Stmt(Stmt::If(
                        bin(BinOp::Ne, var("h"), Expr::Null),
                        Box::new(Stmt::Block(vec![estmt(Expr::Assert(
                            Box::new(bin(BinOp::Eq, field(var("h"), "v"), int(bound - 1 + spv))),
                            0,
                        ))])),
                        None,
                    )),
                ];
                body.push(BlockItem::Stmt(Stmt::Spawn { region: rname, body: sbody, line: 0 }));
            }
            body.push(BlockItem::Stmt(Stmt::Join(0)));
        }

        // The traditional-region handle and a node inside it.
        let use_trad = self.rng.chance(55);
        if use_trad {
            body.push(decl(TypeExpr::Region, "tr", Some(Expr::TraditionalRegion)));
            body.push(decl(node_ptr(Qual::None), "t0", Some(ralloc_node(var("tr")))));
            self.nodes.push(NodeVar { name: "t0".to_string(), region: Reg::Trad, nullable: false });
        }

        // Node allocations, some via `regionof` of an earlier node.
        let n_nodes = 2 + self.rng.below(2 + size as u64 / 2) as usize;
        for i in 0..n_nodes {
            let name = format!("n{i}");
            let (region, rexpr) = if !self.nodes.is_empty() && self.rng.chance(25) {
                let b = self.rng.pick_idx(&self.nodes);
                let nb = &self.nodes[b];
                (nb.region, Expr::RegionOf(Box::new(var(&nb.name)), 0))
            } else {
                let r = self.rng.below(n_regions as u64) as usize;
                (Reg::R(r), var(&self.regions[r].name))
            };
            body.push(decl(node_ptr(Qual::None), &name, Some(ralloc_node(rexpr))));
            self.nodes.push(NodeVar { name, region, nullable: false });
            if self.rng.chance(20) {
                let n = self.nodes.last().expect("just pushed").name.clone();
                body.push(estmt(Expr::Assert(Box::new(bin(BinOp::Ne, var(&n), Expr::Null)), 0)));
            }
        }

        // Int locals, arrays, loop counters.
        let n_ints = 1 + self.rng.below(1 + size as u64 / 3) as usize;
        for i in 0..n_ints {
            let name = format!("k{i}");
            let e = self.int_expr(1, &[]);
            body.push(decl(TypeExpr::Int, &name, Some(e)));
            self.int_vars.push(name);
        }
        if self.rng.chance(60) {
            let len = self.rng.range(2, 6);
            body.push(BlockItem::Decl(VarDecl {
                ty: TypeExpr::Int,
                name: "xs".to_string(),
                array_len: Some(len as u32),
                init: None,
                line: 0,
            }));
            self.arrays.push(("xs".to_string(), len));
        }
        if self.rng.chance(50) {
            let len = self.rng.range(3, 8);
            let r = self.rng.below(n_regions as u64) as usize;
            let rexpr = var(&self.regions[r].name);
            body.push(decl(
                TypeExpr::IntPtr(Qual::None),
                "d0",
                Some(Expr::RarrayAlloc {
                    region: Box::new(rexpr),
                    count: Box::new(int(len)),
                    ty: TypeExpr::Int,
                    line: 0,
                }),
            ));
            self.rarrays.push(("d0".to_string(), len));
        }
        for c in 0..2 {
            let name = format!("i{c}");
            body.push(decl(TypeExpr::Int, &name, None));
            self.counters.push(name);
        }

        // A region-pinned chain variable for the mk idiom.
        if self.use_mk {
            let r = self.rng.below(n_regions as u64) as usize;
            body.push(decl(node_ptr(Qual::None), "chain", Some(Expr::Null)));
            self.nodes.push(NodeVar {
                name: "chain".to_string(),
                region: Reg::R(r),
                nullable: true,
            });
            self.chain = Some(self.nodes.len() - 1);
        }

        // The statement soup.
        let n_stmts = 4 + (size as u64 * 3 + self.rng.below(1 + size as u64)) as usize;
        for _ in 0..n_stmts {
            let s = self.gen_stmt(0);
            body.push(s);
        }

        // Teardown: release counted globals, then delete regions LIFO.
        if self.global_node_stored {
            body.push(estmt(assign(var("gnode"), Expr::Null)));
        }
        for i in (0..self.regions.len()).rev() {
            let name = self.regions[i].name.clone();
            body.push(estmt(Expr::DeleteRegion(Box::new(var(&name)), 0)));
        }
        body.push(BlockItem::Stmt(Stmt::Return(Some(var("acc")), 0)));

        FuncDefAst {
            name: "main".to_string(),
            is_static: false,
            deletes: true,
            ret: Some(TypeExpr::Int),
            params: Vec::new(),
            body,
            line: 0,
        }
    }

    // ---- statements ----------------------------------------------------

    /// Indices of non-nullable node variables (safe unguarded store
    /// objects).
    fn solid_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| !self.nodes[i].nullable).collect()
    }

    fn gen_stmt(&mut self, depth: u32) -> BlockItem {
        #[derive(Clone, Copy, PartialEq)]
        enum Arm {
            Acc,
            IntVar,
            FieldInt,
            SameRegion,
            ParentPtr,
            Traditional,
            Plain,
            GuardedNext,
            ArrayWrite,
            RarrayWrite,
            ForLoop,
            WhileLoop,
            Helper,
            Recur,
            ChainGrow,
            GlobalInt,
            GlobalNode,
            Violation,
        }
        let solid = self.solid_nodes();
        let mut arms = vec![Arm::Acc, Arm::Acc];
        if !self.int_vars.is_empty() {
            arms.push(Arm::IntVar);
        }
        if !solid.is_empty() {
            arms.extend([
                Arm::FieldInt,
                Arm::FieldInt,
                Arm::SameRegion,
                Arm::SameRegion,
                Arm::ParentPtr,
                Arm::Plain,
                Arm::GuardedNext,
            ]);
            if self.nodes.iter().any(|n| n.region == Reg::Trad) {
                arms.push(Arm::Traditional);
            }
        }
        if !self.arrays.is_empty() {
            arms.push(Arm::ArrayWrite);
        }
        if !self.rarrays.is_empty() {
            arms.push(Arm::RarrayWrite);
        }
        if depth == 0 {
            arms.extend([Arm::ForLoop, Arm::WhileLoop]);
        }
        if self.use_helper {
            arms.push(Arm::Helper);
        }
        if self.use_recur {
            arms.push(Arm::Recur);
        }
        if self.use_mk && self.chain.is_some() {
            arms.extend([Arm::ChainGrow, Arm::ChainGrow]);
        }
        if self.has_globals {
            arms.push(Arm::GlobalInt);
            if !solid.is_empty() {
                arms.push(Arm::GlobalNode);
            }
        }
        if self.cfg.violations && solid.len() >= 2 {
            // Heavily weighted: violation programs exist to make checks
            // fire.
            arms.extend([Arm::Violation; 6]);
        }

        match *self.rng.pick(&arms) {
            Arm::Acc => {
                let e = self.int_expr(2, &[]);
                estmt(assign(var("acc"), bin(BinOp::Add, var("acc"), e)))
            }
            Arm::IntVar => {
                let name = self.rng.pick(&self.int_vars).clone();
                let e = self.int_expr(2, &[]);
                estmt(assign(var(&name), e))
            }
            Arm::FieldInt => {
                let i = *self.rng.pick(&solid);
                let name = self.nodes[i].name.clone();
                let e = self.int_expr(1, &[]);
                estmt(assign(field(var(&name), "v"), e))
            }
            Arm::SameRegion => {
                let i = *self.rng.pick(&solid);
                let obj = self.nodes[i].name.clone();
                let region = self.nodes[i].region;
                let mut sources: Vec<Expr> = vec![Expr::Null, var(&obj)];
                for n in &self.nodes {
                    if n.region == region {
                        sources.push(var(&n.name));
                    }
                }
                let src = self.rng.pick(&sources).clone();
                estmt(assign(field(var(&obj), "next"), src))
            }
            Arm::ParentPtr => {
                let i = *self.rng.pick(&solid);
                let obj = self.nodes[i].name.clone();
                let mut sources: Vec<Expr> = vec![Expr::Null, var(&obj)];
                if let Reg::R(ri) = self.nodes[i].region {
                    for n in &self.nodes {
                        if let Reg::R(rj) = n.region {
                            if self.ancestor_or_self(rj, ri) {
                                sources.push(var(&n.name));
                            }
                        }
                    }
                }
                let src = self.rng.pick(&sources).clone();
                estmt(assign(field(var(&obj), "up"), src))
            }
            Arm::Traditional => {
                let i = *self.rng.pick(&solid);
                let obj = self.nodes[i].name.clone();
                let mut sources: Vec<Expr> = vec![Expr::Null];
                for n in &self.nodes {
                    if n.region == Reg::Trad {
                        sources.push(var(&n.name));
                    }
                }
                let src = self.rng.pick(&sources).clone();
                estmt(assign(field(var(&obj), "tr"), src))
            }
            Arm::Plain => {
                let i = *self.rng.pick(&solid);
                let obj = self.nodes[i].name.clone();
                let oreg = self.nodes[i].region;
                let mut sources: Vec<Expr> = vec![Expr::Null];
                for n in &self.nodes {
                    if !n.nullable && self.counted_ref_ok(oreg, n.region) {
                        sources.push(var(&n.name));
                    }
                }
                let src = self.rng.pick(&sources).clone();
                estmt(assign(field(var(&obj), "plain"), src))
            }
            Arm::GuardedNext => {
                let i = *self.rng.pick(&solid);
                let obj = self.nodes[i].name.clone();
                let read = field(var(&obj), "next");
                let cond = bin(BinOp::Ne, read.clone(), Expr::Null);
                let use_stmt = if self.rng.chance(60) {
                    estmt(assign(var("acc"), bin(BinOp::Add, var("acc"), field(read.clone(), "v"))))
                } else {
                    // The §5.2 heap-read idiom: re-store what was read.
                    estmt(assign(field(var(&obj), "next"), read.clone()))
                };
                BlockItem::Stmt(Stmt::If(cond, Box::new(Stmt::Block(vec![use_stmt])), None))
            }
            Arm::ArrayWrite => {
                let (name, len) = self.rng.pick(&self.arrays).clone();
                let idx = self.rng.range(0, len - 1);
                let e = self.int_expr(1, &[]);
                estmt(assign(index(var(&name), int(idx)), e))
            }
            Arm::RarrayWrite => {
                let (name, len) = self.rng.pick(&self.rarrays).clone();
                let idx = self.rng.range(0, len - 1);
                let e = self.int_expr(1, &[]);
                estmt(assign(index(var(&name), int(idx)), e))
            }
            Arm::ForLoop => {
                let c = self.rng.pick(&self.counters).clone();
                let bound = self.rng.range(2, 8);
                let n_body = 1 + self.rng.below(3) as usize;
                let mut items = Vec::new();
                for _ in 0..n_body {
                    items.push(self.gen_loop_body_stmt(&c));
                }
                BlockItem::Stmt(Stmt::For(
                    Some(assign(var(&c), int(0))),
                    Some(bin(BinOp::Lt, var(&c), int(bound))),
                    Some(assign(var(&c), bin(BinOp::Add, var(&c), int(1)))),
                    Box::new(Stmt::Block(items)),
                ))
            }
            Arm::WhileLoop => {
                let c = self.rng.pick(&self.counters).clone();
                let start = self.rng.range(2, 6);
                let inner = self.gen_loop_body_stmt(&c);
                BlockItem::Stmt(Stmt::Block(vec![
                    estmt(assign(var(&c), int(start))),
                    BlockItem::Stmt(Stmt::While(
                        bin(BinOp::Gt, var(&c), int(0)),
                        Box::new(Stmt::Block(vec![
                            estmt(assign(var(&c), bin(BinOp::Sub, var(&c), int(1)))),
                            inner,
                        ])),
                    )),
                ]))
            }
            Arm::Helper => {
                self.called_helper = true;
                let a = self.int_expr(1, &[]);
                let b = self.int_expr(1, &[]);
                estmt(assign(var("acc"), bin(BinOp::Add, var("acc"), call("helper", vec![a, b]))))
            }
            Arm::Recur => {
                self.called_recur = true;
                let depth_arg = int(self.rng.range(0, 7));
                estmt(assign(
                    var("acc"),
                    bin(BinOp::Add, var("acc"), call("recur", vec![depth_arg])),
                ))
            }
            Arm::ChainGrow => {
                self.called_mk = true;
                let ci = self.chain.expect("chain arm gated on chain");
                let (cname, rexpr) = {
                    let c = &self.nodes[ci];
                    (c.name.clone(), self.region_expr(c.region))
                };
                if self.rng.chance(50) && depth == 0 {
                    // Figure 1: grow the chain in a bounded loop.
                    let c = self.rng.pick(&self.counters).clone();
                    let bound = self.rng.range(2, 8);
                    let grow =
                        estmt(assign(var(&cname), call("mk", vec![rexpr, var(&cname), var(&c)])));
                    let read = BlockItem::Stmt(Stmt::If(
                        bin(BinOp::Ne, var(&cname), Expr::Null),
                        Box::new(Stmt::Block(vec![estmt(assign(
                            var("acc"),
                            bin(BinOp::Add, var("acc"), field(var(&cname), "v")),
                        ))])),
                        None,
                    ));
                    BlockItem::Stmt(Stmt::Block(vec![
                        BlockItem::Stmt(Stmt::For(
                            Some(assign(var(&c), int(0))),
                            Some(bin(BinOp::Lt, var(&c), int(bound))),
                            Some(assign(var(&c), bin(BinOp::Add, var(&c), int(1)))),
                            Box::new(Stmt::Block(vec![grow])),
                        )),
                        read,
                    ]))
                } else {
                    let v = self.int_expr(1, &[]);
                    estmt(assign(var(&cname), call("mk", vec![rexpr, var(&cname), v])))
                }
            }
            Arm::GlobalInt => {
                if self.rng.chance(50) {
                    let e = self.int_expr(1, &[]);
                    estmt(assign(var("gcount"), e))
                } else {
                    let e = self.int_expr(1, &[]);
                    estmt(assign(index(var("gslots"), int(self.rng.range(0, 3))), e))
                }
            }
            Arm::GlobalNode => {
                self.global_node_stored = true;
                let mut sources: Vec<Expr> = vec![Expr::Null];
                for &i in &solid {
                    sources.push(var(&self.nodes[i].name));
                }
                let src = self.rng.pick(&sources).clone();
                estmt(assign(var("gnode"), src))
            }
            Arm::Violation => self.gen_violation(&solid),
        }
    }

    /// A qualifier-violating store whose *reference-count* consequences
    /// still tear down cleanly (the referring region dies first), so the
    /// program exits normally under `nq` and the counting mode; only the
    /// planted check fails.
    fn gen_violation(&mut self, solid: &[usize]) -> BlockItem {
        // Collect (obj, src) pairs in distinct regions with obj's region
        // deleted no later than src's.
        let mut pairs = Vec::new();
        for &i in solid {
            for &j in solid {
                if self.nodes[i].region != self.nodes[j].region
                    && self.counted_ref_ok(self.nodes[i].region, self.nodes[j].region)
                {
                    pairs.push((i, j));
                }
            }
        }
        let Some(&(i, j)) = pairs.get(self.rng.below(pairs.len().max(1) as u64) as usize) else {
            // No cross-region pair available; fall back to a trivially
            // violating traditional store from a generated region.
            let i = solid[0];
            let name = self.nodes[i].name.clone();
            return estmt(assign(field(var(&name), "tr"), var(&name)));
        };
        let obj = self.nodes[i].name.clone();
        let src = self.nodes[j].name.clone();
        let f = if self.nodes[j].region == Reg::Trad {
            // Cross into the traditional region: violates sameregion.
            "next"
        } else {
            *self.rng.pick(&["next", "tr"])
        };
        estmt(assign(field(var(&obj), f), var(&src)))
    }

    /// Loop bodies reuse the simple arms only (no nested loops beyond
    /// depth 1), with the counter available as an int atom.
    fn gen_loop_body_stmt(&mut self, counter: &str) -> BlockItem {
        let extra = [var(counter)];
        let solid = self.solid_nodes();
        let mut arms: Vec<u32> = vec![0, 0];
        if !solid.is_empty() {
            arms.extend([1, 2]);
        }
        if !self.rarrays.is_empty() {
            arms.push(3);
        }
        if !self.arrays.is_empty() {
            arms.push(4);
        }
        match *self.rng.pick(&arms) {
            1 => {
                let i = *self.rng.pick(&solid);
                let name = self.nodes[i].name.clone();
                let e = self.int_expr(1, &extra);
                estmt(assign(field(var(&name), "v"), e))
            }
            2 => {
                let i = *self.rng.pick(&solid);
                let obj = self.nodes[i].name.clone();
                let region = self.nodes[i].region;
                let mut sources: Vec<Expr> = vec![Expr::Null, var(&obj)];
                for n in &self.nodes {
                    if n.region == region && !n.nullable {
                        sources.push(var(&n.name));
                    }
                }
                let src = self.rng.pick(&sources).clone();
                estmt(assign(field(var(&obj), "next"), src))
            }
            3 => {
                let (name, len) = self.rng.pick(&self.rarrays).clone();
                let e = self.int_expr(1, &extra);
                let idx = bin(BinOp::Rem, var(counter), int(len));
                // counter >= 0, so counter % len is in bounds.
                estmt(assign(index(var(&name), idx), e))
            }
            4 => {
                let (name, len) = self.rng.pick(&self.arrays).clone();
                let e = self.int_expr(1, &extra);
                let idx = bin(BinOp::Rem, var(counter), int(len));
                estmt(assign(index(var(&name), idx), e))
            }
            _ => {
                let e = self.int_expr(1, &extra);
                estmt(assign(var("acc"), bin(BinOp::Add, var("acc"), e)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..16 {
            assert_eq!(generate_source(seed, &cfg), generate_source(seed, &cfg));
        }
    }

    #[test]
    fn generated_programs_compile() {
        let cfg = GenConfig::default();
        for seed in 0..64 {
            let src = generate_source(seed, &cfg);
            rc_lang::compile(&src)
                .unwrap_or_else(|e| panic!("seed {seed} does not compile: {e}\n{src}"));
        }
    }

    #[test]
    fn violation_mode_compiles_too() {
        let cfg = GenConfig { size: 6, violations: true, spawn: true };
        for seed in 0..32 {
            let src = generate_source(seed, &cfg);
            rc_lang::compile(&src)
                .unwrap_or_else(|e| panic!("seed {seed} does not compile: {e}\n{src}"));
        }
    }

    #[test]
    fn sizes_scale_with_the_knob() {
        let small = generate(1, &GenConfig { size: 2, violations: false, spawn: true });
        let large = generate(1, &GenConfig { size: 20, violations: false, spawn: true });
        assert!(statement_count(&large) > statement_count(&small));
    }

    #[test]
    fn default_sweep_reaches_spawn_and_the_knob_disables_it() {
        let on = GenConfig::default();
        let hits = (0..64).filter(|&seed| generate_source(seed, &on).contains("spawn ")).count();
        assert!(hits >= 8, "only {hits}/64 default-config seeds emitted spawn");
        let off = GenConfig { spawn: false, ..GenConfig::default() };
        for seed in 0..64 {
            let src = generate_source(seed, &off);
            assert!(!src.contains("spawn "), "spawn=false still emitted spawn:\n{src}");
        }
    }
}
