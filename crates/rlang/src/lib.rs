#![warn(missing_docs)]

//! # rlang — a region type system with existential abstract regions
//!
//! The formal core of David Gay and Alex Aiken, *Language Support for
//! Regions* (PLDI 2001), §4: a type system for dynamically-checked region
//! languages whose "main novelty is the use of existentially quantified
//! abstract regions to represent pointers to objects whose region is
//! partially or totally unknown".
//!
//! The pieces:
//!
//! - [`types`] — region expressions (abstract regions ρ, region constants,
//!   ⊤ for null), the atomic facts relating them, and the qualifier-indexed
//!   existential field types of the §4.3 translation;
//! - [`constraint`] — saturated constraint sets: the finite lattice (meet =
//!   intersection) with entailment, rebinding ("kill"), projection and
//!   substitution;
//! - [`program`] — the rlang imperative language of Figure 5;
//! - [`infer`] — the whole-program greatest-fixed-point inference of
//!   function input/output/result constraint sets, in rounds that
//!   re-analyse only the functions whose input summary or some callee's
//!   output summary changed, and the `chk` verdicts taken from each
//!   function's last analysis (with a loss-tracking verdict pass only for
//!   functions that retain a check).
//!
//! The RC front end (crate `rc-lang`) translates RC programs into rlang,
//! runs [`infer::analyse`], and removes the runtime checks the analysis
//! proves redundant — the paper's "inf" configuration, which cuts lcc's
//! reference-counting overhead from 27% to 11% and mudlle's from 23% to 6%.
//!
//! ## Example: verifying Figure 1's loop
//!
//! ```
//! use rlang::program::{Callee, FuncDef, Program, SiteId, Stmt, VarId};
//! use rlang::types::{Fact, FieldQual, FieldType, RegionExpr, StructDecl, StructId, VarType};
//!
//! let mut p = Program::new();
//! let rlist = p.add_struct(StructDecl {
//!     name: "rlist".into(),
//!     fields: vec![("next".into(),
//!         FieldType::Ptr { target: StructId(0), qual: FieldQual::SameRegion })],
//! });
//! let (r, x, y) = (VarId(0), VarId(1), VarId(2));
//! p.add_func(FuncDef {
//!     name: "main".into(),
//!     exported: true,
//!     params: vec![],
//!     locals: vec![VarType::Region, VarType::Ptr(rlist), VarType::Ptr(rlist)],
//!     result: None,
//!     body: Stmt::Seq(vec![
//!         Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
//!         Stmt::New { dst: x, ty: rlist, region: r },
//!         Stmt::New { dst: y, ty: rlist, region: r },
//!         Stmt::Chk {
//!             fact: Fact::EqOrNull(
//!                 RegionExpr::Abstract(y.rho()),
//!                 RegionExpr::Abstract(x.rho())),
//!             site: SiteId(0),
//!         },
//!         Stmt::WriteField { obj: x, field: 0, src: y },
//!     ]),
//! });
//! let analysis = rlang::infer::analyse(&p);
//! assert!(analysis.is_safe(SiteId(0)), "both nodes are in r: check eliminated");
//! ```

pub mod check;
pub mod constraint;
pub mod display;
pub mod infer;
pub mod program;
pub mod types;

pub use check::{well_formed, WfError};
pub use constraint::ConstraintSet;
pub use infer::{analyse, validate, Analysis, MeetKind, ProvenanceReason, SiteProvenance, Summary};
pub use program::{Callee, FuncDef, FuncId, Program, SiteId, Stmt, VarId};
pub use types::{
    ConstId, Fact, FieldQual, FieldType, RegionExpr, RhoId, StructDecl, StructId, VarType,
    TRADITIONAL_CONST,
};
