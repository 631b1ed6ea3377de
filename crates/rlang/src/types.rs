//! The region type language (paper Figure 4).
//!
//! Types annotate every pointer with a *region expression* saying which
//! region its target lives in. Region expressions are abstract regions ρ
//! (introduced existentially or as function/struct parameters), region
//! constants (regions that always exist, like the traditional region), or
//! ⊤ — the "region" of the null pointer, above every real region in the
//! subregion order.
//!
//! The boolean properties δ relating region expressions are conjunctions of
//! the atomic [`Fact`]s used by the paper's §4.3 constraint inference:
//! `σ = ⊤`, `σ ≠ ⊤`, `σ₁ ≤ σ₂`, `σ₁ = ⊤ ∨ σ₁ = σ₂`, plus the equalities
//! `σ₁ = σ₂` produced when an existential is instantiated into a dead
//! abstract region.

/// Identifier of an abstract region ρ. Scoping is positional: a function
/// with `m` region parameters uses ρ₀..ρₘ₋₁ for them and higher indices for
/// the per-variable abstract regions of its body; a struct declaration with
/// `m` parameters uses ρ₀..ρₘ₋₁.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RhoId(pub u32);

/// Identifier of a region constant (an always-live region such as the
/// traditional region).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(pub u32);

/// The distinguished traditional-region constant `R_T`. Every program's
/// constant table has it at index 0.
pub const TRADITIONAL_CONST: ConstId = ConstId(0);

/// A region expression σ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegionExpr {
    /// An abstract region ρ.
    Abstract(RhoId),
    /// A region constant R.
    Const(ConstId),
    /// ⊤, the region of null (above all regions: `r ≤ ⊤` for every r).
    Top,
}

impl RegionExpr {
    /// The abstract region mentioned, if any.
    pub fn rho(self) -> Option<RhoId> {
        match self {
            RegionExpr::Abstract(r) => Some(r),
            _ => None,
        }
    }

    /// Applies a substitution of region expressions for abstract regions;
    /// `subst[i]` replaces ρᵢ. Abstract regions beyond the substitution's
    /// length are left untouched (they are locally bound).
    pub fn subst(self, subst: &[RegionExpr]) -> RegionExpr {
        match self {
            RegionExpr::Abstract(RhoId(i)) if (i as usize) < subst.len() => subst[i as usize],
            other => other,
        }
    }
}

impl std::fmt::Display for RegionExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionExpr::Abstract(RhoId(i)) => write!(f, "ρ{i}"),
            RegionExpr::Const(ConstId(i)) => write!(f, "R{i}"),
            RegionExpr::Top => write!(f, "⊤"),
        }
    }
}

/// An atomic property of region expressions (the constraints of §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fact {
    /// σ = ⊤ (the value is null).
    IsTop(RegionExpr),
    /// σ ≠ ⊤ (the value is non-null).
    NotTop(RegionExpr),
    /// σ₁ ≤ σ₂: σ₁ is in the subtree rooted at σ₂ (σ₂ is an ancestor of or
    /// equal to σ₁). This is the `parentptr` obligation.
    Sub(RegionExpr, RegionExpr),
    /// σ₁ = ⊤ ∨ σ₁ = σ₂: null or in region σ₂. This is the `sameregion`
    /// and `traditional` obligation shape.
    EqOrNull(RegionExpr, RegionExpr),
    /// σ₁ = σ₂ (produced by binding a dead abstract region; normalised so
    /// the two sides are ordered).
    Eq(RegionExpr, RegionExpr),
}

impl Fact {
    /// Normalises symmetric facts and drops trivially-true ones (returns
    /// `None` for tautologies like `σ = σ` or `σ ≤ ⊤`).
    pub fn normalise(self) -> Option<Fact> {
        match self {
            Fact::Eq(a, b) if a == b => None,
            Fact::Eq(a, b) => Some(if a <= b { Fact::Eq(a, b) } else { Fact::Eq(b, a) }),
            Fact::Sub(a, b) if a == b => None,
            Fact::Sub(_, RegionExpr::Top) => None,
            Fact::EqOrNull(a, b) if a == b => None,
            Fact::EqOrNull(RegionExpr::Top, _) => None, // ⊤ = ⊤ ∨ …: true
            Fact::IsTop(RegionExpr::Top) => None,
            other => Some(other),
        }
    }

    /// The region expressions this fact mentions.
    pub fn exprs(self) -> impl Iterator<Item = RegionExpr> {
        let (a, b) = match self {
            Fact::IsTop(a) | Fact::NotTop(a) => (a, None),
            Fact::Sub(a, b) | Fact::EqOrNull(a, b) | Fact::Eq(a, b) => (a, Some(b)),
        };
        std::iter::once(a).chain(b)
    }

    /// Whether this fact mentions the abstract region `rho`.
    pub fn mentions(self, rho: RhoId) -> bool {
        self.exprs().any(|e| e.rho() == Some(rho))
    }

    /// Applies a substitution to both sides (see [`RegionExpr::subst`]);
    /// the result is re-normalised and may be a tautology (`None`).
    pub fn subst(self, subst: &[RegionExpr]) -> Option<Fact> {
        let f = match self {
            Fact::IsTop(a) => Fact::IsTop(a.subst(subst)),
            Fact::NotTop(a) => Fact::NotTop(a.subst(subst)),
            Fact::Sub(a, b) => Fact::Sub(a.subst(subst), b.subst(subst)),
            Fact::EqOrNull(a, b) => Fact::EqOrNull(a.subst(subst), b.subst(subst)),
            Fact::Eq(a, b) => Fact::Eq(a.subst(subst), b.subst(subst)),
        };
        f.normalise()
    }
}

impl std::fmt::Display for Fact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fact::IsTop(a) => write!(f, "{a} = ⊤"),
            Fact::NotTop(a) => write!(f, "{a} ≠ ⊤"),
            Fact::Sub(a, b) => write!(f, "{a} ≤ {b}"),
            Fact::EqOrNull(a, b) => write!(f, "{a} = ⊤ ∨ {a} = {b}"),
            Fact::Eq(a, b) => write!(f, "{a} = {b}"),
        }
    }
}

/// The qualifier of a struct field's pointer type in the §4.3 translation.
/// Each variant fixes the existential type of the field:
///
/// - `Unknown` (no annotation): `∃ρ'. T[ρ']@ρ'`
/// - `SameRegion`: `∃ρ'/ρ' = ⊤ ∨ ρ' = ρ. T[ρ']@ρ'`
/// - `ParentPtr`: `∃ρ'/ρ ≤ ρ'. T[ρ']@ρ'`
/// - `Traditional`: `∃ρ'/ρ' = ⊤ ∨ ρ' = R_T. T[ρ']@ρ'`
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FieldQual {
    /// No annotation: the target region is completely unknown.
    #[default]
    Unknown,
    /// `sameregion`.
    SameRegion,
    /// `parentptr`.
    ParentPtr,
    /// `traditional`.
    Traditional,
}

impl FieldQual {
    /// The obligation a store into a field with this qualifier must
    /// satisfy, given the region of the stored value (`src`) and the region
    /// of the containing object (`container`). `None` for unannotated
    /// fields (any region may be stored). The fact is *not* normalised:
    /// trivially-true obligations (e.g. `x->f = x` under `sameregion`)
    /// still produce a `chk`, which the analysis then reports as safe.
    pub fn obligation(self, src: RegionExpr, container: RegionExpr) -> Option<Fact> {
        match self {
            FieldQual::Unknown => None,
            FieldQual::SameRegion => Some(Fact::EqOrNull(src, container)),
            FieldQual::ParentPtr => Some(Fact::Sub(container, src)),
            FieldQual::Traditional => {
                Some(Fact::EqOrNull(src, RegionExpr::Const(TRADITIONAL_CONST)))
            }
        }
    }

    /// The facts a *read* from a field with this qualifier establishes
    /// about the loaded value's region (`dst`), given the containing
    /// object's region (`container`) — the elimination side of the field's
    /// existential type.
    pub fn read_facts(self, dst: RegionExpr, container: RegionExpr) -> Vec<Fact> {
        let raw = match self {
            FieldQual::Unknown => vec![],
            FieldQual::SameRegion => vec![Fact::EqOrNull(dst, container)],
            FieldQual::ParentPtr => vec![Fact::Sub(container, dst)],
            FieldQual::Traditional => {
                vec![Fact::EqOrNull(dst, RegionExpr::Const(TRADITIONAL_CONST))]
            }
        };
        raw.into_iter().filter_map(Fact::normalise).collect()
    }
}

/// A field of an rlang struct: a name, the slot's shape, and — for pointer
/// fields — the qualifier fixing its existential region type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldType {
    /// A non-pointer word.
    Int,
    /// A pointer to a struct, with its qualifier.
    Ptr {
        /// Target struct.
        target: StructId,
        /// Qualifier (fixes the existential type per §4.3).
        qual: FieldQual,
    },
    /// A region handle: `∃ρ'. region@ρ'`.
    Region,
}

/// Identifier of a struct declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// An rlang struct declaration. In the §4.3 translation every struct has
/// exactly one region parameter ρ₀ — the region the struct itself is stored
/// in — and every field's type refers to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDecl {
    /// Struct name.
    pub name: String,
    /// Field names and types.
    pub fields: Vec<(String, FieldType)>,
}

impl StructDecl {
    /// The type of field `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn field(&self, i: usize) -> &FieldType {
        &self.fields[i].1
    }
}

/// The shape of an rlang variable's type. Per the translation, a pointer
/// variable `x` of struct type `T` has type `T[ρₓ]@ρₓ` for the variable's
/// own abstract region ρₓ; a region variable has type `region@ρₓ`; an int
/// variable has no region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// A non-pointer value.
    Int,
    /// A pointer to a struct, in the variable's own abstract region.
    Ptr(StructId),
    /// A region handle designating the variable's own abstract region.
    Region,
}

impl VarType {
    /// Whether values of this type carry a region of interest.
    pub fn has_region(self) -> bool {
        !matches!(self, VarType::Int)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rho(i: u32) -> RegionExpr {
        RegionExpr::Abstract(RhoId(i))
    }

    #[test]
    fn normalise_orders_eq() {
        assert_eq!(Fact::Eq(rho(2), rho(1)).normalise(), Some(Fact::Eq(rho(1), rho(2))));
        assert_eq!(Fact::Eq(rho(1), rho(1)).normalise(), None);
    }

    #[test]
    fn normalise_drops_tautologies() {
        assert_eq!(Fact::Sub(rho(0), RegionExpr::Top).normalise(), None);
        assert_eq!(Fact::Sub(rho(0), rho(0)).normalise(), None);
        assert_eq!(Fact::EqOrNull(RegionExpr::Top, rho(1)).normalise(), None);
        assert_eq!(Fact::IsTop(RegionExpr::Top).normalise(), None);
        assert!(Fact::IsTop(rho(0)).normalise().is_some());
    }

    #[test]
    fn subst_replaces_parameters_only() {
        let subst = [RegionExpr::Const(TRADITIONAL_CONST)];
        assert_eq!(rho(0).subst(&subst), RegionExpr::Const(TRADITIONAL_CONST));
        assert_eq!(rho(1).subst(&subst), rho(1));
        // Substitution can make facts trivially true.
        assert_eq!(Fact::EqOrNull(RegionExpr::Top, rho(0)).subst(&subst), None);
    }

    #[test]
    fn qualifier_obligations_match_figure_3b() {
        let src = rho(1);
        let container = rho(0);
        assert_eq!(
            FieldQual::SameRegion.obligation(src, container),
            Some(Fact::EqOrNull(src, container))
        );
        assert_eq!(
            FieldQual::ParentPtr.obligation(src, container),
            Some(Fact::Sub(container, src))
        );
        assert_eq!(
            FieldQual::Traditional.obligation(src, container),
            Some(Fact::EqOrNull(src, RegionExpr::Const(TRADITIONAL_CONST)))
        );
        assert_eq!(FieldQual::Unknown.obligation(src, container), None);
    }

    #[test]
    fn read_facts_mirror_obligations() {
        let dst = rho(2);
        let container = rho(0);
        assert_eq!(
            FieldQual::SameRegion.read_facts(dst, container),
            vec![Fact::EqOrNull(dst, container)]
        );
        assert!(FieldQual::Unknown.read_facts(dst, container).is_empty());
    }

    #[test]
    fn mentions_and_exprs() {
        let f = Fact::Sub(rho(1), rho(3));
        assert!(f.mentions(RhoId(1)));
        assert!(f.mentions(RhoId(3)));
        assert!(!f.mentions(RhoId(2)));
        assert_eq!(f.exprs().count(), 2);
    }
}
