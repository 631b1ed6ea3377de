//! Constraint sets: the finite lattice driving the §4.3 inference.
//!
//! "The set of facts we consider in our analysis ... We call each of these
//! facts a constraint. A constraint set c corresponds to the boolean
//! expression ⋀_{δ∈c} δ. ... Constraint sets form a finite-height lattice
//! under set inclusion" — meet (used at control-flow joins) is set
//! intersection, which safely approximates disjunction.
//!
//! A [`ConstraintSet`] is kept *saturated*: closed under a sound set of
//! inference rules (equality congruence, ≤-transitivity, null-or-equal
//! strengthening, ⊤ propagation). Saturation is what makes the two
//! central operations precise:
//!
//! - [`ConstraintSet::entails`] — does the set imply a fact? (check
//!   elimination asks exactly this);
//! - [`ConstraintSet::kill_rho`] — forget everything about one abstract
//!   region while *keeping* its indirect consequences (the paper's
//!   "removed by using a new property δ″, implied by δ, that does not have
//!   ρ amongst its free variables").
//!
//! A set that discovers a contradiction (e.g. `σ = ⊤` and `σ ≠ ⊤`)
//! describes an unreachable program point and entails everything.

use std::collections::{BTreeMap, BTreeSet};

use crate::types::{Fact, RegionExpr, RhoId};

/// A saturated conjunction of [`Fact`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConstraintSet {
    facts: BTreeSet<Fact>,
    contradictory: bool,
}

impl ConstraintSet {
    /// The empty (trivially true) set — the lattice bottom, carrying no
    /// information.
    pub fn empty() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// The contradictory set — the lattice top, entailing every fact. Used
    /// as the optimistic starting point of the greatest-fixed-point
    /// iteration and as the state of unreachable code.
    pub fn contradiction() -> ConstraintSet {
        ConstraintSet { facts: BTreeSet::new(), contradictory: true }
    }

    /// A set from an iterator of facts.
    pub fn from_facts(facts: impl IntoIterator<Item = Fact>) -> ConstraintSet {
        let mut s = ConstraintSet::empty();
        for f in facts {
            s.add(f);
        }
        s
    }

    /// Whether the set has discovered a contradiction (unreachable point).
    pub fn is_contradictory(&self) -> bool {
        self.contradictory
    }

    /// The facts currently held (empty if contradictory).
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.facts.iter().copied()
    }

    /// Number of facts (0 for a contradictory set).
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether no facts are known.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty() && !self.contradictory
    }

    /// Adds a fact (and saturates).
    pub fn add(&mut self, fact: Fact) {
        self.add_all([fact]);
    }

    /// Conjoins another set.
    pub fn add_all(&mut self, other: impl IntoIterator<Item = Fact>) {
        if self.contradictory {
            return;
        }
        let fresh: Vec<Fact> = other
            .into_iter()
            .filter_map(Fact::normalise)
            .filter(|f| !self.facts.contains(f))
            .collect();
        if !fresh.is_empty() {
            self.saturate_from(fresh);
        }
    }

    fn set_contradictory(&mut self) {
        self.contradictory = true;
        self.facts.clear();
    }

    /// Re-derives the closure of the set's facts, starting from the empty
    /// set. (Only the closedness assertion in [`ConstraintSet::meet`]
    /// needs this; incremental callers use
    /// [`ConstraintSet::saturate_from`].)
    #[cfg(debug_assertions)]
    fn saturate(&mut self) {
        let all: Vec<Fact> = std::mem::take(&mut self.facts).into_iter().collect();
        self.saturate_from(all);
    }

    /// Conjoins the normalised facts `work` and closes the set under the
    /// saturation rules. All rules are sound for the heap model of
    /// Figure 4 (regions ordered by the subregion relation, ⊤ above
    /// everything, constants denoting distinct live regions).
    ///
    /// Semi-naive worklist closure over a premise index. The set is closed
    /// on entry, so only rule instances with a fresh premise can derive
    /// anything new. A fact becomes a premise when it is inserted: it is
    /// indexed under every expression it mentions and paired with the
    /// indexed facts that share one, so the later-inserted premise of any
    /// instance meets the earlier one. That suffices because every binary
    /// rule except ⊤-weakening (`σ = ⊤` with *any* expression σ₂ of the
    /// set) needs premises that share an expression. ⊤-weakening instead
    /// fires when an `IsTop` fact is inserted, over every indexed
    /// expression, and when an expression first enters the index, over
    /// every `IsTop` fact. No rule mentions an expression its premises do
    /// not, so the expressions are finite and the closure terminates.
    fn saturate_from(&mut self, mut work: Vec<Fact>) {
        let mut index: BTreeMap<RegionExpr, Vec<Fact>> = BTreeMap::new();
        let mut tops: Vec<RegionExpr> = Vec::new();
        for &f in &self.facts {
            if let Fact::IsTop(a) = f {
                tops.push(a);
            }
            for e in f.exprs() {
                index.entry(e).or_default().push(f);
            }
        }

        while let Some(f) = work.pop() {
            if !self.facts.insert(f) {
                continue;
            }
            match f {
                // σ = ⊤ for a region constant: impossible.
                Fact::IsTop(RegionExpr::Const(_)) => return self.set_contradictory(),
                // Distinct constants are distinct regions.
                Fact::Eq(RegionExpr::Const(a), RegionExpr::Const(b)) if a != b => {
                    return self.set_contradictory()
                }
                // Direct contradiction against the facts already held.
                Fact::IsTop(a) if self.facts.contains(&Fact::NotTop(a)) => {
                    return self.set_contradictory()
                }
                Fact::NotTop(a) if self.facts.contains(&Fact::IsTop(a)) => {
                    return self.set_contradictory()
                }
                _ => {}
            }

            // Unary weakenings. These keep the set closed downward so that
            // the syntactic intersection in `meet` loses nothing a common
            // weaker fact could save.
            if let Fact::Eq(a, b) = f {
                // Equal ⇒ null-or-equal (both ways) and mutually ≤.
                work.extend(Fact::EqOrNull(a, b).normalise());
                work.extend(Fact::EqOrNull(b, a).normalise());
                work.extend(Fact::Sub(a, b).normalise());
                work.extend(Fact::Sub(b, a).normalise());
            }
            // Constants are never ⊤.
            for e in f.exprs() {
                if matches!(e, RegionExpr::Const(_)) {
                    work.extend(Fact::NotTop(e).normalise());
                }
            }

            if let Fact::IsTop(a) = f {
                tops.push(a);
                for &b in index.keys() {
                    weaken_top(a, b, &mut work);
                }
            }
            for e in f.exprs() {
                let sharing = index.entry(e).or_default();
                if sharing.is_empty() {
                    for &a in &tops {
                        weaken_top(a, e, &mut work);
                    }
                }
                sharing.push(f);
                for &g in sharing.iter() {
                    derive(f, g, &mut work);
                    derive(g, f, &mut work);
                }
            }
        }
    }

    /// Does this set imply `fact`?
    pub fn entails(&self, fact: Fact) -> bool {
        if self.contradictory {
            return true;
        }
        let Some(f) = fact.normalise() else { return true };
        if self.facts.contains(&f) {
            return true;
        }
        match f {
            Fact::NotTop(RegionExpr::Const(_)) => true,
            Fact::NotTop(a) => {
                // a = c for a constant c implies a ≠ ⊤.
                self.facts.iter().any(|&g| match g {
                    Fact::Eq(x, y) => {
                        (x == a && matches!(y, RegionExpr::Const(_)))
                            || (y == a && matches!(x, RegionExpr::Const(_)))
                    }
                    _ => false,
                })
            }
            Fact::Eq(a, b) => {
                // Both null: equal (both are ⊤).
                self.entails_stored(Fact::IsTop(a)) && self.entails_stored(Fact::IsTop(b))
            }
            Fact::Sub(a, b) => {
                // Equal regions are mutually ≤; a = ⊤ ⇒ b = ⊤ case is
                // covered by ⊤ ≤ ⊤ when both are top.
                self.entails(Fact::Eq(a, b)) || self.entails_stored(Fact::IsTop(b))
            }
            Fact::EqOrNull(a, b) => {
                self.entails_stored(Fact::IsTop(a)) || self.entails(Fact::Eq(a, b))
            }
            Fact::IsTop(_) => false,
        }
    }

    fn entails_stored(&self, fact: Fact) -> bool {
        fact.normalise().map(|f| self.facts.contains(&f)).unwrap_or(true)
    }

    /// Does this set imply every fact of `other`?
    pub fn entails_all(&self, other: &ConstraintSet) -> bool {
        if self.contradictory {
            return true;
        }
        if other.contradictory {
            return false;
        }
        other.facts().all(|f| self.entails(f))
    }

    /// The meet (control-flow join): facts true on *both* paths. "We
    /// conservatively approximate the type checking rules for if and while
    /// by constraint set intersection."
    pub fn meet(&self, other: &ConstraintSet) -> ConstraintSet {
        if self.contradictory {
            return other.clone();
        }
        if other.contradictory {
            return self.clone();
        }
        // The intersection of two deductively closed sets is closed: any
        // rule whose premises lie in the intersection has its conclusion
        // in both operands (each is closed), hence in the intersection.
        // Nor can it be contradictory when neither operand is — a
        // contradiction derivable from a subset would be derivable in
        // either operand. So no re-saturation is needed, which matters:
        // `meet` runs at every join and loop iteration of the dataflow,
        // and re-saturating pairs every fact with the facts sharing an
        // expression even when it derives nothing (debug builds assert
        // the no-op).
        let out = ConstraintSet {
            facts: self.facts.intersection(&other.facts).copied().collect(),
            contradictory: false,
        };
        // Debug builds re-derive the closure to verify the argument —
        // but only for small sets: the whole point of skipping saturation
        // is its cost, and the unit-test-sized sets this bound admits
        // already exercise every rule.
        #[cfg(debug_assertions)]
        if out.facts.len() <= 24 {
            let mut check = out.clone();
            check.saturate();
            debug_assert_eq!(check, out, "intersection of closed sets must be closed");
        }
        out
    }

    /// [`ConstraintSet::meet`], also reporting the facts *lost* at the
    /// join: every fact held by one operand that the meet no longer
    /// entails. This is the provenance hook — a retained check downstream
    /// of the join can name the exact lattice element whose loss blocked
    /// its elimination (see `infer::ProvenanceReason::MeetPoint`).
    pub fn meet_with_loss(&self, other: &ConstraintSet) -> (ConstraintSet, Vec<Fact>) {
        let met = self.meet(other);
        let mut lost: Vec<Fact> = Vec::new();
        for f in self.facts().chain(other.facts()) {
            if !met.entails(f) && !lost.contains(&f) {
                lost.push(f);
            }
        }
        (met, lost)
    }

    /// Forgets everything about `rho`, keeping implied consequences that do
    /// not mention it (the set is already saturated, so indirect facts such
    /// as `ρ₁ = ρ₂` derived via `rho` survive).
    pub fn kill_rho(&mut self, rho: RhoId) {
        if self.contradictory {
            // Rebinding inside dead code: stay contradictory.
            return;
        }
        self.facts.retain(|f| !f.mentions(rho));
    }

    /// Restricts to facts mentioning only abstract regions accepted by
    /// `keep` (constants and ⊤ always pass). Used to project a state onto
    /// a function's formal region parameters.
    pub fn restrict(&self, keep: impl Fn(RhoId) -> bool) -> ConstraintSet {
        if self.contradictory {
            return self.clone();
        }
        ConstraintSet {
            facts: self.facts.iter().copied().filter(|f| f.all_rhos(&keep)).collect(),
            contradictory: false,
        }
    }

    /// Applies a substitution of region expressions for the first
    /// `subst.len()` abstract regions to every fact.
    pub fn subst(&self, subst: &[RegionExpr]) -> ConstraintSet {
        if self.contradictory {
            return self.clone();
        }
        ConstraintSet::from_facts(self.facts.iter().filter_map(|f| f.subst(subst)))
    }
}

impl std::fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.contradictory {
            return write!(f, "⊥");
        }
        if self.facts.is_empty() {
            return write!(f, "true");
        }
        let mut first = true;
        for fact in &self.facts {
            if !first {
                write!(f, " ∧ ")?;
            }
            write!(f, "{fact}")?;
            first = false;
        }
        Ok(())
    }
}

/// The binary saturation rules whose premises share an expression, in the
/// ordered form `(f, g)`; callers fire both orders.
fn derive(f: Fact, g: Fact, new: &mut Vec<Fact>) {
    // Equality congruence: rewrite g by f's equality, in both directions.
    if let Fact::Eq(a, b) = f {
        new.extend(rewrite(g, a, b));
        new.extend(rewrite(g, b, a));
    }
    // null-or-equal + non-null ⇒ equal.
    if let (Fact::EqOrNull(a, b), Fact::NotTop(c)) = (f, g) {
        if a == c {
            new.extend(Fact::Eq(a, b).normalise());
        }
    }
    // null-or-equal + the other side null ⇒ null.
    if let (Fact::EqOrNull(a, b), Fact::IsTop(c)) = (f, g) {
        if b == c {
            new.extend(Fact::IsTop(a).normalise());
        }
    }
    if let (Fact::Sub(a, b), Fact::Sub(c, d)) = (f, g) {
        // ≤ transitivity.
        if b == c {
            new.extend(Fact::Sub(a, d).normalise());
        }
        // ≤ antisymmetry.
        if a == d && b == c {
            new.extend(Fact::Eq(a, b).normalise());
        }
    }
    // σ₁ = ⊤ and σ₁ ≤ σ₂ ⇒ σ₂ = ⊤ (only ⊤ is above ⊤).
    if let (Fact::IsTop(a), Fact::Sub(c, d)) = (f, g) {
        if a == c {
            new.extend(Fact::IsTop(d).normalise());
        }
    }
    // σ₂ ≠ ⊤ and σ₁ ≤ σ₂ ⇒ σ₁ ≠ ⊤ (a real region's descendants are
    // real).
    if let (Fact::NotTop(b), Fact::Sub(c, d)) = (f, g) {
        if b == d {
            new.extend(Fact::NotTop(c).normalise());
        }
    }
}

/// ⊤-weakening of `a = ⊤` by the expression `b`; the saturated set applies
/// it for every expression its facts mention.
fn weaken_top(a: RegionExpr, b: RegionExpr, new: &mut Vec<Fact>) {
    // σ = ⊤ ⇒ (σ = ⊤ ∨ σ = σ₂) for any σ₂.
    new.extend(Fact::EqOrNull(a, b).normalise());
    // σ = ⊤ ⇒ σ₂ ≤ σ for any σ₂ (everything ≤ ⊤).
    new.extend(Fact::Sub(b, a).normalise());
}

/// Rewrites `g`, replacing expression `from` with `to` (equality
/// congruence helper).
fn rewrite(g: Fact, from: RegionExpr, to: RegionExpr) -> Option<Fact> {
    let r = |e: RegionExpr| if e == from { to } else { e };
    let out = match g {
        Fact::IsTop(a) => Fact::IsTop(r(a)),
        Fact::NotTop(a) => Fact::NotTop(r(a)),
        Fact::Sub(a, b) => Fact::Sub(r(a), r(b)),
        Fact::EqOrNull(a, b) => Fact::EqOrNull(r(a), r(b)),
        Fact::Eq(a, b) => Fact::Eq(r(a), r(b)),
    };
    out.normalise()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ConstId, TRADITIONAL_CONST};

    fn rho(i: u32) -> RegionExpr {
        RegionExpr::Abstract(RhoId(i))
    }
    const RT: RegionExpr = RegionExpr::Const(TRADITIONAL_CONST);

    #[test]
    fn equality_is_transitive() {
        let s = ConstraintSet::from_facts([Fact::Eq(rho(0), rho(1)), Fact::Eq(rho(1), rho(2))]);
        assert!(s.entails(Fact::Eq(rho(0), rho(2))));
        assert!(s.entails(Fact::EqOrNull(rho(0), rho(2))));
    }

    #[test]
    fn eq_or_null_strengthens_with_not_top() {
        let s = ConstraintSet::from_facts([
            Fact::EqOrNull(rho(0), rho(1)),
            Fact::NotTop(rho(0)),
        ]);
        assert!(s.entails(Fact::Eq(rho(0), rho(1))));
    }

    #[test]
    fn eq_or_null_alone_does_not_give_eq() {
        let s = ConstraintSet::from_facts([Fact::EqOrNull(rho(0), rho(1))]);
        assert!(!s.entails(Fact::Eq(rho(0), rho(1))));
        assert!(s.entails(Fact::EqOrNull(rho(0), rho(1))));
    }

    #[test]
    fn sub_is_transitive_and_antisymmetric() {
        let s = ConstraintSet::from_facts([Fact::Sub(rho(0), rho(1)), Fact::Sub(rho(1), rho(2))]);
        assert!(s.entails(Fact::Sub(rho(0), rho(2))));
        let s2 = ConstraintSet::from_facts([Fact::Sub(rho(0), rho(1)), Fact::Sub(rho(1), rho(0))]);
        assert!(s2.entails(Fact::Eq(rho(0), rho(1))));
    }

    #[test]
    fn null_propagates_up_sub_chains() {
        let s = ConstraintSet::from_facts([Fact::IsTop(rho(0)), Fact::Sub(rho(0), rho(1))]);
        assert!(s.entails(Fact::IsTop(rho(1))));
        let s2 = ConstraintSet::from_facts([Fact::NotTop(rho(1)), Fact::Sub(rho(0), rho(1))]);
        assert!(s2.entails(Fact::NotTop(rho(0))));
    }

    #[test]
    fn contradictions_entail_everything() {
        let s = ConstraintSet::from_facts([Fact::IsTop(rho(0)), Fact::NotTop(rho(0))]);
        assert!(s.is_contradictory());
        assert!(s.entails(Fact::Eq(rho(5), rho(6))));
    }

    #[test]
    fn constants_are_never_null_and_distinct() {
        let s = ConstraintSet::empty();
        assert!(s.entails(Fact::NotTop(RT)));
        let bad = ConstraintSet::from_facts([Fact::Eq(RT, RegionExpr::Const(ConstId(1)))]);
        assert!(bad.is_contradictory());
        let bad2 = ConstraintSet::from_facts([Fact::IsTop(RT)]);
        assert!(bad2.is_contradictory());
    }

    #[test]
    fn eq_to_constant_gives_not_top() {
        let s = ConstraintSet::from_facts([Fact::Eq(rho(0), RT)]);
        assert!(s.entails(Fact::NotTop(rho(0))));
    }

    #[test]
    fn meet_keeps_common_facts_and_consequences() {
        // Path 1: ρ0 = ρ1 directly. Path 2: ρ0 = ρ2 and ρ2 = ρ1.
        let a = ConstraintSet::from_facts([Fact::Eq(rho(0), rho(1))]);
        let b = ConstraintSet::from_facts([Fact::Eq(rho(0), rho(2)), Fact::Eq(rho(2), rho(1))]);
        let m = a.meet(&b);
        assert!(m.entails(Fact::Eq(rho(0), rho(1))), "saturation saves the join");
        assert!(!m.entails(Fact::Eq(rho(0), rho(2))));
    }

    #[test]
    fn meet_with_contradiction_is_identity() {
        let bot = ConstraintSet::from_facts([Fact::IsTop(rho(0)), Fact::NotTop(rho(0))]);
        let a = ConstraintSet::from_facts([Fact::Eq(rho(0), rho(1))]);
        assert_eq!(bot.meet(&a), a);
        assert_eq!(a.meet(&bot), a);
    }

    #[test]
    fn kill_preserves_indirect_consequences() {
        let mut s =
            ConstraintSet::from_facts([Fact::Eq(rho(0), rho(9)), Fact::Eq(rho(9), rho(1))]);
        s.kill_rho(RhoId(9));
        assert!(s.entails(Fact::Eq(rho(0), rho(1))));
        assert!(!s.facts().any(|f| f.mentions(RhoId(9))));
    }

    #[test]
    fn restrict_projects_onto_params() {
        let s = ConstraintSet::from_facts([
            Fact::Eq(rho(0), rho(1)),
            Fact::Eq(rho(1), rho(5)),
            Fact::EqOrNull(rho(5), RT),
        ]);
        let r = s.restrict(|RhoId(i)| i < 2);
        assert!(r.entails(Fact::Eq(rho(0), rho(1))));
        assert!(!r.facts().any(|f| f.mentions(RhoId(5))));
    }

    #[test]
    fn subst_maps_params_to_actuals() {
        let s = ConstraintSet::from_facts([Fact::EqOrNull(rho(0), rho(1))]);
        let inst = s.subst(&[rho(7), rho(8)]);
        assert!(inst.entails(Fact::EqOrNull(rho(7), rho(8))));
    }

    #[test]
    fn entails_both_null_means_equal() {
        let s = ConstraintSet::from_facts([Fact::IsTop(rho(0)), Fact::IsTop(rho(1))]);
        assert!(s.entails(Fact::Eq(rho(0), rho(1))));
        assert!(s.entails(Fact::Sub(rho(0), rho(1))));
    }

    #[test]
    fn top_target_makes_sub_trivial() {
        let s = ConstraintSet::from_facts([Fact::IsTop(rho(1))]);
        assert!(s.entails(Fact::Sub(rho(0), rho(1))), "anything ≤ ⊤");
    }

    #[test]
    fn meet_with_loss_reports_dropped_facts() {
        let a = ConstraintSet::from_facts([Fact::Eq(rho(0), rho(1)), Fact::NotTop(rho(2))]);
        let b = ConstraintSet::from_facts([Fact::NotTop(rho(2))]);
        let (met, lost) = a.meet_with_loss(&b);
        assert!(met.entails(Fact::NotTop(rho(2))));
        assert!(!met.entails(Fact::Eq(rho(0), rho(1))));
        assert!(lost.contains(&Fact::Eq(rho(0), rho(1))), "the dropped equality is named");
        assert!(!lost.contains(&Fact::NotTop(rho(2))), "surviving facts are not losses");
        // Meeting with ⊥ is the identity: nothing is lost.
        let bot = ConstraintSet::contradiction();
        let (_, lost2) = a.meet_with_loss(&bot);
        assert!(lost2.is_empty());
    }

    #[test]
    fn display_formats() {
        assert_eq!(ConstraintSet::empty().to_string(), "true");
        let s = ConstraintSet::from_facts([Fact::NotTop(rho(0))]);
        assert!(s.to_string().contains("≠"));
    }

    /// Brute-force reference saturator: rounds that pair every pending
    /// fact (already inserted) with every fact of the set, both orders,
    /// with ⊤-weakening over every expression of the partner fact. No
    /// index, so it cannot miss an instance whose premises share nothing.
    fn reference_saturate_from(s: &mut ConstraintSet, mut pending: Vec<Fact>) {
        while !pending.is_empty() {
            let mut new: Vec<Fact> = Vec::new();
            for &f in &pending {
                let contradiction = match f {
                    Fact::IsTop(RegionExpr::Const(_)) => true,
                    Fact::Eq(RegionExpr::Const(a), RegionExpr::Const(b)) => a != b,
                    Fact::IsTop(a) => s.facts.contains(&Fact::NotTop(a)),
                    Fact::NotTop(a) => s.facts.contains(&Fact::IsTop(a)),
                    _ => false,
                };
                if contradiction {
                    return s.set_contradictory();
                }
                if let Fact::Eq(a, b) = f {
                    new.extend(Fact::EqOrNull(a, b).normalise());
                    new.extend(Fact::EqOrNull(b, a).normalise());
                    new.extend(Fact::Sub(a, b).normalise());
                    new.extend(Fact::Sub(b, a).normalise());
                }
                for e in f.exprs() {
                    if matches!(e, RegionExpr::Const(_)) {
                        new.extend(Fact::NotTop(e).normalise());
                    }
                }
            }
            let settled: Vec<Fact> = s.facts.iter().copied().collect();
            for &f in &pending {
                for &g in &settled {
                    for (p, q) in [(f, g), (g, f)] {
                        derive(p, q, &mut new);
                        if let Fact::IsTop(a) = p {
                            for b in q.exprs() {
                                weaken_top(a, b, &mut new);
                            }
                        }
                    }
                }
            }
            pending.clear();
            for fact in new {
                if s.facts.insert(fact) {
                    pending.push(fact);
                }
            }
        }
    }

    fn reference_add_all(s: &mut ConstraintSet, facts: impl IntoIterator<Item = Fact>) {
        if s.contradictory {
            return;
        }
        let mut fresh = Vec::new();
        for f in facts.into_iter().filter_map(Fact::normalise) {
            if s.facts.insert(f) {
                fresh.push(f);
            }
        }
        reference_saturate_from(s, fresh);
    }

    fn reference_from_facts(facts: impl IntoIterator<Item = Fact>) -> ConstraintSet {
        let mut s = ConstraintSet::empty();
        reference_add_all(&mut s, facts);
        s
    }

    /// SplitMix64, so every case reproduces by seed.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        /// ρ0..ρ7, two constants or ⊤.
        fn expr(&mut self) -> RegionExpr {
            match self.below(11) {
                8 => RT,
                9 => RegionExpr::Const(ConstId(1)),
                10 => RegionExpr::Top,
                i => rho(i as u32),
            }
        }

        /// Up to `max` facts, charged to the seed's `budget`.
        fn facts(&mut self, budget: &mut u64, max: u64) -> Vec<Fact> {
            let n = self.below((*budget).min(max) + 1);
            *budget -= n;
            (0..n).map(|_| self.fact()).collect()
        }

        /// `IsTop` is rare so that most sets stay consistent.
        fn fact(&mut self) -> Fact {
            let (a, b) = (self.expr(), self.expr());
            match self.below(10) {
                0 => Fact::IsTop(a),
                1 | 2 => Fact::NotTop(a),
                3..=5 => Fact::Sub(a, b),
                6 | 7 => Fact::EqOrNull(a, b),
                _ => Fact::Eq(a, b),
            }
        }
    }

    /// The indexed worklist computes exactly the brute-force closure. Each
    /// seed builds sets through every saturating entry point, interleaved
    /// with the operations that shrink or rewrite a set, mirroring each
    /// step on reference sets that only the pairwise saturator ever
    /// closed, and compares facts and contradiction flag after every step.
    #[test]
    fn indexed_saturation_equals_reference_closure() {
        const FACT_BUDGET: u64 = 24;
        let (mut consistent, mut contradictory, mut with_top) = (0, 0, 0);
        for seed in 0..512u64 {
            let mut rng = SplitMix64(seed);
            let mut budget = FACT_BUDGET;
            let first = rng.facts(&mut budget, 8);
            let mut pool: Vec<(ConstraintSet, ConstraintSet)> =
                vec![(ConstraintSet::from_facts(first.clone()), reference_from_facts(first))];
            for step in 0..12 {
                let i = rng.below(pool.len() as u64) as usize;
                let (s, r) = &mut pool[i];
                match rng.below(6) {
                    0 => {
                        for f in rng.facts(&mut budget, 1) {
                            s.add(f);
                            reference_add_all(r, [f]);
                        }
                    }
                    1 => {
                        let facts = rng.facts(&mut budget, 8);
                        s.add_all(facts.clone());
                        reference_add_all(r, facts);
                    }
                    2 => {
                        let killed = RhoId(rng.below(8) as u32);
                        s.kill_rho(killed);
                        r.kill_rho(killed);
                    }
                    3 => {
                        let j = rng.below(pool.len() as u64) as usize;
                        let met = (pool[i].0.meet(&pool[j].0), pool[i].1.meet(&pool[j].1));
                        pool.push(met);
                    }
                    4 => {
                        let map: Vec<RegionExpr> = (0..rng.below(5)).map(|_| rng.expr()).collect();
                        let inst = s.subst(&map);
                        let reference = if r.contradictory {
                            r.clone()
                        } else {
                            reference_from_facts(r.facts.iter().filter_map(|f| f.subst(&map)))
                        };
                        pool.push((inst, reference));
                    }
                    _ => {
                        let facts = rng.facts(&mut budget, 8);
                        pool.push((
                            ConstraintSet::from_facts(facts.clone()),
                            reference_from_facts(facts),
                        ));
                    }
                }
                for (k, (s, r)) in pool.iter().enumerate() {
                    assert_eq!(s, r, "seed {seed}, step {step}, set {k}");
                }
            }
            for (s, _) in &pool {
                if s.is_contradictory() {
                    contradictory += 1;
                } else {
                    consistent += 1;
                    with_top += usize::from(s.facts().any(|f| matches!(f, Fact::IsTop(_))));
                }
            }
        }
        // Not vacuous: both outcomes occur, and ⊤-weakening has work.
        assert!(consistent > 1000 && contradictory > 200, "{consistent} / {contradictory}");
        assert!(with_top > 200, "{with_top} consistent sets hold an IsTop fact");
    }
}
