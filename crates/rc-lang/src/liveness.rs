//! Local-variable liveness for the `deletes` pinning protocol.
//!
//! "When calling a function that may delete a region, RC increments the
//! reference count of all regions referred to by live local variables and
//! decrements these reference counts on return" (paper §3.3.2). Liveness is
//! what makes the protocol usable: in Figure 1, `rl` and `last` still point
//! into region `r` at `deleteregion(r)` — but they are *dead* there, so
//! they are not pinned and the deletion succeeds.
//!
//! This module computes, per function, a *pin set* for every call site
//! (indexed by the `pin` ids minted in [`crate::sema`]): the
//! pointer-typed locals live after the statement containing the call,
//! minus the statement's own assignment target. The interpreter pins the
//! regions of those locals' current (non-null) values around calls to
//! `deletes` functions. The granularity is the enclosing statement — a
//! sound simplification of the paper's optimal-placement scheme, which
//! they found "had little benefit" over a simple approach.

use std::collections::BTreeSet;

use crate::hir::{HExpr, HFunc, HStmt, VarRef};

/// Pin sets for one function, indexed by pin-site id.
#[derive(Debug, Clone, Default)]
pub struct PinSets {
    sets: Vec<Vec<VarRef>>,
}

impl PinSets {
    /// The pointer locals to pin around pin-site `pin`.
    pub fn pins(&self, pin: u32) -> &[VarRef] {
        self.sets.get(pin as usize).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

/// Computes pin sets for every call site in `f`.
pub fn pin_sets(f: &HFunc) -> PinSets {
    let n_pins = count_pins_stmts(&f.body);
    let mut cx = Cx { f, sets: vec![Vec::new(); n_pins as usize], recording: true };
    cx.block(&f.body, BTreeSet::new());
    PinSets { sets: cx.sets }
}

fn count_pins_stmts(stmts: &[HStmt]) -> u32 {
    let mut max = 0;
    for s in stmts {
        visit_stmt(s, &mut |e| {
            if let HExpr::Call { pin, .. } | HExpr::DeleteRegion(_, pin) = e {
                max = max.max(pin + 1);
            }
        });
    }
    max
}

fn visit_stmt(s: &HStmt, f: &mut impl FnMut(&HExpr)) {
    match s {
        HStmt::Expr(e) => visit_expr(e, f),
        HStmt::Return(Some(e)) => visit_expr(e, f),
        HStmt::Return(None) => {}
        HStmt::If(c, a, b) => {
            visit_expr(c, f);
            a.iter().for_each(|s| visit_stmt(s, f));
            b.iter().for_each(|s| visit_stmt(s, f));
        }
        HStmt::While(c, body) => {
            visit_expr(c, f);
            body.iter().for_each(|s| visit_stmt(s, f));
        }
        HStmt::Spawn { body, .. } => body.iter().for_each(|s| visit_stmt(s, f)),
        HStmt::Join => {}
    }
}

fn visit_expr(e: &HExpr, f: &mut impl FnMut(&HExpr)) {
    f(e);
    match e {
        HExpr::Int(_)
        | HExpr::Null(_)
        | HExpr::ReadLocal(_)
        | HExpr::ReadGlobal(_)
        | HExpr::NewRegion
        | HExpr::TraditionalRegion => {}
        HExpr::AssignLocal { val, .. } => visit_expr(val, f),
        HExpr::AssignGlobal { val, .. } => visit_expr(val, f),
        HExpr::ReadField { obj, .. } => visit_expr(obj, f),
        HExpr::AssignField { obj, val, .. } => {
            visit_expr(obj, f);
            visit_expr(val, f);
        }
        HExpr::ReadArraySlot { idx, .. } => visit_expr(idx, f),
        HExpr::AssignArraySlot { idx, val, .. } => {
            visit_expr(idx, f);
            visit_expr(val, f);
        }
        HExpr::PtrElem { ptr, idx, .. } | HExpr::ReadIntElem { ptr, idx } => {
            visit_expr(ptr, f);
            visit_expr(idx, f);
        }
        HExpr::AssignIntElem { ptr, idx, val } => {
            visit_expr(ptr, f);
            visit_expr(idx, f);
            visit_expr(val, f);
        }
        HExpr::Bin(_, l, r) => {
            visit_expr(l, f);
            visit_expr(r, f);
        }
        HExpr::Un(_, inner) | HExpr::Assert(inner) => visit_expr(inner, f),
        HExpr::Call { args, .. } => args.iter().for_each(|a| visit_expr(a, f)),
        HExpr::Ralloc { region, .. } => visit_expr(region, f),
        HExpr::RallocStructArray { region, count, .. }
        | HExpr::RallocIntArray { region, count, .. } => {
            visit_expr(region, f);
            visit_expr(count, f);
        }
        HExpr::NewSubregion(r) | HExpr::DeleteRegion(r, _) | HExpr::RegionOf(r) => visit_expr(r, f),
    }
}

struct Cx<'a> {
    f: &'a HFunc,
    sets: Vec<Vec<VarRef>>,
    recording: bool,
}

impl Cx<'_> {
    /// Backward pass over a block: `live_out` are the variables live after
    /// it; returns the variables live before it.
    fn block(&mut self, stmts: &[HStmt], live_out: BTreeSet<VarRef>) -> BTreeSet<VarRef> {
        let mut live = live_out;
        for s in stmts.iter().rev() {
            live = self.stmt(s, live);
        }
        live
    }

    fn stmt(&mut self, s: &HStmt, live_out: BTreeSet<VarRef>) -> BTreeSet<VarRef> {
        match s {
            HStmt::Expr(e) => {
                let mut live = live_out;
                // Kill an unconditional top-level local assignment before
                // recording: the destination's *old* value must not be
                // pinned.
                if let HExpr::AssignLocal { v, .. } = e {
                    live.remove(v);
                }
                self.record(e, &live);
                add_uses(e, &mut live);
                live
            }
            HStmt::Return(e) => {
                // Nothing in this frame is live after a return.
                let mut live = BTreeSet::new();
                if let Some(e) = e {
                    self.record(e, &live);
                    add_uses(e, &mut live);
                }
                live
            }
            HStmt::If(c, a, b) => {
                let la = self.block(a, live_out.clone());
                let lb = self.block(b, live_out);
                let mut live: BTreeSet<VarRef> = la.union(&lb).copied().collect();
                self.record(c, &live);
                add_uses(c, &mut live);
                live
            }
            HStmt::While(c, body) => {
                // Two rounds reach the fixpoint for reducible single-loop
                // liveness at statement granularity.
                let mut live = live_out.clone();
                for _ in 0..2 {
                    let mut inner: BTreeSet<VarRef> = live.union(&live_out).copied().collect();
                    add_uses(c, &mut inner);
                    let lb = self.block_no_record(body, inner.clone());
                    live = lb.union(&inner).copied().collect();
                }
                // Recording pass with the stable live set.
                let mut inner = live.clone();
                add_uses(c, &mut inner);
                self.record(c, &inner);
                self.block(body, inner.clone());
                inner
            }
            HStmt::Spawn { rvar, body, .. } => {
                // The body runs as a task over a cloned frame, so its call
                // sites take pin sets from the body's own liveness (the
                // task ends after the body — nothing is live out). Captured
                // variables are regions and int scalars, which are never
                // pinned; the parent just keeps the region handle live.
                self.block(body, BTreeSet::new());
                let mut live = live_out;
                live.insert(*rvar);
                live
            }
            HStmt::Join => live_out,
        }
    }

    fn block_no_record(&mut self, stmts: &[HStmt], live_out: BTreeSet<VarRef>) -> BTreeSet<VarRef> {
        // Compute liveness without recording pins (used while iterating
        // loops to a fixpoint); recording happens in a final pass.
        let saved = self.recording;
        self.recording = false;
        let r = self.block(stmts, live_out);
        self.recording = saved;
        r
    }

    /// Records the pin set for every call site in expression `e`: the
    /// pointer-typed locals in `live_out` (the statement-level
    /// continuation).
    fn record(&mut self, e: &HExpr, live_out: &BTreeSet<VarRef>) {
        if !self.recording {
            return;
        }
        let pins: Vec<VarRef> = live_out
            .iter()
            .copied()
            .filter(|&v| {
                let hv = self.f.var(v);
                hv.array_len.is_none() && hv.ty.is_heap_ptr()
            })
            .collect();
        let sets = &mut self.sets;
        visit_expr(e, &mut |node| {
            if let HExpr::Call { pin, .. } | HExpr::DeleteRegion(_, pin) = node {
                sets[*pin as usize] = pins.clone();
            }
        });
    }
}

fn add_uses(e: &HExpr, live: &mut BTreeSet<VarRef>) {
    visit_expr(e, &mut |node| {
        if let HExpr::ReadLocal(v) = node {
            live.insert(*v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    /// Pin sets of `main`, as variable names, per pin site.
    fn main_pins(src: &str) -> Vec<Vec<String>> {
        let m = compile(src).unwrap();
        let f = m.func(m.main);
        let ps = pin_sets(f);
        ps.sets.iter().map(|s| s.iter().map(|&v| f.var(v).name.clone()).collect()).collect()
    }

    #[test]
    fn dead_pointers_are_not_pinned_at_delete() {
        // Figure 1: rl/last are dead at deleteregion(r) — no pins.
        let src = r#"
            struct t { struct t *sameregion next; };
            int main() deletes {
                region r = newregion();
                struct t *rl = ralloc(r, struct t);
                struct t *last = rl;
                deleteregion(r);
                return 0;
            }
        "#;
        let pins = main_pins(src);
        assert_eq!(pins.len(), 1);
        assert!(pins[0].is_empty(), "{pins:?}");
    }

    #[test]
    fn live_pointers_are_pinned() {
        let src = r#"
            struct t { int x; };
            static void cleanup(region r) deletes { deleteregion(r); }
            int main() deletes {
                region r = newregion();
                region r2 = newregion();
                struct t *keep = ralloc(r2, struct t);
                cleanup(r);
                keep->x = 1;
                deleteregion(r2);
                return 0;
            }
        "#;
        let pins = main_pins(src);
        // Pin site 0 = cleanup(r): keep is used afterwards → pinned.
        assert_eq!(pins[0], vec!["keep".to_string()]);
        // Pin site 1 = deleteregion(r2): nothing pointer-typed live after.
        assert!(pins[1].is_empty());
    }

    #[test]
    fn assignment_target_is_not_pinned() {
        let src = r#"
            struct t { int x; };
            static struct t *make(region r) deletes { return ralloc(r, struct t); }
            int main() deletes {
                region r = newregion();
                struct t *p = null;
                p = make(r);
                p->x = 1;
                p = null;
                deleteregion(r);
                return 0;
            }
        "#;
        let pins = main_pins(src);
        // p = make(r): p's *old* value must not be pinned even though p is
        // live after the statement.
        assert!(pins[0].is_empty(), "{pins:?}");
    }

    #[test]
    fn loop_carried_pointers_stay_live() {
        let src = r#"
            struct t { int x; };
            static void tick(region scratch) deletes { deleteregion(scratch); }
            int main() deletes {
                region keepr = newregion();
                struct t *acc = ralloc(keepr, struct t);
                int i;
                for (i = 0; i < 3; i = i + 1) {
                    region s = newregion();
                    tick(s);
                    acc->x = acc->x + 1;
                }
                deleteregion(keepr);
                return 0;
            }
        "#;
        let pins = main_pins(src);
        // tick(s): acc is live around the loop → pinned.
        assert_eq!(pins[0], vec!["acc".to_string()]);
        // final deleteregion(keepr): acc dead.
        assert!(pins[1].is_empty());
    }

    #[test]
    fn region_handles_are_never_pinned() {
        // Region-typed locals do not hold pointers to objects *in* the
        // region; they must not block deletion.
        let src = r#"
            static void nuke(region r) deletes { deleteregion(r); }
            int main() deletes {
                region r = newregion();
                nuke(r);
                region dead = r;
                dead = null;
                return 0;
            }
        "#;
        let pins = main_pins(src);
        assert!(pins[0].is_empty(), "{pins:?}");
    }
}
