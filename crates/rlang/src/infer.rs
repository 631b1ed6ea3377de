//! The §4.3 constraint inference: a whole-program, flow-sensitive dataflow
//! analysis that infers function input/output/result constraint sets and
//! decides which `chk` statements are statically redundant.
//!
//! "The operations in the type checking rules are all monotonic when
//! expressed in terms of constraint sets and there is a least solution ...
//! it is possible to find the best collection of constraint sets using a
//! greatest-fixed-point-seeking dataflow analysis of the whole program."
//!
//! The implementation mirrors that structure:
//!
//! - per function, a forward dataflow over [`ConstraintSet`]s with
//!   intersection at joins and a local fixpoint for `while`;
//! - per program, descending (greatest-fixed-point) iteration on the
//!   function summaries: a function's *input* set is the intersection of
//!   the facts provable at all of its call sites (empty for exported
//!   functions, matching "any non-static C function ... has empty input,
//!   output and result constraint sets"); its *output/result* set is
//!   whatever its body proves about its region parameters and result.
//!   The descent runs in rounds, each reading the previous round's
//!   summaries. A function's analysis reads only its own input summary
//!   and its callees' output summaries, so round k+1 re-analyses only the
//!   functions for which one of those changed in round k; the others
//!   keep their latest analysis (call-site contributions and `chk`
//!   records), which a re-analysis would repeat;
//! - each `chk` site's verdict and flow state come from its function's
//!   last analysis: "we can safely eliminate any chk statement that
//!   asserts a property that is implied by its input constraint set." A
//!   function that retains a check is analysed once more with loss
//!   tracking, to name the meet or ⊤-weakening that blocked elimination.
//!
//! Debug builds hold every result to a reference that analyses every
//! function in every round and then runs a verdict pass over all of them.

use std::collections::{BTreeMap, HashMap};

use crate::constraint::ConstraintSet;
use crate::program::{Callee, FuncDef, FuncId, Program, SiteId, Stmt, VarId};
use crate::types::{Fact, FieldType, RegionExpr, RhoId, VarType};

/// Which control-flow construct performed a provenance-recorded meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeetKind {
    /// The join after an `if`/`else` (constraint-set intersection of the
    /// two arms).
    IfJoin,
    /// The descending fixpoint at a `while` loop entry (intersection of
    /// the pre-loop state with every back edge).
    LoopEntry,
}

impl MeetKind {
    /// Stable lower-case name for reports and trace export.
    pub fn name(self) -> &'static str {
        match self {
            MeetKind::IfJoin => "if-join",
            MeetKind::LoopEntry => "loop-entry",
        }
    }
}

/// Why a check site received its verdict — the provenance half of the
/// static↔dynamic attribution story. For an eliminated check this is
/// [`ProvenanceReason::Entailed`] (or [`ProvenanceReason::Unreachable`]);
/// for a retained check it names the specific lattice event that blocked
/// elimination: the meet point that discarded a sufficient fact, the
/// region expression the state could not separate from ⊤, or the absence
/// of any path establishing the obligation at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvenanceReason {
    /// The flow state entailed the obligation: the check is redundant.
    Entailed,
    /// The site is unreachable (contradictory flow state); trivially safe.
    Unreachable,
    /// A control-flow meet discarded `lost`, and the state *plus that one
    /// fact* would have entailed the obligation. `ordinal` is the
    /// function-local index of the meet (0-based, in execution order of
    /// the verdict pass).
    MeetPoint {
        /// Which construct performed the meet.
        kind: MeetKind,
        /// Function-local meet index in verdict-pass execution order.
        ordinal: u32,
        /// The discarded fact that would have proven the obligation.
        lost: Fact,
    },
    /// A region expression in the obligation could not be proven ≠ ⊤ —
    /// the ⊤-weakening of an unknown/possibly-null region blocked
    /// elimination.
    TopWeakening {
        /// The expression the state cannot separate from ⊤.
        expr: RegionExpr,
    },
    /// No recorded meet or ⊤-weakening explains the failure: the
    /// obligation was never established on any path.
    NeverEstablished,
}

impl std::fmt::Display for ProvenanceReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProvenanceReason::Entailed => write!(f, "entailed by the flow state"),
            ProvenanceReason::Unreachable => write!(f, "unreachable (contradictory state)"),
            ProvenanceReason::MeetPoint { kind, ordinal, lost } => {
                write!(f, "lost {lost} at {} #{ordinal}", kind.name())
            }
            ProvenanceReason::TopWeakening { expr } => {
                write!(f, "{expr} may be ⊤ (null or unknown region)")
            }
            ProvenanceReason::NeverEstablished => write!(f, "never established on any path"),
        }
    }
}

/// Provenance record for one `chk` site: the obligation, the verdict, and
/// the reason the verdict came out that way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteProvenance {
    /// The fact the check asserts.
    pub fact: Fact,
    /// `true` when the check was proven redundant (eliminated).
    pub safe: bool,
    /// Why — see [`ProvenanceReason`].
    pub reason: ProvenanceReason,
}

/// A meet executed during the verdict pass, with the facts it discarded.
struct MeetEvent {
    kind: MeetKind,
    ordinal: u32,
    lost: Vec<Fact>,
}

/// Inferred input/output summaries for one function, in "summary space":
/// ρᵢ is the i-th parameter's region, ρₙ (n = parameter count) the
/// result's.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Facts guaranteed at every call site (the function may assume them).
    pub input: ConstraintSet,
    /// Facts the body guarantees about parameters and result on return.
    pub output: ConstraintSet,
}

/// Result of analysing a program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-function summaries (indexed by [`crate::FuncId`]).
    pub summaries: Vec<Summary>,
    /// Verdict per check site: `true` means the check is statically
    /// redundant and can be removed.
    pub site_safe: HashMap<SiteId, bool>,
    /// Flow state recorded at each check site (for diagnostics).
    pub site_states: HashMap<SiteId, ConstraintSet>,
    /// The sites whose checks were eliminated, ascending — the
    /// machine-readable record consumers (differential oracles, reports)
    /// use to cross-check the eliminations dynamically. Always equal to
    /// the `true` entries of `site_safe`.
    pub eliminated_sites: Vec<SiteId>,
    /// Per-site provenance: the obligation, the verdict, and the reason
    /// (meet point, ⊤-weakening, …) behind it. Keyed by a `BTreeMap` so
    /// consumers iterate deterministically. Covers exactly the sites in
    /// `site_safe`.
    pub provenance: BTreeMap<SiteId, SiteProvenance>,
    /// Global fixpoint rounds taken, counting the last one, which changes
    /// no summary; the cap (200) when the sound fallback to empty
    /// summaries was taken. Each round reads the previous round's
    /// summaries. Round 1 analyses every function; a later round
    /// re-analyses only those whose input summary or some callee's output
    /// summary the previous round changed.
    pub rounds: usize,
}

impl Analysis {
    /// Whether the check at `site` was proven redundant (false for unknown
    /// sites — a site the analysis never saw must keep its check).
    pub fn is_safe(&self, site: SiteId) -> bool {
        self.site_safe.get(&site).copied().unwrap_or(false)
    }

    /// Number of sites proven safe.
    pub fn safe_count(&self) -> usize {
        self.site_safe.values().filter(|&&b| b).count()
    }

    /// Total recorded sites.
    pub fn site_count(&self) -> usize {
        self.site_safe.len()
    }

    /// Provenance for a site, if the analysis saw it.
    pub fn provenance_of(&self, site: SiteId) -> Option<&SiteProvenance> {
        self.provenance.get(&site)
    }
}

/// Upper bound on global rounds; reaching it triggers a sound fallback
/// (empty summaries, one final pass).
const MAX_ROUNDS: usize = 200;

/// Runs the whole-program inference.
pub fn analyse(prog: &Program) -> Analysis {
    analyse_capped(prog, MAX_ROUNDS)
}

/// A `chk` site as the latest analysis of its function saw it.
struct CheckRecord {
    site: SiteId,
    fact: Fact,
    safe: bool,
    state: ConstraintSet,
}

/// What a function's latest analysis left for later rounds. It stays valid
/// while neither the function's input summary nor any callee's output
/// summary changes, since the analysis reads nothing else.
#[derive(Default)]
struct LastAnalysis {
    /// Per non-exported callee, the meet of this function's call-site
    /// contributions to the callee's input summary.
    contribs: Vec<(FuncId, ConstraintSet)>,
    /// One record per `chk` site; inside a loop, the last iteration's.
    checks: Vec<CheckRecord>,
}

/// [`analyse`] with the round cap as a parameter, so that tests reach the
/// fallback.
fn analyse_capped(prog: &Program, cap: usize) -> Analysis {
    let nf = prog.funcs.len();
    let callees: Vec<Vec<FuncId>> = prog.funcs.iter().map(FuncDef::callees).collect();
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); nf];
    for (c, gs) in callees.iter().enumerate() {
        for g in gs {
            callers[g.0 as usize].push(c);
        }
    }
    let mut summaries = initial_summaries(prog);
    let mut last: Vec<LastAnalysis> = (0..nf).map(|_| LastAnalysis::default()).collect();
    // The analysed function's call-site contributions, by callee; drained
    // into its `LastAnalysis` after each analysis.
    let mut in_acc: Vec<Option<ConstraintSet>> = vec![None; nf];
    let mut dirty = vec![true; nf];
    let mut rounds = 0;
    let fell_back = loop {
        rounds += 1;
        // Every analysis in a round reads the previous round's summaries,
        // so new outputs are applied only once the round is done.
        let mut new_outputs: Vec<Option<ConstraintSet>> = vec![None; nf];
        for (i, f) in prog.funcs.iter().enumerate().filter(|&(i, _)| dirty[i]) {
            let mut checks = Vec::new();
            let mut ctx = Ctx::new(prog, f, &summaries);
            ctx.in_acc = Some(&mut in_acc);
            ctx.records = Some(&mut checks);
            let end = ctx.exec(&f.body, summaries[i].input.clone());
            // Output summary: the meet over all exits (explicit returns and
            // void fall-through).
            let exit = ctx.ret_acc.meet(&end);
            new_outputs[i] = Some(project_output(f, &exit));
            let contribs = callees[i]
                .iter()
                .filter_map(|&g| Some((g, in_acc[g.0 as usize].take()?)))
                .collect();
            last[i] = LastAnalysis { contribs, checks };
        }
        let mut output_changed = vec![false; nf];
        for (i, out) in new_outputs.into_iter().enumerate() {
            if let Some(out) = out.filter(|out| *out != summaries[i].output) {
                summaries[i].output = out;
                output_changed[i] = true;
            }
        }
        let mut input_changed = vec![false; nf];
        for (g, f) in prog.funcs.iter().enumerate() {
            if f.exported || !callers[g].iter().any(|&c| dirty[c]) {
                continue;
            }
            let new_in = callers[g]
                .iter()
                .flat_map(|&c| &last[c].contribs)
                .filter(|(h, _)| h.0 as usize == g)
                .fold(ConstraintSet::contradiction(), |acc, (_, contrib)| acc.meet(contrib));
            if new_in != summaries[g].input {
                summaries[g].input = new_in;
                input_changed[g] = true;
            }
        }

        if !output_changed.contains(&true) && !input_changed.contains(&true) {
            break false;
        }
        if rounds >= cap {
            fall_back(&mut summaries);
            break true;
        }
        dirty = (0..nf)
            .map(|i| input_changed[i] || callees[i].iter().any(|g| output_changed[g.0 as usize]))
            .collect();
    };

    let mut verdicts = Verdicts::default();
    for (i, analysed) in last.into_iter().enumerate() {
        if fell_back || analysed.checks.iter().any(|c| !c.safe) {
            // After the fallback the records are stale. A retained check
            // needs loss tracking to name what blocked it; meet ordinals
            // are function-local, so analysing this function alone keeps
            // them exact.
            verdicts.verdict_pass(prog, &summaries, i);
            continue;
        }
        for c in analysed.checks {
            let reason = if c.state.is_contradictory() {
                ProvenanceReason::Unreachable
            } else {
                ProvenanceReason::Entailed
            };
            verdicts.insert(c.site, c.state, SiteProvenance { fact: c.fact, safe: true, reason });
        }
    }
    let analysis = verdicts.into_analysis(summaries, rounds);

    #[cfg(debug_assertions)]
    {
        let r = reference(prog, cap);
        debug_assert_eq!(analysis.summaries, r.summaries, "summaries differ from the reference");
        debug_assert_eq!(analysis.site_safe, r.site_safe, "site_safe differs from the reference");
        debug_assert_eq!(analysis.site_states, r.site_states, "site_states differ");
        debug_assert_eq!(analysis.eliminated_sites, r.eliminated_sites, "eliminated_sites differ");
        debug_assert_eq!(analysis.provenance, r.provenance, "provenance differs");
        debug_assert_eq!(analysis.rounds, r.rounds, "rounds differ from the reference");
    }
    analysis
}

/// The analysis [`analyse_capped`] must equal: every round analyses every
/// function, and a verdict pass then analyses each once more with loss
/// tracking.
#[cfg(debug_assertions)]
fn reference(prog: &Program, cap: usize) -> Analysis {
    let nf = prog.funcs.len();
    let mut summaries = initial_summaries(prog);
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut in_acc: Vec<Option<ConstraintSet>> = vec![None; nf];
        let mut changed = false;

        let mut new_outputs: Vec<ConstraintSet> = Vec::with_capacity(nf);
        for (i, f) in prog.funcs.iter().enumerate() {
            let mut ctx = Ctx::new(prog, f, &summaries);
            ctx.in_acc = Some(&mut in_acc);
            let end = ctx.exec(&f.body, summaries[i].input.clone());
            let exit = ctx.ret_acc.meet(&end);
            new_outputs.push(project_output(f, &exit));
        }
        for (i, out) in new_outputs.into_iter().enumerate() {
            if out != summaries[i].output {
                summaries[i].output = out;
                changed = true;
            }
        }
        for (i, f) in prog.funcs.iter().enumerate() {
            if f.exported {
                continue;
            }
            let new_in = in_acc[i].take().unwrap_or_else(ConstraintSet::contradiction);
            if new_in != summaries[i].input {
                summaries[i].input = new_in;
                changed = true;
            }
        }

        if !changed {
            break;
        }
        if rounds >= cap {
            fall_back(&mut summaries);
            break;
        }
    }

    let mut verdicts = Verdicts::default();
    for i in 0..nf {
        verdicts.verdict_pass(prog, &summaries, i);
    }
    verdicts.into_analysis(summaries, rounds)
}

/// The greatest fixed point's starting point: optimistically the
/// contradictory top, except that exported functions' inputs are pinned to
/// the empty set.
fn initial_summaries(prog: &Program) -> Vec<Summary> {
    prog.funcs
        .iter()
        .map(|f| Summary {
            input: if f.exported { ConstraintSet::empty() } else { ConstraintSet::contradiction() },
            output: ConstraintSet::contradiction(),
        })
        .collect()
}

/// The sound fallback once the round cap is reached: empty summaries
/// everywhere.
fn fall_back(summaries: &mut [Summary]) {
    for s in summaries {
        s.input = ConstraintSet::empty();
        s.output = ConstraintSet::empty();
    }
}

/// The per-site results that become [`Analysis`]'s verdict fields.
#[derive(Default)]
struct Verdicts {
    site_safe: HashMap<SiteId, bool>,
    site_states: HashMap<SiteId, ConstraintSet>,
    provenance: BTreeMap<SiteId, SiteProvenance>,
}

impl Verdicts {
    fn insert(&mut self, site: SiteId, state: ConstraintSet, prov: SiteProvenance) {
        self.site_safe.insert(site, prov.safe);
        self.site_states.insert(site, state);
        self.provenance.insert(site, prov);
    }

    /// The verdict pass for function `i`: analyses it against `summaries`
    /// with loss tracking and records each of its `chk` sites.
    fn verdict_pass(&mut self, prog: &Program, summaries: &[Summary], i: usize) {
        let f = &prog.funcs[i];
        let mut ctx = Ctx::new(prog, f, summaries);
        ctx.verdicts = Some(self);
        ctx.exec(&f.body, summaries[i].input.clone());
    }

    fn into_analysis(self, summaries: Vec<Summary>, rounds: usize) -> Analysis {
        let mut eliminated_sites: Vec<SiteId> =
            self.site_safe.iter().filter(|&(_, &safe)| safe).map(|(&s, _)| s).collect();
        eliminated_sites.sort_unstable();
        Analysis {
            summaries,
            site_safe: self.site_safe,
            site_states: self.site_states,
            eliminated_sites,
            provenance: self.provenance,
            rounds,
        }
    }
}

/// Validates a program against an inferred (or hand-written) analysis,
/// playing the role of Figure 6's *checking* judgments: every function's
/// body, analysed from its input summary, must (a) prove each callee's
/// input summary at each call site, and (b) prove its own output summary
/// at every exit. Returns the list of violations (empty = well-typed).
///
/// The summaries produced by [`analyse`] always validate — that is the
/// greatest-fixed-point property — so this is primarily a defence against
/// hand-edited or stale summaries, and a machine-checkable statement of
/// the soundness argument.
pub fn validate(prog: &Program, analysis: &Analysis) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, f) in prog.funcs.iter().enumerate() {
        let mut ctx = Ctx::new(prog, f, &analysis.summaries);
        ctx.violations = Some(&mut violations);
        let end = ctx.exec(&f.body, analysis.summaries[i].input.clone());
        let exit = ctx.ret_acc.meet(&end);
        let out = project_output(f, &exit);
        if !out.entails_all(&analysis.summaries[i].output) {
            violations.push(format!(
                "function `{}`: body proves {} but the output summary claims {}",
                f.name, out, analysis.summaries[i].output
            ));
        }
    }
    violations
}

/// Projects a function's final flow state onto its summary space:
/// parameters keep their ρ indices; the result variable's region is
/// renamed to ρₙ.
fn project_output(f: &FuncDef, end: &ConstraintSet) -> ConstraintSet {
    let n = f.params.len() as u32;
    let result = f.result.filter(|&r| f.var_has_region(r));
    let keep = |RhoId(i): RhoId| {
        (i < n && f.var_has_region(VarId(i))) || result.map(|r| r.0 == i).unwrap_or(false)
    };
    let restricted = end.restrict(keep);
    match result {
        None => restricted,
        Some(r) => {
            debug_assert!(r.0 >= n, "results are locals, never parameters");
            let mut subst: Vec<RegionExpr> =
                (0..f.var_count() as u32).map(|i| RegionExpr::Abstract(RhoId(i))).collect();
            subst[r.0 as usize] = RegionExpr::Abstract(RhoId(n));
            restricted.subst(&subst)
        }
    }
}

/// Projects a caller's flow state onto a callee's formal space: every
/// candidate fact over the callee's region parameters (and the region
/// constants) that the caller can prove about the actuals.
fn project_call_site(
    prog: &Program,
    callee: &FuncDef,
    actual_subst: &[RegionExpr],
    state: &ConstraintSet,
) -> ConstraintSet {
    let mut universe: Vec<RegionExpr> =
        callee.region_params().map(|v| RegionExpr::Abstract(v.rho())).collect();
    for c in 0..prog.consts.len() as u32 {
        universe.push(RegionExpr::Const(crate::types::ConstId(c)));
    }
    universe.push(RegionExpr::Top);

    let mut out = Vec::new();
    for &a in &universe {
        for cand in [Fact::IsTop(a), Fact::NotTop(a)] {
            if cand.subst(actual_subst).map(|f| state.entails(f)).unwrap_or(true) {
                out.push(cand);
            }
        }
        for &b in &universe {
            if a == b {
                continue;
            }
            for cand in [Fact::Eq(a, b), Fact::Sub(a, b), Fact::EqOrNull(a, b)] {
                if cand.subst(actual_subst).map(|f| state.entails(f)).unwrap_or(true) {
                    out.push(cand);
                }
            }
        }
    }
    ConstraintSet::from_facts(out)
}

/// Per-function execution context.
struct Ctx<'a> {
    prog: &'a Program,
    func: &'a FuncDef,
    summaries: &'a [Summary],
    /// When present, call-site facts are accumulated for the callees'
    /// input summaries.
    in_acc: Option<&'a mut Vec<Option<ConstraintSet>>>,
    /// When present, each `chk` execution records its site, replacing the
    /// site's earlier record.
    records: Option<&'a mut Vec<CheckRecord>>,
    /// When present, `chk` verdicts are recorded with loss tracking.
    verdicts: Option<&'a mut Verdicts>,
    /// Meet of the flow states at every `return` executed so far (starts
    /// contradictory: no returns seen).
    ret_acc: ConstraintSet,
    /// When present, the Figure 6 *checking* obligations are verified and
    /// violations recorded: call sites must entail the callee's input
    /// summary (fncall rule).
    violations: Option<&'a mut Vec<String>>,
    /// Meets recorded during the verdict pass, in execution order
    /// (function-local). Empty unless `verdicts` is active — the fixpoint
    /// passes never pay for loss tracking.
    meets: Vec<MeetEvent>,
}

impl<'a> Ctx<'a> {
    /// A context that only runs the dataflow; callers switch on what to
    /// collect.
    fn new(prog: &'a Program, func: &'a FuncDef, summaries: &'a [Summary]) -> Ctx<'a> {
        Ctx {
            prog,
            func,
            summaries,
            in_acc: None,
            records: None,
            verdicts: None,
            ret_acc: ConstraintSet::contradiction(),
            violations: None,
            meets: Vec::new(),
        }
    }
}

impl Ctx<'_> {
    fn rho(&self, v: VarId) -> RegionExpr {
        RegionExpr::Abstract(v.rho())
    }

    fn has_region(&self, v: VarId) -> bool {
        self.func.var_has_region(v)
    }

    fn exec(&mut self, s: &Stmt, mut d: ConstraintSet) -> ConstraintSet {
        match s {
            Stmt::Seq(ss) => {
                for s in ss {
                    d = self.exec(s, d);
                }
                d
            }
            Stmt::If { cond, then_s, else_s } => {
                let (mut dt, mut de) = (d.clone(), d);
                if self.has_region(*cond) {
                    dt.add(Fact::NotTop(self.rho(*cond)));
                    de.add(Fact::IsTop(self.rho(*cond)));
                }
                let dt = self.exec(then_s, dt);
                let de = self.exec(else_s, de);
                if self.verdicts.is_some() {
                    let (met, lost) = dt.meet_with_loss(&de);
                    self.note_meet(MeetKind::IfJoin, lost);
                    met
                } else {
                    dt.meet(&de)
                }
            }
            Stmt::While { cond, body } => {
                // Local descending fixpoint on the loop-entry state.
                let pre_loop = if self.verdicts.is_some() { Some(d.clone()) } else { None };
                let mut entry = d;
                loop {
                    let refined = self.refine_true(*cond, entry.clone());
                    // Inner iterations must not record verdicts — only the
                    // final stable pass below does. `chk` records are
                    // rewritten on every iteration instead: the last one
                    // runs the body from the stable entry state too.
                    let saved = self.verdicts.take();
                    let after = self.exec(body, refined);
                    self.verdicts = saved;
                    let next = entry.meet(&after);
                    if next == entry {
                        break;
                    }
                    entry = next;
                }
                if let Some(pre) = pre_loop {
                    // Record what the loop-entry fixpoint cost relative to
                    // the pre-loop state *before* the verdict-recording
                    // pass, so checks inside the body can attribute to it.
                    let lost: Vec<Fact> = pre.facts().filter(|&f| !entry.entails(f)).collect();
                    self.note_meet(MeetKind::LoopEntry, lost);
                }
                if self.verdicts.is_some() {
                    let refined = self.refine_true(*cond, entry.clone());
                    self.exec(body, refined);
                }
                let mut exit = entry;
                if self.has_region(*cond) {
                    exit.add(Fact::IsTop(self.rho(*cond)));
                }
                exit
            }
            Stmt::Assign { dst, src } => {
                if self.has_region(*dst) {
                    debug_assert_ne!(dst, src, "dst is never used elsewhere in the statement");
                    d.kill_rho(dst.rho());
                    if self.has_region(*src) {
                        d.add(Fact::Eq(self.rho(*dst), self.rho(*src)));
                    }
                }
                d
            }
            Stmt::AssignNull { dst } => {
                if self.has_region(*dst) {
                    d.kill_rho(dst.rho());
                    d.add(Fact::IsTop(self.rho(*dst)));
                }
                d
            }
            Stmt::Havoc { dst } => {
                if self.has_region(*dst) {
                    d.kill_rho(dst.rho());
                }
                d
            }
            Stmt::ReadField { dst, obj, field } => {
                // Dereference: obj is non-null past this point.
                d.add(Fact::NotTop(self.rho(*obj)));
                let VarType::Ptr(sid) = self.func.var_type(*obj) else {
                    panic!("field read through non-pointer variable");
                };
                match self.prog.struct_decl(sid).field(*field) {
                    FieldType::Int => d,
                    FieldType::Region => {
                        if self.has_region(*dst) {
                            d.kill_rho(dst.rho());
                        }
                        d
                    }
                    FieldType::Ptr { qual, .. } => {
                        let qual = *qual;
                        if self.has_region(*dst) {
                            d.kill_rho(dst.rho());
                            d.add_all(qual.read_facts(self.rho(*dst), self.rho(*obj)));
                        }
                        d
                    }
                }
            }
            Stmt::WriteField { obj, .. } => {
                d.add(Fact::NotTop(self.rho(*obj)));
                d
            }
            Stmt::New { dst, region, .. } => {
                // ralloc: the new object lives in the designated region,
                // which must be a real (non-⊤) region.
                d.add(Fact::NotTop(self.rho(*region)));
                if self.has_region(*dst) {
                    d.kill_rho(dst.rho());
                    d.add(Fact::Eq(self.rho(*dst), self.rho(*region)));
                    d.add(Fact::NotTop(self.rho(*dst)));
                }
                d
            }
            Stmt::Assume { facts } => {
                d.add_all(facts.iter().copied());
                d
            }
            Stmt::Return { src } => {
                // Model `result = src` (when the function has a result),
                // fold the state into the output accumulator, and make the
                // fall-through unreachable.
                if let (Some(res), Some(src)) = (self.func.result, src) {
                    if self.func.var_has_region(res) {
                        d.kill_rho(res.rho());
                        if self.has_region(*src) {
                            d.add(Fact::Eq(self.rho(res), self.rho(*src)));
                        }
                    }
                }
                self.ret_acc = self.ret_acc.meet(&d);
                ConstraintSet::contradiction()
            }
            Stmt::Chk { fact, site } => {
                if self.verdicts.is_some() {
                    let is_safe = d.entails(*fact);
                    let reason = if is_safe {
                        if d.is_contradictory() {
                            ProvenanceReason::Unreachable
                        } else {
                            ProvenanceReason::Entailed
                        }
                    } else {
                        self.classify_retained(&d, *fact)
                    };
                    if let Some(verdicts) = self.verdicts.as_deref_mut() {
                        let prov = SiteProvenance { fact: *fact, safe: is_safe, reason };
                        verdicts.insert(*site, d.clone(), prov);
                    }
                }
                if let Some(records) = self.records.as_deref_mut() {
                    let safe = d.entails(*fact);
                    let record = CheckRecord { site: *site, fact: *fact, safe, state: d.clone() };
                    match records.iter_mut().find(|r| r.site == *site) {
                        Some(old) => *old = record,
                        None => records.push(record),
                    }
                }
                // After a passing check, the property holds.
                d.add(*fact);
                d
            }
            Stmt::Call { dst, callee, args } => self.exec_call(*dst, *callee, args, d),
            Stmt::Task { region, body } => {
                // spawn: the handle must designate a real region, exactly
                // as for `new`.
                d.add(Fact::NotTop(self.rho(*region)));
                // The body runs in its own shard against a fresh facet of
                // `region`; the translation guarantees it only touches
                // task-local variables, so its effects are invisible here.
                // Analyse it from scratch (no parent facts carry over —
                // the facet is a different concrete region, only non-⊤ is
                // known) purely for its own check verdicts, then discard
                // the resulting state.
                let mut task_d = ConstraintSet::empty();
                task_d.add(Fact::NotTop(self.rho(*region)));
                let _ = self.exec(body, task_d);
                d
            }
        }
    }

    /// Records a verdict-pass meet (no-op outside the verdict pass — the
    /// fixpoint passes never track losses).
    fn note_meet(&mut self, kind: MeetKind, lost: Vec<Fact>) {
        if self.verdicts.is_some() {
            let ordinal = self.meets.len() as u32;
            self.meets.push(MeetEvent { kind, ordinal, lost });
        }
    }

    /// Classifies why a retained check could not be eliminated: the most
    /// recent meet whose discarded fact would have completed the proof, a
    /// ⊤-weakened region expression in the obligation, or — failing both —
    /// an obligation never established on any path.
    fn classify_retained(&self, d: &ConstraintSet, fact: Fact) -> ProvenanceReason {
        for m in self.meets.iter().rev() {
            for &lost in &m.lost {
                let mut with = d.clone();
                with.add(lost);
                if with.entails(fact) {
                    return ProvenanceReason::MeetPoint { kind: m.kind, ordinal: m.ordinal, lost };
                }
            }
        }
        for expr in fact.exprs() {
            if !d.entails(Fact::NotTop(expr)) {
                return ProvenanceReason::TopWeakening { expr };
            }
        }
        ProvenanceReason::NeverEstablished
    }

    fn refine_true(&self, cond: VarId, mut d: ConstraintSet) -> ConstraintSet {
        if self.has_region(cond) {
            d.add(Fact::NotTop(self.rho(cond)));
        }
        d
    }

    fn exec_call(
        &mut self,
        dst: Option<VarId>,
        callee: Callee,
        args: &[VarId],
        mut d: ConstraintSet,
    ) -> ConstraintSet {
        let kill_dst = |d: &mut ConstraintSet, dst: Option<VarId>, func: &FuncDef| {
            if let Some(v) = dst {
                if func.var_has_region(v) {
                    d.kill_rho(v.rho());
                }
            }
        };
        match callee {
            Callee::NewRegion => {
                kill_dst(&mut d, dst, self.func);
                if let Some(v) = dst {
                    d.add(Fact::NotTop(self.rho(v)));
                }
                d
            }
            Callee::NewSubRegion => {
                let parent = args[0];
                d.add(Fact::NotTop(self.rho(parent)));
                kill_dst(&mut d, dst, self.func);
                if let Some(v) = dst {
                    d.add(Fact::Sub(self.rho(v), self.rho(parent)));
                    d.add(Fact::NotTop(self.rho(v)));
                }
                d
            }
            Callee::DeleteRegion => {
                d.add(Fact::NotTop(self.rho(args[0])));
                d
            }
            Callee::RegionOf => {
                let x = args[0];
                d.add(Fact::NotTop(self.rho(x)));
                kill_dst(&mut d, dst, self.func);
                if let Some(v) = dst {
                    d.add(Fact::Eq(self.rho(v), self.rho(x)));
                }
                d
            }
            Callee::User(gid) => {
                let g = self.prog.func(gid);
                let n = g.params.len();
                debug_assert_eq!(args.len(), n, "arity mismatch calling {}", g.name);
                // Build the actual substitution: formal ρᵢ ↦ the actual's
                // region (⊤ for non-region arguments, about which no
                // summary fact may speak), and formal ρₙ ↦ the
                // destination's region.
                let mut subst: Vec<RegionExpr> = args
                    .iter()
                    .map(|&a| if self.has_region(a) { self.rho(a) } else { RegionExpr::Top })
                    .collect();
                let result_expr = match dst {
                    Some(v) if self.has_region(v) => self.rho(v),
                    _ => RegionExpr::Top,
                };
                subst.push(result_expr);

                // Figure 6 (fncall): the call site must prove the
                // callee's input property for the actuals.
                if let Some(violations) = self.violations.as_mut() {
                    let obligation = self.summaries[gid.0 as usize].input.subst(&subst[..n]);
                    if !d.entails_all(&obligation) {
                        violations.push(format!(
                            "call to `{}` in `{}`: input summary not entailed \
                             (need {}, have {})",
                            g.name, self.func.name, obligation, d
                        ));
                    }
                }
                // Contribute this call site to the callee's input summary.
                if !g.exported && self.in_acc.is_some() {
                    let contrib = project_call_site(self.prog, g, &subst[..n], &d);
                    if let Some(acc) = self.in_acc.as_mut() {
                        let slot = &mut acc[gid.0 as usize];
                        *slot = Some(match slot.take() {
                            None => contrib,
                            Some(prev) => prev.meet(&contrib),
                        });
                    }
                }

                kill_dst(&mut d, dst, self.func);
                // The callee's output summary holds for the actuals.
                let out = self.summaries[gid.0 as usize].output.subst(&subst);
                d.add_all(out.facts());
                d
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use crate::types::{FieldQual, StructDecl, StructId};

    /// Builds the Figure 1 list-construction loop:
    ///
    /// ```c
    /// region r = newregion();
    /// struct rlist *rl, *last = NULL;
    /// while (...) {
    ///   rl = ralloc(r, struct rlist);
    ///   rl->data = ralloc(r, struct finfo);   // chk sameregion
    ///   rl->next = last;                      // chk sameregion
    ///   last = rl;
    /// }
    /// ```
    fn figure1_program() -> Program {
        let mut p = Program::new();
        let rlist = StructId(0);
        let finfo = StructId(1);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![
                ("next".into(), FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion }),
                ("data".into(), FieldType::Ptr { target: finfo, qual: FieldQual::SameRegion }),
            ],
        });
        p.add_struct(StructDecl {
            name: "finfo".into(),
            fields: vec![("x".into(), FieldType::Int)],
        });

        // Vars: 0 = r (region), 1 = rl, 2 = last, 3 = data tmp, 4 = cond.
        let (r, rl, last, tmp, cond) = (VarId(0), VarId(1), VarId(2), VarId(3), VarId(4));
        let body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
            Stmt::AssignNull { dst: last },
            Stmt::While {
                cond,
                body: Box::new(Stmt::Seq(vec![
                    Stmt::New { dst: rl, ty: StructId(0), region: r },
                    Stmt::New { dst: tmp, ty: StructId(1), region: r },
                    Stmt::Chk {
                        fact: Fact::EqOrNull(
                            RegionExpr::Abstract(tmp.rho()),
                            RegionExpr::Abstract(rl.rho()),
                        ),
                        site: SiteId(0),
                    },
                    Stmt::WriteField { obj: rl, field: 1, src: tmp },
                    Stmt::Chk {
                        fact: Fact::EqOrNull(
                            RegionExpr::Abstract(last.rho()),
                            RegionExpr::Abstract(rl.rho()),
                        ),
                        site: SiteId(1),
                    },
                    Stmt::WriteField { obj: rl, field: 0, src: last },
                    Stmt::Assign { dst: last, src: rl },
                ])),
            },
            Stmt::Call { dst: None, callee: Callee::DeleteRegion, args: vec![r] },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![
                VarType::Region,
                VarType::Ptr(StructId(0)),
                VarType::Ptr(StructId(0)),
                VarType::Ptr(StructId(1)),
                VarType::Int,
            ],
            result: None,
            body,
        });
        p
    }

    #[test]
    fn figure1_loop_is_fully_verified() {
        let p = figure1_program();
        let a = analyse(&p);
        assert!(a.is_safe(SiteId(0)), "rl->data = ralloc(r, …): {}", a.site_states[&SiteId(0)]);
        assert!(a.is_safe(SiteId(1)), "rl->next = last: {}", a.site_states[&SiteId(1)]);
        assert_eq!(a.safe_count(), 2);
    }

    #[test]
    fn array_read_defeats_verification() {
        // x = ralloc(r); x->next = objects[23];  — §5.2's negative idiom.
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        let (r, x, y) = (VarId(0), VarId(1), VarId(2));
        let body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
            Stmt::New { dst: x, ty: rlist, region: r },
            Stmt::Havoc { dst: y }, // objects[23]
            Stmt::Chk {
                fact: Fact::EqOrNull(RegionExpr::Abstract(y.rho()), RegionExpr::Abstract(x.rho())),
                site: SiteId(0),
            },
            Stmt::WriteField { obj: x, field: 0, src: y },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![VarType::Region, VarType::Ptr(rlist), VarType::Ptr(rlist)],
            result: None,
            body,
        });
        let a = analyse(&p);
        assert!(!a.is_safe(SiteId(0)), "array reads yield unknown regions");
    }

    #[test]
    fn task_body_is_analysed_in_isolation() {
        // r = newregion(); task r { x = new(r); chk same(x, x); }
        // y = new(r);  // after the task: parent facts flow through it
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        let (r, x, y, z) = (VarId(0), VarId(1), VarId(2), VarId(3));
        let body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
            Stmt::New { dst: z, ty: rlist, region: r },
            Stmt::Task {
                region: r,
                body: Box::new(Stmt::Seq(vec![
                    Stmt::New { dst: x, ty: rlist, region: r },
                    // Same-variable store: provable inside the task from
                    // the task's own facts alone.
                    Stmt::Chk {
                        fact: Fact::EqOrNull(
                            RegionExpr::Abstract(x.rho()),
                            RegionExpr::Abstract(x.rho()),
                        ),
                        site: SiteId(0),
                    },
                    Stmt::WriteField { obj: x, field: 0, src: x },
                    // Parent-derived obligation: `z` was allocated before
                    // the spawn, but that fact must not leak into the
                    // task body (the facet is a different concrete
                    // region), so this stays unproven.
                    Stmt::Chk {
                        fact: Fact::EqOrNull(
                            RegionExpr::Abstract(z.rho()),
                            RegionExpr::Abstract(x.rho()),
                        ),
                        site: SiteId(1),
                    },
                ])),
            },
            // After the task, parent facts still hold: y = new(r) then a
            // check against z is provable exactly as without the task.
            Stmt::New { dst: y, ty: rlist, region: r },
            Stmt::Chk {
                fact: Fact::EqOrNull(RegionExpr::Abstract(z.rho()), RegionExpr::Abstract(y.rho())),
                site: SiteId(2),
            },
            Stmt::WriteField { obj: y, field: 0, src: z },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![
                VarType::Region,
                VarType::Ptr(rlist),
                VarType::Ptr(rlist),
                VarType::Ptr(rlist),
            ],
            result: None,
            body,
        });
        let a = analyse(&p);
        assert!(a.is_safe(SiteId(0)), "task-local facts prove task-local checks");
        assert!(!a.is_safe(SiteId(1)), "parent facts must not leak into the task body");
        assert!(a.is_safe(SiteId(2)), "the task is effect-free for the parent's state");
    }

    #[test]
    fn regionof_idiom_is_verified() {
        // x = ralloc(r, ...); x->next = ralloc(regionof(x), ...);
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        let (r, x, r2, y) = (VarId(0), VarId(1), VarId(2), VarId(3));
        let body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
            Stmt::New { dst: x, ty: rlist, region: r },
            Stmt::Call { dst: Some(r2), callee: Callee::RegionOf, args: vec![x] },
            Stmt::New { dst: y, ty: rlist, region: r2 },
            Stmt::Chk {
                fact: Fact::EqOrNull(RegionExpr::Abstract(y.rho()), RegionExpr::Abstract(x.rho())),
                site: SiteId(0),
            },
            Stmt::WriteField { obj: x, field: 0, src: y },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![
                VarType::Region,
                VarType::Ptr(rlist),
                VarType::Region,
                VarType::Ptr(rlist),
            ],
            result: None,
            body,
        });
        let a = analyse(&p);
        assert!(a.is_safe(SiteId(0)));
    }

    #[test]
    fn constructor_called_from_unknown_context_keeps_check() {
        // rlist *new_rlist(region r, rlist *next) { new->next = next; }
        // called from an exported function with unrelated arguments: the
        // input summary cannot prove next ∈ r.
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        // new_rlist: params r (region), next (ptr); local new, result new.
        let (pr, pnext, pnew) = (VarId(0), VarId(1), VarId(2));
        let ctor_body = Stmt::Seq(vec![
            Stmt::New { dst: pnew, ty: rlist, region: pr },
            Stmt::Chk {
                fact: Fact::EqOrNull(
                    RegionExpr::Abstract(pnext.rho()),
                    RegionExpr::Abstract(pnew.rho()),
                ),
                site: SiteId(0),
            },
            Stmt::WriteField { obj: pnew, field: 0, src: pnext },
        ]);
        let ctor = p.add_func(FuncDef {
            name: "new_rlist".into(),
            exported: false,
            params: vec![VarType::Region, VarType::Ptr(rlist)],
            locals: vec![VarType::Ptr(rlist)],
            result: Some(pnew),
            body: ctor_body,
        });
        // main: two unrelated regions; next comes from the other region.
        let (r1, r2, a, b) = (VarId(0), VarId(1), VarId(2), VarId(3));
        let main_body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r1), callee: Callee::NewRegion, args: vec![] },
            Stmt::Call { dst: Some(r2), callee: Callee::NewRegion, args: vec![] },
            Stmt::New { dst: a, ty: rlist, region: r2 },
            Stmt::Call { dst: Some(b), callee: Callee::User(ctor), args: vec![r1, a] },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![
                VarType::Region,
                VarType::Region,
                VarType::Ptr(rlist),
                VarType::Ptr(rlist),
            ],
            result: None,
            body: main_body,
        });
        let a = analyse(&p);
        assert!(!a.is_safe(SiteId(0)), "mixed-region call sites defeat the constructor idiom");
    }

    /// The constructor idiom that *does* verify (as in moss): every call
    /// site passes `next` allocated in `r`. Returns the constructor's id.
    fn consistent_constructor_program() -> (Program, FuncId) {
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        let (pr, pnext, pnew) = (VarId(0), VarId(1), VarId(2));
        let ctor_body = Stmt::Seq(vec![
            Stmt::New { dst: pnew, ty: rlist, region: pr },
            Stmt::Chk {
                fact: Fact::EqOrNull(
                    RegionExpr::Abstract(pnext.rho()),
                    RegionExpr::Abstract(pnew.rho()),
                ),
                site: SiteId(0),
            },
            Stmt::WriteField { obj: pnew, field: 0, src: pnext },
        ]);
        let ctor = p.add_func(FuncDef {
            name: "new_rlist".into(),
            exported: false,
            params: vec![VarType::Region, VarType::Ptr(rlist)],
            locals: vec![VarType::Ptr(rlist)],
            result: Some(pnew),
            body: ctor_body,
        });
        let (r1, a, b) = (VarId(0), VarId(1), VarId(2));
        let main_body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r1), callee: Callee::NewRegion, args: vec![] },
            Stmt::New { dst: a, ty: rlist, region: r1 },
            Stmt::Call { dst: Some(b), callee: Callee::User(ctor), args: vec![r1, a] },
            // And chain: next result feeds back in.
            Stmt::Call { dst: Some(a), callee: Callee::User(ctor), args: vec![r1, b] },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![VarType::Region, VarType::Ptr(rlist), VarType::Ptr(rlist)],
            result: None,
            body: main_body,
        });
        (p, ctor)
    }

    #[test]
    fn constructor_with_consistent_sites_is_verified() {
        let (p, ctor) = consistent_constructor_program();
        let an = analyse(&p);
        assert!(
            an.is_safe(SiteId(0)),
            "consistent call sites let the input summary prove the check: {}",
            an.site_states[&SiteId(0)]
        );
        // The result summary must say: result lives in the region argument.
        let s = &an.summaries[ctor.0 as usize];
        assert!(s.output.entails(Fact::Eq(
            RegionExpr::Abstract(RhoId(2)), // ρ₂ = result (2 params)
            RegionExpr::Abstract(RhoId(0)), // ρ₀ = region param
        )));
    }

    #[test]
    fn subregion_parentptr_idiom_is_verified() {
        // sub = newsubregion(r); o = ralloc(sub); p = ralloc(r);
        // o->up = p;  — parentptr chk: ρ_o ≤ ρ_p.
        let mut p = Program::new();
        let node = StructId(0);
        p.add_struct(StructDecl {
            name: "node".into(),
            fields: vec![(
                "up".into(),
                FieldType::Ptr { target: node, qual: FieldQual::ParentPtr },
            )],
        });
        let (r, sub, o, q) = (VarId(0), VarId(1), VarId(2), VarId(3));
        let body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
            Stmt::Call { dst: Some(sub), callee: Callee::NewSubRegion, args: vec![r] },
            Stmt::New { dst: o, ty: node, region: sub },
            Stmt::New { dst: q, ty: node, region: r },
            Stmt::Chk {
                fact: Fact::Sub(RegionExpr::Abstract(o.rho()), RegionExpr::Abstract(q.rho())),
                site: SiteId(0),
            },
            Stmt::WriteField { obj: o, field: 0, src: q },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![VarType::Region, VarType::Region, VarType::Ptr(node), VarType::Ptr(node)],
            result: None,
            body,
        });
        let a = analyse(&p);
        assert!(a.is_safe(SiteId(0)), "{}", a.site_states[&SiteId(0)]);
    }

    #[test]
    fn if_refinement_knows_nullness() {
        // y = x->next; if (y) { x->next = y; /* chk provable: y nonnull &
        // sameregion-read */ }
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        let (x, y) = (VarId(0), VarId(1));
        let body = Stmt::Seq(vec![
            Stmt::ReadField { dst: y, obj: x, field: 0 },
            Stmt::If {
                cond: y,
                then_s: Box::new(Stmt::Seq(vec![
                    Stmt::Chk {
                        fact: Fact::EqOrNull(
                            RegionExpr::Abstract(y.rho()),
                            RegionExpr::Abstract(x.rho()),
                        ),
                        site: SiteId(0),
                    },
                    Stmt::WriteField { obj: x, field: 0, src: y },
                ])),
                else_s: Box::new(Stmt::skip()),
            },
        ]);
        p.add_func(FuncDef {
            name: "touch".into(),
            exported: true,
            params: vec![VarType::Ptr(rlist)],
            locals: vec![VarType::Ptr(rlist)],
            result: None,
            body,
        });
        let a = analyse(&p);
        assert!(a.is_safe(SiteId(0)));
    }

    #[test]
    fn heap_read_idiom_is_verified() {
        // x = ralloc(regionof(y)); x->next = y->next;  (§5.2 positive)
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        let (y, r, x, t) = (VarId(0), VarId(1), VarId(2), VarId(3));
        let body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r), callee: Callee::RegionOf, args: vec![y] },
            Stmt::New { dst: x, ty: rlist, region: r },
            Stmt::ReadField { dst: t, obj: y, field: 0 },
            Stmt::Chk {
                fact: Fact::EqOrNull(RegionExpr::Abstract(t.rho()), RegionExpr::Abstract(x.rho())),
                site: SiteId(0),
            },
            Stmt::WriteField { obj: x, field: 0, src: t },
        ]);
        p.add_func(FuncDef {
            name: "copy_head".into(),
            exported: true,
            params: vec![VarType::Ptr(rlist)],
            locals: vec![VarType::Region, VarType::Ptr(rlist), VarType::Ptr(rlist)],
            result: None,
            body,
        });
        let a = analyse(&p);
        assert!(a.is_safe(SiteId(0)), "{}", a.site_states[&SiteId(0)]);
    }

    #[test]
    fn eliminated_sites_mirror_the_safe_verdicts() {
        // Figure 1: both chk sites verify — the exported list names them
        // in ascending order.
        let p = figure1_program();
        let a = analyse(&p);
        assert_eq!(a.eliminated_sites, vec![SiteId(0), SiteId(1)]);
        assert_eq!(a.eliminated_sites.len(), a.safe_count());
        for &s in &a.eliminated_sites {
            assert!(a.is_safe(s));
        }
        // §5.2's negative idiom: the kept check must not be listed.
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        let (r, x, y) = (VarId(0), VarId(1), VarId(2));
        let body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
            Stmt::New { dst: x, ty: rlist, region: r },
            Stmt::Havoc { dst: y },
            Stmt::Chk {
                fact: Fact::EqOrNull(RegionExpr::Abstract(y.rho()), RegionExpr::Abstract(x.rho())),
                site: SiteId(0),
            },
            Stmt::WriteField { obj: x, field: 0, src: y },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![VarType::Region, VarType::Ptr(rlist), VarType::Ptr(rlist)],
            result: None,
            body,
        });
        let a = analyse(&p);
        assert!(a.eliminated_sites.is_empty());
        assert_eq!(a.site_count(), 1, "the kept site is still recorded in site_safe");
    }

    #[test]
    fn provenance_labels_eliminated_and_top_weakened_sites() {
        // Figure 1: both eliminated sites carry `Entailed`.
        let p = figure1_program();
        let a = analyse(&p);
        for site in [SiteId(0), SiteId(1)] {
            let prov = a.provenance_of(site).expect("every seen site has provenance");
            assert!(prov.safe);
            assert_eq!(prov.reason, ProvenanceReason::Entailed);
        }
        assert_eq!(a.provenance.len(), a.site_count(), "provenance covers site_safe");

        // §5.2's havoc idiom: the retained site blames the ⊤-weakened
        // source region (the array read yields an unknown region).
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        let (r, x, y) = (VarId(0), VarId(1), VarId(2));
        let body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
            Stmt::New { dst: x, ty: rlist, region: r },
            Stmt::Havoc { dst: y },
            Stmt::Chk {
                fact: Fact::EqOrNull(RegionExpr::Abstract(y.rho()), RegionExpr::Abstract(x.rho())),
                site: SiteId(0),
            },
            Stmt::WriteField { obj: x, field: 0, src: y },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![VarType::Region, VarType::Ptr(rlist), VarType::Ptr(rlist)],
            result: None,
            body,
        });
        let a = analyse(&p);
        let prov = a.provenance_of(SiteId(0)).unwrap();
        assert!(!prov.safe);
        assert_eq!(
            prov.reason,
            ProvenanceReason::TopWeakening { expr: RegionExpr::Abstract(y.rho()) },
            "the havoc'd variable's region is the blocking expression"
        );
        assert!(prov.reason.to_string().contains("⊤"));
    }

    #[test]
    fn provenance_blames_the_if_join_that_lost_the_fact() {
        // One arm allocates y in r, the other havocs it: the join discards
        // the proof and the retained check downstream names that meet.
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        let (r, x, y, c) = (VarId(0), VarId(1), VarId(2), VarId(3));
        let body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
            Stmt::New { dst: x, ty: rlist, region: r },
            Stmt::If {
                cond: c,
                then_s: Box::new(Stmt::New { dst: y, ty: rlist, region: r }),
                else_s: Box::new(Stmt::Havoc { dst: y }),
            },
            Stmt::Chk {
                fact: Fact::EqOrNull(RegionExpr::Abstract(y.rho()), RegionExpr::Abstract(x.rho())),
                site: SiteId(0),
            },
            Stmt::WriteField { obj: x, field: 0, src: y },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![VarType::Region, VarType::Ptr(rlist), VarType::Ptr(rlist), VarType::Int],
            result: None,
            body,
        });
        let a = analyse(&p);
        let prov = a.provenance_of(SiteId(0)).unwrap();
        assert!(!prov.safe);
        match prov.reason {
            ProvenanceReason::MeetPoint { kind, lost, .. } => {
                assert_eq!(kind, MeetKind::IfJoin);
                // The lost fact really does complete the proof.
                let mut with = a.site_states[&SiteId(0)].clone();
                with.add(lost);
                assert!(with.entails(prov.fact));
            }
            other => panic!("expected a meet-point reason, got {other:?}"),
        }
    }

    #[test]
    fn provenance_blames_the_loop_entry_meet() {
        // y ∈ r before the loop, but the loop body havocs y: the
        // loop-entry fixpoint discards the fact and the check inside the
        // body (recorded on the final stable pass) attributes to it.
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        let (r, x, y, c) = (VarId(0), VarId(1), VarId(2), VarId(3));
        let body = Stmt::Seq(vec![
            Stmt::Call { dst: Some(r), callee: Callee::NewRegion, args: vec![] },
            Stmt::New { dst: x, ty: rlist, region: r },
            Stmt::New { dst: y, ty: rlist, region: r },
            Stmt::While {
                cond: c,
                body: Box::new(Stmt::Seq(vec![
                    Stmt::Chk {
                        fact: Fact::EqOrNull(
                            RegionExpr::Abstract(y.rho()),
                            RegionExpr::Abstract(x.rho()),
                        ),
                        site: SiteId(0),
                    },
                    Stmt::WriteField { obj: x, field: 0, src: y },
                    Stmt::Havoc { dst: y },
                ])),
            },
        ]);
        p.add_func(FuncDef {
            name: "main".into(),
            exported: true,
            params: vec![],
            locals: vec![VarType::Region, VarType::Ptr(rlist), VarType::Ptr(rlist), VarType::Int],
            result: None,
            body,
        });
        let a = analyse(&p);
        let prov = a.provenance_of(SiteId(0)).unwrap();
        assert!(!prov.safe, "the back edge havocs y, so the check stays");
        assert!(
            matches!(prov.reason, ProvenanceReason::MeetPoint { kind: MeetKind::LoopEntry, .. }),
            "expected loop-entry attribution, got {:?}",
            prov.reason
        );
    }

    #[test]
    fn analysis_terminates_on_recursion() {
        // f calls itself; summaries must converge.
        let mut p = Program::new();
        let rlist = StructId(0);
        p.add_struct(StructDecl {
            name: "rlist".into(),
            fields: vec![(
                "next".into(),
                FieldType::Ptr { target: rlist, qual: FieldQual::SameRegion },
            )],
        });
        let (x, y) = (VarId(0), VarId(1));
        let fid = crate::program::FuncId(0);
        let body = Stmt::Seq(vec![
            Stmt::ReadField { dst: y, obj: x, field: 0 },
            Stmt::If {
                cond: y,
                then_s: Box::new(Stmt::Call {
                    dst: None,
                    callee: Callee::User(fid),
                    args: vec![y],
                }),
                else_s: Box::new(Stmt::skip()),
            },
        ]);
        p.add_func(FuncDef {
            name: "walk".into(),
            exported: true,
            params: vec![VarType::Ptr(rlist)],
            locals: vec![VarType::Ptr(rlist)],
            result: None,
            body,
        });
        let a = analyse(&p);
        assert!(a.rounds < MAX_ROUNDS);
    }

    #[test]
    fn round_cap_falls_back_to_empty_summaries() {
        // The constructor's input summary settles only in round 2, so a cap
        // of one round takes the fallback. Round 1 saw the constructor with
        // a contradictory input, so its `chk` record says "unreachable":
        // the fallback must not use it.
        let (p, _) = consistent_constructor_program();
        assert!(analyse(&p).rounds >= 2);
        let a = analyse_capped(&p, 1);
        assert_eq!(a.rounds, 1);
        for s in &a.summaries {
            assert!(s.input.is_empty() && s.output.is_empty(), "not empty: {s:?}");
        }
        assert_eq!(validate(&p, &a), Vec::<String>::new());
        assert!(!a.is_safe(SiteId(0)), "empty summaries cannot prove the constructor's check");
        #[cfg(debug_assertions)]
        {
            let r = reference(&p, 1);
            assert_eq!(a.site_safe, r.site_safe);
            assert_eq!(a.site_states, r.site_states);
            assert_eq!(a.eliminated_sites, r.eliminated_sites);
            assert_eq!(a.provenance, r.provenance);
        }
    }
}
