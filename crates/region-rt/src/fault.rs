//! Deterministic fault injection.
//!
//! RC's safety story (paper §3.2) is that memory errors surface as *defined
//! failures* — a bad `deleteregion` fails, a violated annotation aborts —
//! never as crashes. This module provides the torture half of that
//! contract: a [`FaultPlan`] arms one or more *planes* (injection sites)
//! of the runtime so that the Nth page acquire, the Nth allocation, a
//! reference-count update, or an annotation check fails on demand with the
//! same typed [`RtError`](crate::RtError) a real failure would produce.
//!
//! Everything is deterministic. Schedules fire at fixed operation
//! ordinals; probabilistic arms draw from a SplitMix64 stream seeded by
//! the plan, not by wall-clock entropy; and every injected fault is logged
//! with its operation ordinal and virtual-clock stamp, so two runs of the
//! same program under the same plan produce byte-identical
//! [`FaultReport`]s — the same property the timeline sampler has, and what
//! makes the `fault-matrix` CI gate feasible.
//!
//! Disabled planes follow the [`sample_tick`](crate::Heap::sample_tick)
//! discipline: each hook is a single branch on an `Option` discriminant
//! when no arm is installed, so the hot paths pay nothing measurable when
//! fault injection is off (the default).

use crate::cost::Cycles;
use crate::json::Json;

/// Stamp of an injected fault whose virtual-clock time is not yet known
/// (the page store fires faults below the [`Heap`](crate::Heap) layer,
/// which back-fills the stamp on the error path or at harvest).
pub const STAMP_PENDING: Cycles = u64::MAX;

/// An injection site in the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlane {
    /// `page.rs::grow`: the Nth fresh page acquisition fails with
    /// [`RtError::OutOfMemory`](crate::RtError::OutOfMemory) (recycled
    /// pages do not count; this models commit failure, not reuse).
    PageAcquire,
    /// The allocator entry points — `rarrayalloc`, `malloc`, GC alloc —
    /// share one operation counter, so "fail the Nth allocation" lands at
    /// the same program point regardless of which backend serves it.
    Alloc,
    /// A reference-count update fails with
    /// [`RtError::RcOverflow`](crate::RtError::RcOverflow) *before* any
    /// count or slot is mutated, modelling a saturated region count
    /// without corrupting the heap (the post-fault audit must stay clean).
    RcSaturate,
    /// A Figure 3(b) annotation check is forced to fail with
    /// [`RtError::CheckFailed`](crate::RtError::CheckFailed); the store is
    /// suppressed exactly as for a genuine violation.
    CheckFail,
}

impl FaultPlane {
    /// Stable plane name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultPlane::PageAcquire => "page_acquire",
            FaultPlane::Alloc => "alloc",
            FaultPlane::RcSaturate => "rc_saturate",
            FaultPlane::CheckFail => "check_fail",
        }
    }
}

/// When an armed plane fires, in terms of that plane's 1-based operation
/// ordinal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultMode {
    /// Fire exactly at the listed ordinals.
    Schedule(Vec<u64>),
    /// Fire at every multiple of `n` (n ≥ 1).
    EveryNth(u64),
    /// Fire with probability `per_mille`/1000 per operation, drawn from a
    /// SplitMix64 stream over `seed` (deterministic; no host entropy).
    Probabilistic {
        /// RNG seed.
        seed: u64,
        /// Firing probability in thousandths.
        per_mille: u32,
    },
}

impl FaultMode {
    /// Fire once, at the `n`th operation.
    pub fn nth(n: u64) -> FaultMode {
        FaultMode::Schedule(vec![n])
    }

    /// Encodes the mode for reports.
    pub fn to_json(&self) -> Json {
        match self {
            FaultMode::Schedule(ords) => Json::obj(vec![
                ("mode", Json::s("schedule")),
                ("ordinals", Json::A(ords.iter().map(|&o| Json::U(o)).collect())),
            ]),
            FaultMode::EveryNth(n) => {
                Json::obj(vec![("mode", Json::s("every_nth")), ("n", Json::U(*n))])
            }
            FaultMode::Probabilistic { seed, per_mille } => Json::obj(vec![
                ("mode", Json::s("probabilistic")),
                ("seed", Json::U(*seed)),
                ("per_mille", Json::U(*per_mille as u64)),
            ]),
        }
    }
}

/// A complete fault-injection plan: which planes are armed and how.
///
/// Install with [`Heap::install_faults`](crate::Heap::install_faults);
/// harvest the injection log with
/// [`Heap::take_faults`](crate::Heap::take_faults). The default plan arms
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Arm for [`FaultPlane::PageAcquire`].
    pub page_acquire: Option<FaultMode>,
    /// Arm for [`FaultPlane::Alloc`].
    pub alloc: Option<FaultMode>,
    /// Arm for [`FaultPlane::RcSaturate`].
    pub rc_saturate: Option<FaultMode>,
    /// Arm for [`FaultPlane::CheckFail`].
    pub check_fail: Option<FaultMode>,
    /// Sticky arms keep failing every armed operation after their first
    /// firing — the behaviour of a genuinely exhausted resource, and what
    /// the degradation property tests assert against ("every subsequent
    /// call returns `Err`").
    pub sticky: bool,
}

impl FaultPlan {
    /// A plan that arms nothing.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether no plane is armed.
    pub fn is_empty(&self) -> bool {
        self.page_acquire.is_none()
            && self.alloc.is_none()
            && self.rc_saturate.is_none()
            && self.check_fail.is_none()
    }

    /// Arms the page-acquire plane.
    pub fn fail_page_acquire(mut self, mode: FaultMode) -> FaultPlan {
        self.page_acquire = Some(mode);
        self
    }

    /// Arms the unified allocation plane.
    pub fn fail_alloc(mut self, mode: FaultMode) -> FaultPlan {
        self.alloc = Some(mode);
        self
    }

    /// Arms the reference-count saturation plane.
    pub fn saturate_rc(mut self, mode: FaultMode) -> FaultPlan {
        self.rc_saturate = Some(mode);
        self
    }

    /// Arms the annotation-check plane.
    pub fn fail_checks(mut self, mode: FaultMode) -> FaultPlan {
        self.check_fail = Some(mode);
        self
    }

    /// Makes every arm sticky (fail forever after the first firing).
    pub fn sticky(mut self) -> FaultPlan {
        self.sticky = true;
        self
    }

    /// Encodes the plan for report headers.
    pub fn to_json(&self) -> Json {
        let arm = |m: &Option<FaultMode>| m.as_ref().map_or(Json::Null, FaultMode::to_json);
        Json::obj(vec![
            ("page_acquire", arm(&self.page_acquire)),
            ("alloc", arm(&self.alloc)),
            ("rc_saturate", arm(&self.rc_saturate)),
            ("check_fail", arm(&self.check_fail)),
            ("sticky", Json::Bool(self.sticky)),
        ])
    }
}

/// One injected fault: which plane fired, at which of its operations, and
/// when on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The plane that fired.
    pub plane: FaultPlane,
    /// 1-based operation ordinal on that plane.
    pub op: u64,
    /// Virtual-clock cycles at injection.
    pub at: Cycles,
}

impl InjectedFault {
    /// Encodes the injection for reports.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("plane", Json::s(self.plane.name())),
            ("op", Json::U(self.op)),
            ("at", Json::U(self.at)),
        ])
    }
}

/// SplitMix64 step (the same generator the property-test harnesses use).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runtime state of one armed plane: the mode, the operation counter, and
/// the log of injections so far.
#[derive(Debug)]
pub struct FaultArm {
    plane: FaultPlane,
    mode: FaultMode,
    sticky: bool,
    tripped: bool,
    ops: u64,
    rng: u64,
    injected: Vec<InjectedFault>,
}

impl FaultArm {
    /// Arms a plane.
    pub fn new(plane: FaultPlane, mode: FaultMode, sticky: bool) -> FaultArm {
        let rng = match mode {
            FaultMode::Probabilistic { seed, .. } => seed,
            _ => 0,
        };
        FaultArm { plane, mode, sticky, tripped: false, ops: 0, rng, injected: Vec::new() }
    }

    /// Counts one operation on this plane; returns whether the fault fires
    /// for it, logging the injection (stamped `at`) if so.
    pub fn tick(&mut self, at: Cycles) -> bool {
        self.ops += 1;
        let fire = (self.sticky && self.tripped) || self.decide();
        if fire {
            self.tripped = true;
            self.injected.push(InjectedFault { plane: self.plane, op: self.ops, at });
        }
        fire
    }

    fn decide(&mut self) -> bool {
        match &self.mode {
            FaultMode::Schedule(ords) => ords.contains(&self.ops),
            FaultMode::EveryNth(n) => *n >= 1 && self.ops.is_multiple_of(*n),
            FaultMode::Probabilistic { per_mille, .. } => {
                splitmix64(&mut self.rng) % 1000 < *per_mille as u64
            }
        }
    }

    /// Back-fills the virtual-clock stamp of injections recorded below the
    /// heap layer (stamped [`STAMP_PENDING`] at firing time).
    pub fn stamp_pending(&mut self, at: Cycles) {
        for f in &mut self.injected {
            if f.at == STAMP_PENDING {
                f.at = at;
            }
        }
    }

    /// The plane this arm is installed on.
    pub fn plane(&self) -> FaultPlane {
        self.plane
    }

    /// Operations seen on this plane so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Whether the arm has fired at least once.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Injections so far, in firing order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.injected
    }

    fn into_report(self) -> FaultArmReport {
        FaultArmReport {
            plane: self.plane,
            mode: self.mode,
            sticky: self.sticky,
            ops: self.ops,
            injected: self.injected,
        }
    }
}

/// Harvested state of one arm after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultArmReport {
    /// The plane the arm was installed on.
    pub plane: FaultPlane,
    /// The firing mode.
    pub mode: FaultMode,
    /// Whether the arm was sticky.
    pub sticky: bool,
    /// Operations observed on the plane.
    pub ops: u64,
    /// Every injection, in firing order.
    pub injected: Vec<InjectedFault>,
}

impl FaultArmReport {
    /// Encodes the arm for reports.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("plane", Json::s(self.plane.name())),
            ("mode", self.mode.to_json()),
            ("sticky", Json::Bool(self.sticky)),
            ("ops", Json::U(self.ops)),
            ("injected", Json::A(self.injected.iter().map(InjectedFault::to_json).collect())),
        ])
    }
}

/// The harvested result of a faulted run: per-arm operation counts and
/// injection logs. Byte-deterministic for a deterministic workload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// One entry per installed arm, in plane declaration order.
    pub arms: Vec<FaultArmReport>,
}

impl FaultReport {
    /// Builds a report from harvested arms (crate-internal).
    pub(crate) fn from_arms(arms: Vec<FaultArm>) -> FaultReport {
        FaultReport { arms: arms.into_iter().map(FaultArm::into_report).collect() }
    }

    /// Total injections across all arms.
    pub fn total_injected(&self) -> usize {
        self.arms.iter().map(|a| a.injected.len()).sum()
    }

    /// The first injection on the virtual clock (ties broken by plane
    /// declaration order).
    pub fn first(&self) -> Option<InjectedFault> {
        self.arms.iter().filter_map(|a| a.injected.first().copied()).min_by_key(|f| f.at)
    }

    /// Encodes the report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total_injected", Json::U(self.total_injected() as u64)),
            ("arms", Json::A(self.arms.iter().map(FaultArmReport::to_json).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_fires_exactly_at_its_ordinals() {
        let mut arm = FaultArm::new(FaultPlane::Alloc, FaultMode::Schedule(vec![2, 5]), false);
        let fired: Vec<bool> = (0..6).map(|i| arm.tick(i * 10)).collect();
        assert_eq!(fired, [false, true, false, false, true, false]);
        assert_eq!(arm.ops(), 6);
        assert_eq!(arm.injected().len(), 2);
        assert_eq!(arm.injected()[0], InjectedFault { plane: FaultPlane::Alloc, op: 2, at: 10 });
        assert_eq!(arm.injected()[1].op, 5);
    }

    #[test]
    fn every_nth_fires_periodically() {
        let mut arm = FaultArm::new(FaultPlane::PageAcquire, FaultMode::EveryNth(3), false);
        let fired: Vec<bool> = (0..9).map(|_| arm.tick(0)).collect();
        assert_eq!(fired, [false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn sticky_arms_fail_forever_after_first_firing() {
        let mut arm = FaultArm::new(FaultPlane::Alloc, FaultMode::nth(3), true);
        let fired: Vec<bool> = (0..6).map(|_| arm.tick(7)).collect();
        assert_eq!(fired, [false, false, true, true, true, true]);
        assert!(arm.tripped());
        // Every firing is logged with its own ordinal.
        let ops: Vec<u64> = arm.injected().iter().map(|f| f.op).collect();
        assert_eq!(ops, [3, 4, 5, 6]);
    }

    #[test]
    fn probabilistic_is_deterministic_per_seed() {
        let run = |seed| {
            let mut arm = FaultArm::new(
                FaultPlane::RcSaturate,
                FaultMode::Probabilistic { seed, per_mille: 250 },
                false,
            );
            (0..64).map(|_| arm.tick(0)).collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7), "same seed, same firing pattern");
        assert_ne!(run(7), run(8), "different seeds diverge");
        let fires = run(7).iter().filter(|&&b| b).count();
        assert!(fires > 0 && fires < 64, "~25% firing rate, got {fires}/64");
    }

    #[test]
    fn pending_stamps_are_back_filled() {
        let mut arm = FaultArm::new(FaultPlane::PageAcquire, FaultMode::nth(1), false);
        assert!(arm.tick(STAMP_PENDING));
        assert_eq!(arm.injected()[0].at, STAMP_PENDING);
        arm.stamp_pending(1234);
        assert_eq!(arm.injected()[0].at, 1234);
    }

    #[test]
    fn plan_builder_and_emptiness() {
        assert!(FaultPlan::new().is_empty());
        let plan = FaultPlan::new()
            .fail_alloc(FaultMode::nth(10))
            .saturate_rc(FaultMode::EveryNth(5))
            .sticky();
        assert!(!plan.is_empty());
        assert!(plan.sticky);
        assert!(plan.page_acquire.is_none());
        assert_eq!(plan.alloc, Some(FaultMode::Schedule(vec![10])));
    }

    #[test]
    fn report_json_is_stable_and_complete() {
        let mut arm = FaultArm::new(FaultPlane::Alloc, FaultMode::nth(2), true);
        arm.tick(5);
        arm.tick(9);
        let report = FaultReport::from_arms(vec![arm]);
        assert_eq!(report.total_injected(), 1);
        assert_eq!(report.first().map(|f| f.op), Some(2));
        let text = report.to_json().render();
        assert!(text.contains("\"plane\":\"alloc\""), "{text}");
        assert!(text.contains("\"ops\":2"), "{text}");
        // Rendering is deterministic.
        assert_eq!(text, report.to_json().render());
    }
}
