//! Fault-degradation properties: under a sticky injected fault at a
//! random step of a random region program, the runtime must degrade —
//! never panic. After the first injection, every subsequent call on the
//! armed plane returns `Err`, the heap stays audit-clean throughout, and
//! [`Heap::unwind_regions`] can always tear what's left down to a clean,
//! auditable end state.

use region_rt::{
    Addr, FaultMode, FaultPlan, Heap, PtrKind, RegionId, RtError, SlotKind, TypeLayout, WriteMode,
};

/// SplitMix64 (offline environment — no proptest; failures reproduce by
/// seed).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Which plane a seed arms, and that plane's signature error — the one
/// organic execution cannot produce in this program (no page budget, no
/// invalid checked writes), so its first appearance marks the injection.
#[derive(Clone, Copy, PartialEq)]
enum Plane {
    Alloc,
    Page,
    Rc,
    Check,
}

/// After any injected fault at any step of a random region program:
/// no panic anywhere, the heap passes `audit()` after every subsequent
/// step, every subsequent call on the armed (sticky) plane returns
/// `Err`, and a final `unwind_regions` leaves only the traditional
/// region, still audit-clean.
#[test]
fn injected_faults_degrade_without_panics_and_stay_audit_clean() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x0106_689F_23C5_41A5));
        let plane = match seed % 4 {
            0 => Plane::Alloc,
            1 => Plane::Page,
            2 => Plane::Rc,
            _ => Plane::Check,
        };
        let ordinal = (rng.below(30) + 1) as u64;
        let mode = FaultMode::Schedule(vec![ordinal]);
        let plan = match plane {
            Plane::Alloc => FaultPlan::new().fail_alloc(mode),
            Plane::Page => FaultPlan::new()
                .fail_page_acquire(FaultMode::Schedule(vec![(rng.below(5) + 1) as u64])),
            Plane::Rc => FaultPlan::new().saturate_rc(mode),
            Plane::Check => FaultPlan::new().fail_checks(mode),
        }
        .sticky();

        let mut h = Heap::with_defaults();
        h.install_faults(&plan);
        let ty = h.register_type(TypeLayout::new(
            "n",
            vec![
                SlotKind::Ptr(PtrKind::Counted),
                SlotKind::Ptr(PtrKind::SameRegion),
                SlotKind::Data,
            ],
        ));

        let mut live: Vec<RegionId> = vec![h.new_region()];
        // Objects with the region they were allocated in (which may die).
        let mut objs: Vec<(Addr, RegionId)> = Vec::new();
        let mut tripped = false;

        for step in 0..200 {
            match rng.below(10) {
                0 => {
                    if rng.below(2) == 0 {
                        live.push(h.new_region());
                    } else if let Ok(sub) = h.new_subregion(live[rng.below(live.len())]) {
                        live.push(sub);
                    }
                }
                1..=3 => {
                    let r = live[rng.below(live.len())];
                    let res = h.ralloc(r, ty);
                    if tripped && plane == Plane::Alloc {
                        assert!(res.is_err(), "seed {seed} step {step}: alloc after trip");
                    }
                    match res {
                        Ok(a) => objs.push((a, r)),
                        Err(RtError::OutOfMemory) => tripped = true,
                        Err(_) => {}
                    }
                }
                4 => {
                    let res = h.m_alloc(ty, 1);
                    if tripped && plane == Plane::Alloc {
                        assert!(res.is_err(), "seed {seed} step {step}: m_alloc after trip");
                    }
                    match res {
                        // The traditional region is region 0 and immortal.
                        Ok(a) => objs.push((a, region_rt::TRADITIONAL)),
                        Err(RtError::OutOfMemory) => tripped = true,
                        Err(_) => {}
                    }
                }
                5 | 6 => {
                    // Counted link between live objects (stale writes are
                    // the programmer-level use-after-free RC explicitly
                    // does not protect against, so they would corrupt the
                    // audit's ground truth organically).
                    if objs.len() < 2 {
                        continue;
                    }
                    let (a, _) = objs[rng.below(objs.len())];
                    let val =
                        if rng.below(6) == 0 { Addr::NULL } else { objs[rng.below(objs.len())].0 };
                    let res = h.write_ptr(a, 0, val, WriteMode::Counted);
                    if tripped && plane == Plane::Rc {
                        assert!(res.is_err(), "seed {seed} step {step}: counted write after trip");
                    }
                    if let Err(RtError::RcOverflow { .. }) = res {
                        tripped = true;
                    }
                }
                7 => {
                    // A *valid* sameregion link (both objects in one live
                    // region): any CheckFailed here is injected.
                    let pick = rng.below(live.len());
                    let pair = objs
                        .iter()
                        .filter(|(_, r)| *r == live[pick] && h.region_alive(*r))
                        .take(2)
                        .map(|&(a, _)| a)
                        .collect::<Vec<_>>();
                    if let [a, b] = pair[..] {
                        let res = h.write_ptr(a, 1, b, WriteMode::Check(PtrKind::SameRegion));
                        if tripped && plane == Plane::Check {
                            assert!(
                                res.is_err(),
                                "seed {seed} step {step}: checked write after trip"
                            );
                        }
                        if let Err(RtError::CheckFailed { .. }) = res {
                            tripped = true;
                        }
                    }
                }
                8 => {
                    // Try deleting a leaf; organic failures
                    // (DeleteWithLiveRefs/Subregions) are part of normal
                    // degradation and simply leave the region in place.
                    if live.len() > 1 {
                        let i = rng.below(live.len() - 1) + 1;
                        if h.delete_region(live[i]).is_ok() {
                            let dead = live.remove(i);
                            objs.retain(|&(_, r)| r != dead);
                        }
                    }
                }
                _ => {
                    let res = h.gc_alloc(ty, 1);
                    if tripped && plane == Plane::Alloc {
                        assert!(res.is_err(), "seed {seed} step {step}: gc_alloc after trip");
                    }
                    if let Err(RtError::OutOfMemory) = res {
                        tripped = true;
                    }
                }
            }
            if tripped {
                h.audit().unwrap_or_else(|e| {
                    panic!("seed {seed} step {step}: audit failed after fault: {e}")
                });
            }
        }

        // Harvest: the arm log must agree with what the program observed.
        let report = h.take_faults().expect("a plan was installed");
        assert_eq!(
            report.total_injected() > 0,
            tripped,
            "seed {seed}: injection log vs observed errors"
        );
        // Recovery: tear everything down; only TRADITIONAL survives, and
        // the audit still passes.
        h.unwind_regions();
        assert!(live.iter().skip(1).all(|&r| !h.region_alive(r)), "seed {seed}");
        h.audit().unwrap_or_else(|e| panic!("seed {seed}: audit failed after unwind: {e}"));
    }
}
