//! Runtime error types.
//!
//! RC's dynamic safety guarantee is delivered through failures: a
//! `deleteregion` whose region still has external references fails, and an
//! assignment violating a `sameregion` / `parentptr` / `traditional`
//! annotation aborts the program (paper §3.2, Figure 3(b)). In this
//! reproduction "abort" surfaces as an [`RtError`] so tests can assert on
//! the exact failure.

use crate::addr::Addr;
use crate::json::Json;
use crate::layout::PtrKind;
use crate::region::RegionId;

/// A failure detected by the region runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// `deleteregion` on a region whose reference count is non-zero
    /// (external pointers into it still exist).
    DeleteWithLiveRefs {
        /// The region being deleted.
        region: RegionId,
        /// Its reference count at the time of the call.
        rc: i64,
    },
    /// `deleteregion` on a region that still has live subregions; the paper
    /// requires subregions to be deleted before their parent.
    DeleteWithSubregions {
        /// The region being deleted.
        region: RegionId,
    },
    /// Operating on a region that was already deleted.
    RegionDead {
        /// The stale region.
        region: RegionId,
    },
    /// Deleting or reparenting the traditional region, which always exists.
    TraditionalImmortal,
    /// A Figure 3(b) annotation check failed; in RC this aborts the
    /// program.
    CheckFailed {
        /// Which annotation was violated.
        kind: PtrKind,
        /// The object containing the assigned field.
        obj: Addr,
        /// Word offset of the field.
        field: usize,
        /// The offending value.
        val: Addr,
    },
    /// `free` of an address that is not a live malloc allocation.
    InvalidFree {
        /// The bad address.
        addr: Addr,
    },
    /// Access through a pointer into memory that is not live.
    WildPointer {
        /// The bad address.
        addr: Addr,
    },
    /// A region's reference count cannot be raised further (saturated
    /// counter, reported by the fault-injection RcSaturate plane or a
    /// genuinely overflowing count). The failing store is suppressed, so
    /// the heap stays consistent.
    RcOverflow {
        /// The region whose count would have overflowed.
        region: RegionId,
    },
    /// Touching a region whose ownership was handed off to a spawned task
    /// and not yet reclaimed by `join` (see [`crate::shard`]): until the
    /// parent joins, the region subtree belongs exclusively to the child
    /// shard, so any parent-side access aborts deterministically.
    RegionMoved {
        /// The region currently owned by another shard.
        region: RegionId,
    },
    /// The configured page budget was exhausted.
    OutOfMemory,
    /// A [`HeapSnapshot`](crate::snapshot::HeapSnapshot) failed structural
    /// validation during [`Heap::restore`](crate::heap::Heap::restore):
    /// internally inconsistent accounting, an unsatisfiable page/object
    /// placement, or a restored heap that failed its own verify/audit/
    /// fixpoint gates. `detail` names the first offending field or
    /// invariant.
    SnapshotCorrupt {
        /// Human-readable description of the first violated invariant.
        detail: String,
    },
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::DeleteWithLiveRefs { region, rc } => {
                write!(f, "deleteregion of {region:?} with {rc} live external reference(s)")
            }
            RtError::DeleteWithSubregions { region } => {
                write!(f, "deleteregion of {region:?} with live subregions")
            }
            RtError::RegionDead { region } => {
                write!(f, "use of deleted region {region:?}")
            }
            RtError::TraditionalImmortal => {
                write!(f, "the traditional region cannot be deleted")
            }
            RtError::CheckFailed { kind, obj, field, val } => write!(
                f,
                "{kind:?} annotation check failed storing {val} into field {field} of {obj}"
            ),
            RtError::InvalidFree { addr } => write!(f, "invalid free of {addr}"),
            RtError::WildPointer { addr } => write!(f, "wild pointer access at {addr}"),
            RtError::RcOverflow { region } => {
                write!(f, "reference count of {region:?} saturated")
            }
            RtError::RegionMoved { region } => {
                write!(f, "use of {region:?} while owned by a spawned task")
            }
            RtError::OutOfMemory => write!(f, "heap page budget exhausted"),
            RtError::SnapshotCorrupt { detail } => {
                write!(f, "corrupt snapshot: {detail}")
            }
        }
    }
}

impl std::error::Error for RtError {}

impl RtError {
    /// Stable machine-readable tag (the `kind` field of [`RtError::to_json`]).
    pub fn kind_name(&self) -> &'static str {
        match self {
            RtError::DeleteWithLiveRefs { .. } => "delete_with_live_refs",
            RtError::DeleteWithSubregions { .. } => "delete_with_subregions",
            RtError::RegionDead { .. } => "region_dead",
            RtError::TraditionalImmortal => "traditional_immortal",
            RtError::CheckFailed { .. } => "check_failed",
            RtError::InvalidFree { .. } => "invalid_free",
            RtError::WildPointer { .. } => "wild_pointer",
            RtError::RcOverflow { .. } => "rc_overflow",
            RtError::RegionMoved { .. } => "region_moved",
            RtError::OutOfMemory => "out_of_memory",
            RtError::SnapshotCorrupt { .. } => "snapshot_corrupt",
        }
    }

    /// Encodes the error for reports: always a `kind` tag first, then the
    /// variant's payload fields.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("kind", Json::s(self.kind_name()))];
        match self {
            RtError::DeleteWithLiveRefs { region, rc } => {
                fields.push(("region", Json::U(region.0 as u64)));
                fields.push(("rc", Json::I(*rc)));
            }
            RtError::DeleteWithSubregions { region } | RtError::RegionDead { region } => {
                fields.push(("region", Json::U(region.0 as u64)));
            }
            RtError::TraditionalImmortal => {}
            RtError::CheckFailed { kind, obj, field, val } => {
                let kind = match kind {
                    PtrKind::SameRegion => "sameregion",
                    PtrKind::ParentPtr => "parentptr",
                    PtrKind::Traditional => "traditional",
                    PtrKind::Counted => "counted",
                };
                fields.push(("check", Json::s(kind)));
                fields.push(("obj", Json::U(obj.raw())));
                fields.push(("field", Json::U(*field as u64)));
                fields.push(("val", Json::U(val.raw())));
            }
            RtError::InvalidFree { addr } | RtError::WildPointer { addr } => {
                fields.push(("addr", Json::U(addr.raw())));
            }
            RtError::RcOverflow { region } | RtError::RegionMoved { region } => {
                fields.push(("region", Json::U(region.0 as u64)));
            }
            RtError::OutOfMemory => {}
            RtError::SnapshotCorrupt { detail } => {
                fields.push(("detail", Json::s(detail)));
            }
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value per variant. Adding a variant without extending this list
    /// breaks `display_and_json_cover_every_variant` at compile time via
    /// the wildcard-free `match` below — the same convention as the
    /// exhaustive `Stats::summary()` tests.
    fn all_variants() -> Vec<RtError> {
        vec![
            RtError::DeleteWithLiveRefs { region: RegionId(3), rc: 2 },
            RtError::DeleteWithSubregions { region: RegionId(1) },
            RtError::RegionDead { region: RegionId(1) },
            RtError::TraditionalImmortal,
            RtError::CheckFailed {
                kind: PtrKind::SameRegion,
                obj: Addr::from_parts(1, 0),
                field: 2,
                val: Addr::from_parts(2, 0),
            },
            RtError::InvalidFree { addr: Addr::from_parts(1, 1) },
            RtError::WildPointer { addr: Addr::from_parts(1, 2) },
            RtError::RcOverflow { region: RegionId(2) },
            RtError::RegionMoved { region: RegionId(4) },
            RtError::OutOfMemory,
            RtError::SnapshotCorrupt { detail: "regions[1].parent out of range".into() },
        ]
    }

    #[test]
    fn display_and_json_cover_every_variant() {
        // Wildcard-free: a new variant fails to compile until handled here
        // (and therefore until added to `all_variants`, because the
        // distinct-tag assertion below would fail).
        fn arity(e: &RtError) -> usize {
            match e {
                RtError::DeleteWithLiveRefs { .. } => 2,
                RtError::DeleteWithSubregions { .. } => 1,
                RtError::RegionDead { .. } => 1,
                RtError::TraditionalImmortal => 0,
                RtError::CheckFailed { .. } => 4,
                RtError::InvalidFree { .. } => 1,
                RtError::WildPointer { .. } => 1,
                RtError::RcOverflow { .. } => 1,
                RtError::RegionMoved { .. } => 1,
                RtError::OutOfMemory => 0,
                RtError::SnapshotCorrupt { .. } => 1,
            }
        }
        let variants = all_variants();
        for e in &variants {
            assert!(!e.to_string().is_empty(), "{e:?} has empty Display");
            let json = e.to_json();
            assert_eq!(
                json.get("kind").and_then(Json::as_str),
                Some(e.kind_name()),
                "{e:?} json must lead with its kind tag"
            );
            // Every payload field is serialized, plus the kind tag.
            let rendered = json.render();
            let keys = rendered.matches("\":").count();
            assert_eq!(keys, arity(e) + 1, "{e:?} rendered as {rendered}");
        }
        // Each variant appears exactly once in all_variants.
        let mut tags: Vec<&str> = variants.iter().map(RtError::kind_name).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), variants.len(), "duplicate or missing variant in all_variants");
    }
}
