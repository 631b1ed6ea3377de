#![warn(missing_docs)]

//! # region-rt — the RC region runtime
//!
//! A faithful Rust reimplementation of the runtime library behind **RC**,
//! the dialect of C with reference-counted regions from David Gay and Alex
//! Aiken, *Language Support for Regions* (PLDI 2001).
//!
//! Region-based memory management groups allocations into *regions*;
//! objects are never freed individually — deleting a region frees everything
//! in it. RC makes deletion *safe* by keeping, per region, a count of the
//! external pointers into it: `deleteregion` fails while that count is
//! non-zero. Three pointer annotations (`sameregion`, `parentptr`,
//! `traditional`) replace the count update on a store with a much cheaper
//! runtime check, and a region type system (see the `rlang` crate)
//! eliminates many of those checks statically.
//!
//! This crate provides:
//!
//! - the paper's Figure 2 region API over a simulated word-addressed heap
//!   ([`Heap`]): `newregion`, `newsubregion`, `deleteregion`, `ralloc`,
//!   `rarrayalloc`, `regionof`;
//! - the Figure 3 write barriers: the reference-count update and the three
//!   annotation checks ([`rcops::WriteMode`]);
//! - the subregion hierarchy with the DFS numbering used by the
//!   `parentptr` check ([`region`]);
//! - the two baselines of the paper's evaluation: a size-class
//!   `malloc/free` allocator ([`malloc`]) and a conservative mark–sweep
//!   collector ([`gc`]), plus the region-emulation library used to run
//!   region-based programs on those baselines ([`emu`]);
//! - an instruction cost model calibrated to the paper's published numbers
//!   ([`cost`]) and dynamic-event statistics ([`stats`]);
//! - a heap auditor that independently verifies the reference-count
//!   invariant ([`audit`]);
//! - a deterministic fault-injection subsystem for torture-testing
//!   graceful degradation: schedule- or SplitMix64-driven failures at the
//!   page, allocation, reference-count, and annotation-check planes, with
//!   byte-reproducible injection logs ([`fault`]); see
//!   `docs/ROBUSTNESS.md`;
//! - a zero-dependency telemetry subsystem: one stream of typed dynamic
//!   events with per-site attribution ([`trace`]), emitted once per site
//!   and consumed by a bounded ring with folded profiles — lifetime
//!   histograms, hot-region/hot-site tables, a region flamegraph, JSONL
//!   export ([`profile`], [`json`]) — by a span tree modeling every
//!   region lifecycle as a `newregion`…`deleteregion` interval with
//!   span-scoped alloc/RC/check notes for provenance export ([`span`]),
//!   and by per-site check counters ([`checkcount`]); plus a
//!   deterministic virtual-clock timeline sampler for time-resolved
//!   occupancy, fragmentation, and RC/check-rate metrics ([`timeline`]).
//!   See `docs/OBSERVABILITY.md`;
//! - per-task heap shards with typed region handoff for the parallel
//!   `spawn`/`join` extension, plus exact merge operations on every
//!   telemetry aggregate so parallel runs report byte-deterministically
//!   ([`shard`]).
//!
//! ## Example
//!
//! ```
//! use region_rt::{Heap, TypeLayout, SlotKind, PtrKind, WriteMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut heap = Heap::with_defaults();
//! // struct rlist { struct rlist *sameregion next; int data; }
//! let rlist = heap.register_type(TypeLayout::new(
//!     "rlist",
//!     vec![SlotKind::Ptr(PtrKind::SameRegion), SlotKind::Data],
//! ));
//!
//! let r = heap.new_region();
//! let mut last = region_rt::Addr::NULL;
//! for i in 0..100 {
//!     let node = heap.ralloc(r, rlist)?;
//!     heap.write_ptr(node, 0, last, WriteMode::Check(PtrKind::SameRegion))?;
//!     heap.write_int(node, 1, i)?;
//!     last = node;
//! }
//! // The whole list dies with its region — one call, no per-object frees.
//! heap.delete_region(r)?;
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod alloc;
pub mod audit;
pub mod checkcount;
pub mod cost;
pub mod critpath;
pub mod emu;
pub mod error;
pub mod fault;
pub mod gc;
pub mod heap;
pub mod json;
pub mod layout;
pub mod malloc;
pub mod page;
pub mod profile;
pub mod rcops;
pub mod region;
pub mod shard;
pub mod snapshot;
pub mod span;
pub mod stats;
pub mod timeline;
pub mod trace;

pub use addr::Addr;
pub use audit::AuditError;
pub use checkcount::{CheckCounter, SiteCheckCounts, NO_CHECK_SITE};
pub use cost::{Clock, CostModel, Cycles};
pub use critpath::{analyze as critpath_analyze, CritPath, PathSeg, TaskBreakdown};
pub use emu::{EmuBackend, EmuRegionId, EmuRegions};
pub use error::RtError;
pub use fault::{FaultArmReport, FaultMode, FaultPlan, FaultPlane, FaultReport, InjectedFault};
pub use heap::{DeletePolicy, Heap, HeapConfig, NumberingScheme};
pub use json::{Json, JsonParseError};
pub use layout::{PtrKind, SlotKind, TypeId, TypeLayout};
pub use profile::{Profile, ProfileTotals, RegionProfile, SiteProfile};
pub use rcops::WriteMode;
pub use region::{RegionId, TRADITIONAL};
pub use shard::{
    audit_all, Facet, Handoff, SchedEvent, SchedEventKind, SchedLog, SchedRecorder, Shard, ShardId,
    SharedClock, TaskReport, SCHED_EVENT_CAP,
};
pub use snapshot::{
    HeapSnapshot, PageSnapshot, RegionSnapshot, SiteRetained, SnapOwner, SnapshotReason,
    SNAPSHOT_SCHEMA,
};
pub use span::{Span, SpanTree, DEFAULT_SPAN_NOTE_CAP};
pub use stats::{AssignCategory, Stats};
pub use timeline::{
    sparkline, HeapGauges, MetricsSnapshot, Timeline, DEFAULT_SAMPLE_INTERVAL, DEFAULT_TIMELINE_CAP,
};
pub use trace::{Event, Tracer, DEFAULT_RING_CAPACITY};
