//! The registry of rc-bench JSON schema identifiers.
//!
//! Every machine-readable artifact this crate emits is stamped with a
//! schema string (`"<family>/v<N>"`). `tools/pins.sh` pins each artifact
//! byte for byte, so a layout change fails CI until its digest is
//! refreshed; the version bump that goes with it lets readers
//! (`rc-bench inspect` for snapshots, the docs) tell the layouts apart. This
//! module is the single source of those strings: each report module
//! re-exports its own `SCHEMA` from here, and the exhaustive-match test
//! below guarantees a new artifact cannot ship without registering its
//! identifier (and that no two artifacts share one).

/// Every schema-versioned artifact rc-bench produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schema {
    /// Benchmark trajectories (`BENCH_rc.json`).
    Trajectory,
    /// Fault-injection torture matrix.
    FaultMatrix,
    /// Differential-fuzzing report.
    FuzzReport,
    /// Perfetto-loadable provenance trace export.
    TraceExport,
    /// Post-mortem heap snapshot (`rc-bench inspect` input).
    Snapshot,
    /// Checkpoint-recovery matrix (supervised re-execution).
    RecoveryMatrix,
    /// Parallel spawn/join execution matrix (scheduler equivalence).
    ParallelMatrix,
    /// Work/span critical-path report for one parallel workload cell.
    CritPath,
}

impl Schema {
    /// Every registered schema, in introduction order.
    pub const ALL: [Schema; 8] = [
        Schema::Trajectory,
        Schema::FaultMatrix,
        Schema::FuzzReport,
        Schema::TraceExport,
        Schema::Snapshot,
        Schema::RecoveryMatrix,
        Schema::ParallelMatrix,
        Schema::CritPath,
    ];

    /// The identifier embedded in the artifact; bumped on layout change.
    pub const fn id(self) -> &'static str {
        match self {
            Schema::Trajectory => "rc-bench-trajectory/v1",
            Schema::FaultMatrix => "rc-bench-faultmatrix/v1",
            Schema::FuzzReport => "rc-fuzz-report/v1",
            Schema::TraceExport => "rc-trace-export/v1",
            Schema::Snapshot => "rc-bench-snapshot/v1",
            Schema::RecoveryMatrix => "rc-bench-recoverymatrix/v1",
            Schema::ParallelMatrix => "rc-bench-parallelmatrix/v1",
            Schema::CritPath => "rc-bench-critpath/v1",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive: every registered schema has a distinct, versioned id,
    /// and the per-module `SCHEMA` re-exports agree with the registry.
    #[test]
    fn every_schema_is_registered_versioned_and_distinct() {
        let mut seen = Vec::new();
        for s in Schema::ALL {
            // No wildcard: adding a variant without extending ALL (or the
            // match in `id`) fails to compile or fails here.
            let id = match s {
                Schema::Trajectory => s.id(),
                Schema::FaultMatrix => s.id(),
                Schema::FuzzReport => s.id(),
                Schema::TraceExport => s.id(),
                Schema::Snapshot => s.id(),
                Schema::RecoveryMatrix => s.id(),
                Schema::ParallelMatrix => s.id(),
                Schema::CritPath => s.id(),
            };
            assert!(
                id.rsplit_once("/v").and_then(|(_, v)| v.parse::<u32>().ok()).is_some(),
                "{id:?} must end in a /vN version suffix"
            );
            assert!(!seen.contains(&id), "{id:?} registered twice");
            seen.push(id);
        }
        assert_eq!(seen.len(), Schema::ALL.len());
        assert_eq!(crate::trajectory::SCHEMA, Schema::Trajectory.id());
        assert_eq!(crate::faultmatrix::SCHEMA, Schema::FaultMatrix.id());
        assert_eq!(crate::fuzzreport::SCHEMA, Schema::FuzzReport.id());
        assert_eq!(crate::provenance::SCHEMA, Schema::TraceExport.id());
        // The snapshot schema is defined in region-rt (the capture side);
        // the registry and the runtime must agree on the string.
        assert_eq!(crate::inspect::SCHEMA, Schema::Snapshot.id());
        assert_eq!(region_rt::SNAPSHOT_SCHEMA, Schema::Snapshot.id());
        assert_eq!(crate::recoverymatrix::SCHEMA, Schema::RecoveryMatrix.id());
        assert_eq!(crate::parallelmatrix::SCHEMA, Schema::ParallelMatrix.id());
        assert_eq!(crate::critpath::SCHEMA, Schema::CritPath.id());
    }
}
