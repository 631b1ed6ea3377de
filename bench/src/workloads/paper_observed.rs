//! `paper-observed`: the same programs and runtime as `paper-exec`, with
//! every telemetry facet on. A job runs one program audited under RC or
//! GC with tracing, sampling, spans and snapshots, exports the event
//! ring, profile, timeline and exit snapshot, then reads the snapshot
//! back and restores a live heap from it. The facets, exporters and
//! restore do the work `paper-exec` does not.

use std::hint::black_box;

use rc_lang::{run_audited, Compiled, RunConfig};
use region_rt::{Heap, HeapSnapshot, Json, SnapshotReason};

use crate::harness::Workload;
use crate::metrics::Values;
use crate::spans::{per, SelfTable, Spans};

pub struct PaperObserved;

pub struct State {
    programs: Vec<(&'static str, Compiled)>,
    /// (name, every facet off, every facet on).
    configs: Vec<(&'static str, RunConfig, RunConfig)>,
}

impl Workload for PaperObserved {
    type State = State;

    fn setup(&self, sp: &mut Spans) -> Result<State, String> {
        let programs = super::paper_programs(sp)?;
        let configs = [("RC", RunConfig::rc_inf()), ("GC", RunConfig::gc())]
            .into_iter()
            .map(|(n, c)| {
                (
                    n,
                    c.clone(),
                    c.traced().sampled().with_spans().with_snapshots(),
                )
            })
            .collect();
        Ok(State { programs, configs })
    }

    fn jobs(&self, st: &State) -> usize {
        st.programs.len() * st.configs.len()
    }

    fn label(&self, st: &State, job: usize) -> String {
        let n = st.configs.len();
        format!("{}/{}", st.programs[job / n].0, st.configs[job % n].0)
    }

    fn run_job(&self, st: &State, job: usize, _seed: u64, sp: &mut Spans) -> Result<(), String> {
        let n = st.configs.len();
        let (name, c) = (st.programs[job / n].0, &st.programs[job / n].1);
        let (_, plain, on) = &st.configs[job % n];
        if sp.on() {
            // The base for `telemetry.run_overhead_pct`: the same audited
            // run with every facet off.
            let r = sp.leaf("interp.run", || run_audited(c, plain));
            if !r.outcome.is_exit() {
                return Err(format!("untraced run ended {:?}", r.outcome));
            }
        }
        let r = sp.leaf("telemetry.run", || run_audited(c, on));
        if !r.outcome.is_exit() {
            return Err(format!("ended {:?}", r.outcome));
        }
        match &r.audit {
            Some(Ok(())) => {}
            other => return Err(format!("audit {other:?}")),
        }
        let spans = r.spans.as_deref().ok_or("no span tree")?;
        match spans.verification() {
            Some(Ok(())) => {}
            other => return Err(format!("span verification {other:?}")),
        }
        let tracer = r.tracer.as_deref().ok_or("no tracer")?;
        let timeline = r.timeline.as_deref().ok_or("no timeline")?;
        let snapshot = r.snapshots.last().ok_or("no snapshot")?;
        if snapshot.reason != SnapshotReason::Exit {
            return Err(format!(
                "last snapshot is a {} snapshot",
                snapshot.reason.as_str()
            ));
        }

        let events = sp.leaf("trace.export", || tracer.events_jsonl(""));
        sp.count("bytes", events.len() as u64);
        sp.count("recorded", tracer.recorded());
        sp.count("dropped", tracer.dropped());
        let profile = sp.leaf("profile.export", || tracer.profile().to_json(name).render());
        let samples = sp.leaf("timeline.export", || timeline.to_json().render());
        sp.count("samples", timeline.len() as u64);
        let text = sp.leaf("snapshot.render", || snapshot.render());
        sp.count("bytes", text.len() as u64);
        sp.count("snapshots", r.snapshots.len() as u64);
        sp.count("spans", spans.spans().len() as u64);

        let doc = sp
            .leaf("json.parse", || Json::parse(&text))
            .map_err(|e| e.to_string())?;
        let back = sp.leaf("snapshot.from_json", || HeapSnapshot::from_json(&doc))?;
        let again = sp.leaf("snapshot.render", || back.render());
        if again != text {
            return Err("the snapshot re-renders differently after a JSON round trip".into());
        }
        let heap = sp
            .leaf("restore", || Heap::restore(&back))
            .map_err(|e| e.to_string())?;
        black_box((events, profile, samples, heap));
        Ok(())
    }

    fn layer_metrics(&self, _st: &State, _sp: &Spans, t: &SelfTable, m: &mut Values) {
        // Per-job counts ride on the first of the job's two renders (the
        // export; the second is the round-trip check).
        let exports = t.n("trace.export");
        let mut put = |k: &str, v: f64| {
            m.insert(k.to_string(), v);
        };
        put("telemetry.run_ms", t.mean_ms("telemetry.run"));
        let base = t.self_ms("interp.run");
        let overhead = if base > 0.0 {
            100.0 * (t.self_ms("telemetry.run") / base - 1.0)
        } else {
            0.0
        };
        put("telemetry.run_overhead_pct", overhead);
        put("trace.events_recorded", t.mean("trace.export", "recorded"));
        put("trace.events_dropped", t.mean("trace.export", "dropped"));
        put("trace.export_ms", t.mean_ms("trace.export"));
        put("trace.export_bytes", t.mean("trace.export", "bytes"));
        put("profile.export_ms", t.mean_ms("profile.export"));
        put("timeline.samples", t.mean("timeline.export", "samples"));
        put("timeline.export_ms", t.mean_ms("timeline.export"));
        put(
            "span.count",
            per(t.sum("snapshot.render", "spans") as f64, exports),
        );
        put(
            "snapshot.count",
            per(t.sum("snapshot.render", "snapshots") as f64, exports),
        );
        put("snapshot.render_ms", t.mean_ms("snapshot.render"));
        put(
            "snapshot.bytes",
            per(t.sum("snapshot.render", "bytes") as f64, exports),
        );
        put("json.parse_ms", t.mean_ms("json.parse"));
        put("snapshot.from_json_ms", t.mean_ms("snapshot.from_json"));
        put("restore.busy_ms", t.mean_ms("restore"));
    }
}
