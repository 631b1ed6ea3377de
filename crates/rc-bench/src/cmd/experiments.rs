//! `rc-bench experiments`: runs the whole evaluation and writes
//! `EXPERIMENTS.md` (plus raw JSON in `target/experiments/`).
//!
//! Usage: `cargo run --release -p rc-bench -- experiments
//! [--scale N] [--profile] [--sample] [--trace <path>]`.
//!
//! `--profile` appends a telemetry section (per-workload hot check sites
//! and a region flamegraph) and writes folded profiles to
//! `target/experiments/profiles.jsonl`. `--trace <path>` additionally
//! exports the raw event stream as JSON Lines to `<path>`. `--sample`
//! reruns the Figure 7/8 matrix with the timeline sampler on, appends
//! heap-timeline sparklines, and writes the schema-versioned trajectory
//! report to `target/experiments/BENCH_rc.json`.
//! A check-site provenance section (static verdicts joined with dynamic
//! fire counts from the span layer) is always included; per-site Perfetto
//! traces export separately via `rc-bench trace-export`. Exits 0, or 2 on
//! bad arguments or I/O errors.

use std::fmt::Write as _;
use std::process::ExitCode;

use rc_bench::report::{self, Row};
use rc_bench::Args;

pub fn main(args: Vec<String>) -> ExitCode {
    let args =
        Args::parse("experiments", args, &["--profile", "--sample"], &["--scale", "--trace"], 0);
    let scale = args.scale();
    let trace_path = args.value("--trace");
    let profile = args.flag("--profile") || trace_path.is_some();
    eprintln!("running all experiments at scale {}…", scale.0);

    let t1 = report::table1(scale);
    eprintln!("table 1 done");
    let t2 = report::table2(scale);
    eprintln!("table 2 done");
    let t3 = report::table3(scale);
    eprintln!("table 3 done");
    let f7 = report::fig7(scale);
    eprintln!("figure 7 done");
    let f8 = report::fig8(scale);
    eprintln!("figure 8 done");
    let f9 = report::fig9(scale);
    eprintln!("figure 9 done");
    let telemetry = profile.then(|| {
        let t = report::telemetry(scale);
        eprintln!("telemetry done");
        t
    });
    let (coverage, exemplar) = rc_bench::provenance::summarize(scale, "cfrac");
    eprintln!("provenance coverage done");
    let parallel = rc_bench::parallelmatrix::collect(scale);
    eprintln!("parallel matrix done ({} cells)", parallel.runs.len());
    let trajectory = args.flag("--sample").then(|| {
        let t = rc_bench::trajectory::collect(scale);
        eprintln!("trajectory done ({} runs)", t.runs.len());
        t
    });

    // Raw JSON for regression diffing, then the markdown.
    let dir = "target/experiments";
    let mut files = vec![
        (format!("{dir}/table1.json"), rows(&t1)),
        (format!("{dir}/table2.json"), rows(&t2)),
        (format!("{dir}/table3.json"), rows(&t3)),
        (format!("{dir}/fig7.json"), rows(&f7)),
        (format!("{dir}/fig8.json"), rows(&f8)),
        (format!("{dir}/fig9.json"), rows(&f9)),
        (format!("{dir}/provenance.json"), rows(&coverage)),
        (format!("{dir}/PARALLELMATRIX_rc.json"), parallel.render()),
    ];
    if let Some(tel) = &telemetry {
        files.push((format!("{dir}/telemetry.json"), rows(&tel.rows)));
        files.push((format!("{dir}/profiles.jsonl"), tel.profiles_jsonl()));
        if let Some(path) = trace_path {
            files.push((path.to_string(), tel.events_jsonl()));
        }
    }
    if let Some(traj) = &trajectory {
        files.push((format!("{dir}/BENCH_rc.json"), traj.render()));
        // The samples-stripped variant, sized for committing as
        // baselines/BENCH_baseline.json (`tools/pins.sh refresh`).
        files.push((format!("{dir}/BENCH_baseline.json"), traj.render_baseline()));
    }

    let mut md = String::new();
    let _ = writeln!(md, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        md,
        "Generated by `cargo run --release -p rc-bench -- experiments --scale {s}` \
         (workload scale {s}). Our substrate is an instrumented interpreter with \
         the paper's published instruction costs (23 cycles per reference-count \
         update, 6–14 per annotation check — Figure 3), so *absolute* numbers \
         are virtual instruction counts; the claims to compare are the \
         *shapes*: who wins, relative overheads, and which checks verify. \
         Workloads are ~100× miniatures of the 2001 originals (see \
         `crates/rc-workloads`). Columns prefixed `paper_` quote the paper.\n",
        s = scale.0,
    );

    let _ = writeln!(md, "## Table 1 — benchmark characteristics\n");
    let _ = writeln!(md, "```\n{}\n```\n", report::text_table(&t1));
    let _ = writeln!(
        md,
        "Shape check: the relative allocation volumes follow the paper \
         (gröbner/cfrac allocation-heavy; tile tiny; rc/apache moderate).\n"
    );

    let _ = writeln!(md, "## Table 2 — reference-counting overhead\n");
    let _ = writeln!(md, "```\n{}\n```\n", report::text_table(&t2));
    let lcc = t2.iter().find(|r| r.name == "lcc").expect("lcc row");
    let _ = writeln!(
        md,
        "Shape check: lcc has the largest RC overhead (measured \
         {:.1}%, paper 11%); C@ overhead exceeds RC on every benchmark; \
         cfrac/gröbner/tile are near zero as in the paper; unscan stays a \
         small fraction of runtime.\n",
        lcc.rc_overhead_pct
    );

    let _ = writeln!(md, "## Table 3 — annotations and static verification\n");
    let _ = writeln!(md, "```\n{}\n```\n", report::text_table(&t3));
    let _ = writeln!(
        md,
        "Shape check: the verification ordering matches the paper — \
         moss/mudlle/tile/gröbner verify most of their checks, lcc/apache a \
         minority, rc the least (the bison parse-stack effect).\n"
    );

    let _ = writeln!(md, "## Figure 7 — execution time across allocators\n");
    let _ = writeln!(md, "```\n{}\n```\n", report::text_table(&f7));
    let _ = writeln!(
        md,
        "Shape check: RC beats C@ everywhere; RC beats lea and GC on the \
         allocation-heavy benchmarks (region deletion amortises individual \
         frees); `norc` lower-bounds RC.\n"
    );

    let _ = writeln!(md, "## Figure 8 — nq / qs / inf / nc\n");
    let _ = writeln!(md, "```\n{}\n```\n", report::text_table(&f8));
    let lcc8 = f8.iter().find(|r| r.name == "lcc").expect("lcc row");
    let _ = writeln!(
        md,
        "Shape check: overheads fall monotonically nq → qs → inf → nc. For \
         lcc, nq overhead {:.1}% vs inf {:.1}% (paper: 27% → 11%); for \
         mudlle, {:.1}% vs {:.1}% (paper: 23% → 6%).\n",
        lcc8.overhead_pct["nq"],
        lcc8.overhead_pct["inf"],
        f8.iter().find(|r| r.name == "mudlle").map(|r| r.overhead_pct["nq"]).unwrap_or(0.0),
        f8.iter().find(|r| r.name == "mudlle").map(|r| r.overhead_pct["inf"]).unwrap_or(0.0),
    );

    let _ = writeln!(md, "## Figure 9 — pointer-assignment categories\n");
    let _ = writeln!(md, "```\n{}\n```\n", report::text_table(&f9));
    let _ = writeln!(
        md,
        "Shape check: annotated (safe+checked) assignments dominate on every \
         benchmark except the counted-heavy lcc; cfrac's activity is almost \
         entirely local-variable assignments, as the paper observes.\n"
    );

    let _ = writeln!(md, "## Check-site provenance — static verdicts vs dynamic outcomes (qs)\n");
    let _ = writeln!(md, "```\n{}\n```\n", report::text_table(&coverage));
    let _ = writeln!(
        md,
        "Each workload runs once under `qs` with region lifecycle spans on; \
         `eliminated` counts the sites the §4.3 inference proved safe (it \
         equals `Analysis::eliminated_sites` by construction), and \
         `never_failing` counts retained sites that executed and never \
         failed — the headroom a sharper inference could claim. Per-site \
         detail for every workload exports via `rc-bench trace-export` \
         (`{}`, Perfetto-loadable — see the \"Spans & provenance\" \
         section of `docs/OBSERVABILITY.md`); the full table for {} \
         follows.\n",
        rc_bench::provenance::SCHEMA,
        exemplar.workload,
    );
    let _ = writeln!(md, "### {} per-site coverage\n", exemplar.workload);
    let _ = writeln!(md, "{}", rc_bench::provenance::coverage_markdown(&exemplar));

    let _ = writeln!(md, "## Parallel spawn/join matrix — scheduler equivalence\n");
    let _ = writeln!(md, "```\n{}```\n", parallel.summary());
    let _ = writeln!(
        md,
        "Each Figure 7 workload's spawn/join variant (`rc_workloads::parspawn`) \
         runs its fixed iteration budget split across 1/2/4/8 spawned tasks \
         under `lea`/`GC`/`qs`, once sequentially and once under the seeded \
         deterministic scheduler (seed `{:#x}`). The gate demands per-cell \
         outcome equivalence, post-join audit cleanliness, and *identical* \
         merged telemetry (stats, virtual cycles, steps, handoffs) across \
         schedulers — region ownership transfer makes interleaving \
         unobservable. The full report is \
         `target/experiments/PARALLELMATRIX_rc.json` (`{}`); `tools/pins.sh` \
         pins it by digest. Real-thread wall-clock scaling is a separate \
         probe (`rc-bench parallel-matrix --speedup`), gated only on machines with \
         ≥4 hardware threads; see `docs/TESTING.md`.\n",
        rc_bench::parallelmatrix::DET_SEED,
        rc_bench::parallelmatrix::SCHEMA,
    );

    let _ = writeln!(md, "### Speedup attribution — work/span per cell (lea)\n");
    let _ = writeln!(md, "{}", rc_bench::parallelmatrix::attribution_markdown(&parallel));
    let _ = writeln!(
        md,
        "\nWork/span decomposition of every `lea` cell from the per-task \
         scheduler logs: `work` is Σ per-task cycles (gated equal to the \
         merged virtual clock), `span` the critical path through the \
         spawn/join tree, `ideal×` their ratio — the ceiling on any \
         scheduler's speedup. `span + overlapped == work` is gated per \
         cell, so `overlapped` is exactly the sequential-vs-ideal cycle \
         gap; `root-serial` is the path share the root task executes \
         (the measured Amdahl bound), `merge-tail` its post-join portion, \
         and `blocked` the observed shared-clock stall time under the \
         deterministic scheduler. Per-cell paths render via `rc-bench \
         critpath`; the multi-track task/scheduler Perfetto export is \
         `rc-bench trace-export --parallel` (see `docs/OBSERVABILITY.md`).\n"
    );

    if let Some(tel) = &telemetry {
        let _ = writeln!(md, "## Telemetry — per-site attribution (qs, traced)\n");
        let _ = writeln!(md, "```\n{}\n```\n", report::text_table(&tel.rows));
        let _ = writeln!(
            md,
            "Sites are `workload:line` in the generated RC source; the check \
             columns profile the Figure 8 qs regime, where every annotation \
             check executes. Raw events and folded profiles export as JSON \
             Lines (`--trace <path>`, `target/experiments/profiles.jsonl`); \
             see `docs/OBSERVABILITY.md` for the schema.\n"
        );
        let _ = writeln!(md, "Region flamegraph of the nested-region demo:\n");
        let _ = writeln!(md, "```\n{}```\n", tel.flamegraph);
    }

    if let Some(traj) = &trajectory {
        let _ = writeln!(md, "## Heap timelines (RC configuration)\n");
        let _ = writeln!(md, "{}", rc_bench::trajectory::timeline_section(traj));
        let _ = writeln!(
            md,
            "The full trajectory — every Figure 7/8 run with its sample series \
             — is `target/experiments/BENCH_rc.json` \
             (`{}`). `tools/pins.sh` pins it and its samples-stripped \
             `baselines/BENCH_baseline.json` byte for byte, so any moved \
             cycle or word fails CI.\n",
            rc_bench::trajectory::SCHEMA,
        );
    }

    files.push(("EXPERIMENTS.md".to_string(), md));
    for (path, text) in &files {
        if let Err(code) = rc_bench::write_output("experiments", path, text) {
            return code;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn rows<T: Row>(rows: &[T]) -> String {
    report::rows_json(rows).render_pretty()
}
