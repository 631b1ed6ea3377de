//! The offline snapshot analyzer behind `rc-bench inspect`.
//!
//! Loads one or two `rc-bench-snapshot/v1` documents (captured by the
//! interpreter's exit/GC/trap hooks) and answers post-mortem queries:
//! `summary` (region tree with occupancy), `top` (largest regions and
//! allocation sites by retained words), `leaks` (words retained past a
//! region's last touch, attributed to `label:line`), and `diff` (two
//! snapshots — e.g. gc vs lea — with per-region and per-site
//! retained-word deltas). All renderings are pure functions of the
//! snapshots, so output is byte-deterministic.

use std::fmt::Write as _;

use rc_lang::interp::{prepare, run, Outcome};
use rc_lang::RunConfig;
use rc_workloads::{Scale, Workload};
use region_rt::{HeapSnapshot, Json};

/// The snapshot schema this analyzer accepts (defined in `region_rt`,
/// registered in [`crate::schema`]).
pub const SCHEMA: &str = region_rt::SNAPSHOT_SCHEMA;

/// Parses a serialized snapshot document.
///
/// # Errors
///
/// Returns a message on malformed JSON, a wrong schema tag, or missing
/// fields.
pub fn load(text: &str) -> Result<HeapSnapshot, String> {
    let doc = Json::parse(text).map_err(|e| format!("not JSON: {e:?}"))?;
    HeapSnapshot::from_json(&doc)
}

/// Runs `workload` under `config` with snapshots (and spans) enabled and
/// returns the final snapshot — the trap capture if the run trapped, the
/// exit capture otherwise — labeled `workload/config_name`.
///
/// # Errors
///
/// Returns a message if the run ends without producing a snapshot (e.g.
/// aborts without trapping).
pub fn dump(
    workload: &Workload,
    config_name: &str,
    config: &RunConfig,
    scale: Scale,
) -> Result<HeapSnapshot, String> {
    let source = (workload.source)(scale);
    let c = prepare(&source).map_err(|e| format!("{}: does not compile: {e:?}", workload.name))?;
    let r = run(&c, &config.clone().with_spans().with_snapshots());
    match r.outcome {
        Outcome::Exit(_) | Outcome::Trapped(_) => {}
        other => return Err(format!("{}/{config_name}: {other:?}", workload.name)),
    }
    let mut snap = r
        .snapshots
        .into_iter()
        .next_back()
        .ok_or_else(|| format!("{}/{config_name}: no snapshot captured", workload.name))?;
    snap.label = format!("{}/{config_name}", workload.name);
    Ok(snap)
}

fn header(s: &HeapSnapshot) -> String {
    let label = if s.label.is_empty() { "<unlabeled>" } else { &s.label };
    let mut out = format!(
        "{label} — reason {}, at {} cycles\n\
         live words : {} (regions {}, malloc {}, gc {})\n\
         pages      : {} committed, {} free; malloc free slots {}, gc free slots {}\n",
        s.reason.as_str(),
        s.at_cycles,
        s.total_live_words(),
        s.region_live_words(),
        s.malloc_live_words,
        s.gc_live_words,
        s.pages.len(),
        s.free_chain.len(),
        s.malloc_free_depths.iter().map(|&d| d as u64).sum::<u64>(),
        s.gc_free_depths.iter().map(|&d| d as u64).sum::<u64>(),
    );
    // Parallel runs only: the merged scheduler counters (per-task detail
    // lives in the run's `TaskReport`s, not in heap snapshots).
    if s.stats.sched_spawns + s.stats.sched_joins > 0 {
        let _ = writeln!(
            out,
            "tasks      : {} spawned, {} join points",
            s.stats.sched_spawns, s.stats.sched_joins,
        );
    }
    out
}

fn region_line(s: &HeapSnapshot, idx: usize, depth: usize) -> String {
    let r = &s.regions[idx];
    let state = if r.doomed {
        "doomed"
    } else if r.alive {
        "live"
    } else {
        "closed"
    };
    let name = if r.region == 0 {
        "region 0 (traditional)".to_string()
    } else {
        format!("region {}", r.region)
    };
    format!(
        "{:indent$}{name} [{state}] {} words, {} objects, {} pages, rc {}\n",
        "",
        r.live_words,
        r.objects,
        r.pages.len(),
        r.rc,
        indent = depth * 2,
    )
}

/// `summary`: the header plus the region tree with per-region occupancy.
/// Reclaimed regions lose their parent link at reclaim time, so they are
/// listed flat after the live tree.
pub fn summary(s: &HeapSnapshot) -> String {
    let mut out = header(s);
    out.push('\n');
    // Children lists from the surviving parent links.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); s.regions.len()];
    for (i, r) in s.regions.iter().enumerate() {
        if let Some(p) = r.parent {
            children[p as usize].push(i);
        }
    }
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    while let Some((idx, depth)) = stack.pop() {
        out.push_str(&region_line(s, idx, depth));
        for &c in children[idx].iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    let closed: Vec<&region_rt::RegionSnapshot> =
        s.regions.iter().filter(|r| !r.alive && r.parent.is_none() && r.region != 0).collect();
    if !closed.is_empty() {
        let _ = writeln!(out, "\nreclaimed ({}):", closed.len());
        for r in closed {
            let _ = writeln!(
                out,
                "  region {} freed {} words{}",
                r.region,
                r.freed_words,
                r.closed_at.map_or(String::new(), |c| format!(" at {c} cycles")),
            );
        }
    }
    out
}

/// One site rendered as `label:line` (line 0 = unattributed).
fn site_name(s: &HeapSnapshot, site: u32) -> String {
    let label = if s.label.is_empty() { "<unlabeled>" } else { &s.label };
    if site == 0 {
        format!("{label}:<unattributed>")
    } else {
        format!("{label}:{site}")
    }
}

/// Retained `(words, objects)` per region, folded from the site table —
/// unlike `RegionSnapshot::live_words`, this counts the traditional
/// region's malloc and gc objects too.
fn retained_by_region(s: &HeapSnapshot) -> Vec<(u64, u64)> {
    let mut held = vec![(0u64, 0u64); s.regions.len()];
    for e in &s.sites {
        if let Some(h) = held.get_mut(e.region as usize) {
            h.0 += e.words;
            h.1 += e.objects;
        }
    }
    held
}

/// `top`: the `limit` largest regions and allocation sites by retained
/// words.
pub fn top(s: &HeapSnapshot, limit: usize) -> String {
    let mut out = header(s);
    let held = retained_by_region(s);
    let mut regions: Vec<(u32, u64, u64)> = held
        .iter()
        .enumerate()
        .filter(|(_, h)| h.0 > 0)
        .map(|(i, h)| (i as u32, h.0, h.1))
        .collect();
    regions.sort_by_key(|&(r, w, _)| (std::cmp::Reverse(w), r));
    let _ = writeln!(out, "\ntop regions by retained words:");
    for (r, words, objects) in regions.iter().take(limit) {
        let _ = writeln!(out, "  region {r:>4} : {words:>10} words in {objects} objects");
    }
    let mut sites: Vec<_> = s.sites.iter().filter(|e| e.words > 0).collect();
    sites.sort_by_key(|e| (std::cmp::Reverse(e.words), e.region, e.site));
    let _ = writeln!(out, "\ntop sites by retained words:");
    for e in sites.iter().take(limit) {
        let _ = writeln!(
            out,
            "  {} (region {}) : {} words in {} objects",
            site_name(s, e.site),
            e.region,
            e.words,
            e.objects
        );
    }
    out
}

/// `leaks`: regions still holding words, ranked by how long they have
/// been idle (virtual cycles since their span's last alloc, count update
/// or check), with each one's retained words attributed to allocation
/// sites.
pub fn leaks(s: &HeapSnapshot, limit: usize) -> String {
    let mut out = header(s);
    let held = retained_by_region(s);
    let mut holders: Vec<&region_rt::RegionSnapshot> =
        s.regions.iter().filter(|r| held[r.region as usize].0 > 0).collect();
    // Untouched regions (last_touch 0: spans off or never touched) sort
    // last — idleness is unknown, not maximal.
    holders.sort_by_key(|r| {
        let idle = if r.last_touch == 0 { 0 } else { s.at_cycles.saturating_sub(r.last_touch) };
        (std::cmp::Reverse(idle), r.region)
    });
    let _ = writeln!(out, "\nretained past last touch:");
    if holders.is_empty() {
        let _ = writeln!(out, "  (nothing retained)");
    }
    for r in holders.iter().take(limit) {
        let idle = if r.last_touch == 0 {
            "idle unknown (no span touch)".to_string()
        } else {
            format!("idle {} cycles", s.at_cycles.saturating_sub(r.last_touch))
        };
        let _ =
            writeln!(out, "  region {} : {} words, {idle}", r.region, held[r.region as usize].0);
        for e in s.sites.iter().filter(|e| e.region == r.region && e.words > 0) {
            let _ = writeln!(
                out,
                "    {} : {} words in {} objects",
                site_name(s, e.site),
                e.words,
                e.objects
            );
        }
    }
    out
}

/// `diff`: per-region and per-site retained-word deltas between two
/// snapshots (`b` minus `a`) — the gc-vs-lea retention gap, attributed.
/// Totals are cross-checked against each snapshot's own `Stats` gauge, so
/// the printed gap is exactly the live-word difference the benchmark
/// tables report.
pub fn diff(a: &HeapSnapshot, b: &HeapSnapshot, limit: usize) -> String {
    let la = if a.label.is_empty() { "A" } else { &a.label };
    let lb = if b.label.is_empty() { "B" } else { &b.label };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "retained words: {la} {} vs {lb} {} (delta {:+})",
        a.total_live_words(),
        b.total_live_words(),
        b.total_live_words() as i64 - a.total_live_words() as i64,
    );
    let _ = writeln!(
        out,
        "stats gauge   : {la} {} vs {lb} {} — identity {}",
        a.stats.live_words,
        b.stats.live_words,
        if a.stats.live_words == a.total_live_words() && b.stats.live_words == b.total_live_words()
        {
            "holds on both sides"
        } else {
            "BROKEN"
        },
    );

    // Per-region deltas, matched by index (region ids are creation order,
    // comparable when both runs execute the same program).
    let mut region_deltas: Vec<(u32, i64)> = Vec::new();
    for i in 0..a.regions.len().max(b.regions.len()) {
        let wa = a.regions.get(i).map_or(0, |r| r.live_words) as i64;
        let wb = b.regions.get(i).map_or(0, |r| r.live_words) as i64;
        if wa != wb {
            region_deltas.push((i as u32, wb - wa));
        }
    }
    region_deltas.sort_by_key(|&(r, d)| (std::cmp::Reverse(d.unsigned_abs()), r));
    let _ = writeln!(out, "\nregion deltas ({}):", region_deltas.len());
    if region_deltas.is_empty() {
        let _ = writeln!(out, "  (no per-region differences)");
    }
    for (r, d) in region_deltas.iter().take(limit) {
        let _ = writeln!(out, "  region {r} : {d:+} words");
    }

    // Per-site deltas keyed by (region, site); both site tables are
    // sorted by key, so a merge walks them deterministically.
    let mut site_deltas: Vec<(u32, u32, i64)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.sites.len() || j < b.sites.len() {
        let ka = a.sites.get(i).map(|e| (e.region, e.site));
        let kb = b.sites.get(j).map(|e| (e.region, e.site));
        match (ka, kb) {
            (Some(x), Some(y)) if x == y => {
                let d = b.sites[j].words as i64 - a.sites[i].words as i64;
                if d != 0 {
                    site_deltas.push((x.0, x.1, d));
                }
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x < y => {
                site_deltas.push((x.0, x.1, -(a.sites[i].words as i64)));
                i += 1;
            }
            (Some(_), Some(y)) => {
                site_deltas.push((y.0, y.1, b.sites[j].words as i64));
                j += 1;
            }
            (Some(x), None) => {
                site_deltas.push((x.0, x.1, -(a.sites[i].words as i64)));
                i += 1;
            }
            (None, Some(y)) => {
                site_deltas.push((y.0, y.1, b.sites[j].words as i64));
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    let explained: i64 = site_deltas.iter().map(|&(_, _, d)| d).sum();
    site_deltas.sort_by_key(|&(r, s, d)| (std::cmp::Reverse(d.unsigned_abs()), r, s));
    let _ = writeln!(
        out,
        "\nsite deltas ({}, explaining {explained:+} of the gap):",
        site_deltas.len()
    );
    if site_deltas.is_empty() {
        let _ = writeln!(out, "  (no per-site differences)");
    }
    for (r, site, d) in site_deltas.iter().take(limit) {
        let name = if *site == 0 { "<unattributed>".to_string() } else { format!("line {site}") };
        let _ = writeln!(out, "  {name} (region {r}) : {d:+} words");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_lang::CheckMode;

    fn snap(config_name: &str, config: RunConfig) -> HeapSnapshot {
        let w = rc_workloads::by_name("cfrac").unwrap();
        dump(&w, config_name, &config, Scale::TINY).unwrap()
    }

    #[test]
    fn dump_is_deterministic_and_loads_back() {
        let a = snap("inf", RunConfig::rc_inf());
        let b = snap("inf", RunConfig::rc_inf());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.label, "cfrac/inf");
        let back = load(&a.render()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn load_rejects_other_schemas() {
        assert!(load("{\"schema\": \"rc-bench-trajectory/v1\"}")
            .unwrap_err()
            .contains("schema mismatch"));
        assert!(load("not json").unwrap_err().contains("not JSON"));
    }

    #[test]
    fn queries_render_the_snapshot() {
        let s = snap("qs", RunConfig::rc(CheckMode::Qs));
        let sum = summary(&s);
        assert!(sum.contains("cfrac/qs"), "{sum}");
        assert!(sum.contains("region 0 (traditional)"));
        let t = top(&s, 10);
        assert!(t.contains("top sites by retained words"));
        let l = leaks(&s, 10);
        assert!(l.contains("retained past last touch"));
        // cfrac's globals survive to exit, so something is attributed.
        assert!(l.contains("cfrac/qs:"), "{l}");
    }

    #[test]
    fn summary_shows_task_counters_only_for_parallel_runs() {
        let mut s = snap("qs", RunConfig::rc(CheckMode::Qs));
        // Sequential runs never spawned, so the line must be absent.
        assert!(!summary(&s).contains("tasks      :"), "{}", summary(&s));
        s.stats.sched_spawns = 4;
        s.stats.sched_joins = 1;
        let sum = summary(&s);
        assert!(sum.contains("tasks      : 4 spawned, 1 join points"), "{sum}");
    }

    #[test]
    fn gc_vs_lea_diff_attributes_the_gap() {
        let gc = snap("gc", RunConfig::gc());
        let lea = snap("lea", RunConfig::lea());
        let d = diff(&lea, &gc, 10);
        assert!(d.contains("identity holds on both sides"), "{d}");
        // The GC heap retains floating garbage that lea freed eagerly, so
        // the diff must attribute a nonzero gap to concrete sites.
        let gap = gc.total_live_words() as i64 - lea.total_live_words() as i64;
        assert_ne!(gap, 0, "configs should retain differently");
        assert!(d.contains(&format!("(delta {gap:+})")), "{d}");
        assert!(d.contains("site deltas"), "{d}");
        assert!(d.contains(&format!("explaining {gap:+} of the gap")), "{d}");
    }
}
