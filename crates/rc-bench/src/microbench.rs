//! A minimal wall-clock benchmark harness (the build environment is
//! offline, so no criterion). Each benchmark auto-calibrates an iteration
//! count so one sample takes a few milliseconds, collects a fixed number
//! of samples, and reports `min / median / max` nanoseconds per
//! iteration. Benchmarks run with `cargo bench -p rc-bench`; an optional
//! positional argument substring-filters benchmark names, exactly like
//! criterion's CLI.

use std::time::{Duration, Instant};

/// Target wall time for a single sample during measurement.
const SAMPLE_TARGET: Duration = Duration::from_millis(4);

/// A benchmark runner for one process: parses the CLI once, then runs
/// groups.
pub struct Bench {
    filter: Option<String>,
    samples: usize,
}

impl Bench {
    /// Parses `cargo bench` CLI arguments (`--bench` is swallowed, a bare
    /// word is a name filter, `--samples N` overrides the sample count).
    pub fn from_args() -> Bench {
        let mut filter = None;
        let mut samples = 30;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--bench" | "--test" => {}
                "--samples" => {
                    if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                        samples = v;
                    }
                }
                s if !s.starts_with('-') => filter = Some(s.to_string()),
                _ => {}
            }
        }
        Bench { filter, samples }
    }

    /// Starts a named benchmark group.
    pub fn group(&self, name: &str) -> Group<'_> {
        Group { bench: self, name: name.to_string() }
    }
}

/// A named group; benchmark ids print as `group/name`.
pub struct Group<'a> {
    bench: &'a Bench,
    name: String,
}

impl Group<'_> {
    /// Runs one benchmark: calibrates, samples, prints a summary line.
    pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) {
        let id = format!("{}/{}", self.name, name);
        if let Some(filter) = &self.bench.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }

        // Calibration: grow the per-sample iteration count until one
        // sample meets the target, so timer overhead stays negligible.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let el = t.elapsed();
            if el >= SAMPLE_TARGET || iters >= 1 << 24 {
                break;
            }
            iters = if el.is_zero() {
                iters * 16
            } else {
                // Aim straight for the target, with headroom.
                (iters as u128 * SAMPLE_TARGET.as_nanos() / el.as_nanos().max(1)) as u64 + 1
            };
        }

        let mut per_iter: Vec<f64> = (0..self.bench.samples.max(1))
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let min = per_iter[0];
        let med = per_iter[per_iter.len() / 2];
        let max = per_iter[per_iter.len() - 1];
        println!(
            "{id:<50} time: [{} {} {}]  ({} samples × {iters} iters)",
            fmt_ns(min),
            fmt_ns(med),
            fmt_ns(max),
            per_iter.len(),
        );
    }
}

/// Human units, criterion-style.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_units() {
        assert_eq!(fmt_ns(12.5), "12.50 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_000_000.0), "2.00 ms");
    }

    #[test]
    fn runs_a_trivial_bench() {
        // Smoke: a cheap closure measures without panicking.
        let b = Bench { filter: None, samples: 3 };
        b.group("smoke").bench("noop", || {
            std::hint::black_box(1 + 1);
        });
    }

    #[test]
    fn filter_skips_nonmatching() {
        let b = Bench { filter: Some("zzz_never".into()), samples: 3 };
        // Would run forever per-sample if not filtered out.
        b.group("g").bench("slow", || std::thread::sleep(Duration::from_secs(60)));
    }
}
