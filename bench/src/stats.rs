//! Order statistics and the regression-bound rule shared by `run` and
//! `compare`.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The `p`-th nearest-rank percentile of `xs`: the smallest value with
/// at least `p`% of the sample at or below it; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s.get(rank.clamp(1, s.len().max(1)) - 1).copied()
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads read the same here as in any script that checks them.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

/// Each job's smallest time over passes that list job times in job
/// order (empty when there are no passes).
pub fn fastest(passes: &[Vec<f64>]) -> Vec<f64> {
    let mut best = passes.first().cloned().unwrap_or_default();
    for p in passes {
        for (b, &ms) in best.iter_mut().zip(p) {
            *b = b.min(ms);
        }
    }
    best
}

/// Geometric mean of `xs`; `None` when empty or when a value is not
/// positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Jobs per second of a pass in which each job takes the given
/// milliseconds; `None` when the pass takes no time.
pub fn jobs_per_s(job_ms: &[f64]) -> Option<f64> {
    let total: f64 = job_ms.iter().sum();
    (total > 0.0).then(|| job_ms.len() as f64 * 1e3 / total)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// `a` reads strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The verdict for one workload × metric between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by more than the parent's own spread, and
    /// at least nine tenths of all parent/change pairs favour it.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// No regression beyond the bound, and no resolved gain.
    Within,
    /// The run-to-run spread is wider than the bound and the two sides
    /// do not fully separate, so the data cannot decide.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies a change against its parent for one metric. `bound` is the
/// share of the parent's median by which the metric may worsen.
pub fn classify(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let pm = median(parent)?;
    let cm = median(change)?;
    if pm == 0.0 {
        return None;
    }
    // Positive = the change reads worse, as a share of the parent.
    let worse_by = match better {
        Better::Lower => (cm - pm) / pm.abs(),
        Better::Higher => (pm - cm) / pm.abs(),
    };
    let wide = spread(parent)?.max(spread(change)?) > bound;
    let all_pairs =
        |f: &dyn Fn(f64, f64) -> bool| parent.iter().all(|&p| change.iter().all(|&c| f(c, p)));
    let separated_better = all_pairs(&|c, p| better.beats(c, p));
    let separated_worse = all_pairs(&|c, p| better.beats(p, c));
    if wide && !separated_better && !separated_worse {
        return Some(Verdict::Unresolved);
    }
    if worse_by > bound {
        return Some(Verdict::Worse);
    }
    let wins = parent
        .iter()
        .flat_map(|&p| change.iter().map(move |&c| (p, c)))
        .filter(|&(p, c)| better.beats(c, p))
        .count();
    let pairs = parent.len() * change.len();
    if -worse_by > spread(parent)? && wins * 10 >= pairs * 9 {
        return Some(Verdict::Better);
    }
    Some(Verdict::Within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 10.0), Some(10.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 10.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), Some(3.0));
        assert_eq!(percentile(&[5.0], 0.0), Some(5.0));
        assert_eq!(percentile(&[], 10.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // Python extrapolates past the data for tiny samples:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(
            quartiles(&[300.0, 350.0, 400.0, 450.0, 500.0]),
            Some((325.0, 475.0))
        );
        assert_eq!(quartiles(&[5.0]), Some((5.0, 5.0)));
        assert_eq!(spread(&xs), Some(1.0));
    }

    #[test]
    fn throughput_runs_each_job_at_its_fastest() {
        // Job 0 took 30 then 10 ms, job 1 took 40 then 50 ms: at their
        // fastest the two take 50 ms, 40 jobs/s.
        let best = fastest(&[vec![30.0, 40.0], vec![10.0, 50.0]]);
        assert_eq!(best, vec![10.0, 40.0]);
        assert_eq!(jobs_per_s(&best), Some(40.0));
        assert!(fastest(&[]).is_empty());
        assert_eq!(jobs_per_s(&[]), None);
        assert_eq!(jobs_per_s(&[0.0]), None);
    }

    #[test]
    fn geomean_weighs_every_job_alike() {
        let g = geomean(&[10.0, 40.0]).expect("positive values");
        assert!((g - 20.0).abs() < 1e-12, "{g}");
        // Doubling one job's cost moves it by the same factor whichever
        // job it is.
        let a = geomean(&[20.0, 40.0]).expect("positive values");
        let b = geomean(&[10.0, 80.0]).expect("positive values");
        assert!((a - b).abs() < 1e-12, "{a} {b}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn bound_rule_flags_regressions_past_the_bound_only() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let a_bit_slower = [104.0, 105.0, 103.0, 104.5, 103.5];
        let much_slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        let lower = Better::Lower;
        assert_eq!(
            classify(&parent, &a_bit_slower, lower, 0.1),
            Some(Verdict::Within)
        );
        assert_eq!(
            classify(&parent, &much_slower, lower, 0.1),
            Some(Verdict::Worse)
        );
        assert_eq!(
            classify(&parent, &faster, lower, 0.1),
            Some(Verdict::Better)
        );
        // Throughput: the same numbers mean the opposite.
        let higher = Better::Higher;
        assert_eq!(
            classify(&parent, &faster, higher, 0.1),
            Some(Verdict::Worse)
        );
        assert_eq!(
            classify(&parent, &much_slower, higher, 0.1),
            Some(Verdict::Better)
        );
    }

    #[test]
    fn bound_rule_reports_noisy_overlapping_sides_as_unresolved() {
        let parent = [60.0, 100.0, 140.0, 80.0, 120.0];
        let change = [70.0, 110.0, 150.0, 90.0, 130.0];
        assert_eq!(
            classify(&parent, &change, Better::Lower, 0.1),
            Some(Verdict::Unresolved)
        );
        // Fully separated sides decide even when each is noisy.
        let far = [300.0, 400.0, 500.0, 350.0, 450.0];
        assert_eq!(
            classify(&parent, &far, Better::Lower, 0.1),
            Some(Verdict::Worse)
        );
        assert_eq!(
            classify(&far, &parent, Better::Lower, 0.1),
            Some(Verdict::Better)
        );
        assert_eq!(classify(&[], &parent, Better::Lower, 0.1), None);
    }
}
