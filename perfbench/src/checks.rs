//! Correctness checks and the attempted/failed bookkeeping.
//!
//! Every operation the benchmark performs (a job, a request, a check)
//! counts as attempted; every one that fails, answers wrongly or disagrees
//! with its reference counts as failed. The result line's `correct` is
//! `failed == 0`.

use std::collections::BTreeMap;

/// Attempted and failed operation counts of one run.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    pub fn new() -> Self {
        Checks::default()
    }

    /// Records one operation; on failure prints `name` and the lazily built
    /// `detail` to standard error.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {name}: {}", detail());
        }
        ok
    }

    /// Folds in counts gathered elsewhere (e.g. by request threads).
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// A histogram in canonical (sorted) form, so equality is byte equality
/// of its rendering.
pub type Histogram = BTreeMap<u64, u64>;

/// Renders a histogram as `outcome:count` pairs; two histograms are
/// byte-identical exactly when their renderings are.
pub fn render(histogram: &Histogram) -> String {
    let mut out = String::new();
    for (outcome, count) in histogram {
        out.push_str(&format!("{outcome}:{count};"));
    }
    out
}

/// The first difference between two histograms, for failure messages.
pub fn first_difference(a: &Histogram, b: &Histogram) -> String {
    for (outcome, count) in a {
        let other = b.get(outcome).copied().unwrap_or(0);
        if other != *count {
            return format!("outcome {outcome}: {count} vs {other}");
        }
    }
    for (outcome, count) in b {
        if !a.contains_key(outcome) {
            return format!("outcome {outcome}: 0 vs {count}");
        }
    }
    "no difference".to_string()
}

/// Total-variation distance between an empirical histogram and an exact
/// outcome distribution indexed by outcome.
pub fn total_variation(histogram: &Histogram, exact: &[f64]) -> f64 {
    let shots: u64 = histogram.values().sum();
    if shots == 0 {
        return 1.0;
    }
    let mut sum = 0.0;
    for (outcome, &p) in exact.iter().enumerate() {
        let observed = histogram.get(&(outcome as u64)).copied().unwrap_or(0);
        sum += (observed as f64 / shots as f64 - p).abs();
    }
    // Outcomes outside the exact support carry probability zero.
    for (&outcome, &count) in histogram {
        if outcome as usize >= exact.len() {
            sum += count as f64 / shots as f64;
        }
    }
    0.5 * sum
}

/// The total-variation bound the oracle check enforces: by the
/// Bretagnolle–Huber–Carol inequality, `P(TV >= eps) <= 2^k exp(-2 n eps^2)`
/// for an empirical distribution of `n` samples over `k` outcomes, so
/// `eps = sqrt((k ln 2 + ln(1/delta)) / (2n))` holds with probability at
/// least `1 - delta`. The benchmark uses `delta = 1e-9`.
pub fn tv_bound(outcomes: usize, shots: u64) -> f64 {
    const DELTA: f64 = 1e-9;
    ((outcomes as f64 * std::f64::consts::LN_2 + (1.0 / DELTA).ln()) / (2.0 * shots as f64)).sqrt()
}

/// Checks `histogram` against the exact distribution within
/// [`tv_bound`]; prints the distance and the bound.
pub fn check_oracle(
    label: &str,
    histogram: &Histogram,
    exact: &[f64],
    checks: &mut Checks,
) -> bool {
    let shots: u64 = histogram.values().sum();
    let tv = total_variation(histogram, exact);
    let bound = tv_bound(exact.len(), shots);
    println!("# oracle {label}: shots={shots} tv={tv:.5} bound={bound:.5} (delta=1e-9)");
    checks.check("density oracle", tv <= bound, || {
        format!("{label}: total variation {tv} exceeds {bound}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Samples `shots` outcomes from `exact` by inversion.
    fn sample(exact: &[f64], shots: u64, seed: u64) -> Histogram {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut histogram = Histogram::new();
        for _ in 0..shots {
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut pick = exact.len() - 1;
            for (i, &p) in exact.iter().enumerate() {
                acc += p;
                if u < acc {
                    pick = i;
                    break;
                }
            }
            *histogram.entry(pick as u64).or_insert(0) += 1;
        }
        histogram
    }

    fn ghz_like(n: usize) -> Vec<f64> {
        let mut exact = vec![0.0; 1 << n];
        exact[0] = 0.48;
        exact[(1 << n) - 1] = 0.48;
        exact[1] = 0.04;
        exact
    }

    #[test]
    fn honest_samples_pass_the_oracle_bound() {
        let exact = ghz_like(6);
        for seed in 0..5 {
            let histogram = sample(&exact, 8000, seed);
            let tv = total_variation(&histogram, &exact);
            assert!(tv < tv_bound(exact.len(), 8000), "seed {seed}: tv {tv}");
        }
    }

    #[test]
    fn corrupted_histogram_fails_the_oracle_bound() {
        let exact = ghz_like(6);
        let mut histogram = sample(&exact, 8000, 3);
        // Move a fifth of the shots from one peak onto a wrong outcome.
        let moved = 1600;
        *histogram.get_mut(&0).unwrap() -= moved;
        *histogram.entry(5).or_insert(0) += moved;
        let tv = total_variation(&histogram, &exact);
        assert!(tv > tv_bound(exact.len(), 8000), "tv {tv} passed the bound");
    }

    #[test]
    fn corrupted_histogram_fails_byte_identity() {
        let mut a = Histogram::new();
        a.insert(0, 10);
        a.insert(7, 5);
        let mut b = a.clone();
        assert_eq!(render(&a), render(&b));
        // A single shot moved between outcomes breaks identity.
        *b.get_mut(&0).unwrap() -= 1;
        b.insert(3, 1);
        assert_ne!(render(&a), render(&b));
        assert_eq!(first_difference(&a, &b), "outcome 0: 10 vs 9");
    }

    #[test]
    fn checks_count_failures() {
        let mut checks = Checks::new();
        assert!(checks.check("good", true, String::new));
        assert!(!checks.check("bad", false, || "expected".to_string()));
        checks.add(10, 1);
        assert_eq!(checks.attempted(), 12);
        assert_eq!(checks.failed(), 2);
    }
}
