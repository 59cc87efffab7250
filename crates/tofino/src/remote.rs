//! Latency model of *remote* control — the Figure 17 baseline.
//!
//! The paper's baseline is Mantis, a driver-level framework running on the
//! switch's management CPU: the fastest published path for reactive control
//! that is still outside the data plane. Installing one entry into a P4
//! match-action table from Mantis "took at least 12 µs ... with an average
//! of 17.5 µs". We model that path as a shifted exponential: a 12 µs floor
//! (PCIe round trip + driver work that always happens) plus an
//! exponentially distributed excess with mean 5.5 µs (scheduling and
//! batching jitter), which reproduces both published moments.
//!
//! The model deliberately excludes flow-arrival *detection* time, exactly
//! as the paper's measurement does ("this is a lower bound because it
//! ignores the time required for the CPU to detect that a new flow has
//! arrived").

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Remote-control (management CPU) installation latency model.
#[derive(Debug, Clone)]
pub struct RemoteControlModel {
    /// Hard latency floor, ns (paper: 12 µs).
    pub floor_ns: f64,
    /// Mean of the exponential excess, ns (paper mean 17.5 µs ⇒ 5.5 µs).
    pub excess_mean_ns: f64,
}

impl Default for RemoteControlModel {
    fn default() -> Self {
        RemoteControlModel {
            floor_ns: 12_000.0,
            excess_mean_ns: 5_500.0,
        }
    }
}

impl RemoteControlModel {
    /// Sample `n` installation latencies (ns), deterministically from `seed`.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let exp = Exp {
            mean: self.excess_mean_ns,
        };
        (0..n)
            .map(|_| self.floor_ns + exp.sample(&mut rng))
            .collect()
    }
}

/// Minimal exponential distribution (avoids pulling in `rand_distr`).
struct Exp {
    mean: f64,
}

impl Distribution<f64> for Exp {
    fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -self.mean * u.ln()
    }
}

/// Empirical CDF helper shared by the Figure 17 harness: returns
/// `(value, cumulative_probability)` pairs sorted by value.
pub fn ecdf(samples: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Percentile (0..=100) of a sample set.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty());
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = (pct / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_respected() {
        let m = RemoteControlModel::default();
        let s = m.sample(1_000, 42);
        assert!(s.iter().all(|&x| x >= 12_000.0));
    }

    #[test]
    fn sample_mean_matches_paper_mean() {
        let m = RemoteControlModel::default();
        let s = m.sample(100_000, 7);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        // Paper: average 17.5 µs.
        assert!((mean - 17_500.0).abs() < 300.0, "mean {mean}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = RemoteControlModel::default();
        assert_eq!(m.sample(10, 1), m.sample(10, 1));
        assert_ne!(m.sample(10, 1), m.sample(10, 2));
    }

    #[test]
    fn ecdf_is_monotone_and_ends_at_one() {
        let e = ecdf(&[3.0, 1.0, 2.0]);
        assert_eq!(e.len(), 3);
        assert!(e.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert!((e.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_bounds() {
        let s = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
    }
}
