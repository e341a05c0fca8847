//! Quantiles over raw samples (never histogram buckets).

/// The `q`-quantile of `samples` by the nearest-rank rule: the smallest
/// sample with at least `q` of all samples at or below it. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// The 1-based nearest rank of level `q` among `n` samples (a hair of
/// slack keeps `0.7 * 10` at rank 7 despite binary rounding).
fn rank(q: f64, n: usize) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Percentile levels a tail can be reported at, highest first.
pub const TAIL_LEVELS: [f64; 7] = [0.99, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5];

/// The highest level of [`TAIL_LEVELS`] that leaves at least ten of `n`
/// samples strictly beyond it, so a tail is never one lucky sample.
/// Falls back to the median for fewer than twenty samples.
pub fn tail_level(n: usize) -> f64 {
    TAIL_LEVELS
        .iter()
        .copied()
        .find(|&q| n.saturating_sub(rank(q, n)) >= 10)
        .unwrap_or(0.5)
}

/// The Harrell–Davis estimate of the `q`-quantile of `sorted` samples: a
/// weighted mean of every order statistic with the weights a
/// Beta(q(n+1), (1-q)(n+1)) distribution gives each rank. With few,
/// spread-out samples (36 configurations of very different cost) a
/// single order statistic jumps whenever two neighbours swap; this
/// estimate moves smoothly.
pub fn harrell_davis(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut below = 0.0;
    let mut acc = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = beta_cdf(a, b, (i + 1) as f64 / n);
        acc += (upto - below) * x;
        below = upto;
    }
    acc
}

/// The regularized incomplete beta function I_x(a, b) (continued
/// fraction, after Numerical Recipes' `betai`).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    let lower = x < (a + 1.0) / (a + b + 2.0);
    if front == 0.0 {
        // Far in a tail: the fraction cannot lift an underflowed front,
        // and skipping it keeps long sample sets cheap.
        return if lower { 0.0 } else { 1.0 };
    }
    if lower {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// Median and tail of one sample set, with the tail's level and the
/// sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub count: usize,
    /// The median.
    pub p50: f64,
    /// The level the tail was taken at (see [`tail_level`]).
    pub tail_level: f64,
    /// The sample at `tail_level`.
    pub tail: f64,
}

/// Summarises a latency distribution with Harrell–Davis quantiles.
/// `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let level = tail_level(sorted.len());
    Some(Summary {
        count: sorted.len(),
        p50: harrell_davis(&sorted, 0.5),
        tail_level: level,
        tail: harrell_davis(&sorted, level),
    })
}

/// The median of `samples` (nearest rank); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
