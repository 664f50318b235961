//! Seeded randomness, order statistics, result comparison and the
//! process's own peak memory.

use mppart::common::{Datum, Row};
use std::time::Duration;

/// SplitMix64: small, fast and fully determined by its seed, so the same
/// `--seed` always generates the same rows and statements.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    /// An independent stream for one purpose (data, statements, …).
    pub fn stream(seed: u64, tag: u64) -> Rng {
        Rng::new(mix(seed.wrapping_add(mix(tag))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % ((hi - lo) as u64 + 1)) as i64
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range(0, xs.len() as i64 - 1) as usize]
    }
}

/// The SplitMix64 finalizer: a good 64-bit bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Time in ms of the calibration kernel at the reference host speed
/// (this repository's 2-core development host at its usual speed).
pub const REFERENCE_MS: f64 = 0.65;

/// How much slower than the reference the host runs this process right
/// now: the time of a fixed piece of CPU work resembling query processing
/// (hashing, sorting, a hash aggregate; under a millisecond) over
/// [`REFERENCE_MS`].
///
/// On a shared host the speed a process gets drifts by a third within a
/// minute; every timing the benchmark reports is divided by the factor
/// measured next to it, so that runs at different moments compare the
/// program rather than the neighbours.
pub fn slowdown() -> f64 {
    let once = || {
        let t0 = std::time::Instant::now();
        // Just under 128 KiB, the allocator's mmap threshold, so the
        // kernel's page faults stay out of the measurement.
        let mut v: Vec<u64> = (0..16_000u64).map(mix).collect();
        v.sort_unstable();
        let mut groups = std::collections::HashMap::with_capacity(4096);
        for x in &v {
            *groups.entry(x % 4093).or_insert(0u64) += x >> 32;
        }
        std::hint::black_box(groups.len());
        ms(t0.elapsed())
    };
    median(&[once(), once(), once()]) / REFERENCE_MS
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile; NaN for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The highest of the usual percentiles that has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below forty samples,
/// where a "tail" would rest on a handful of points.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 40 {
        return None;
    }
    let n = xs.len() as f64;
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (100.0 - p) / 100.0 >= 10.0)
        .map(|p| (p, quantile(xs, p / 100.0)))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One result value as the benchmark's model states it.
#[derive(Debug, Clone)]
pub enum Val {
    Null,
    Num(f64),
    Str(String),
}

impl Val {
    pub fn of(d: &Datum) -> Val {
        match d {
            Datum::Null => Val::Null,
            Datum::Bool(b) => Val::Num(*b as i64 as f64),
            Datum::Int32(v) | Datum::Date(v) => Val::Num(*v as f64),
            Datum::Int64(v) => Val::Num(*v as f64),
            Datum::Float64(v) => Val::Num(*v),
            Datum::Str(s) => Val::Str(s.to_string()),
        }
    }

    /// Equal up to float summation order: sums are folded in a different
    /// order by every engine, so numbers agree to a relative 1e-9.
    pub fn matches(&self, other: &Val) -> bool {
        match (self, other) {
            (Val::Null, Val::Null) => true,
            (Val::Num(a), Val::Num(b)) => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            (Val::Str(a), Val::Str(b)) => a == b,
            _ => false,
        }
    }
}

pub fn vals(row: &Row) -> Vec<Val> {
    row.values().iter().map(Val::of).collect()
}

pub fn row_matches(a: &[Val], b: &[Val]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.matches(y))
}

/// Is `got` the multiset `want`? Results here are small (at most a few
/// hundred rows), so a quadratic matching is fine and needs no float
/// ordering.
pub fn same_multiset(got: &[Vec<Val>], want: &[Vec<Val>]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let mut used = vec![false; want.len()];
    got.iter().all(|g| {
        let hit = (0..want.len()).find(|&i| !used[i] && row_matches(g, &want[i]));
        hit.map(|i| used[i] = true).is_some()
    })
}

/// Order-independent digest of a multiset of rows, for results too large
/// to compare row by row. Integer-like values hash by value, whatever
/// their width, so the check does not pin the program's output types.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, vals: &[Datum]) {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for d in vals {
            let bits = match d {
                Datum::Null => 0x5555,
                Datum::Bool(b) => *b as u64 + 7,
                Datum::Int32(v) | Datum::Date(v) => *v as i64 as u64,
                Datum::Int64(v) => *v as u64,
                Datum::Float64(v) => v.to_bits() ^ 0xF,
                Datum::Str(s) => s.bytes().fold(0x811C_9DC5u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
                }),
            };
            h = mix(h ^ bits);
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(mix(h));
    }

    pub fn merge(&mut self, other: Digest) {
        self.rows += other.rows;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(90.0));
        assert!(tail(&xs[..39]).is_none());
    }

    #[test]
    fn digest_ignores_order_and_int_width() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add(&[Datum::Int32(1), Datum::str("x")]);
        a.add(&[Datum::Int64(2), Datum::Float64(0.5)]);
        b.add(&[Datum::Int32(2), Datum::Float64(0.5)]);
        b.add(&[Datum::Int64(1), Datum::str("x")]);
        assert_eq!(a, b);
        b.add(&[Datum::Null]);
        assert_ne!(a, b);
    }

    #[test]
    fn multiset_match_tolerates_float_order() {
        let r = |x: f64| vec![Val::Num(x), Val::Str("a".into())];
        assert!(same_multiset(&[r(1.0), r(0.3)], &[r(0.1 + 0.2), r(1.0)]));
        assert!(!same_multiset(&[r(1.0), r(1.0)], &[r(1.0), r(2.0)]));
    }
}
