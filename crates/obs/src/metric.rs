//! Atomic metric primitives: [`Counter`], [`Gauge`], and a fixed-bucket
//! latency [`Histogram`].
//!
//! Handles are `Arc`-backed: cloning is cheap, recording is a single
//! atomic RMW, and every clone observes the same cell. That is load-
//! bearing for the live loop — `alive-core::System` is cloned as a
//! transaction checkpoint, and metrics must survive a quarantine
//! rollback exactly like the fault log does, so clones deliberately
//! share their cells rather than fork them.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. Saturates at `u64::MAX` in the sense that wrapping is
    /// practically unreachable (2^64 events).
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time level: queue depths, high-water marks, cache sizes.
///
/// Unlike [`Counter`], a gauge may move both ways. `observe_max` gives
/// high-water semantics (mailbox depth peaks, ready-queue length peaks)
/// with a single `fetch_max`.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Move the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the level to `v` if `v` is higher — high-water tracking.
    pub fn observe_max(&self, v: i64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Default bucket upper bounds (µs) for latency histograms: tuned for a
/// live loop whose interesting range spans "cached view read" (~µs) to "cold
/// compile under load" (~100ms). The final implicit bucket is overflow.
pub const DEFAULT_LATENCY_BOUNDS_US: &[u64] = &[
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

struct HistogramCells {
    /// Upper (inclusive) bound per bucket; one extra overflow bucket
    /// follows the last bound.
    bounds: Box<[u64]>,
    /// `bounds.len() + 1` buckets; the last is overflow.
    buckets: Box<[AtomicU64]>,
    /// Sum of all recorded values.
    sum: AtomicU64,
    /// Number of recorded values. Written LAST in `record` so a
    /// concurrent snapshot that reads it FIRST always sees
    /// `buckets_sum >= count` — torn reads under-count, never
    /// over-count (asserted by the invariant suite).
    count: AtomicU64,
}

impl std::fmt::Debug for HistogramCells {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramCells")
            .field("bounds", &self.bounds)
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

/// A fixed-bucket histogram for latency-style values (µs).
///
/// Recording is three relaxed atomic adds; quantiles come from a
/// [`HistogramSnapshot`] via linear interpolation inside the winning
/// bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// A histogram over [`DEFAULT_LATENCY_BOUNDS_US`].
    pub fn new() -> Self {
        Histogram::with_bounds(DEFAULT_LATENCY_BOUNDS_US)
    }

    /// A histogram over explicit bucket upper bounds. Bounds must be
    /// strictly increasing; out-of-order bounds are sorted and deduped
    /// rather than rejected (no-panic discipline).
    pub fn with_bounds(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets: Box<[AtomicU64]> = (0..sorted.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            cells: Arc::new(HistogramCells {
                bounds: sorted.into_boxed_slice(),
                buckets,
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Index of the bucket that holds `value`: first bucket whose upper
    /// bound is `>= value`, else the overflow bucket.
    fn bucket_index(&self, value: u64) -> usize {
        self.cells.bounds.partition_point(|&b| b < value)
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        let idx = self.bucket_index(value);
        if let Some(bucket) = self.cells.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.cells.sum.fetch_add(value, Ordering::Relaxed);
        // Count moves last: see the field comment on `count`.
        self.cells.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Measure a closure with `clock` and record the elapsed µs.
    pub fn time<T>(&self, clock: &dyn crate::clock::Clock, f: impl FnOnce() -> T) -> T {
        let start = clock.now_us();
        let out = f();
        self.record(clock.now_us().saturating_sub(start));
        out
    }

    /// Point-in-time copy of the cells. Count is read FIRST (the
    /// mirror of `record` writing it last) so concurrent recording can
    /// only make `buckets_sum >= count`, never the reverse.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.cells.count.load(Ordering::Relaxed);
        let sum = self.cells.sum.load(Ordering::Relaxed);
        let buckets = self
            .cells
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            bounds: self.cells.bounds.to_vec(),
            buckets,
            sum,
            count,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// An owned, immutable copy of a histogram's state: what crosses the
/// wire and what quantiles are computed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper (inclusive) bound per bucket, strictly increasing.
    pub bounds: Vec<u64>,
    /// `bounds.len() + 1` counts; the last is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Sum of recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over the default latency bounds.
    pub fn empty() -> Self {
        HistogramSnapshot {
            bounds: DEFAULT_LATENCY_BOUNDS_US.to_vec(),
            buckets: vec![0; DEFAULT_LATENCY_BOUNDS_US.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Total of the bucket counts (≥ `count` under torn concurrent
    /// reads, == `count` at quiescence).
    pub fn buckets_total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of recorded values, or `None` when empty.
    pub fn mean_us(&self) -> Option<u64> {
        self.sum.checked_div(self.count)
    }

    /// Quantile `q` in `[0, 1]` by linear interpolation inside the
    /// winning bucket. Returns `None` when the histogram is empty.
    ///
    /// The overflow bucket has no upper bound, so values landing there
    /// report the last finite bound (a deliberate floor: quantiles
    /// saturate rather than invent data beyond the instrumented range).
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let total = self.buckets_total();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, in [1, total].
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            if in_bucket == 0 {
                continue;
            }
            if seen + in_bucket >= rank {
                let lower = if i == 0 {
                    0
                } else {
                    self.bounds.get(i - 1).copied().unwrap_or(0)
                };
                let upper = match self.bounds.get(i) {
                    Some(&b) => b,
                    // Overflow bucket: saturate at the last finite bound.
                    None => return Some(self.bounds.last().copied().unwrap_or(0)),
                };
                let into = rank - seen; // 1..=in_bucket
                let width = upper - lower;
                let frac = into as f64 / in_bucket as f64;
                return Some(lower + (width as f64 * frac).round() as u64);
            }
            seen += in_bucket;
        }
        // Unreachable when total > 0, but stay total anyway.
        self.bounds.last().copied()
    }

    /// p50 shorthand.
    pub fn p50_us(&self) -> Option<u64> {
        self.quantile_us(0.50)
    }

    /// p90 shorthand.
    pub fn p90_us(&self) -> Option<u64> {
        self.quantile_us(0.90)
    }

    /// p99 shorthand.
    pub fn p99_us(&self) -> Option<u64> {
        self.quantile_us(0.99)
    }

    /// Fold `other` into `self`. Requires equal bounds to merge
    /// bucket-wise; on a bounds mismatch only `sum`/`count` are folded
    /// (counts stay truthful, shape degrades — no panic). Merge over
    /// equal bounds is associative and commutative (property-tested).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.sum = self.sum.saturating_add(other.sum);
        self.count = self.count.saturating_add(other.count);
        if self.bounds == other.bounds && self.buckets.len() == other.buckets.len() {
            for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
                *mine = mine.saturating_add(*theirs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_across_clones() {
        let a = Counter::new();
        let b = a.clone();
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn gauge_high_water() {
        let g = Gauge::new();
        g.observe_max(5);
        g.observe_max(3);
        assert_eq!(g.get(), 5);
        g.set(-2);
        g.add(1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::with_bounds(&[10, 100]);
        h.record(10); // lands in [0,10]
        h.record(11); // lands in (10,100]
        h.record(100); // lands in (10,100]
        h.record(101); // overflow
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![1, 2, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 10 + 11 + 100 + 101);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.p50_us(), None);
        assert_eq!(s.mean_us(), None);
    }

    #[test]
    fn overflow_quantiles_saturate_at_last_bound() {
        let h = Histogram::with_bounds(&[10, 100]);
        h.record(5_000);
        h.record(9_999);
        let s = h.snapshot();
        assert_eq!(s.p50_us(), Some(100));
        assert_eq!(s.p99_us(), Some(100));
    }
}
