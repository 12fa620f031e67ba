//! Fixed log2-bucketed duration histograms.
//!
//! Profiles must be byte-identical for identical traces, so the histogram
//! keeps every statistic in integer nanoseconds: bucket selection is a
//! leading-zeros computation, the mean is an integer division, and no
//! float ever enters the accumulation path.

use asym_sim::SimDuration;
use std::fmt;

/// Why [`Log2Histogram::from_parts`] rejected a set of raw statistics.
///
/// Each variant names the first invariant the parts violated; the
/// carried fields are the observed values, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramPartsError {
    /// The per-bucket counts do not sum to the claimed sample count.
    CountMismatch {
        /// Saturating sum of the bucket counts.
        bucket_sum: u64,
        /// The claimed sample count.
        count: u64,
    },
    /// An empty histogram claimed a nonzero total or maximum.
    NonZeroEmpty {
        /// The claimed total, which must be 0 when empty.
        total_nanos: u64,
        /// The claimed maximum, which must be 0 when empty.
        max_nanos: u64,
    },
    /// The claimed maximum does not fall in the highest occupied bucket.
    MaxOutsideTopBucket {
        /// The claimed maximum sample.
        max_nanos: u64,
        /// Index of the highest occupied bucket.
        top: usize,
    },
    /// The claimed total is below the least total the buckets allow
    /// (every sample at its bucket's lower bound).
    TotalBelowFloor {
        /// The claimed total.
        total_nanos: u64,
        /// The least total consistent with the bucket counts.
        floor: u64,
    },
}

impl fmt::Display for HistogramPartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HistogramPartsError::CountMismatch { bucket_sum, count } => write!(
                f,
                "bucket counts sum to {bucket_sum} but the histogram claims {count} samples"
            ),
            HistogramPartsError::NonZeroEmpty {
                total_nanos,
                max_nanos,
            } => write!(
                f,
                "empty histogram claims total {total_nanos} ns / max {max_nanos} ns"
            ),
            HistogramPartsError::MaxOutsideTopBucket { max_nanos, top } => write!(
                f,
                "max {max_nanos} ns is outside the highest occupied bucket ({top})"
            ),
            HistogramPartsError::TotalBelowFloor { total_nanos, floor } => write!(
                f,
                "total {total_nanos} ns is below the bucket-implied floor {floor} ns"
            ),
        }
    }
}

impl std::error::Error for HistogramPartsError {}

/// A percentile estimate read off a log2 histogram: the true sample at
/// that rank lies in `[low, high]` nanoseconds — the bucket-width error
/// bound that is the best a fixed-bucket histogram can certify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PercentileBound {
    /// Inclusive lower bound: the rank's bucket's lower edge.
    pub low: u64,
    /// Inclusive upper bound: one below the bucket's upper edge, clamped
    /// to the observed maximum (which also bounds the open top bucket).
    pub high: u64,
}

/// Number of buckets in a [`Log2Histogram`].
///
/// Bucket 0 holds zero-duration samples only; bucket `b` (for `b >= 1`)
/// holds durations in `[2^(b-1), 2^b)` nanoseconds; the top bucket
/// saturates, absorbing everything at or above 2^30 ns (~1.07 s).
pub const HIST_BUCKETS: usize = 32;

/// A power-of-two-bucketed histogram of simulated durations.
///
/// # Examples
///
/// ```
/// use asym_obs::Log2Histogram;
/// use asym_sim::SimDuration;
///
/// let mut h = Log2Histogram::new();
/// h.record(SimDuration::ZERO);
/// h.record(SimDuration::from_nanos(1));
/// h.record(SimDuration::from_nanos(1500));
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.buckets()[0], 1); // the zero-duration sample
/// assert_eq!(h.buckets()[1], 1); // 1 ns lands in [1, 2)
/// assert_eq!(h.buckets()[11], 1); // 1500 ns lands in [1024, 2048)
/// assert_eq!(h.mean_nanos(), 500);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Log2Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    total_nanos: u64,
    max_nanos: u64,
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            total_nanos: 0,
            max_nanos: 0,
        }
    }

    /// Reassembles a histogram from raw statistics — the exact inverse
    /// of reading [`buckets`](Log2Histogram::buckets),
    /// [`count`](Log2Histogram::count),
    /// [`total_nanos`](Log2Histogram::total_nanos), and
    /// [`max_nanos`](Log2Histogram::max_nanos). Persistence layers (the
    /// sweep engine's on-disk cell cache) use this to round-trip a
    /// histogram bit-exactly.
    ///
    /// The parts are *validated*, not trusted: a corrupted or hand-edited
    /// cache entry whose bucket counts, sample count, total, and maximum
    /// cannot all have come from the same [`record`](Log2Histogram::record)
    /// sequence is rejected with a description of the first violated
    /// invariant, so the caller can treat the entry as a miss instead of
    /// silently folding impossible statistics into a report.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramPartsError`] when the parts are mutually
    /// inconsistent: the bucket counts do not sum to `count`, an empty
    /// histogram carries a nonzero total or maximum, `max_nanos` falls
    /// outside the highest occupied bucket, or `total_nanos` is smaller
    /// than the least total the occupied buckets imply.
    pub fn from_parts(
        buckets: [u64; HIST_BUCKETS],
        count: u64,
        total_nanos: u64,
        max_nanos: u64,
    ) -> Result<Self, HistogramPartsError> {
        let bucket_sum: u64 = buckets.iter().fold(0, |acc, &b| acc.saturating_add(b));
        if bucket_sum != count {
            return Err(HistogramPartsError::CountMismatch { bucket_sum, count });
        }
        if count == 0 {
            if total_nanos != 0 || max_nanos != 0 {
                return Err(HistogramPartsError::NonZeroEmpty {
                    total_nanos,
                    max_nanos,
                });
            }
        } else {
            let top = buckets
                .iter()
                .rposition(|&b| b > 0)
                .expect("count > 0 implies an occupied bucket");
            if Self::bucket_index(max_nanos) != top {
                return Err(HistogramPartsError::MaxOutsideTopBucket { max_nanos, top });
            }
            // The least total consistent with the buckets: every sample at
            // its bucket's lower bound. `record` saturates the total, so
            // only enforce the bound when the floor itself didn't saturate.
            let floor = buckets.iter().enumerate().fold(0u64, |acc, (i, &b)| {
                acc.saturating_add(b.saturating_mul(Self::bucket_range(i).0))
            });
            if floor != u64::MAX && total_nanos < floor {
                return Err(HistogramPartsError::TotalBelowFloor { total_nanos, floor });
            }
        }
        Ok(Log2Histogram {
            buckets,
            count,
            total_nanos,
            max_nanos,
        })
    }

    /// The bucket index a duration of `nanos` nanoseconds falls into.
    pub fn bucket_index(nanos: u64) -> usize {
        if nanos == 0 {
            0
        } else {
            ((64 - nanos.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// The `[low, high)` nanosecond range of bucket `index`; `high` is
    /// [`None`] for the saturating top bucket.
    ///
    /// # Panics
    ///
    /// Panics if `index >= HIST_BUCKETS`.
    pub fn bucket_range(index: usize) -> (u64, Option<u64>) {
        assert!(index < HIST_BUCKETS, "bucket index {index} out of range");
        match index {
            0 => (0, Some(1)),
            b if b == HIST_BUCKETS - 1 => (1 << (b - 1), None),
            b => (1 << (b - 1), Some(1 << b)),
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, d: SimDuration) {
        let nanos = d.as_nanos();
        self.buckets[Self::bucket_index(nanos)] += 1;
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, saturating, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos
    }

    /// Integer mean sample in nanoseconds (zero when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }

    /// Largest sample in nanoseconds.
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket sample counts, indexed by [`Log2Histogram::bucket_index`].
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// The percentile bound at `permille` thousandths (`500` = p50,
    /// `999` = p99.9), computed with pure integer rank arithmetic:
    /// the rank is `ceil(count × permille / 1000)`, clamped to at least
    /// 1, and the returned bound brackets the bucket that rank falls in.
    /// Returns [`None`] for an empty histogram or `permille` outside
    /// `1..=1000`.
    pub fn percentile(&self, permille: u64) -> Option<PercentileBound> {
        if self.count == 0 || permille == 0 || permille > 1000 {
            return None;
        }
        let rank = ((self.count as u128 * permille as u128).div_ceil(1000) as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                let (low, high) = Self::bucket_range(i);
                let high = match high {
                    Some(h) => (h - 1).min(self.max_nanos),
                    None => self.max_nanos,
                };
                return Some(PercentileBound {
                    low: low.min(self.max_nanos),
                    high,
                });
            }
        }
        None
    }

    /// The median bound (p50).
    pub fn p50(&self) -> Option<PercentileBound> {
        self.percentile(500)
    }

    /// The p95 bound.
    pub fn p95(&self) -> Option<PercentileBound> {
        self.percentile(950)
    }

    /// The p99 bound.
    pub fn p99(&self) -> Option<PercentileBound> {
        self.percentile(990)
    }

    /// The p99.9 bound.
    pub fn p999(&self) -> Option<PercentileBound> {
        self.percentile(999)
    }

    /// How many recorded samples were at or above `threshold_ns`,
    /// bracketed by the bucket resolution: `(certain, possible)` — at
    /// least `certain` samples violated the threshold (their whole
    /// bucket lies at or above it), at most `possible` did (their
    /// bucket straddles or exceeds it).
    pub fn count_at_or_above(&self, threshold_ns: u64) -> (u64, u64) {
        let mut certain = 0u64;
        let mut possible = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let (low, high) = Self::bucket_range(i);
            if low >= threshold_ns {
                certain = certain.saturating_add(n);
                possible = possible.saturating_add(n);
            } else if high.is_none_or(|h| h > threshold_ns) {
                possible = possible.saturating_add(n);
            }
        }
        (certain, possible)
    }

    /// The conservative integer point estimate a JSON consumer wants for
    /// a percentile key: the upper bound, or 0 when empty.
    fn percentile_high(&self, permille: u64) -> u64 {
        self.percentile(permille).map_or(0, |b| b.high)
    }

    /// The compact JSON object the sweep sink embeds per cell:
    /// `{"count":…,"mean_ns":…,"max_ns":…,"p50_ns":…,"p99_ns":…,"p999_ns":…}`
    /// — all integers, so the encoding is deterministic and trivially
    /// finite. Percentile keys carry the conservative (upper-bound)
    /// estimates.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
            self.count,
            self.mean_nanos(),
            self.max_nanos,
            self.percentile_high(500),
            self.percentile_high(990),
            self.percentile_high(999)
        )
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

/// Renders occupied buckets as `[low, high) count |bar|` lines, top-count
/// normalised to a 40-column bar — the representation used by
/// `asym_sweep --profile` and pinned by the golden-profile test.
impl fmt::Display for Log2Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return writeln!(f, "  (no samples)");
        }
        let peak = *self.buckets.iter().max().expect("histogram has buckets");
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (low, high) = Self::bucket_range(i);
            let label = match high {
                Some(h) => format!("[{low}, {h})"),
                None => format!("[{low}, +inf)"),
            };
            let bar = (n * 40).div_ceil(peak) as usize;
            writeln!(f, "  {label:>26} ns {n:>8} |{}|", "#".repeat(bar))?;
        }
        writeln!(
            f,
            "  samples {}  mean {} ns  max {} ns",
            self.count,
            self.mean_nanos(),
            self.max_nanos
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_duration_goes_to_bucket_zero_only() {
        let mut h = Log2Histogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::ZERO);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1..].iter().sum::<u64>(), 0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean_nanos(), 0);
        assert_eq!(h.max_nanos(), 0);
    }

    #[test]
    fn one_nanosecond_is_not_in_the_zero_bucket() {
        let mut h = Log2Histogram::new();
        h.record(SimDuration::from_nanos(1));
        assert_eq!(h.buckets()[0], 0);
        assert_eq!(h.buckets()[1], 1);
    }

    #[test]
    fn bucket_boundaries_are_half_open() {
        // 2^k lands in bucket k+1 (its range is [2^k, 2^(k+1))), while
        // 2^k - 1 stays in bucket k.
        for k in 1..20 {
            let at = 1u64 << k;
            assert_eq!(Log2Histogram::bucket_index(at), k + 1, "at 2^{k}");
            assert_eq!(Log2Histogram::bucket_index(at - 1), k, "below 2^{k}");
        }
    }

    #[test]
    fn top_bucket_saturates() {
        let mut h = Log2Histogram::new();
        h.record(SimDuration::from_nanos(1 << 30)); // exactly the top threshold
        h.record(SimDuration::from_secs(100)); // far above it
        h.record(SimDuration::MAX); // would index bucket 64 unclamped
        assert_eq!(h.buckets()[HIST_BUCKETS - 1], 3);
        assert_eq!(h.max_nanos(), u64::MAX);
        // The saturating total must not wrap.
        h.record(SimDuration::MAX);
        assert_eq!(h.total_nanos(), u64::MAX);
    }

    #[test]
    fn ranges_tile_the_axis() {
        assert_eq!(Log2Histogram::bucket_range(0), (0, Some(1)));
        assert_eq!(Log2Histogram::bucket_range(1), (1, Some(2)));
        assert_eq!(Log2Histogram::bucket_range(11), (1024, Some(2048)));
        assert_eq!(
            Log2Histogram::bucket_range(HIST_BUCKETS - 1),
            (1 << 30, None)
        );
        for i in 1..HIST_BUCKETS - 1 {
            let (low, high) = Log2Histogram::bucket_range(i);
            assert_eq!(Log2Histogram::bucket_range(i + 1).0, high.unwrap());
            assert_eq!(Log2Histogram::bucket_index(low), i);
            assert_eq!(Log2Histogram::bucket_index(high.unwrap() - 1), i);
        }
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = Log2Histogram::new();
        a.record(SimDuration::from_nanos(3));
        let mut b = Log2Histogram::new();
        b.record(SimDuration::from_nanos(5));
        b.record(SimDuration::ZERO);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[0], 1);
        assert_eq!(a.buckets()[2], 1); // 3 ns in [2, 4)
        assert_eq!(a.buckets()[3], 1); // 5 ns in [4, 8)
        assert_eq!(a.total_nanos(), 8);
        assert_eq!(a.max_nanos(), 5);
    }

    #[test]
    fn json_shape_is_integers_only() {
        let mut h = Log2Histogram::new();
        h.record(SimDuration::from_nanos(10));
        h.record(SimDuration::from_nanos(20));
        // 10 ns sits in [8, 16), 20 ns in [16, 32); p50's upper bound is
        // 15, while p99/p99.9 land in the top occupied bucket, clamped
        // to the observed max.
        assert_eq!(
            h.to_json(),
            "{\"count\":2,\"mean_ns\":15,\"max_ns\":20,\"p50_ns\":15,\"p99_ns\":20,\"p999_ns\":20}"
        );
        assert_eq!(
            Log2Histogram::new().to_json(),
            "{\"count\":0,\"mean_ns\":0,\"max_ns\":0,\"p50_ns\":0,\"p99_ns\":0,\"p999_ns\":0}"
        );
    }

    /// Replays a fixed sample vector and asserts every requested
    /// percentile bound brackets the true order statistic computed from
    /// the raw samples — the property the log2 bucketing must certify.
    fn assert_percentiles_bracket_truth(samples: &[u64]) {
        let mut h = Log2Histogram::new();
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for &s in samples {
            h.record(SimDuration::from_nanos(s));
        }
        for permille in [500u64, 990, 999] {
            let bound = h.percentile(permille).expect("non-empty histogram");
            let rank = ((samples.len() as u128 * permille as u128).div_ceil(1000) as usize).max(1);
            let truth = sorted[rank - 1];
            assert!(
                bound.low <= truth && truth <= bound.high,
                "p{permille}: true {truth} outside [{}, {}] for {samples:?}",
                bound.low,
                bound.high
            );
        }
    }

    #[test]
    fn percentiles_bracket_all_one_bucket_distribution() {
        // Every sample in a single bucket [1024, 2048).
        assert_percentiles_bracket_truth(&[1024, 1500, 1600, 1700, 2000, 2047, 1100, 1200]);
        // Degenerate: identical samples.
        assert_percentiles_bracket_truth(&[777; 100]);
    }

    #[test]
    fn percentiles_bracket_bimodal_distribution() {
        // The paper's §3.3 TPC-H shape: a fast mode and a slow mode,
        // nothing in between — the worst case for mean-based summaries
        // and exactly what the tail percentiles must resolve.
        let mut samples = vec![900u64; 55]; // fast binding: ~0.9 µs
        samples.extend(vec![60_000u64; 45]); // slow binding: ~60 µs
        assert_percentiles_bracket_truth(&samples);
        // Skewed bimodal: the tail mode is rare, p99/p999 must find it.
        let mut skewed = vec![1_000u64; 995];
        skewed.extend(vec![500_000u64; 5]);
        assert_percentiles_bracket_truth(&skewed);
    }

    #[test]
    fn percentiles_of_empty_histogram_are_none() {
        let h = Log2Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.p999(), None);
        assert_eq!(h.percentile(0), None);
        let mut one = Log2Histogram::new();
        one.record(SimDuration::from_nanos(5));
        assert_eq!(one.percentile(1001), None, "permille out of range");
    }

    #[test]
    fn percentile_bounds_are_clamped_to_the_observed_max() {
        let mut h = Log2Histogram::new();
        h.record(SimDuration::from_nanos(20)); // bucket [16, 32)
        let b = h.p99().expect("one sample");
        assert_eq!((b.low, b.high), (16, 20));
        // Open top bucket: the max bounds it.
        let mut top = Log2Histogram::new();
        top.record(SimDuration::from_secs(100));
        let b = top.p999().expect("one sample");
        assert_eq!((b.low, b.high), (1 << 30, 100_000_000_000));
    }

    #[test]
    fn count_at_or_above_brackets_the_threshold() {
        let mut h = Log2Histogram::new();
        h.record(SimDuration::from_nanos(10)); // [8, 16)
        h.record(SimDuration::from_nanos(100)); // [64, 128)
        h.record(SimDuration::from_nanos(2000)); // [1024, 2048)
                                                 // Threshold inside the middle bucket: the top sample certainly
                                                 // violates, the middle one possibly does, the bottom one cannot.
        assert_eq!(h.count_at_or_above(100), (1, 2));
        assert_eq!(h.count_at_or_above(0), (3, 3));
        assert_eq!(h.count_at_or_above(1 << 40), (0, 0));
    }

    #[test]
    fn from_parts_round_trips_recorded_histograms() {
        let mut h = Log2Histogram::new();
        for n in [0u64, 1, 3, 1500, 1 << 20] {
            h.record(SimDuration::from_nanos(n));
        }
        let back =
            Log2Histogram::from_parts(*h.buckets(), h.count(), h.total_nanos(), h.max_nanos())
                .expect("recorded parts are consistent");
        assert_eq!(back, h);
    }

    #[test]
    fn from_parts_rejects_mismatched_parts() {
        let mut h = Log2Histogram::new();
        h.record(SimDuration::from_nanos(1500));
        // Count disagrees with the bucket sum.
        assert_eq!(
            Log2Histogram::from_parts(*h.buckets(), 2, h.total_nanos(), h.max_nanos()),
            Err(HistogramPartsError::CountMismatch {
                bucket_sum: 1,
                count: 2
            })
        );
        // Empty buckets with a leftover total.
        assert_eq!(
            Log2Histogram::from_parts([0; HIST_BUCKETS], 0, 7, 0),
            Err(HistogramPartsError::NonZeroEmpty {
                total_nanos: 7,
                max_nanos: 0
            })
        );
        // Max outside the highest occupied bucket (1500 occupies
        // [1024, 2048), but the claimed max says 10).
        assert_eq!(
            Log2Histogram::from_parts(*h.buckets(), 1, h.total_nanos(), 10),
            Err(HistogramPartsError::MaxOutsideTopBucket {
                max_nanos: 10,
                top: 11
            })
        );
        // Total below what one sample in [1024, 2048) can produce.
        assert_eq!(
            Log2Histogram::from_parts(*h.buckets(), 1, 500, 1500),
            Err(HistogramPartsError::TotalBelowFloor {
                total_nanos: 500,
                floor: 1024
            })
        );
        // Errors render a diagnostic.
        let err = Log2Histogram::from_parts([0; HIST_BUCKETS], 1, 0, 0).unwrap_err();
        assert!(err.to_string().contains("claims 1 samples"), "got: {err}");
    }

    #[test]
    fn display_renders_occupied_buckets() {
        let mut h = Log2Histogram::new();
        h.record(SimDuration::from_nanos(1500));
        let text = h.to_string();
        assert!(text.contains("[1024, 2048)"), "got: {text}");
        assert!(text.contains("samples 1"), "got: {text}");
        assert_eq!(Log2Histogram::new().to_string(), "  (no samples)\n");
    }
}
