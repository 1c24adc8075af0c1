//! Detector statistics feeding the paper's Table 3 and Figure 3.

cvm_net::counters! {
    /// Counters produced by the barrier-master comparison algorithm.
    ///
    /// Percentages derived from these counters reproduce the first two columns
    /// of the paper's Table 3 ("Intervals Used" and "Bitmaps Used"); the raw
    /// comparison counts drive the cost model behind Figure 3's "Intervals" and
    /// "Bitmaps" bars.
    pub struct DetectorStats {
        /// Intervals examined across all epochs.
        pub intervals_total: u64,
        /// Intervals involved in at least one concurrent pair with page overlap
        /// (i.e. exhibiting unsynchronized sharing, true or false).
        pub intervals_used: u64,
        /// Version-vector comparisons performed (constant-time each).
        pub pair_comparisons: u64,
        /// Pairs found concurrent.
        pub pairs_concurrent: u64,
        /// Concurrent pairs whose page notice lists overlap (the check list).
        pub pairs_overlapping: u64,
        /// Distinct `(interval, page)` bitmaps retrieved in the extra round.
        pub bitmaps_requested: u64,
        /// Total `(interval, page)` access pairs (read or write notices) —
        /// the denominator of "Bitmaps Used".
        pub bitmaps_total: u64,
        /// Word-level bitmap comparisons performed.
        pub bitmap_comparisons: u64,
        /// Races reported (one per racy word per interval pair).
        pub races_found: u64,
    }
}

impl DetectorStats {
    /// Table 3, column 1: fraction of intervals involved in at least one
    /// concurrent pair with page overlap.
    pub fn intervals_used_frac(&self) -> f64 {
        ratio(self.intervals_used, self.intervals_total)
    }

    /// Table 3, column 2: fraction of access bitmaps that had to be
    /// retrieved to distinguish false from true sharing.
    pub fn bitmaps_used_frac(&self) -> f64 {
        ratio(self.bitmaps_requested, self.bitmaps_total)
    }

    /// Fraction of compared pairs that were concurrent — how much of the
    /// quadratic pair space LRC ordering eliminates (the paper's "over 70%
    /// of all program execution" dynamic-elimination claim).
    pub fn pairs_concurrent_frac(&self) -> f64 {
        ratio(self.pairs_concurrent, self.pair_comparisons)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_handle_zero_denominators() {
        let s = DetectorStats::default();
        assert_eq!(s.intervals_used_frac(), 0.0);
        assert_eq!(s.bitmaps_used_frac(), 0.0);
        assert_eq!(s.pairs_concurrent_frac(), 0.0);
    }

    #[test]
    fn add_accumulates_all_fields() {
        let mut a = DetectorStats {
            intervals_total: 1,
            intervals_used: 1,
            pair_comparisons: 2,
            pairs_concurrent: 1,
            pairs_overlapping: 1,
            bitmaps_requested: 3,
            bitmaps_total: 4,
            bitmap_comparisons: 5,
            races_found: 6,
        };
        a.add(&a.clone());
        assert_eq!(a.intervals_total, 2);
        assert_eq!(a.races_found, 12);
        assert_eq!(a.bitmaps_total, 8);
    }

    #[test]
    fn fractions_compute_ratios() {
        let s = DetectorStats {
            intervals_total: 100,
            intervals_used: 15,
            bitmaps_requested: 1,
            bitmaps_total: 100,
            pair_comparisons: 10,
            pairs_concurrent: 7,
            ..Default::default()
        };
        assert!((s.intervals_used_frac() - 0.15).abs() < 1e-12);
        assert!((s.bitmaps_used_frac() - 0.01).abs() < 1e-12);
        assert!((s.pairs_concurrent_frac() - 0.7).abs() < 1e-12);
    }
}
