//! Stack-distance histograms.

/// A histogram of LRU stack distances (reuse distances measured in *unique*
/// intervening lines), plus the count of cold (first-touch) accesses.
///
/// A fully-associative LRU cache of capacity `C` lines hits an access iff
/// its stack distance is `< C`; the miss count at capacity `C` is therefore
/// the cold count plus the histogram mass at distances `>= C`. Fractional
/// weights are supported so sampled engines (SHARDS) can scale their
/// contributions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StackDistanceHistogram {
    /// `counts[d]` = (possibly scaled) number of accesses with distance `d`.
    counts: Vec<f64>,
    cold: f64,
    total: f64,
}

impl StackDistanceHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `weight` accesses at stack distance `distance`.
    pub fn add(&mut self, distance: u64, weight: f64) {
        let d = usize::try_from(distance).expect("distance exceeds usize");
        if d >= self.counts.len() {
            self.counts.resize(d + 1, 0.0);
        }
        self.counts[d] += weight;
        self.total += weight;
    }

    /// Adds `weight` cold (first-touch) accesses, which miss at any capacity.
    pub fn add_cold(&mut self, weight: f64) {
        self.cold += weight;
        self.total += weight;
    }

    /// Total (scaled) accesses recorded.
    pub fn total_accesses(&self) -> f64 {
        self.total
    }

    /// Total (scaled) cold accesses.
    pub fn cold_accesses(&self) -> f64 {
        self.cold
    }

    /// Largest distance with non-zero mass, if any reuse was recorded.
    pub fn max_distance(&self) -> Option<u64> {
        self.counts.iter().rposition(|&c| c > 0.0).map(|d| d as u64)
    }

    /// Number of misses a fully-associative LRU cache of `capacity_lines`
    /// would take on this trace: cold misses plus all accesses whose
    /// distance is `>= capacity_lines`.
    pub fn misses_at(&self, capacity_lines: u64) -> f64 {
        let c = usize::try_from(capacity_lines).unwrap_or(usize::MAX);
        let reuse_misses: f64 = if c >= self.counts.len() {
            0.0
        } else {
            self.counts[c..].iter().sum()
        };
        self.cold + reuse_misses
    }

    /// [`misses_at`](Self::misses_at) at each of `capacities` (in any
    /// order), from one pass over the distances: capacities are read from
    /// the largest down, each extending the tail sum of the one before.
    /// The tail is summed from its far end, so with fractional weights a
    /// reading may differ from `misses_at`'s in the last bit; whole-number
    /// weights, such as the fast path's (sampled accesses times the
    /// inverse keep rate 4), sum exactly in either order.
    pub fn misses_at_each(&self, capacities: &[u64]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..capacities.len()).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(capacities[i]));
        let mut misses = vec![0.0; capacities.len()];
        let (mut tail, mut end) = (0.0, self.counts.len());
        for i in order {
            let start = usize::try_from(capacities[i]).map_or(end, |c| c.min(end));
            tail = self.counts[start..end]
                .iter()
                .rev()
                .fold(tail, |t, &w| t + w);
            end = start;
            misses[i] = self.cold + tail;
        }
        misses
    }

    /// Miss *rate* (fraction of accesses missing) at `capacity_lines`;
    /// 0 if the histogram is empty.
    pub fn miss_rate_at(&self, capacity_lines: u64) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.misses_at(capacity_lines) / self.total
        }
    }

    /// Adds `other` with every distance multiplied by `distance_factor`
    /// (rounded to the nearest integer distance) and every weight —
    /// including cold mass — multiplied by `weight_factor`.
    ///
    /// This is the SHARDS rescaling step: a spatial sample at rate `r`
    /// observes distances shrunk by `r`, so reconstructing the full-stream
    /// histogram takes `distance_factor = 1/r` and a weight factor that
    /// restores the sampled-out mass. It folds `other` in place, without
    /// a scaled copy, yet rounds exactly as "scale a copy, then add it"
    /// would: the scaled weights landing on one distance are summed
    /// first and added once, and so are `other`'s total and its cold mass.
    ///
    /// # Panics
    ///
    /// Panics unless both factors are positive.
    pub fn merge_rescaled(
        &mut self,
        other: &StackDistanceHistogram,
        distance_factor: f64,
        weight_factor: f64,
    ) {
        assert!(
            distance_factor > 0.0 && weight_factor > 0.0,
            "rescale factors must be positive"
        );
        let len = other.rescaled_len(distance_factor);
        if len > self.counts.len() {
            self.counts.resize(len, 0.0);
        }
        let mut total = 0.0;
        // The distance being summed and its sum: distances scale
        // monotonically, so the weights sharing one arrive together.
        let mut run: Option<(usize, f64)> = None;
        for (d, &w) in other.counts.iter().enumerate() {
            if w > 0.0 {
                let (to, w) = (scale_distance(d, distance_factor), w * weight_factor);
                total += w;
                run = match run {
                    Some((at, sum)) if at == to => Some((at, sum + w)),
                    Some((at, sum)) => {
                        self.counts[at] += sum;
                        Some((to, w))
                    }
                    None => Some((to, w)),
                };
            }
        }
        if let Some((at, sum)) = run {
            self.counts[at] += sum;
        }
        let cold = other.cold * weight_factor;
        self.cold += cold;
        self.total += total + cold;
    }

    /// The length of `counts` after scaling distances by
    /// `distance_factor`: one past the largest scaled distance with mass.
    pub(super) fn rescaled_len(&self, distance_factor: f64) -> usize {
        self.counts
            .iter()
            .rposition(|&w| w > 0.0)
            .map_or(0, |d| scale_distance(d, distance_factor) + 1)
    }

    /// An empty histogram whose distances `0..len` are already zeroed,
    /// so [`merge_rescaled`](Self::merge_rescaled) into it never grows it.
    pub(super) fn with_len(len: usize) -> Self {
        Self {
            counts: vec![0.0; len],
            ..Self::default()
        }
    }
}

fn scale_distance(d: usize, factor: f64) -> usize {
    usize::try_from((d as f64 * factor).round() as u64).expect("distance exceeds usize")
}

#[cfg(test)]
mod tests {
    use super::super::LineRouter;
    use super::*;
    use gsim_rng::Rng64;

    /// The fold `LineRouter::merge` did before `merge_rescaled`: build a
    /// dense scaled copy of each shard, then add the whole copy.
    fn copy_then_add(
        shards: &[StackDistanceHistogram],
        df: f64,
        wf: f64,
    ) -> StackDistanceHistogram {
        let mut merged = StackDistanceHistogram::new();
        for hist in shards {
            let mut copy = StackDistanceHistogram::new();
            for (d, &w) in hist.counts.iter().enumerate() {
                if w > 0.0 {
                    copy.add((d as f64 * df).round() as u64, w * wf);
                }
            }
            copy.add_cold(hist.cold * wf);
            if copy.counts.len() > merged.counts.len() {
                merged.counts.resize(copy.counts.len(), 0.0);
            }
            for (a, b) in merged.counts.iter_mut().zip(&copy.counts) {
                *a += *b;
            }
            merged.cold += copy.cold;
            merged.total += copy.total;
        }
        merged
    }

    /// A shard as a collector leaves it, or an odd one: empty, cold-only,
    /// or up to `max_len` distances with zero-weight gaps, integer or
    /// fractional weights, and sometimes a zero-weight tail.
    fn random_shard(rng: &mut Rng64, max_len: u64) -> StackDistanceHistogram {
        let mut h = StackDistanceHistogram::new();
        match rng.gen_range(0, 8) {
            0 => return h,
            1 => {
                h.add_cold(rng.gen_range(1, 1_000) as f64);
                return h;
            }
            _ => {}
        }
        let len = rng.gen_range(1, max_len + 1);
        let fill = rng.next_f64();
        let integer = rng.gen_bool(0.5);
        for d in 0..len {
            if rng.gen_bool(fill) {
                let w = if integer {
                    rng.gen_range(1, 50) as f64
                } else {
                    rng.next_f64() * 7.0
                };
                h.add(d, w);
            }
        }
        if rng.gen_bool(0.2) {
            h.add(len + rng.gen_range(0, 5), 0.0);
        }
        if rng.gen_bool(0.7) {
            h.add_cold(rng.gen_range(0, 10_000) as f64 * 0.5);
        }
        h
    }

    fn assert_bit_identical(a: &StackDistanceHistogram, b: &StackDistanceHistogram, case: &str) {
        assert_eq!(a.counts.len(), b.counts.len(), "{case}: length");
        let differ = |d: &usize| a.counts[*d].to_bits() != b.counts[*d].to_bits();
        if let Some(d) = (0..a.counts.len()).find(differ) {
            panic!(
                "{case}: distance {d} holds {} against {}",
                a.counts[d], b.counts[d]
            );
        }
        assert_eq!(a.cold.to_bits(), b.cold.to_bits(), "{case}: cold");
        assert_eq!(a.total.to_bits(), b.total.to_bits(), "{case}: total");
        for k in 3..=20 {
            let c = 1u64 << k;
            assert_eq!(
                a.misses_at(c).to_bits(),
                b.misses_at(c).to_bits(),
                "{case}: misses at {c} lines"
            );
        }
    }

    #[test]
    fn in_place_merge_is_bit_identical_to_copy_then_add() {
        let mut rng = Rng64::seed_from_u64(0x5EED_3E26);
        // The fast path's router (8 shards at rate 1/4: distance x32,
        // weight x4), then routers with non-integer factors.
        let routers = [(8, 0.25), (8, 1.0), (3, 0.7), (5, 0.37), (1, 1.0)];
        for (case, &(n, keep)) in routers.iter().cycle().take(21).enumerate() {
            let router = LineRouter::new(n, keep);
            let max_len = if case == 0 {
                100_000
            } else {
                [1, 10, 300, 3_000][case % 4]
            };
            let shards: Vec<_> = (0..n).map(|_| random_shard(&mut rng, max_len)).collect();
            let (df, wf) = (f64::from(n) / router.keep_rate(), 1.0 / router.keep_rate());
            let case = format!("case {case}: {n} shards at {keep}, up to {max_len} distances");
            assert_bit_identical(
                &router.merge(&shards),
                &copy_then_add(&shards, df, wf),
                &case,
            );
        }
        // Factors below 1 map several distances onto one, which no router
        // does; the sums must still round as the copy's did.
        for (df, wf) in [(0.37, 1.5), (0.01, 3.0), (1.0, 1.0), (2.75, 0.3)] {
            let shards: Vec<_> = (0..4).map(|_| random_shard(&mut rng, 3_000)).collect();
            let mut merged = StackDistanceHistogram::new();
            for hist in &shards {
                merged.merge_rescaled(hist, df, wf);
            }
            let case = format!("factors {df}, {wf}");
            assert_bit_identical(&merged, &copy_then_add(&shards, df, wf), &case);
        }
    }

    #[test]
    fn misses_at_each_is_bit_identical_to_misses_at() {
        let mut rng = Rng64::seed_from_u64(0x5EED_0040);
        for case in 0..40 {
            // The fast path's merge: 8 shards of whole accesses at rate 1/4.
            let router = LineRouter::new(8, 0.25);
            let shards: Vec<_> = (0..8)
                .map(|_| {
                    let mut h = StackDistanceHistogram::new();
                    for _ in 0..rng.gen_range(0, 2_000) {
                        h.add(rng.gen_range(0, 5_000), 1.0);
                    }
                    h.add_cold(rng.gen_range(0, 500) as f64);
                    h
                })
                .collect();
            let hist = router.merge(&shards);
            // Ladder-like capacities in any order, with repeats, zero and
            // capacities past the last distance, up to u64::MAX.
            let mut caps: Vec<u64> = (0..rng.gen_range(0, 8))
                .map(|_| rng.gen_range(0, 200_000))
                .collect();
            caps.extend([0, 1 << 17, u64::MAX, 4_096, 4_096]);
            for i in (1..caps.len()).rev() {
                caps.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
            }
            let each = hist.misses_at_each(&caps);
            for (&c, &m) in caps.iter().zip(&each) {
                assert_eq!(
                    m.to_bits(),
                    hist.misses_at(c).to_bits(),
                    "case {case}: {c} lines"
                );
            }
        }
        assert!(StackDistanceHistogram::new().misses_at_each(&[]).is_empty());
    }

    #[test]
    fn misses_decrease_with_capacity() {
        let mut h = StackDistanceHistogram::new();
        h.add_cold(4.0);
        h.add(0, 10.0);
        h.add(5, 3.0);
        h.add(100, 2.0);
        let caps = [0u64, 1, 6, 101, 1_000_000];
        let misses: Vec<f64> = caps.iter().map(|&c| h.misses_at(c)).collect();
        assert_eq!(misses, vec![19.0, 9.0, 6.0, 4.0, 4.0]);
        for w in misses.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn cold_misses_never_disappear() {
        let mut h = StackDistanceHistogram::new();
        h.add_cold(7.0);
        assert_eq!(h.misses_at(u64::MAX), 7.0);
        assert_eq!(h.miss_rate_at(u64::MAX), 1.0);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = StackDistanceHistogram::new();
        assert_eq!(h.misses_at(0), 0.0);
        assert_eq!(h.miss_rate_at(10), 0.0);
        assert_eq!(h.max_distance(), None);
    }

    #[test]
    fn merge_sums_mass() {
        let mut a = StackDistanceHistogram::new();
        a.add(1, 2.0);
        a.add_cold(1.0);
        let mut b = StackDistanceHistogram::new();
        b.add(3, 4.0);
        a.merge_rescaled(&b, 1.0, 1.0);
        assert_eq!(a.total_accesses(), 7.0);
        assert_eq!(a.misses_at(2), 5.0); // cold 1 + distance-3 mass 4
        assert_eq!(a.max_distance(), Some(3));
    }
}
