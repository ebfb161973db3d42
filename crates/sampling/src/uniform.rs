//! Row-level samplers: every row of the table is equally likely to enter
//! the sample.
//!
//! * **Uniform with replacement** — the procedure the paper's analysis
//!   assumes (Section II-C) — and **uniform without replacement** draw row
//!   positions from the rid frame ([`UniformStream`]), so they read only
//!   the pages their rows land on.
//! * **Bernoulli** (each row kept independently with probability `p`, so
//!   the sample size is itself random) and **systematic** (a random start,
//!   then every `round(1/f)`-th row; cheap but sensitive to periodic data)
//!   decide row by row during a full scan; [`ScanStream`](crate::ScanStream)
//!   runs them.

use crate::error::SamplingResult;
use crate::kind::SamplerKind;
use crate::record::RecordBatch;
use crate::sampler::{target_size, validate_fraction};
use crate::stream::{
    fetch_positions_coalesced, BatchSchedule, IncrementalFisherYates, PageCache, SampleStream,
};
use rand::{Rng, RngCore};
use samplecf_storage::{PageId, Rid, TableSource};

/// Streaming uniform row draw, with or without replacement.  Row positions
/// are generated one at a time — one `gen_range(0..n)` call per row with
/// replacement, the next element of an [`IncrementalFisherYates`] shuffle
/// over the frame without — and sliced page-coalesced out of a persistent
/// [`PageCache`], so each batch comes out rid-sorted.
pub struct UniformStream {
    fraction: f64,
    with_replacement: bool,
    schedule: BatchSchedule,
    /// Bound on first use.
    frame: Option<UniformFrame>,
    next_target: usize,
    drawn: usize,
    cache: PageCache,
}

/// The state a [`UniformStream`] binds once it has seen the source.
struct UniformFrame {
    rids: Vec<Rid>,
    /// Cumulative row targets.
    targets: Vec<usize>,
    /// The shuffle over frame positions a without-replacement draw
    /// consumes; `None` with replacement.
    shuffle: Option<IncrementalFisherYates>,
}

impl UniformStream {
    /// A stream drawing up to `round(fraction · n)` rows with replacement
    /// (the paper's procedure, Section II-C).
    pub fn with_replacement(fraction: f64, schedule: BatchSchedule) -> SamplingResult<Self> {
        Self::new(fraction, true, schedule)
    }

    /// A stream drawing up to `round(fraction · n)` distinct rows.
    pub fn without_replacement(fraction: f64, schedule: BatchSchedule) -> SamplingResult<Self> {
        Self::new(fraction, false, schedule)
    }

    fn new(fraction: f64, with_replacement: bool, schedule: BatchSchedule) -> SamplingResult<Self> {
        Ok(UniformStream {
            fraction: validate_fraction(fraction)?,
            with_replacement,
            schedule,
            frame: None,
            next_target: 0,
            drawn: 0,
            cache: PageCache::new(),
        })
    }

    /// Physical pages read so far (the page cache's size).
    #[must_use]
    pub fn pages_read(&self) -> usize {
        self.cache.pages_cached()
    }
}

impl SampleStream for UniformStream {
    fn kind(&self) -> SamplerKind {
        if self.with_replacement {
            SamplerKind::UniformWithReplacement(self.fraction)
        } else {
            SamplerKind::UniformWithoutReplacement(self.fraction)
        }
    }

    fn next_batch(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<RecordBatch> {
        if self.frame.is_none() {
            let rids = source.rids()?;
            let max_rows = target_size(rids.len(), self.fraction);
            self.frame = Some(UniformFrame {
                targets: self.schedule.cumulative_targets(rids.len(), max_rows),
                shuffle: (!self.with_replacement).then(|| IncrementalFisherYates::new(rids.len())),
                rids,
            });
        }
        let frame = self.frame.as_mut().expect("frame bound above");
        let n = frame.rids.len();
        let Some(&target) = frame.targets.get(self.next_target) else {
            return Ok(RecordBatch::new());
        };
        let batch_rows = target - self.drawn;
        let positions: Vec<usize> = match frame.shuffle.as_mut() {
            None => (0..batch_rows).map(|_| rng.gen_range(0..n)).collect(),
            Some(shuffle) => (0..batch_rows)
                .map(|_| shuffle.next(rng).expect("targets never exceed the frame"))
                .collect(),
        };
        let mut batch = RecordBatch::new();
        fetch_positions_coalesced(source, &frame.rids, &positions, &mut self.cache, &mut batch)?;
        self.drawn = target;
        self.next_target += 1;
        Ok(batch)
    }

    fn rows_drawn(&self) -> usize {
        self.drawn
    }

    fn exhausted(&self) -> bool {
        self.frame
            .as_ref()
            .is_some_and(|frame| self.next_target >= frame.targets.len())
    }

    fn extend_cap(&mut self, kind: SamplerKind) -> bool {
        let f = match kind {
            SamplerKind::UniformWithReplacement(f) if self.with_replacement => f,
            SamplerKind::UniformWithoutReplacement(f) if !self.with_replacement => f,
            _ => return false,
        };
        if f < self.fraction || validate_fraction(f).is_err() {
            return false;
        }
        self.fraction = f;
        if let Some(frame) = self.frame.as_mut() {
            let max_rows = target_size(frame.rids.len(), f);
            // Re-plan from the rows already drawn: one batch to the new cap.
            frame.targets.truncate(self.next_target);
            if max_rows > self.drawn {
                frame.targets.push(max_rows);
            }
        }
        true
    }

    fn approx_retained_bytes(&self) -> usize {
        // The rid frame, the shuffle's displaced slots, and every page the
        // page cache holds.
        let frame = self.frame.as_ref().map_or(0, |frame| {
            frame.rids.len() * std::mem::size_of::<Rid>()
                + frame
                    .shuffle
                    .as_ref()
                    .map_or(0, IncrementalFisherYates::approx_bytes)
        });
        frame + self.cache.bytes_cached()
    }
}

/// Keep each row with probability `p`: one `gen::<f64>()` per row, in
/// storage order.
pub(crate) fn bernoulli(
    source: &dyn TableSource,
    p: f64,
    rng: &mut dyn RngCore,
) -> SamplingResult<RecordBatch> {
    let mut out = RecordBatch::new();
    for pid in 0..source.num_pages() {
        let page = source.read_page_ref(pid as PageId)?;
        for slot in 0..page.slot_count() {
            if rng.gen::<f64>() < p {
                out.push(Rid::new(pid as PageId, slot), page.get(slot)?);
            }
        }
    }
    Ok(out)
}

/// Keep row `start`, then every `step`-th row, counting in storage order;
/// `start` is one `gen_range(0..step.min(n))` call.
pub(crate) fn systematic(
    source: &dyn TableSource,
    fraction: f64,
    rng: &mut dyn RngCore,
) -> SamplingResult<RecordBatch> {
    let mut out = RecordBatch::new();
    let n = source.num_rows();
    if n == 0 {
        return Ok(out);
    }
    let step = (1.0 / fraction).round().max(1.0) as usize;
    let start = rng.gen_range(0..step.min(n));
    let mut i = 0usize;
    for pid in 0..source.num_pages() {
        let page = source.read_page_ref(pid as PageId)?;
        for slot in 0..page.slot_count() {
            if i >= start && (i - start) % step == 0 {
                out.push(Rid::new(pid as PageId, slot), page.get(slot)?);
            }
            i += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{decoded, drain, one_shot, row_id, table};
    use rand::rngs::StdRng;
    use rand::seq::index;
    use rand::SeedableRng;
    use samplecf_storage::Row;
    use std::collections::HashSet;

    const ROW_LEVEL: [fn(f64) -> SamplerKind; 4] = [
        SamplerKind::UniformWithReplacement,
        SamplerKind::UniformWithoutReplacement,
        SamplerKind::Bernoulli,
        SamplerKind::Systematic,
    ];

    #[test]
    fn with_replacement_draws_exact_count_and_allows_duplicates() {
        let t = table(200);
        let kind = SamplerKind::UniformWithReplacement(0.5);
        let mut stream = kind.stream(BatchSchedule::one_shot()).unwrap();
        let sample = decoded(
            &drain(stream.as_mut(), &t, &mut StdRng::seed_from_u64(1)),
            &t,
        );
        assert_eq!(sample.len(), 100);
        assert_eq!(stream.rows_drawn(), 100);
        // With 100 draws from 200 rows, duplicates are essentially certain.
        let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
        assert!(distinct.len() < sample.len());
    }

    #[test]
    fn without_replacement_draws_distinct_rows() {
        let t = table(200);
        let sample = one_shot(&t, SamplerKind::UniformWithoutReplacement(0.25), 2);
        assert_eq!(sample.len(), 50);
        let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(distinct.len(), 50);
    }

    #[test]
    fn without_replacement_takes_the_vendor_index_sample() {
        // Uniform-wor draws the frame positions `index::sample` picks, as
        // a rid-sorted multiset.
        let t = table(1_000);
        let rids = TableSource::rids(&t).unwrap();
        let mut expected: Vec<Rid> = index::sample(&mut StdRng::seed_from_u64(12), 1_000, 150)
            .into_iter()
            .map(|p| rids[p])
            .collect();
        expected.sort_unstable();
        let drawn: Vec<Rid> = one_shot(&t, SamplerKind::UniformWithoutReplacement(0.15), 12)
            .into_iter()
            .map(|(rid, _)| rid)
            .collect();
        assert_eq!(drawn, expected, "one batch comes out rid-sorted");
    }

    #[test]
    fn bernoulli_sample_size_is_near_expectation() {
        let t = table(5000);
        let sample = one_shot(&t, SamplerKind::Bernoulli(0.1), 3);
        let expected = 500.0;
        assert!((sample.len() as f64 - expected).abs() < 5.0 * (5000.0f64 * 0.1 * 0.9).sqrt());
    }

    #[test]
    fn systematic_sampler_covers_the_table_evenly() {
        let t = table(1000);
        let sample = one_shot(&t, SamplerKind::Systematic(0.01), 4);
        assert!((sample.len() as i64 - 10).abs() <= 1);
        // Consecutive picks are exactly 100 apart.
        let ids: Vec<usize> = sample.iter().map(|(_, r)| row_id(r)).collect();
        for w in ids.windows(2) {
            assert_eq!(w[1] - w[0], 100);
        }
    }

    #[test]
    fn sliced_bernoulli_and_systematic_equal_the_row_based_scans() {
        // The row-based scans over decoded pages, as the oracles.
        let t = table(700);
        let rows: Vec<(Rid, Row)> = (0..t.num_pages())
            .flat_map(|pid| t.page_rows(pid as PageId).unwrap())
            .collect();
        for (p, seed) in [(0.01, 1u64), (0.2, 2), (1.0, 3)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let oracle: Vec<(Rid, Row)> = rows
                .iter()
                .filter(|_| rng.gen::<f64>() < p)
                .cloned()
                .collect();
            assert_eq!(
                one_shot(&t, SamplerKind::Bernoulli(p), seed),
                oracle,
                "p {p}"
            );
        }
        for (f, seed) in [(0.01f64, 1u64), (0.3, 2), (1.0, 3)] {
            let step = (1.0 / f).round().max(1.0) as usize;
            let start = StdRng::seed_from_u64(seed).gen_range(0..step.min(rows.len()));
            let oracle: Vec<(Rid, Row)> = rows.iter().skip(start).step_by(step).cloned().collect();
            assert_eq!(
                one_shot(&t, SamplerKind::Systematic(f), seed),
                oracle,
                "f {f}"
            );
        }
    }

    #[test]
    fn small_fractions_still_return_at_least_one_row() {
        let t = table(50);
        for kind in [
            SamplerKind::UniformWithReplacement(0.001),
            SamplerKind::UniformWithoutReplacement(0.001),
        ] {
            assert_eq!(one_shot(&t, kind, 5).len(), 1, "{kind:?}");
        }
    }

    #[test]
    fn empty_table_yields_empty_samples() {
        let t = table(0);
        for kind in ROW_LEVEL {
            assert!(one_shot(&t, kind(0.1), 6).is_empty(), "{:?}", kind(0.1));
        }
    }

    #[test]
    fn empty_table_expected_sizes_are_zero() {
        // Unified edge behaviour: every row-level stream expects, and
        // draws, 0 rows from 0 rows.
        let t = table(0);
        for kind in ROW_LEVEL {
            for f in [0.1, 0.5, 1.0] {
                let mut stream = kind(f).stream(BatchSchedule::default()).unwrap();
                drain(stream.as_mut(), &t, &mut StdRng::seed_from_u64(6));
                assert!(stream.exhausted(), "{:?}", kind(f));
                assert_eq!(stream.rows_drawn(), 0, "{:?}", kind(f));
            }
        }
    }

    #[test]
    fn full_fraction_returns_the_whole_table() {
        // Unified edge behaviour: fraction == 1.0 covers every row.
        let t = table(120);
        let sample = one_shot(&t, SamplerKind::UniformWithoutReplacement(1.0), 8);
        assert_eq!(sample.len(), 120);
        let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(distinct.len(), 120);
        for kind in ROW_LEVEL {
            assert_eq!(one_shot(&t, kind(1.0), 8).len(), 120, "{:?}", kind(1.0));
        }
    }

    #[test]
    fn invalid_fractions_rejected() {
        let stream = |kind: SamplerKind| kind.stream(BatchSchedule::one_shot());
        assert!(stream(SamplerKind::UniformWithReplacement(0.0)).is_err());
        assert!(stream(SamplerKind::UniformWithoutReplacement(2.0)).is_err());
        assert!(stream(SamplerKind::Bernoulli(-1.0)).is_err());
        assert!(stream(SamplerKind::Systematic(f64::INFINITY)).is_err());
    }

    #[test]
    fn sampling_is_reproducible_for_a_fixed_seed() {
        let t = table(300);
        for kind in ROW_LEVEL {
            let a = one_shot(&t, kind(0.1), 42);
            let b = one_shot(&t, kind(0.1), 42);
            assert_eq!(a, b);
            let c = one_shot(&t, kind(0.1), 43);
            assert_ne!(a, c, "{:?}", kind(0.1));
        }
    }

    #[test]
    fn inclusion_probabilities_are_roughly_uniform() {
        // Draw many with-replacement samples and check that every row is hit
        // a comparable number of times (loose 3x band).
        let t = table(50);
        let mut counts = vec![0usize; 50];
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let mut stream = SamplerKind::UniformWithReplacement(1.0)
                .stream(BatchSchedule::one_shot())
                .unwrap();
            for (_, row) in decoded(&drain(stream.as_mut(), &t, &mut r), &t) {
                counts[row_id(&row)] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        let mean = total as f64 / 50.0;
        for c in counts {
            assert!(
                (c as f64) > mean / 3.0 && (c as f64) < mean * 3.0,
                "count {c} vs mean {mean}"
            );
        }
    }
}
