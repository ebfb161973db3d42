//! Block-level (page) sampling.
//!
//! Commercial systems usually sample whole pages rather than individual rows
//! (paper, Section II-C): a set of pages is chosen uniformly at random and
//! *all* rows on those pages enter the sample.  This is much cheaper in I/O
//! terms but correlates the sampled rows with their physical placement, which
//! the paper flags as future work for the accuracy analysis.
//!
//! Because the stream draws through [`TableSource`], the I/O claim is
//! literal for disk-resident tables: a draw issues exactly one page read
//! per selected page and touches nothing else in the file.  The
//! `exp_disk_block_io` experiment and the `samplecf estimate --sampler
//! block` CLI path measure this directly.

use crate::error::SamplingResult;
use crate::kind::SamplerKind;
use crate::record::RecordBatch;
use crate::sampler::{target_page_count, validate_fraction};
use crate::stream::{BatchSchedule, IncrementalFisherYates, SampleStream};
use rand::RngCore;
use samplecf_storage::{PageId, TableSource};

/// Streaming block (page) sampler: pages come out of an
/// [`IncrementalFisherYates`] permutation, so the page set after `k` draws
/// equals a one-shot selection of `k` pages with the same seed.  Each batch
/// reads its new pages in ascending page order and slices every record off
/// them.
pub struct BlockStream {
    fraction: f64,
    schedule: BatchSchedule,
    /// Bound on first use: (shuffle over pages, cumulative page targets).
    state: Option<(IncrementalFisherYates, Vec<usize>)>,
    next_target: usize,
    rows_drawn: usize,
}

impl BlockStream {
    /// Create a stream selecting up to `round(fraction · num_pages)` pages.
    pub fn new(fraction: f64, schedule: BatchSchedule) -> SamplingResult<Self> {
        Ok(BlockStream {
            fraction: validate_fraction(fraction)?,
            schedule,
            state: None,
            next_target: 0,
            rows_drawn: 0,
        })
    }

    /// Pages selected so far.
    #[must_use]
    pub fn pages_selected(&self) -> usize {
        self.state.as_ref().map_or(0, |(fy, _)| fy.drawn())
    }
}

impl SampleStream for BlockStream {
    fn kind(&self) -> SamplerKind {
        SamplerKind::Block(self.fraction)
    }

    fn next_batch(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<RecordBatch> {
        if self.state.is_none() {
            let num_pages = source.num_pages();
            let max_pages = target_page_count(num_pages, self.fraction);
            let targets = self.schedule.cumulative_targets(num_pages, max_pages);
            self.state = Some((IncrementalFisherYates::new(num_pages), targets));
        }
        let (fy, targets) = self.state.as_mut().expect("state bound above");
        let Some(&target) = targets.get(self.next_target) else {
            return Ok(RecordBatch::new());
        };
        let mut page_ids: Vec<PageId> = Vec::with_capacity(target - fy.drawn());
        while fy.drawn() < target {
            let p = fy.next(rng).expect("targets never exceed the page count");
            page_ids.push(p as PageId);
        }
        page_ids.sort_unstable();
        let mut batch = RecordBatch::new();
        for pid in page_ids {
            batch.push_page(source.read_page_ref(pid)?.as_page())?;
        }
        self.rows_drawn += batch.len();
        self.next_target += 1;
        Ok(batch)
    }

    fn rows_drawn(&self) -> usize {
        self.rows_drawn
    }

    fn exhausted(&self) -> bool {
        self.state
            .as_ref()
            .is_some_and(|(_, targets)| self.next_target >= targets.len())
    }

    fn extend_cap(&mut self, kind: SamplerKind) -> bool {
        let SamplerKind::Block(f) = kind else {
            return false;
        };
        if f < self.fraction || validate_fraction(f).is_err() {
            return false;
        }
        self.fraction = f;
        if let Some((fy, targets)) = self.state.as_mut() {
            let max_pages = target_page_count(fy.length, f);
            targets.truncate(self.next_target);
            if max_pages > fy.drawn() {
                targets.push(max_pages);
            }
        }
        true
    }

    fn approx_retained_bytes(&self) -> usize {
        // Only the displaced-slot map of the partial shuffle.
        self.state.as_ref().map_or(0, |(fy, _)| fy.approx_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{decoded, drain, one_shot, table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use samplecf_storage::{CountingSource, Row, Schema, Table, TableBuilder, Value};
    use std::collections::HashSet;

    #[test]
    fn sample_contains_whole_pages() {
        let t = table(2000);
        let sample = one_shot(&t, SamplerKind::Block(0.1), 1);
        assert!(!sample.is_empty());
        // Every sampled page contributes all of its rows.
        let pages: HashSet<_> = sample.iter().map(|(rid, _)| rid.page).collect();
        let rows_on_pages: usize = pages
            .iter()
            .map(|&p| usize::from(t.heap().page(p).unwrap().slot_count()))
            .sum();
        assert_eq!(sample.len(), rows_on_pages);
    }

    #[test]
    fn page_count_tracks_fraction() {
        let t = table(5000);
        let mut stream = BlockStream::new(0.2, BatchSchedule::one_shot()).unwrap();
        let sample = decoded(&drain(&mut stream, &t, &mut StdRng::seed_from_u64(2)), &t);
        let expected = (t.num_pages() as f64 * 0.2).round() as usize;
        assert_eq!(stream.pages_selected(), expected);
        // Distinct and within range.
        let pages: HashSet<_> = sample.iter().map(|(rid, _)| rid.page).collect();
        assert_eq!(pages.len(), expected);
        assert!(pages.iter().all(|&p| (p as usize) < t.num_pages()));
    }

    #[test]
    fn expected_sample_size_matches_the_shared_target() {
        // A block draw selects the shared page target: `round(f·pages)`,
        // zero for an empty table, at least one page otherwise.
        let t = table(5000);
        for f in [0.0001, 0.01, 0.3, 1.0] {
            let mut stream = BlockStream::new(f, BatchSchedule::default()).unwrap();
            drain(&mut stream, &t, &mut StdRng::seed_from_u64(1));
            assert_eq!(
                stream.pages_selected(),
                target_page_count(t.num_pages(), f),
                "f {f}"
            );
        }
        let empty = table(0);
        let mut stream = BlockStream::new(0.01, BatchSchedule::default()).unwrap();
        drain(&mut stream, &empty, &mut StdRng::seed_from_u64(1));
        assert_eq!(stream.pages_selected(), 0);
    }

    #[test]
    fn empty_table_yields_empty_sample_and_no_pages() {
        let t = TableBuilder::new("t", Schema::single_char("a", 8))
            .build()
            .unwrap();
        let counting = CountingSource::new(&t);
        let mut stream = BlockStream::new(0.5, BatchSchedule::one_shot()).unwrap();
        // Regression: with zero pages the old `max(1, …)` sizing would have
        // requested one page from an empty frame.
        assert!(drain(&mut stream, &counting, &mut StdRng::seed_from_u64(3)).is_empty());
        assert_eq!(stream.pages_selected(), 0);
        assert_eq!(counting.pages_read(), 0);
    }

    #[test]
    fn full_fraction_selects_every_page() {
        let t = table(900);
        let mut stream = BlockStream::new(1.0, BatchSchedule::one_shot()).unwrap();
        let sample = decoded(&drain(&mut stream, &t, &mut StdRng::seed_from_u64(9)), &t);
        assert_eq!(stream.pages_selected(), t.num_pages());
        assert_eq!(sample.len(), t.num_rows());
    }

    #[test]
    fn tiny_fraction_still_reads_one_page() {
        let t = table(500);
        let counting = CountingSource::new(&t);
        let mut stream = BlockStream::new(0.0001, BatchSchedule::one_shot()).unwrap();
        drain(&mut stream, &counting, &mut StdRng::seed_from_u64(4));
        assert_eq!(stream.pages_selected(), 1);
        assert_eq!(counting.pages_read(), 1);
    }

    #[test]
    fn clustered_pages_give_correlated_samples() {
        // When identical values are stored contiguously, a block sample sees
        // far fewer distinct values than a row sample of the same size.
        let rows: Vec<Row> = (0..2000)
            .map(|i| Row::new(vec![Value::str(format!("group{:03}", i / 20))]))
            .collect();
        let t: Table = TableBuilder::new("t", Schema::single_char("a", 32))
            .page_size(512)
            .build_with_rows(rows)
            .unwrap();
        let block_sample = one_shot(&t, SamplerKind::Block(0.05), 5);
        let block_distinct: HashSet<_> = block_sample
            .iter()
            .map(|(_, r)| r.value(0).clone())
            .collect();
        let row_kind =
            SamplerKind::UniformWithoutReplacement(block_sample.len() as f64 / t.num_rows() as f64);
        let row_sample = one_shot(&t, row_kind, 5);
        let row_distinct: HashSet<_> = row_sample.iter().map(|(_, r)| r.value(0).clone()).collect();
        assert!(
            block_distinct.len() * 2 < row_distinct.len(),
            "block sample saw {} groups, row sample saw {}",
            block_distinct.len(),
            row_distinct.len()
        );
    }
}
