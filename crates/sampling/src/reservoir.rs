//! Reservoir sampling (Vitter's Algorithm R).
//!
//! Draws a fixed-size uniform sample without replacement in a single pass
//! over the table, without knowing the number of rows in advance — the
//! classical technique referenced by the paper (\[5\] J.S. Vitter, "Random
//! Sampling with a Reservoir").

use crate::error::{SamplingError, SamplingResult};
use crate::record::RecordBatch;
use crate::sampler::{RowSampler, SampledRow};
use rand::Rng;
use rand::RngCore;
use samplecf_storage::{PageId, Rid, TableSource};

/// Fixed-size single-pass reservoir sampler.
#[derive(Debug, Clone, Copy)]
pub struct ReservoirSampler {
    size: usize,
}

impl ReservoirSampler {
    /// Create a reservoir sampler that keeps exactly `size` rows (or every
    /// row, if the table is smaller).
    pub fn new(size: usize) -> SamplingResult<Self> {
        if size == 0 {
            return Err(SamplingError::InvalidSize(
                "reservoir size must be at least 1".to_string(),
            ));
        }
        Ok(ReservoirSampler { size })
    }

    /// The reservoir capacity.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run the single pass and return the reservoir as encoded records.
    ///
    /// Pages are read one at a time and records are sliced out of them: a
    /// record is copied only when it enters the reservoir, and nothing is
    /// decoded.  The RNG sees exactly the calls the row-based Algorithm R
    /// makes, so the reservoir's contents and order match
    /// [`sample`](RowSampler::sample) record for row.
    pub fn sample_records(
        &self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<RecordBatch> {
        // Stream page by page: memory stays O(reservoir + one page), which
        // is the whole point of reservoir sampling on large (disk-resident)
        // tables.  Replaced slots reuse their buffer.
        let mut reservoir: Vec<(Rid, Vec<u8>)> = Vec::with_capacity(self.size);
        let mut seen = 0usize;
        for pid in 0..source.num_pages() {
            let page = source.read_page_ref(pid as PageId)?;
            for slot in 0..page.slot_count() {
                let rid = Rid::new(pid as PageId, slot);
                if reservoir.len() < self.size {
                    reservoir.push((rid, page.get(slot)?.to_vec()));
                } else {
                    let j = rng.gen_range(0..=seen);
                    if j < self.size {
                        let kept = &mut reservoir[j];
                        kept.0 = rid;
                        kept.1.clear();
                        kept.1.extend_from_slice(page.get(slot)?);
                    }
                }
                seen += 1;
            }
        }
        let mut out = RecordBatch::new();
        for (rid, record) in &reservoir {
            out.push(*rid, record);
        }
        Ok(out)
    }
}

impl RowSampler for ReservoirSampler {
    fn name(&self) -> &'static str {
        "reservoir"
    }

    fn sample(
        &self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>> {
        self.sample_records(source, rng)?.decode(source.codec())
    }

    fn expected_sample_size(&self, n: usize) -> usize {
        self.size.min(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use samplecf_storage::{Row, Schema, Table, TableBuilder, Value};
    use std::collections::HashSet;

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 12))
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:05}"))])))
            .unwrap()
    }

    #[test]
    fn keeps_exactly_the_requested_size() {
        let t = table(1000);
        let s = ReservoirSampler::new(37).unwrap();
        let sample = s.sample(&t, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(sample.len(), 37);
        let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(
            distinct.len(),
            37,
            "reservoir sampling is without replacement"
        );
    }

    #[test]
    fn small_tables_are_returned_whole() {
        let t = table(5);
        let s = ReservoirSampler::new(50).unwrap();
        let sample = s.sample(&t, &mut StdRng::seed_from_u64(2)).unwrap();
        assert_eq!(sample.len(), 5);
        assert_eq!(s.expected_sample_size(5), 5);
    }

    #[test]
    fn zero_size_is_rejected() {
        assert!(ReservoirSampler::new(0).is_err());
    }

    #[test]
    fn empty_table_yields_empty_reservoir() {
        // Unified edge behaviour with the fraction-based samplers.
        let t = table(0);
        let s = ReservoirSampler::new(10).unwrap();
        assert!(s
            .sample(&t, &mut StdRng::seed_from_u64(9))
            .unwrap()
            .is_empty());
        assert_eq!(s.expected_sample_size(0), 0);
    }

    #[test]
    fn inclusion_is_roughly_uniform_across_positions() {
        // Early rows must not be favoured over late rows.
        let t = table(200);
        let s = ReservoirSampler::new(20).unwrap();
        let mut first_half = 0usize;
        let mut second_half = 0usize;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            for (_, row) in s.sample(&t, &mut rng).unwrap() {
                let id: usize = row.value(0).as_str().unwrap()[1..].parse().unwrap();
                if id < 100 {
                    first_half += 1;
                } else {
                    second_half += 1;
                }
            }
        }
        let ratio = first_half as f64 / second_half as f64;
        assert!(ratio > 0.8 && ratio < 1.25, "ratio = {ratio}");
    }

    #[test]
    fn sliced_reservoir_equals_row_based_algorithm_r() {
        // The row-based Algorithm R over decoded pages, as the oracle.
        let t = TableBuilder::new("t", Schema::single_char("a", 12))
            .page_size(256)
            .build_with_rows((0..700).map(|i| Row::new(vec![Value::str(format!("v{i:05}"))])))
            .unwrap();
        for (size, seed) in [(1usize, 1u64), (13, 2), (200, 3), (699, 4), (5_000, 5)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle: Vec<SampledRow> = Vec::new();
            let mut seen = 0usize;
            for pid in 0..t.num_pages() {
                for pair in t.page_rows(pid as PageId).unwrap() {
                    if oracle.len() < size {
                        oracle.push(pair);
                    } else {
                        let j = rng.gen_range(0..=seen);
                        if j < size {
                            oracle[j] = pair;
                        }
                    }
                    seen += 1;
                }
            }
            let records = ReservoirSampler::new(size)
                .unwrap()
                .sample_records(&t, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(records.decode(t.codec()).unwrap(), oracle, "size {size}");
            for ((_, bytes), (_, row)) in records.iter().zip(&oracle) {
                assert_eq!(bytes, t.codec().encode(row).unwrap().as_slice());
            }
        }
    }
}
