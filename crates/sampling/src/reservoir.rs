//! Reservoir sampling (Vitter's Algorithm R).
//!
//! Draws a fixed-size uniform sample without replacement in a single pass
//! over the table, without knowing the number of rows in advance — the
//! classical technique referenced by the paper (\[5\] J.S. Vitter, "Random
//! Sampling with a Reservoir").  [`ScanStream`](crate::ScanStream) runs the
//! pass and emits the finished reservoir.

use crate::error::SamplingResult;
use crate::record::RecordBatch;
use rand::{Rng, RngCore};
use samplecf_storage::{PageId, Rid, TableSource};

/// Algorithm R over the pages in storage order.  Memory stays
/// O(reservoir + one page); a replaced slot reuses its buffer.
pub(crate) fn reservoir(
    source: &dyn TableSource,
    size: usize,
    rng: &mut dyn RngCore,
) -> SamplingResult<RecordBatch> {
    // The size may come straight from a request: never reserve more slots
    // than the table has rows.
    let mut reservoir: Vec<(Rid, Vec<u8>)> = Vec::with_capacity(size.min(source.num_rows()));
    let mut seen = 0usize;
    for pid in 0..source.num_pages() {
        let page = source.read_page_ref(pid as PageId)?;
        for slot in 0..page.slot_count() {
            let rid = Rid::new(pid as PageId, slot);
            if reservoir.len() < size {
                reservoir.push((rid, page.get(slot)?.to_vec()));
            } else {
                let j = rng.gen_range(0..=seen);
                if j < size {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::SamplerKind;
    use crate::sampler::SampledRow;
    use crate::stream::BatchSchedule;
    use crate::testing::{decoded, drain, one_shot, row_id, table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn keeps_exactly_the_requested_size() {
        let t = table(1000);
        let sample = one_shot(&t, SamplerKind::Reservoir(37), 1);
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
        assert_eq!(one_shot(&t, SamplerKind::Reservoir(50), 2).len(), 5);
    }

    #[test]
    fn an_oversized_reservoir_returns_every_row() {
        // The size bounds the sample, never an allocation: a reservoir far
        // larger than the table (here the largest expressible) holds the
        // table, in storage order.
        let t = table(40);
        let whole: Vec<SampledRow> = (0..t.num_pages())
            .flat_map(|pid| t.page_rows(pid as PageId).unwrap())
            .collect();
        assert_eq!(one_shot(&t, SamplerKind::Reservoir(usize::MAX), 3), whole);
    }

    #[test]
    fn zero_size_is_rejected() {
        assert!(SamplerKind::Reservoir(0)
            .stream(BatchSchedule::one_shot())
            .is_err());
    }

    #[test]
    fn empty_table_yields_empty_reservoir() {
        // Unified edge behaviour with the fraction-based samplers.
        let t = table(0);
        let mut stream = SamplerKind::Reservoir(10)
            .stream(BatchSchedule::one_shot())
            .unwrap();
        assert!(drain(stream.as_mut(), &t, &mut StdRng::seed_from_u64(9)).is_empty());
        assert_eq!(stream.rows_drawn(), 0);
    }

    #[test]
    fn inclusion_is_roughly_uniform_across_positions() {
        // Early rows must not be favoured over late rows.
        let t = table(200);
        let mut first_half = 0usize;
        let mut second_half = 0usize;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let mut stream = SamplerKind::Reservoir(20)
                .stream(BatchSchedule::one_shot())
                .unwrap();
            for (_, row) in decoded(&drain(stream.as_mut(), &t, &mut rng), &t) {
                if row_id(&row) < 100 {
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
        let t = table(700);
        let rows: Vec<SampledRow> = (0..t.num_pages())
            .flat_map(|pid| t.page_rows(pid as PageId).unwrap())
            .collect();
        for (size, seed) in [(1usize, 1u64), (13, 2), (200, 3), (699, 4), (5_000, 5)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle: Vec<SampledRow> = Vec::new();
            for (seen, pair) in rows.iter().cloned().enumerate() {
                if oracle.len() < size {
                    oracle.push(pair);
                } else {
                    let j = rng.gen_range(0..=seen);
                    if j < size {
                        oracle[j] = pair;
                    }
                }
            }
            let records = reservoir(&t, size, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_eq!(records.decode(t.codec()).unwrap(), oracle, "size {size}");
            for ((_, bytes), (_, row)) in records.iter().zip(&oracle) {
                assert_eq!(bytes, t.codec().encode(row).unwrap().as_slice());
            }
            assert_eq!(
                one_shot(&t, SamplerKind::Reservoir(size), seed),
                oracle,
                "size {size}: the stream emits the reservoir as drawn"
            );
        }
    }
}
