//! Helpers shared by the sampler unit tests.

use crate::kind::SamplerKind;
use crate::record::RecordBatch;
use crate::sampler::SampledRow;
use crate::stream::{BatchSchedule, SampleStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_storage::{Row, Schema, Table, TableBuilder, TableSource, Value};

/// A one-column table of `n` rows `v000000, v000001, …` on 512-byte pages.
pub(crate) fn table(n: usize) -> Table {
    TableBuilder::new("t", Schema::single_char("a", 32))
        .page_size(512)
        .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
        .unwrap()
}

/// The row number encoded in a [`table`] row (`v000123` → 123).
pub(crate) fn row_id(row: &Row) -> usize {
    row.value(0).as_str().unwrap()[1..].parse().unwrap()
}

/// Pull batches until the stream returns an empty one.
pub(crate) fn drain(
    stream: &mut dyn SampleStream,
    source: &dyn TableSource,
    rng: &mut StdRng,
) -> Vec<RecordBatch> {
    let mut batches = Vec::new();
    loop {
        let b = stream.next_batch(source, rng).unwrap();
        if b.is_empty() {
            return batches;
        }
        batches.push(b);
    }
}

/// Every drained record, decoded, in draw order.
pub(crate) fn decoded(batches: &[RecordBatch], source: &dyn TableSource) -> Vec<SampledRow> {
    batches
        .iter()
        .flat_map(|b| b.decode(source.codec()).unwrap())
        .collect()
}

/// A one-shot draw of `kind`: its stream drained under the single-batch
/// schedule, decoded.
pub(crate) fn one_shot(source: &dyn TableSource, kind: SamplerKind, seed: u64) -> Vec<SampledRow> {
    let mut stream = kind.stream(BatchSchedule::one_shot()).unwrap();
    let batches = drain(stream.as_mut(), source, &mut StdRng::seed_from_u64(seed));
    decoded(&batches, source)
}

/// `rows` sorted by rid (a multiset view of a draw).
pub(crate) fn sorted(mut rows: Vec<SampledRow>) -> Vec<SampledRow> {
    rows.sort_by_key(|(rid, _)| *rid);
    rows
}
