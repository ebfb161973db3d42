//! The `oneshot` workload: one caller making the calls `samplecf estimate`
//! and `samplecf exact` make, in a closed loop, with no daemon or cache.

use crate::mix::{derive, Family, FAMILIES, SCHEMES};
use crate::source::TimedSource;
use crate::trace::Tracer;
use samplecf_compression::scheme_by_name;
use samplecf_core::{weighted_combine, DataStatsAccumulator, ExactCf, SampleCf};
use samplecf_index::{measure_index, IndexBuilder, IndexSpec};
use samplecf_sampling::{MaterializedSample, Strata};
use samplecf_storage::{decode_cell, CountingSource, DiskTable, Rid, TableSource, Value};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Sampling fraction of every one-shot estimate.
pub const FRACTION: f64 = 0.01;

/// One call: an estimate of `family` at `fraction`, or `exact` when
/// `family` is `None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    pub family: Option<Family>,
    pub fraction: f64,
    pub scheme: &'static str,
    pub seed: u64,
}

impl Op {
    pub fn exact(scheme: &'static str) -> Op {
        Op {
            family: None,
            fraction: 1.0,
            scheme,
            seed: 0,
        }
    }
}

/// Cycle `c`: every family under every scheme, then `exact` for one scheme
/// (rotating, so three cycles cover every scheme).
pub fn cycle(seed: u64, c: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(10);
    for (si, &scheme) in SCHEMES.iter().enumerate() {
        for (fi, &family) in FAMILIES.iter().enumerate() {
            ops.push(Op {
                family: Some(family),
                fraction: FRACTION,
                scheme,
                seed: derive(seed, (c * 100 + si * 10 + fi) as u64),
            });
        }
    }
    ops.push(Op::exact(SCHEMES[c % SCHEMES.len()]));
    ops
}

/// What one call returned.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub op: Op,
    pub ms: f64,
    pub cf: f64,
    pub pages_read: u64,
    pub sample_rows: usize,
}

fn spec_for(table: &dyn TableSource) -> Result<IndexSpec, String> {
    let first = table.schema().columns()[0].name.clone();
    IndexSpec::nonclustered("idx", [first]).map_err(|e| e.to_string())
}

/// Run one call as the CLI does: open the table, wrap it in a page counter,
/// and estimate (or compute the exact CF).  Estimates run on one thread, as
/// `samplecf estimate --threads 1`: on a small shared machine a second
/// worker buys nothing measurable and makes each call's time depend on two
/// cores being free instead of one.
pub fn run(path: &Path, op: Op) -> Result<Outcome, String> {
    let start = Instant::now();
    let table = DiskTable::open(path).map_err(|e| e.to_string())?;
    let spec = spec_for(&table)?;
    let scheme = scheme_by_name(op.scheme).map_err(|e| e.to_string())?;
    let counting = CountingSource::new(&table);
    let m = match op.family {
        Some(family) => SampleCf::new(family.kind(op.fraction))
            .seed(op.seed)
            .threads(1)
            .estimate(&counting, &spec, scheme.as_ref()),
        None => ExactCf::new().compute(&counting, &spec, scheme.as_ref()),
    }
    .map_err(|e| e.to_string())?;
    Ok(Outcome {
        op,
        ms: crate::client::ms(start.elapsed()),
        cf: m.cf,
        pages_read: counting.pages_read(),
        sample_rows: m.data.rows,
    })
}

/// Counts gathered while replaying.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub pages_read: u64,
    pub rows_on_sampled_pages: u64,
    pub sample_rows: u64,
    pub estimates: u64,
}

/// Replay one call layer by layer — draw → records → build → measure →
/// DataStats — with a span around each call.  Returns the CF, which must
/// equal [`run`]'s bit for bit.
pub fn replay(
    path: &Path,
    op: Op,
    tracer: &Arc<Tracer>,
    request: u64,
    counts: &mut ReplayCounts,
) -> Result<f64, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let table = DiskTable::open(path).map_err(|e| err(&e))?;
    let timed = TimedSource::new(Arc::new(table), Arc::clone(tracer));
    timed.set_request(request);
    let spec = spec_for(&timed)?;
    let scheme = scheme_by_name(op.scheme).map_err(|e| err(&e))?;
    let schema = timed.schema();
    let first_key = spec.key_indexes(schema).map_err(|e| err(&e))?[0];

    let Some(family) = op.family else {
        // ExactCf::compute: scan every row, build, measure.
        let rows = tracer
            .span("storage.scan", request, || timed.scan_rows())
            .map_err(|e| err(&e))?;
        let index = tracer
            .span("index.build", request, || {
                IndexBuilder::new().build_from_rows(schema, &rows, &spec)
            })
            .map_err(|e| err(&e))?;
        let report = tracer
            .span("compression.measure", request, || {
                measure_index(&index, scheme.as_ref())
            })
            .map_err(|e| err(&e))?;
        tracer.span("core.datastats", request, || {
            let mut acc = DataStatsAccumulator::new();
            for (_, row) in &rows {
                acc.observe(row.value(first_key));
            }
            acc.snapshot()
        });
        counts.pages_read += timed.counts().0;
        return Ok(report.cf());
    };

    let kind = family.kind(op.fraction);
    let sample = tracer
        .span("sampling.draw", request, || {
            MaterializedSample::draw(&timed, kind, op.seed)
        })
        .map_err(|e| err(&e))?;
    let records = tracer
        .span("sampling.records", request, || sample.records())
        .map_err(|e| err(&e))?;
    let (pages, rows_on_pages) = timed.counts();
    counts.pages_read += pages;
    counts.rows_on_sampled_pages += rows_on_pages;
    counts.sample_rows += records.len() as u64;
    counts.estimates += 1;

    let builder = IndexBuilder::new().threads(1);
    let index = tracer
        .span("index.build", request, || {
            builder.build_from_records(schema, &records, &spec)
        })
        .map_err(|e| err(&e))?;
    let report = tracer
        .span("compression.measure", request, || {
            measure_index(&index, scheme.as_ref())
        })
        .map_err(|e| err(&e))?;
    tracer
        .span("core.datastats", request, || {
            first_key_stats(&timed, first_key, &records)
        })
        .map_err(|e| err(&e))?;
    if family != Family::Stratified {
        return Ok(report.cf());
    }

    // The weighted per-stratum combination of measure_records_stratified.
    let partition = tracer
        .span("core.strata", request, || {
            Strata::equi_depth(&timed, crate::mix::STRATA)
        })
        .map_err(|e| err(&e))?;
    #[allow(clippy::cast_possible_truncation)]
    let tags: Vec<u32> = records
        .iter()
        .map(|(rid, _)| partition.stratum_of_page(rid.page) as u32)
        .collect();
    if tags != sample.row_strata() {
        return Err("replayed strata disagree with the sample's own tags".to_string());
    }
    let weights = partition.weights();
    let mut cfs = vec![None; weights.len()];
    for (s, cf) in cfs.iter_mut().enumerate() {
        let group: Vec<(Rid, &[u8])> = records
            .iter()
            .zip(&tags)
            .filter(|(_, &t)| t as usize == s)
            .map(|(&r, _)| r)
            .collect();
        if group.is_empty() {
            continue;
        }
        let index = tracer
            .span("index.build", request, || {
                builder.build_from_records(schema, &group, &spec)
            })
            .map_err(|e| err(&e))?;
        let report = tracer
            .span("compression.measure", request, || {
                measure_index(&index, scheme.as_ref())
            })
            .map_err(|e| err(&e))?;
        *cf = Some(report.cf());
    }
    weighted_combine(&weights, &cfs).ok_or_else(|| "no stratum was sampled".to_string())
}

/// DataStats over the first key column of encoded records, as
/// `measure_records` computes it.
fn first_key_stats(
    source: &dyn TableSource,
    first_key: usize,
    records: &[(Rid, &[u8])],
) -> Result<samplecf_core::DataStats, String> {
    let datatype = source.schema().column_at(first_key).datatype;
    let offset = source.codec().cell_offset(first_key);
    let width = datatype.uncompressed_width();
    let mut acc = DataStatsAccumulator::new();
    for (_, record) in records {
        let is_null = record[first_key / 8] & (1 << (first_key % 8)) != 0;
        let value = if is_null {
            Value::Null
        } else {
            decode_cell(&record[offset..offset + width], &datatype).map_err(|e| e.to_string())?
        };
        acc.observe(&value);
    }
    Ok(acc.snapshot())
}
