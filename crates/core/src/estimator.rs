//! The SampleCF estimator (paper Figure 2) and the exact baseline.
//!
//! ```text
//! Algorithm SampleCF(T, f, S, C)
//!   1. T' = uniform random sample of f·n rows from T
//!   2. Build index I'(S) on T'
//!   3. Compress index I' using C
//!   4. Return CF for index I'
//! ```
//!
//! The estimator is deliberately agnostic to the compression scheme: steps 2
//! and 3 reuse exactly the same index-build and compression code paths as the
//! exact computation, just over the sample instead of the full table.

use crate::error::{CoreError, CoreResult};
use crate::metrics::ratio_error;
use samplecf_compression::CompressionScheme;
use samplecf_index::{measure_index, CompressedIndexReport, IndexBuilder, IndexSpec};
use samplecf_sampling::{MaterializedSample, SamplerKind};
use samplecf_storage::{decode_cell, DataType, PageId, Rid, RowCodec, Schema, TableSource, Value};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Statistics about the sample (or full table) the compression fraction was
/// measured on.  `distinct_first_key` is the paper's `d'` when measured on a
/// sample and `d` when measured on the whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct DataStats {
    /// Number of rows measured.
    pub rows: usize,
    /// Number of distinct values of the first key column.
    pub distinct_first_key: usize,
    /// Sum of null-suppressed lengths of the first key column (`Σ ℓᵢ`).
    pub sum_logical_len_first_key: usize,
    /// Number of NULLs in the first key column.
    pub null_first_key: usize,
}

impl DataStats {
    fn from_rows<'a>(values: impl Iterator<Item = &'a Value>) -> Self {
        let mut rows = 0usize;
        let mut sum = 0usize;
        let mut nulls = 0usize;
        let mut distinct: HashSet<&Value> = HashSet::new();
        for v in values {
            rows += 1;
            sum += v.logical_len();
            if v.is_null() {
                nulls += 1;
            } else {
                distinct.insert(v);
            }
        }
        DataStats {
            rows,
            distinct_first_key: distinct.len(),
            sum_logical_len_first_key: sum,
            null_first_key: nulls,
        }
    }
}

/// Running accumulator behind [`DataStats`], for consumers that see the
/// sample arrive in batches (the progressive estimator) instead of all at
/// once.
///
/// Observing values one by one and [`snapshot`](Self::snapshot)ting at any
/// point yields exactly the stats a from-scratch pass over the same values
/// would produce — the distinct set, length sum and null count are all
/// order-insensitive — so checkpoint stats cost `O(batch)` instead of
/// `O(rows so far)`.
#[derive(Debug, Clone, Default)]
pub struct DataStatsAccumulator {
    rows: usize,
    sum: usize,
    nulls: usize,
    distinct: HashSet<Value>,
}

impl DataStatsAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one first-key value into the running stats.
    pub fn observe(&mut self, value: &Value) {
        self.rows += 1;
        self.sum += value.logical_len();
        if value.is_null() {
            self.nulls += 1;
        } else if !self.distinct.contains(value) {
            self.distinct.insert(value.clone());
        }
    }

    /// Rows observed so far.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The stats of everything observed so far.
    #[must_use]
    pub fn snapshot(&self) -> DataStats {
        DataStats {
            rows: self.rows,
            distinct_first_key: self.distinct.len(),
            sum_logical_len_first_key: self.sum,
            null_first_key: self.nulls,
        }
    }
}

/// The first key column's cell of encoded records: the one [`Value`] per
/// record that [`DataStats`] and the NS row statistic need, decoded
/// without touching any other cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FirstKeyCell {
    index: usize,
    offset: usize,
    datatype: DataType,
}

impl FirstKeyCell {
    /// Locate the first key column of `spec` in `codec`'s record layout.
    pub(crate) fn new(schema: &Schema, codec: &RowCodec, spec: &IndexSpec) -> CoreResult<Self> {
        let index = spec
            .key_indexes(schema)?
            .first()
            .copied()
            .ok_or_else(|| CoreError::InvalidConfig("index has no key columns".to_string()))?;
        Ok(FirstKeyCell {
            index,
            offset: codec.cell_offset(index),
            datatype: schema.column_at(index).datatype,
        })
    }

    /// Uncompressed width of the key cell.
    pub(crate) fn width(&self) -> usize {
        self.datatype.uncompressed_width()
    }

    /// Decode the key cell of one record (the null bitmap is
    /// authoritative).  The record must have the codec's full length.
    pub(crate) fn value(&self, record: &[u8]) -> CoreResult<Value> {
        if record[self.index / 8] & (1 << (self.index % 8)) != 0 {
            return Ok(Value::Null);
        }
        Ok(decode_cell(
            &record[self.offset..self.offset + self.width()],
            &self.datatype,
        )?)
    }
}

/// The result of measuring (or estimating) a compression fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct CfMeasurement {
    /// Compression fraction over the stored column data — the paper's CF.
    pub cf: f64,
    /// Compression fraction including RID pointers and null bitmaps.
    pub cf_with_pointers: f64,
    /// Page-level compression fraction (repacked leaf pages / original).
    pub cf_pages: f64,
    /// Name of the compression scheme.
    pub scheme: String,
    /// Label of the sampling procedure ("exact" for the full computation).
    pub sampler: String,
    /// Statistics of the rows the measurement was taken over.
    pub data: DataStats,
    /// Wall-clock time spent building and compressing the index.
    pub elapsed: Duration,
    /// The full per-column compression report.
    pub report: CompressedIndexReport,
}

impl CfMeasurement {
    /// Ratio error of this measurement against a reference (usually the exact
    /// CF of the full index).
    #[must_use]
    pub fn ratio_error_vs(&self, truth: &CfMeasurement) -> f64 {
        ratio_error(self.cf, truth.cf)
    }
}

/// Build and compress an index over an explicit row set and report its CF.
/// The shared kernel behind [`ExactCf`], [`SampleCf::estimate`], the
/// advisor's shared-sample evaluation, and the `samplecfd` server's
/// cache-backed `estimate` endpoint.  For rows drawn with a given
/// `(sampler, seed)`, the measurement is byte-identical to
/// [`SampleCf::estimate`] with that configuration (the rows *are* the
/// estimate; building and compressing them is deterministic).
pub fn measure_rows(
    schema: &Schema,
    rows: &[(samplecf_storage::Rid, samplecf_storage::Row)],
    spec: &IndexSpec,
    scheme: &dyn CompressionScheme,
    builder: &IndexBuilder,
    sampler_label: String,
) -> CoreResult<CfMeasurement> {
    let start = Instant::now();
    let index = builder.build_from_rows(schema, rows, spec)?;
    let report = measure_index(&index, scheme)?;
    let elapsed = start.elapsed();

    let first_key = spec
        .key_indexes(schema)?
        .first()
        .copied()
        .ok_or_else(|| CoreError::InvalidConfig("index has no key columns".to_string()))?;
    let data = DataStats::from_rows(rows.iter().map(|(_, r)| r.value(first_key)));

    Ok(CfMeasurement {
        cf: report.cf(),
        cf_with_pointers: report.cf_with_pointers(),
        cf_pages: report.cf_pages(),
        scheme: report.scheme.clone(),
        sampler: sampler_label,
        data,
        elapsed,
        report,
    })
}

/// Zero-copy twin of [`measure_rows`]: the same measurement taken over
/// *borrowed* encoded heap records instead of decoded rows.
///
/// The index is bulk-loaded by slicing sort keys and stored cells straight
/// out of each record
/// ([`IndexBuilder::build_from_records`](samplecf_index::IndexBuilder::build_from_records))
/// and sized by the batch measure kernels ([`measure_index`]), so the hot
/// path never materialises a decoded [`Row`](samplecf_storage::Row) or a
/// compressed byte.  Only the first key column's cells are decoded — one
/// [`Value`] per record — to produce the same [`DataStats`] the row path
/// reports.  `codec` must be the [`RowCodec`] the records were encoded
/// with; results are byte-identical to [`measure_rows`] over the decoded
/// equivalents (pinned by the differential suite).
pub fn measure_records(
    schema: &Schema,
    codec: &RowCodec,
    records: &[(Rid, &[u8])],
    spec: &IndexSpec,
    scheme: &dyn CompressionScheme,
    builder: &IndexBuilder,
    sampler_label: String,
) -> CoreResult<CfMeasurement> {
    let start = Instant::now();
    let index = builder.build_from_records(schema, records, spec)?;
    let report = measure_index(&index, scheme)?;
    let elapsed = start.elapsed();

    // The bulk load checked every record's length; decode only the key.
    let first_key = FirstKeyCell::new(schema, codec, spec)?;
    let mut acc = DataStatsAccumulator::new();
    for (_, record) in records {
        acc.observe(&first_key.value(record)?);
    }

    Ok(CfMeasurement {
        cf: report.cf(),
        cf_with_pointers: report.cf_with_pointers(),
        cf_pages: report.cf_pages(),
        scheme: report.scheme.clone(),
        sampler: sampler_label,
        data: acc.snapshot(),
        elapsed,
        report,
    })
}

/// Per-row stratum assignment for [`measure_rows_stratified`]: which stratum
/// each sampled row belongs to, plus the population weight of every stratum.
#[derive(Debug, Clone, Copy)]
pub struct StrataAssignment<'a> {
    /// Stratum index of each sampled row, aligned with the row slice.
    pub tags: &'a [u32],
    /// Population weight `W_s` of each stratum, indexed by tag value.
    pub weights: &'a [f64],
}

/// Stratified variant of [`measure_rows`]: the CF triple is the weighted
/// per-stratum combination `Σ W_s·CF_s` instead of the pooled ratio.
///
/// Each stratum's rows (selected by the assignment's tags, one per row,
/// aligned) are built and compressed as their own sub-index; the resulting
/// per-stratum CFs are combined with
/// [`weighted_combine`](crate::algebra::weighted_combine) using the
/// population weights (renormalised over sampled strata).  This is the same
/// arithmetic [`ProgressiveCf`](crate::progressive::ProgressiveCf) applies at
/// its checkpoints, so a measurement taken from cached stratified rows (the
/// `samplecfd` `estimate` path) is bit-identical to [`SampleCf::estimate`]
/// with the same `(sampler, seed)`.  The pooled report and [`DataStats`] are
/// kept for their per-column detail.
pub fn measure_rows_stratified(
    schema: &Schema,
    rows: &[(samplecf_storage::Rid, samplecf_storage::Row)],
    strata: StrataAssignment<'_>,
    spec: &IndexSpec,
    scheme: &dyn CompressionScheme,
    builder: &IndexBuilder,
    sampler_label: String,
) -> CoreResult<CfMeasurement> {
    let StrataAssignment { tags, weights } = strata;
    if tags.len() != rows.len() {
        return Err(CoreError::InvalidConfig(format!(
            "stratum tags ({}) must align with rows ({})",
            tags.len(),
            rows.len()
        )));
    }
    let mut measurement = measure_rows(schema, rows, spec, scheme, builder, sampler_label)?;
    let k = weights.len();
    // Per-stratum sub-indexes are independent: fan them over the builder's
    // worker pool (each stratum builds serially so strata × sort workers
    // cannot oversubscribe) and reassemble in stratum order, keeping the
    // weighted combination thread-count independent.
    let inner = builder.threads(1);
    let per_stratum = crate::parallel::parallel_indexed_map(k, builder.thread_count(), |s| {
        // Rows are cloned into the group because `build_from_rows` needs a
        // contiguous slice of owned pairs; the zero-copy twin
        // (`measure_records_stratified`) copies only fat pointers.
        let group: Vec<_> = rows
            .iter()
            .zip(tags)
            .filter(|(_, &t)| t as usize == s)
            .map(|(r, _)| r.clone())
            .collect();
        if group.is_empty() {
            return Ok(None);
        }
        let index = inner.build_from_rows(schema, &group, spec)?;
        let report = measure_index(&index, scheme)?;
        Ok::<_, CoreError>(Some((
            report.cf(),
            report.cf_with_pointers(),
            report.cf_pages(),
        )))
    });
    let mut cfs = vec![None; k];
    let mut cfwps = vec![None; k];
    let mut cfps = vec![None; k];
    for (s, result) in per_stratum.into_iter().enumerate() {
        if let Some((cf, cfwp, cfp)) = result? {
            cfs[s] = Some(cf);
            cfwps[s] = Some(cfwp);
            cfps[s] = Some(cfp);
        }
    }
    if let Some(cf) = crate::algebra::weighted_combine(weights, &cfs) {
        measurement.cf = cf;
    }
    if let Some(cfwp) = crate::algebra::weighted_combine(weights, &cfwps) {
        measurement.cf_with_pointers = cfwp;
    }
    if let Some(cfp) = crate::algebra::weighted_combine(weights, &cfps) {
        measurement.cf_pages = cfp;
    }
    Ok(measurement)
}

/// Zero-copy twin of [`measure_rows_stratified`], over borrowed encoded
/// records (see [`measure_records`]).  Per-stratum groups copy only the
/// `(Rid, &[u8])` fat pointers, never the record bytes.
#[allow(clippy::too_many_arguments)]
pub fn measure_records_stratified(
    schema: &Schema,
    codec: &RowCodec,
    records: &[(Rid, &[u8])],
    strata: StrataAssignment<'_>,
    spec: &IndexSpec,
    scheme: &dyn CompressionScheme,
    builder: &IndexBuilder,
    sampler_label: String,
) -> CoreResult<CfMeasurement> {
    let StrataAssignment { tags, weights } = strata;
    if tags.len() != records.len() {
        return Err(CoreError::InvalidConfig(format!(
            "stratum tags ({}) must align with records ({})",
            tags.len(),
            records.len()
        )));
    }
    let mut measurement =
        measure_records(schema, codec, records, spec, scheme, builder, sampler_label)?;
    let k = weights.len();
    // Same fan-out as the rows path: independent strata across the pool,
    // serial builds within each, results reassembled in stratum order.
    let inner = builder.threads(1);
    let per_stratum = crate::parallel::parallel_indexed_map(k, builder.thread_count(), |s| {
        let group: Vec<(Rid, &[u8])> = records
            .iter()
            .zip(tags)
            .filter(|(_, &t)| t as usize == s)
            .map(|(&r, _)| r)
            .collect();
        if group.is_empty() {
            return Ok(None);
        }
        let index = inner.build_from_records(schema, &group, spec)?;
        let report = measure_index(&index, scheme)?;
        Ok::<_, CoreError>(Some((
            report.cf(),
            report.cf_with_pointers(),
            report.cf_pages(),
        )))
    });
    let mut cfs = vec![None; k];
    let mut cfwps = vec![None; k];
    let mut cfps = vec![None; k];
    for (s, result) in per_stratum.into_iter().enumerate() {
        if let Some((cf, cfwp, cfp)) = result? {
            cfs[s] = Some(cf);
            cfwps[s] = Some(cfwp);
            cfps[s] = Some(cfp);
        }
    }
    if let Some(cf) = crate::algebra::weighted_combine(weights, &cfs) {
        measurement.cf = cf;
    }
    if let Some(cfwp) = crate::algebra::weighted_combine(weights, &cfwps) {
        measurement.cf_with_pointers = cfwp;
    }
    if let Some(cfp) = crate::algebra::weighted_combine(weights, &cfps) {
        measurement.cf_pages = cfp;
    }
    Ok(measurement)
}

/// Exact computation of the compression fraction: build and compress the full
/// index (the expensive baseline SampleCF avoids).
#[derive(Debug, Clone, Default)]
pub struct ExactCf {
    builder: IndexBuilder,
}

impl ExactCf {
    /// Create with default index-build settings.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Use a custom index builder (page size / fill factor).
    #[must_use]
    pub fn with_builder(builder: IndexBuilder) -> Self {
        ExactCf { builder }
    }

    /// Build the full index, compress it, and report the true CF.
    ///
    /// Works over any [`TableSource`]; on a disk-resident table this scans
    /// every page — exactly the cost SampleCF exists to avoid.  Each page
    /// is read once and its records are measured in place through
    /// [`measure_records`]: no row is decoded, and only the first key cell
    /// of each record is (for [`DataStats`]).
    pub fn compute(
        &self,
        source: &dyn TableSource,
        spec: &IndexSpec,
        scheme: &dyn CompressionScheme,
    ) -> CoreResult<CfMeasurement> {
        let pages = (0..source.num_pages())
            .map(|pid| source.read_page_ref(pid as PageId))
            .collect::<Result<Vec<_>, _>>()?;
        let mut records = Vec::with_capacity(source.num_rows());
        for (pid, page) in pages.iter().enumerate() {
            for slot in 0..page.slot_count() {
                records.push((Rid::new(pid as PageId, slot), page.get(slot)?));
            }
        }
        measure_records(
            source.schema(),
            source.codec(),
            &records,
            spec,
            scheme,
            &self.builder,
            "exact".to_string(),
        )
    }
}

/// The SampleCF estimator.
#[derive(Debug, Clone)]
pub struct SampleCf {
    sampler: SamplerKind,
    builder: IndexBuilder,
    seed: u64,
}

impl SampleCf {
    /// Create an estimator using the given sampling procedure.
    ///
    /// The paper's canonical configuration is
    /// `SamplerKind::UniformWithReplacement(f)`.
    #[must_use]
    pub fn new(sampler: SamplerKind) -> Self {
        SampleCf {
            sampler,
            builder: IndexBuilder::new(),
            seed: 0,
        }
    }

    /// Shorthand for the paper's configuration: uniform sampling with
    /// replacement at fraction `f`.
    #[must_use]
    pub fn with_fraction(fraction: f64) -> Self {
        Self::new(SamplerKind::UniformWithReplacement(fraction))
    }

    /// Set the RNG seed (each call to [`estimate`](Self::estimate) derives its
    /// randomness deterministically from this seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Use a custom index builder (page size / fill factor) for the sample
    /// index.
    #[must_use]
    pub fn builder(mut self, builder: IndexBuilder) -> Self {
        self.builder = builder;
        self
    }

    /// Worker threads for the estimator's compute kernels (0 = all
    /// available parallelism, 1 = serial; the default).
    ///
    /// Shorthand for configuring the index builder's thread count: the bulk
    /// load's radix sort and leaf packing, the per-stratum sub-index builds
    /// and the progressive checkpoint kernels all fan out over the same
    /// strided pool.  Estimates are byte-identical for every thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.builder = self.builder.threads(threads);
        self
    }

    /// The configured worker thread count (0 = all available parallelism).
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.builder.thread_count()
    }

    /// The configured sampler kind.
    #[must_use]
    pub fn sampler(&self) -> SamplerKind {
        self.sampler
    }

    /// Run the estimator: sample, build the index on the sample, compress it,
    /// and return the sample's compression fraction as the estimate.
    ///
    /// Works over any [`TableSource`] — in-memory or disk-resident.  On a
    /// [`DiskTable`](samplecf_storage::DiskTable) with a block sampler, only
    /// the sampled pages are physically read.
    ///
    /// This is a thin wrapper over
    /// [`ProgressiveCf`](crate::progressive::ProgressiveCf) with a single
    /// checkpoint at the configured fraction — same rows, same CF, same
    /// [`DataStats`], same pages read as the progressive path stopped at
    /// that fraction (the parity the proptests pin).
    pub fn estimate(
        &self,
        source: &dyn TableSource,
        spec: &IndexSpec,
        scheme: &dyn CompressionScheme,
    ) -> CoreResult<CfMeasurement> {
        let report = crate::progressive::ProgressiveCf::one_checkpoint(self.sampler)
            .seed(self.seed)
            .builder(self.builder)
            .run(source, spec, scheme)?;
        Ok(report.measurement)
    }

    /// Run the estimator over an already-drawn [`MaterializedSample`]
    /// instead of sampling afresh.
    ///
    /// This is the batch-estimation entry point: draw one sample (paying its
    /// I/O once), then estimate any number of (index spec × compression
    /// scheme) candidates from it.  For a sample drawn with the same
    /// `(sampler kind, seed)` as this estimator would use, the measurement
    /// is identical to [`estimate`](Self::estimate) — same rows, same CF —
    /// except that `elapsed` excludes the (already paid) sampling time.
    ///
    /// Internally this runs the zero-copy path: the cached rows are read as
    /// borrowed encoded records ([`MaterializedSample::records`]) and fed to
    /// [`measure_records`] / [`measure_records_stratified`], so re-measuring
    /// a cached sample never re-materialises its `(Rid, Row)` pairs.
    pub fn estimate_materialized(
        &self,
        sample: &MaterializedSample,
        spec: &IndexSpec,
        scheme: &dyn CompressionScheme,
    ) -> CoreResult<CfMeasurement> {
        let records = sample.records()?;
        let codec = sample.table().codec();
        if !sample.row_strata().is_empty() {
            return measure_records_stratified(
                sample.table().schema(),
                codec,
                &records,
                StrataAssignment {
                    tags: sample.row_strata(),
                    weights: sample.strata_weights(),
                },
                spec,
                scheme,
                &self.builder,
                sample.kind().label(),
            );
        }
        measure_records(
            sample.table().schema(),
            codec,
            &records,
            spec,
            scheme,
            &self.builder,
            sample.kind().label(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_compression::{
        DictionaryCompression, GlobalDictionaryCompression, NullSuppression, Uncompressed,
    };
    use samplecf_datagen::presets;
    use samplecf_storage::Table;

    fn table(n: usize, d: usize, seed: u64) -> Table {
        presets::variable_length_table("t", n, 40, d, 4, 36, seed)
            .generate()
            .unwrap()
            .table
    }

    fn spec() -> IndexSpec {
        IndexSpec::nonclustered("idx_a", ["a"]).unwrap()
    }

    #[test]
    fn exact_cf_matches_direct_report() {
        let t = table(2000, 100, 1);
        let exact = ExactCf::new()
            .compute(&t, &spec(), &NullSuppression)
            .unwrap();
        assert_eq!(exact.sampler, "exact");
        assert_eq!(exact.data.rows, 2000);
        assert_eq!(exact.data.distinct_first_key, 100);
        assert!(exact.cf > 0.0 && exact.cf < 1.2);
        assert_eq!(exact.report.num_entries, 2000);
    }

    #[test]
    fn sample_estimate_is_close_for_null_suppression() {
        let t = table(20_000, 20_000, 2);
        let exact = ExactCf::new()
            .compute(&t, &spec(), &NullSuppression)
            .unwrap();
        let est = SampleCf::with_fraction(0.05)
            .seed(7)
            .estimate(&t, &spec(), &NullSuppression)
            .unwrap();
        assert!(
            est.data.rows == 1000,
            "expected 5% of 20k rows, got {}",
            est.data.rows
        );
        let err = est.ratio_error_vs(&exact);
        assert!(err < 1.05, "ratio error {err} too large for NS");
    }

    #[test]
    fn sample_estimate_is_close_for_dictionary_with_small_d() {
        // Theorem 2's good case needs the sample size r to dwarf d: here
        // d = 20 and r = 0.2 · 20_000 = 4_000.
        let t = table(20_000, 20, 3);
        let scheme = GlobalDictionaryCompression::default();
        let exact = ExactCf::new().compute(&t, &spec(), &scheme).unwrap();
        let est = SampleCf::with_fraction(0.2)
            .seed(11)
            .estimate(&t, &spec(), &scheme)
            .unwrap();
        let err = est.ratio_error_vs(&exact);
        assert!(err < 1.25, "ratio error {err} too large for small-d DC");
    }

    #[test]
    fn paged_dictionary_overestimates_cf_for_clustered_duplicates() {
        // With d = 50 and 20_000 rows, the sorted full index packs ~1-2
        // distinct values per leaf page, so paged dictionary compresses far
        // better than the sample (whose pages mix many values) suggests.
        // This is the paging effect the paper excludes from its model and
        // flags as future work.
        let t = table(20_000, 50, 3);
        let scheme = DictionaryCompression::default();
        let exact = ExactCf::new().compute(&t, &spec(), &scheme).unwrap();
        let est = SampleCf::with_fraction(0.02)
            .seed(11)
            .estimate(&t, &spec(), &scheme)
            .unwrap();
        assert!(
            est.cf > exact.cf,
            "sample {} should exceed exact {}",
            est.cf,
            exact.cf
        );
    }

    #[test]
    fn dictionary_estimate_degrades_at_intermediate_d() {
        // With d around n/10 and a 1% sample, the sample sees mostly
        // singletons and overestimates CF relative to the global model truth.
        let t = table(20_000, 2_000, 4);
        let scheme = GlobalDictionaryCompression::default();
        let exact = ExactCf::new().compute(&t, &spec(), &scheme).unwrap();
        let est = SampleCf::with_fraction(0.01)
            .seed(5)
            .estimate(&t, &spec(), &scheme)
            .unwrap();
        assert!(
            est.cf > exact.cf,
            "sample CF should overestimate: {} vs {}",
            est.cf,
            exact.cf
        );
    }

    #[test]
    fn estimator_is_deterministic_per_seed() {
        let t = table(5_000, 500, 6);
        let a = SampleCf::with_fraction(0.02)
            .seed(42)
            .estimate(&t, &spec(), &NullSuppression)
            .unwrap();
        let b = SampleCf::with_fraction(0.02)
            .seed(42)
            .estimate(&t, &spec(), &NullSuppression)
            .unwrap();
        assert_eq!(a.cf, b.cf);
        let c = SampleCf::with_fraction(0.02)
            .seed(43)
            .estimate(&t, &spec(), &NullSuppression)
            .unwrap();
        assert_ne!(a.cf, c.cf);
    }

    #[test]
    fn estimator_works_with_every_sampler_kind() {
        let t = table(3_000, 100, 8);
        for kind in [
            SamplerKind::UniformWithReplacement(0.05),
            SamplerKind::UniformWithoutReplacement(0.05),
            SamplerKind::Bernoulli(0.05),
            SamplerKind::Systematic(0.05),
            SamplerKind::Reservoir(150),
            SamplerKind::Block(0.05),
        ] {
            let est = SampleCf::new(kind)
                .seed(1)
                .estimate(&t, &spec(), &NullSuppression)
                .unwrap();
            assert!(
                est.cf > 0.0 && est.cf < 1.5,
                "{kind:?} produced cf = {}",
                est.cf
            );
            assert!(est.data.rows > 0);
        }
    }

    #[test]
    fn materialized_estimate_equals_direct_estimate_seed_for_seed() {
        use samplecf_sampling::MaterializedSample;
        let t = table(8_000, 400, 12);
        for kind in [
            SamplerKind::UniformWithReplacement(0.05),
            SamplerKind::Block(0.05),
            SamplerKind::Systematic(0.05),
            SamplerKind::Stratified {
                fraction: 0.05,
                strata: 4,
                alloc: samplecf_sampling::Allocation::Proportional,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            },
        ] {
            let sample = MaterializedSample::draw(&t, kind, 42).unwrap();
            for scheme_name in ["null-suppression", "dictionary-global", "rle"] {
                let scheme = samplecf_compression::scheme_by_name(scheme_name).unwrap();
                let direct = SampleCf::new(kind)
                    .seed(42)
                    .estimate(&t, &spec(), scheme.as_ref())
                    .unwrap();
                let shared = SampleCf::new(kind)
                    .estimate_materialized(&sample, &spec(), scheme.as_ref())
                    .unwrap();
                assert_eq!(shared.cf, direct.cf, "{kind:?}/{scheme_name}");
                assert_eq!(shared.cf_with_pointers, direct.cf_with_pointers);
                assert_eq!(shared.cf_pages, direct.cf_pages);
                assert_eq!(shared.data, direct.data);
                assert_eq!(shared.sampler, direct.sampler);
                assert_eq!(shared.report.per_column, direct.report.per_column);
            }
        }
    }

    #[test]
    fn uncompressed_scheme_estimates_cf_of_one() {
        let t = table(2_000, 200, 9);
        let est = SampleCf::with_fraction(0.05)
            .estimate(&t, &spec(), &Uncompressed)
            .unwrap();
        assert!((est.cf - 1.0).abs() < 0.05, "cf = {}", est.cf);
    }

    #[test]
    fn estimate_is_much_faster_than_exact_on_large_tables() {
        let t = table(30_000, 3_000, 10);
        let scheme = DictionaryCompression::default();
        let exact = ExactCf::new().compute(&t, &spec(), &scheme).unwrap();
        let est = SampleCf::with_fraction(0.01)
            .estimate(&t, &spec(), &scheme)
            .unwrap();
        // The sample is 1% of the data; building + compressing it should be
        // well under half the exact cost even with fixed overheads.
        assert!(
            est.elapsed < exact.elapsed / 2,
            "estimate took {:?}, exact took {:?}",
            est.elapsed,
            exact.elapsed
        );
    }

    #[test]
    fn multi_column_indexes_are_supported() {
        let g = presets::orders_table("orders", 3_000, 11)
            .generate()
            .unwrap();
        let spec = IndexSpec::clustered("pk", ["order_id", "status"]).unwrap();
        let exact = ExactCf::new()
            .compute(&g.table, &spec, &NullSuppression)
            .unwrap();
        let est = SampleCf::with_fraction(0.05)
            .estimate(&g.table, &spec, &NullSuppression)
            .unwrap();
        assert!(exact.cf > 0.0 && est.cf > 0.0);
        assert!(est.ratio_error_vs(&exact) < 1.3);
        assert_eq!(exact.report.per_column.len(), 4);
    }
}
