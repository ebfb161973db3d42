//! Differential suite for the zero-copy measure kernels.
//!
//! Two independent implementations exist for every (scheme, sample) pair:
//!
//! * the **byte-producing oracle** — decode rows, bulk-load the index from
//!   [`Row`]s, materialise every compressed column
//!   ([`compress_index`]), and
//! * the **batch kernels** — bulk-load from borrowed encoded records
//!   ([`IndexBuilder::build_from_records`]) and compute encoded sizes
//!   without materialising a byte ([`measure_index`]).
//!
//! The estimator's exactness claim (METHODOLOGY.md) requires the two to be
//! *bit-identical*, not approximately equal.  This suite pins that across
//! every registered scheme × {uniform, block, stratified} samplers ×
//! {in-memory, on-disk} sources, and fuzzes the kernels with NULL-heavy,
//! variable-length rows via proptest.

use proptest::prelude::*;
use samplecf_compression::{scheme_by_name, scheme_names};
use samplecf_core::{measure_records, measure_records_stratified, measure_rows, StrataAssignment};
use samplecf_index::{compress_index, measure_index, IndexBuilder, IndexSpec};
use samplecf_sampling::{Allocation, MaterializedSample, SamplerKind, Strata, StrataMode};
use samplecf_storage::{
    Column, DataType, DiskTable, Rid, Row, RowCodec, Schema, Table, TableBuilder, TableSource,
    Value,
};

/// A mixed-type table with a nullable, variable-length key column: the
/// shape that stresses padding, bitmaps and per-page dictionaries at once.
fn mixed_table(rows: usize, page_size: usize) -> Table {
    let schema = Schema::new(vec![
        Column::nullable("a", DataType::Char(18)),
        Column::new("b", DataType::Int32),
        Column::nullable("c", DataType::VarChar(12)),
    ])
    .unwrap();
    TableBuilder::new("diff", schema)
        .page_size(page_size)
        .build_with_rows((0..rows).map(|i| {
            let a = if i % 5 == 0 {
                Value::Null
            } else {
                let len = 3 + (i * 7) % 14;
                Value::str(format!("{:0len$}", i % 97))
            };
            let c = if i % 3 == 0 {
                Value::Null
            } else {
                Value::str(format!("v{:x}", i % 41))
            };
            #[allow(clippy::cast_possible_wrap)]
            Row::new(vec![a, Value::Int(i as i64 % 211 - 100), c])
        }))
        .unwrap()
}

fn samplers() -> [SamplerKind; 3] {
    [
        SamplerKind::UniformWithReplacement(0.15),
        SamplerKind::Block(0.2),
        SamplerKind::Stratified {
            fraction: 0.15,
            strata: 4,
            alloc: Allocation::Proportional,
            mode: StrataMode::EquiWidth,
        },
    ]
}

/// Assert the batch kernels agree with the byte-producing oracle on one
/// drawn sample, at both layers: identical compression reports from the
/// two index-build paths, and identical `CfMeasurement`s from the
/// row-based and record-based estimator kernels.
fn assert_differential(source: &dyn TableSource, kind: SamplerKind, tag: &str) {
    let sample = MaterializedSample::draw(source, kind, 97).unwrap();
    let rows = sample.rows().unwrap();
    let records = sample.records().unwrap();
    let schema = sample.table().schema();
    let codec = sample.table().codec();
    let builder = IndexBuilder::new();
    for spec in [
        IndexSpec::nonclustered("idx", ["a"]).unwrap(),
        IndexSpec::clustered("pk", ["b", "a"]).unwrap(),
    ] {
        let from_rows = builder.build_from_rows(schema, &rows, &spec).unwrap();
        let from_records = builder.build_from_records(schema, &records, &spec).unwrap();
        for name in scheme_names() {
            let scheme = scheme_by_name(name).unwrap();
            // Layer 1: the measure kernels equal the byte-producing oracle,
            // field for field, across the two build paths.
            let oracle = compress_index(&from_rows, scheme.as_ref()).unwrap();
            let measured = measure_index(&from_records, scheme.as_ref()).unwrap();
            assert_eq!(measured, oracle, "{tag}/{name}/{}", spec.name());

            // Layer 2: the estimator kernels agree end to end.  Each
            // record-based kernel is compared against the row-based kernel
            // that takes the same combination path.
            let (via_rows, via_records) = if sample.row_strata().is_empty() {
                (
                    measure_rows(
                        schema,
                        &rows,
                        &spec,
                        scheme.as_ref(),
                        &builder,
                        kind.label(),
                    )
                    .unwrap(),
                    measure_records(
                        schema,
                        codec,
                        &records,
                        &spec,
                        scheme.as_ref(),
                        &builder,
                        kind.label(),
                    )
                    .unwrap(),
                )
            } else {
                let assignment = StrataAssignment {
                    tags: sample.row_strata(),
                    weights: sample.strata_weights(),
                };
                (
                    samplecf_core::measure_rows_stratified(
                        schema,
                        &rows,
                        assignment,
                        &spec,
                        scheme.as_ref(),
                        &builder,
                        kind.label(),
                    )
                    .unwrap(),
                    measure_records_stratified(
                        schema,
                        codec,
                        &records,
                        assignment,
                        &spec,
                        scheme.as_ref(),
                        &builder,
                        kind.label(),
                    )
                    .unwrap(),
                )
            };
            assert_eq!(via_records.cf, via_rows.cf, "{tag}/{name} pooled cf");
            assert_eq!(
                via_records.cf_with_pointers, via_rows.cf_with_pointers,
                "{tag}/{name} cf with pointers"
            );
            assert_eq!(
                via_records.cf_pages, via_rows.cf_pages,
                "{tag}/{name} page-granular cf"
            );
            assert_eq!(via_records.data, via_rows.data, "{tag}/{name} stats");
            assert_eq!(
                via_records.report, via_rows.report,
                "{tag}/{name} full report"
            );
        }
    }
}

/// Assert two builds are the same tree, byte for byte: every leaf page's
/// raw backing buffer, plus the shape the leaves hang off.
fn assert_same_leaf_bytes(a: &samplecf_index::BTreeIndex, b: &samplecf_index::BTreeIndex) {
    assert_eq!(a.num_entries(), b.num_entries());
    assert_eq!(a.height(), b.height());
    assert_eq!(a.num_internal_pages(), b.num_internal_pages());
    assert_eq!(a.num_leaf_pages(), b.num_leaf_pages());
    for (pa, pb) in a.leaf_pages().iter().zip(b.leaf_pages()) {
        assert_eq!(pa.raw(), pb.raw(), "leaf page {} diverged", pa.id());
    }
}

/// The determinism contract of the parallel pipeline: for every sampler,
/// spec, scheme and source, a build-and-measure at `threads` ∈ {2, 8} (and
/// 0 = all cores) is byte-identical to the serial oracle at `threads` = 1.
#[test]
fn thread_counts_do_not_change_a_single_byte() {
    let t = mixed_table(2_500, 1024);
    let serial = IndexBuilder::new();
    for kind in samplers() {
        let sample = MaterializedSample::draw(&t, kind, 97).unwrap();
        let rows = sample.rows().unwrap();
        let records = sample.records().unwrap();
        let schema = sample.table().schema();
        for spec in [
            IndexSpec::nonclustered("idx", ["a"]).unwrap(),
            IndexSpec::clustered("pk", ["b", "a"]).unwrap(),
        ] {
            let oracle_rows = serial.build_from_rows(schema, &rows, &spec).unwrap();
            let oracle_records = serial.build_from_records(schema, &records, &spec).unwrap();
            for threads in [2usize, 8, 0] {
                let builder = IndexBuilder::new().threads(threads);
                let par_rows = builder.build_from_rows(schema, &rows, &spec).unwrap();
                let par_records = builder.build_from_records(schema, &records, &spec).unwrap();
                assert_same_leaf_bytes(&oracle_rows, &par_rows);
                assert_same_leaf_bytes(&oracle_records, &par_records);
                for name in scheme_names() {
                    let scheme = scheme_by_name(name).unwrap();
                    assert_eq!(
                        measure_index(&par_records, scheme.as_ref()).unwrap(),
                        measure_index(&oracle_records, scheme.as_ref()).unwrap(),
                        "threads={threads}/{name}/{}",
                        spec.name()
                    );
                }
            }

            // The stratified estimator kernel fans strata over the same
            // pool; its combined measurement must not move either.
            if !sample.row_strata().is_empty() {
                let assignment = StrataAssignment {
                    tags: sample.row_strata(),
                    weights: sample.strata_weights(),
                };
                let scheme = scheme_by_name("dictionary-paged").unwrap();
                let baseline = samplecf_core::measure_rows_stratified(
                    schema,
                    &rows,
                    assignment,
                    &spec,
                    scheme.as_ref(),
                    &serial,
                    kind.label(),
                )
                .unwrap();
                for threads in [2usize, 8, 0] {
                    let threaded = IndexBuilder::new().threads(threads);
                    let parallel = samplecf_core::measure_rows_stratified(
                        schema,
                        &rows,
                        assignment,
                        &spec,
                        scheme.as_ref(),
                        &threaded,
                        kind.label(),
                    )
                    .unwrap();
                    assert_eq!(parallel.cf, baseline.cf, "threads={threads} stratified cf");
                    assert_eq!(parallel.cf_with_pointers, baseline.cf_with_pointers);
                    assert_eq!(parallel.cf_pages, baseline.cf_pages);
                    assert_eq!(parallel.data, baseline.data);
                    assert_eq!(parallel.report, baseline.report);
                }
            }
        }
    }
}

#[test]
fn batch_kernels_equal_the_byte_path_on_memory_sources() {
    let t = mixed_table(2_500, 1024);
    for kind in samplers() {
        assert_differential(&t, kind, "memory");
    }
}

#[test]
fn batch_kernels_equal_the_byte_path_on_disk_sources() {
    let t = mixed_table(2_500, 1024);
    let path = std::env::temp_dir().join(format!(
        "samplecf_differential_kernels_{}.scf",
        std::process::id()
    ));
    let disk = DiskTable::materialize(&path, &t).unwrap();
    for kind in samplers() {
        assert_differential(&disk, kind, "disk");
    }
    drop(disk);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn equi_depth_stratified_samples_are_differential_too() {
    // Ragged page fills (variable-length values) make equi-depth boundaries
    // genuinely different from equi-width ones.
    let t = mixed_table(3_000, 512);
    let kind = SamplerKind::Stratified {
        fraction: 0.12,
        strata: 5,
        alloc: Allocation::Neyman,
        mode: StrataMode::EquiDepth,
    };
    assert_differential(&t, kind, "equi-depth");
    // And the sample's tags really follow the equi-depth partition.
    let sample = MaterializedSample::draw(&t, kind, 97).unwrap();
    let partition = Strata::equi_depth(&t, 5).unwrap();
    for ((rid, _), &tag) in sample.rows().unwrap().iter().zip(sample.row_strata()) {
        assert_eq!(partition.stratum_of_page(rid.page) as u32, tag);
    }
}

/// Strategy for one row of a NULL-heavy, variable-length fuzz schema:
/// `(nullable Char(16), nullable Int64, nullable VarChar(10), Bool)`.
fn fuzz_row() -> impl Strategy<Value = Row> {
    let regex = |pattern| proptest::string::string_regex(pattern).unwrap();
    let a = prop_oneof![
        2 => Just(Value::Null),
        3 => regex("[a-p]{0,16}").prop_map(Value::str),
    ];
    let b = prop_oneof![
        2 => Just(Value::Null),
        3 => any::<i64>().prop_map(Value::Int),
    ];
    let c = prop_oneof![
        1 => Just(Value::Null),
        1 => regex("[0-9]{0,10}").prop_map(Value::str),
    ];
    (a, b, c, any::<bool>()).prop_map(|(a, b, c, d)| Row::new(vec![a, b, c, Value::Bool(d)]))
}

fn fuzz_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("a", DataType::Char(16)),
        Column::nullable("b", DataType::Int64),
        Column::nullable("c", DataType::VarChar(10)),
        Column::new("d", DataType::Bool),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For arbitrary NULL-heavy variable-length row sets, both build paths
    /// and both measure paths agree bit-for-bit, for every scheme.
    #[test]
    fn fuzzed_rows_measure_identically(
        rows in proptest::collection::vec(fuzz_row(), 1..300),
        page_size_shift in 0u32..3, // 512, 1024, 2048
        clustered in any::<bool>(),
    ) {
        let schema = fuzz_schema();
        let codec = RowCodec::new(schema.clone());
        #[allow(clippy::cast_possible_truncation)]
        let pairs: Vec<(Rid, Row)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (Rid::new((i / 64) as u32, (i % 64) as u16), r.clone()))
            .collect();
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| codec.encode(r).unwrap()).collect();
        let records: Vec<(Rid, &[u8])> = pairs
            .iter()
            .zip(&encoded)
            .map(|(&(rid, _), bytes)| (rid, bytes.as_slice()))
            .collect();

        let spec = if clustered {
            IndexSpec::clustered("pk", ["a", "b"]).unwrap()
        } else {
            IndexSpec::nonclustered("idx", ["a"]).unwrap()
        };
        let builder = IndexBuilder::new().page_size(512usize << page_size_shift);
        let from_rows = builder.build_from_rows(&schema, &pairs, &spec).unwrap();
        let from_records = builder.build_from_records(&schema, &records, &spec).unwrap();
        for name in scheme_names() {
            let scheme = scheme_by_name(name).unwrap();
            let oracle = compress_index(&from_rows, scheme.as_ref()).unwrap();
            let measured = measure_index(&from_records, scheme.as_ref()).unwrap();
            prop_assert_eq!(measured, oracle, "scheme {}", name);
        }
    }

    /// An arbitrary thread count never changes the built tree: the radix
    /// bulk-load at any fan-out (including 0 = all cores) equals the
    /// serial sort, byte for byte, on both build paths.
    #[test]
    fn fuzzed_thread_counts_build_identical_trees(
        rows in proptest::collection::vec(fuzz_row(), 1..200),
        threads in 0usize..9,
        page_size_shift in 0u32..3,
    ) {
        let schema = fuzz_schema();
        let codec = RowCodec::new(schema.clone());
        #[allow(clippy::cast_possible_truncation)]
        let pairs: Vec<(Rid, Row)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (Rid::new((i / 64) as u32, (i % 64) as u16), r.clone()))
            .collect();
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| codec.encode(r).unwrap()).collect();
        let records: Vec<(Rid, &[u8])> = pairs
            .iter()
            .zip(&encoded)
            .map(|(&(rid, _), bytes)| (rid, bytes.as_slice()))
            .collect();

        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        let serial = IndexBuilder::new().page_size(512usize << page_size_shift);
        let parallel = serial.threads(threads);
        let oracle = serial.build_from_rows(&schema, &pairs, &spec).unwrap();
        for built in [
            parallel.build_from_rows(&schema, &pairs, &spec).unwrap(),
            parallel.build_from_records(&schema, &records, &spec).unwrap(),
        ] {
            prop_assert_eq!(oracle.num_entries(), built.num_entries());
            prop_assert_eq!(oracle.num_leaf_pages(), built.num_leaf_pages());
            for (pa, pb) in oracle.leaf_pages().iter().zip(built.leaf_pages()) {
                prop_assert_eq!(pa.raw(), pb.raw(), "threads {}", threads);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Streams: sliced record batches against the decoded-row path
// ---------------------------------------------------------------------------

/// FNV-1a (64-bit): a stable digest of everything a stream produced.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// How a stream is driven to its cap.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// One batch at the full cap.
    OneShot,
    /// Geometric batches growing from 1% of the table.
    Geometric,
    /// One batch at half the cap, then `extend_cap` to the full cap.
    Deepen,
}

const DRIVES: [Drive; 3] = [Drive::OneShot, Drive::Geometric, Drive::Deepen];

/// Every stream kind, at its full cap, with the shallower kind a deepened
/// stream starts from.
fn stream_kinds() -> [(&'static str, SamplerKind, SamplerKind); 5] {
    let stratified = |fraction, strata, alloc, mode| SamplerKind::Stratified {
        fraction,
        strata,
        alloc,
        mode,
    };
    [
        (
            "uniform",
            SamplerKind::UniformWithReplacement(0.15),
            SamplerKind::UniformWithReplacement(0.07),
        ),
        ("block", SamplerKind::Block(0.2), SamplerKind::Block(0.1)),
        (
            "reservoir",
            SamplerKind::Reservoir(150),
            SamplerKind::Reservoir(150),
        ),
        (
            "stratified-ew-prop",
            stratified(0.15, 4, Allocation::Proportional, StrataMode::EquiWidth),
            stratified(0.07, 4, Allocation::Proportional, StrataMode::EquiWidth),
        ),
        (
            "stratified-ed-neyman",
            stratified(0.12, 5, Allocation::Neyman, StrataMode::EquiDepth),
            stratified(0.05, 5, Allocation::Neyman, StrataMode::EquiDepth),
        ),
    ]
}

/// One drawn batch: `(rid, encoded record)` pairs in batch order, plus the
/// stream's stratum tags for it.
type DrawnBatch = (Vec<(Rid, Vec<u8>)>, Option<Vec<u32>>);

/// Drain `stream` batch by batch, copying each batch out as encoded records.
fn drain_records(
    stream: &mut dyn samplecf_sampling::SampleStream,
    source: &dyn TableSource,
    rng: &mut rand::rngs::StdRng,
) -> Vec<DrawnBatch> {
    let mut out = Vec::new();
    loop {
        let batch = stream.next_batch(source, rng).unwrap();
        if batch.is_empty() {
            return out;
        }
        let records = batch.iter().map(|(rid, rec)| (rid, rec.to_vec())).collect();
        out.push((records, stream.batch_strata().map(<[u32]>::to_vec)));
    }
}

/// Drive one stream kind to its cap; returns the batches and pages read.
fn drive_stream(
    source: &dyn TableSource,
    full: SamplerKind,
    shallow: SamplerKind,
    drive: Drive,
) -> (Vec<DrawnBatch>, u64) {
    use rand::SeedableRng;
    use samplecf_sampling::{BatchSchedule, CountingSource};
    let counting = CountingSource::new(source);
    let mut rng = rand::rngs::StdRng::seed_from_u64(97);
    let batches = match drive {
        Drive::OneShot => {
            let mut stream = full.stream(BatchSchedule::one_shot()).unwrap();
            drain_records(stream.as_mut(), &counting, &mut rng)
        }
        Drive::Geometric => {
            let mut stream = full.stream(BatchSchedule::new(0.01, 1.7).unwrap()).unwrap();
            drain_records(stream.as_mut(), &counting, &mut rng)
        }
        Drive::Deepen => {
            let mut stream = shallow.stream(BatchSchedule::one_shot()).unwrap();
            let mut batches = drain_records(stream.as_mut(), &counting, &mut rng);
            // Reservoirs cannot deepen: their draw is final after one scan.
            let deepened = stream.extend_cap(full);
            assert_eq!(deepened, !matches!(full, SamplerKind::Reservoir(_)));
            batches.extend(drain_records(stream.as_mut(), &counting, &mut rng));
            batches
        }
    };
    (batches, counting.pages_read())
}

fn digest_batches(batches: &[DrawnBatch], pages_read: u64) -> u64 {
    let mut h = Fnv::new();
    h.u64(batches.len() as u64);
    for (records, tags) in batches {
        h.u64(records.len() as u64);
        for (rid, bytes) in records {
            h.u64(u64::from(rid.page));
            h.u64(u64::from(rid.slot));
            h.u64(bytes.len() as u64);
            h.bytes(bytes);
        }
        if let Some(tags) = tags {
            for &t in tags {
                h.u64(u64::from(t));
            }
        }
    }
    h.u64(pages_read);
    h.0
}

/// Digest of a progressive run's final measurement under all six schemes.
fn digest_measurements(source: &dyn TableSource, kind: SamplerKind, drive: Drive) -> u64 {
    use samplecf_core::{ProgressiveCf, ProgressiveConfig};
    use samplecf_sampling::BatchSchedule;
    let schedule = match drive {
        Drive::Geometric => BatchSchedule::new(0.01, 1.7).unwrap(),
        Drive::OneShot | Drive::Deepen => BatchSchedule::one_shot(),
    };
    let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
    let mut h = Fnv::new();
    for name in scheme_names() {
        let scheme = scheme_by_name(name).unwrap();
        let report = ProgressiveCf::new(
            kind,
            ProgressiveConfig {
                target_error: 0.0,
                confidence: 0.95,
                schedule,
            },
        )
        .seed(97)
        .run(source, &spec, scheme.as_ref())
        .unwrap();
        let m = &report.measurement;
        h.u64(m.cf.to_bits());
        h.u64(m.cf_with_pointers.to_bits());
        h.u64(m.cf_pages.to_bits());
        h.u64(m.data.rows as u64);
        h.u64(m.data.distinct_first_key as u64);
        h.u64(m.data.sum_logical_len_first_key as u64);
        h.u64(m.data.null_first_key as u64);
        h.u64(report.pages_read);
    }
    h.0
}

/// Digests of every stream kind × drive, captured from the decoded-row
/// stream implementation (each batch's rows re-encoded with the table's
/// codec) before batches became sliced records.  Sliced batches must
/// reproduce them exactly: same rids, same bytes, same order, same batch
/// boundaries and tags, same pages read — and the same CF bits and
/// DataStats under every scheme.
const GOLDEN_STREAMS: &[(&str, &str, u64, u64)] = &[
    (
        "uniform",
        "OneShot",
        0x15e8_c9ac_906d_ec2d,
        0xbf7b_681b_13c4_51e4,
    ),
    (
        "uniform",
        "Geometric",
        0x5fca_4b9b_4d73_d764,
        0xbf7b_681b_13c4_51e4,
    ),
    (
        "uniform",
        "Deepen",
        0x0342_a424_26b6_1687,
        0xbf7b_681b_13c4_51e4,
    ),
    (
        "block",
        "OneShot",
        0x3ea2_dc8e_d81b_316f,
        0xd490_ff65_43db_4b8e,
    ),
    (
        "block",
        "Geometric",
        0xc5cb_c116_dae2_f6f5,
        0xd490_ff65_43db_4b8e,
    ),
    (
        "block",
        "Deepen",
        0x4b21_26cd_b5df_c2bb,
        0xd490_ff65_43db_4b8e,
    ),
    (
        "reservoir",
        "OneShot",
        0x2f52_b7fb_3bfa_d61d,
        0xae98_55ef_6f1c_84fd,
    ),
    (
        "reservoir",
        "Geometric",
        0x76c7_03d9_6dae_4cf5,
        0xae98_55ef_6f1c_84fd,
    ),
    (
        "reservoir",
        "Deepen",
        0x2f52_b7fb_3bfa_d61d,
        0xae98_55ef_6f1c_84fd,
    ),
    (
        "stratified-ew-prop",
        "OneShot",
        0xb3ee_24cf_8685_40b0,
        0xa835_b3fe_abac_ce07,
    ),
    (
        "stratified-ew-prop",
        "Geometric",
        0x9b6a_b754_b7fc_3c87,
        0xa835_b3fe_abac_ce07,
    ),
    (
        "stratified-ew-prop",
        "Deepen",
        0x669c_a3d8_0767_3c48,
        0xa835_b3fe_abac_ce07,
    ),
    (
        "stratified-ed-neyman",
        "OneShot",
        0xd0c5_7aac_2ab3_b406,
        0x95b9_19f6_b7ca_c988,
    ),
    (
        "stratified-ed-neyman",
        "Geometric",
        0xf95f_fd74_6369_d4ec,
        0xda7f_049c_571a_4573,
    ),
    (
        "stratified-ed-neyman",
        "Deepen",
        0x82fd_ce72_8456_6754,
        0x95b9_19f6_b7ca_c988,
    ),
];

#[test]
fn sliced_stream_batches_equal_the_decoded_batches() {
    let t = mixed_table(2_500, 1024);
    let path = std::env::temp_dir().join(format!(
        "samplecf_differential_streams_{}.scf",
        std::process::id()
    ));
    let disk = DiskTable::materialize(&path, &t).unwrap();
    let codec = t.codec();
    let mut missing = Vec::new();
    for (name, full, shallow) in stream_kinds() {
        // The decoding oracle: the one-shot draw of the same kind,
        // materialized and decoded back to rows.
        let oracle = MaterializedSample::draw(&t, full, 97)
            .unwrap()
            .rows()
            .unwrap();
        let mut oracle_sorted: Vec<(Rid, Vec<u8>)> = oracle
            .iter()
            .map(|(rid, row)| (*rid, codec.encode(row).unwrap()))
            .collect();
        oracle_sorted.sort();
        let oneshot_pages = drive_stream(&t, full, shallow, Drive::OneShot).1;
        for drive in DRIVES {
            let mut digests = Vec::new();
            for (backend, source) in [("memory", &t as &dyn TableSource), ("disk", &disk)] {
                let tag = format!("{name}/{drive:?}/{backend}");
                let (batches, pages) = drive_stream(source, full, shallow, drive);
                let flat: Vec<(Rid, Vec<u8>)> = batches
                    .iter()
                    .flat_map(|(r, _)| r.iter().cloned())
                    .collect();
                match drive {
                    Drive::OneShot => {
                        // Rid for rid, in order, bytes == codec.encode(row).
                        assert_eq!(flat.len(), oracle.len(), "{tag}");
                        for ((rid, bytes), (orid, row)) in flat.iter().zip(&oracle) {
                            assert_eq!(rid, orid, "{tag}");
                            assert_eq!(bytes, &codec.encode(row).unwrap(), "{tag}");
                        }
                    }
                    Drive::Geometric | Drive::Deepen => {
                        let mut sorted = flat;
                        sorted.sort();
                        assert_eq!(sorted, oracle_sorted, "{tag}: same multiset");
                    }
                }
                // Page coalescing erases batch boundaries.
                assert_eq!(pages, oneshot_pages, "{tag}: pages read");
                digests.push((
                    digest_batches(&batches, pages),
                    digest_measurements(source, full, drive),
                ));
            }
            assert_eq!(digests[0], digests[1], "{name}/{drive:?}: disk == memory");
            let key = format!("{drive:?}");
            match GOLDEN_STREAMS
                .iter()
                .find(|(n, d, _, _)| *n == name && *d == key)
            {
                Some(&(_, _, batches, measures)) => {
                    assert_eq!(digests[0].0, batches, "{name}/{key}: batch digest");
                    assert_eq!(digests[0].1, measures, "{name}/{key}: CF digest");
                }
                None => missing.push(format!(
                    "    (\"{name}\", \"{key}\", {:#018x}, {:#018x}),",
                    digests[0].0, digests[0].1
                )),
            }
        }
    }
    drop(disk);
    let _ = std::fs::remove_file(&path);
    assert!(
        missing.is_empty(),
        "no golden digest for:\n{}",
        missing.join("\n")
    );
}

/// `ExactCf` measures the whole table through the record kernels; it must
/// equal the decoded-row oracle `measure_rows(scan_rows())` bit for bit.
#[test]
fn exact_cf_equals_the_decoded_full_scan() {
    let t = mixed_table(2_500, 1024);
    let path = std::env::temp_dir().join(format!(
        "samplecf_differential_exact_{}.scf",
        std::process::id()
    ));
    let disk = DiskTable::materialize(&path, &t).unwrap();
    let builder = IndexBuilder::new();
    for (backend, source) in [("memory", &t as &dyn TableSource), ("disk", &disk)] {
        let rows = source.scan_rows().unwrap();
        for spec in [
            IndexSpec::nonclustered("idx", ["a"]).unwrap(),
            IndexSpec::clustered("pk", ["b", "a"]).unwrap(),
        ] {
            for name in scheme_names() {
                let scheme = scheme_by_name(name).unwrap();
                let tag = format!("{backend}/{name}/{}", spec.name());
                let counting = samplecf_sampling::CountingSource::new(source);
                let exact = samplecf_core::ExactCf::new()
                    .compute(&counting, &spec, scheme.as_ref())
                    .unwrap();
                let oracle = measure_rows(
                    source.schema(),
                    &rows,
                    &spec,
                    scheme.as_ref(),
                    &builder,
                    "exact".to_string(),
                )
                .unwrap();
                assert_eq!(exact.cf.to_bits(), oracle.cf.to_bits(), "{tag}");
                assert_eq!(
                    exact.cf_with_pointers.to_bits(),
                    oracle.cf_with_pointers.to_bits(),
                    "{tag}"
                );
                assert_eq!(exact.cf_pages.to_bits(), oracle.cf_pages.to_bits(), "{tag}");
                assert_eq!(exact.data, oracle.data, "{tag}");
                assert_eq!(exact.report, oracle.report, "{tag}");
                assert_eq!(exact.sampler, oracle.sampler, "{tag}");
                // One read per page, nothing more.
                assert_eq!(counting.pages_read() as usize, source.num_pages(), "{tag}");
            }
        }
    }
    drop(disk);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Uniform-wor, Bernoulli and systematic draws, and the trial runner
// ---------------------------------------------------------------------------

/// The kinds whose draws were first pinned against the decoded-row
/// samplers: uniform without replacement and the two scan samplers.
fn row_path_kinds() -> [(&'static str, SamplerKind); 3] {
    [
        ("uniform-wor", SamplerKind::UniformWithoutReplacement(0.15)),
        ("bernoulli", SamplerKind::Bernoulli(0.15)),
        ("systematic", SamplerKind::Systematic(0.15)),
    ]
}

/// Every sampler kind, for the trial-runner digests.
fn all_kinds() -> [(&'static str, SamplerKind); 7] {
    [
        ("uniform", SamplerKind::UniformWithReplacement(0.15)),
        ("uniform-wor", SamplerKind::UniformWithoutReplacement(0.15)),
        ("bernoulli", SamplerKind::Bernoulli(0.15)),
        ("systematic", SamplerKind::Systematic(0.15)),
        ("reservoir", SamplerKind::Reservoir(150)),
        ("block", SamplerKind::Block(0.2)),
        (
            "stratified",
            SamplerKind::Stratified {
                fraction: 0.15,
                strata: 4,
                alloc: Allocation::Proportional,
                mode: StrataMode::EquiWidth,
            },
        ),
    ]
}

/// Digest of one materialized draw: every `(rid, record)` pair — in scan
/// order for the scan samplers, as a rid-sorted multiset for uniform-wor,
/// whose batch order is free — plus the pages read, except for uniform-wor.
/// Also returns the drawn rids and the pages read.
fn digest_draw(source: &dyn TableSource, name: &str, kind: SamplerKind) -> (u64, Vec<Rid>, u64) {
    let counting = samplecf_sampling::CountingSource::new(source);
    let sample = MaterializedSample::draw(&counting, kind, 97).unwrap();
    let pages = counting.pages_read();
    let mut records: Vec<(Rid, Vec<u8>)> = sample
        .records()
        .unwrap()
        .into_iter()
        .map(|(rid, rec)| (rid, rec.to_vec()))
        .collect();
    let unordered = name == "uniform-wor";
    if unordered {
        records.sort();
    }
    let mut h = Fnv::new();
    h.u64(records.len() as u64);
    for (rid, bytes) in &records {
        h.u64(u64::from(rid.page));
        h.u64(u64::from(rid.slot));
        h.u64(bytes.len() as u64);
        h.bytes(bytes);
    }
    if !unordered {
        h.u64(pages);
    }
    (
        h.0,
        records.into_iter().map(|(rid, _)| rid).collect(),
        pages,
    )
}

/// Digest of `SampleCf::estimate` under all six schemes and two specs:
/// CF bits and DataStats.
fn digest_estimates(source: &dyn TableSource, kind: SamplerKind) -> u64 {
    let mut h = Fnv::new();
    for spec in [
        IndexSpec::nonclustered("idx", ["a"]).unwrap(),
        IndexSpec::clustered("pk", ["b", "a"]).unwrap(),
    ] {
        for name in scheme_names() {
            let scheme = scheme_by_name(name).unwrap();
            let m = samplecf_core::SampleCf::new(kind)
                .seed(97)
                .estimate(source, &spec, scheme.as_ref())
                .unwrap();
            h.u64(m.cf.to_bits());
            h.u64(m.cf_with_pointers.to_bits());
            h.u64(m.cf_pages.to_bits());
            h.u64(m.data.rows as u64);
            h.u64(m.data.distinct_first_key as u64);
            h.u64(m.data.sum_logical_len_first_key as u64);
            h.u64(m.data.null_first_key as u64);
        }
    }
    h.0
}

/// Digest of `TrialRunner::run_estimates` (three trials) under all six
/// schemes: the estimate bits in trial order.
fn digest_trials(source: &dyn TableSource, kind: SamplerKind) -> u64 {
    use samplecf_core::{TrialConfig, TrialRunner};
    let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
    let runner = TrialRunner::new(TrialConfig::new(3).base_seed(11).threads(1));
    let mut h = Fnv::new();
    for name in scheme_names() {
        let scheme = scheme_by_name(name).unwrap();
        for cf in runner
            .run_estimates(source, &spec, scheme.as_ref(), kind)
            .unwrap()
        {
            h.u64(cf.to_bits());
        }
    }
    h.0
}

/// Digests captured from the decoded-row samplers (`sample` then
/// `measure_rows`) before these kinds drew through streams: the sample's
/// records, and the estimate's CF bits and DataStats under every scheme.
/// The stream draws must reproduce them exactly; only uniform-wor's pages
/// read changed (one read per distinct page instead of one per row), so
/// they stay out of its draw digest.
const GOLDEN_ROW_PATH: &[(&str, u64, u64)] = &[
    ("uniform-wor", 0x7db9_e19a_7957_8f35, 0x4c9b_8d54_4ee3_b698),
    ("bernoulli", 0x3c12_61d1_72a3_042a, 0x9acf_0b27_b689_c664),
    ("systematic", 0x8f48_e3fc_4ccb_4148, 0x347b_3b12_4f6c_7967),
];

/// Trial-runner digests for every kind, captured from the same path.
///
/// Stratified is the one deliberate change.  The row path measured a
/// stratified sample as if it were uniform (the pooled CF, digest
/// `0xee8c_b4ec_1c4d_f99d`), while `SampleCf::estimate` returns the
/// weighted per-stratum combination; trials now run `SampleCf::estimate`,
/// so every trial equals the one-shot estimate with its seed (asserted
/// below).
const GOLDEN_TRIALS: &[(&str, u64)] = &[
    ("uniform", 0xc223_8e2a_6190_2b16),
    ("uniform-wor", 0x248e_f28b_bf74_58a7),
    ("bernoulli", 0x7520_0859_ada9_b369),
    ("systematic", 0xe05c_0765_4819_1d5e),
    ("reservoir", 0xec1d_ad5f_ef42_92f4),
    ("block", 0x2c1b_6b92_b1e5_618f),
    ("stratified", 0x3a69_98fa_8766_7a49),
];

#[test]
fn row_path_kinds_keep_their_draws_and_estimates() {
    let t = mixed_table(2_500, 1024);
    let path = std::env::temp_dir().join(format!(
        "samplecf_differential_row_path_{}.scf",
        std::process::id()
    ));
    let disk = DiskTable::materialize(&path, &t).unwrap();
    let mut missing = Vec::new();
    for (name, kind) in row_path_kinds() {
        let mut digests = Vec::new();
        for source in [&t as &dyn TableSource, &disk] {
            let (draw, rids, pages) = digest_draw(source, name, kind);
            if name == "uniform-wor" {
                // One read per distinct page, not one per drawn row.
                let distinct: std::collections::HashSet<_> = rids.iter().map(|r| r.page).collect();
                assert_eq!(pages, distinct.len() as u64, "{name}: pages read");
            }
            digests.push((draw, digest_estimates(source, kind)));
        }
        assert_eq!(digests[0], digests[1], "{name}: disk == memory");
        match GOLDEN_ROW_PATH.iter().find(|(n, _, _)| *n == name) {
            Some(&(_, draw, estimates)) => {
                assert_eq!(digests[0].0, draw, "{name}: draw digest");
                assert_eq!(digests[0].1, estimates, "{name}: estimate digest");
            }
            None => missing.push(format!(
                "    (\"{name}\", {:#018x}, {:#018x}),",
                digests[0].0, digests[0].1
            )),
        }
    }
    for (name, kind) in all_kinds() {
        // Each trial is `SampleCf::estimate` at its own seed.
        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        let scheme = scheme_by_name("null-suppression").unwrap();
        let trials = samplecf_core::TrialRunner::new(
            samplecf_core::TrialConfig::new(3).base_seed(11).threads(1),
        )
        .run_estimates(&t, &spec, scheme.as_ref(), kind)
        .unwrap();
        for (i, cf) in trials.into_iter().enumerate() {
            let oneshot = samplecf_core::SampleCf::new(kind)
                .seed(11 + i as u64)
                .estimate(&t, &spec, scheme.as_ref())
                .unwrap();
            assert_eq!(cf.to_bits(), oneshot.cf.to_bits(), "{name}: trial {i}");
        }
        let memory = digest_trials(&t, kind);
        assert_eq!(memory, digest_trials(&disk, kind), "{name}: disk == memory");
        match GOLDEN_TRIALS.iter().find(|(n, _)| *n == name) {
            Some(&(_, trials)) => assert_eq!(memory, trials, "{name}: trial digest"),
            None => missing.push(format!("    (\"{name}\", {memory:#018x}),")),
        }
    }
    drop(disk);
    let _ = std::fs::remove_file(&path);
    assert!(
        missing.is_empty(),
        "no golden digest for:\n{}",
        missing.join("\n")
    );
}
