//! Criterion benchmarks for the timing claims in the paper's motivation:
//! SampleCF must be far cheaper than compressing the full index, and the cost
//! of the substrate operations (compression codecs, sampling, index build)
//! must scale the way the analysis assumes.
//!
//! Groups:
//! * `samplecf_vs_exact` — the headline comparison: estimating CF from a 1%
//!   sample vs. building and compressing the whole index.
//! * `progressive_vs_oneshot` — the sequential-estimation claim: an adaptive
//!   run with a 10% error target vs the fixed `f = 0.1` one-shot draw, on a
//!   low-variance table where early stopping pays and on a spread table
//!   where it must work for its answer.
//! * `compression_throughput` — per-scheme chunk compression cost.
//! * `sampling_throughput` — per-sampler cost of drawing a 1% sample.
//! * `index_build` — bulk-loading the B+-tree at several table sizes.
//! * `kernels` — the zero-copy measure path: sizing a sample index's
//!   compression without materialising it vs producing the bytes, and the
//!   borrowed-record bulk load vs the owned-row one.
//! * `bulkload` — the parallel radix bulk load at 1/2/4/all threads over
//!   the same borrowed records (byte-identical output at every count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use samplecf_bench::paper_table;
use samplecf_compression::{scheme_by_name, scheme_names, ColumnChunk, NullSuppression};
use samplecf_core::{ExactCf, ProgressiveCf, ProgressiveConfig, SampleCf};
use samplecf_datagen::presets;
use samplecf_index::{compress_index, measure_index, IndexBuilder, IndexSpec};
use samplecf_sampling::{BatchSchedule, MaterializedSample, SamplerKind};
use samplecf_storage::{DataType, Value};
use std::hint::black_box;

const WIDTH: u16 = 40;

fn spec() -> IndexSpec {
    IndexSpec::nonclustered("idx_a", ["a"]).expect("valid spec")
}

fn bench_samplecf_vs_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("samplecf_vs_exact");
    group.sample_size(10);
    for &n in &[20_000usize, 60_000] {
        let generated = paper_table(n, WIDTH, n / 10, 1);
        let table = generated.table;
        for scheme_name in ["null-suppression", "dictionary-paged"] {
            let scheme = scheme_by_name(scheme_name).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("exact/{scheme_name}"), n),
                &table,
                |b, t| {
                    b.iter(|| {
                        black_box(
                            ExactCf::new()
                                .compute(t, &spec(), scheme.as_ref())
                                .unwrap()
                                .cf,
                        )
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("samplecf_1pct/{scheme_name}"), n),
                &table,
                |b, t| {
                    b.iter(|| {
                        black_box(
                            SampleCf::with_fraction(0.01)
                                .seed(7)
                                .estimate(t, &spec(), scheme.as_ref())
                                .unwrap()
                                .cf,
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_progressive_vs_oneshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("progressive_vs_oneshot");
    group.sample_size(10);
    let tables = [
        (
            "all_equal",
            presets::constant_table("const", 60_000, 24, 8, 1)
                .generate()
                .expect("generation succeeds")
                .table,
        ),
        (
            "spread",
            presets::variable_length_table("spread", 60_000, WIDTH, 6_000, 4, 36, 2)
                .generate()
                .expect("generation succeeds")
                .table,
        ),
    ];
    for (label, table) in &tables {
        group.bench_with_input(BenchmarkId::new("oneshot_f10pct", label), table, |b, t| {
            b.iter(|| {
                black_box(
                    SampleCf::new(SamplerKind::UniformWithReplacement(0.1))
                        .seed(7)
                        .estimate(t, &spec(), &NullSuppression)
                        .unwrap()
                        .cf,
                )
            });
        });
        group.bench_with_input(
            BenchmarkId::new("adaptive_target10pct", label),
            table,
            |b, t| {
                b.iter(|| {
                    black_box(
                        ProgressiveCf::new(
                            SamplerKind::UniformWithReplacement(0.1),
                            ProgressiveConfig::default(),
                        )
                        .seed(7)
                        .run(t, &spec(), &NullSuppression)
                        .unwrap()
                        .measurement
                        .cf,
                    )
                });
            },
        );
    }
    group.finish();
}

fn bench_compression_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("compression_throughput");
    let values: Vec<Value> = (0..2_000)
        .map(|i| Value::str(format!("value-{:06}", i % 200)))
        .collect();
    let chunk = ColumnChunk::new(DataType::Char(WIDTH), values).unwrap();
    group.throughput(Throughput::Bytes(chunk.uncompressed_bytes() as u64));
    for name in scheme_names() {
        let scheme = scheme_by_name(name).unwrap();
        group.bench_function(BenchmarkId::new("compress_chunk", name), |b| {
            b.iter(|| black_box(scheme.compress_chunk(&chunk).unwrap().compressed_bytes()));
        });
        let compressed = scheme.compress_chunk(&chunk).unwrap();
        group.bench_function(BenchmarkId::new("decompress_chunk", name), |b| {
            b.iter(|| {
                black_box(
                    scheme
                        .decompress_chunk(&compressed, DataType::Char(WIDTH))
                        .unwrap()
                        .len(),
                )
            });
        });
    }
    group.finish();
}

fn bench_sampling_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling_throughput");
    group.sample_size(20);
    let generated = paper_table(100_000, WIDTH, 5_000, 2);
    let table = generated.table;
    let kinds = [
        SamplerKind::UniformWithReplacement(0.01),
        SamplerKind::UniformWithoutReplacement(0.01),
        SamplerKind::Bernoulli(0.01),
        SamplerKind::Systematic(0.01),
        SamplerKind::Reservoir(1_000),
        SamplerKind::Block(0.01),
    ];
    for kind in kinds {
        group.bench_function(
            BenchmarkId::new("sample_1pct_of_100k", kind.family()),
            |b| {
                b.iter(|| {
                    use rand::SeedableRng;
                    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
                    let mut stream = kind.stream(BatchSchedule::one_shot()).unwrap();
                    black_box(stream.next_batch(&table, &mut rng).unwrap().len())
                });
            },
        );
    }
    group.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for &n in &[10_000usize, 50_000] {
        let generated = paper_table(n, WIDTH, n / 10, 3);
        let table = generated.table;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("bulk_load_nonclustered", n),
            &table,
            |b, t| {
                b.iter(|| {
                    black_box(
                        IndexBuilder::new()
                            .build_from_table(t, &spec())
                            .unwrap()
                            .num_leaf_pages(),
                    )
                });
            },
        );
    }
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);
    let n = 40_000;
    let table = presets::variable_length_table("kern", n, WIDTH, n / 50, 4, 36, 9)
        .generate()
        .expect("generation succeeds")
        .table;
    let sample = MaterializedSample::draw(&table, SamplerKind::UniformWithReplacement(0.25), 41)
        .expect("sampling succeeds");
    let schema = sample.table().schema();
    let builder = IndexBuilder::new();
    let records = sample.records().expect("borrowing the sample succeeds");
    let index = builder
        .build_from_records(schema, &records, &spec())
        .expect("record build succeeds");
    group.throughput(Throughput::Elements(sample.table().num_rows() as u64));
    for name in ["null-suppression", "dictionary-paged", "rle"] {
        let scheme = scheme_by_name(name).unwrap();
        group.bench_function(BenchmarkId::new("compress_index", name), |b| {
            b.iter(|| {
                black_box(
                    compress_index(&index, scheme.as_ref())
                        .unwrap()
                        .compressed_data_bytes(),
                )
            });
        });
        group.bench_function(BenchmarkId::new("measure_index", name), |b| {
            b.iter(|| {
                black_box(
                    measure_index(&index, scheme.as_ref())
                        .unwrap()
                        .compressed_data_bytes(),
                )
            });
        });
    }
    group.bench_function("build_from_rows", |b| {
        b.iter(|| {
            let rows = sample.rows().unwrap();
            black_box(
                IndexBuilder::new()
                    .build_from_rows(schema, &rows, &spec())
                    .unwrap()
                    .num_leaf_pages(),
            )
        });
    });
    group.bench_function("build_from_records", |b| {
        b.iter(|| {
            let records = sample.records().unwrap();
            black_box(
                IndexBuilder::new()
                    .build_from_records(schema, &records, &spec())
                    .unwrap()
                    .num_leaf_pages(),
            )
        });
    });
    group.finish();
}

fn bench_bulkload(c: &mut Criterion) {
    let mut group = c.benchmark_group("bulkload");
    group.sample_size(20);
    let n = 40_000;
    let table = presets::variable_length_table("bulk", n, WIDTH, n / 50, 4, 36, 9)
        .generate()
        .expect("generation succeeds")
        .table;
    let sample = MaterializedSample::draw(&table, SamplerKind::UniformWithReplacement(0.5), 41)
        .expect("sampling succeeds");
    let schema = sample.table().schema();
    let records = sample.records().expect("borrowing the sample succeeds");
    group.throughput(Throughput::Elements(records.len() as u64));
    // 0 = all cores; every variant produces byte-identical trees, so the
    // comparison is pure build throughput.
    for threads in [1usize, 2, 4, 0] {
        let builder = IndexBuilder::new().threads(threads);
        group.bench_function(BenchmarkId::new("radix_build", threads), |b| {
            b.iter(|| {
                black_box(
                    builder
                        .build_from_records(schema, &records, &spec())
                        .unwrap()
                        .num_leaf_pages(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_samplecf_vs_exact,
    bench_progressive_vs_oneshot,
    bench_compression_throughput,
    bench_sampling_throughput,
    bench_index_build,
    bench_kernels,
    bench_bulkload
);
criterion_main!(benches);
