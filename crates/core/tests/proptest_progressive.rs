//! Property-based parity tests for progressive estimation.
//!
//! The refactor's central promise: a `ProgressiveCf` run that stops at
//! exactly fraction `f` (early stopping disabled, cap at `f`) is
//! **byte-identical** — CF (all three variants), `DataStats`, the full
//! per-column report, and physical pages read — to the one-shot
//! `SampleCf` at `f`, for every streaming sampler, over both the
//! in-memory and the disk-backed table sources.  Prefix-stable streams
//! and the schedule-independent page-coalesced fetch are what make this
//! hold however the progressive run batches its draw.

use proptest::prelude::*;
use samplecf_compression::scheme_by_name;
use samplecf_core::{ProgressiveCf, ProgressiveConfig, SampleCf};
use samplecf_datagen::presets;
use samplecf_index::IndexSpec;
use samplecf_sampling::{
    Allocation, BatchSchedule, CountingSource, MaterializedSample, SamplerKind, StrataMode,
};
use samplecf_storage::{DiskTable, Table, TableSource};

/// A disk copy of `table` in a unique temp file, removed on drop.
struct TempDisk {
    path: std::path::PathBuf,
    disk: Option<DiskTable>,
}

impl TempDisk {
    fn materialize(table: &Table, tag: u64) -> TempDisk {
        let path = std::env::temp_dir().join(format!(
            "samplecf_proptest_prog_{}_{tag}.scf",
            std::process::id()
        ));
        let disk = DiskTable::materialize(&path, table).expect("materialisation succeeds");
        TempDisk {
            path,
            disk: Some(disk),
        }
    }

    fn source(&self) -> &dyn TableSource {
        self.disk.as_ref().expect("open")
    }
}

impl Drop for TempDisk {
    fn drop(&mut self) {
        self.disk = None;
        let _ = std::fs::remove_file(&self.path);
    }
}

proptest! {
    // Each case draws a table, materialises it to disk, and runs ten
    // estimator pairs (5 samplers x 2 backends): keep the case count
    // moderate so the suite stays in CI budget.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn progressive_at_fraction_f_is_byte_identical_to_one_shot(
        rows in 400usize..1600,
        distinct in 1usize..200,
        seed in 0u64..1000,
        // The vendored proptest only generates integer ranges; derive the
        // real-valued knobs from them.
        fraction_pct in 2u32..30,          // fraction in [0.02, 0.30)
        scheme_name in prop_oneof![
            Just("null-suppression"),
            Just("dictionary-global"),
            Just("rle"),
        ],
        initial_permille in 2u32..50,      // initial fraction in [0.002, 0.050)
        growth_tenths in 13u32..30,        // growth in [1.3, 3.0)
    ) {
        let fraction = f64::from(fraction_pct) / 100.0;
        let initial = f64::from(initial_permille) / 1000.0;
        let growth = f64::from(growth_tenths) / 10.0;
        let table = presets::variable_length_table("t", rows, 24, distinct, 4, 20, seed)
            .generate()
            .expect("generation succeeds")
            .table;
        let disk = TempDisk::materialize(&table, seed.wrapping_mul(31).wrapping_add(rows as u64));
        let spec = IndexSpec::nonclustered("idx_a", ["a"]).expect("valid spec");
        let scheme = scheme_by_name(scheme_name).expect("known scheme");
        let schedule = BatchSchedule::new(initial, growth).expect("valid schedule");

        let memory: &dyn TableSource = &table;
        let backends: [(&str, &dyn TableSource); 2] = [("memory", memory), ("disk", disk.source())];
        for (backend, source) in backends {
            for kind in [
                SamplerKind::UniformWithReplacement(fraction),
                SamplerKind::Block(fraction),
                SamplerKind::Reservoir((rows / 20).max(5)),
                // Proportional allocation ignores the variance feedback a
                // progressive run sends, so it too must match one-shot.
                SamplerKind::Stratified {
                    fraction,
                    strata: 4,
                    alloc: Allocation::Proportional,
                    mode: StrataMode::EquiWidth,
                },
                SamplerKind::Stratified {
                    fraction,
                    strata: 3,
                    alloc: Allocation::Proportional,
                    mode: StrataMode::EquiDepth,
                },
            ] {
                // One-shot draw at fraction f, pages counted.
                let oneshot_counting = CountingSource::new(source);
                let oneshot = SampleCf::new(kind)
                    .seed(seed)
                    .estimate(&oneshot_counting, &spec, scheme.as_ref())
                    .expect("one-shot estimate succeeds");
                let oneshot_pages = oneshot_counting.pages_read();

                // Progressive run: early stopping disabled, so it stops at
                // exactly fraction f — in several batches of the drawn
                // schedule, not one.
                let prog_counting = CountingSource::new(source);
                let progressive = ProgressiveCf::new(
                    kind,
                    ProgressiveConfig {
                        target_error: 0.0,
                        confidence: 0.95,
                        schedule,
                    },
                )
                .seed(seed)
                .run(&prog_counting, &spec, scheme.as_ref())
                .expect("progressive run succeeds");

                let tag = format!("{backend}/{kind:?}/{scheme_name}");
                prop_assert_eq!(progressive.measurement.cf, oneshot.cf, "cf: {}", &tag);
                prop_assert_eq!(
                    progressive.measurement.cf_with_pointers,
                    oneshot.cf_with_pointers,
                    "cf_with_pointers: {}",
                    &tag
                );
                prop_assert_eq!(
                    progressive.measurement.cf_pages,
                    oneshot.cf_pages,
                    "cf_pages: {}",
                    &tag
                );
                prop_assert_eq!(
                    &progressive.measurement.data,
                    &oneshot.data,
                    "data stats: {}",
                    &tag
                );
                prop_assert_eq!(
                    &progressive.measurement.report.per_column,
                    &oneshot.report.per_column,
                    "per-column report: {}",
                    &tag
                );
                prop_assert_eq!(
                    &progressive.measurement.sampler,
                    &oneshot.sampler,
                    "sampler label: {}",
                    &tag
                );
                prop_assert_eq!(
                    prog_counting.pages_read(),
                    oneshot_pages,
                    "pages read: {}",
                    &tag
                );
                prop_assert_eq!(progressive.pages_read, oneshot_pages, "report pages: {}", &tag);
            }
        }
    }

    #[test]
    fn disk_and_memory_backends_agree_seed_for_seed(
        rows in 400usize..1200,
        seed in 0u64..500,
        fraction_pct in 5u32..25,
    ) {
        let fraction = f64::from(fraction_pct) / 100.0;
        // The progressive path must stay backend-transparent, like the
        // one-shot path before it.
        let table = presets::variable_length_table("t", rows, 24, rows / 10, 4, 20, seed)
            .generate()
            .expect("generation succeeds")
            .table;
        let disk = TempDisk::materialize(&table, seed.wrapping_mul(17).wrapping_add(rows as u64));
        let spec = IndexSpec::nonclustered("idx_a", ["a"]).expect("valid spec");
        let scheme = scheme_by_name("null-suppression").expect("known scheme");
        let config = ProgressiveConfig {
            target_error: 0.1,
            ..ProgressiveConfig::default()
        };
        let kind = SamplerKind::UniformWithReplacement(fraction);
        let mem = ProgressiveCf::new(kind, config)
            .seed(seed)
            .run(&table, &spec, scheme.as_ref())
            .expect("memory run succeeds");
        let dsk = ProgressiveCf::new(kind, config)
            .seed(seed)
            .run(disk.source(), &spec, scheme.as_ref())
            .expect("disk run succeeds");
        prop_assert_eq!(mem.measurement.cf, dsk.measurement.cf);
        prop_assert_eq!(&mem.measurement.data, &dsk.measurement.data);
        prop_assert_eq!(mem.checkpoints.len(), dsk.checkpoints.len());
        prop_assert_eq!(mem.pages_read, dsk.pages_read);
        prop_assert_eq!(mem.target_met, dsk.target_met);
    }

    #[test]
    fn deepened_samples_equal_fresh_deeper_draws(
        rows in 400usize..1200,
        seed in 0u64..500,
        shallow_pct in 2u32..10,
        extra_pct in 1u32..15,
    ) {
        // Deepening a stream-backed sample appends the delta's records; the
        // result must hold exactly the records of a fresh draw at the deeper
        // fraction (as a multiset: batches are rid-sorted per step) and
        // cost exactly its pages, on both backends.
        let shallow_f = f64::from(shallow_pct) / 100.0;
        let deep_f = f64::from(shallow_pct + extra_pct) / 100.0;
        let table = presets::variable_length_table("t", rows, 24, rows / 7, 4, 20, seed)
            .generate()
            .expect("generation succeeds")
            .table;
        let disk = TempDisk::materialize(&table, seed.wrapping_mul(13).wrapping_add(rows as u64));
        let memory: &dyn TableSource = &table;
        let backends: [(&str, &dyn TableSource); 2] = [("memory", memory), ("disk", disk.source())];
        let stratified = |fraction| SamplerKind::Stratified {
            fraction,
            strata: 4,
            alloc: Allocation::Neyman,
            mode: StrataMode::EquiDepth,
        };
        for (backend, source) in backends {
            for (shallow, deep) in [
                (SamplerKind::UniformWithReplacement(shallow_f), SamplerKind::UniformWithReplacement(deep_f)),
                (SamplerKind::Block(shallow_f), SamplerKind::Block(deep_f)),
                (stratified(shallow_f), stratified(deep_f)),
            ] {
                let tag = format!("{backend}/{deep:?}");
                let counting = CountingSource::new(source);
                let mut stream = shallow.stream(BatchSchedule::one_shot()).expect("stream");
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
                let mut sample = MaterializedSample::from_stream(&counting, stream.as_mut(), &mut rng, seed)
                    .expect("shallow draw");
                prop_assert!(stream.extend_cap(deep), "{}", &tag);
                sample
                    .extend_from_stream(&counting, stream.as_mut(), &mut rng)
                    .expect("deepening succeeds");

                let fresh_counting = CountingSource::new(source);
                let fresh = MaterializedSample::draw(&fresh_counting, deep, seed).expect("fresh draw");
                prop_assert_eq!(counting.pages_read(), fresh_counting.pages_read(), "pages: {}", &tag);
                prop_assert_eq!(sample.kind(), deep);
                let tagged = |s: &MaterializedSample| {
                    let mut v: Vec<(samplecf_storage::Rid, Vec<u8>, u32)> = s
                        .records()
                        .expect("records")
                        .into_iter()
                        .zip(s.row_strata().iter().copied().chain(std::iter::repeat(0)))
                        .map(|((rid, rec), t)| (rid, rec.to_vec(), t))
                        .collect();
                    v.sort();
                    v
                };
                prop_assert_eq!(tagged(&sample), tagged(&fresh), "records: {}", &tag);
                prop_assert_eq!(sample.strata_weights(), fresh.strata_weights());
            }
        }
    }
}
