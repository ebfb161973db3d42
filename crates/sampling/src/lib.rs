//! # samplecf-sampling
//!
//! Sampling procedures for the SampleCF reproduction.
//!
//! The paper's estimator assumes **uniform row sampling with replacement**
//! ([`SamplerKind::UniformWithReplacement`]); commercial systems typically
//! use **block-level sampling** ([`SamplerKind::Block`]), which the paper
//! leaves to future work.  Both — plus without-replacement, Bernoulli,
//! systematic, reservoir and stratified variants — draw through one
//! interface, the [`SampleStream`] a [`SamplerKind`] builds, so the
//! estimator and the benchmark harness can swap them freely.
//!
//! Streams draw through the
//! [`TableSource`](samplecf_storage::TableSource) abstraction, so they run
//! unchanged over in-memory tables and disk-resident
//! [`DiskTable`](samplecf_storage::DiskTable)s — where a block sample
//! physically reads only the selected pages.  A batch is a [`RecordBatch`]:
//! the sampled records sliced, undecoded, out of the pages read.  Wrap any
//! source in [`CountingSource`] to measure exactly how many pages a
//! sampling procedure touches, and draw through [`MaterializedSample`] to
//! pay that I/O once and share the sample across many consumers (the
//! advisor's batch-estimation trick).
//!
//! A one-shot draw drains a stream under [`BatchSchedule::one_shot`].  For
//! **progressive estimation** the same draw arrives in geometrically
//! growing batches (see [`BatchSchedule`]), so a consumer can measure after
//! every batch and stop as soon as its error target is met — and a
//! [`MaterializedSample`] can be *deepened* in place via
//! [`MaterializedSample::extend_from_stream`] instead of redrawn.  The scan
//! samplers ([`ScanStream`]: reservoir, Bernoulli, systematic) read the
//! whole table on the first batch and cannot be deepened.
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_sampling::{MaterializedSample, SamplerKind};
//! use samplecf_storage::{Column, DataType, Row, Schema, TableBuilder, Value};
//!
//! let schema = Schema::new(vec![Column::new("a", DataType::Int64)])?;
//! let rows: Vec<Row> = (0..1_000).map(|i| Row::new(vec![Value::int(i)])).collect();
//! let table = TableBuilder::new("t", schema).build_with_rows(rows)?;
//!
//! // Draw a 10% uniform-with-replacement sample, as the paper's estimator does.
//! let sample = MaterializedSample::draw(&table, SamplerKind::UniformWithReplacement(0.1), 7)?;
//!
//! assert_eq!(sample.len(), 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod block;
pub mod error;
pub mod io;
pub mod kind;
pub mod materialize;
pub mod record;
pub mod reservoir;
pub mod sampler;
pub mod strata;
pub mod stratified;
pub mod stream;
pub mod uniform;

pub use block::BlockStream;
pub use error::{SamplingError, SamplingResult};
pub use io::CountingSource;
pub use kind::{Allocation, SamplerKind, StrataMode};
pub use materialize::MaterializedSample;
pub use record::RecordBatch;
pub use sampler::{target_page_count, target_size, validate_fraction, SampledRow};
pub use strata::Strata;
pub use stratified::StratifiedStream;
pub use stream::{
    fetch_positions_coalesced, BatchSchedule, IncrementalFisherYates, PageCache, SampleStream,
    ScanStream,
};
pub use uniform::UniformStream;

#[cfg(test)]
mod testing;
