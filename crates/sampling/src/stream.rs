//! Streaming samplers: batch-extendable draws for progressive estimation.
//!
//! Every [`SamplerKind`] draws through a [`SampleStream`].  A one-shot draw
//! is a stream drained under [`BatchSchedule::one_shot`]; a progressive
//! consumer drains the *same* draw in growing batches instead, measuring
//! after every batch and stopping as soon as its accuracy target is met
//! (the sequential-estimation workflow of Nirkhiwale et al.'s sampling
//! algebra).  The contract that makes this lossless is **prefix
//! stability**: stopping a stream after it has drawn `r` rows yields
//! exactly the rows (and, for page-coalesced draws, exactly the physical
//! page reads) of a one-shot draw of `r` rows with the same seed.  The
//! estimator's fixed-fraction parity tests pin this bit-for-bit.
//!
//! Prefix stability holds per sampler for different reasons:
//!
//! * **Uniform with replacement** draws row positions one RNG call at a
//!   time, so any prefix of the position sequence is itself a uniform draw.
//!   **Uniform without replacement** takes its positions from an
//!   [`IncrementalFisherYates`] shuffle over the rid frame, whose first `k`
//!   elements are a uniform draw of `k` distinct rows.  Both
//!   ([`UniformStream`]) slice their records page-coalesced out of a
//!   per-stream [page cache], so the pages physically read are the
//!   distinct pages of the rows drawn so far — independent of how the draw
//!   was split into batches.
//! * **Block sampling** selects pages by partial Fisher–Yates, which
//!   consumes exactly one RNG call per selected page; the first `k` pages
//!   of a longer selection equal a selection of `k` pages
//!   ([`IncrementalFisherYates`] replays the same sequence incrementally).
//! * **Reservoir, Bernoulli and systematic sampling** are scans
//!   ([`ScanStream`]): the sample is only final once every page has been
//!   read, so the stream pays the whole scan on the first batch.  A
//!   reservoir is then emitted in slices; a Bernoulli or systematic draw
//!   comes out as one batch, because a scan-order prefix of it is not a
//!   uniform sub-sample.  Progressive stopping saves no I/O for scan-based
//!   samplers.
//!
//! Batch boundaries come from a [`BatchSchedule`] fixed at construction:
//! geometrically growing row targets capped at the sampler's fraction (or
//! reservoir capacity).  Because the schedule is part of the stream, two
//! consumers that construct the same stream see identical batches — which
//! is what lets `SampleCf::estimate` (one checkpoint) and `ProgressiveCf`
//! (many checkpoints) share one code path and still agree byte-for-byte.
//!
//! [page cache]: PageCache

use crate::block::BlockStream;
use crate::error::{SamplingError, SamplingResult};
use crate::kind::SamplerKind;
use crate::record::RecordBatch;
use crate::reservoir::reservoir;
use crate::sampler::{target_size, validate_fraction};
use crate::uniform::{bernoulli, systematic, UniformStream};
use rand::{Rng, RngCore};
use samplecf_storage::{Page, PageId, Rid, TableSource};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The geometric batch schedule of a stream: the first batch targets
/// `initial_fraction` of the table's rows and every later batch grows the
/// cumulative target by `growth` until the stream's cap is reached.
///
/// The schedule is expressed in fractions of the *table*, not of the cap, so
/// `--initial-fraction 0.01` means the same thing for every sampler.  The
/// final target always lands exactly on the cap, which is what makes a
/// fully-consumed stream identical to a one-shot draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSchedule {
    /// Fraction of the table the first batch targets.
    pub initial_fraction: f64,
    /// Geometric growth factor of the cumulative target (must be > 1).
    pub growth: f64,
}

impl Default for BatchSchedule {
    fn default() -> Self {
        BatchSchedule {
            initial_fraction: 0.01,
            growth: 2.0,
        }
    }
}

impl BatchSchedule {
    /// Create a schedule, validating its parameters.
    pub fn new(initial_fraction: f64, growth: f64) -> SamplingResult<Self> {
        validate_fraction(initial_fraction)?;
        if !(growth > 1.0 && growth.is_finite()) {
            return Err(SamplingError::InvalidSize(format!(
                "batch growth factor must be > 1, got {growth}"
            )));
        }
        Ok(BatchSchedule {
            initial_fraction,
            growth,
        })
    }

    /// A schedule whose first batch already covers the whole cap — the
    /// degenerate single-batch case `SampleCf::estimate` uses.
    #[must_use]
    pub fn one_shot() -> Self {
        BatchSchedule {
            initial_fraction: 1.0,
            growth: 2.0,
        }
    }

    /// Cumulative unit targets (rows or pages) for a frame of `n` units and
    /// a cap of `max_units`: strictly increasing, ending exactly at
    /// `max_units`.  Empty when the cap is zero.
    #[must_use]
    pub fn cumulative_targets(&self, n: usize, max_units: usize) -> Vec<usize> {
        if max_units == 0 {
            return Vec::new();
        }
        let mut targets = Vec::new();
        let mut t = target_size(n, self.initial_fraction).clamp(1, max_units);
        loop {
            targets.push(t);
            if t >= max_units {
                return targets;
            }
            // Grow geometrically, always making progress, never overshooting.
            t = (((t as f64) * self.growth).ceil() as usize).clamp(t + 1, max_units);
        }
    }
}

/// A batch-extendable sample draw (see the module docs for the prefix
/// stability contract).
///
/// `Send + Sync` so that holders (the advisor's sample cache) can still be
/// shared across evaluation threads; drawing itself requires `&mut self`.
pub trait SampleStream: Send + Sync {
    /// The sampler configuration this stream draws for, with its *current*
    /// cap (deepening via [`extend_cap`](Self::extend_cap) updates it).
    fn kind(&self) -> SamplerKind;

    /// Draw the next batch of rows, as encoded records sliced out of
    /// their pages (nothing is decoded).  Returns an empty batch once the
    /// stream has reached its cap.  The same `source` and a deterministic
    /// `rng` must be passed on every call.
    fn next_batch(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<RecordBatch>;

    /// Total rows drawn so far (duplicates counted).
    fn rows_drawn(&self) -> usize;

    /// Whether the stream has reached its cap.  `false` for a stream that
    /// has not drawn anything yet (the cap is only known once the stream
    /// has seen the source).
    fn exhausted(&self) -> bool;

    /// Raise the stream's cap to a deeper configuration of the same
    /// sampler family, so further `next_batch` calls extend the existing
    /// draw instead of redrawing.  Returns `false` when the stream cannot
    /// be deepened (different family, shallower target, or a scan-based
    /// sampler whose draw is already complete).
    ///
    /// Extending to the stream's own [`kind`](Self::kind) never changes the
    /// draw, so `extend_cap(stream.kind())` asks whether the stream can
    /// grow at all.
    fn extend_cap(&mut self, kind: SamplerKind) -> bool;

    /// Approximate bytes of state this stream retains between batches
    /// (rid frames, cached pages at their full page size, a held-back
    /// reservoir's records).  Holders with a memory budget (the server's
    /// sample cache) charge this against the entry; dropping the stream
    /// releases it.  The default is for streams that retain nothing worth
    /// counting.
    fn approx_retained_bytes(&self) -> usize {
        0
    }

    /// Per-row stratum tags of the batch most recently returned by
    /// [`next_batch`](Self::next_batch), aligned index-for-index with its
    /// rows.  `None` for unstratified streams (a single implicit stratum).
    fn batch_strata(&self) -> Option<&[u32]> {
        None
    }

    /// Population weights `W_s = N_s/N` of the stream's strata, in tag
    /// order.  `None` for unstratified streams, or before the stream has
    /// bound its source.
    fn strata_weights(&self) -> Option<Vec<f64>> {
        None
    }

    /// Feed per-stratum standard-deviation estimates back into the stream
    /// so a variance-aware allocation (Neyman) can re-split the remaining
    /// budget.  A no-op for unstratified streams and for allocations that
    /// ignore variance.  **Feeding back makes later batches depend on when
    /// the feedback happened** — callers that need schedule-independent
    /// draws (the sample caches) simply never call this.
    fn update_stratum_variances(&mut self, sds: &[f64]) {
        let _ = sds;
    }
}

impl std::fmt::Debug for dyn SampleStream + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SampleStream({}, {} rows drawn)",
            self.kind().label(),
            self.rows_drawn()
        )
    }
}

impl SamplerKind {
    /// The sampler family name, without parameters — the part of the
    /// identity that survives deepening.
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            SamplerKind::UniformWithReplacement(_) => "uniform-wr",
            SamplerKind::UniformWithoutReplacement(_) => "uniform-wor",
            SamplerKind::Bernoulli(_) => "bernoulli",
            SamplerKind::Systematic(_) => "systematic",
            SamplerKind::Reservoir(_) => "reservoir",
            SamplerKind::Block(_) => "block",
            SamplerKind::Stratified { .. } => "stratified",
        }
    }

    /// The sampling fraction, for fraction-parameterised kinds.
    #[must_use]
    pub fn fraction(&self) -> Option<f64> {
        match *self {
            SamplerKind::UniformWithReplacement(f)
            | SamplerKind::UniformWithoutReplacement(f)
            | SamplerKind::Bernoulli(f)
            | SamplerKind::Systematic(f)
            | SamplerKind::Block(f)
            | SamplerKind::Stratified { fraction: f, .. } => Some(f),
            SamplerKind::Reservoir(_) => None,
        }
    }

    /// Create a streaming draw for this sampler kind with the given batch
    /// schedule.  Fails, without touching any data, when the kind's
    /// parameters are invalid (a fraction outside (0, 1], a zero reservoir
    /// size or stratum count) — which is how callers validate a kind.
    pub fn stream(&self, schedule: BatchSchedule) -> SamplingResult<Box<dyn SampleStream>> {
        Ok(match *self {
            SamplerKind::UniformWithReplacement(f) => {
                Box::new(UniformStream::with_replacement(f, schedule)?)
            }
            SamplerKind::UniformWithoutReplacement(f) => {
                Box::new(UniformStream::without_replacement(f, schedule)?)
            }
            SamplerKind::Block(f) => Box::new(BlockStream::new(f, schedule)?),
            SamplerKind::Reservoir(_) | SamplerKind::Bernoulli(_) | SamplerKind::Systematic(_) => {
                Box::new(ScanStream::new(*self, schedule)?)
            }
            SamplerKind::Stratified {
                fraction,
                strata,
                alloc,
                mode,
            } => Box::new(crate::stratified::StratifiedStream::new(
                fraction, strata, alloc, mode, schedule,
            )?),
        })
    }
}

/// A per-stream cache of pages, keyed by page id.
///
/// Record fetches coalesce through it: the first record needed from a page
/// pays one physical [`read_page_ref`](TableSource::read_page_ref), every
/// later record on that page is sliced out of the cached copy for free.
/// The cache keeps the [`Page`] the read produced — nothing is decoded,
/// and a disk read's owned page is moved in without a copy (an in-memory
/// source's borrowed page is cloned, since the cache outlives the borrow).
/// Holding pages trades memory (one page per distinct page the sample
/// touches) for schedule-independent I/O — the poor man's buffer pool that
/// makes the pages-read count of a draw depend only on *which* rows were
/// drawn, not on how the draw was batched.
#[derive(Debug, Default)]
pub struct PageCache {
    pages: HashMap<PageId, Page>,
}

impl PageCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pages cached (== physical reads paid so far).
    #[must_use]
    pub fn pages_cached(&self) -> usize {
        self.pages.len()
    }

    /// Bytes held: every cached page at its full page size — the unit a
    /// memory-budgeted holder prices this cache in.
    #[must_use]
    pub fn bytes_cached(&self) -> usize {
        self.pages.values().map(Page::page_size).sum()
    }

    /// The encoded record at `rid`, reading (and caching) its page on
    /// first use.
    pub fn get(&mut self, source: &dyn TableSource, rid: Rid) -> SamplingResult<&[u8]> {
        let page = match self.pages.entry(rid.page) {
            Entry::Occupied(cached) => cached.into_mut(),
            Entry::Vacant(slot) => slot.insert(source.read_page_ref(rid.page)?.into_owned()),
        };
        Ok(page.get(rid.slot)?)
    }
}

/// Append the records at the given positions of the RID frame to `out`,
/// sorted by RID and page-coalesced through `cache`.
///
/// The records come in RID order (duplicates adjacent) rather than draw
/// order — an order the estimator is insensitive to, since the index bulk
/// load re-sorts by key anyway — and each distinct page costs exactly one
/// physical read, however many drawn rows land on it.  Only the selected
/// records are copied out of their pages.
pub fn fetch_positions_coalesced(
    source: &dyn TableSource,
    rids: &[Rid],
    positions: &[usize],
    cache: &mut PageCache,
    out: &mut RecordBatch,
) -> SamplingResult<()> {
    let mut sorted: Vec<usize> = positions.to_vec();
    sorted.sort_unstable();
    for p in sorted {
        let rid = rids[p];
        out.push(rid, cache.get(source, rid)?);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Incremental Fisher–Yates
// ---------------------------------------------------------------------------

/// An incremental partial Fisher–Yates shuffle over `0..length`.
///
/// [`next`](Self::next) consumes exactly one `gen_range(i..length)` call per
/// element, and the sequence it produces is identical to
/// `rand::seq::index::sample(rng, length, amount)` for every `amount` — the
/// prefix-stability property the block and uniform-wor streams rely on.
/// Only displaced slots are tracked, so memory is proportional to the
/// elements drawn.
#[derive(Debug)]
pub struct IncrementalFisherYates {
    pub(crate) length: usize,
    next_index: usize,
    swaps: HashMap<usize, usize>,
}

impl IncrementalFisherYates {
    /// A shuffle over `0..length`.
    #[must_use]
    pub fn new(length: usize) -> Self {
        IncrementalFisherYates {
            length,
            next_index: 0,
            swaps: HashMap::new(),
        }
    }

    /// Elements drawn so far.
    #[must_use]
    pub fn drawn(&self) -> usize {
        self.next_index
    }

    /// Bytes of displaced-slot state: two words per element drawn.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.next_index * 2 * std::mem::size_of::<usize>()
    }

    /// Draw the next element of the shuffle; `None` once all `length`
    /// elements are out.
    pub fn next(&mut self, rng: &mut dyn RngCore) -> Option<usize> {
        let i = self.next_index;
        if i >= self.length {
            return None;
        }
        let j = rng.gen_range(i..self.length);
        let picked = self.swaps.get(&j).copied().unwrap_or(j);
        let displaced = self.swaps.get(&i).copied().unwrap_or(i);
        self.swaps.insert(j, displaced);
        self.next_index += 1;
        Some(picked)
    }
}

// ---------------------------------------------------------------------------
// Scan sampling
// ---------------------------------------------------------------------------

/// Streaming draw for the scan samplers: reservoir, Bernoulli and
/// systematic.
///
/// All three decide a row's membership while reading the table once, page
/// by page in storage order, so none of them knows its sample before the
/// last page is read.  The stream therefore runs the whole scan on its
/// first batch — slicing only the kept records out of each page, decoding
/// nothing — and then emits the finished draw.  A reservoir
/// ([`reservoir`](crate::reservoir)) is emitted in slices on the stream's
/// row schedule.  A Bernoulli or systematic draw ([`uniform`](crate::uniform))
/// comes out as **one** batch: a scan-order prefix of it covers only the
/// leading pages, which is not a uniform sub-sample, so offering it as a
/// checkpoint would bias a progressive estimate.  No scan stream can be
/// deepened: the rows a larger draw would have kept were never recorded.
pub struct ScanStream {
    kind: SamplerKind,
    schedule: BatchSchedule,
    /// Bound on first use: (the finished draw, cumulative row targets).
    drawn: Option<(RecordBatch, Vec<usize>)>,
    next_target: usize,
    emitted: usize,
}

impl ScanStream {
    /// Create a stream for a reservoir, Bernoulli or systematic `kind`,
    /// validating its parameters.
    pub fn new(kind: SamplerKind, schedule: BatchSchedule) -> SamplingResult<Self> {
        match kind {
            SamplerKind::Reservoir(0) => {
                return Err(SamplingError::InvalidSize(
                    "reservoir size must be at least 1".to_string(),
                ))
            }
            SamplerKind::Reservoir(_) => {}
            SamplerKind::Bernoulli(f) | SamplerKind::Systematic(f) => {
                validate_fraction(f)?;
            }
            other => return Err(not_a_scan(other)),
        }
        Ok(ScanStream {
            kind,
            schedule,
            drawn: None,
            next_target: 0,
            emitted: 0,
        })
    }
}

fn not_a_scan(kind: SamplerKind) -> SamplingError {
    SamplingError::InvalidSize(format!("{} is not a scan sampler", kind.label()))
}

impl SampleStream for ScanStream {
    fn kind(&self) -> SamplerKind {
        self.kind
    }

    fn next_batch(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<RecordBatch> {
        if self.drawn.is_none() {
            let (rows, schedule) = match self.kind {
                SamplerKind::Reservoir(size) => (reservoir(source, size, rng)?, self.schedule),
                SamplerKind::Bernoulli(p) => {
                    (bernoulli(source, p, rng)?, BatchSchedule::one_shot())
                }
                SamplerKind::Systematic(f) => {
                    (systematic(source, f, rng)?, BatchSchedule::one_shot())
                }
                other => return Err(not_a_scan(other)),
            };
            let targets = schedule.cumulative_targets(source.num_rows(), rows.len());
            self.drawn = Some((rows, targets));
        }
        let (rows, targets) = self.drawn.as_mut().expect("draw bound above");
        let Some(&target) = targets.get(self.next_target) else {
            return Ok(RecordBatch::new());
        };
        // A draw emitted as one batch moves out instead of being copied.
        let batch = if self.emitted == 0 && target == rows.len() {
            std::mem::take(rows)
        } else {
            rows.slice(self.emitted..target)
        };
        self.emitted = target;
        self.next_target += 1;
        Ok(batch)
    }

    fn rows_drawn(&self) -> usize {
        self.emitted
    }

    fn exhausted(&self) -> bool {
        self.drawn
            .as_ref()
            .is_some_and(|(_, targets)| self.next_target >= targets.len())
    }

    fn extend_cap(&mut self, _kind: SamplerKind) -> bool {
        // A finished scan cannot grow losslessly: the rows a larger draw
        // would have kept were passed over.  Callers must redraw.
        false
    }

    fn approx_retained_bytes(&self) -> usize {
        // The finished draw is held until emitted.
        self.drawn
            .as_ref()
            .map_or(0, |(rows, _)| rows.approx_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::target_page_count;
    use crate::testing::{decoded, drain, one_shot, sorted, table};
    use rand::rngs::StdRng;
    use rand::seq::index;
    use rand::SeedableRng;
    use samplecf_storage::CountingSource;

    const UNIFORM: [fn(f64) -> SamplerKind; 2] = [
        SamplerKind::UniformWithReplacement,
        SamplerKind::UniformWithoutReplacement,
    ];

    #[test]
    fn schedule_targets_grow_geometrically_and_land_on_the_cap() {
        let s = BatchSchedule::new(0.01, 2.0).unwrap();
        assert_eq!(s.cumulative_targets(1000, 100), vec![10, 20, 40, 80, 100]);
        // Tiny tables: one row first, always progress, exact landing.
        assert_eq!(s.cumulative_targets(100, 3), vec![1, 2, 3]);
        // Empty cap: nothing to draw.
        assert!(s.cumulative_targets(0, 0).is_empty());
        // One-shot schedule is a single batch.
        assert_eq!(
            BatchSchedule::one_shot().cumulative_targets(1000, 77),
            vec![77]
        );
    }

    #[test]
    fn schedule_rejects_bad_parameters() {
        assert!(BatchSchedule::new(0.0, 2.0).is_err());
        assert!(BatchSchedule::new(0.1, 1.0).is_err());
        assert!(BatchSchedule::new(0.1, f64::NAN).is_err());
    }

    #[test]
    fn incremental_fisher_yates_matches_vendor_index_sample_prefixes() {
        // The property the block and uniform-wor streams' parity rests on:
        // for any amount, index::sample equals the first `amount` draws of
        // the incremental shuffle with the same seed.
        for length in [10usize, 100, 1000] {
            for amount in [1usize, 3, 7, length / 2, length] {
                let oneshot =
                    index::sample(&mut StdRng::seed_from_u64(9), length, amount).into_vec();
                let mut fy = IncrementalFisherYates::new(length);
                let mut rng = StdRng::seed_from_u64(9);
                let incremental: Vec<usize> =
                    (0..amount).map(|_| fy.next(&mut rng).unwrap()).collect();
                assert_eq!(incremental, oneshot, "length={length} amount={amount}");
            }
        }
    }

    #[test]
    fn uniform_stream_drains_to_the_one_shot_multiset() {
        let t = table(2_000);
        for uniform in UNIFORM {
            let kind = uniform(0.1);
            let oneshot = one_shot(&t, kind, 5);
            let mut stream = kind.stream(BatchSchedule::default()).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            let batches = drain(stream.as_mut(), &t, &mut rng);
            assert!(batches.len() > 1, "expected several geometric batches");
            let drained = decoded(&batches, &t);
            assert_eq!(drained.len(), 200);
            assert_eq!(stream.rows_drawn(), 200);
            assert!(stream.exhausted());
            assert_eq!(sorted(drained), sorted(oneshot), "{kind:?}");
            // A drained stream keeps returning empty batches.
            assert!(stream.next_batch(&t, &mut rng).unwrap().is_empty());
        }
    }

    #[test]
    fn uniform_stream_page_reads_are_schedule_independent() {
        let t = table(3_000);
        for uniform in UNIFORM {
            let mut pages = Vec::new();
            for schedule in [
                BatchSchedule::one_shot(),
                BatchSchedule::default(),
                BatchSchedule::new(0.001, 1.3).unwrap(),
            ] {
                let counting = CountingSource::new(&t);
                let mut stream = uniform(0.05).stream(schedule).unwrap();
                let mut rng = StdRng::seed_from_u64(3);
                drain(stream.as_mut(), &counting, &mut rng);
                pages.push(counting.pages_read());
            }
            assert_eq!(pages[0], pages[1], "page cache must erase batch boundaries");
            assert_eq!(pages[0], pages[2]);
        }
    }

    #[test]
    fn block_stream_selects_the_one_shot_page_set() {
        let t = table(4_000);
        let kind = SamplerKind::Block(0.25);
        let count = target_page_count(t.num_pages(), 0.25);
        let mut oneshot_ids: Vec<PageId> =
            index::sample(&mut StdRng::seed_from_u64(11), t.num_pages(), count)
                .into_iter()
                .map(|p| p as PageId)
                .collect();
        oneshot_ids.sort_unstable();
        let counting = CountingSource::new(&t);
        let mut stream = kind.stream(BatchSchedule::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let batches = drain(stream.as_mut(), &counting, &mut rng);
        assert!(batches.len() > 1);
        let mut pages: Vec<PageId> = batches
            .iter()
            .flat_map(RecordBatch::iter)
            .map(|(rid, _)| rid.page)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        pages.sort_unstable();
        assert_eq!(pages, oneshot_ids);
        assert_eq!(counting.pages_read() as usize, oneshot_ids.len());
    }

    #[test]
    fn extending_the_cap_continues_the_draw_prefix() {
        let t = table(2_000);
        for uniform in UNIFORM {
            // Stream A: draw at 5%, then deepen to 15% and drain.
            let mut a = uniform(0.05).stream(BatchSchedule::one_shot()).unwrap();
            let mut rng_a = StdRng::seed_from_u64(7);
            let mut rows_a = decoded(&drain(a.as_mut(), &t, &mut rng_a), &t);
            assert_eq!(rows_a.len(), 100);
            assert!(a.extend_cap(uniform(0.15)));
            assert_eq!(a.kind(), uniform(0.15));
            rows_a.extend(decoded(&drain(a.as_mut(), &t, &mut rng_a), &t));
            // Stream B: a fresh draw straight at 15%.
            let rows_b = one_shot(&t, uniform(0.15), 7);
            assert_eq!(rows_a.len(), rows_b.len());
            assert_eq!(
                sorted(rows_a),
                sorted(rows_b),
                "deepening == fresh deeper draw"
            );
            // Deepening rejects a different family or a shallower fraction.
            assert!(!a.extend_cap(SamplerKind::Block(0.5)));
            assert!(!a.extend_cap(uniform(0.01)));
        }
        let mut wr = SamplerKind::UniformWithReplacement(0.05)
            .stream(BatchSchedule::one_shot())
            .unwrap();
        assert!(!wr.extend_cap(SamplerKind::UniformWithoutReplacement(0.5)));
    }

    #[test]
    fn extending_to_the_own_kind_reports_whether_a_stream_can_grow() {
        let t = table(1_000);
        let stratified = SamplerKind::Stratified {
            fraction: 0.1,
            strata: 4,
            alloc: crate::kind::Allocation::Neyman,
            mode: crate::kind::StrataMode::EquiWidth,
        };
        for (kind, growable) in [
            (SamplerKind::UniformWithReplacement(0.1), true),
            (SamplerKind::UniformWithoutReplacement(0.1), true),
            (SamplerKind::Block(0.1), true),
            (stratified, true),
            (SamplerKind::Reservoir(5), false),
            (SamplerKind::Bernoulli(0.1), false),
            (SamplerKind::Systematic(0.1), false),
        ] {
            let mut stream = kind.stream(BatchSchedule::one_shot()).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let drawn = decoded(&drain(stream.as_mut(), &t, &mut rng), &t);
            assert_eq!(stream.extend_cap(kind), growable, "{kind:?}");
            // The probe changes nothing: same kind, nothing more to draw.
            assert_eq!(stream.kind(), kind);
            assert_eq!(stream.rows_drawn(), drawn.len());
            assert!(stream.next_batch(&t, &mut rng).unwrap().is_empty());
        }
    }

    #[test]
    fn a_drained_uniform_stream_retains_its_pages_and_frame_only() {
        let t = table(3_000);
        let counting = CountingSource::new(&t);
        let mut stream = SamplerKind::UniformWithReplacement(0.05)
            .stream(BatchSchedule::default())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        drain(stream.as_mut(), &counting, &mut rng);
        let pages = counting.pages_read() as usize;
        let frame = t.num_rows() * std::mem::size_of::<Rid>();
        let retained = stream.approx_retained_bytes();
        assert!(pages > 0);
        assert!(
            retained <= pages * t.page_size() + frame,
            "retained {retained} B for {pages} pages of {} B plus a {frame} B frame",
            t.page_size()
        );
        // Every page read is held (that is what keeps deepening's I/O
        // schedule-independent), priced at its full size.
        assert_eq!(retained, pages * t.page_size() + frame);
        // Without replacement, the shuffle's displaced slots come on top.
        let counting = CountingSource::new(&t);
        let mut stream = SamplerKind::UniformWithoutReplacement(0.05)
            .stream(BatchSchedule::default())
            .unwrap();
        drain(stream.as_mut(), &counting, &mut rng);
        let pages = counting.pages_read() as usize;
        assert_eq!(
            stream.approx_retained_bytes(),
            pages * t.page_size() + frame + 150 * 2 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn empty_table_streams_are_immediately_exhausted() {
        let t = table(0);
        for kind in [
            SamplerKind::UniformWithReplacement(0.5),
            SamplerKind::UniformWithoutReplacement(0.5),
            SamplerKind::Bernoulli(0.5),
            SamplerKind::Systematic(0.5),
            SamplerKind::Block(0.5),
            SamplerKind::Reservoir(5),
        ] {
            let counting = CountingSource::new(&t);
            let mut stream = kind.stream(BatchSchedule::default()).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            assert!(stream.next_batch(&counting, &mut rng).unwrap().is_empty());
            assert!(stream.exhausted(), "{kind:?}");
            assert_eq!(stream.rows_drawn(), 0);
            // Regression: with zero pages the old `max(1, …)` sizing would
            // have requested one page from an empty frame.
            assert_eq!(counting.pages_read(), 0, "{kind:?}");
        }
    }

    #[test]
    fn reservoir_stream_emits_the_one_shot_reservoir_in_slices() {
        let t = table(1_500);
        let oneshot = one_shot(&t, SamplerKind::Reservoir(120), 2);
        let counting = CountingSource::new(&t);
        let mut stream = SamplerKind::Reservoir(120)
            .stream(BatchSchedule::default())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let batches = drain(stream.as_mut(), &counting, &mut rng);
        assert!(
            batches.len() > 1,
            "a reservoir is emitted in schedule slices"
        );
        assert_eq!(
            decoded(&batches, &t),
            oneshot,
            "slices concatenate to the reservoir"
        );
        // The scan was paid once, on the first batch.
        assert_eq!(counting.pages_read() as usize, t.num_pages());
        assert!(!stream.extend_cap(SamplerKind::Reservoir(500)));
    }

    #[test]
    fn bernoulli_and_systematic_come_out_as_one_batch_at_the_cap() {
        let t = table(3_000);
        for kind in [SamplerKind::Bernoulli(0.2), SamplerKind::Systematic(0.2)] {
            let counting = CountingSource::new(&t);
            let mut stream = kind.stream(BatchSchedule::new(0.01, 2.0).unwrap()).unwrap();
            let batches = drain(stream.as_mut(), &counting, &mut StdRng::seed_from_u64(8));
            assert_eq!(
                batches.len(),
                1,
                "{kind:?}: no scan-order prefix is offered"
            );
            assert!(stream.exhausted());
            assert_eq!(decoded(&batches, &t), one_shot(&t, kind, 8), "{kind:?}");
            assert_eq!(counting.pages_read() as usize, t.num_pages());
            assert!(!stream.extend_cap(kind));
        }
    }

    #[test]
    fn scan_streams_refuse_other_kinds() {
        let err = ScanStream::new(SamplerKind::Block(0.1), BatchSchedule::one_shot())
            .err()
            .expect("block is not a scan");
        assert!(err.to_string().contains("not a scan sampler"), "{err}");
    }
}
