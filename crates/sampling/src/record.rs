//! [`RecordBatch`]: sampled records sliced out of their pages, undecoded.
//!
//! A sampler that reads a page to keep three of its ~280 rows should pay
//! for the page read and for copying three records — not for decoding the
//! whole page into owned rows.  A batch therefore carries each sampled
//! row as its RID plus the record's encoded bytes (the table's
//! [`RowCodec`] layout), all packed into one byte arena.  The index
//! bulk-load and the measure kernels consume these bytes directly;
//! decoding happens only where a caller asks for rows
//! ([`decode`](RecordBatch::decode)).

use crate::error::SamplingResult;
use crate::sampler::SampledRow;
use samplecf_storage::{Page, PageId, Rid, RowCodec};
use std::ops::Range;

/// A batch of sampled records in draw order: `(Rid, encoded record)`
/// pairs whose bytes live in one contiguous arena.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordBatch {
    rids: Vec<Rid>,
    /// `ends[i]` is the arena offset one past record `i`.
    ends: Vec<usize>,
    arena: Vec<u8>,
}

impl RecordBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record, copying its bytes into the arena.
    pub fn push(&mut self, rid: Rid, record: &[u8]) {
        self.arena.extend_from_slice(record);
        self.rids.push(rid);
        self.ends.push(self.arena.len());
    }

    /// Append every record of `page`, in slot order.
    pub fn push_page(&mut self, page: &Page) -> SamplingResult<()> {
        let id: PageId = page.id();
        for slot in 0..page.slot_count() {
            self.push(Rid::new(id, slot), page.get(slot)?);
        }
        Ok(())
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rids.len()
    }

    /// Whether the batch holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    /// The `i`-th record; `i` must be below `len()`.
    fn get(&self, i: usize) -> (Rid, &[u8]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.rids[i], &self.arena[start..self.ends[i]])
    }

    /// Iterate over `(rid, record)` pairs in batch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Rid, &[u8])> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Borrowed `(rid, record)` pairs — the input shape of the record
    /// kernels (`build_from_records`, `SortedRun::from_records`).
    #[must_use]
    pub fn records(&self) -> Vec<(Rid, &[u8])> {
        self.iter().collect()
    }

    /// Copy the records in `range` into a batch of their own.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds.
    #[must_use]
    pub fn slice(&self, range: Range<usize>) -> RecordBatch {
        let mut out = RecordBatch::new();
        for i in range {
            let (rid, record) = self.get(i);
            out.push(rid, record);
        }
        out
    }

    /// Decode every record into a `(Rid, Row)` pair with `codec` — for the
    /// row-based consumers that still need owned rows.
    pub fn decode(&self, codec: &RowCodec) -> SamplingResult<Vec<SampledRow>> {
        self.iter()
            .map(|(rid, record)| Ok((rid, codec.decode(record)?)))
            .collect()
    }

    /// Bytes this batch holds: the arena plus the per-record RID and offset.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.arena.len() + self.len() * (std::mem::size_of::<Rid>() + std::mem::size_of::<usize>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_the_arena() {
        let mut batch = RecordBatch::new();
        assert!(batch.is_empty());
        batch.push(Rid::new(3, 1), b"abc");
        batch.push(Rid::new(0, 0), b"");
        batch.push(Rid::new(3, 1), b"defgh");
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(0), (Rid::new(3, 1), &b"abc"[..]));
        assert_eq!(batch.get(1), (Rid::new(0, 0), &b""[..]));
        assert_eq!(batch.get(2), (Rid::new(3, 1), &b"defgh"[..]));
        assert_eq!(batch.records().len(), 3);
        let tail = batch.slice(1..3);
        assert_eq!(tail.records(), batch.records()[1..].to_vec());
        assert_eq!(
            batch.approx_bytes(),
            8 + 3 * (std::mem::size_of::<Rid>() + 8)
        );
    }

    #[test]
    fn push_page_slices_every_slot_in_order() {
        let mut page = Page::new(7, 256).unwrap();
        page.insert(b"one").unwrap();
        page.insert(b"three").unwrap();
        let mut batch = RecordBatch::new();
        batch.push_page(&page).unwrap();
        assert_eq!(
            batch.records(),
            vec![
                (Rid::new(7, 0), &b"one"[..]),
                (Rid::new(7, 1), &b"three"[..])
            ]
        );
    }
}
