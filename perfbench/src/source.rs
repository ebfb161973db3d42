//! A bench-side [`TableSource`] around a `DiskTable` that records every page
//! read as a `storage.read` span and counts pages and the rows on them.
//!
//! Like `CountingSource` it intercepts only the two page-read methods and
//! forwards the metadata-backed sampling frame, so the code under test takes
//! exactly the path it takes on the bare table.

use crate::trace::Tracer;
use samplecf_storage::{
    Page, PageId, PageRead, Rid, RowCodec, Schema, SharedSource, StorageResult, TableSource,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub struct TimedSource {
    inner: SharedSource,
    tracer: Arc<Tracer>,
    request: AtomicU64,
    pages: AtomicU64,
    rows_on_pages: AtomicU64,
}

impl TimedSource {
    pub fn new(inner: SharedSource, tracer: Arc<Tracer>) -> Self {
        TimedSource {
            inner,
            tracer,
            request: AtomicU64::new(0),
            pages: AtomicU64::new(0),
            rows_on_pages: AtomicU64::new(0),
        }
    }

    /// Tag the spans of subsequent reads with this request id.
    pub fn set_request(&self, request: u64) {
        self.request.store(request, Ordering::Relaxed);
    }

    /// Pages read and rows held by those pages, since creation.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.pages.load(Ordering::Relaxed),
            self.rows_on_pages.load(Ordering::Relaxed),
        )
    }

    fn note(&self, slots: u16) {
        self.pages.fetch_add(1, Ordering::Relaxed);
        self.rows_on_pages
            .fetch_add(u64::from(slots), Ordering::Relaxed);
    }
}

impl TableSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn codec(&self) -> &RowCodec {
        self.inner.codec()
    }

    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        let request = self.request.load(Ordering::Relaxed);
        let page = self
            .tracer
            .span("storage.read", request, || self.inner.read_page(id))?;
        self.note(page.slot_count());
        Ok(page)
    }

    fn read_page_ref(&self, id: PageId) -> StorageResult<PageRead<'_>> {
        let request = self.request.load(Ordering::Relaxed);
        let page = self
            .tracer
            .span("storage.read", request, || self.inner.read_page_ref(id))?;
        self.note(page.slot_count());
        Ok(page)
    }

    fn rids(&self) -> StorageResult<Vec<Rid>> {
        self.inner.rids()
    }
}
