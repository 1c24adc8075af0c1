//! Per-node page frames and software protection state.
//!
//! A real CVM node write-protects pages with `mprotect` and catches
//! SIGSEGV; here the DSM consults [`Protection`] on every access and raises
//! a *software fault* into the protocol engine instead.  The protocol-level
//! behaviour (fault → fetch/upgrade) is identical; only the delivery
//! mechanism differs.

use crate::{Geometry, PageId};

/// Access rights a node currently holds on a page.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Protection {
    /// No valid local copy; any access faults.
    #[default]
    Invalid,
    /// Valid read-only copy; writes fault.
    Read,
    /// Valid writable copy.
    Write,
}

impl Protection {
    /// Returns `true` if reads are permitted.
    #[inline]
    pub fn readable(self) -> bool {
        !matches!(self, Protection::Invalid)
    }

    /// Returns `true` if writes are permitted.
    #[inline]
    pub fn writable(self) -> bool {
        matches!(self, Protection::Write)
    }
}

/// One page frame: the local copy of a shared page.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Page contents, one `u64` per word.
    pub data: Box<[u64]>,
    /// Current access rights.
    pub prot: Protection,
    /// Twin (pristine copy made at the first write of an interval) used by
    /// the multi-writer protocol to compute diffs.
    pub twin: Option<Box<[u64]>>,
}

impl Frame {
    /// Creates a zero-filled frame with the given protection.
    pub fn new(page_words: usize, prot: Protection) -> Self {
        Frame {
            data: vec![0; page_words].into_boxed_slice(),
            prot,
            twin: None,
        }
    }

    /// Creates a frame from received page contents.
    pub fn from_data(data: Vec<u64>, prot: Protection) -> Self {
        Frame {
            data: data.into_boxed_slice(),
            prot,
            twin: None,
        }
    }

    /// Makes a twin of the current contents if one is not already present.
    pub fn ensure_twin(&mut self) {
        if self.twin.is_none() {
            self.twin = Some(self.data.clone());
        }
    }

    /// Drops the twin, if any.
    pub fn discard_twin(&mut self) {
        self.twin = None;
    }
}

/// The page frames a node currently holds: the software page table.
///
/// Page ids are dense from 0 (the allocator hands out the segment front to
/// back), so the table is a vector indexed by [`PageId::index`] — one
/// bounds check and one load where the MMU would walk its own table.  It
/// grows on [`install`](Self::install) and never past the segment's page
/// count, so neither a wild pointer nor an id off the wire can size it.
#[derive(Debug)]
pub struct PageStore {
    geometry: Geometry,
    frames: Vec<Option<Frame>>,
    /// Pages in the shared segment: ids at or above this are never resident.
    segment_pages: usize,
}

impl PageStore {
    /// Creates an empty store for a segment of `segment_pages` pages.
    pub fn new(geometry: Geometry, segment_pages: usize) -> Self {
        PageStore {
            geometry,
            frames: Vec::new(),
            segment_pages,
        }
    }

    /// The store's page geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Pages in the shared segment (one past the highest installable id).
    pub fn segment_pages(&self) -> usize {
        self.segment_pages
    }

    /// Current protection of `page` ([`Protection::Invalid`] if absent).
    #[inline]
    pub fn protection(&self, page: PageId) -> Protection {
        self.frame(page).map_or(Protection::Invalid, |f| f.prot)
    }

    /// Immutable access to a frame.
    #[inline]
    pub fn frame(&self, page: PageId) -> Option<&Frame> {
        self.frames.get(page.index())?.as_ref()
    }

    /// Mutable access to a frame.
    #[inline]
    pub fn frame_mut(&mut self, page: PageId) -> Option<&mut Frame> {
        self.frames.get_mut(page.index())?.as_mut()
    }

    /// Installs (or replaces) a frame for `page`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not one page long or `page` lies outside the
    /// segment.
    pub fn install(&mut self, page: PageId, frame: Frame) {
        assert_eq!(
            frame.data.len(),
            self.geometry.page_words,
            "installing frame of wrong size"
        );
        let i = page.index();
        assert!(
            i < self.segment_pages,
            "installing {page:?} outside the {}-page segment",
            self.segment_pages
        );
        if i >= self.frames.len() {
            self.frames.resize_with(i + 1, || None);
        }
        self.frames[i] = Some(frame);
    }

    /// Installs a zero-filled frame (used by the page's home node).
    pub fn install_zeroed(&mut self, page: PageId, prot: Protection) {
        self.install(page, Frame::new(self.geometry.page_words, prot));
    }

    /// Invalidates `page`: drops rights but keeps the (stale) data around.
    ///
    /// LRC invalidates lazily at acquires; keeping the stale data mirrors a
    /// real implementation where the page stays mapped but protected.
    pub fn invalidate(&mut self, page: PageId) {
        if let Some(f) = self.frame_mut(page) {
            f.prot = Protection::Invalid;
            f.twin = None;
        }
    }

    /// Sets the protection of an existing frame.
    ///
    /// # Panics
    ///
    /// Panics if the node holds no frame for `page`.
    pub fn protect(&mut self, page: PageId, prot: Protection) {
        self.frame_mut(page)
            .expect("protect() on absent frame")
            .prot = prot;
    }

    /// Reads word `word` of `page`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is absent or not readable — the DSM must fault
    /// and fetch first.
    #[inline]
    pub fn read_word(&self, page: PageId, word: usize) -> u64 {
        let f = self.frame(page).expect("read of absent frame");
        assert!(f.prot.readable(), "read of unreadable frame {page:?}");
        f.data[word]
    }

    /// Writes word `word` of `page`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is absent or not writable — the DSM must fault
    /// and obtain write rights first.
    #[inline]
    pub fn write_word(&mut self, page: PageId, word: usize, value: u64) {
        let f = self.frame_mut(page).expect("write of absent frame");
        assert!(f.prot.writable(), "write of non-writable frame {page:?}");
        f.data[word] = value;
    }

    /// Iterates over resident pages in ascending id order.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|_| PageId(i as u32)))
    }

    /// Number of resident frames.
    pub fn resident(&self) -> usize {
        self.frames.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> PageStore {
        PageStore::new(Geometry::default(), 16)
    }

    #[test]
    fn absent_page_is_invalid() {
        let s = store();
        assert_eq!(s.protection(PageId(0)), Protection::Invalid);
        assert!(s.frame(PageId(0)).is_none());
    }

    #[test]
    fn install_read_write_roundtrip() {
        let mut s = store();
        s.install_zeroed(PageId(3), Protection::Write);
        s.write_word(PageId(3), 17, 0xdead);
        assert_eq!(s.read_word(PageId(3), 17), 0xdead);
        assert_eq!(s.read_word(PageId(3), 16), 0);
    }

    #[test]
    fn invalidate_keeps_stale_data_but_blocks_access() {
        let mut s = store();
        s.install_zeroed(PageId(1), Protection::Write);
        s.write_word(PageId(1), 0, 7);
        s.invalidate(PageId(1));
        assert_eq!(s.protection(PageId(1)), Protection::Invalid);
        // Stale contents retained under the covers.
        assert_eq!(s.frame(PageId(1)).unwrap().data[0], 7);
    }

    #[test]
    #[should_panic(expected = "non-writable")]
    fn write_to_readonly_panics() {
        let mut s = store();
        s.install_zeroed(PageId(0), Protection::Read);
        s.write_word(PageId(0), 0, 1);
    }

    #[test]
    #[should_panic(expected = "unreadable")]
    fn read_of_invalid_panics() {
        let mut s = store();
        s.install_zeroed(PageId(0), Protection::Invalid);
        let _ = s.read_word(PageId(0), 0);
    }

    #[test]
    #[should_panic(expected = "outside the 16-page segment")]
    fn install_outside_the_segment_panics() {
        store().install_zeroed(PageId(16), Protection::Read);
    }

    #[test]
    fn ids_outside_the_segment_read_as_absent() {
        let mut s = store();
        s.install_zeroed(PageId(2), Protection::Read);
        assert_eq!(s.protection(PageId(u32::MAX)), Protection::Invalid);
        assert!(s.frame(PageId(u32::MAX)).is_none());
        s.invalidate(PageId(u32::MAX));
        assert_eq!(s.resident(), 1);
    }

    #[test]
    fn pages_are_listed_in_ascending_order() {
        let mut s = store();
        for id in [9, 0, 4] {
            s.install_zeroed(PageId(id), Protection::Read);
        }
        assert_eq!(
            s.pages().collect::<Vec<_>>(),
            vec![PageId(0), PageId(4), PageId(9)]
        );
        assert_eq!(s.resident(), 3);
    }

    #[test]
    fn twin_lifecycle() {
        let mut f = Frame::new(8, Protection::Write);
        f.data[2] = 5;
        f.ensure_twin();
        f.data[2] = 9;
        assert_eq!(f.twin.as_ref().unwrap()[2], 5);
        // Second ensure_twin must not clobber the original twin.
        f.ensure_twin();
        assert_eq!(f.twin.as_ref().unwrap()[2], 5);
        f.discard_twin();
        assert!(f.twin.is_none());
    }

    #[test]
    fn protection_predicates() {
        assert!(!Protection::Invalid.readable());
        assert!(Protection::Read.readable());
        assert!(!Protection::Read.writable());
        assert!(Protection::Write.readable());
        assert!(Protection::Write.writable());
    }
}
