//! Address arithmetic: words, pages, and the shared segment base.

use core::fmt;

/// Size of a machine word in bytes.
///
/// The paper's testbed was 64-bit DEC Alpha hardware; accesses are tracked
/// at word granularity ("typically a single word"), so one bitmap bit covers
/// one 8-byte word.
pub const WORD_BYTES: u64 = 8;

/// Base byte address of the shared data segment.
///
/// All shared memory in CVM is dynamically allocated from a dedicated
/// segment; the instrumentation's runtime access check distinguishes shared
/// from private accesses by comparing addresses against this segment
/// (paper §5.1).  Addresses below the base model private data.
pub const SHARED_BASE: u64 = 0x0001_0000_0000;

/// A global byte address in the simulated address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GAddr(pub u64);

impl GAddr {
    /// Returns the address offset by `bytes`.
    #[inline]
    #[must_use]
    pub fn offset(self, bytes: u64) -> GAddr {
        GAddr(self.0 + bytes)
    }

    /// Returns the address of the `i`-th word starting at `self`.
    #[inline]
    #[must_use]
    pub fn word(self, i: u64) -> GAddr {
        GAddr(self.0 + i * WORD_BYTES)
    }

    /// Returns `true` if the address lies inside the shared segment.
    #[inline]
    pub fn is_shared(self) -> bool {
        self.0 >= SHARED_BASE
    }
}

impl fmt::Debug for GAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for GAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// Identifier of a page within the shared segment (dense, starting at 0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// Page geometry of the shared segment.
///
/// The DECstations in the paper used large (8 KB) pages, which exacerbated
/// false sharing under the single-writer protocol (§6.2); the default here
/// is 4 KB, and experiments can vary it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Geometry {
    /// Number of 8-byte words per page.
    pub page_words: usize,
}

impl Default for Geometry {
    fn default() -> Self {
        // 4 KB pages: 512 words of 8 bytes.
        Geometry { page_words: 512 }
    }
}

impl Geometry {
    /// Creates a geometry with the given page size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero or not a multiple of [`WORD_BYTES`].
    pub fn with_page_bytes(page_bytes: usize) -> Self {
        assert!(page_bytes > 0, "page size must be non-zero");
        assert_eq!(
            page_bytes as u64 % WORD_BYTES,
            0,
            "page size must be a whole number of words"
        );
        Geometry {
            page_words: page_bytes / WORD_BYTES as usize,
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_bytes(&self) -> u64 {
        self.page_words as u64 * WORD_BYTES
    }

    /// Splits a shared address into `(page, word-within-page)`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not in the shared segment or not word-aligned.
    #[inline]
    pub fn locate(&self, addr: GAddr) -> (PageId, usize) {
        assert!(addr.is_shared(), "locate() on private address {addr}");
        let off = addr.0 - SHARED_BASE;
        assert_eq!(off % WORD_BYTES, 0, "unaligned word access at {addr}");
        let word = off / WORD_BYTES;
        let page_words = self.page_words as u64;
        // Every page size in use is a power of two: shift and mask then,
        // the general division otherwise.
        let (page, within) = if page_words.is_power_of_two() {
            (word >> page_words.trailing_zeros(), word & (page_words - 1))
        } else {
            (word / page_words, word % page_words)
        };
        (
            PageId(u32::try_from(page).expect("page id overflow")),
            within as usize,
        )
    }

    /// Returns the page containing a shared address (no alignment check).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not in the shared segment.
    #[inline]
    pub fn page_of(&self, addr: GAddr) -> PageId {
        assert!(addr.is_shared(), "page_of() on private address {addr}");
        let off = addr.0 - SHARED_BASE;
        PageId(u32::try_from(off / self.page_bytes()).expect("page id overflow"))
    }

    /// Reconstructs the address of word `word` on page `page`.
    #[inline]
    pub fn addr_of(&self, page: PageId, word: usize) -> GAddr {
        debug_assert!(word < self.page_words);
        GAddr(
            SHARED_BASE + (page.index() as u64 * self.page_words as u64 + word as u64) * WORD_BYTES,
        )
    }

    /// First address of `page`.
    #[inline]
    pub fn page_base(&self, page: PageId) -> GAddr {
        self.addr_of(page, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_4k() {
        let g = Geometry::default();
        assert_eq!(g.page_bytes(), 4096);
        assert_eq!(g.page_words, 512);
    }

    #[test]
    fn locate_roundtrips_with_addr_of() {
        let g = Geometry::with_page_bytes(4096);
        for (page, word) in [(0u32, 0usize), (0, 511), (1, 0), (7, 123), (1000, 500)] {
            let addr = g.addr_of(PageId(page), word);
            assert_eq!(g.locate(addr), (PageId(page), word));
            assert_eq!(g.page_of(addr), PageId(page));
        }
    }

    #[test]
    fn page_of_handles_unaligned_addresses() {
        let g = Geometry::default();
        let addr = GAddr(SHARED_BASE + 4097);
        assert_eq!(g.page_of(addr), PageId(1));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn locate_rejects_unaligned() {
        let g = Geometry::default();
        let _ = g.locate(GAddr(SHARED_BASE + 3));
    }

    #[test]
    #[should_panic(expected = "private address")]
    fn locate_rejects_private() {
        let g = Geometry::default();
        let _ = g.locate(GAddr(128));
    }

    #[test]
    fn shared_base_discriminates() {
        assert!(!GAddr(0).is_shared());
        assert!(!GAddr(SHARED_BASE - 8).is_shared());
        assert!(GAddr(SHARED_BASE).is_shared());
        assert!(GAddr::is_shared(GAddr(SHARED_BASE).word(10)));
    }

    #[test]
    fn custom_page_size() {
        let g = Geometry::with_page_bytes(8192);
        assert_eq!(g.page_words, 1024);
        let addr = g.addr_of(PageId(3), 1023);
        assert_eq!(g.locate(addr), (PageId(3), 1023));
    }
}
