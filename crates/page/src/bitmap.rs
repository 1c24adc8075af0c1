//! Word-granularity access bitmaps.
//!
//! The instrumentation inserted by the ATOM pass sets one bit per accessed
//! word in a per-page bitmap (paper §4).  At barriers, the race detector
//! retrieves bitmaps for pages on the check list and intersects them; a
//! non-empty intersection of a write bitmap with another interval's read or
//! write bitmap is a data race, while page overlap without word overlap is
//! false sharing.
//!
//! Each bitmap additionally maintains a one-`u64` *coarse summary word*:
//! bit `j` of the summary is set iff any backing word in block `j` is
//! non-zero (blocks partition the backing words evenly, one word per block
//! for pages up to 32 KB).  Intersections of disjoint bitmaps — the common
//! case, since page overlap is usually false sharing on different words —
//! short-circuit on `summary & summary == 0` without touching the backing
//! vectors at all.

use core::fmt;

/// A fixed-width bitset, one bit per word of a page.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    bits: Vec<u64>,
    nbits: usize,
    /// Coarse summary: bit `j` set iff some word of block `j` is non-zero.
    ///
    /// The invariant is *exact* (no stale bits): bits are only ever set (one
    /// or a range at a time) and cleared wholesale, so the summary never
    /// over-approximates.
    summary: u64,
}

impl Bitmap {
    /// Creates an empty bitmap covering `nbits` words.
    pub fn new(nbits: usize) -> Self {
        Bitmap {
            bits: vec![0; nbits.div_ceil(64)],
            nbits,
            summary: 0,
        }
    }

    /// Backing words per summary block (1 for bitmaps of up to 4096 bits).
    #[inline]
    fn block(&self) -> usize {
        self.bits.len().div_ceil(64).max(1)
    }

    /// Number of bits (words) covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// Returns `true` if the bitmap covers zero words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// The coarse summary word (one bit per block of backing words).
    #[inline]
    pub fn summary(&self) -> u64 {
        self.summary
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.nbits, "bit {i} out of range ({})", self.nbits);
        let wi = i / 64;
        self.bits[wi] |= 1u64 << (i % 64);
        // Up to 64 backing words a block is one word, so the block index is
        // the word index: the per-access path never divides.
        let block = if self.bits.len() <= 64 {
            wi
        } else {
            wi / self.block()
        };
        self.summary |= 1u64 << block;
    }

    /// Sets bits `i .. i + n`: what `n` calls of [`set`](Self::set) on
    /// consecutive indices leave behind, with one mask per backing word and
    /// one for the summary.
    ///
    /// # Panics
    ///
    /// Panics if the range does not lie inside the bitmap.
    #[inline]
    pub fn set_range(&mut self, i: usize, n: usize) {
        assert!(
            i <= self.nbits && n <= self.nbits - i,
            "bits {i}+{n} out of range ({})",
            self.nbits
        );
        if n == 0 {
            return;
        }
        // Inclusive ends, so a range reaching the last bit needs no 64-bit
        // shift.
        let last = i + n - 1;
        let (w0, w1) = (i / 64, last / 64);
        let head = !0u64 << (i % 64);
        let tail = !0u64 >> (63 - last % 64);
        if w0 == w1 {
            self.bits[w0] |= head & tail;
        } else {
            self.bits[w0] |= head;
            self.bits[w0 + 1..w1].fill(!0);
            self.bits[w1] |= tail;
        }
        let (b0, b1) = if self.bits.len() <= 64 {
            (w0, w1)
        } else {
            (w0 / self.block(), w1 / self.block())
        };
        self.summary |= (!0u64 << b0) & (!0u64 >> (63 - b1));
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.nbits, "bit {i} out of range ({})", self.nbits);
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.summary = 0;
    }

    /// Returns `true` if any bit is set.
    #[inline]
    pub fn any(&self) -> bool {
        self.summary != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if `self` and `other` share any set bit.
    ///
    /// This is the constant-time (in page size) bitmap comparison of the
    /// paper's step 5.  Disjoint summaries decide without reading the
    /// backing vectors; otherwise only the blocks both summaries flag are
    /// scanned.
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps have different widths.
    pub fn overlaps(&self, other: &Bitmap) -> bool {
        assert_eq!(
            self.nbits, other.nbits,
            "comparing bitmaps of different widths"
        );
        let common = self.summary & other.summary;
        if common == 0 {
            return false;
        }
        if self.block() == 1 {
            // One backing word per summary bit: visit exactly the flagged
            // words.
            let mut blocks = common;
            while blocks != 0 {
                let wi = blocks.trailing_zeros() as usize;
                blocks &= blocks - 1;
                if self.bits[wi] & other.bits[wi] != 0 {
                    return true;
                }
            }
            false
        } else {
            self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
        }
    }

    /// Number of bits set in both `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps have different widths.
    pub fn count_overlap(&self, other: &Bitmap) -> usize {
        assert_eq!(
            self.nbits, other.nbits,
            "comparing bitmaps of different widths"
        );
        if self.summary & other.summary == 0 {
            return 0;
        }
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over `(backing-word index, intersection mask)` for every
    /// backing word where `self` and `other` share bits (mask is non-zero).
    ///
    /// This is the chunk-granularity view the word-level race comparison
    /// uses: callers combine masks across read/write bitmaps without
    /// re-deriving word indices bit by bit.
    ///
    /// Behind the summary short-circuit, the walk is a 4-lane SWAR kernel:
    /// backing words are ANDed four at a time (`u64x4`), the four lane
    /// results are ORed into one combined word, and a zero combined word
    /// skips the whole chunk with a single branch — the common false-sharing
    /// case where page overlap carries no word overlap.  The yielded
    /// sequence is identical, word for word, to the scalar walk
    /// ([`Bitmap::overlap_chunks_scalar`], the property-test oracle).
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps have different widths.
    pub fn overlap_chunks<'a>(&'a self, other: &'a Bitmap) -> OverlapChunks<'a> {
        assert_eq!(
            self.nbits, other.nbits,
            "comparing bitmaps of different widths"
        );
        // Disjoint summaries: skip the scan entirely (empty sub-slice).
        let n = if self.summary & other.summary == 0 {
            0
        } else {
            self.bits.len()
        };
        OverlapChunks {
            a: &self.bits[..n],
            b: &other.bits[..n],
            next: 0,
            base: 0,
            lanes: [0; 4],
            live: 0,
        }
    }

    /// Reference scalar AND-walk: yields exactly the sequence of
    /// [`Bitmap::overlap_chunks`], one backing word at a time, behind the
    /// same summary guard.  Kept as the oracle the SWAR kernel is
    /// property-tested against (and as the readable specification of what
    /// the kernel computes).
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps have different widths.
    pub fn overlap_chunks_scalar<'a>(
        &'a self,
        other: &'a Bitmap,
    ) -> impl Iterator<Item = (usize, u64)> + 'a {
        assert_eq!(
            self.nbits, other.nbits,
            "comparing bitmaps of different widths"
        );
        let n = if self.summary & other.summary == 0 {
            0
        } else {
            self.bits.len()
        };
        self.bits[..n]
            .iter()
            .zip(&other.bits[..n])
            .enumerate()
            .filter_map(|(wi, (a, b))| {
                let m = a & b;
                (m != 0).then_some((wi, m))
            })
    }

    /// Iterates over the indices of bits set in both `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps have different widths.
    pub fn overlap_words<'a>(&'a self, other: &'a Bitmap) -> impl Iterator<Item = usize> + 'a {
        self.overlap_chunks(other).flat_map(|(wi, mut bits)| {
            core::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Iterates over the indices of set bits.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            core::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Unions `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps have different widths.
    pub fn union_with(&mut self, other: &Bitmap) {
        assert_eq!(
            self.nbits, other.nbits,
            "merging bitmaps of different widths"
        );
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
        // Same width implies the same block size, so summaries align.
        self.summary |= other.summary;
    }

    /// Encoded size in bytes on the wire (raw bit words, no compression).
    ///
    /// The paper transfers raw bitmaps in the extra barrier round; keeping
    /// the size exact lets the bandwidth accounting in `cvm-net` reproduce
    /// the paper's message-overhead metric.  The summary word is local
    /// acceleration state and never crosses the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.bits.len() as u64 * 8
    }

    /// Raw backing words (for wire encoding).
    pub fn raw(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a bitmap from raw backing words (recomputing the summary).
    ///
    /// # Panics
    ///
    /// Panics if `raw` is not exactly the backing length for `nbits`.
    pub fn from_raw(nbits: usize, raw: Vec<u64>) -> Self {
        assert_eq!(raw.len(), nbits.div_ceil(64), "raw length mismatch");
        let mut bm = Bitmap {
            bits: raw,
            nbits,
            summary: 0,
        };
        let block = bm.block();
        for (wi, w) in bm.bits.iter().enumerate() {
            if *w != 0 {
                bm.summary |= 1u64 << (wi / block);
            }
        }
        bm
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap[{}/{} set]", self.count(), self.nbits)
    }
}

/// Iterator returned by [`Bitmap::overlap_chunks`]: a 4-lane SWAR AND-walk
/// over two bitmaps' backing words.
///
/// Words are processed in `u64x4` chunks; a chunk whose four AND lanes OR
/// to zero is skipped with one branch, and the non-zero lanes of a hit
/// chunk are drained in ascending word order, so the yielded sequence is
/// identical to the scalar word-at-a-time walk.
pub struct OverlapChunks<'a> {
    a: &'a [u64],
    b: &'a [u64],
    /// Next backing-word index the chunked scan has not yet consumed.
    next: usize,
    /// Base word index of the chunk currently being drained.
    base: usize,
    /// AND lanes of the current chunk.
    lanes: [u64; 4],
    /// Bit `i` set ⇔ `lanes[i]` is non-zero and not yet yielded.
    live: u8,
}

impl Iterator for OverlapChunks<'_> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        loop {
            // Drain the non-zero lanes of the current chunk first.
            if self.live != 0 {
                let i = self.live.trailing_zeros() as usize;
                self.live &= self.live - 1;
                return Some((self.base + i, self.lanes[i]));
            }
            if self.next + 4 <= self.a.len() {
                let w = self.next;
                self.next += 4;
                let m0 = self.a[w] & self.b[w];
                let m1 = self.a[w + 1] & self.b[w + 1];
                let m2 = self.a[w + 2] & self.b[w + 2];
                let m3 = self.a[w + 3] & self.b[w + 3];
                if m0 | m1 | m2 | m3 == 0 {
                    continue;
                }
                self.base = w;
                self.lanes = [m0, m1, m2, m3];
                self.live = u8::from(m0 != 0)
                    | u8::from(m1 != 0) << 1
                    | u8::from(m2 != 0) << 2
                    | u8::from(m3 != 0) << 3;
                continue;
            }
            // Scalar tail: fewer than four words remain.
            while self.next < self.a.len() {
                let w = self.next;
                self.next += 1;
                let m = self.a[w] & self.b[w];
                if m != 0 {
                    return Some((w, m));
                }
            }
            return None;
        }
    }
}

/// The read and write access bitmaps an interval keeps for one page.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PageBitmaps {
    /// Words read during the interval.
    pub read: Bitmap,
    /// Words written during the interval.
    pub write: Bitmap,
}

impl PageBitmaps {
    /// Creates empty bitmaps for a page of `page_words` words.
    pub fn new(page_words: usize) -> Self {
        PageBitmaps {
            read: Bitmap::new(page_words),
            write: Bitmap::new(page_words),
        }
    }

    /// Returns `true` if either bitmap has a bit set.
    pub fn any(&self) -> bool {
        self.read.any() || self.write.any()
    }

    /// Encoded wire size of both bitmaps.
    pub fn wire_bytes(&self) -> u64 {
        self.read.wire_bytes() + self.write.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recomputes what the summary word must be from the backing words.
    fn expected_summary(b: &Bitmap) -> u64 {
        let block = b.raw().len().div_ceil(64).max(1);
        let mut s = 0u64;
        for (wi, w) in b.raw().iter().enumerate() {
            if *w != 0 {
                s |= 1 << (wi / block);
            }
        }
        s
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::new(512);
        assert!(!b.any());
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(511);
        for i in 0..512 {
            assert_eq!(b.get(i), matches!(i, 0 | 63 | 64 | 511), "bit {i}");
        }
        assert_eq!(b.count(), 4);
        assert_eq!(b.summary(), expected_summary(&b));
    }

    #[test]
    fn overlaps_and_overlap_words() {
        let mut a = Bitmap::new(256);
        let mut b = Bitmap::new(256);
        a.set(10);
        a.set(100);
        a.set(200);
        b.set(100);
        b.set(201);
        assert!(a.overlaps(&b));
        let common: Vec<usize> = a.overlap_words(&b).collect();
        assert_eq!(common, vec![100]);
        assert_eq!(a.count_overlap(&b), 1);
    }

    #[test]
    fn disjoint_bitmaps_do_not_overlap() {
        let mut a = Bitmap::new(128);
        let mut b = Bitmap::new(128);
        a.set(1);
        b.set(2);
        assert!(!a.overlaps(&b));
        assert_eq!(a.overlap_words(&b).count(), 0);
        assert_eq!(a.count_overlap(&b), 0);
        assert_eq!(a.overlap_chunks(&b).count(), 0);
    }

    #[test]
    fn summary_short_circuits_different_blocks() {
        // Bits in different backing words: summaries are disjoint, so the
        // intersection decides without scanning.
        let mut a = Bitmap::new(512);
        let mut b = Bitmap::new(512);
        a.set(3);
        b.set(400);
        assert_eq!(a.summary() & b.summary(), 0);
        assert!(!a.overlaps(&b));
        // Same block, different bits: summaries collide but words decide.
        let mut c = Bitmap::new(512);
        c.set(4);
        assert_ne!(a.summary() & c.summary(), 0);
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn summary_invariant_after_mutations() {
        let mut b = Bitmap::new(300);
        for i in [0, 64, 65, 190, 299] {
            b.set(i);
            assert_eq!(b.summary(), expected_summary(&b), "after set({i})");
        }
        let mut other = Bitmap::new(300);
        other.set(128);
        b.union_with(&other);
        assert_eq!(b.summary(), expected_summary(&b), "after union");
        b.clear();
        assert_eq!(b.summary(), 0);
        assert!(!b.any());
    }

    #[test]
    fn summary_on_wide_bitmaps_groups_blocks() {
        // 8192 bits = 128 backing words = 2 words per summary block.
        let mut b = Bitmap::new(8192);
        b.set(0); // word 0, block 0
        b.set(8191); // word 127, block 63
        assert_eq!(b.summary(), (1 << 0) | (1 << 63));
        let mut c = Bitmap::new(8192);
        c.set(64); // word 1, block 0 — shares block 0 with b, not word 0.
        assert_ne!(b.summary() & c.summary(), 0);
        assert!(!b.overlaps(&c));
        assert_eq!(b.count_overlap(&c), 0);
    }

    #[test]
    fn empty_bitmap_is_inert() {
        let a = Bitmap::new(0);
        let b = Bitmap::new(0);
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        assert!(!a.any());
        assert_eq!(a.count(), 0);
        assert!(!a.overlaps(&b));
        assert_eq!(a.count_overlap(&b), 0);
        assert_eq!(a.overlap_words(&b).count(), 0);
        assert_eq!(a.wire_bytes(), 0);
        let r = Bitmap::from_raw(0, Vec::new());
        assert_eq!(a, r);
    }

    #[test]
    fn non_multiple_of_64_widths() {
        for nbits in [1, 63, 65, 100, 127, 129] {
            let mut b = Bitmap::new(nbits);
            b.set(nbits - 1);
            assert!(b.get(nbits - 1));
            assert_eq!(b.count(), 1);
            assert_eq!(b.summary(), expected_summary(&b), "nbits={nbits}");
            let r = Bitmap::from_raw(nbits, b.raw().to_vec());
            assert_eq!(b, r, "from_raw roundtrip nbits={nbits}");
            assert_eq!(r.summary(), b.summary());
        }
    }

    #[test]
    fn union_accumulates() {
        let mut a = Bitmap::new(64);
        let mut b = Bitmap::new(64);
        a.set(3);
        b.set(60);
        a.union_with(&b);
        assert!(a.get(3) && a.get(60));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn iter_set_yields_sorted_indices() {
        let mut b = Bitmap::new(300);
        for i in [7, 64, 65, 128, 299] {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_set().collect();
        assert_eq!(got, vec![7, 64, 65, 128, 299]);
    }

    #[test]
    fn overlap_chunks_match_overlap_words() {
        let mut a = Bitmap::new(256);
        let mut b = Bitmap::new(256);
        for i in [0, 1, 70, 130, 200] {
            a.set(i);
        }
        for i in [1, 70, 131, 200, 255] {
            b.set(i);
        }
        let from_chunks: Vec<usize> = a
            .overlap_chunks(&b)
            .flat_map(|(wi, m)| {
                (0..64)
                    .filter(move |j| m & (1 << j) != 0)
                    .map(move |j| wi * 64 + j)
            })
            .collect();
        let direct: Vec<usize> = a.overlap_words(&b).collect();
        assert_eq!(from_chunks, direct);
        assert_eq!(direct, vec![1, 70, 200]);
        assert_eq!(a.count_overlap(&b), 3);
    }

    #[test]
    fn swar_chunks_match_scalar_walk() {
        // Deterministic LCG-filled pairs across widths that exercise every
        // chunk shape: exact multiples of the 4-word lane width, a lone
        // tail word, and tails of 1–3 words.
        for nbits in [1usize, 63, 64, 65, 128, 192, 256, 257, 300, 511, 512, 1024] {
            let mut seed = nbits as u64 ^ 0x9E37_79B9_7F4A_7C15;
            let mut rng = move || {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 33) as usize
            };
            let mut a = Bitmap::new(nbits);
            let mut b = Bitmap::new(nbits);
            for _ in 0..nbits / 2 + 1 {
                a.set(rng() % nbits);
                b.set(rng() % nbits);
            }
            let swar: Vec<(usize, u64)> = a.overlap_chunks(&b).collect();
            let scalar: Vec<(usize, u64)> = a.overlap_chunks_scalar(&b).collect();
            assert_eq!(swar, scalar, "nbits={nbits}");
            // The bit-level expansion agrees too.
            let words: Vec<usize> = a.overlap_words(&b).collect();
            let expanded: Vec<usize> = swar
                .iter()
                .flat_map(|&(wi, m)| {
                    (0..64)
                        .filter(move |j| m & (1 << j) != 0)
                        .map(move |j| wi * 64 + j)
                })
                .collect();
            assert_eq!(words, expanded, "nbits={nbits}");
        }
    }

    #[test]
    fn raw_roundtrip() {
        let mut b = Bitmap::new(100);
        b.set(99);
        let r = Bitmap::from_raw(100, b.raw().to_vec());
        assert_eq!(b, r);
        assert_eq!(r.summary(), b.summary());
    }

    #[test]
    fn clear_resets() {
        let mut b = Bitmap::new(64);
        b.set(5);
        b.clear();
        assert!(!b.any());
        assert_eq!(b.summary(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut b = Bitmap::new(10);
        b.set(10);
    }

    #[test]
    fn set_range_masks_ends_and_fills_the_middle() {
        let mut b = Bitmap::new(512);
        b.set_range(60, 0);
        assert!(!b.any());
        b.set_range(60, 70); // 60..130: three backing words.
        assert_eq!(b.raw()[..3], [!0 << 60, !0, 0b11]);
        assert_eq!(b.count(), 70);
        assert_eq!(b.summary(), 0b111);
        b.set_range(448, 64); // Ends on the last bit.
        assert_eq!(b.raw()[7], !0);
        assert_eq!(b.summary(), expected_summary(&b));
        b.set_range(512, 0);
    }

    #[test]
    #[should_panic(expected = "bits 500+13 out of range (512)")]
    fn set_range_past_the_end_panics() {
        let mut b = Bitmap::new(512);
        b.set_range(500, 13);
    }

    #[test]
    fn wire_bytes_counts_backing_words() {
        assert_eq!(Bitmap::new(512).wire_bytes(), 64);
        assert_eq!(Bitmap::new(65).wire_bytes(), 16);
        assert_eq!(PageBitmaps::new(512).wire_bytes(), 128);
    }
}
