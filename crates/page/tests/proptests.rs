//! Property-based tests for bitmaps, diffs, address arithmetic and the page
//! table.

use std::collections::HashMap;

use cvm_page::{
    Bitmap, Diff, Frame, GAddr, Geometry, PageId, PageStore, Protection, SharedAlloc, SHARED_BASE,
    WORD_BYTES,
};
use proptest::prelude::*;

fn arb_bits(n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..n, 0..64)
}

proptest! {
    #[test]
    fn bitmap_set_get_consistency(idxs in arb_bits(512)) {
        let mut b = Bitmap::new(512);
        for &i in &idxs {
            b.set(i);
        }
        for i in 0..512 {
            prop_assert_eq!(b.get(i), idxs.contains(&i));
        }
        let mut sorted: Vec<usize> = idxs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(b.count(), sorted.len());
        prop_assert_eq!(b.iter_set().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn bitmap_overlap_matches_set_intersection(
        a in arb_bits(256),
        b in arb_bits(256),
    ) {
        let mut ba = Bitmap::new(256);
        let mut bb = Bitmap::new(256);
        for &i in &a { ba.set(i); }
        for &i in &b { bb.set(i); }
        let mut expect: Vec<usize> =
            a.iter().filter(|i| b.contains(i)).copied().collect();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(ba.overlaps(&bb), !expect.is_empty());
        prop_assert_eq!(ba.overlap_words(&bb).collect::<Vec<_>>(), expect);
    }

    /// The SWAR 4-lane AND-walk yields exactly the scalar walk's sequence,
    /// word for word, for dense random words at widths covering every
    /// chunk/tail shape.
    #[test]
    fn swar_and_walk_equals_scalar_and_walk(
        nbits in 0usize..600,
        raw_a in proptest::collection::vec(any::<u64>(), 10),
        raw_b in proptest::collection::vec(any::<u64>(), 10),
    ) {
        let words = nbits.div_ceil(64);
        let mut a = raw_a[..words].to_vec();
        let mut b = raw_b[..words].to_vec();
        if nbits % 64 != 0 {
            // Keep the tail word inside the bitmap's declared width.
            let keep = (1u64 << (nbits % 64)) - 1;
            a[words - 1] &= keep;
            b[words - 1] &= keep;
        }
        let ba = Bitmap::from_raw(nbits, a);
        let bb = Bitmap::from_raw(nbits, b);
        let swar: Vec<(usize, u64)> = ba.overlap_chunks(&bb).collect();
        let scalar: Vec<(usize, u64)> = ba.overlap_chunks_scalar(&bb).collect();
        prop_assert_eq!(swar, scalar);
    }

    /// Sparse pairs (the false-sharing common case) take the summary
    /// short-circuit identically through both kernels.
    #[test]
    fn swar_and_walk_equals_scalar_on_sparse_pairs(
        a in arb_bits(512),
        b in arb_bits(512),
    ) {
        let mut ba = Bitmap::new(512);
        let mut bb = Bitmap::new(512);
        for &i in &a { ba.set(i); }
        for &i in &b { bb.set(i); }
        prop_assert_eq!(
            ba.overlap_chunks(&bb).collect::<Vec<_>>(),
            ba.overlap_chunks_scalar(&bb).collect::<Vec<_>>()
        );
    }

    #[test]
    fn bitmap_union_is_superset(a in arb_bits(128), b in arb_bits(128)) {
        let mut ba = Bitmap::new(128);
        let mut bb = Bitmap::new(128);
        for &i in &a { ba.set(i); }
        for &i in &b { bb.set(i); }
        let mut u = ba.clone();
        u.union_with(&bb);
        for i in 0..128 {
            prop_assert_eq!(u.get(i), ba.get(i) || bb.get(i));
        }
    }

    #[test]
    fn diff_make_apply_roundtrip(
        twin in proptest::collection::vec(any::<u64>(), 64),
        writes in proptest::collection::vec((0usize..64, any::<u64>()), 0..32),
    ) {
        let mut cur = twin.clone();
        for &(i, v) in &writes {
            cur[i] = v;
        }
        let d = Diff::make(PageId(9), &twin, &cur);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        prop_assert_eq!(rebuilt, cur.clone());
        // Every diffed word really differs from the twin.
        for w in d.words() {
            prop_assert_ne!(twin[w], cur[w]);
        }
    }

    #[test]
    fn allocator_segments_never_overlap(
        sizes in proptest::collection::vec(1u64..10_000, 1..20),
    ) {
        let mut a = SharedAlloc::new(Geometry::default(), 1 << 24);
        let mut bases: Vec<(GAddr, u64)> = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let base = a.alloc(&format!("s{i}"), len).unwrap();
            bases.push((base, len));
        }
        for w in bases.windows(2) {
            let (prev, plen) = (w[0].0, w[0].1);
            let (next, _) = (w[1].0, w[1].1);
            prop_assert!(prev.0 + plen <= next.0, "segments overlap");
        }
        // Every allocated byte resolves to its own segment.
        let map = a.into_map();
        for (i, &(base, len)) in bases.iter().enumerate() {
            let (seg, off) = map.resolve(base.offset(len - 1)).unwrap();
            prop_assert_eq!(&seg.name, &format!("s{i}"));
            prop_assert_eq!(off, len - 1);
        }
    }

    /// `locate` is the plain `/`,`%` split for every page size — the
    /// shift/mask path of a power-of-two page and the general one — and
    /// `addr_of` inverts it.
    #[test]
    fn locate_equals_division_and_roundtrips(
        page_words in prop_oneof![
            Just(8usize), Just(24usize), Just(512usize), Just(1024usize), Just(1000usize)
        ],
        word in 0u64..(1 << 34),
    ) {
        let g = Geometry { page_words };
        let addr = GAddr(SHARED_BASE + word * WORD_BYTES);
        let (page, within) = g.locate(addr);
        prop_assert_eq!(u64::from(page.0), word / page_words as u64);
        prop_assert_eq!(within as u64, word % page_words as u64);
        prop_assert_eq!(g.addr_of(page, within), addr);
        prop_assert_eq!(g.page_of(addr), page);
    }

    /// The summary stays exact through `set`: bit `j` ⇔ block `j` holds a
    /// non-zero word, on both sides of the one-word-per-block split
    /// (`raw().len() <= 64`).
    #[test]
    fn bitmap_set_keeps_summary_exact(
        nbits in prop_oneof![
            Just(64usize), Just(512usize), Just(4096usize), Just(8192usize), Just(65536usize)
        ],
        picks in proptest::collection::vec(any::<u32>(), 0..48),
    ) {
        let mut b = Bitmap::new(nbits);
        for &pick in &picks {
            b.set(pick as usize % nbits);
            let block = b.raw().len().div_ceil(64).max(1);
            let mut expect = 0u64;
            for (wi, w) in b.raw().iter().enumerate() {
                if *w != 0 {
                    expect |= 1 << (wi / block);
                }
            }
            prop_assert_eq!(b.summary(), expect);
        }
        prop_assert_eq!(&Bitmap::from_raw(nbits, b.raw().to_vec()), &b);
    }

    /// `set_range` leaves exactly what a loop of `set` leaves — bit vector,
    /// summary and count — for runs that start and end anywhere, on both
    /// sides of the one-word-per-block split (8192 bits: two words a block).
    #[test]
    fn bitmap_set_range_equals_set_loop(
        nbits in prop_oneof![Just(512usize), Just(1024usize), Just(8192usize)],
        runs in proptest::collection::vec((any::<u32>(), 0usize..200), 0..12),
    ) {
        let mut ranged = Bitmap::new(nbits);
        let mut looped = Bitmap::new(nbits);
        for &(start, len) in &runs {
            let start = start as usize % (nbits + 1);
            let len = len.min(nbits - start);
            ranged.set_range(start, len);
            for i in start..start + len {
                looped.set(i);
            }
            prop_assert_eq!(ranged.raw(), looped.raw());
            prop_assert_eq!(ranged.summary(), looped.summary());
            prop_assert_eq!(ranged.count(), looped.count());
        }
        prop_assert_eq!(&ranged, &looped);
    }

    /// The dense page table answers like a hash map from page id to frame
    /// over random operation sequences on sparse ids, and lists its
    /// resident pages in ascending order.
    #[test]
    fn page_store_matches_hash_map_model(
        ops in proptest::collection::vec((0u8..6, 0usize..10, 0u8..3, 0usize..8, any::<u64>()), 0..80),
    ) {
        const IDS: [u32; 10] = [0, 1, 2, 5, 31, 32, 33, 200, 1022, 1023];
        const PROTS: [Protection; 3] = [Protection::Invalid, Protection::Read, Protection::Write];
        let g = Geometry { page_words: 8 };
        let mut store = PageStore::new(g, 1024);
        let mut model: HashMap<PageId, (Protection, Vec<u64>)> = HashMap::new();
        for (op, id, prot, word, value) in ops {
            let page = PageId(IDS[id]);
            let prot = PROTS[prot as usize];
            match op {
                0 => {
                    let mut data = vec![0u64; g.page_words];
                    data[word] = value;
                    store.install(page, Frame::from_data(data.clone(), prot));
                    model.insert(page, (prot, data));
                }
                1 => {
                    store.install_zeroed(page, prot);
                    model.insert(page, (prot, vec![0; g.page_words]));
                }
                2 => {
                    store.invalidate(page);
                    if let Some(m) = model.get_mut(&page) {
                        m.0 = Protection::Invalid;
                    }
                }
                3 => {
                    if let Some(m) = model.get_mut(&page) {
                        store.protect(page, prot);
                        m.0 = prot;
                    }
                }
                4 => {
                    if let Some(m) = model.get(&page).filter(|m| m.0.readable()) {
                        prop_assert_eq!(store.read_word(page, word), m.1[word]);
                    }
                }
                _ => {
                    if let Some(m) = model.get_mut(&page).filter(|m| m.0.writable()) {
                        store.write_word(page, word, value);
                        m.1[word] = value;
                    }
                }
            }
            prop_assert_eq!(
                store.protection(page),
                model.get(&page).map_or(Protection::Invalid, |m| m.0)
            );
            prop_assert_eq!(
                store.frame(page).map(|f| f.data.to_vec()),
                model.get(&page).map(|m| m.1.clone())
            );
        }
        let mut expect: Vec<PageId> = model.keys().copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(store.pages().collect::<Vec<_>>(), expect);
        prop_assert_eq!(store.resident(), model.len());
        for &id in &IDS {
            prop_assert_eq!(store.frame(PageId(id)).is_some(), model.contains_key(&PageId(id)));
        }
    }
}
