//! Property-based round-trip tests for the wire codec and the checksummed
//! frame layer.

use cvm_net::wire::{
    crc32c, crc32c_update, decode_frame, encode_frame, encode_framed, Reader, Wire, WireError,
    FRAME_HEADER_BYTES,
};
use cvm_net::{ByteBreakdown, Packet, TrafficClass};
use cvm_vclock::{IntervalId, IntervalStamp, ProcId, VClock};
use proptest::prelude::*;

fn check_roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) -> Result<(), TestCaseError> {
    let bytes = v.to_bytes();
    prop_assert_eq!(bytes.len() as u64, v.wire_size());
    let back = T::from_bytes(&bytes).expect("decode of own encoding");
    prop_assert_eq!(&back, v);
    Ok(())
}

/// Bit-at-a-time CRC-32C straight from the polynomial: the reference the
/// table-driven kernel must equal.
fn crc32c_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0x82F6_3B78 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

#[test]
fn crc_known_vector() {
    // The RFC 3720 check value.
    assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    assert_eq!(crc32c_bytewise(b"123456789"), 0xE306_9283);
}

proptest! {
    /// The slicing-by-8 kernel equals the reference at every length,
    /// including sub-8 inputs and non-multiples of 8 (the bytewise tail).
    #[test]
    fn crc_slicing_matches_bytewise(bytes in proptest::collection::vec(any::<u8>(), 0..=4096)) {
        prop_assert_eq!(crc32c(&bytes), crc32c_bytewise(&bytes));
        let short = &bytes[..bytes.len().min(11)];
        for cut in 0..=short.len() {
            prop_assert_eq!(crc32c(&short[..cut]), crc32c_bytewise(&short[..cut]));
        }
    }

    /// Folding any split of the input through the running form gives the
    /// one-shot checksum.
    #[test]
    fn crc_update_over_any_split_matches_one_shot(
        bytes in proptest::collection::vec(any::<u8>(), 0..=4096),
        cuts in proptest::collection::vec(any::<u16>(), 0..=4),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| *c as usize % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(bytes.len());
        let (mut state, mut from) = (!0u32, 0);
        for cut in cuts {
            state = crc32c_update(state, &bytes[from..cut]);
            from = cut;
        }
        prop_assert_eq!(!state, crc32c(&bytes));
    }

    /// The bulk `u64` slice codec writes the bytes of the per-element loop
    /// and round-trips them.
    #[test]
    fn bulk_u64_matches_per_element(v: Vec<u64>) {
        let mut per_element = (v.len() as u32).to_bytes();
        for x in &v {
            x.encode(&mut per_element);
        }
        prop_assert_eq!(&v.to_bytes(), &per_element);
        let mut bulk = Vec::new();
        u64::encode_slice(&v, &mut bulk);
        prop_assert_eq!(&bulk[..], &per_element[4..]);
        let mut r = Reader::new(&bulk);
        prop_assert_eq!(u64::decode_vec(&mut r, v.len()), Ok(v.clone()));
        prop_assert_eq!(r.remaining(), 0);
        check_roundtrip(&v)?;
    }

    /// The bulk path keeps the trust boundary: a count that cannot fit is
    /// `BadLength` before anything is allocated, and a word region cut
    /// mid-word is `Truncated`.
    #[test]
    fn bulk_u64_rejects_short_bodies(v in proptest::collection::vec(any::<u64>(), 1..64), cut in 1usize..8) {
        let bytes = v.to_bytes();
        let mut inflated = bytes.clone();
        inflated[..4].copy_from_slice(&(v.len() as u32 + 1).to_le_bytes());
        prop_assert_eq!(
            Vec::<u64>::from_bytes(&inflated),
            Err(WireError::BadLength(v.len() as u64 + 1))
        );
        let body = &bytes[4..bytes.len() - cut];
        prop_assert_eq!(
            u64::decode_vec(&mut Reader::new(body), v.len()),
            Err(WireError::Truncated { needed: v.len() * 8, remaining: body.len() })
        );
    }

    #[test]
    fn u64_roundtrip(v: u64) { check_roundtrip(&v)?; }

    #[test]
    fn i64_roundtrip(v: i64) { check_roundtrip(&v)?; }

    #[test]
    fn f64_roundtrip(v: f64) {
        // NaN compares unequal; compare bit patterns instead.
        let bytes = v.to_bytes();
        let back = f64::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn vec_roundtrip(v: Vec<u32>) { check_roundtrip(&v)?; }

    #[test]
    fn nested_roundtrip(v: Vec<(u16, Vec<u64>)>) { check_roundtrip(&v)?; }

    #[test]
    fn option_roundtrip(v: Option<u64>) { check_roundtrip(&v)?; }

    #[test]
    fn string_roundtrip(v: String) { check_roundtrip(&v)?; }

    #[test]
    fn vclock_roundtrip(entries in proptest::collection::vec(any::<u32>(), 0..16)) {
        check_roundtrip(&VClock::from(entries))?;
    }

    #[test]
    fn interval_stamp_roundtrip(
        p in 0u16..8,
        idx in 1u32..1000,
        rest in proptest::collection::vec(0u32..1000, 8),
    ) {
        let mut entries = rest;
        entries[p as usize] = idx;
        let stamp = IntervalStamp::new(
            IntervalId::new(ProcId(p), idx),
            VClock::from(entries),
        );
        check_roundtrip(&stamp)?;
    }

    /// Decoding arbitrary garbage must never panic — it either produces a
    /// value or a structured error.
    #[test]
    fn decode_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Vec::<u64>::from_bytes(&bytes);
        let _ = Vec::<(u16, Vec<u32>)>::from_bytes(&bytes);
        let _ = Option::<u64>::from_bytes(&bytes);
        let _ = String::from_bytes(&bytes);
        let _ = VClock::from_bytes(&bytes);
    }

    /// Truncating a valid encoding must yield an error, not a bogus value.
    #[test]
    fn truncation_detected(v: Vec<u64>, cut in 1usize..8) {
        let bytes = v.to_bytes();
        if bytes.len() >= cut {
            let truncated = &bytes[..bytes.len() - cut];
            let got = Vec::<u64>::from_bytes(truncated);
            prop_assert!(
                matches!(got, Err(WireError::Truncated { .. }) | Err(WireError::BadLength(_))),
                "truncated decode produced {got:?}"
            );
        }
    }

    /// A checksummed frame round-trips its body exactly.
    #[test]
    fn frame_roundtrip(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let frame = encode_frame(&body);
        prop_assert_eq!(frame.len(), FRAME_HEADER_BYTES + body.len());
        prop_assert_eq!(decode_frame(&frame).expect("own frame decodes"), &body[..]);
    }

    /// The in-place framing the reliability engine puts every datagram
    /// through yields the very bytes of framing the finished encoding.
    #[test]
    fn in_place_frame_matches_encode_frame(
        src: u16,
        dst: u16,
        sent_at: u64,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        nested: Vec<(u16, Vec<u64>)>,
    ) {
        let packet = Packet {
            src: ProcId(src),
            dst: ProcId(dst),
            sent_at,
            breakdown: ByteBreakdown::single(TrafficClass::Data, payload.len() as u64),
            payload,
        };
        prop_assert_eq!(encode_framed(&packet), encode_frame(&packet.to_bytes()));
        prop_assert_eq!(encode_framed(&nested), encode_frame(&nested.to_bytes()));
    }

    /// Decoding arbitrary bytes as a frame never panics: a value or a
    /// structured error, nothing else.
    #[test]
    fn frame_decode_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_frame(&bytes);
    }

    /// Any frame with up to three flipped bits is rejected — CRC-32C has
    /// Hamming distance 4 over these lengths, and the magic/length fields
    /// are checked besides — so single-bit wire damage can never slip
    /// through to the datagram decoder.
    #[test]
    fn frame_rejects_k_bit_flips(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        flips in proptest::collection::vec((any::<u16>(), 0u8..8), 1..4),
    ) {
        let frame = encode_frame(&body);
        let mut damaged = frame.clone();
        for (pos, bit) in &flips {
            let i = *pos as usize % damaged.len();
            damaged[i] ^= 1 << bit;
        }
        if damaged != frame {
            prop_assert!(
                decode_frame(&damaged).is_err(),
                "{}-bit flip went undetected",
                flips.len()
            );
        }
    }

    /// Truncated frames and frames with trailing garbage are rejected by
    /// the length field even when the checksum region itself is intact.
    #[test]
    fn frame_rejects_resize(body in proptest::collection::vec(any::<u8>(), 0..256), n in 1usize..16) {
        let frame = encode_frame(&body);
        let cut = &frame[..frame.len() - n.min(frame.len())];
        prop_assert!(decode_frame(cut).is_err());
        let mut extended = frame.clone();
        extended.resize(frame.len() + n, 0xAB);
        prop_assert!(decode_frame(&extended).is_err());
    }
}
