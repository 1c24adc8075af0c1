//! A small explicit wire codec.
//!
//! Hand-rolled rather than pulled from a serialization crate so that the
//! encoded size of every protocol structure is exact and auditable: the
//! paper's bandwidth-overhead metric is defined in terms of bytes added to
//! synchronization messages by read notices, and we reproduce it from real
//! encoded sizes.
//!
//! All integers are little-endian and fixed-width.  Collections are
//! prefixed with a `u32` count.

use std::fmt;

/// Error produced when decoding malformed or truncated bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes remained than the decoder needed.
    Truncated {
        /// Bytes the decoder asked for.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A tag or discriminant byte had no matching variant.
    BadTag {
        /// Name of the type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// Trailing bytes remained after a complete decode.
    Trailing(usize),
    /// A declared length was implausibly large.
    BadLength(u64),
    /// A frame did not open with [`FRAME_MAGIC`].
    BadMagic {
        /// The bytes found where the magic belongs.
        got: u32,
    },
    /// A frame's body did not hash to the checksum it carried.
    Checksum {
        /// Checksum carried by the frame header.
        expected: u32,
        /// Checksum computed over the received body.
        got: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated message: needed {needed} bytes, had {remaining}"
                )
            }
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag} decoding {what}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::BadLength(n) => write!(f, "implausible length {n}"),
            WireError::BadMagic { got } => {
                write!(
                    f,
                    "bad frame magic {got:#010x} (expected {FRAME_MAGIC:#010x})"
                )
            }
            WireError::Checksum { expected, got } => {
                write!(f, "frame checksum mismatch: header says {expected:#010x}, body hashes to {got:#010x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Decoding cursor over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes exactly `N` bytes as a fixed-size array.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than `N` bytes remain.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Validates a declared element count against the unread bytes *before*
    /// anything is allocated: `count` elements of at least `min_elem_bytes`
    /// each must fit in what remains.  Every length-prefixed decoder runs
    /// its prefix through this, so a hostile (or bit-flipped) length can
    /// cost at most the real frame size, never an attacker-chosen
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadLength`] if the declared count cannot fit.
    pub fn check_count(&self, count: u64, min_elem_bytes: u64) -> Result<usize, WireError> {
        let need = count
            .checked_mul(min_elem_bytes.max(1))
            .ok_or(WireError::BadLength(count))?;
        if need > self.remaining() as u64 {
            return Err(WireError::BadLength(count));
        }
        Ok(count as usize)
    }

    /// Finishes decoding, failing if bytes remain.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Trailing`] if any bytes were not consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(self.remaining()))
        }
    }
}

/// Types that can be encoded to and decoded from the wire format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decodes a value from a complete buffer, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated, malformed, or oversized input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Exact encoded size in bytes.
    fn wire_size(&self) -> u64 {
        // Default implementation encodes; override for hot paths if needed.
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len() as u64
    }

    /// Lower bound on the encoded size of *any* value of this type, used
    /// by [`Reader::check_count`] to reject hostile length prefixes before
    /// allocating.  The default (1 byte) is always sound; fixed-size types
    /// override it with their exact size to tighten the bound.
    fn min_wire_size() -> u64 {
        1
    }

    /// Appends the encodings of `items` back to back, with no count prefix
    /// (`Vec<T>` writes it).  Fixed-width integers reserve once.
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
        for item in items {
            item.encode(buf);
        }
    }

    /// Decodes `n` values back to back; `n` sizes an allocation, so a count
    /// read from the wire goes through [`Reader::check_count`] first.
    /// Fixed-width integers take the whole region with one bounds check.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input.
    fn decode_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(Self::decode(r)?);
        }
        Ok(v)
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }
            fn wire_size(&self) -> u64 {
                core::mem::size_of::<$t>() as u64
            }
            fn min_wire_size() -> u64 {
                core::mem::size_of::<$t>() as u64
            }
            // A page is a thousand words: one `reserve`, one bounds check.
            fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
                buf.reserve(core::mem::size_of_val(items));
                for item in items {
                    buf.extend_from_slice(&item.to_le_bytes());
                }
            }
            fn decode_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
                const SIZE: usize = core::mem::size_of::<$t>();
                let len = n.checked_mul(SIZE).ok_or(WireError::BadLength(n as u64))?;
                Ok(r.take(len)?
                    .chunks_exact(SIZE)
                    .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunks_exact(SIZE)")))
                    .collect())
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i32, i64);

impl Wire for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
    fn wire_size(&self) -> u64 {
        8
    }
    fn min_wire_size() -> u64 {
        8
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
    fn wire_size(&self) -> u64 {
        1
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        T::encode_slice(self, buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // A count can never need more bytes than remain in the frame;
        // reject early (against the element type's minimum encoded size)
        // to bound preallocation by the real input length.
        let declared = u32::decode(r)?;
        let n = r.check_count(u64::from(declared), T::min_wire_size())?;
        T::decode_vec(r, n)
    }
    fn wire_size(&self) -> u64 {
        4 + self.iter().map(Wire::wire_size).sum::<u64>()
    }
    fn min_wire_size() -> u64 {
        4
    }
}

impl<T: Wire> Wire for std::sync::Arc<T> {
    // Transparent: an `Arc` on the wire is just its payload.  Protocol
    // structures fanned out to many receivers (barrier releases, lock
    // grants) share one allocation in memory and encode per receiver
    // without deep-cloning.
    fn encode(&self, buf: &mut Vec<u8>) {
        T::encode(self, buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(std::sync::Arc::new(T::decode(r)?))
    }
    fn wire_size(&self) -> u64 {
        T::wire_size(self)
    }
    fn min_wire_size() -> u64 {
        T::min_wire_size()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
    fn wire_size(&self) -> u64 {
        1 + self.as_ref().map_or(0, Wire::wire_size)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
    fn wire_size(&self) -> u64 {
        self.0.wire_size() + self.1.wire_size()
    }
    fn min_wire_size() -> u64 {
        A::min_wire_size() + B::min_wire_size()
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = u32::decode(r)? as usize;
        let b = r.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::BadTag {
            what: "String(utf8)",
            tag: 0,
        })
    }
    fn wire_size(&self) -> u64 {
        4 + self.len() as u64
    }
    fn min_wire_size() -> u64 {
        4
    }
}

/// Magic constant opening every wire frame ("CVMF" in ASCII).
pub const FRAME_MAGIC: u32 = 0x464D_5643;

/// Bytes prepended to each frame body: magic + body length + CRC-32C.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Reflected CRC-32C (Castagnoli) polynomial, the checksum family used by
/// SCTP and iSCSI for exactly this job: it guarantees detection of every
/// error of up to 3 flipped bits at any datagram length we can send
/// (Hamming distance 4 to 2^31 bits), and of any single error burst up to
/// 32 bits.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `[k][b]` is the state after byte `b` and `k` zero
/// bytes (`[0]` is the classic table), so 8 bytes fold in with 8 lookups.
const fn crc32c_build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32C_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    while i < 8 * 256 {
        let prev = tables[i / 256 - 1][i % 256];
        tables[i / 256][i % 256] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
        i += 1;
    }
    tables
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_build_tables();

/// Folds `bytes` into a running CRC-32C `state`, for data never resident in
/// one piece: `crc32c(b) == !crc32c_update(!0, b)` over any split of `b`.
pub fn crc32c_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = (state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
        state = 0;
        for i in 0..4 {
            state ^= t[7 - i][lo[i] as usize] ^ t[3 - i][w[4 + i] as usize];
        }
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// CRC-32C (Castagnoli) checksum of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    !crc32c_update(!0, bytes)
}

/// The header an integrity frame puts before `body`:
/// `magic | body length | crc32c(body)`.
pub fn frame_header(body: &[u8]) -> [u8; FRAME_HEADER_BYTES] {
    frame_header_of(body.len() as u32, crc32c(body))
}

/// [`frame_header`] of a body known by its length and checksum alone: what
/// a writer that streamed the body out patches in afterwards.
pub fn frame_header_of(len: u32, crc: u32) -> [u8; FRAME_HEADER_BYTES] {
    let mut header = [0; FRAME_HEADER_BYTES];
    header[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&len.to_le_bytes());
    header[8..].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Wraps an encoded datagram body in an integrity frame:
/// [`frame_header`]`(body) | body`.
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    out.extend_from_slice(&frame_header(body));
    out.extend_from_slice(body);
    out
}

/// Encodes `value` straight into an integrity frame: the body is written
/// once, behind a reserved header that is filled in afterwards.  The bytes
/// equal `encode_frame(&value.to_bytes())`, minus one allocation and one
/// copy of the body.  Sizes the buffer with [`Wire::wire_size`], so hot
/// callers want a type that overrides it.
pub fn encode_framed<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + value.wire_size() as usize);
    out.resize(FRAME_HEADER_BYTES, 0);
    value.encode(&mut out);
    let header = frame_header(&out[FRAME_HEADER_BYTES..]);
    out[..FRAME_HEADER_BYTES].copy_from_slice(&header);
    out
}

/// Verifies a frame's magic, length, and checksum, returning the body.
///
/// Every corruption is caught by one of the checks: a flip in the magic
/// fails the magic test, a flip in the length field leaves the body short
/// ([`WireError::Truncated`]) or long ([`WireError::Trailing`]), and a
/// flip in the body or the checksum field fails the CRC.
///
/// # Errors
///
/// [`WireError::BadMagic`], [`WireError::Truncated`],
/// [`WireError::Trailing`], or [`WireError::Checksum`] as above.
pub fn decode_frame(frame: &[u8]) -> Result<&[u8], WireError> {
    let mut r = Reader::new(frame);
    let magic = u32::decode(&mut r)?;
    if magic != FRAME_MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let len = u32::decode(&mut r)? as usize;
    let expected = u32::decode(&mut r)?;
    let body = r.take(len)?;
    r.finish()?;
    let got = crc32c(body);
    if got != expected {
        return Err(WireError::Checksum { expected, got });
    }
    Ok(body)
}

// Wire implementations for the page-substrate vocabulary, kept here so the
// page crate stays free of serialization concerns.
use cvm_page::{Bitmap, Diff, GAddr, PageBitmaps, PageId};

impl Wire for PageId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PageId(u32::decode(r)?))
    }
    fn wire_size(&self) -> u64 {
        4
    }
    fn min_wire_size() -> u64 {
        4
    }
}

impl Wire for GAddr {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GAddr(u64::decode(r)?))
    }
    fn wire_size(&self) -> u64 {
        8
    }
    fn min_wire_size() -> u64 {
        8
    }
}

impl Wire for Bitmap {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        u64::encode_slice(self.raw(), buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let nbits = u32::decode(r)? as usize;
        let nwords = (nbits as u64).div_ceil(64);
        let nwords = r.check_count(nwords, 8)?;
        // The word count is known arithmetically from the bit-length
        // prefix, so the whole word region is taken with one bounds check
        // and bulk-converted — no per-word cursor arithmetic on the hot
        // bitmap-reply path.
        Ok(Bitmap::from_raw(nbits, u64::decode_vec(r, nwords)?))
    }
    fn wire_size(&self) -> u64 {
        4 + self.wire_bytes()
    }
    fn min_wire_size() -> u64 {
        4
    }
}

impl Wire for PageBitmaps {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.read.encode(buf);
        self.write.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PageBitmaps {
            read: Bitmap::decode(r)?,
            write: Bitmap::decode(r)?,
        })
    }
    fn wire_size(&self) -> u64 {
        self.read.wire_size() + self.write.wire_size()
    }
    fn min_wire_size() -> u64 {
        8
    }
}

impl Wire for Diff {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.page.encode(buf);
        self.entries.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Diff {
            page: PageId::decode(r)?,
            entries: Vec::<(u32, u64)>::decode(r)?,
        })
    }
    fn wire_size(&self) -> u64 {
        self.page.wire_size() + 4 + self.entries.len() as u64 * 12
    }
    fn min_wire_size() -> u64 {
        8
    }
}

// Wire implementations for the vclock vocabulary types, kept here so the
// vclock crate stays dependency-free.
use cvm_vclock::{IntervalId, IntervalStamp, ProcId, VClock};

impl Wire for ProcId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ProcId(u16::decode(r)?))
    }
    fn wire_size(&self) -> u64 {
        2
    }
    fn min_wire_size() -> u64 {
        2
    }
}

impl Wire for VClock {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.entries().to_vec().encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(VClock::from(Vec::<u32>::decode(r)?))
    }
    fn wire_size(&self) -> u64 {
        4 + self.len() as u64 * 4
    }
    fn min_wire_size() -> u64 {
        4
    }
}

impl Wire for IntervalId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.proc.encode(buf);
        self.index.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(IntervalId {
            proc: ProcId::decode(r)?,
            index: u32::decode(r)?,
        })
    }
    fn wire_size(&self) -> u64 {
        6
    }
    fn min_wire_size() -> u64 {
        6
    }
}

impl Wire for IntervalStamp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.vc.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = IntervalId::decode(r)?;
        let vc = VClock::decode(r)?;
        // `IntervalStamp::new` asserts the stamp's own-entry invariant;
        // on wire input that must be a structured error, not a panic.
        if id.proc.index() >= vc.len() || vc.get(id.proc) != id.index {
            return Err(WireError::BadTag {
                what: "IntervalStamp(own entry)",
                tag: 0,
            });
        }
        Ok(IntervalStamp::new(id, vc))
    }
    fn wire_size(&self) -> u64 {
        self.id.wire_size() + self.vc.wire_size()
    }
    fn min_wire_size() -> u64 {
        10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len() as u64, v.wire_size(), "wire_size mismatch");
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(0xabu8);
        roundtrip(0x1234u16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(-1i32);
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.25f64);
        roundtrip(f64::NEG_INFINITY);
    }

    #[test]
    fn collection_roundtrips() {
        roundtrip(Vec::<u32>::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip((5u8, vec![1u16, 2]));
        roundtrip("hello".to_string());
        roundtrip(String::new());
    }

    #[test]
    fn arc_is_wire_transparent() {
        use std::sync::Arc;
        roundtrip(Arc::new(vec![1u64, 2, 3]));
        roundtrip(vec![Arc::new(7u32), Arc::new(8)]);
        // An Arc'd value encodes identically to the bare value.
        let v = vec![5u32, 6];
        assert_eq!(Arc::new(v.clone()).to_bytes(), v.to_bytes());
        assert_eq!(Arc::new(v.clone()).wire_size(), v.wire_size());
    }

    #[test]
    fn vclock_vocabulary_roundtrips() {
        roundtrip(ProcId(3));
        roundtrip(VClock::from(vec![1, 2, 3]));
        roundtrip(IntervalId::new(ProcId(1), 9));
        roundtrip(IntervalStamp::new(
            IntervalId::new(ProcId(1), 9),
            VClock::from(vec![4, 9]),
        ));
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = 0xdead_beefu32.to_bytes();
        assert!(matches!(
            u64::from_bytes(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 1u32.to_bytes();
        bytes.push(0);
        assert_eq!(u32::from_bytes(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        assert!(matches!(
            bool::from_bytes(&[7]),
            Err(WireError::BadTag { what: "bool", .. })
        ));
    }

    #[test]
    fn hostile_length_rejected() {
        // Declared count of u32::MAX with a 5-byte body must not allocate.
        let mut bytes = u32::MAX.to_bytes();
        bytes.push(1);
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = WireError::Truncated {
            needed: 8,
            remaining: 3,
        };
        assert!(e.to_string().contains("needed 8"));
        let e = WireError::Checksum {
            expected: 1,
            got: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(WireError::BadMagic { got: 0 }.to_string().contains("magic"));
    }

    #[test]
    fn crc32c_known_vector() {
        // The RFC 3720 check value for "123456789".
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_ne!(crc32c(b"a"), crc32c(b"b"));
    }

    #[test]
    fn frame_roundtrips() {
        for body in [&b""[..], b"x", b"hello frame", &[0u8; 300]] {
            let frame = encode_frame(body);
            assert_eq!(frame.len(), FRAME_HEADER_BYTES + body.len());
            assert_eq!(decode_frame(&frame).expect("own frame"), body);
        }
    }

    #[test]
    fn frame_rejects_every_single_bit_flip() {
        let frame = encode_frame(b"some datagram body");
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_frame(&bad).is_err(),
                "bit {bit} flipped yet the frame decoded"
            );
        }
    }

    #[test]
    fn frame_rejects_truncation_and_garbage_tail() {
        let frame = encode_frame(b"body");
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = frame.clone();
        long.push(0xAB);
        assert_eq!(decode_frame(&long), Err(WireError::Trailing(1)));
        let mut wrong_magic = frame;
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&wrong_magic),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn check_count_bounds_allocation() {
        let bytes = [0u8; 16];
        let r = Reader::new(&bytes);
        assert_eq!(r.check_count(2, 8), Ok(2));
        assert_eq!(r.check_count(3, 8), Err(WireError::BadLength(3)));
        // Zero-size elements still count at least one byte each.
        assert_eq!(r.check_count(17, 0), Err(WireError::BadLength(17)));
        // Overflowing count * size must not wrap around to "fits".
        assert_eq!(
            r.check_count(u64::MAX, 8),
            Err(WireError::BadLength(u64::MAX))
        );
    }

    #[test]
    fn hostile_sized_vec_rejected_via_min_wire_size() {
        // 8 declared u64s but only 9 body bytes: the old 1-byte-per-item
        // bound would have allocated; the element-size-aware bound rejects.
        let mut bytes = 8u32.to_bytes();
        bytes.extend_from_slice(&[0; 9]);
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(WireError::BadLength(8))
        ));
    }

    #[test]
    fn forged_interval_stamp_errors_instead_of_panicking() {
        // Stamp whose clock disagrees with its own index.
        let mut bytes = Vec::new();
        IntervalId::new(ProcId(0), 9).encode(&mut bytes);
        VClock::from(vec![3, 1]).encode(&mut bytes);
        assert!(IntervalStamp::from_bytes(&bytes).is_err());
        // Stamp whose proc is outside its own clock.
        let mut bytes = Vec::new();
        IntervalId::new(ProcId(7), 1).encode(&mut bytes);
        VClock::from(vec![3, 1]).encode(&mut bytes);
        assert!(IntervalStamp::from_bytes(&bytes).is_err());
    }
}
