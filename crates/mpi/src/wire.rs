//! Minimal binary wire codec for message payloads.
//!
//! The original prototype leans on Boost.MPI's automatic serialization of
//! data structures; this hand-rolled codec plays that role without pulling a
//! serde format crate. All integers are little-endian and fixed-width;
//! sequences are length-prefixed with a `u64`. Encoding is infallible;
//! decoding returns [`WireError`] on truncated or malformed input so a
//! corrupted message can never panic the runtime.

use bytes::Bytes;
use std::fmt;

pub use replidedup_buf::Chunk;

// ---------------------------------------------------------------------------
// Session tag namespaces
// ---------------------------------------------------------------------------

/// Bit position of the 16-bit session namespace inside a message tag.
/// Layout of a tag, most significant bits first: bit 63 marks
/// runtime-internal tags, bit 62 the wake notice, bits 60..=45 the session
/// namespace, and everything below is the caller's tag space. User tags
/// must therefore stay below 2^45.
pub const SESSION_TAG_SHIFT: u32 = 45;

/// Mask selecting the session-namespace bits of a tag.
pub const SESSION_TAG_MASK: u64 = 0xFFFF << SESSION_TAG_SHIFT;

/// Scope `tag` to session namespace `session`. Tags scoped to different
/// sessions never compare equal, so concurrent (or crash-interleaved)
/// sessions multiplexed over one communicator cannot match each other's
/// messages.
///
/// # Panics
/// Debug-asserts that `tag` does not already carry namespace bits.
pub fn session_tag(session: u16, tag: u64) -> u64 {
    debug_assert_eq!(
        tag & SESSION_TAG_MASK,
        0,
        "tag {tag:#x} already carries session bits"
    );
    (u64::from(session) << SESSION_TAG_SHIFT) | tag
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A length prefix or discriminant had an impossible value.
    Malformed {
        /// What was being decoded.
        what: &'static str,
    },
    /// Bytes were left over after the top-level value was decoded.
    TrailingBytes {
        /// Number of unread bytes.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated input while decoding {what}"),
            WireError::Malformed { what } => write!(f, "malformed encoding of {what}"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for decoding.
pub type WireResult<T> = Result<T, WireError>;

/// Types that can cross the wire.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode a value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> WireResult<Self>;

    /// Append the encodings of `items`, one after another (a `Vec<Self>`
    /// body, after its length prefix). Types whose sequence is one byte
    /// run override this and [`Wire::decode_seq`] to move it at once.
    fn encode_seq(items: &[Self], buf: &mut Vec<u8>) {
        for item in items {
            item.encode(buf);
        }
    }

    /// Decode `len` values from the front of `input`, advancing it.
    fn decode_seq(len: usize, input: &mut &[u8]) -> WireResult<Vec<Self>> {
        // Guard capacity against hostile length prefixes: never reserve more
        // than the remaining input could possibly encode (1 byte/element min).
        let mut out = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            out.push(Self::decode(input)?);
        }
        Ok(out)
    }

    /// Encode into a fresh, frozen buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        Bytes::from(buf)
    }

    /// Decode a complete value, rejecting trailing bytes.
    fn from_bytes(mut input: &[u8]) -> WireResult<Self> {
        let v = Self::decode(&mut input)?;
        if input.is_empty() {
            Ok(v)
        } else {
            Err(WireError::TrailingBytes {
                remaining: input.len(),
            })
        }
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize, what: &'static str) -> WireResult<&'a [u8]> {
    if input.len() < n {
        return Err(WireError::Truncated { what });
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// [`take`] for a length known at compile time.
fn take_array<'a, const N: usize>(
    input: &mut &'a [u8],
    what: &'static str,
) -> WireResult<&'a [u8; N]> {
    let (head, tail) = input
        .split_first_chunk()
        .ok_or(WireError::Truncated { what })?;
    *input = tail;
    Ok(head)
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> WireResult<Self> {
                Ok(<$t>::from_le_bytes(*take_array(input, stringify!($t))?))
            }
        }
    )*};
}

wire_int!(u16, u32, u64, i8, i16, i32, i64);

impl Wire for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(take_array::<1>(input, "u8")?[0])
    }

    fn encode_seq(items: &[Self], buf: &mut Vec<u8>) {
        buf.extend_from_slice(items);
    }

    fn decode_seq(len: usize, input: &mut &[u8]) -> WireResult<Vec<Self>> {
        Ok(take(input, len, "u8")?.to_vec())
    }
}

impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        let v = u64::decode(input)?;
        usize::try_from(v).map_err(|_| WireError::Malformed { what: "usize" })
    }
}

impl Wire for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(f64::from_le_bytes(*take_array(input, "f64")?))
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        bool_of(take_array::<1>(input, "bool")?[0])
    }

    fn encode_seq(items: &[Self], buf: &mut Vec<u8>) {
        buf.extend(items.iter().map(|&b| u8::from(b)));
    }

    fn decode_seq(len: usize, input: &mut &[u8]) -> WireResult<Vec<Self>> {
        take(input, len, "bool")?
            .iter()
            .map(|&b| bool_of(b))
            .collect()
    }
}

fn bool_of(byte: u8) -> WireResult<bool> {
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Malformed { what: "bool" }),
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        let len = usize::decode(input)?;
        let raw = take(input, len, "String")?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::Malformed { what: "String" })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        T::encode_seq(self, buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        let len = usize::decode(input)?;
        T::decode_seq(len, input)
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

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        match take(input, 1, "Option")?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            _ => Err(WireError::Malformed { what: "Option" }),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
        self.3.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok((
            A::decode(input)?,
            B::decode(input)?,
            C::decode(input)?,
            D::decode(input)?,
        ))
    }
}

impl<const N: usize> Wire for [u8; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        take_array(input, "byte array").copied()
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}

    fn decode(_input: &mut &[u8]) -> WireResult<Self> {
        Ok(())
    }
}

impl Wire for replidedup_hash::Fingerprint {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        Ok(Self::from_bytes(*take_array(input, "Fingerprint")?))
    }
}

// ---------------------------------------------------------------------------
// Scatter-gather frames
// ---------------------------------------------------------------------------

/// A scatter-gather message body: an ordered sequence of [`Bytes`] segments
/// that is *logically* one contiguous byte stream but is never coalesced on
/// the send path. Headers live in small owned segments; bulk payloads ride
/// along as zero-copy [`Bytes`] views of whatever allocation the sender
/// already holds (an application buffer, a stored chunk). Concatenating the
/// segments yields the frame's canonical contiguous encoding, so a frame
/// that *does* get flattened (e.g. by [`Frame::gather`]) decodes
/// identically to one that stayed scattered.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    segments: Vec<Bytes>,
}

impl Frame {
    /// Empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frame of a single contiguous segment (the shape every pre-frame
    /// message had).
    pub fn single(payload: Bytes) -> Self {
        Self {
            segments: vec![payload],
        }
    }

    /// Append a segment (zero-copy).
    pub fn push(&mut self, segment: Bytes) {
        self.segments.push(segment);
    }

    /// Total logical length: the sum over all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Bytes::len).sum()
    }

    /// Whether the frame carries no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(Bytes::is_empty)
    }

    /// The segments, in order and exactly as pushed (empty ones kept).
    pub(crate) fn into_segments(self) -> Vec<Bytes> {
        self.segments
    }

    /// Flatten into one contiguous [`Bytes`]. Zero-copy when the frame has
    /// at most one segment; otherwise the segments are coalesced into a
    /// fresh buffer and the memcpy is recorded against the copy accounting
    /// ([`replidedup_buf::record_copy`]).
    pub fn gather(mut self) -> Bytes {
        if self.segments.len() <= 1 {
            return self.segments.pop().unwrap_or_default();
        }
        let total = self.len();
        replidedup_buf::record_copy(total);
        let mut out = Vec::with_capacity(total);
        for seg in &self.segments {
            out.extend_from_slice(seg);
        }
        Bytes::from(out)
    }
}

impl From<Bytes> for Frame {
    fn from(payload: Bytes) -> Self {
        Self::single(payload)
    }
}

impl From<Vec<u8>> for Frame {
    /// Zero-copy: the vector becomes the single segment's allocation.
    fn from(v: Vec<u8>) -> Self {
        Self::single(Bytes::from(v))
    }
}

/// Builds a [`Frame`] by interleaving [`Wire`]-encoded header fields with
/// zero-copy payload attachments.
///
/// `put` appends to the current header segment; [`FrameWriter::attach`]
/// writes the payload's `u64` length into the header, seals it, and appends
/// the payload as its own segment — so the payload bytes are never copied,
/// yet the concatenation of all segments is a self-describing contiguous
/// encoding that [`FrameReader`] can replay from either shape.
#[derive(Debug, Default)]
pub struct FrameWriter {
    done: Vec<Bytes>,
    header: Vec<u8>,
}

impl FrameWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode a header value into the current header segment.
    pub fn put<T: Wire>(&mut self, value: &T) {
        value.encode(&mut self.header);
    }

    /// Attach a bulk payload without copying it: its length goes into the
    /// header, the bytes ride as their own segment.
    pub fn attach(&mut self, payload: impl Into<Bytes>) {
        let payload = payload.into();
        (payload.len() as u64).encode(&mut self.header);
        if !self.header.is_empty() {
            self.done
                .push(Bytes::from(std::mem::take(&mut self.header)));
        }
        self.done.push(payload);
    }

    /// Seal the writer into a [`Frame`].
    pub fn finish(mut self) -> Frame {
        if !self.header.is_empty() {
            self.done.push(Bytes::from(self.header));
        }
        Frame {
            segments: self.done,
        }
    }
}

/// Replays a [`Frame`] written by [`FrameWriter`]: header values via
/// [`FrameReader::get`], payloads via [`FrameReader::take_payload`].
///
/// Works on both shapes of the same logical stream — a still-scattered
/// frame (payloads are whole segments, taken zero-copy) and a contiguous
/// one (payloads are zero-copy sub-slices of the single segment). Neither
/// path copies payload bytes; a debug assertion enforces this.
#[derive(Debug)]
pub struct FrameReader {
    segments: Vec<Bytes>,
    /// Index of the segment the cursor is in.
    seg: usize,
    /// Byte offset inside that segment.
    off: usize,
}

impl FrameReader {
    /// Start reading `frame` from the beginning.
    pub fn new(frame: Frame) -> Self {
        Self {
            segments: frame.segments,
            seg: 0,
            off: 0,
        }
    }

    /// Advance past exhausted segments.
    fn normalize(&mut self) {
        while self.seg < self.segments.len() && self.off >= self.segments[self.seg].len() {
            debug_assert_eq!(self.off, self.segments[self.seg].len());
            self.seg += 1;
            self.off = 0;
        }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        let mut total = 0;
        if self.seg < self.segments.len() {
            total += self.segments[self.seg].len() - self.off;
            for s in &self.segments[self.seg + 1..] {
                total += s.len();
            }
        }
        total
    }

    /// Decode a header value. Header fields never span segment boundaries
    /// in writer-produced frames; a value that would is reported as
    /// truncated.
    pub fn get<T: Wire>(&mut self) -> WireResult<T> {
        self.normalize();
        let Some(seg) = self.segments.get(self.seg) else {
            return Err(WireError::Truncated {
                what: "frame header",
            });
        };
        let mut input = &seg[self.off..];
        let before = input.len();
        let v = T::decode(&mut input)?;
        self.off += before - input.len();
        Ok(v)
    }

    /// Take the next attached payload as a zero-copy [`Chunk`].
    pub fn take_payload(&mut self) -> WireResult<Chunk> {
        let len = usize::try_from(self.get::<u64>()?).map_err(|_| WireError::Malformed {
            what: "payload length",
        })?;
        self.normalize();
        if len == 0 {
            return Ok(Chunk::new());
        }
        let Some(seg) = self.segments.get(self.seg) else {
            return Err(WireError::Truncated {
                what: "frame payload",
            });
        };
        let avail = seg.len() - self.off;
        if avail >= len {
            // Contiguous case: the payload is a zero-copy sub-slice of the
            // current segment (for a flattened frame, of the whole frame).
            let payload = seg.slice(self.off..self.off + len);
            debug_assert!(
                payload.shares_allocation_with(seg),
                "contiguous frame decode must not copy the payload"
            );
            self.off += len;
            return Ok(Chunk::from(payload));
        }
        // Scattered payload straddling segments: only reachable for frames
        // assembled outside FrameWriter. Coalesce (recorded).
        if self.remaining() < len {
            return Err(WireError::Truncated {
                what: "frame payload",
            });
        }
        replidedup_buf::record_copy(len);
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            self.normalize();
            let seg = &self.segments[self.seg];
            let want = (len - out.len()).min(seg.len() - self.off);
            out.extend_from_slice(&seg[self.off..self.off + want]);
            self.off += want;
        }
        Ok(Chunk::from(out))
    }

    /// Assert the whole frame was consumed.
    pub fn finish(mut self) -> WireResult<()> {
        self.normalize();
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(WireError::TrailingBytes { remaining }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn session_tags_partition_the_tag_space() {
        assert_eq!(session_tag(0, 7), 7);
        let a = session_tag(1, 7);
        let b = session_tag(2, 7);
        assert_ne!(a, b);
        // Only the namespace bits differ; the caller's tag is untouched.
        assert_eq!(a & !SESSION_TAG_MASK, 7);
        assert_eq!(b & !SESSION_TAG_MASK, 7);
        assert_eq!(a ^ b, session_tag(3, 0));
        // The namespace stays clear of the runtime-internal bits 62/63.
        let top = session_tag(u16::MAX, (1 << SESSION_TAG_SHIFT) - 1);
        assert_eq!(top & (1 << 63), 0);
        assert_eq!(top & (1 << 62), 0);
        assert_eq!(top & SESSION_TAG_MASK, SESSION_TAG_MASK);
        assert_eq!(top & !SESSION_TAG_MASK, (1 << SESSION_TAG_SHIFT) - 1);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0x1234u16);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-5i32);
        roundtrip(i64::MIN);
        roundtrip(3.5f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(123usize);
        roundtrip(());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip("hello".to_string());
        roundtrip(Some(7u32));
        roundtrip(None::<u32>);
        roundtrip((1u32, "x".to_string()));
        roundtrip((1u8, 2u16, vec![3u32]));
        roundtrip((1u8, 2u16, 3u32, "d".to_string()));
        roundtrip([1u8, 2, 3, 4]);
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = 0x1234_5678u32.to_bytes();
        assert!(matches!(
            u32::from_bytes(&bytes[..3]),
            Err(WireError::Truncated { .. })
        ));
    }

    /// The one-run `u8` and `bool` sequences keep the element-wise wire
    /// format, and a length prefix past the input is still `Truncated`.
    #[test]
    fn byte_sequences_match_the_element_wise_encoding() {
        fn check<T: Wire + PartialEq + std::fmt::Debug>(items: Vec<T>) {
            let mut want = Vec::new();
            items.len().encode(&mut want);
            items.iter().for_each(|item| item.encode(&mut want));
            assert_eq!(&items.to_bytes()[..], &want[..]);
            assert_eq!(Vec::<T>::from_bytes(&want).unwrap(), items);
            let hostile = [&u64::MAX.to_le_bytes()[..], &[1]].concat();
            let err = Vec::<T>::from_bytes(&hostile);
            assert!(matches!(err, Err(WireError::Truncated { .. })));
        }
        for len in [0usize, 1, 4096] {
            check((0..len).map(|i| (i * 7) as u8).collect());
            check((0..len).map(|i| i % 3 == 0).collect());
        }
        let two = [&1u64.to_le_bytes()[..], &[2]].concat();
        let err = Vec::<bool>::from_bytes(&two);
        assert_eq!(err, Err(WireError::Malformed { what: "bool" }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u8.to_bytes().to_vec();
        bytes.push(9);
        assert_eq!(
            u8::from_bytes(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn malformed_bool_rejected() {
        assert!(matches!(
            bool::from_bytes(&[2]),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // A Vec claiming u64::MAX elements with an empty body must error,
        // not OOM trying to reserve.
        let bytes = u64::MAX.to_bytes();
        assert!(Vec::<u64>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_utf8_string_rejected() {
        let mut buf = Vec::new();
        2usize.encode(&mut buf);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            String::from_bytes(&buf),
            Err(WireError::Malformed { what: "String" })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = WireError::Truncated { what: "u32" };
        assert!(e.to_string().contains("u32"));
        assert!(WireError::TrailingBytes { remaining: 3 }
            .to_string()
            .contains('3'));
        assert!(WireError::Malformed { what: "bool" }
            .to_string()
            .contains("bool"));
    }

    #[test]
    fn frame_writer_payloads_are_zero_copy() {
        let big = Chunk::from(vec![0xAB; 4096]);
        let mut w = FrameWriter::new();
        w.put(&7u32);
        w.attach(big.clone());
        w.put(&"tail".to_string());
        let frame = w.finish();
        // The payload segment IS the chunk's allocation, not a copy.
        assert!(frame
            .segments
            .iter()
            .any(|s| s.shares_allocation_with(big.as_bytes())));

        let mut r = FrameReader::new(frame);
        assert_eq!(r.get::<u32>().unwrap(), 7);
        let payload = r.take_payload().unwrap();
        assert!(payload.shares_allocation_with(&big));
        assert_eq!(r.get::<String>().unwrap(), "tail");
        r.finish().unwrap();
    }

    #[test]
    fn gathered_frame_decodes_identically_and_slices_zero_copy() {
        let mut w = FrameWriter::new();
        w.put(&1u8);
        w.attach(Chunk::from(vec![9u8; 100]));
        w.attach(Chunk::from(vec![8u8; 50]));
        let flat = w.finish().gather();
        let mut r = FrameReader::new(Frame::single(flat.clone()));
        assert_eq!(r.get::<u8>().unwrap(), 1);
        let a = r.take_payload().unwrap();
        let b = r.take_payload().unwrap();
        assert_eq!(*a, vec![9u8; 100]);
        assert_eq!(*b, vec![8u8; 50]);
        // Contiguous decode: payloads are sub-slices of the flat buffer.
        assert!(a.as_bytes().shares_allocation_with(&flat));
        assert!(b.as_bytes().shares_allocation_with(&flat));
        r.finish().unwrap();
    }

    #[test]
    fn frame_len_and_gather_single_segment() {
        let payload = Bytes::from(vec![1u8, 2, 3]);
        let frame = Frame::single(payload.clone());
        assert_eq!(frame.len(), 3);
        assert!(!frame.is_empty());
        let gathered = frame.gather();
        assert!(gathered.shares_allocation_with(&payload));
        assert!(Frame::new().is_empty());
        assert!(Frame::new().gather().is_empty());
    }

    #[test]
    fn empty_payload_attach_roundtrips() {
        let mut w = FrameWriter::new();
        w.attach(Chunk::new());
        w.put(&42u64);
        let mut r = FrameReader::new(w.finish());
        assert!(r.take_payload().unwrap().is_empty());
        assert_eq!(r.get::<u64>().unwrap(), 42);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_frame_errors_not_panics() {
        let mut r = FrameReader::new(Frame::new());
        assert!(matches!(r.get::<u32>(), Err(WireError::Truncated { .. })));
        // A header claiming a longer payload than present.
        let mut w = FrameWriter::new();
        w.put(&(1000u64)); // masquerades as a payload length
        let mut r = FrameReader::new(w.finish());
        assert!(matches!(r.take_payload(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn unconsumed_frame_reports_trailing() {
        let mut w = FrameWriter::new();
        w.put(&5u32);
        let r = FrameReader::new(w.finish());
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { remaining: 4 }));
    }

    proptest! {
        #[test]
        fn prop_frame_roundtrip_shares_allocations(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8),
            heads in proptest::collection::vec(any::<u64>(), 1..8),
        ) {
            let chunks: Vec<Chunk> = payloads.into_iter().map(Chunk::from).collect();
            let mut w = FrameWriter::new();
            for (i, c) in chunks.iter().enumerate() {
                w.put(&heads[i % heads.len()]);
                w.attach(c.clone());
            }
            let mut r = FrameReader::new(w.finish());
            for (i, c) in chunks.iter().enumerate() {
                prop_assert_eq!(r.get::<u64>().unwrap(), heads[i % heads.len()]);
                let got = r.take_payload().unwrap();
                prop_assert_eq!(&got, c);
                // Non-empty payloads must share the sender's allocation.
                if !c.is_empty() {
                    prop_assert!(got.shares_allocation_with(c));
                }
            }
            r.finish().unwrap();
        }

        #[test]
        fn prop_vec_u64_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..200)) {
            let bytes = v.to_bytes();
            prop_assert_eq!(Vec::<u64>::from_bytes(&bytes).unwrap(), v);
        }

        #[test]
        fn prop_nested_roundtrip(v in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u16>(), 0..8)), 0..50)
        ) {
            let bytes = v.to_bytes();
            prop_assert_eq!(Vec::<(u32, Vec<u16>)>::from_bytes(&bytes).unwrap(), v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".*") {
            let bytes = s.clone().to_bytes();
            prop_assert_eq!(String::from_bytes(&bytes).unwrap(), s);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Arbitrary bytes must decode or error, never panic.
            let _ = Vec::<u64>::from_bytes(&bytes);
            let _ = String::from_bytes(&bytes);
            let _ = Option::<(u32, String)>::from_bytes(&bytes);
        }
    }
}
