//! Chunk record wire format for the single-sided exchange.
//!
//! Partners `put` chunk *records* into each other's windows. A record is a
//! fixed-size cell — fingerprint, payload length, payload padded to the
//! *payload cap* — so that record offsets are pure arithmetic on the
//! globally known chunk counts (Algorithm 3 plans in chunks, not bytes).
//! The cap is the largest chunk the configured chunker can emit: the
//! fixed chunk size for the paper's page chunker, `max_size` for the CDC
//! chunkers. Variable-length chunks ride in the same cells — the header's
//! explicit length says how much of the cell is payload; padding costs
//! window memory, never wire traffic (the vectored put sends header +
//! payload only). The 24-byte header on a 4 KiB chunk costs 0.6 % — the
//! fingerprint has to travel anyway for content-addressed storage on the
//! receiver.

use bytes::Bytes;
use replidedup_buf::Chunk;
use replidedup_hash::Fingerprint;

/// Bytes of record header: fingerprint + little-endian `u32` payload length.
pub const RECORD_HEADER: usize = Fingerprint::SIZE + 4;

/// Total record cell size for a given chunk size.
pub const fn record_size(payload_cap: usize) -> usize {
    RECORD_HEADER + payload_cap
}

/// The [`RECORD_HEADER`]-byte header of a record whose payload is `len`
/// bytes, as a stack array. The zero-copy exchange sends `[header, chunk]`
/// as one vectored RMA put — the chunk's bytes never leave the application
/// buffer on the sender side, and the cell's padding stays untouched
/// (windows are zero-initialised, so the gap is already zero).
pub fn record_header(fp: &Fingerprint, len: usize, payload_cap: usize) -> [u8; RECORD_HEADER] {
    assert!(
        len <= payload_cap,
        "chunk of {len} exceeds payload cap {payload_cap}"
    );
    let mut header = [0u8; RECORD_HEADER];
    header[..Fingerprint::SIZE].copy_from_slice(fp.as_bytes());
    header[Fingerprint::SIZE..].copy_from_slice(&(len as u32).to_le_bytes());
    header
}

/// Record parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The region is shorter than `count` full records.
    Truncated {
        /// Record index at which input ran out.
        at: usize,
    },
    /// A record header declares a payload longer than the chunk size.
    BadLength {
        /// Record index with the bad header.
        at: usize,
        /// The declared length.
        len: u32,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated { at } => write!(f, "record region truncated at record {at}"),
            RecordError::BadLength { at, len } => {
                write!(f, "record {at} declares impossible payload length {len}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Parse exactly `count` records from the front of `buf` *without copying
/// any payload bytes*: each returned [`Chunk`] is a zero-copy sub-slice of
/// `buf`'s allocation. This is how the commit phase lifts received records
/// straight out of the (stolen) exchange window into storage.
pub fn parse_records_zc(
    buf: &Bytes,
    payload_cap: usize,
    count: usize,
) -> Result<Vec<(Fingerprint, Chunk)>, RecordError> {
    let cell = record_size(payload_cap);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let start = i * cell;
        let header = buf.get(start..start + cell).and_then(|record| {
            let (fp, rest) = record.split_first_chunk::<{ Fingerprint::SIZE }>()?;
            Some((
                Fingerprint::from_bytes(*fp),
                u32::from_le_bytes(*rest.first_chunk()?),
            ))
        });
        let Some((fp, len)) = header else {
            return Err(RecordError::Truncated { at: i });
        };
        if len as usize > payload_cap {
            return Err(RecordError::BadLength { at: i, len });
        }
        let payload =
            Chunk::from(buf.slice(start + RECORD_HEADER..start + RECORD_HEADER + len as usize));
        out.push((fp, payload));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::synthetic(n)
    }

    /// Append one padded cell to `out`, as a vectored put of
    /// `[record_header, data]` leaves it in a zero-initialised window.
    fn encode_record(out: &mut Vec<u8>, fp: &Fingerprint, data: &[u8], payload_cap: usize) {
        out.extend_from_slice(&record_header(fp, data.len(), payload_cap));
        out.extend_from_slice(data);
        out.resize(out.len() + (payload_cap - data.len()), 0);
    }

    #[test]
    fn roundtrip_full_and_tail_chunks() {
        let mut buf = Vec::new();
        encode_record(&mut buf, &fp(1), &[0xAA; 8], 8);
        encode_record(&mut buf, &fp(2), &[0xBB; 3], 8); // short tail
        assert_eq!(buf.len(), 2 * record_size(8));
        let records = parse_records_zc(&Bytes::from(buf), 8, 2).unwrap();
        assert_eq!(records[0].0, fp(1));
        assert_eq!(*records[0].1, [0xAA; 8]);
        assert_eq!(records[1].0, fp(2));
        assert_eq!(*records[1].1, [0xBB; 3]);
    }

    #[test]
    fn empty_payload_is_legal() {
        let mut buf = Vec::new();
        encode_record(&mut buf, &fp(1), &[], 8);
        let records = parse_records_zc(&Bytes::from(buf), 8, 1).unwrap();
        assert_eq!(records[0].1.len(), 0);
    }

    #[test]
    fn truncated_region_errors() {
        let mut buf = Vec::new();
        encode_record(&mut buf, &fp(1), &[1; 8], 8);
        assert_eq!(
            parse_records_zc(&Bytes::from(buf), 8, 2),
            Err(RecordError::Truncated { at: 1 })
        );
    }

    #[test]
    fn bad_length_errors() {
        let mut buf = Vec::new();
        encode_record(&mut buf, &fp(1), &[1; 8], 8);
        buf[Fingerprint::SIZE] = 0xFF; // corrupt the length field
        assert!(matches!(
            parse_records_zc(&Bytes::from(buf), 8, 1),
            Err(RecordError::BadLength { at: 0, .. })
        ));
    }

    #[test]
    fn zero_count_parses_empty() {
        assert_eq!(parse_records_zc(&Bytes::new(), 8, 0).unwrap(), Vec::new());
    }

    #[test]
    #[should_panic(expected = "exceeds payload cap")]
    fn oversized_chunk_panics() {
        record_header(&fp(1), 9, 8);
    }

    #[test]
    fn zc_parse_shares_the_region_allocation() {
        let mut buf = Vec::new();
        encode_record(&mut buf, &fp(1), &[0xAA; 8], 8);
        encode_record(&mut buf, &fp(2), &[0xBB; 3], 8);
        let region = Bytes::from(buf);
        let records = parse_records_zc(&region, 8, 2).unwrap();
        for (_, payload) in &records {
            assert!(
                payload.as_bytes().shares_allocation_with(&region),
                "zero-copy parse must slice, not copy"
            );
        }
    }

    #[test]
    fn zc_parse_errors_match() {
        // Errors name the failing record, not only the first one: a region
        // cut mid-cell, and a bad length behind a good record.
        let mut buf = Vec::new();
        encode_record(&mut buf, &fp(1), &[1; 8], 8);
        encode_record(&mut buf, &fp(2), &[2; 8], 8);
        let cut = Bytes::from(buf[..buf.len() - 1].to_vec());
        assert_eq!(
            parse_records_zc(&cut, 8, 2),
            Err(RecordError::Truncated { at: 1 })
        );
        buf[record_size(8) + Fingerprint::SIZE] = 0xFF;
        assert!(matches!(
            parse_records_zc(&Bytes::from(buf), 8, 2),
            Err(RecordError::BadLength { at: 1, .. })
        ));
    }

    #[test]
    fn record_header_matches_encoded_record_prefix() {
        let mut buf = Vec::new();
        encode_record(&mut buf, &fp(7), &[9; 5], 8);
        let header = record_header(&fp(7), 5, 8);
        assert_eq!(header[..Fingerprint::SIZE], *fp(7).as_bytes());
        assert_eq!(header[Fingerprint::SIZE..], 5u32.to_le_bytes());
        assert_eq!(buf[..RECORD_HEADER], header);
    }

    #[test]
    fn error_display() {
        assert!(RecordError::Truncated { at: 3 }.to_string().contains('3'));
        assert!(RecordError::BadLength { at: 0, len: 99 }
            .to_string()
            .contains("99"));
    }
}
