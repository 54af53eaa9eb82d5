//! Dump manifests: the recipe for reassembling a rank's dataset.
//!
//! A collective dump stores each rank's buffer as an ordered list of chunk
//! fingerprints plus each chunk's byte length. The manifest is what makes
//! the paper's scheme *recoverable*: a rank may have discarded chunks that
//! K other ranks were designated to hold, so restart needs the fingerprint
//! list to know what to fetch. The paper leaves the restore path implicit;
//! we replicate manifests to the same partners as data so a failed node's
//! dataset remains reconstructible.
//!
//! Chunk geometry is an explicit per-chunk length list, not a fixed chunk
//! size: content-defined chunkers emit variable-length chunks, and the
//! fixed chunker is just the special case where every length but the tail
//! is equal. (Earlier manifest versions stored a single `chunk_size`; the
//! wire format changed with the length list — see DESIGN.md §14.)

use std::fmt;

use bytes::Bytes;
use replidedup_hash::Fingerprint;
use replidedup_mpi::wire::{Wire, WireError, WireResult};

/// Identifies one collective dump generation (checkpoint number).
pub type DumpId = u64;

/// An internally inconsistent manifest: a recipe that could never
/// reassemble the buffer it claims to describe. Returned by
/// [`Manifest::validate`] and carried inside
/// [`crate::StorageError::InvalidManifest`] when ingest rejects one.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ManifestError {
    /// The fingerprint list and the length list differ in size: every
    /// chunk needs exactly one length.
    LengthCountMismatch {
        /// Rank whose manifest is malformed.
        owner_rank: u32,
        /// Dump generation of the malformed manifest.
        dump_id: DumpId,
        /// Number of fingerprints the manifest lists.
        chunks: u64,
        /// Number of per-chunk lengths the manifest lists.
        lens: u64,
    },
    /// The per-chunk lengths do not sum to `total_len`: the recipe cannot
    /// tile the buffer it claims to describe.
    LengthSumMismatch {
        /// Rank whose manifest is malformed.
        owner_rank: u32,
        /// Dump generation of the malformed manifest.
        dump_id: DumpId,
        /// Sum of the listed chunk lengths.
        sum: u64,
        /// The buffer length the manifest claims.
        total_len: u64,
    },
    /// A listed chunk has length zero: chunkers never emit empty chunks.
    ZeroLengthChunk {
        /// Rank whose manifest is malformed.
        owner_rank: u32,
        /// Dump generation of the malformed manifest.
        dump_id: DumpId,
        /// Index of the zero-length chunk.
        index: u64,
    },
    /// The coded-chunk list is inconsistent: an index out of range, not
    /// strictly increasing, or coded chunks listed without a Reed-Solomon
    /// geometry to decode them with.
    InvalidCoded {
        /// Rank whose manifest is malformed.
        owner_rank: u32,
        /// Dump generation of the malformed manifest.
        dump_id: DumpId,
        /// What the coded-list validation rejected.
        reason: &'static str,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::LengthCountMismatch {
                owner_rank,
                dump_id,
                chunks,
                lens,
            } => write!(
                f,
                "manifest of rank {owner_rank} dump {dump_id} lists {chunks} chunks \
                 but {lens} chunk lengths"
            ),
            ManifestError::LengthSumMismatch {
                owner_rank,
                dump_id,
                sum,
                total_len,
            } => write!(
                f,
                "manifest of rank {owner_rank} dump {dump_id} chunk lengths sum to \
                 {sum} but claims total length {total_len}"
            ),
            ManifestError::ZeroLengthChunk {
                owner_rank,
                dump_id,
                index,
            } => write!(
                f,
                "manifest of rank {owner_rank} dump {dump_id} lists a zero-length \
                 chunk at index {index}"
            ),
            ManifestError::InvalidCoded {
                owner_rank,
                dump_id,
                reason,
            } => write!(
                f,
                "manifest of rank {owner_rank} dump {dump_id} has an invalid \
                 coded-chunk list: {reason}"
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

/// Ordered chunk recipe for one rank's buffer in one dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Rank whose buffer this manifest describes.
    pub owner_rank: u32,
    /// Dump generation.
    pub dump_id: DumpId,
    /// Total buffer length in bytes.
    pub total_len: u64,
    /// Fingerprints of the chunks, in buffer order.
    pub chunks: Vec<Fingerprint>,
    /// Byte length of each chunk, parallel to `chunks`. Variable when the
    /// dump used a content-defined chunker.
    pub chunk_lens: Vec<u32>,
    /// Reed-Solomon geometry `(k, m)` in effect when a coded redundancy
    /// policy dumped this generation; `None` for pure replication. Restore
    /// uses it to know reconstruction is worth attempting before declaring
    /// a chunk lost.
    pub rs: Option<(u8, u8)>,
    /// Indices into `chunks` stored as erasure-coded stripes instead of
    /// replicas, strictly increasing. Empty under pure replication — and
    /// for every chunk whose naturally distributed copies were credited
    /// against stripe redundancy (those stay replicated).
    pub coded: Vec<u64>,
}

impl Manifest {
    /// Manifest for a fixed-stride dump: every chunk is `chunk_size` bytes
    /// except a possibly shorter tail. Mirrors the pre-CDC manifest shape;
    /// mostly a convenience for tests and fixed-chunking callers.
    pub fn fixed_stride(
        owner_rank: u32,
        dump_id: DumpId,
        chunk_size: u32,
        total_len: u64,
        chunks: Vec<Fingerprint>,
    ) -> Self {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let mut chunk_lens = Vec::with_capacity(chunks.len());
        let mut remaining = total_len;
        while remaining > 0 {
            let len = remaining.min(u64::from(chunk_size)) as u32;
            chunk_lens.push(len);
            remaining -= u64::from(len);
        }
        Self {
            owner_rank,
            dump_id,
            total_len,
            chunks,
            chunk_lens,
            rs: None,
            coded: Vec::new(),
        }
    }

    /// Byte length of chunk `i`.
    pub fn chunk_len(&self, i: usize) -> usize {
        self.chunk_lens[i] as usize
    }

    /// Validate internal consistency (length list vs. fingerprints and
    /// total length).
    pub fn validate(&self) -> Result<(), ManifestError> {
        if self.chunks.len() != self.chunk_lens.len() {
            return Err(ManifestError::LengthCountMismatch {
                owner_rank: self.owner_rank,
                dump_id: self.dump_id,
                chunks: self.chunks.len() as u64,
                lens: self.chunk_lens.len() as u64,
            });
        }
        if let Some(index) = self.chunk_lens.iter().position(|&l| l == 0) {
            return Err(ManifestError::ZeroLengthChunk {
                owner_rank: self.owner_rank,
                dump_id: self.dump_id,
                index: index as u64,
            });
        }
        let sum: u64 = self.chunk_lens.iter().map(|&l| u64::from(l)).sum();
        if sum != self.total_len {
            return Err(ManifestError::LengthSumMismatch {
                owner_rank: self.owner_rank,
                dump_id: self.dump_id,
                sum,
                total_len: self.total_len,
            });
        }
        let invalid_coded = |reason| ManifestError::InvalidCoded {
            owner_rank: self.owner_rank,
            dump_id: self.dump_id,
            reason,
        };
        if !self.coded.is_empty() && self.rs.is_none() {
            return Err(invalid_coded("coded chunks without an RS geometry"));
        }
        if let Some((k, m)) = self.rs {
            if k == 0 || m == 0 {
                return Err(invalid_coded("degenerate RS geometry"));
            }
        }
        if !self.coded.windows(2).all(|w| w[0] < w[1]) {
            return Err(invalid_coded("coded indices not strictly increasing"));
        }
        if self
            .coded
            .last()
            .is_some_and(|&i| i >= self.chunks.len() as u64)
        {
            return Err(invalid_coded("coded index out of range"));
        }
        Ok(())
    }
}

impl Wire for Manifest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.owner_rank.encode(buf);
        self.dump_id.encode(buf);
        self.total_len.encode(buf);
        self.chunks.encode(buf);
        self.chunk_lens.encode(buf);
        self.rs.encode(buf);
        self.coded.encode(buf);
    }

    fn decode(input: &mut &[u8]) -> WireResult<Self> {
        let m = Manifest {
            owner_rank: u32::decode(input)?,
            dump_id: u64::decode(input)?,
            total_len: u64::decode(input)?,
            chunks: Vec::decode(input)?,
            chunk_lens: Vec::decode(input)?,
            rs: Option::decode(input)?,
            coded: Vec::decode(input)?,
        };
        if m.validate().is_err() {
            return Err(WireError::Malformed { what: "Manifest" });
        }
        Ok(m)
    }
}

/// The one recipe a rank restarts from, stored once per `(owner, dump)`:
/// its [`Manifest`] under the dedup strategies, or its raw buffer under
/// `no-dedup`, which writes buffers verbatim without content addressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recipe {
    /// The fingerprint recipe of a deduplicated buffer.
    Manifest(Manifest),
    /// The raw buffer itself.
    Blob(Bytes),
}

impl Recipe {
    /// Device bytes the recipe occupies: a blob's length. A manifest is
    /// metadata and occupies none.
    pub fn device_bytes(&self) -> u64 {
        match self {
            Recipe::Manifest(_) => 0,
            Recipe::Blob(data) => data.len() as u64,
        }
    }

    /// The manifest, if this recipe is one.
    pub fn manifest(&self) -> Option<&Manifest> {
        match self {
            Recipe::Manifest(m) => Some(m),
            Recipe::Blob(_) => None,
        }
    }

    /// The recipe's wire payload: the encoded manifest, or the blob by
    /// reference.
    pub fn into_bytes(self) -> Bytes {
        match self {
            Recipe::Manifest(m) => m.to_bytes(),
            Recipe::Blob(data) => data,
        }
    }

    /// Read a payload of [`Recipe::into_bytes`] back: as a blob when
    /// `blob`, else as an encoded manifest. The payload does not say which
    /// it is; the storage format of the dump does.
    pub fn from_bytes(blob: bool, data: Bytes) -> WireResult<Self> {
        if blob {
            Ok(Recipe::Blob(data))
        } else {
            Manifest::from_bytes(&data).map(Recipe::Manifest)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest::fixed_stride(
            3,
            7,
            4,
            10,
            vec![
                Fingerprint::synthetic(1),
                Fingerprint::synthetic(2),
                Fingerprint::synthetic(3),
            ],
        )
    }

    #[test]
    fn chunk_len_handles_tail() {
        let m = sample();
        assert_eq!(m.chunk_len(0), 4);
        assert_eq!(m.chunk_len(1), 4);
        assert_eq!(m.chunk_len(2), 2);
        assert_eq!(m.chunk_lens, vec![4, 4, 2]);
    }

    #[test]
    fn validate_accepts_consistent() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn variable_lengths_are_first_class() {
        let m = Manifest {
            owner_rank: 1,
            dump_id: 2,
            total_len: 70,
            chunks: vec![
                Fingerprint::synthetic(1),
                Fingerprint::synthetic(2),
                Fingerprint::synthetic(3),
            ],
            chunk_lens: vec![50, 13, 7],
            rs: None,
            coded: vec![],
        };
        assert!(m.validate().is_ok());
        assert_eq!(m.chunk_len(1), 13);
    }

    #[test]
    fn validate_rejects_mismatched_length_count() {
        let mut m = sample();
        m.chunks.pop();
        assert_eq!(
            m.validate(),
            Err(ManifestError::LengthCountMismatch {
                owner_rank: 3,
                dump_id: 7,
                chunks: 2,
                lens: 3,
            })
        );
    }

    #[test]
    fn validate_rejects_wrong_length_sum() {
        let mut m = sample();
        m.total_len = 100;
        assert_eq!(
            m.validate(),
            Err(ManifestError::LengthSumMismatch {
                owner_rank: 3,
                dump_id: 7,
                sum: 10,
                total_len: 100,
            })
        );
    }

    #[test]
    fn validate_rejects_zero_length_chunk() {
        let mut m = sample();
        m.chunk_lens[1] = 0;
        m.total_len = 6;
        assert_eq!(
            m.validate(),
            Err(ManifestError::ZeroLengthChunk {
                owner_rank: 3,
                dump_id: 7,
                index: 1,
            })
        );
    }

    #[test]
    fn manifest_error_display_names_the_owner() {
        let mut m = sample();
        m.chunks.pop();
        let msg = m.validate().unwrap_err().to_string();
        assert!(msg.contains("rank 3") && msg.contains("dump 7"), "{msg}");
        let mut m = sample();
        m.total_len = 100;
        let msg = m.validate().unwrap_err().to_string();
        assert!(msg.contains("100"), "{msg}");
    }

    #[test]
    fn empty_buffer_manifest_is_valid() {
        let m = Manifest::fixed_stride(0, 0, 4096, 0, vec![]);
        assert!(m.validate().is_ok());
        assert!(m.chunk_lens.is_empty());
    }

    #[test]
    fn wire_roundtrip() {
        let m = sample();
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn wire_roundtrip_variable_lengths() {
        let m = Manifest {
            owner_rank: 9,
            dump_id: 4,
            total_len: 31,
            chunks: vec![Fingerprint::synthetic(8), Fingerprint::synthetic(9)],
            chunk_lens: vec![17, 14],
            rs: Some((4, 2)),
            coded: vec![0],
        };
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn validate_rejects_inconsistent_coded_metadata() {
        // Coded indices without a geometry to decode them.
        let mut m = sample();
        m.coded = vec![0];
        assert!(matches!(
            m.validate(),
            Err(ManifestError::InvalidCoded { .. })
        ));
        // Degenerate geometry.
        let mut m = sample();
        m.rs = Some((0, 2));
        assert!(matches!(
            m.validate(),
            Err(ManifestError::InvalidCoded { .. })
        ));
        // Out-of-order (and duplicate) coded indices.
        let mut m = sample();
        m.rs = Some((4, 2));
        m.coded = vec![1, 1];
        assert!(matches!(
            m.validate(),
            Err(ManifestError::InvalidCoded { .. })
        ));
        // Coded index past the chunk list.
        let mut m = sample();
        m.rs = Some((4, 2));
        m.coded = vec![3];
        assert!(matches!(
            m.validate(),
            Err(ManifestError::InvalidCoded { .. })
        ));
        // A consistent coded manifest passes.
        let mut m = sample();
        m.rs = Some((4, 2));
        m.coded = vec![0, 2];
        assert!(m.validate().is_ok());
    }

    #[test]
    fn wire_rejects_inconsistent_manifest() {
        let mut m = sample();
        m.total_len = 100; // lengths no longer sum to the claimed total
        let mut buf = Vec::new();
        m.owner_rank.encode(&mut buf);
        m.dump_id.encode(&mut buf);
        m.total_len.encode(&mut buf);
        m.chunks.encode(&mut buf);
        m.chunk_lens.encode(&mut buf);
        m.rs.encode(&mut buf);
        m.coded.encode(&mut buf);
        assert!(matches!(
            Manifest::from_bytes(&buf),
            Err(WireError::Malformed { what: "Manifest" })
        ));
    }
}
