//! Systematic Reed-Solomon erasure coding: `k` data shards + `m` parity
//! shards, any `k` of the `k + m` recover the payload.
//!
//! The generator matrix is `[I_k ; C]` where `C` is the `m x k` Cauchy
//! matrix `C[p][j] = 1 / (x_p ^ y_j)` with `x_p = k + p` and `y_j = j`.
//! The two index sets are disjoint bytes, so every entry is well-defined,
//! and — the property replication cannot give you — **every** `k x k`
//! row-submatrix of `[I_k ; C]` is invertible: expanding the determinant
//! along the identity rows reduces it to a minor of `C`, and every square
//! submatrix of a Cauchy matrix is nonsingular. (The analogous
//! Vandermonde construction famously lacks this guarantee.) Decoding from
//! an arbitrary `k`-subset is therefore a Gauss-Jordan inversion in
//! GF(2^8) followed by one matrix-vector product per byte column.
//!
//! Shards carry their *true* lengths: the payload is cut into `k`
//! contiguous slices of `ceil(len / k)` bytes (the last one short, maybe
//! empty) and the zero padding that makes them equal-length for the field
//! arithmetic is purely logical — it is never stored or sent. Data shards
//! returned by [`RsCode::encode`] are zero-copy slices of the payload.
//!
//! Decode paths are panic-free by contract (the crate denies clippy's
//! panic lints outside tests): every failure mode is a typed [`EcError`].

use bytes::Bytes;

use crate::gf;

/// Typed failures of erasure encode/decode. Decoding never panics; every
/// malformed input or unsatisfiable request lands here.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EcError {
    /// Rejected `(k, m)` geometry: both must be at least 1 and
    /// `k + m <= 255` (shard indices must be distinct GF(2^8) points).
    InvalidParams {
        /// Requested data shard count.
        k: u8,
        /// Requested parity shard count.
        m: u8,
    },
    /// A shard index is outside `0..k+m`.
    ShardIndexOutOfRange {
        /// The offending index.
        index: u8,
        /// Total shards of this code (`k + m`).
        shards: u8,
    },
    /// The same shard index was supplied twice.
    DuplicateShard {
        /// The duplicated index.
        index: u8,
    },
    /// Fewer than `k` distinct shards survive: the stripe is unrecoverable.
    NotEnoughShards {
        /// Distinct shards available.
        have: usize,
        /// Shards required (`k`).
        need: u8,
    },
    /// A supplied shard's length does not match the stripe geometry.
    ShardLengthMismatch {
        /// The shard's index.
        index: u8,
        /// The length supplied.
        len: usize,
        /// The length the geometry requires.
        expected: usize,
    },
    /// The decode submatrix was singular. Unreachable for this code's
    /// Cauchy construction; kept as a typed error so decoding stays total.
    SingularMatrix,
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::InvalidParams { k, m } => {
                write!(
                    f,
                    "invalid RS geometry k={k} m={m} (need k,m >= 1 and k+m <= 255)"
                )
            }
            EcError::ShardIndexOutOfRange { index, shards } => {
                write!(
                    f,
                    "shard index {index} out of range (code has {shards} shards)"
                )
            }
            EcError::DuplicateShard { index } => write!(f, "shard index {index} supplied twice"),
            EcError::NotEnoughShards { have, need } => {
                write!(f, "only {have} shards survive, {need} needed")
            }
            EcError::ShardLengthMismatch {
                index,
                len,
                expected,
            } => {
                write!(
                    f,
                    "shard {index} is {len} bytes, geometry requires {expected}"
                )
            }
            EcError::SingularMatrix => write!(f, "decode submatrix is singular"),
        }
    }
}

impl std::error::Error for EcError {}

/// A validated `(k, m)` Reed-Solomon code with its precomputed Cauchy
/// parity matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsCode {
    k: u8,
    m: u8,
    /// `m x k` parity coefficients, row-major.
    parity: Vec<u8>,
}

impl RsCode {
    /// Build the code; rejects geometries whose shard indices would not be
    /// distinct field points.
    pub fn new(k: u8, m: u8) -> Result<Self, EcError> {
        if k == 0 || m == 0 || (k as usize) + (m as usize) > 255 {
            return Err(EcError::InvalidParams { k, m });
        }
        let mut parity = Vec::with_capacity(k as usize * m as usize);
        for p in 0..m {
            for j in 0..k {
                // x_p ^ y_j is non-zero (the index sets are disjoint), so
                // the inverse exists; the fallback keeps this panic-free.
                parity.push(gf::inv((k + p) ^ j).unwrap_or_default());
            }
        }
        Ok(Self { k, m, parity })
    }

    /// Data shard count.
    pub fn k(&self) -> u8 {
        self.k
    }

    /// Parity shard count (the number of simultaneous losses tolerated).
    pub fn m(&self) -> u8 {
        self.m
    }

    /// Total shards per stripe (`k + m`).
    pub fn shards(&self) -> u8 {
        self.k + self.m
    }

    /// Logical shard length for a payload of `total_len` bytes.
    pub fn shard_len(&self, total_len: usize) -> usize {
        total_len.div_ceil(self.k as usize)
    }

    /// Byte range of data shard `j` within the payload (empty for shards
    /// past the end of a short payload).
    pub fn data_range(&self, j: u8, total_len: usize) -> std::ops::Range<usize> {
        let l = self.shard_len(total_len);
        let start = (j as usize * l).min(total_len);
        let end = ((j as usize + 1) * l).min(total_len);
        start..end
    }

    /// True (stored) length of shard `index`: data shards carry their
    /// payload slice, parity shards are always full-length.
    pub fn true_len(&self, index: u8, total_len: usize) -> usize {
        if index < self.k {
            self.data_range(index, total_len).len()
        } else {
            self.shard_len(total_len)
        }
    }

    /// Encode a payload into `k + m` shards: the first `k` are zero-copy
    /// slices of `payload` (true lengths, logical zero-pad), the last `m`
    /// are freshly computed parity of `shard_len` bytes each.
    pub fn encode(&self, payload: &Bytes) -> Vec<Bytes> {
        let total = payload.len();
        let l = self.shard_len(total);
        let mut shards = Vec::with_capacity(self.shards() as usize);
        for j in 0..self.k {
            shards.push(payload.slice(self.data_range(j, total)));
        }
        let parity: Vec<Bytes> = self
            .parity
            .chunks_exact(self.k as usize)
            .map(|row| {
                let mut buf = vec![0u8; l];
                dot_acc(
                    &mut buf,
                    shards.iter().map(Bytes::as_ref).zip(row.iter().copied()),
                );
                Bytes::from(buf)
            })
            .collect();
        shards.extend(parity);
        shards
    }

    /// The encoding row of shard `index`: a unit vector for data shards,
    /// the Cauchy row for parity shards.
    fn row_of(&self, index: u8) -> Vec<u8> {
        let mut row = vec![0u8; self.k as usize];
        if index < self.k {
            row[index as usize] = 1;
        } else {
            let p = (index - self.k) as usize;
            row.copy_from_slice(&self.parity[p * self.k as usize..(p + 1) * self.k as usize]);
        }
        row
    }

    /// Validate a survivor set and select the `k` lowest-indexed shards.
    /// Returns `(chosen_positions_into_input, inverse_matrix)` where the
    /// inverse maps the chosen shards back to the original data shards.
    fn decode_matrix(
        &self,
        shards: &[(u8, &[u8])],
        total_len: usize,
    ) -> Result<(Vec<usize>, Vec<u8>), EcError> {
        let kk = self.k as usize;
        let mut seen = [false; 256];
        for &(index, data) in shards {
            if index >= self.shards() {
                return Err(EcError::ShardIndexOutOfRange {
                    index,
                    shards: self.shards(),
                });
            }
            if seen[index as usize] {
                return Err(EcError::DuplicateShard { index });
            }
            seen[index as usize] = true;
            let expected = self.true_len(index, total_len);
            if data.len() != expected {
                return Err(EcError::ShardLengthMismatch {
                    index,
                    len: data.len(),
                    expected,
                });
            }
        }
        if shards.len() < kk {
            return Err(EcError::NotEnoughShards {
                have: shards.len(),
                need: self.k,
            });
        }
        // Deterministic choice: the k lowest shard indices among survivors.
        let mut order: Vec<usize> = (0..shards.len()).collect();
        order.sort_unstable_by_key(|&i| shards[i].0);
        order.truncate(kk);

        // Gauss-Jordan inversion of the chosen rows over GF(2^8).
        let mut mat = Vec::with_capacity(kk * kk);
        for &pos in &order {
            mat.extend_from_slice(&self.row_of(shards[pos].0));
        }
        let mut inv = vec![0u8; kk * kk];
        for i in 0..kk {
            inv[i * kk + i] = 1;
        }
        for col in 0..kk {
            let pivot = (col..kk)
                .find(|&r| mat[r * kk + col] != 0)
                .ok_or(EcError::SingularMatrix)?;
            if pivot != col {
                for c in 0..kk {
                    mat.swap(pivot * kk + c, col * kk + c);
                    inv.swap(pivot * kk + c, col * kk + c);
                }
            }
            let scale = gf::inv(mat[col * kk + col]).ok_or(EcError::SingularMatrix)?;
            for c in 0..kk {
                mat[col * kk + c] = gf::mul(mat[col * kk + c], scale);
                inv[col * kk + c] = gf::mul(inv[col * kk + c], scale);
            }
            for r in 0..kk {
                let factor = mat[r * kk + col];
                if r == col || factor == 0 {
                    continue;
                }
                for c in 0..kk {
                    mat[r * kk + c] = gf::add(mat[r * kk + c], gf::mul(factor, mat[col * kk + c]));
                    inv[r * kk + c] = gf::add(inv[r * kk + c], gf::mul(factor, inv[col * kk + c]));
                }
            }
        }
        Ok((order, inv))
    }

    /// Append data shard `j` (its true length) to `out` from the survivors
    /// chosen by [`RsCode::decode_matrix`]: a surviving data shard is
    /// copied once; a missing one is zero-filled and accumulated in place
    /// from row `j` of the inverse. Only the true length is written: the
    /// logical zero padding of a short shard is never read back.
    fn push_data_shard(
        &self,
        out: &mut Vec<u8>,
        j: u8,
        (order, inv): (&[usize], &[u8]),
        shards: &[(u8, &[u8])],
        total_len: usize,
    ) {
        // A surviving data shard is always chosen: data indices are below
        // every parity index.
        if let Some(&pos) = order.iter().find(|&&p| shards[p].0 == j) {
            out.extend_from_slice(shards[pos].1);
            return;
        }
        let start = out.len();
        out.resize(start + self.data_range(j, total_len).len(), 0);
        let row = &inv[j as usize * order.len()..];
        let terms = order.iter().map(|&pos| shards[pos].1);
        dot_acc(&mut out[start..], terms.zip(row.iter().copied()));
    }

    /// Decode the original payload from any `k` of the `k + m` shards.
    /// `shards` are `(index, bytes)` pairs with true lengths; `total_len`
    /// is the payload length recorded at encode time. The payload is built
    /// in one allocation: each surviving data shard is copied into it once,
    /// each missing one is accumulated in place.
    pub fn decode(&self, shards: &[(u8, &[u8])], total_len: usize) -> Result<Vec<u8>, EcError> {
        let (order, inv) = self.decode_matrix(shards, total_len)?;
        let mut out = Vec::with_capacity(total_len);
        for j in 0..self.k {
            self.push_data_shard(&mut out, j, (&order, &inv), shards, total_len);
        }
        Ok(out)
    }

    /// Rebuild one lost shard (data or parity, true length) from any `k`
    /// survivors — the repair collective's primitive. A data shard decodes
    /// only its own row; a parity shard re-encodes its row over the decoded
    /// payload.
    pub fn reconstruct_shard(
        &self,
        shards: &[(u8, &[u8])],
        index: u8,
        total_len: usize,
    ) -> Result<Vec<u8>, EcError> {
        if index >= self.shards() {
            return Err(EcError::ShardIndexOutOfRange {
                index,
                shards: self.shards(),
            });
        }
        if index < self.k {
            let (order, inv) = self.decode_matrix(shards, total_len)?;
            let mut shard = Vec::with_capacity(self.true_len(index, total_len));
            self.push_data_shard(&mut shard, index, (&order, &inv), shards, total_len);
            return Ok(shard);
        }
        let payload = self.decode(shards, total_len)?;
        let row = &self.parity[(index - self.k) as usize * self.k as usize..];
        let data = (0..self.k).map(|j| &payload[self.data_range(j, total_len)]);
        let mut buf = vec![0u8; self.shard_len(total_len)];
        dot_acc(&mut buf, data.zip(row.iter().copied()));
        Ok(buf)
    }

    /// Check stored parity against the data it should encode, without
    /// decoding or allocating: each parity row is recomputed from the `k`
    /// data shards one 4 KiB column block at a time into a scratch block
    /// and compared with the stored parity while both are in cache.
    ///
    /// `data[j]` is data shard `j` at its true length; `parity` holds
    /// `(index, bytes)` parity copies, any number per index. Returns the
    /// parity indices, ascending, with at least one copy that disagrees
    /// (a copy of the wrong length disagrees); empty — and unallocated —
    /// when every copy agrees. Fewer than `k` data shards, one of the
    /// wrong length, more than `k`, or a parity index outside `k..k+m` is
    /// a typed error.
    pub fn parity_mismatches(
        &self,
        data: &[&[u8]],
        parity: &[(u8, &[u8])],
        total_len: usize,
    ) -> Result<Vec<u8>, EcError> {
        let kk = self.k as usize;
        if data.len() < kk {
            return Err(EcError::NotEnoughShards {
                have: data.len(),
                need: self.k,
            });
        }
        if data.len() > kk {
            // The first extra slot would be shard `k`, which is parity.
            return Err(EcError::ShardIndexOutOfRange {
                index: self.k,
                shards: self.shards(),
            });
        }
        for (j, shard) in (0..self.k).zip(data) {
            let expected = self.true_len(j, total_len);
            if shard.len() != expected {
                return Err(EcError::ShardLengthMismatch {
                    index: j,
                    len: shard.len(),
                    expected,
                });
            }
        }
        let l = self.shard_len(total_len);
        // `bad[i]`: some copy of parity shard `i` disagrees; `held[i]`: it
        // has a copy at all. A row is recomputed only while both say so.
        let (mut bad, mut held) = ([false; 256], [false; 256]);
        for &(index, bytes) in parity {
            if index < self.k || index >= self.shards() {
                return Err(EcError::ShardIndexOutOfRange {
                    index,
                    shards: self.shards(),
                });
            }
            held[index as usize] = true;
            bad[index as usize] |= bytes.len() != l;
        }
        let mut scratch = [0u8; BLOCK];
        for start in (0..l).step_by(BLOCK) {
            let block = &mut scratch[..BLOCK.min(l - start)];
            for (index, row) in (self.k..self.shards()).zip(self.parity.chunks_exact(kk)) {
                let i = index as usize;
                if !held[i] || bad[i] {
                    continue;
                }
                block.fill(0);
                let terms = data.iter().map(|d| d.get(start..).unwrap_or_default());
                dot_acc(block, terms.zip(row.iter().copied()));
                let want: &[u8] = block;
                bad[i] = parity
                    .iter()
                    .filter(|(copy, _)| *copy == index)
                    .any(|(_, bytes)| bytes.get(start..start + want.len()) != Some(want));
            }
        }
        Ok((self.k..self.shards())
            .filter(|&i| bad[i as usize])
            .collect())
    }
}

/// Column width of [`dot_acc`] and of [`RsCode::parity_mismatches`]: one
/// destination block plus its `k` source blocks stay in L1 while they
/// accumulate.
const BLOCK: usize = 4096;

/// `dst[i] ^= Σ coef * src[i]` over the `(src, coef)` terms, one column
/// block at a time, so each destination byte is loaded and stored from
/// cache instead of once per term from memory. Sources shorter than `dst`
/// are logically zero-padded, as in [`gf::mul_acc`].
fn dot_acc<'a>(dst: &mut [u8], terms: impl Iterator<Item = (&'a [u8], u8)> + Clone) {
    for (b, block) in dst.chunks_mut(BLOCK).enumerate() {
        for (src, coef) in terms.clone() {
            gf::mul_acc(block, src.get(b * BLOCK..).unwrap_or_default(), coef);
        }
    }
}
