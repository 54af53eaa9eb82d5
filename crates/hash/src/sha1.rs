//! SHA-1 (RFC 3174) with two compression kernels.
//!
//! The paper fingerprints 4 KiB memory pages with OpenSSL's SHA-1, which
//! uses the CPU's SHA extensions where they exist. We keep the same
//! algorithm for fidelity (collision behaviour, digest width) without a
//! crypto dependency, and the same hardware path:
//!
//! * on x86-64 CPUs that report `sha`, `sse2`, `ssse3` and `sse4.1` at run
//!   time, a kernel built on the SHA-NI intrinsics from `std::arch`
//!   (`sha1rnds4`, `sha1nexte`, `sha1msg1`, `sha1msg2`) compresses every
//!   run of blocks with the state held in registers;
//! * everywhere else, a portable scalar kernel runs the 80 rounds. It is
//!   also the oracle the SHA-NI kernel is tested against.
//!
//! Both produce identical digests; fingerprints are on-disk format. On a
//! 2-vCPU Intel Xeon with SHA extensions, the benchmark's 4 KiB-page
//! fingerprint probe (`hash.fingerprint_mibps`, `ckpt-shared`) read
//! 1,180–1,470 MiB/s with the SHA-NI kernel and 280–300 MiB/s with the
//! scalar one.
//!
//! SHA-1 is not collision-resistant against adversaries anymore, but the
//! paper's threat model is accidental collisions between checkpoint pages,
//! where 160 bits remain far beyond birthday reach at any realistic chunk
//! count.

/// Streaming SHA-1 hasher.
///
/// ```
/// use replidedup_hash::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha1::digest(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    /// Partially filled block.
    block: [u8; 64],
    block_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Initialization vector from RFC 3174 section 6.1.
    const IV: [u32; 5] = [
        0x6745_2301,
        0xefcd_ab89,
        0x98ba_dcfe,
        0x1032_5476,
        0xc3d2_e1f0,
    ];

    /// Create a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: Self::IV,
            len: 0,
            block: [0; 64],
            block_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Finish and produce the 160-bit digest.
    pub fn finalize(self) -> [u8; 20] {
        self.finish(compress_blocks)
    }

    /// [`Sha1::update`] with the compression kernel as a parameter, so
    /// tests can drive each kernel through the same buffering.
    fn absorb(&mut self, mut data: &[u8], compress: impl Fn(&mut [u32; 5], &[u8])) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.block_len > 0 {
            let take = (64 - self.block_len).min(data.len());
            self.block[self.block_len..self.block_len + take].copy_from_slice(&data[..take]);
            self.block_len += take;
            data = &data[take..];
            if self.block_len < 64 {
                // All of `data` fit in the partial block — which must survive.
                return;
            }
            compress(&mut self.state, &self.block);
            self.block_len = 0;
        }
        let (blocks, rem) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.block[..rem.len()].copy_from_slice(rem);
        self.block_len = rem.len();
    }

    /// [`Sha1::finalize`] with the compression kernel as a parameter.
    fn finish(mut self, compress: impl Fn(&mut [u32; 5], &[u8])) -> [u8; 20] {
        // Padding: the buffered tail, 0x80, zeros, then the 64-bit
        // big-endian bit length in the last 8 bytes. That fits in one block
        // when at most 55 bytes are buffered, else it takes two.
        let n = self.block_len;
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.block[..n]);
        tail[n] = 0x80;
        let end = if n < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &tail[..end]);
        let mut out = [0u8; 20];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compress `blocks` (a whole number of 64-byte blocks) into `state` with
/// the fastest kernel this CPU supports, chosen once per call.
fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "partial block");
    #[cfg(target_arch = "x86_64")]
    if shani::try_compress(state, blocks) {
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress_scalar(state, block);
    }
}

/// Portable kernel: the 80 RFC 3174 rounds over one 64-byte `block`.
fn compress_scalar(state: &mut [u32; 5], block: &[u8]) {
    let mut w = [0u32; 80];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5a82_7999),
            20..=39 => (b ^ c ^ d, 0x6ed9_eba1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
            _ => (b ^ c ^ d, 0xca62_c1d6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

/// The SHA-NI kernel: the standard four-rounds-per-instruction sequence
/// with the message schedule interleaved, one 128-bit register for
/// `ABCD`, two alternating registers for `E`.
#[cfg(target_arch = "x86_64")]
#[allow(
    unsafe_code,
    reason = "SHA-NI intrinsics behind runtime feature detection"
)]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
        _mm_shuffle_epi8, _mm_xor_si128,
    };

    /// Whether the CPU has every feature [`compress`] enables.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compress `blocks` with the SHA extensions if this CPU has them.
    /// Returns `false`, leaving `state` untouched, if it does not.
    pub(super) fn try_compress(state: &mut [u32; 5], blocks: &[u8]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected()` just confirmed that the CPU supports every
        // target feature `compress` is compiled with.
        unsafe { compress(state, blocks) };
        true
    }

    /// Four rounds with round function `$f`. `$e` holds `ABCD` from before
    /// the previous group; `sha1nexte` derives this group's `E` from its
    /// `A` and adds it to message quad `$w`. `ABCD` is saved to `$save`
    /// for the next group.
    macro_rules! rounds4 {
        ($abcd:ident, $e:ident, $save:ident, $w:ident, $f:literal) => {
            $e = _mm_sha1nexte_epu32($e, $w);
            $save = $abcd;
            $abcd = _mm_sha1rnds4_epu32::<$f>($abcd, $e);
        };
    }

    /// Message schedule step while group `g` runs on quad `$cur`
    /// (`W[g]`): finish `$next` (`W[g+1]`) with `sha1msg2`, start `$prev`
    /// (`W[g+3]`) with `sha1msg1`, and fold `W[g]` into `$other`
    /// (`W[g+2]`).
    macro_rules! schedule {
        ($cur:ident, $next:ident, $other:ident, $prev:ident) => {
            $next = _mm_sha1msg2_epu32($next, $cur);
            $prev = _mm_sha1msg1_epu32($prev, $cur);
            $other = _mm_xor_si128($other, $cur);
        };
    }

    /// Compress every 64-byte block of `blocks` into `state`. Words sit in
    /// lanes high to low (`A` and the first word of each quad in lane 3),
    /// the layout the SHA instructions use.
    ///
    /// # Safety
    ///
    /// The CPU must support every enabled feature; [`try_compress`], the
    /// one caller, checks [`detected`] first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress(state: &mut [u32; 5], blocks: &[u8]) {
        // Reverses all 16 bytes: big-endian words, first word in lane 3.
        let be_words = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let [a, b, c, d, e] = state.map(|w| w as i32);
        let mut abcd = _mm_set_epi32(a, b, c, d);
        let mut e0 = _mm_set_epi32(e, 0, 0, 0);
        for block in blocks.chunks_exact(64) {
            let (quads, _) = block.as_chunks::<16>();
            let load = |i: usize| {
                // SAFETY: `quads[i]` is 16 readable bytes and
                // `_mm_loadu_si128` has no alignment requirement.
                let v = unsafe { _mm_loadu_si128(quads[i].as_ptr().cast::<__m128i>()) };
                _mm_shuffle_epi8(v, be_words)
            };
            let (abcd_in, e_in) = (abcd, e0);

            // Rounds 0..4 add the chained E straight into W[0].
            let mut w0 = load(0);
            e0 = _mm_add_epi32(e0, w0);
            let mut e1 = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
            // Rounds 4..16 load the rest of the block.
            let mut w1 = load(1);
            rounds4!(abcd, e1, e0, w1, 0);
            w0 = _mm_sha1msg1_epu32(w0, w1);
            let mut w2 = load(2);
            rounds4!(abcd, e0, e1, w2, 0);
            w1 = _mm_sha1msg1_epu32(w1, w2);
            w0 = _mm_xor_si128(w0, w2);
            let mut w3 = load(3);
            rounds4!(abcd, e1, e0, w3, 0);
            schedule!(w3, w0, w1, w2);
            // Rounds 16..68 run with the full schedule in flight.
            rounds4!(abcd, e0, e1, w0, 0);
            schedule!(w0, w1, w2, w3);
            rounds4!(abcd, e1, e0, w1, 1);
            schedule!(w1, w2, w3, w0);
            rounds4!(abcd, e0, e1, w2, 1);
            schedule!(w2, w3, w0, w1);
            rounds4!(abcd, e1, e0, w3, 1);
            schedule!(w3, w0, w1, w2);
            rounds4!(abcd, e0, e1, w0, 1);
            schedule!(w0, w1, w2, w3);
            rounds4!(abcd, e1, e0, w1, 1);
            schedule!(w1, w2, w3, w0);
            rounds4!(abcd, e0, e1, w2, 2);
            schedule!(w2, w3, w0, w1);
            rounds4!(abcd, e1, e0, w3, 2);
            schedule!(w3, w0, w1, w2);
            rounds4!(abcd, e0, e1, w0, 2);
            schedule!(w0, w1, w2, w3);
            rounds4!(abcd, e1, e0, w1, 2);
            schedule!(w1, w2, w3, w0);
            rounds4!(abcd, e0, e1, w2, 2);
            schedule!(w2, w3, w0, w1);
            rounds4!(abcd, e1, e0, w3, 3);
            schedule!(w3, w0, w1, w2);
            rounds4!(abcd, e0, e1, w0, 3);
            schedule!(w0, w1, w2, w3);
            // Rounds 68..80: W[17..20] need no further sha1msg1.
            rounds4!(abcd, e1, e0, w1, 3);
            w2 = _mm_sha1msg2_epu32(w2, w1);
            w3 = _mm_xor_si128(w3, w1);
            rounds4!(abcd, e0, e1, w2, 3);
            w3 = _mm_sha1msg2_epu32(w3, w2);
            rounds4!(abcd, e1, e0, w3, 3);

            // Feed-forward: E += rotl30(A before the last group), ABCD += input.
            e0 = _mm_sha1nexte_epu32(e0, e_in);
            abcd = _mm_add_epi32(abcd, abcd_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abcd),
            _mm_extract_epi32::<2>(abcd),
            _mm_extract_epi32::<1>(abcd),
            _mm_extract_epi32::<0>(abcd),
            _mm_extract_epi32::<3>(e0),
        ]
        .map(|w| w as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chunk_ranges, fingerprint_ranges, Sha1ChunkHasher};

    #[cfg(target_arch = "x86_64")]
    use super::shani::detected as sha_ni_detected;
    #[cfg(not(target_arch = "x86_64"))]
    fn sha_ni_detected() -> bool {
        false
    }

    fn hex(d: [u8; 20]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `len` bytes of SplitMix64 output from `seed`.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len.div_ceil(8))
            .flat_map(|_| {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)).to_le_bytes()
            })
            .take(len)
            .collect()
    }

    fn scalar_blocks(state: &mut [u32; 5], blocks: &[u8]) {
        for block in blocks.chunks_exact(64) {
            compress_scalar(state, block);
        }
    }

    // RFC 3174 / FIPS 180 test vectors.
    #[test]
    fn vector_empty() {
        assert_eq!(
            hex(Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn vector_abc() {
        assert_eq!(
            hex(Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn vector_two_blocks() {
        assert_eq!(
            hex(Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(Sha1::digest(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn vector_quick_brown_fox() {
        assert_eq!(
            hex(Sha1::digest(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 256) as u8).collect();
        let expect = Sha1::digest(&data);
        for split in 0..=data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data = vec![0xabu8; 300];
        let mut h = Sha1::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha1::digest(&data));
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths straddling the 55/56/63/64 padding boundaries.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5au8; len];
            let mut h = Sha1::new();
            h.update(&data);
            // Sanity: must match a fresh one-shot.
            assert_eq!(h.finalize(), Sha1::digest(&data), "len {len}");
        }
    }

    /// Multi-block dispatch (SHA-NI here) against per-block scalar rounds,
    /// for every run length up to 33 blocks at every start offset in a
    /// 64-byte window — so every unaligned load position is exercised.
    #[test]
    fn compress_blocks_matches_per_block_scalar_at_every_offset() {
        if !sha_ni_detected() {
            eprintln!("no SHA-NI on this CPU: compress_blocks is the scalar kernel, skipping");
            return;
        }
        let buf = seeded_bytes(21, 64 + 33 * 64);
        for offset in 0..64 {
            for blocks in 1..=33 {
                let run = &buf[offset..offset + blocks * 64];
                let mut fast = Sha1::IV;
                compress_blocks(&mut fast, run);
                let mut slow = Sha1::IV;
                scalar_blocks(&mut slow, run);
                assert_eq!(fast, slow, "offset {offset}, {blocks} blocks");
            }
        }
    }

    /// The five FIPS 180 vectors through `absorb` + `finish` (buffering
    /// and padding) with each kernel named explicitly.
    #[test]
    fn fips_vectors_through_each_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
            (&million_a, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
        ];
        let run = |kernel: fn(&mut [u32; 5], &[u8]), name: &str| {
            for (data, want) in vectors {
                let mut h = Sha1::new();
                h.absorb(data, kernel);
                assert_eq!(hex(h.finish(kernel)), want, "{name}, {} bytes", data.len());
            }
        };
        run(scalar_blocks, "scalar");
        if sha_ni_detected() {
            run(compress_blocks, "sha-ni");
        } else {
            eprintln!("no SHA-NI on this CPU: checked the scalar kernel only");
        }
    }

    /// Pins on-disk fingerprint identity: the SHA-1 of the 256 concatenated
    /// 4 KiB-page fingerprints of a seeded 1 MiB buffer, recorded from the
    /// scalar-only implementation (and matching OpenSSL's SHA-1).
    #[test]
    fn page_fingerprints_of_a_seeded_mib_are_pinned() {
        let buf = seeded_bytes(1, 1 << 20);
        let fps = fingerprint_ranges(&Sha1ChunkHasher, &buf, &chunk_ranges(buf.len(), 4096));
        assert_eq!(fps.len(), 256);
        let concat: Vec<u8> = fps.iter().flat_map(|fp| *fp.as_bytes()).collect();
        assert_eq!(
            hex(Sha1::digest(&concat)),
            "6e87d7c08b72394896a08a5861d54a7772b8bac5"
        );
    }
}
