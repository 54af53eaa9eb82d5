//! SHA-1 (RFC 3174) with three compression kernels.
//!
//! The paper fingerprints 4 KiB memory pages with OpenSSL's SHA-1, which
//! uses the CPU's SHA extensions where they exist. We keep the same
//! algorithm for fidelity (collision behaviour, digest width) without a
//! crypto dependency, and the same hardware paths:
//!
//! * on x86-64 CPUs that report `avx512f` and `avx512bw` at run time,
//!   [`Sha1::digest_many`] hashes sixteen messages at once, one per 32-bit
//!   lane of each 512-bit register, with a lane scheduler that keeps the
//!   lanes full when message lengths differ;
//! * on x86-64 CPUs that report `sha`, `sse2`, `ssse3` and `sse4.1`, a
//!   single-stream kernel built on the SHA-NI intrinsics from `std::arch`
//!   (`sha1rnds4`, `sha1nexte`, `sha1msg1`, `sha1msg2`) compresses every
//!   run of blocks of one message with the state held in registers;
//! * everywhere else, a portable scalar kernel runs the 80 rounds. It is
//!   also the oracle the other two are tested against.
//!
//! All three produce identical digests; fingerprints are on-disk format.
//! On a 2-vCPU Intel Xeon with both extensions, the benchmark's 4 KiB-page
//! fingerprint probe (`hash.fingerprint_mibps`, `ckpt-shared`) read
//! 2,720–3,270 MiB/s through the 16-lane kernel, 1,180–1,470 MiB/s
//! through the SHA-NI one and 280–300 MiB/s through the scalar one. The
//! SHA unit there is throughput-bound: interleaving two to eight SHA-NI
//! streams gained nothing, so the batch path is the vector kernel.
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
        let (tail, end) = pad(&self.block[..self.block_len], self.len);
        compress(&mut self.state, &tail[..end]);
        to_digest(self.state)
    }

    /// One-shot digests of every message in `msgs`, in order; each equals
    /// [`Sha1::digest`] of its message.
    ///
    /// On x86-64 CPUs that report `avx512f` and `avx512bw` at run time,
    /// the messages run sixteen at a time through the multi-buffer
    /// kernel; everywhere else each goes through [`Sha1::digest`].
    ///
    /// ```
    /// use replidedup_hash::Sha1;
    /// let msgs: [&[u8]; 2] = [b"abc", b""];
    /// assert_eq!(Sha1::digest_many(&msgs), vec![Sha1::digest(b"abc"), Sha1::digest(b"")]);
    /// ```
    pub fn digest_many(msgs: &[&[u8]]) -> Vec<[u8; 20]> {
        #[cfg(target_arch = "x86_64")]
        if let Some(out) = avx512::try_digest_many(msgs, avx512::BREAK_EVEN) {
            return out;
        }
        msgs.iter().map(|m| Self::digest(m)).collect()
    }
}

/// The padded tail of a message of `len` bytes whose last partial block
/// is `rem` (at most 63 bytes): `rem`, 0x80, zeros, then the 64-bit
/// big-endian bit length in the last 8 bytes. That fits in one block when
/// `rem` is at most 55 bytes, else it takes two; returns the buffer and
/// how many of its bytes (64 or 128) to compress.
fn pad(rem: &[u8], len: u64) -> ([u8; 128], usize) {
    let n = rem.len();
    let mut tail = [0u8; 128];
    tail[..n].copy_from_slice(rem);
    tail[n] = 0x80;
    let end = if n < 56 { 64 } else { 128 };
    tail[end - 8..end].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    (tail, end)
}

/// The big-endian digest bytes of a final `state`.
fn to_digest(state: [u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
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

/// The multi-buffer kernel: sixteen messages at once, one per 32-bit lane
/// of each AVX-512 register, so every register holds one state or
/// schedule word for sixteen messages. The round functions are single
/// `vpternlogd`s (choose 0xCA, parity 0x96, majority 0xE8), the rotates
/// `vprold`, and the big-endian load one `vpshufb` per block.
///
/// A lane scheduler keeps the lanes full when lengths differ: each lane
/// walks its own message, whole blocks read in place and then its padded
/// tail, and a lane that finishes hands its digest out and takes the next
/// message with its state reset to the IV under a mask. Once fewer than
/// [`BREAK_EVEN`] lanes have work and no message is left to load, the
/// messages in flight finish on the single-stream kernel.
///
/// Every `#[target_feature]` function here is reached only through
/// `digest_many`, which [`avx512::try_digest_many`] calls only after
/// detection.
#[cfg(target_arch = "x86_64")]
#[allow(
    unsafe_code,
    reason = "AVX-512 intrinsics behind runtime feature detection"
)]
mod avx512 {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_mask_mov_epi32, _mm512_rol_epi32,
        _mm512_set1_epi32, _mm512_set_epi64, _mm512_setzero_si512, _mm512_shuffle_epi8,
        _mm512_shuffle_i32x4, _mm512_storeu_si512, _mm512_ternarylogic_epi32,
        _mm512_unpackhi_epi32, _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64,
        _mm512_xor_si512,
    };

    use super::{compress_blocks, pad, to_digest, Sha1};

    /// Messages per compression: one per 32-bit lane of a 512-bit register.
    const LANES: usize = 16;

    /// Fewest lanes with work worth a 16-lane compression. One runs about
    /// as long as eight single-stream SHA-NI blocks on the host the
    /// module doc names, so below eight busy lanes the single-stream
    /// kernel finishes the stragglers sooner.
    pub(super) const BREAK_EVEN: usize = 8;

    /// Whether the CPU has every feature [`digest_many`] enables.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
    }

    /// Digest every message of `msgs` with this kernel if the CPU has
    /// AVX-512, handing the stragglers to the single-stream kernel once
    /// fewer than `break_even` lanes are busy. Returns `None` if it does not.
    pub(super) fn try_digest_many(msgs: &[&[u8]], break_even: usize) -> Option<Vec<[u8; 20]>> {
        if !detected() {
            return None;
        }
        // SAFETY: `detected()` just confirmed that the CPU supports every
        // target feature `digest_many` is compiled with.
        Some(unsafe { digest_many(msgs, break_even) })
    }

    /// One message in flight in a lane: its slot in the output, the whole
    /// blocks it has left (read in place), and its padded tail (the only
    /// bytes copied: at most 63, plus padding).
    struct Lane<'a> {
        slot: usize,
        blocks: &'a [u8],
        tail: [u8; 128],
        /// Tail bytes compressed so far, and the tail's length (64 or 128).
        tail_at: usize,
        tail_end: usize,
    }

    impl<'a> Lane<'a> {
        fn new(slot: usize, msg: &'a [u8]) -> Self {
            let (blocks, rem) = msg.split_at(msg.len() - msg.len() % 64);
            let (tail, tail_end) = pad(rem, msg.len() as u64);
            Self {
                slot,
                blocks,
                tail,
                tail_at: 0,
                tail_end,
            }
        }

        /// The next block to compress.
        fn block(&self) -> Option<&[u8; 64]> {
            match self.blocks.first_chunk() {
                Some(block) => Some(block),
                None => self.tail[self.tail_at..].first_chunk(),
            }
        }

        /// Step past the block just compressed; `true` once none is left.
        fn advance(&mut self) -> bool {
            match self.blocks.get(64..) {
                Some(rest) => self.blocks = rest,
                None => self.tail_at += 64,
            }
            self.done()
        }

        /// Whether every block of the message has been compressed.
        fn done(&self) -> bool {
            self.blocks.is_empty() && self.tail_at == self.tail_end
        }

        /// Finish this message on the single-stream kernel from `state`.
        fn finish_alone(&self, mut state: [u32; 5]) -> [u8; 20] {
            compress_blocks(&mut state, self.blocks);
            compress_blocks(&mut state, &self.tail[self.tail_at..self.tail_end]);
            to_digest(state)
        }
    }

    /// Lane `lane`'s five state words out of `words`.
    fn lane_state(words: &[[u32; LANES]; 5], lane: usize) -> [u32; 5] {
        [0, 1, 2, 3, 4].map(|w| words[w][lane])
    }

    /// The lane scheduler around [`compress`].
    ///
    /// # Safety
    ///
    /// The CPU must support every enabled feature; [`try_digest_many`],
    /// the one caller, checks [`detected`] first.
    #[target_feature(enable = "avx512f,avx512bw")]
    fn digest_many(msgs: &[&[u8]], break_even: usize) -> Vec<[u8; 20]> {
        // What an idle lane compresses; its result is never read.
        const IDLE: [u8; 64] = [0; 64];
        let mut out = vec![[0u8; 20]; msgs.len()];
        let mut queue = msgs.iter().enumerate();
        let mut lanes: [Option<Lane<'_>>; LANES] = std::array::from_fn(|_| None);
        let mut state = [_mm512_setzero_si512(); 5];
        loop {
            // Every free lane takes the next message, from the IV.
            let mut fresh = 0u16;
            for (bit, lane) in (0..).zip(&mut lanes) {
                if lane.is_none() {
                    if let Some((slot, msg)) = queue.next() {
                        *lane = Some(Lane::new(slot, msg));
                        fresh |= 1 << bit;
                    }
                }
            }
            for (s, iv) in state.iter_mut().zip(Sha1::IV) {
                *s = _mm512_mask_mov_epi32(*s, fresh, _mm512_set1_epi32(iv as i32));
            }
            if lanes.iter().flatten().count() < break_even.max(1) {
                let words = spill(&state);
                for (i, lane) in lanes.iter().enumerate() {
                    if let Some(lane) = lane {
                        out[lane.slot] = lane.finish_alone(lane_state(&words, i));
                    }
                }
                return out;
            }
            let blocks = lanes
                .each_ref()
                .map(|lane| lane.as_ref().and_then(Lane::block).unwrap_or(&IDLE));
            compress(&mut state, &blocks);
            let mut any_done = false;
            for lane in lanes.iter_mut().flatten() {
                any_done |= lane.advance();
            }
            if any_done {
                let words = spill(&state);
                for (i, lane) in lanes.iter_mut().enumerate() {
                    if let Some(done) = lane.take_if(|lane| lane.done()) {
                        out[done.slot] = to_digest(lane_state(&words, i));
                    }
                }
            }
        }
    }

    /// The state words, lane by lane.
    #[target_feature(enable = "avx512f")]
    fn spill(state: &[__m512i; 5]) -> [[u32; LANES]; 5] {
        let mut words = [[0u32; LANES]; 5];
        for (word, v) in words.iter_mut().zip(state) {
            // SAFETY: `word` is 64 writable bytes and `_mm512_storeu_si512`
            // has no alignment requirement.
            unsafe { _mm512_storeu_si512(word.as_mut_ptr().cast(), *v) };
        }
        words
    }

    /// Sixteen rows of sixteen words into sixteen columns: row `i` is lane
    /// `i`'s block, column `j` is word `j` of every lane's block. Unpacks
    /// pair words, then quads, within each 128-bit quarter; two 128-bit
    /// shuffles then gather each word's four quarters.
    #[target_feature(enable = "avx512f")]
    fn transpose(r: [__m512i; LANES]) -> [__m512i; LANES] {
        let mut t = [_mm512_setzero_si512(); LANES];
        for i in (0..LANES).step_by(2) {
            t[i] = _mm512_unpacklo_epi32(r[i], r[i + 1]);
            t[i + 1] = _mm512_unpackhi_epi32(r[i], r[i + 1]);
        }
        // Quarter `q` of `u[4k + m]` is word `4q + m` of rows `4k..4k + 4`.
        let mut u = [_mm512_setzero_si512(); LANES];
        for k in (0..LANES).step_by(4) {
            u[k] = _mm512_unpacklo_epi64(t[k], t[k + 2]);
            u[k + 1] = _mm512_unpackhi_epi64(t[k], t[k + 2]);
            u[k + 2] = _mm512_unpacklo_epi64(t[k + 1], t[k + 3]);
            u[k + 3] = _mm512_unpackhi_epi64(t[k + 1], t[k + 3]);
        }
        let mut w = [_mm512_setzero_si512(); LANES];
        for m in 0..4 {
            let (a, b, c, d) = (u[m], u[4 + m], u[8 + m], u[12 + m]);
            let ab_lo = _mm512_shuffle_i32x4::<0x44>(a, b);
            let ab_hi = _mm512_shuffle_i32x4::<0xEE>(a, b);
            let cd_lo = _mm512_shuffle_i32x4::<0x44>(c, d);
            let cd_hi = _mm512_shuffle_i32x4::<0xEE>(c, d);
            w[m] = _mm512_shuffle_i32x4::<0x88>(ab_lo, cd_lo);
            w[4 + m] = _mm512_shuffle_i32x4::<0xDD>(ab_lo, cd_lo);
            w[8 + m] = _mm512_shuffle_i32x4::<0x88>(ab_hi, cd_hi);
            w[12 + m] = _mm512_shuffle_i32x4::<0xDD>(ab_hi, cd_hi);
        }
        w
    }

    /// Round `$i` with round function `$f` (a `vpternlogd` immediate) and
    /// constant `$k`: `E += rotl5(A) + f(B, C, D) + K + W[i]`, then
    /// `B = rotl30(B)`; the caller renames the registers instead of moving
    /// them. From round 16 on, `W[i]` is expanded in place in the 16-word
    /// ring `$w` first.
    macro_rules! round {
        ($w:ident, $i:expr, $f:literal, $k:ident, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
            let i: usize = $i;
            if i >= 16 {
                let x = _mm512_ternarylogic_epi32::<0x96>(
                    $w[(i + 13) & 15],
                    $w[(i + 8) & 15],
                    $w[(i + 2) & 15],
                );
                $w[i & 15] = _mm512_rol_epi32::<1>(_mm512_xor_si512(x, $w[i & 15]));
            }
            let f = _mm512_ternarylogic_epi32::<$f>($b, $c, $d);
            let kw = _mm512_add_epi32($w[i & 15], $k);
            $e = _mm512_add_epi32(
                _mm512_add_epi32($e, _mm512_rol_epi32::<5>($a)),
                _mm512_add_epi32(f, kw),
            );
            $b = _mm512_rol_epi32::<30>($b);
        };
    }

    /// Rounds `$i..$i + 5`, after which the registers are back in order.
    macro_rules! five {
        ($w:ident, $i:expr, $f:literal, $k:ident, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
            round!($w, $i, $f, $k, $a, $b, $c, $d, $e);
            round!($w, $i + 1, $f, $k, $e, $a, $b, $c, $d);
            round!($w, $i + 2, $f, $k, $d, $e, $a, $b, $c);
            round!($w, $i + 3, $f, $k, $c, $d, $e, $a, $b);
            round!($w, $i + 4, $f, $k, $b, $c, $d, $e, $a);
        };
    }

    /// Compress one 64-byte block per lane into `state`.
    #[target_feature(enable = "avx512f,avx512bw")]
    fn compress(state: &mut [__m512i; 5], blocks: &[&[u8; 64]; LANES]) {
        // Reverses the bytes of every 32-bit word: big-endian words.
        let be_words = _mm512_set_epi64(
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
        );
        let mut rows = [_mm512_setzero_si512(); LANES];
        for (row, block) in rows.iter_mut().zip(blocks) {
            // SAFETY: `block` is 64 readable bytes and `_mm512_loadu_si512`
            // has no alignment requirement.
            let v = unsafe { _mm512_loadu_si512(block.as_ptr().cast()) };
            *row = _mm512_shuffle_epi8(v, be_words);
        }
        let mut w = transpose(rows);
        let k0 = _mm512_set1_epi32(0x5a82_7999);
        let k1 = _mm512_set1_epi32(0x6ed9_eba1);
        let k2 = _mm512_set1_epi32(0x8f1b_bcdc_u32 as i32);
        let k3 = _mm512_set1_epi32(0xca62_c1d6_u32 as i32);
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        five!(w, 0, 0xCA, k0, a, b, c, d, e);
        five!(w, 5, 0xCA, k0, a, b, c, d, e);
        five!(w, 10, 0xCA, k0, a, b, c, d, e);
        five!(w, 15, 0xCA, k0, a, b, c, d, e);
        five!(w, 20, 0x96, k1, a, b, c, d, e);
        five!(w, 25, 0x96, k1, a, b, c, d, e);
        five!(w, 30, 0x96, k1, a, b, c, d, e);
        five!(w, 35, 0x96, k1, a, b, c, d, e);
        five!(w, 40, 0xE8, k2, a, b, c, d, e);
        five!(w, 45, 0xE8, k2, a, b, c, d, e);
        five!(w, 50, 0xE8, k2, a, b, c, d, e);
        five!(w, 55, 0xE8, k2, a, b, c, d, e);
        five!(w, 60, 0x96, k3, a, b, c, d, e);
        five!(w, 65, 0x96, k3, a, b, c, d, e);
        five!(w, 70, 0x96, k3, a, b, c, d, e);
        five!(w, 75, 0x96, k3, a, b, c, d, e);
        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = _mm512_add_epi32(*s, v);
        }
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
    #[cfg(target_arch = "x86_64")]
    use super::avx512::{detected as avx512_detected, try_digest_many, BREAK_EVEN};
    #[cfg(not(target_arch = "x86_64"))]
    fn avx512_detected() -> bool {
        false
    }
    #[cfg(not(target_arch = "x86_64"))]
    const BREAK_EVEN: usize = 8;
    #[cfg(not(target_arch = "x86_64"))]
    fn try_digest_many(_: &[&[u8]], _: usize) -> Option<Vec<[u8; 20]>> {
        None
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

    /// A batch kernel: the per-message fallback (`None`), or the 16-lane
    /// kernel handing its stragglers to the single-stream one below
    /// `Some(break_even)` busy lanes.
    type BatchKernel = Option<usize>;

    /// Every batch kernel this CPU runs, by name: the per-message
    /// fallback everywhere; with AVX-512, the 16-lane kernel with its
    /// drain, and alone (a break-even of one lane: every block of every
    /// message runs through the 16-lane compression).
    fn batch_kernels() -> Vec<(&'static str, BatchKernel)> {
        if avx512_detected() {
            vec![
                ("per-message", None),
                ("avx512+drain", Some(BREAK_EVEN)),
                ("avx512", Some(1)),
            ]
        } else {
            eprintln!("no AVX-512 on this CPU: checked the per-message kernel only");
            vec![("per-message", None)]
        }
    }

    fn run_batch(kernel: BatchKernel, msgs: &[&[u8]]) -> Vec<[u8; 20]> {
        match kernel {
            None => msgs.iter().map(|m| Sha1::digest(m)).collect(),
            Some(break_even) => try_digest_many(msgs, break_even).unwrap_or_default(),
        }
    }

    /// The scalar kernel's digest: the oracle every batch is held to.
    fn scalar_digest(msg: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.absorb(msg, scalar_blocks);
        h.finish(scalar_blocks)
    }

    /// Each batch kernel against the scalar oracle, message by message.
    fn check_batch(msgs: &[&[u8]], what: &str) {
        let want: Vec<[u8; 20]> = msgs.iter().map(|m| scalar_digest(m)).collect();
        for (name, kernel) in batch_kernels() {
            let got = run_batch(kernel, msgs);
            assert_eq!(got.len(), msgs.len(), "{name}, {what}: digest count");
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    got,
                    want,
                    "{name}, {what}: message {i}, {} bytes",
                    msgs[i].len()
                );
            }
        }
    }

    #[test]
    fn fips_vectors_through_digest_many() {
        let million_a = vec![b'a'; 1_000_000];
        let msgs: [&[u8]; 5] = [
            b"",
            b"abc",
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            b"The quick brown fox jumps over the lazy dog",
            &million_a,
        ];
        let want = [
            "da39a3ee5e6b4b0d3255bfef95601890afd80709",
            "a9993e364706816aba3e25717850c26c9cd0d89d",
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f",
        ];
        for (name, kernel) in batch_kernels() {
            let got: Vec<String> = run_batch(kernel, &msgs).into_iter().map(hex).collect();
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn digest_many_batch_sizes_around_the_lane_count() {
        let buf = seeded_bytes(3, 40 * 4096);
        for count in [0usize, 1, 15, 16, 17, 40] {
            let msgs: Vec<&[u8]> = buf.chunks(4096).take(count).collect();
            check_batch(&msgs, &format!("{count} pages"));
        }
    }

    #[test]
    fn digest_many_every_length_up_to_300_and_around_a_page() {
        let buf = seeded_bytes(4, 4097 + 15);
        let lens: Vec<usize> = (0..=300).chain([4095, 4096, 4097]).collect();
        // All lengths in one batch, then each length filling every lane.
        let mixed: Vec<&[u8]> = lens.iter().map(|&n| &buf[..n]).collect();
        check_batch(&mixed, "every length");
        for n in lens {
            let same: Vec<&[u8]> = (0..16).map(|i| &buf[i..i + n]).collect();
            check_batch(&same, &format!("16 lanes near {n} bytes"));
        }
    }

    #[test]
    fn digest_many_mixed_lengths_in_one_batch() {
        let buf = seeded_bytes(5, 32 * 1024);
        let lens = [
            0usize,
            55,
            56,
            63,
            64,
            32 * 1024,
            0,
            4096,
            1,
            65,
            119,
            120,
            128,
        ];
        let msgs: Vec<&[u8]> = lens
            .iter()
            .cycle()
            .take(3 * lens.len())
            .map(|&n| &buf[..n])
            .collect();
        check_batch(&msgs, "mixed lengths");
    }

    #[test]
    fn digest_many_at_every_start_offset() {
        let buf = seeded_bytes(6, 64 + 4096);
        for len in [1usize, 63, 64, 100, 4096] {
            let msgs: Vec<&[u8]> = (0..64).map(|off| &buf[off..off + len]).collect();
            check_batch(&msgs, &format!("{len} bytes at offsets 0..64"));
        }
    }

    proptest::proptest! {
        #[test]
        fn digest_many_matches_digest_on_random_lengths(
            lens in proptest::collection::vec(0usize..9000, 0..48),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let buf = seeded_bytes(seed, 9000);
            let msgs: Vec<&[u8]> = lens.iter().map(|&n| &buf[..n]).collect();
            let want: Vec<[u8; 20]> = msgs.iter().map(|m| Sha1::digest(m)).collect();
            proptest::prop_assert_eq!(Sha1::digest_many(&msgs), want);
        }
    }

    /// Pins variable-length fingerprints as the page test below pins fixed
    /// ones: the SHA-1 of the concatenated gear-chunk fingerprints of a
    /// seeded 1 MiB buffer, recorded from the per-message path.
    #[test]
    fn gear_chunk_fingerprints_of_a_seeded_mib_are_pinned() {
        use crate::{Chunker, GearChunker, GearParams};
        let buf = seeded_bytes(7, 1 << 20);
        let ranges = GearChunker::new(GearParams::default()).chunks(&buf);
        let fps = fingerprint_ranges(&Sha1ChunkHasher, &buf, &ranges);
        let concat: Vec<u8> = fps.iter().flat_map(|fp| *fp.as_bytes()).collect();
        assert_eq!(fps.len(), 220);
        assert_eq!(
            hex(Sha1::digest(&concat)),
            "e88babb8894a1eb9e5268b7e2c0a1ded8070e926"
        );
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
