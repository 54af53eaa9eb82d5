//! The four workloads and their seed-driven input generators.
//!
//! Everything here is the benchmark's own vocabulary; `sut.rs` maps it
//! onto the system under test. The program never sees the seed, only
//! the buffers generated from it.

/// Page size of the class-mix workloads (the paper's chunk size).
pub const PAGE: usize = 4096;
const MIB: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    CollDedup,
    NoDedup,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chunking {
    /// Fixed 4 KiB pages.
    Fixed,
    /// Gear content-defined chunking, default parameters.
    Gear,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Three full copies.
    Replicate3,
    /// Reed-Solomon 4+2 for everything.
    Rs4p2,
    /// Per-chunk choice: RS 4+2, replicate below 1 KiB or when naturally
    /// duplicated.
    Auto4p2,
}

/// How a rank's bytes relate to the other ranks' bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content {
    /// Page-aligned classes: 1/2 global, 1/8 shared by groups of four
    /// ranks, 1/4 rank-private, 1/8 local duplicates of private pages.
    ClassMix,
    /// A rank-private prefix of `rank*97+13` bytes that misaligns every
    /// page, then a base shared by all ranks (half the buffer) carrying
    /// 16 rank-specific 1–32 byte splices, then a rank-private tail.
    SplicedBase,
    /// Every byte rank-private.
    Private,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub ranks: u32,
    pub bytes_per_rank: usize,
    pub strategy: Strategy,
    pub chunking: Chunking,
    pub policy: Policy,
    pub content: Content,
}

/// The workload table. Names are final: later issues cite them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "ckpt-shared",
        ranks: 8,
        bytes_per_rank: 8 * MIB,
        strategy: Strategy::CollDedup,
        chunking: Chunking::Fixed,
        policy: Policy::Replicate3,
        content: Content::ClassMix,
    },
    Spec {
        name: "cdc-ec-mixed",
        ranks: 8,
        bytes_per_rank: 4 * MIB,
        strategy: Strategy::CollDedup,
        chunking: Chunking::Gear,
        policy: Policy::Auto4p2,
        content: Content::SplicedBase,
    },
    Spec {
        name: "blob-ec",
        ranks: 8,
        bytes_per_rank: 16 * MIB,
        strategy: Strategy::NoDedup,
        chunking: Chunking::Fixed,
        policy: Policy::Rs4p2,
        content: Content::Private,
    },
    Spec {
        name: "wide-world",
        ranks: 128,
        bytes_per_rank: 256 * 1024,
        strategy: Strategy::CollDedup,
        chunking: Chunking::Fixed,
        policy: Policy::Replicate3,
        content: Content::ClassMix,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The `--quick` tier: inputs ÷ 8 and `wide-world` at 32 ranks, so the
/// self-test run finishes in seconds with the same code paths.
pub fn quick(spec: Spec) -> Spec {
    Spec {
        ranks: spec.ranks.min(32),
        bytes_per_rank: spec.bytes_per_rank / 8,
        ..spec
    }
}

/// splitmix64: small, fast, and good enough to make incompressible,
/// non-repeating pages.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

// Stream ids: one per content class, so no two classes share bytes.
const STREAM_GLOBAL: u64 = 1;
const STREAM_GROUP: u64 = 1 << 32;
const STREAM_PRIVATE: u64 = 2 << 32;
const STREAM_SPLICE: u64 = 3 << 32;
const STREAM_VICTIMS: u64 = 4 << 32;

/// One buffer per rank, a pure function of `(spec, seed)`.
pub fn generate(spec: &Spec, seed: u64) -> Vec<Vec<u8>> {
    let len = spec.bytes_per_rank;
    match spec.content {
        Content::ClassMix => {
            assert_eq!(
                len % (8 * PAGE),
                0,
                "class mix needs eighths of whole pages"
            );
            let eighth = len / 8;
            let global = Rng::new(seed, STREAM_GLOBAL).bytes(4 * eighth);
            (0..spec.ranks)
                .map(|rank| {
                    let mut buf = Vec::with_capacity(len);
                    buf.extend_from_slice(&global);
                    buf.extend(Rng::new(seed, STREAM_GROUP + u64::from(rank / 4)).bytes(eighth));
                    let mut private = Rng::new(seed, STREAM_PRIVATE + u64::from(rank));
                    let private_at = buf.len();
                    buf.extend(private.bytes(2 * eighth));
                    // Local duplicates: seed-chosen private pages, repeated.
                    for _ in 0..eighth / PAGE {
                        let page =
                            private_at + private.below((2 * eighth / PAGE) as u64) as usize * PAGE;
                        buf.extend_from_within(page..page + PAGE);
                    }
                    buf
                })
                .collect()
        }
        Content::SplicedBase => {
            let base = Rng::new(seed, STREAM_GLOBAL).bytes(len / 2);
            (0..spec.ranks)
                .map(|rank| {
                    let mut private = Rng::new(seed, STREAM_PRIVATE + u64::from(rank));
                    let mut buf = private.bytes(rank as usize * 97 + 13);
                    let mut splices = Rng::new(seed, STREAM_SPLICE + u64::from(rank));
                    let mut cuts: Vec<usize> = (0..16)
                        .map(|_| splices.below(base.len() as u64) as usize)
                        .collect();
                    cuts.sort_unstable();
                    let mut from = 0;
                    for cut in cuts {
                        buf.extend_from_slice(&base[from..cut]);
                        let n = 1 + splices.below(32) as usize;
                        buf.extend(splices.bytes(n));
                        from = cut;
                    }
                    buf.extend_from_slice(&base[from..]);
                    let tail = len - buf.len();
                    buf.extend(private.bytes(tail));
                    buf
                })
                .collect()
        }
        Content::Private => (0..spec.ranks)
            .map(|rank| Rng::new(seed, STREAM_PRIVATE + u64::from(rank)).bytes(len))
            .collect(),
    }
}

/// The nodes one cycle wipes: `[0]` before the heal, `[1]` and `[2]`
/// (both different from each other and from `[0]`) before the degraded
/// restore. A pure function of `(seed, cycle, ranks)`.
pub fn victims(seed: u64, cycle: u64, ranks: u32) -> [u32; 3] {
    let mut rng = Rng::new(seed, STREAM_VICTIMS + cycle);
    let n = u64::from(ranks);
    let a = rng.below(n);
    let b = (a + 1 + rng.below(n - 1)) % n;
    let mut c = rng.below(n);
    while c == a || c == b {
        c = (c + 1) % n;
    }
    [a as u32, b as u32, c as u32]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        for spec in WORKLOADS.map(quick) {
            let a = generate(&spec, 7);
            assert_eq!(a, generate(&spec, 7), "{}", spec.name);
            assert_ne!(a, generate(&spec, 8), "{}", spec.name);
            assert_eq!(a.len(), spec.ranks as usize);
            assert!(
                a.iter().all(|b| b.len() == spec.bytes_per_rank),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn table_matches_the_issue() {
        let shape: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name, w.ranks, w.bytes_per_rank))
            .collect();
        assert_eq!(
            shape,
            [
                ("ckpt-shared", 8, 8 * MIB),
                ("cdc-ec-mixed", 8, 4 * MIB),
                ("blob-ec", 8, 16 * MIB),
                ("wide-world", 128, 256 * 1024),
            ]
        );
        let q = quick(WORKLOADS[3]);
        assert_eq!((q.ranks, q.bytes_per_rank), (32, 32 * 1024));
    }

    /// On how many ranks each distinct page occurs, and how many pages a
    /// rank repeats locally.
    #[test]
    fn class_mix_has_the_stated_shares() {
        let spec = WORKLOADS[3];
        let bufs = generate(&spec, 3);
        let pages = spec.bytes_per_rank / PAGE;
        let mut holders: HashMap<&[u8], Vec<u32>> = HashMap::new();
        let mut local_dups = 0;
        for (rank, buf) in bufs.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for page in buf.chunks(PAGE) {
                if !seen.insert(page) {
                    local_dups += 1;
                    continue;
                }
                holders.entry(page).or_default().push(rank as u32);
            }
        }
        let n = spec.ranks as usize;
        let count = |want: usize| holders.values().filter(|h| h.len() == want).count();
        assert_eq!(count(n), pages / 2, "global pages");
        assert_eq!(count(4), (n / 4) * (pages / 8), "group-of-four pages");
        assert_eq!(count(1), n * (pages / 4), "private pages");
        assert_eq!(local_dups, n * (pages / 8), "local duplicates");
        assert!(holders
            .values()
            .filter(|h| h.len() == 4)
            .all(|h| h[0] / 4 == h[3] / 4));
    }

    #[test]
    fn spliced_base_shares_most_of_half_the_buffer() {
        let spec = WORKLOADS[1];
        let bufs = generate(&spec, 11);
        assert_ne!(bufs[0][..13], bufs[1][..13]);
        // The last kilobyte of the shared base survives every splice
        // with probability ~1 and sits at a rank-specific offset.
        let base = Rng::new(11, STREAM_GLOBAL).bytes(spec.bytes_per_rank / 2);
        let needle = &base[base.len() - 64..];
        let offsets: Vec<usize> = bufs
            .iter()
            .map(|b| {
                b.windows(64)
                    .position(|w| w == needle)
                    .expect("base present")
            })
            .collect();
        assert!(
            offsets.windows(2).all(|w| w[0] != w[1]),
            "prefix must misalign ranks"
        );
        // The tails are private.
        let n = spec.bytes_per_rank;
        assert_ne!(bufs[0][n - 4096..], bufs[1][n - 4096..]);
    }

    #[test]
    fn victims_are_distinct_in_range_and_seeded() {
        for ranks in [8, 32, 128] {
            for cycle in 0..50 {
                let v = victims(42, cycle, ranks);
                assert!(v.iter().all(|&x| x < ranks));
                assert!(v[0] != v[1] && v[0] != v[2] && v[1] != v[2], "{v:?}");
                assert_eq!(v, victims(42, cycle, ranks));
            }
        }
        assert!((0..8).any(|c| victims(1, c, 128) != victims(2, c, 128)));
    }
}
