//! Chunking-engine integration tests: proptest invariants over every
//! chunker, committed golden cut-point vectors, and the end-to-end
//! dedup-quality claim (CDC recovers shifted redundancy, fixed does not).
//!
//! The golden fixture under `tests/golden/` pins the exact cut points of
//! the default-parameter gear chunker on a seeded 1 MiB buffer. Cut points are on-disk format: chunk boundaries determine
//! fingerprints, so a silent change would orphan every stored chunk.
//! Regenerate (after a *deliberate* format change) with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test chunking -- --ignored regenerate
//! ```

use std::collections::HashSet;

use proptest::prelude::*;
use replidedup::bench::workloads::{make_buffers, AppKind};
use replidedup::core::{ChunkerKind, GearParams, Replicator, Strategy};
use replidedup::hash::{ChunkRange, Chunker, Sha1ChunkHasher};
use replidedup::mpi::WorldConfig;
use replidedup::storage::{Cluster, Placement};

// ------------------------------------------------------------------
// Shared helpers
// ------------------------------------------------------------------

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random buffer.
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Small-parameter chunkers so proptest cases stay fast while still
/// exercising min/avg/max interplay. The fixed stride is 64 bytes.
fn small_kinds() -> [ChunkerKind; 2] {
    [
        ChunkerKind::Fixed,
        ChunkerKind::Gear(GearParams {
            min_size: 32,
            avg_size: 64,
            max_size: 512,
        }),
    ]
}

const SMALL_FIXED: usize = 64;

fn assert_tiling(ranges: &[ChunkRange], len: usize, what: &str) {
    if len == 0 {
        assert!(
            ranges.is_empty(),
            "{what}: empty buffer must yield no chunks"
        );
        return;
    }
    assert_eq!(ranges[0].start, 0, "{what}: first chunk must start at 0");
    for w in ranges.windows(2) {
        assert_eq!(
            w[0].end, w[1].start,
            "{what}: gap or overlap between chunks"
        );
    }
    assert_eq!(
        ranges.last().unwrap().end,
        len,
        "{what}: last chunk must end at the buffer end"
    );
    assert!(
        ranges.iter().all(|r| !r.is_empty()),
        "{what}: no chunk may be empty"
    );
}

/// Min/max size bounds for one chunker kind. Every chunk respects the
/// max; every chunk but the last respects the min (the tail may be short).
fn assert_bounds(kind: ChunkerKind, ranges: &[ChunkRange], what: &str) {
    let (min, max) = match kind {
        ChunkerKind::Fixed => (SMALL_FIXED, SMALL_FIXED),
        ChunkerKind::Gear(p) => (p.min_size, p.max_size),
        _ => unreachable!(),
    };
    for (i, r) in ranges.iter().enumerate() {
        assert!(
            r.len() <= max,
            "{what}: chunk {i} len {} > max {max}",
            r.len()
        );
        if i + 1 < ranges.len() {
            assert!(
                r.len() >= min,
                "{what}: non-tail chunk {i} len {} < min {min}",
                r.len()
            );
        }
    }
}

/// The multiset-free distinct-content overlap between two chunkings.
fn shared_chunk_contents(a: &[u8], ra: &[ChunkRange], b: &[u8], rb: &[ChunkRange]) -> usize {
    let set: HashSet<&[u8]> = ra.iter().map(|r| r.slice(a)).collect();
    rb.iter().filter(|r| set.contains(r.slice(b))).count()
}

// ------------------------------------------------------------------
// Proptest invariants (satellite 1)
// ------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every chunker tiles the buffer: contiguous, gap-free, complete.
    #[test]
    fn prop_chunks_tile_the_buffer(
        buf in proptest::collection::vec(any::<u8>(), 0..8192),
    ) {
        for kind in small_kinds() {
            let ranges = kind.resolve(SMALL_FIXED).chunks(&buf);
            assert_tiling(&ranges, buf.len(), kind.label());
        }
    }

    /// Every chunker respects its min/max size bounds.
    #[test]
    fn prop_chunks_respect_size_bounds(
        buf in proptest::collection::vec(any::<u8>(), 1..8192),
    ) {
        for kind in small_kinds() {
            let ranges = kind.resolve(SMALL_FIXED).chunks(&buf);
            assert_bounds(kind, &ranges, kind.label());
        }
    }

    /// Chunking is a pure function of the bytes.
    #[test]
    fn prop_chunking_is_deterministic(
        buf in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        for kind in small_kinds() {
            let chunker = kind.resolve(SMALL_FIXED);
            let a = chunker.chunks(&buf);
            let b = kind.resolve(SMALL_FIXED).chunks(&buf.clone());
            prop_assert_eq!(a, b, "{} must be deterministic", kind.label());
        }
    }

    /// Shift resilience: prepend a misaligning prefix and the CDC chunker
    /// re-synchronizes, reproducing most of the original chunks verbatim —
    /// while fixed chunking is demonstrably *not* shift-resilient: it
    /// recovers strictly fewer chunks than the CDC chunker (and almost
    /// none in absolute terms).
    #[test]
    fn prop_cdc_is_shift_resilient_and_fixed_is_not(
        seed in any::<u64>(),
        prefix_len in 1usize..63,
    ) {
        let base = seeded_bytes(seed, 32 * 1024);
        let mut shifted = seeded_bytes(!seed, prefix_len);
        shifted.extend_from_slice(&base);

        let mut shared = [0usize; 2];
        let mut total = [0usize; 2];
        for (i, kind) in small_kinds().into_iter().enumerate() {
            let chunker = kind.resolve(SMALL_FIXED);
            let ra = chunker.chunks(&base);
            let rb = chunker.chunks(&shifted);
            shared[i] = shared_chunk_contents(&base, &ra, &shifted, &rb);
            total[i] = ra.len();
        }
        let [fixed, gear] = shared;
        // CDC re-finds at least half the original chunks…
        prop_assert!(gear * 2 >= total[1], "gear shared only {gear}/{}", total[1]);
        // …while fixed chunking finds (next to) nothing: the prefix is
        // never stride-aligned, so every 64-byte cell shifts.
        prop_assert!(fixed * 20 <= total[0], "fixed shared {fixed}/{} — too shift-resilient", total[0]);
        prop_assert!(fixed < gear, "fixed ({fixed}) must lose to gear ({gear})");
    }
}

// ------------------------------------------------------------------
// Golden cut-point vectors (satellite 2)
// ------------------------------------------------------------------

/// The seeded buffer the golden vectors are computed over.
fn golden_buffer() -> Vec<u8> {
    seeded_bytes(0x676f_6c64_656e_2121, 1 << 20) // b"golden!!"
}

/// Default-parameter chunkers whose cut points are frozen on disk.
fn golden_kinds() -> [(&'static str, ChunkerKind); 1] {
    [("gear", ChunkerKind::Gear(GearParams::default()))]
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}_cuts.txt"))
}

fn cut_points(kind: ChunkerKind, buf: &[u8]) -> Vec<usize> {
    kind.resolve(4096)
        .chunks(buf)
        .iter()
        .map(|r| r.end)
        .collect()
}

#[test]
fn golden_cut_points_are_stable() {
    let buf = golden_buffer();
    for (name, kind) in golden_kinds() {
        let path = golden_path(name);
        let fixture = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
        let want: Vec<usize> = fixture
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.parse().expect("fixture lines are offsets"))
            .collect();
        let got = cut_points(kind, &buf);
        assert!(!got.is_empty() && *got.last().unwrap() == buf.len());
        assert_eq!(
            got, want,
            "{name}: cut points diverged from the committed golden vector — \
             this breaks the on-disk chunk format (see tests/chunking.rs header)"
        );
    }
}

/// Rewrites the golden fixtures. Deliberately `#[ignore]`d and gated on
/// `REGEN_GOLDEN=1`: run only after an intentional chunker format change.
#[test]
#[ignore]
fn regenerate_golden_fixtures() {
    if std::env::var("REGEN_GOLDEN").as_deref() != Ok("1") {
        panic!("set REGEN_GOLDEN=1 to rewrite the golden fixtures");
    }
    let buf = golden_buffer();
    std::fs::create_dir_all(golden_path("x").parent().unwrap()).unwrap();
    for (name, kind) in golden_kinds() {
        let cuts = cut_points(kind, &buf);
        let mut body = format!(
            "# {name} chunker cut points (chunk end offsets) over the seeded 1 MiB\n\
             # buffer of tests/chunking.rs::golden_buffer(). Frozen on-disk format.\n"
        );
        for c in cuts {
            body.push_str(&format!("{c}\n"));
        }
        std::fs::write(golden_path(name), body).unwrap();
    }
}

// ------------------------------------------------------------------
// End-to-end dedup quality (satellite 3)
// ------------------------------------------------------------------

/// Dump the shifted-duplicate workload under one configuration; restore
/// byte-exact; return (total device bytes written, total replication
/// traffic sent over RMA windows).
fn dump_written(
    buffers: &[Vec<u8>],
    strategy: Strategy,
    shuffle: bool,
    k: u32,
    chunker: ChunkerKind,
) -> (u64, u64) {
    let n = buffers.len() as u32;
    let cluster = Cluster::new(Placement::pack(n, 2));
    let repl = Replicator::builder(strategy)
        .cluster(&cluster)
        .hasher(&Sha1ChunkHasher)
        .replication(k)
        .chunk_size(4096)
        .with_chunker(chunker)
        .shuffle(shuffle)
        .build()
        .expect("valid config");
    let stats = WorldConfig::default()
        .launch(n, |comm| {
            repl.dump(comm, 1, &buffers[comm.rank() as usize])
                .expect("dump succeeds")
        })
        .expect_all();
    let sent: u64 = stats.results.iter().map(|s| s.bytes_sent_replication).sum();
    let out = WorldConfig::default()
        .launch(n, |comm| repl.restore(comm, 1).expect("restore succeeds"))
        .expect_all();
    for (rank, restored) in out.results.iter().enumerate() {
        assert!(
            *restored == buffers[rank],
            "{} shuffle={shuffle} K={k} {}: rank {rank} restored wrong bytes",
            strategy.label(),
            chunker.label()
        );
    }
    (cluster.total_device_bytes(), sent)
}

#[test]
fn shifted_dup_restores_exactly_under_every_config_and_cdc_beats_fixed() {
    let buffers = make_buffers(AppKind::shifted_dup(), 4);
    let chunkers = [ChunkerKind::Fixed, ChunkerKind::Gear(GearParams::default())];
    // The four strategy configurations of the evaluation: the three
    // paper settings plus the coll-no-shuffle ablation.
    let configs = [
        (Strategy::NoDedup, true),
        (Strategy::LocalDedup, true),
        (Strategy::CollDedup, true),
        (Strategy::CollDedup, false),
    ];
    for k in [2, 3] {
        let mut written = std::collections::HashMap::new();
        let mut sent = std::collections::HashMap::new();
        for (strategy, shuffle) in configs {
            for chunker in chunkers {
                let (w, s) = dump_written(&buffers, strategy, shuffle, k, chunker);
                written.insert((strategy.label(), shuffle, chunker.label()), w);
                sent.insert((strategy.label(), shuffle, chunker.label()), s);
            }
        }
        // The dedup-quality claim: on shifted duplicates, content-defined
        // chunking stores strictly less than fixed chunking under both
        // dedup strategies (fixed sees no cross-rank redundancy at all;
        // the stores are content-addressed, so even local-dedup's device
        // footprint shrinks once chunks align across ranks).
        for strategy in ["local-dedup", "coll-dedup"] {
            let fixed = written[&(strategy, true, "fixed")];
            let gear = written[&(strategy, true, "gear")];
            assert!(
                gear < fixed,
                "K={k} {strategy}: gear wrote {gear} bytes, fixed wrote {fixed} — \
                 CDC must strictly beat fixed on shifted duplicates"
            );
        }
        // coll-dedup additionally beats local-dedup under CDC where the
        // paper says it must: replication *traffic*. Local-dedup still
        // ships every locally-unique chunk K times; coll-dedup ships each
        // globally-unique chunk only.
        assert!(
            sent[&("coll-dedup", true, "gear")] < sent[&("local-dedup", true, "gear")],
            "K={k}: coll-dedup must send less than local-dedup on cross-rank duplicates \
             ({} vs {})",
            sent[&("coll-dedup", true, "gear")],
            sent[&("local-dedup", true, "gear")]
        );
    }
}
