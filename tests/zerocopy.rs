//! Zero-copy guarantees, end to end.
//!
//! Two promises of the `Chunk` hot path:
//!
//! 1. **No payload copy across a wire round-trip** — a payload attached to
//!    a [`FrameWriter`] comes back out of the receiving [`FrameReader`] as
//!    a view of the *same allocation* (pointer equality via
//!    [`Chunk::shares_allocation_with`]), both locally and across ranks.
//! 2. **Dump → restore is byte-exact** for every strategy × K ∈ {2, 3},
//!    through the `Chunk`-based session API, and the dump copies exactly
//!    the payload bytes it must: none for the dedup strategies, the
//!    receive-side blob gather for no-dedup.

use proptest::prelude::*;
use replidedup::buf::Chunk;
use replidedup::core::{DumpConfig, Replicator, Strategy};
use replidedup::hash::Sha1ChunkHasher;
use replidedup::mpi::{FrameReader, FrameWriter, WorldConfig};
use replidedup::storage::{Cluster, Placement};

const STRATEGIES: [Strategy; 3] = [Strategy::NoDedup, Strategy::LocalDedup, Strategy::CollDedup];
const CHUNK: usize = 512;

/// Deterministic per-rank buffers with cross-rank redundancy and a ragged
/// tail (not a multiple of the chunk size).
fn buffers(n: u32) -> Vec<Vec<u8>> {
    (0..n)
        .map(|r| {
            let mut b = Vec::new();
            for c in 0..24u32 {
                // Two thirds shared across ranks, one third rank-private.
                let fill = if c % 3 == 0 { 0x40 + r as u8 } else { c as u8 };
                b.extend(std::iter::repeat_n(fill, CHUNK));
            }
            b.extend_from_slice(&[r as u8; 129]); // ragged tail
            b
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Promise 1, locally: framing and unframing never copies a payload.
    #[test]
    fn wire_round_trip_shares_payload_allocations(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..2048), 1..8)
    ) {
        let chunks: Vec<Chunk> = payloads.iter().map(|p| Chunk::from(p.clone())).collect();
        let mut w = FrameWriter::new();
        for (i, c) in chunks.iter().enumerate() {
            w.put(&(i as u64));
            w.attach(c.clone());
        }
        let mut r = FrameReader::new(w.finish());
        for (i, c) in chunks.iter().enumerate() {
            let idx: u64 = r.get().unwrap();
            prop_assert_eq!(idx, i as u64);
            let got = r.take_payload().unwrap();
            prop_assert_eq!(&got[..], &c[..]);
            prop_assert!(
                got.shares_allocation_with(c),
                "payload {} was copied on the round-trip", i
            );
        }
        prop_assert_eq!(r.remaining(), 0);
    }
}

/// Promise 1, across ranks: the payload a rank receives over the
/// point-to-point layer is the very allocation the sender attached.
#[test]
fn comm_frame_round_trip_is_zero_copy_across_ranks() {
    const TAG: replidedup::mpi::Tag = 0x7A7A_0001;
    let out = WorldConfig::default()
        .launch(2, |comm| {
            if comm.rank() == 0 {
                let chunk = Chunk::from(vec![0xAB; 1 << 16]);
                let mut w = FrameWriter::new();
                w.put(&7u32);
                w.attach(chunk.clone());
                comm.try_send_frame(1, TAG, w.finish()).unwrap();
                chunk
            } else {
                let mut r = FrameReader::new(comm.try_recv_frame(0, TAG).unwrap());
                let marker: u32 = r.get().unwrap();
                assert_eq!(marker, 7);
                r.take_payload().unwrap()
            }
        })
        .expect_all();
    assert_eq!(out.results[0], out.results[1]);
    assert!(
        out.results[1].shares_allocation_with(&out.results[0]),
        "payload was copied crossing the wire"
    );
}

/// Promise 2: dump → restore is byte-exact for every strategy × K ∈ {2, 3}
/// via the `Chunk`-based session API, with exact per-rank copy counts.
/// `DumpStats::bytes_copied` is read from the rank's own thread-local
/// counter, so tests running in parallel cannot pollute it.
#[test]
fn dump_restore_byte_exact_all_strategies_and_k() {
    const N: u32 = 6;
    let bufs = buffers(N);
    let len = bufs[0].len() as u64;
    assert!(bufs.iter().all(|b| b.len() as u64 == len));
    for strategy in STRATEGIES {
        for k in [2u32, 3] {
            let cluster = Cluster::new(Placement::one_per_node(N));
            let cfg = DumpConfig::paper_defaults(strategy)
                .with_replication(k)
                .with_chunk_size(CHUNK);
            let repl = Replicator::builder(strategy)
                .with_config(cfg)
                .cluster(&cluster)
                .hasher(&Sha1ChunkHasher)
                .build()
                .expect("valid config");
            let chunks: Vec<Chunk> = bufs.iter().map(|b| Chunk::from(b.clone())).collect();
            let out = WorldConfig::default()
                .launch(N, |comm| {
                    let stats = repl
                        .dump(comm, 1, chunks[comm.rank() as usize].clone())
                        .expect("dump succeeds");
                    let restored = repl.restore(comm, 1).expect("restore succeeds");
                    (stats.bytes_copied, restored)
                })
                .expect_all();
            // No-dedup receivers gather each of their K-1 senders' records
            // into one contiguous blob: one unavoidable copy of every
            // replicated input byte. The dedup strategies store slices of
            // the application buffer and of the stolen exchange window.
            let want = match strategy {
                Strategy::NoDedup => u64::from(k - 1) * len,
                _ => 0,
            };
            for (rank, (copied, got)) in out.results.iter().enumerate() {
                assert!(
                    *got == bufs[rank],
                    "{} K={k}: rank {rank} restored wrong bytes",
                    strategy.label()
                );
                assert_eq!(
                    *copied,
                    want,
                    "{} K={k}: rank {rank} dump copied {copied} payload bytes",
                    strategy.label()
                );
            }
        }
    }
}

/// Point-to-point owned-buffer sends deliver identical bytes whether the
/// payload is built from a `'static` slice or an owned allocation.
#[test]
fn send_bytes_delivers_identical_bytes() {
    const TAG_STATIC: replidedup::mpi::Tag = 0x7A7A_0002;
    const TAG_OWNED: replidedup::mpi::Tag = 0x7A7A_0003;
    let payload = vec![0x5C_u8; 4096];
    let sent = payload.clone();
    let out = WorldConfig::default()
        .launch(2, |comm| {
            if comm.rank() == 0 {
                comm.try_send_bytes(1, TAG_STATIC, bytes::Bytes::from_static(&[0x5C_u8; 4096]))
                    .unwrap();
                comm.try_send_bytes(1, TAG_OWNED, bytes::Bytes::from(sent.clone()))
                    .unwrap();
                (Vec::new(), Vec::new())
            } else {
                let from_static = comm.try_recv_chunk(0, TAG_STATIC).unwrap().to_vec();
                let owned = comm.try_recv_chunk(0, TAG_OWNED).unwrap().to_vec();
                (from_static, owned)
            }
        })
        .expect_all();
    let (from_static, owned) = &out.results[1];
    assert_eq!(from_static, &payload);
    assert_eq!(owned, &payload);
}

/// The dump, restore, repair and heal hot paths move refcounted `Chunk`
/// payloads and the global view moves flat columns; a `.to_vec()` in any
/// of their sources, tests included, is a silent full copy creeping back.
#[test]
fn hot_path_sources_make_no_stray_copies() {
    let sources = [
        ("dump.rs", include_str!("../crates/core/src/dump.rs")),
        ("restore.rs", include_str!("../crates/core/src/restore.rs")),
        ("repair.rs", include_str!("../crates/core/src/repair.rs")),
        ("heal.rs", include_str!("../crates/core/src/heal.rs")),
        ("global.rs", include_str!("../crates/core/src/global.rs")),
    ];
    let hits: Vec<String> = sources
        .iter()
        .flat_map(|(file, src)| {
            src.lines()
                .zip(1..)
                .filter(|(line, _)| line.contains(".to_vec()"))
                .map(move |(line, n)| format!("crates/core/src/{file}:{n}: {}", line.trim()))
        })
        .collect();
    assert!(
        hits.is_empty(),
        "payload copies in hot paths:\n{}",
        hits.join("\n")
    );
}
