//! Checkpoint-content generators for the evaluation.
//!
//! Each generator runs the real mini-app for a warm-up phase and captures
//! the page-aligned heap snapshot every rank would hand to `DUMP_OUTPUT` —
//! the same pipeline as the paper's AC-FTE integration, at laptop scale.
//! Buffers are generated once per world size and reused across the three
//! strategies so every setting sees byte-identical inputs.

use replidedup_apps::{Cm1, Cm1Config, Hpccg, HpccgConfig, SyntheticWorkload};
use replidedup_ckpt::TrackedHeap;
use replidedup_mpi::WorldConfig;

/// Which application produces the checkpoint content.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppKind {
    /// HPCCG mini-app (27-point CG), warm-up iterations included.
    Hpccg {
        /// CG iterations before the snapshot.
        warmup: u64,
    },
    /// CM1-like stencil model, warm-up steps included.
    Cm1 {
        /// Time steps before the snapshot.
        warmup: u64,
    },
    /// Synthetic workload with dialed-in redundancy.
    Synthetic(SyntheticWorkload),
    /// Shifted-duplicate workload: every rank holds the same base content
    /// behind a rank-private prefix whose length is *not* a multiple of
    /// any page size. Cross-rank redundancy is total, but byte-shifted —
    /// invisible to fixed chunking, fully visible to CDC.
    ShiftedDup {
        /// Bytes of pseudo-random base content shared by all ranks.
        base_len: usize,
    },
    /// Insert-heavy workload: all ranks start from the same base and each
    /// rank splices small rank-private runs at rank-dependent offsets —
    /// the classic editing pattern that shifts everything after each
    /// insertion.
    InsertHeavy {
        /// Bytes of pseudo-random base content shared by all ranks.
        base_len: usize,
        /// Number of rank-private insertions.
        inserts: usize,
    },
}

impl AppKind {
    /// Paper-matched warm-up defaults: HPCCG checkpoints at iteration 100
    /// of 127 (we scale to 10), CM1 every 30 time steps.
    pub const fn hpccg() -> Self {
        AppKind::Hpccg { warmup: 10 }
    }

    /// CM1 warm-up before the snapshot. The paper checkpoints at time
    /// step 30; the checkpoint's *content structure* (vortex over ambient)
    /// is set by the initial condition, so a short warm-up keeps the
    /// harness fast without changing what the dedup sees.
    pub fn cm1() -> Self {
        AppKind::Cm1 { warmup: 3 }
    }

    /// Shifted-duplicate workload at bench scale: ~192 KiB of shared base
    /// content behind a rank-private misaligning prefix.
    pub fn shifted_dup() -> Self {
        AppKind::ShiftedDup {
            base_len: 192 * 1024,
        }
    }

    /// Insert-heavy workload at bench scale: ~192 KiB of shared base
    /// content with 16 rank-private splices.
    pub fn insert_heavy() -> Self {
        AppKind::InsertHeavy {
            base_len: 192 * 1024,
            inserts: 16,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AppKind::Hpccg { .. } => "HPCCG",
            AppKind::Cm1 { .. } => "CM1",
            AppKind::Synthetic(_) => "synthetic",
            AppKind::ShiftedDup { .. } => "shifted-dup",
            AppKind::InsertHeavy { .. } => "insert-heavy",
        }
    }
}

/// splitmix64: the workload generators' only source of pseudo-randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pseudo-random bytes shared by every rank of the CDC workloads.
fn shared_base(len: usize) -> Vec<u8> {
    let mut state = 0x5348_4946_5445_4421; // b"SHIFTED!"
    let mut base = Vec::with_capacity(len);
    while base.len() < len {
        base.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    base.truncate(len);
    base
}

/// Rank-private pseudo-random bytes (distinct stream per rank).
fn private_bytes(rank: u32, len: usize) -> Vec<u8> {
    let mut state = 0xC0FF_EE00_0000_0000 ^ (u64::from(rank) << 8) ^ 0x55;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        out.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Shifted-duplicate buffer for one rank: `rank * 97 + 13` bytes of
/// rank-private prefix (never page- or power-of-two-aligned), then the
/// shared base. Identical content at different byte offsets on every rank.
fn shifted_dup_buffer(rank: u32, base: &[u8]) -> Vec<u8> {
    let prefix_len = rank as usize * 97 + 13;
    let mut buf = private_bytes(rank, prefix_len);
    buf.extend_from_slice(base);
    buf
}

/// Insert-heavy buffer for one rank: the shared base with `inserts` small
/// rank-private runs (1–32 bytes) spliced at rank-dependent offsets. Each
/// splice shifts everything after it, like interleaved edits.
fn insert_heavy_buffer(rank: u32, base: &[u8], inserts: usize) -> Vec<u8> {
    let mut state = 0x494E_5345_5254_2100 ^ u64::from(rank); // b"INSERT!"
    let mut offsets: Vec<usize> = (0..inserts)
        .map(|_| splitmix64(&mut state) as usize % base.len().max(1))
        .collect();
    offsets.sort_unstable();
    let mut buf = Vec::with_capacity(base.len() + inserts * 32);
    let mut prev = 0;
    for off in offsets {
        buf.extend_from_slice(&base[prev..off]);
        let len = 1 + (splitmix64(&mut state) as usize % 32);
        let run = private_bytes(rank ^ 0x8000_0000, len);
        buf.extend_from_slice(&run);
        prev = off;
    }
    buf.extend_from_slice(&base[prev..]);
    buf
}

/// Laptop-scale HPCCG sub-block (≈ 90 pages of checkpoint per rank; the
/// paper's 150³ is reached through the cost model's scale factor).
pub fn hpccg_config() -> HpccgConfig {
    HpccgConfig {
        nx: 10,
        ny: 10,
        nz: 10,
        slack_factor: 1.5,
        private_factor: 0.16,
    }
}

/// Laptop-scale CM1 workload (~32 pages of checkpoint per rank).
///
/// Uses the periodic convective-cell mode (`cell_group = 8`, see
/// [`replidedup_apps::Cm1::new`]): one vortex cell per 8 ranks whose
/// content repeats bit-for-bit across groups, plus a globally unique eye
/// in the central group. This reproduces the memory-image profile the
/// paper measured on the 2D-decomposed hurricane — substantial
/// per-process changing content (local-dedup finds ~30 %) that still
/// deduplicates across processes (coll-dedup reaches single digits),
/// with no process more than ~20 % globally unique. `nx = 512` makes one
/// grid row exactly one 4 KiB page, so page accounting is exact.
pub fn cm1_config() -> Cm1Config {
    Cm1Config {
        nx: 512,
        ny_per_rank: 8,
        vortex_radius: 4.0,
        cell_group: 8,
        core_boost: 4.0,
        private_factor: 0.02,
        ..Default::default()
    }
}

/// Generate every rank's checkpoint buffer for a world of `n`.
pub fn make_buffers(app: AppKind, n: u32) -> Vec<Vec<u8>> {
    match app {
        AppKind::Synthetic(w) => (0..n).map(|r| w.generate(r)).collect(),
        AppKind::ShiftedDup { base_len } => {
            let base = shared_base(base_len);
            (0..n).map(|r| shifted_dup_buffer(r, &base)).collect()
        }
        AppKind::InsertHeavy { base_len, inserts } => {
            let base = shared_base(base_len);
            (0..n)
                .map(|r| insert_heavy_buffer(r, &base, inserts))
                .collect()
        }
        AppKind::Hpccg { warmup } => {
            WorldConfig::default()
                .launch(n, |comm| {
                    let mut app = Hpccg::new(comm.rank(), comm.size(), hpccg_config());
                    app.run(comm, warmup);
                    let mut heap = TrackedHeap::default();
                    let regions = app.alloc_regions(&mut heap);
                    app.sync_to_heap(&mut heap, &regions);
                    heap.snapshot_bytes()
                })
                .expect_all()
                .results
        }
        AppKind::Cm1 { warmup } => {
            WorldConfig::default()
                .launch(n, |comm| {
                    let mut app = Cm1::new(comm.rank(), comm.size(), cm1_config());
                    app.run(comm, warmup);
                    let mut heap = TrackedHeap::default();
                    let regions = app.alloc_regions(&mut heap);
                    app.sync_to_heap(&mut heap, &regions);
                    heap.snapshot_bytes()
                })
                .expect_all()
                .results
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpccg_buffers_are_page_aligned_and_redundant() {
        let bufs = make_buffers(AppKind::hpccg(), 6);
        assert_eq!(bufs.len(), 6);
        for b in &bufs {
            assert_eq!(b.len() % 4096, 0);
            assert!(b.len() > 100 * 4096, "buffer too small: {} bytes", b.len());
        }
        // Interior ranks produce near-identical snapshots: everything but
        // the rank-private runtime-state region matches page for page.
        let same = bufs[2]
            .chunks(4096)
            .zip(bufs[3].chunks(4096))
            .filter(|(a, b)| a == b)
            .count();
        let pages = bufs[2].len() / 4096;
        assert!(
            same * 10 >= pages * 7,
            "only {same}/{pages} pages shared between interior ranks"
        );
        assert_ne!(bufs[0], bufs[2]);
    }

    #[test]
    fn cm1_groups_repeat_across_the_domain() {
        // Corresponding ranks of different (interior) cell groups carry
        // identical field content — the cross-rank duplication of
        // *changing* data that coll-dedup exploits on CM1. With 32 ranks
        // and groups of 8, group 1 (ranks 8..16) and group 2 (16..24) are
        // both interior; the eye lives in group 2 (central of 4).
        let bufs = make_buffers(AppKind::cm1(), 32);
        let pages = |b: &Vec<u8>| b.len() / 4096;
        // Rank 11 (group 1) vs rank 27 (group 3): same offset, no eye.
        let same = bufs[11]
            .chunks(4096)
            .zip(bufs[27].chunks(4096))
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            same * 10 >= pages(&bufs[11]) * 7,
            "only {same}/{} pages shared across groups",
            pages(&bufs[11])
        );
        // The eye rank (group 2, offset ~3-4 → rank 19/20) differs from its
        // group-translated twins.
        let eye_same = bufs[19]
            .chunks(4096)
            .zip(bufs[11].chunks(4096))
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            eye_same < same,
            "eye rank must be less similar to its twin than eyeless ranks ({eye_same} vs {same})"
        );
    }

    #[test]
    fn cm1_buffers_have_ambient_redundancy() {
        let bufs = make_buffers(AppKind::cm1(), 8);
        // Far ranks (0 and 7) are fully ambient: identical page for page
        // outside the rank-private runtime-state region.
        let same = bufs[0]
            .chunks(4096)
            .zip(bufs[7].chunks(4096))
            .filter(|(a, b)| a == b)
            .count();
        let pages = bufs[0].len() / 4096;
        assert!(
            same * 10 >= pages * 8,
            "only {same}/{pages} pages shared between far ranks"
        );
        assert_ne!(bufs[3], bufs[0], "vortex ranks differ");
    }

    #[test]
    fn synthetic_buffers_match_generator() {
        let w = SyntheticWorkload {
            chunk_size: 64,
            ..Default::default()
        };
        let bufs = make_buffers(AppKind::Synthetic(w), 3);
        assert_eq!(bufs[1], w.generate(1));
    }

    #[test]
    fn buffers_are_deterministic_across_calls() {
        let a = make_buffers(AppKind::hpccg(), 4);
        let b = make_buffers(AppKind::hpccg(), 4);
        assert_eq!(a, b);
    }

    #[test]
    fn shifted_dup_shares_content_at_misaligned_offsets() {
        let bufs = make_buffers(AppKind::shifted_dup(), 4);
        for (r, b) in bufs.iter().enumerate() {
            let prefix = r * 97 + 13;
            assert_eq!(b.len(), prefix + 192 * 1024);
            // The base is bit-identical across ranks, just shifted.
            assert_eq!(&b[prefix..], &bufs[0][13..]);
            // The shift is never page-aligned, so fixed 4 KiB chunking
            // sees (almost) nothing in common across ranks.
            assert_ne!(prefix % 4096, 0);
        }
        // Rank-private prefixes differ.
        assert_ne!(&bufs[1][..13], &bufs[0][..13]);
        // Fixed-stride pages barely overlap between shifted ranks.
        let same_pages = bufs[0]
            .chunks(4096)
            .zip(bufs[1].chunks(4096))
            .filter(|(a, b)| a == b)
            .count();
        assert_eq!(same_pages, 0, "shifted ranks must share no aligned pages");
    }

    #[test]
    fn insert_heavy_keeps_long_shared_runs() {
        let bufs = make_buffers(AppKind::insert_heavy(), 3);
        // Each rank grew by its private insertions only.
        for b in &bufs {
            assert!(b.len() > 192 * 1024);
            assert!(b.len() < 192 * 1024 + 16 * 33);
        }
        // Different ranks splice at different offsets with different bytes.
        assert_ne!(bufs[0], bufs[1]);
        // But both still contain a long run of the shared base verbatim:
        // the suffix after the last insertion is common content.
        let tail = &bufs[0][bufs[0].len() - 1024..];
        assert!(
            bufs[1].windows(tail.len()).any(|w| w == tail),
            "insert-heavy ranks must share long base runs"
        );
    }

    #[test]
    fn cdc_workloads_are_deterministic() {
        assert_eq!(
            make_buffers(AppKind::shifted_dup(), 3),
            make_buffers(AppKind::shifted_dup(), 3)
        );
        assert_eq!(
            make_buffers(AppKind::insert_heavy(), 3),
            make_buffers(AppKind::insert_heavy(), 3)
        );
    }

    #[test]
    fn cdc_workload_labels() {
        assert_eq!(AppKind::shifted_dup().label(), "shifted-dup");
        assert_eq!(AppKind::insert_heavy().label(), "insert-heavy");
    }
}
