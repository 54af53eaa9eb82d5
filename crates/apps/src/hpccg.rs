//! HPCCG: the Mantevo conjugate-gradient mini-app.
//!
//! "A simple conjugate gradient benchmark code for a 3D chimney domain on
//! an arbitrary number of processes that generates a 27-point finite
//! difference matrix with a user-prescribed sub-block size on each
//! process." (Section V-B) The paper runs a 150³ sub-block per process
//! (~1.5 GB); this reproduction runs the same solver at laptop-scale
//! sub-blocks — the *structure* of the memory image, which is what the
//! deduplication exploits, is size-independent:
//!
//! * the sparse-matrix arrays (`cols`, `vals`, `nnz_per_row`) use local
//!   indexing and are bit-identical on every interior rank,
//! * the CG vectors of interior ranks evolve identically by translation
//!   symmetry (1D decomposition of a homogeneous operator), while boundary
//!   ranks diverge — exactly the "natural distributed redundancy" the
//!   paper measures on HPCCG.
//!
//! The solver is a faithful distributed CG: 27-point operator with halo
//! exchange across the z-decomposition and allreduce-based dot products.

use replidedup_ckpt::{RegionId, TrackedHeap};
use replidedup_mpi::{Comm, Tag};

use crate::util::{bytes_to_f64s, f64s_to_bytes};

const TAG_HALO_UP: Tag = 0x4850_0001;
const TAG_HALO_DOWN: Tag = 0x4850_0002;

/// HPCCG problem configuration (per-rank sub-block).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HpccgConfig {
    /// Sub-block extent in x.
    pub nx: usize,
    /// Sub-block extent in y.
    pub ny: usize,
    /// Sub-block extent in z (stacked across ranks).
    pub nz: usize,
    /// Transparent-capture heap slack as a fraction of live solver data.
    ///
    /// AC-FTE's transparent mode snapshots *all* pages the process
    /// allocator mapped — jemalloc arena slack, freed-but-mapped regions,
    /// communication buffers — which are zero/uniform and deduplicate
    /// locally. This is what gives the paper's HPCCG its measured
    /// intra-process redundancy (local-dedup reduces it to 33%); the
    /// solver arrays alone have almost none. Captured here as a
    /// zero-filled region of `slack_factor × live bytes`.
    pub slack_factor: f64,
    /// Rank-private runtime state (MPI structures, stacks, rank-indexed
    /// buffers) as a fraction of live solver data — content a transparent
    /// capture includes that never deduplicates across ranks. See
    /// [`crate::util::rank_private_bytes`].
    pub private_factor: f64,
}

impl Default for HpccgConfig {
    fn default() -> Self {
        // Laptop-scale stand-in for the paper's 150³.
        Self {
            nx: 16,
            ny: 16,
            nz: 16,
            slack_factor: 1.5,
            private_factor: 0.16,
        }
    }
}

/// Heap regions holding a checkpointable HPCCG state.
#[derive(Debug, Clone, Copy)]
pub struct HpccgRegions {
    vals: RegionId,
    /// Zero-filled transparent-capture slack (never written).
    #[allow(dead_code)]
    slack: RegionId,
    /// Rank-private runtime state (filled once at allocation).
    #[allow(dead_code)]
    private: RegionId,
    cols: RegionId,
    x: RegionId,
    b: RegionId,
    r: RegionId,
    p: RegionId,
    meta: RegionId,
}

/// Distributed HPCCG solver state for one rank.
#[derive(Debug, Clone)]
pub struct Hpccg {
    cfg: HpccgConfig,
    rank: u32,
    size: u32,
    nrows: usize,
    plane: usize,
    /// CSR-ish storage: 27 slots per row, unused slots hold col -1.
    cols: Vec<i32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    b: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    rtrans: f64,
    iter: u64,
    started: bool,
}

impl Hpccg {
    /// Build the local sub-block of the 27-point problem. Rank `rank` of
    /// `size` owns z-slab `[rank*nz, (rank+1)*nz)` of the global chimney.
    pub fn new(rank: u32, size: u32, cfg: HpccgConfig) -> Self {
        assert!(
            cfg.nx > 0 && cfg.ny > 0 && cfg.nz > 0,
            "sub-block extents must be positive"
        );
        let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
        let nrows = nx * ny * nz;
        let plane = nx * ny;
        let gz_max = nz * size as usize;
        let mut cols = vec![-1i32; nrows * 27];
        let mut vals = vec![0f64; nrows * 27];
        let mut b = vec![0f64; nrows];
        for iz in 0..nz {
            let gz = rank as usize * nz + iz;
            for iy in 0..ny {
                for ix in 0..nx {
                    let row = ix + iy * nx + iz * plane;
                    let mut slot = 0;
                    let mut nnz = 0u32;
                    for dz in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dx in -1i64..=1 {
                                let (jx, jy) = (ix as i64 + dx, iy as i64 + dy);
                                let jgz = gz as i64 + dz;
                                let in_domain = (0..nx as i64).contains(&jx)
                                    && (0..ny as i64).contains(&jy)
                                    && (0..gz_max as i64).contains(&jgz);
                                if in_domain {
                                    let jz = iz as i64 + dz;
                                    // Local cells use local row indices;
                                    // halo cells (one plane below/above the
                                    // slab) are appended after the rows.
                                    let col = if jz < 0 {
                                        nrows as i64 + jx + jy * nx as i64
                                    } else if jz >= nz as i64 {
                                        (nrows + plane) as i64 + jx + jy * nx as i64
                                    } else {
                                        jx + jy * nx as i64 + jz * plane as i64
                                    };
                                    let diag = dx == 0 && dy == 0 && dz == 0;
                                    cols[row * 27 + slot] = col as i32;
                                    vals[row * 27 + slot] = if diag { 27.0 } else { -1.0 };
                                    slot += 1;
                                    nnz += 1;
                                }
                            }
                        }
                    }
                    // Same RHS as Mantevo HPCCG: 27 - (nnz_in_row - 1),
                    // making x == ones the exact solution.
                    b[row] = 27.0 - f64::from(nnz - 1);
                }
            }
        }
        Self {
            cfg,
            rank,
            size,
            nrows,
            plane,
            cols,
            vals,
            x: vec![0.0; nrows],
            b,
            r: vec![0.0; nrows],
            p: vec![0.0; nrows],
            rtrans: 0.0,
            iter: 0,
            started: false,
        }
    }

    /// Local rows in the sub-block.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// The configuration this solver was built with.
    pub fn config(&self) -> &HpccgConfig {
        &self.cfg
    }

    /// Completed CG iterations.
    pub fn iterations(&self) -> u64 {
        self.iter
    }

    /// Approximate bytes of solver state (the checkpoint payload size).
    pub fn memory_bytes(&self) -> usize {
        self.vals.len() * 8 + self.cols.len() * 4 + 4 * self.nrows * 8
    }

    fn ddot(&self, comm: &mut Comm, a: &[f64], b: &[f64]) -> f64 {
        let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        comm.allreduce(local, |x, y| x + y)
    }

    /// Exchange halo planes of `v` and return the extended vector
    /// `[v, below_plane, above_plane]` (absent neighbors give zero planes,
    /// consistent with domain truncation).
    fn with_halo(&self, comm: &mut Comm, v: &[f64]) -> Vec<f64> {
        let mut ext = Vec::with_capacity(self.nrows + 2 * self.plane);
        ext.extend_from_slice(v);
        ext.resize(self.nrows + 2 * self.plane, 0.0);
        let below = self.rank.checked_sub(1);
        let above = (self.rank + 1 < self.size).then(|| self.rank + 1);
        // Send my boundary planes outward.
        if let Some(nb) = below {
            comm.try_send_val(nb, TAG_HALO_DOWN, &v[..self.plane].to_vec())
                .unwrap_or_else(|e| panic!("HPCCG halo exchange with rank {nb}: {e}"));
        }
        if let Some(na) = above {
            comm.try_send_val(na, TAG_HALO_UP, &v[self.nrows - self.plane..].to_vec())
                .unwrap_or_else(|e| panic!("HPCCG halo exchange with rank {na}: {e}"));
        }
        // Receive neighbor planes inward.
        if let Some(nb) = below {
            let plane: Vec<f64> = comm
                .try_recv_val(nb, TAG_HALO_UP)
                .unwrap_or_else(|e| panic!("HPCCG halo exchange with rank {nb}: {e}"));
            ext[self.nrows..self.nrows + self.plane].copy_from_slice(&plane);
        }
        if let Some(na) = above {
            let plane: Vec<f64> = comm
                .try_recv_val(na, TAG_HALO_DOWN)
                .unwrap_or_else(|e| panic!("HPCCG halo exchange with rank {na}: {e}"));
            ext[self.nrows + self.plane..].copy_from_slice(&plane);
        }
        ext
    }

    /// Sparse matrix-vector product `out = A * v` with halo exchange.
    fn matvec(&self, comm: &mut Comm, v: &[f64], out: &mut [f64]) {
        let ext = self.with_halo(comm, v);
        for (row, out_row) in out.iter_mut().enumerate() {
            let mut sum = 0.0;
            for slot in 0..27 {
                let col = self.cols[row * 27 + slot];
                if col >= 0 {
                    sum += self.vals[row * 27 + slot] * ext[col as usize];
                }
            }
            *out_row = sum;
        }
    }

    /// One CG iteration (collective). Returns the residual 2-norm.
    pub fn step(&mut self, comm: &mut Comm) -> f64 {
        if !self.started {
            // r = b - A x with x = 0; p = r.
            let mut ax = vec![0.0; self.nrows];
            let x = self.x.clone();
            self.matvec(comm, &x, &mut ax);
            for ((r, b), ax) in self.r.iter_mut().zip(&self.b).zip(&ax) {
                *r = b - ax;
            }
            self.p.copy_from_slice(&self.r);
            self.rtrans = self.ddot(comm, &self.r.clone(), &self.r.clone());
            self.started = true;
        }
        let mut ap = vec![0.0; self.nrows];
        let p = self.p.clone();
        self.matvec(comm, &p, &mut ap);
        let p_ap = self.ddot(comm, &self.p.clone(), &ap);
        let alpha = self.rtrans / p_ap;
        for ((x, r), (p, ap)) in self
            .x
            .iter_mut()
            .zip(self.r.iter_mut())
            .zip(self.p.iter().zip(&ap))
        {
            *x += alpha * p;
            *r -= alpha * ap;
        }
        let new_rtrans = self.ddot(comm, &self.r.clone(), &self.r.clone());
        let beta = new_rtrans / self.rtrans;
        self.rtrans = new_rtrans;
        for (p, r) in self.p.iter_mut().zip(&self.r) {
            *p = r + beta * *p;
        }
        self.iter += 1;
        self.rtrans.sqrt()
    }

    /// Run `iters` CG iterations; returns the final residual norm.
    pub fn run(&mut self, comm: &mut Comm, iters: u64) -> f64 {
        let mut res = self.rtrans.sqrt();
        for _ in 0..iters {
            res = self.step(comm);
        }
        res
    }

    /// Max-norm distance of `x` from the exact solution (all ones).
    pub fn solution_error(&self) -> f64 {
        self.x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max)
    }

    // ---- checkpoint integration ----------------------------------------

    /// Allocate heap regions sized for this problem.
    pub fn alloc_regions(&self, heap: &mut TrackedHeap) -> HpccgRegions {
        let live = self.memory_bytes();
        let slack = (live as f64 * self.cfg.slack_factor) as usize;
        let private_len = (live as f64 * self.cfg.private_factor) as usize;
        let private = heap.alloc(private_len);
        heap.write(
            private,
            0,
            &crate::util::rank_private_bytes(self.rank, private_len),
        );
        HpccgRegions {
            vals: heap.alloc(self.vals.len() * 8),
            slack: heap.alloc(slack),
            private,
            cols: heap.alloc(self.cols.len() * 4),
            x: heap.alloc(self.nrows * 8),
            b: heap.alloc(self.nrows * 8),
            r: heap.alloc(self.nrows * 8),
            p: heap.alloc(self.nrows * 8),
            meta: heap.alloc(24),
        }
    }

    /// Write all solver state into the heap (call right before checkpoint).
    pub fn sync_to_heap(&self, heap: &mut TrackedHeap, regions: &HpccgRegions) {
        heap.write(regions.vals, 0, &f64s_to_bytes(&self.vals));
        heap.write(regions.cols, 0, &crate::util::i32s_to_bytes(&self.cols));
        heap.write(regions.x, 0, &f64s_to_bytes(&self.x));
        heap.write(regions.b, 0, &f64s_to_bytes(&self.b));
        heap.write(regions.r, 0, &f64s_to_bytes(&self.r));
        heap.write(regions.p, 0, &f64s_to_bytes(&self.p));
        let mut meta = Vec::with_capacity(24);
        meta.extend_from_slice(&self.iter.to_le_bytes());
        meta.extend_from_slice(&self.rtrans.to_le_bytes());
        meta.extend_from_slice(&u64::from(self.started).to_le_bytes());
        heap.write(regions.meta, 0, &meta);
    }

    /// Rebuild solver state from a restored heap.
    pub fn load_from_heap(
        heap: &TrackedHeap,
        regions: &HpccgRegions,
        rank: u32,
        size: u32,
        cfg: HpccgConfig,
    ) -> Self {
        let mut app = Self::new(rank, size, cfg);
        app.vals = bytes_to_f64s(heap.read(regions.vals));
        app.cols = crate::util::bytes_to_i32s(heap.read(regions.cols));
        app.x = bytes_to_f64s(heap.read(regions.x));
        app.b = bytes_to_f64s(heap.read(regions.b));
        app.r = bytes_to_f64s(heap.read(regions.r));
        app.p = bytes_to_f64s(heap.read(regions.p));
        let meta = heap.read(regions.meta);
        app.iter = u64::from_le_bytes(meta[..8].try_into().expect("8 bytes"));
        app.rtrans = f64::from_le_bytes(meta[8..16].try_into().expect("8 bytes"));
        app.started = u64::from_le_bytes(meta[16..24].try_into().expect("8 bytes")) != 0;
        app
    }

    /// Borrow the raw state vectors (tests/diagnostics).
    pub fn state(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.x, &self.r, &self.p)
    }

    /// Borrow the matrix arrays (tests/diagnostics).
    pub fn matrix(&self) -> (&[f64], &[i32]) {
        (&self.vals, &self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replidedup_mpi::WorldConfig;

    fn small() -> HpccgConfig {
        HpccgConfig {
            nx: 6,
            ny: 6,
            nz: 4,
            slack_factor: 0.5,
            private_factor: 0.1,
        }
    }

    #[test]
    fn interior_row_has_27_entries() {
        let app = Hpccg::new(1, 3, small());
        // Row in the middle of the slab: full 27-point stencil.
        let row = 2 + 2 * 6 + 2 * 36;
        let nnz = (0..27).filter(|s| app.cols[row * 27 + s] >= 0).count();
        assert_eq!(nnz, 27);
        assert_eq!(app.b[row], 27.0 - 26.0);
    }

    #[test]
    fn corner_row_is_truncated() {
        let app = Hpccg::new(0, 1, small());
        let nnz = (0..27).filter(|&s| app.cols[s] >= 0).count();
        assert_eq!(nnz, 8, "global corner sees 2x2x2 cells");
        assert_eq!(app.b[0], 27.0 - 7.0);
    }

    #[test]
    fn matrix_is_identical_across_interior_ranks() {
        // The redundancy HPCCG exhibits in the paper: local-indexed matrix
        // arrays repeat bit-for-bit on interior ranks.
        let a = Hpccg::new(1, 4, small());
        let b = Hpccg::new(2, 4, small());
        assert_eq!(a.matrix(), b.matrix());
        // Boundary rank differs (truncated stencil at global z ends).
        let c = Hpccg::new(0, 4, small());
        assert_ne!(a.matrix().1, c.matrix().1);
    }

    #[test]
    fn single_rank_cg_converges_to_ones() {
        let out = WorldConfig::default()
            .launch(1, |comm| {
                let mut app = Hpccg::new(0, 1, small());
                let res = app.run(comm, 60);
                (res, app.solution_error())
            })
            .expect_all();
        let (res, err) = out.results[0];
        assert!(res < 1e-8, "residual {res}");
        assert!(err < 1e-6, "solution error {err}");
    }

    #[test]
    fn distributed_cg_converges_and_matches_single_rank_shape() {
        let out = WorldConfig::default()
            .launch(4, |comm| {
                let mut app = Hpccg::new(comm.rank(), comm.size(), small());
                let res = app.run(comm, 80);
                (res, app.solution_error())
            })
            .expect_all();
        for (res, err) in out.results {
            assert!(res < 1e-8, "residual {res}");
            assert!(err < 1e-6, "solution error {err}");
        }
    }

    #[test]
    fn interior_ranks_stay_bit_identical_mid_solve() {
        // Translation symmetry: interior ranks of a 5-slab stack see
        // identical local problems for the first iterations (boundary
        // effects propagate one plane per matvec; nz=4 gives a few clean
        // steps).
        let out = WorldConfig::default()
            .launch(5, |comm| {
                let mut app = Hpccg::new(comm.rank(), comm.size(), small());
                app.run(comm, 2);
                app.state().0.to_vec()
            })
            .expect_all();
        assert_eq!(
            out.results[1], out.results[2],
            "interior ranks identical at iter 2"
        );
        assert_eq!(out.results[2], out.results[3]);
        assert_ne!(out.results[0], out.results[2], "boundary rank diverges");
    }

    #[test]
    fn residual_decreases_monotonically_early() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let mut app = Hpccg::new(comm.rank(), comm.size(), small());
                let r1 = app.step(comm);
                let r5 = app.run(comm, 4);
                (r1, r5)
            })
            .expect_all();
        for (r1, r5) in out.results {
            assert!(r5 < r1, "CG must reduce the residual: {r1} -> {r5}");
        }
    }

    #[test]
    fn heap_roundtrip_resumes_exactly() {
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let mut app = Hpccg::new(comm.rank(), comm.size(), small());
                app.run(comm, 5);
                let mut heap = TrackedHeap::new(4096);
                let regions = app.alloc_regions(&mut heap);
                app.sync_to_heap(&mut heap, &regions);
                // Continue the original 3 more steps.
                let expect = app.run(comm, 3);
                // Restore the snapshot and replay the same 3 steps.
                let mut replay =
                    Hpccg::load_from_heap(&heap, &regions, comm.rank(), comm.size(), small());
                assert_eq!(replay.iterations(), 5);
                let got = replay.run(comm, 3);
                (
                    expect,
                    got,
                    app.state().0.to_vec(),
                    replay.state().0.to_vec(),
                )
            })
            .expect_all();
        for (expect, got, x1, x2) in out.results {
            assert_eq!(expect.to_bits(), got.to_bits(), "bit-identical resume");
            assert_eq!(x1, x2);
        }
    }

    #[test]
    fn memory_bytes_reflects_arrays() {
        let app = Hpccg::new(0, 1, small());
        let n = 6 * 6 * 4;
        assert_eq!(app.memory_bytes(), n * 27 * 8 + n * 27 * 4 + 4 * n * 8);
    }
}
