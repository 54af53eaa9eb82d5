//! CM1-like atmospheric mini-model.
//!
//! CM1 is "a three-dimensional, non-hydrostatic, nonlinear, time-dependent
//! numerical model suitable for idealized studies of atmospheric
//! phenomena", run by the paper on a 3D hurricane (Bryan & Rotunno) with a
//! 200×200 subdomain per process. This reproduction keeps the properties
//! the evaluation depends on:
//!
//! * a distributed stencil computation over a decomposed spatial domain
//!   with halo exchange each time step,
//! * a localized phenomenon (a compactly supported vortex) over a uniform
//!   ambient atmosphere — subdomains far from the vortex remain
//!   bit-identical across ranks (the natural redundancy), and a growing
//!   fraction of the field changes between checkpoints (the paper notes
//!   ~500 MB of ~800 MB "constantly changed"),
//! * static fields (`u`, `v`, base pressure) alongside evolving ones
//!   (`theta`, perturbation pressure).
//!
//! The dynamics are upwind advection plus diffusion of potential
//! temperature in a prescribed vortex flow — deliberately simple numerics,
//! faithful memory behaviour.

use replidedup_ckpt::{RegionId, TrackedHeap};
use replidedup_mpi::{Comm, Tag};

use crate::util::{bytes_to_f64s, f64s_to_bytes};

const TAG_ROW_UP: Tag = 0x434D_0001;
const TAG_ROW_DOWN: Tag = 0x434D_0002;

/// CM1-like model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cm1Config {
    /// Global grid extent in x (columns, periodic).
    pub nx: usize,
    /// Rows per rank (global extent = `ny_per_rank * size`).
    pub ny_per_rank: usize,
    /// Time step.
    pub dt: f64,
    /// Grid spacing.
    pub dx: f64,
    /// Diffusivity.
    pub viscosity: f64,
    /// Peak tangential wind of the vortex.
    pub vortex_strength: f64,
    /// Vortex core radius (in grid cells); the flow is exactly zero beyond
    /// `2 × radius`, which is what keeps far subdomains bit-identical.
    pub vortex_radius: f64,
    /// Ambient potential temperature.
    pub theta0: f64,
    /// Rank-private runtime state as a fraction of field data (see
    /// [`crate::util::rank_private_bytes`]).
    pub private_factor: f64,
    /// `0` = single central vortex. `G > 0` = one identical vortex cell
    /// per group of `G` consecutive ranks (periodic convective system);
    /// see [`Cm1::new`].
    pub cell_group: u32,
    /// Extra warm-core amplitude applied to the central cell only (the
    /// globally unique "eye"); `0.0` disables it.
    pub core_boost: f64,
}

impl Default for Cm1Config {
    fn default() -> Self {
        Self {
            nx: 48,
            ny_per_rank: 12,
            dt: 0.1,
            dx: 1.0,
            viscosity: 0.05,
            vortex_strength: 2.0,
            vortex_radius: 6.0,
            theta0: 300.0,
            private_factor: 0.05,
            cell_group: 0,
            core_boost: 0.0,
        }
    }
}

/// Heap regions holding a checkpointable CM1 state.
#[derive(Debug, Clone, Copy)]
pub struct Cm1Regions {
    /// Rank-private runtime state (filled once at allocation).
    #[allow(dead_code)]
    private: RegionId,
    u: RegionId,
    v: RegionId,
    theta: RegionId,
    pressure: RegionId,
    meta: RegionId,
}

/// Per-rank CM1-like model state (row decomposition: rank r owns global
/// rows `[r*ny, (r+1)*ny)`).
#[derive(Debug, Clone)]
pub struct Cm1 {
    cfg: Cm1Config,
    rank: u32,
    size: u32,
    ny: usize,
    /// Static zonal wind, `ny × nx`.
    u: Vec<f64>,
    /// Static meridional wind, `ny × nx`.
    v: Vec<f64>,
    /// Evolving potential temperature, `ny × nx`.
    theta: Vec<f64>,
    /// Diagnostic perturbation pressure, `ny × nx`.
    pressure: Vec<f64>,
    step_count: u64,
}

impl Cm1 {
    /// Initialize the vortex field.
    ///
    /// With `cell_group == 0` (default): one hurricane-like vortex centered
    /// in the global domain.
    ///
    /// With `cell_group == G > 0`: a periodic *convective system* — one
    /// identical vortex cell per group of `G` consecutive ranks, at the
    /// same relative position in every group, plus a warm "eye" boost in
    /// the central group only. This is the memory-image profile the
    /// paper's CM1 hurricane exhibits under 2D decomposition: every group
    /// has partially perturbed subdomains whose content *repeats* across
    /// groups (high cross-rank duplication of changing data), while only
    /// the eye region is globally unique. A 1D row decomposition of a
    /// single disc cannot produce that profile at page granularity, so the
    /// periodic-cell mode exists to recover it (see DESIGN.md §2).
    pub fn new(rank: u32, size: u32, cfg: Cm1Config) -> Self {
        assert!(
            cfg.nx > 0 && cfg.ny_per_rank > 0,
            "grid extents must be positive"
        );
        let ny = cfg.ny_per_rank;
        let n = ny * cfg.nx;
        let gny = ny * size as usize;
        let cutoff = 2.0 * cfg.vortex_radius;
        let mut u = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut theta = vec![cfg.theta0; n];
        // Vortex cell centers: one global center, or one per rank group.
        let cx = cfg.nx as f64 / 2.0;
        let centers: Vec<f64> = if cfg.cell_group == 0 {
            vec![gny as f64 / 2.0]
        } else {
            let group_rows = (cfg.cell_group as usize * ny) as f64;
            let groups = (gny as f64 / group_rows).ceil() as usize;
            (0..groups)
                .map(|g| g as f64 * group_rows + group_rows / 2.0)
                .collect()
        };
        // The "eye": extra warmth in the central cell only (globally
        // unique content; everything else repeats across groups).
        let eye_center = centers[centers.len() / 2];
        let eye_cutoff = cfg.vortex_radius / 2.0;
        for iy in 0..ny {
            let gy = (rank as usize * ny + iy) as f64;
            for ix in 0..cfg.nx {
                let idx = iy * cfg.nx + ix;
                let dx = ix as f64 - cx;
                for &cy in &centers {
                    let dy = gy - cy;
                    let r = (dx * dx + dy * dy).sqrt();
                    if r < cutoff && r > 1e-9 {
                        // Rankine-like tangential wind, tapered smoothly to
                        // exactly zero at the cutoff so far cells stay
                        // bit-identical ambient.
                        let taper = {
                            let t = 1.0 - (r / cutoff) * (r / cutoff);
                            t * t
                        };
                        let s = cfg.vortex_strength
                            * (r / cfg.vortex_radius)
                            * (-((r / cfg.vortex_radius) * (r / cfg.vortex_radius)) / 2.0).exp()
                            * taper;
                        u[idx] += -s * dy / r;
                        v[idx] += s * dx / r;
                        // Warm core, same smooth compact support.
                        theta[idx] += 5.0 * (-(r / cfg.vortex_radius).powi(2)).exp() * taper;
                    }
                }
                if cfg.core_boost != 0.0 {
                    let dy = gy - eye_center;
                    let r = (dx * dx + dy * dy).sqrt();
                    if r < eye_cutoff {
                        let t = 1.0 - (r / eye_cutoff) * (r / eye_cutoff);
                        theta[idx] += cfg.core_boost * t * t;
                    }
                }
            }
        }
        let mut app = Self {
            cfg,
            rank,
            size,
            ny,
            u,
            v,
            theta,
            pressure: vec![0.0; n],
            step_count: 0,
        };
        app.diagnose_pressure();
        app
    }

    /// Completed time steps.
    pub fn steps(&self) -> u64 {
        self.step_count
    }

    /// Bytes of model state (checkpoint payload size).
    pub fn memory_bytes(&self) -> usize {
        4 * self.theta.len() * 8
    }

    fn diagnose_pressure(&mut self) {
        // Toy diagnostic: perturbation pressure ∝ -(θ - θ0).
        for (p, t) in self.pressure.iter_mut().zip(&self.theta) {
            *p = -0.5 * (t - self.cfg.theta0);
        }
    }

    /// Exchange boundary rows of `theta` with the neighbor ranks; returns
    /// `(below_row, above_row)` (ambient rows at the global edges).
    fn halo_rows(&self, comm: &mut Comm) -> (Vec<f64>, Vec<f64>) {
        let nx = self.cfg.nx;
        let below = self.rank.checked_sub(1);
        let above = (self.rank + 1 < self.size).then(|| self.rank + 1);
        if let Some(nb) = below {
            comm.try_send_val(nb, TAG_ROW_DOWN, &self.theta[..nx].to_vec())
                .unwrap_or_else(|e| panic!("CM1 halo exchange with rank {nb}: {e}"));
        }
        if let Some(na) = above {
            comm.try_send_val(na, TAG_ROW_UP, &self.theta[(self.ny - 1) * nx..].to_vec())
                .unwrap_or_else(|e| panic!("CM1 halo exchange with rank {na}: {e}"));
        }
        let ambient = vec![self.cfg.theta0; nx];
        let below_row = match below {
            Some(nb) => comm
                .try_recv_val(nb, TAG_ROW_UP)
                .unwrap_or_else(|e| panic!("CM1 halo exchange with rank {nb}: {e}")),
            None => ambient.clone(),
        };
        let above_row = match above {
            Some(na) => comm
                .try_recv_val(na, TAG_ROW_DOWN)
                .unwrap_or_else(|e| panic!("CM1 halo exchange with rank {na}: {e}")),
            None => ambient,
        };
        (below_row, above_row)
    }

    /// Advance one time step (collective: halo exchange with neighbors).
    pub fn step(&mut self, comm: &mut Comm) {
        let nx = self.cfg.nx;
        let (below, above) = self.halo_rows(comm);
        let at = |t: &[f64], iy: i64, ix: usize| -> f64 {
            // Periodic in x (handled by caller); clamped rows via halos.
            if iy < 0 {
                below[ix]
            } else if iy >= self.ny as i64 {
                above[ix]
            } else {
                t[iy as usize * nx + ix]
            }
        };
        let old = self.theta.clone();
        let (dt, dx, nu) = (self.cfg.dt, self.cfg.dx, self.cfg.viscosity);
        for iy in 0..self.ny as i64 {
            for ix in 0..nx {
                let idx = iy as usize * nx + ix;
                let (uu, vv) = (self.u[idx], self.v[idx]);
                let xm = (ix + nx - 1) % nx;
                let xp = (ix + 1) % nx;
                let c = at(&old, iy, ix);
                // Upwind advection.
                let dtdx = if uu >= 0.0 {
                    c - at(&old, iy, xm)
                } else {
                    at(&old, iy, xp) - c
                } / dx;
                let dtdy = if vv >= 0.0 {
                    c - at(&old, iy - 1, ix)
                } else {
                    at(&old, iy + 1, ix) - c
                } / dx;
                // Diffusion.
                let lap = (at(&old, iy, xm)
                    + at(&old, iy, xp)
                    + at(&old, iy - 1, ix)
                    + at(&old, iy + 1, ix)
                    - 4.0 * c)
                    / (dx * dx);
                self.theta[idx] = c + dt * (-(uu * dtdx + vv * dtdy) + nu * lap);
            }
        }
        self.diagnose_pressure();
        self.step_count += 1;
    }

    /// Run `steps` time steps.
    pub fn run(&mut self, comm: &mut Comm, steps: u64) {
        for _ in 0..steps {
            self.step(comm);
        }
    }

    /// Global heat anomaly Σ(θ - θ0) — a conserved-ish diagnostic
    /// (advection conserves it exactly; diffusion with clamped boundaries
    /// leaks only once the anomaly reaches the domain edge).
    pub fn heat_anomaly(&self, comm: &mut Comm) -> f64 {
        let local: f64 = self.theta.iter().map(|t| t - self.cfg.theta0).sum();
        comm.allreduce(local, |a, b| a + b)
    }

    /// Borrow the temperature field (tests/diagnostics).
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Fraction of this rank's cells still at exactly the ambient state
    /// (bit-identical across ranks — the dedupable share).
    pub fn ambient_fraction(&self) -> f64 {
        let ambient = self.theta.iter().filter(|&&t| t == self.cfg.theta0).count();
        ambient as f64 / self.theta.len() as f64
    }

    // ---- checkpoint integration ----------------------------------------

    /// Allocate heap regions sized for this model.
    pub fn alloc_regions(&self, heap: &mut TrackedHeap) -> Cm1Regions {
        let n = self.theta.len() * 8;
        let private_len = (4.0 * n as f64 * self.cfg.private_factor) as usize;
        let private = heap.alloc(private_len);
        heap.write(
            private,
            0,
            &crate::util::rank_private_bytes(self.rank, private_len),
        );
        Cm1Regions {
            private,
            u: heap.alloc(n),
            v: heap.alloc(n),
            theta: heap.alloc(n),
            pressure: heap.alloc(n),
            meta: heap.alloc(8),
        }
    }

    /// Write model state into the heap (call right before checkpoint).
    pub fn sync_to_heap(&self, heap: &mut TrackedHeap, regions: &Cm1Regions) {
        heap.write(regions.u, 0, &f64s_to_bytes(&self.u));
        heap.write(regions.v, 0, &f64s_to_bytes(&self.v));
        heap.write(regions.theta, 0, &f64s_to_bytes(&self.theta));
        heap.write(regions.pressure, 0, &f64s_to_bytes(&self.pressure));
        heap.write(regions.meta, 0, &self.step_count.to_le_bytes());
    }

    /// Rebuild model state from a restored heap.
    pub fn load_from_heap(
        heap: &TrackedHeap,
        regions: &Cm1Regions,
        rank: u32,
        size: u32,
        cfg: Cm1Config,
    ) -> Self {
        let mut app = Self::new(rank, size, cfg);
        app.u = bytes_to_f64s(heap.read(regions.u));
        app.v = bytes_to_f64s(heap.read(regions.v));
        app.theta = bytes_to_f64s(heap.read(regions.theta));
        app.pressure = bytes_to_f64s(heap.read(regions.pressure));
        app.step_count =
            u64::from_le_bytes(heap.read(regions.meta)[..8].try_into().expect("8 bytes"));
        app
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replidedup_mpi::WorldConfig;

    fn small() -> Cm1Config {
        Cm1Config {
            nx: 24,
            ny_per_rank: 8,
            vortex_radius: 3.0,
            ..Default::default()
        }
    }

    #[test]
    fn vortex_sits_in_global_center() {
        // 4 ranks × 8 rows: center row 16 → ranks 1 and 2 carry the vortex.
        let apps: Vec<Cm1> = (0..4).map(|r| Cm1::new(r, 4, small())).collect();
        assert!(apps[1].ambient_fraction() < 1.0);
        assert!(apps[2].ambient_fraction() < 1.0);
        assert_eq!(apps[0].ambient_fraction(), 1.0, "far rank fully ambient");
        assert_eq!(apps[3].ambient_fraction(), 1.0);
    }

    #[test]
    fn far_ranks_stay_bit_identical_under_stepping() {
        let out = WorldConfig::default()
            .launch(6, |comm| {
                let mut app = Cm1::new(comm.rank(), comm.size(), small());
                app.run(comm, 5);
                app.theta().to_vec()
            })
            .expect_all();
        // Ranks 0 and 5 are far from the center (48 rows, vortex support
        // rows 18..30, spreading ≤ one row per step): fully ambient.
        assert_eq!(out.results[0], out.results[5]);
        assert!(out.results[0].iter().all(|&t| t == 300.0));
        // Center ranks have structure.
        assert!(out.results[2].iter().any(|&t| t != 300.0));
    }

    #[test]
    fn heat_anomaly_is_conserved_early() {
        let out = WorldConfig::default()
            .launch(4, |comm| {
                let mut app = Cm1::new(comm.rank(), comm.size(), small());
                let before = app.heat_anomaly(comm);
                app.run(comm, 5);
                let after = app.heat_anomaly(comm);
                (before, after)
            })
            .expect_all();
        let (before, after) = out.results[0];
        assert!(before > 0.0, "warm core present");
        let rel = ((after - before) / before).abs();
        assert!(rel < 0.05, "anomaly drifted {rel} in 5 steps");
    }

    #[test]
    fn stepping_changes_the_field_near_the_vortex() {
        let out = WorldConfig::default()
            .launch(2, |comm| {
                let mut app = Cm1::new(comm.rank(), comm.size(), small());
                let t0 = app.theta().to_vec();
                app.step(comm);
                let changed = app.theta().iter().zip(&t0).filter(|(a, b)| a != b).count();
                (comm.rank(), changed)
            })
            .expect_all();
        // With 2 ranks the vortex straddles both.
        for (_, changed) in out.results {
            assert!(changed > 0, "time stepping must change the field");
        }
    }

    #[test]
    fn single_rank_matches_halo_free_reference() {
        // With one rank, halos are ambient — the global boundary condition.
        let out = WorldConfig::default()
            .launch(1, |comm| {
                let mut app = Cm1::new(0, 1, small());
                app.run(comm, 3);
                app.theta().to_vec()
            })
            .expect_all();
        assert!(out.results[0].iter().all(|t| t.is_finite()));
    }

    #[test]
    fn decomposition_invariance() {
        // 1 rank with 32 rows must equal 4 ranks with 8 rows each.
        let whole = WorldConfig::default()
            .launch(1, |comm| {
                let cfg = Cm1Config {
                    ny_per_rank: 32,
                    ..small()
                };
                let mut app = Cm1::new(0, 1, cfg);
                app.run(comm, 8);
                app.theta().to_vec()
            })
            .expect_all();
        let split = WorldConfig::default()
            .launch(4, |comm| {
                let mut app = Cm1::new(comm.rank(), comm.size(), small());
                app.run(comm, 8);
                app.theta().to_vec()
            })
            .expect_all();
        let stitched: Vec<f64> = split.results.into_iter().flatten().collect();
        assert_eq!(
            whole.results[0], stitched,
            "domain decomposition must not change physics"
        );
    }

    #[test]
    fn heap_roundtrip_resumes_exactly() {
        let out = WorldConfig::default()
            .launch(3, |comm| {
                let mut app = Cm1::new(comm.rank(), comm.size(), small());
                app.run(comm, 4);
                let mut heap = TrackedHeap::new(4096);
                let regions = app.alloc_regions(&mut heap);
                app.sync_to_heap(&mut heap, &regions);
                app.run(comm, 4);
                let mut replay =
                    Cm1::load_from_heap(&heap, &regions, comm.rank(), comm.size(), small());
                assert_eq!(replay.steps(), 4);
                replay.run(comm, 4);
                (app.theta().to_vec(), replay.theta().to_vec())
            })
            .expect_all();
        for (a, b) in out.results {
            assert_eq!(a, b, "bit-identical resume");
        }
    }
}
