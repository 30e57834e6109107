//! Distributed HPCG: the MPI-only execution of Table 2, for real.
//!
//! The global grid is decomposed into z-slabs over the ranks of an
//! [`mpisim`] world. Each CG iteration performs the communication pattern
//! of the real benchmark: a halo exchange of boundary z-planes before every
//! operator application, and an all-reduce for every dot product. The
//! preconditioner is block-Jacobi SymGS (each rank smooths its own slab) —
//! the standard distributed-memory adaptation.
//!
//! The tests pin the distributed solver to the serial one: the distributed
//! operator application matches the serial `MatrixFreeOperator` exactly,
//! and the solve converges to the same solution.

use mpisim::Comm;

/// Tags for the halo exchange.
const TAG_UP: u32 = 11; // data travelling to higher z
const TAG_DOWN: u32 = 12; // data travelling to lower z

/// One rank's slab of the global cube, plus ghost planes.
pub struct Slab {
    pub nx: usize,
    pub ny: usize,
    /// Local z-extent (without ghosts).
    pub nz_local: usize,
    /// Global z-offset of the first local plane.
    pub z0: usize,
    /// Global z-extent.
    pub nz_global: usize,
}

impl Slab {
    /// Partition `nz_global` planes over `size` ranks (remainder spread
    /// over the first ranks, like HPCG's generator).
    pub fn decompose(nx: usize, ny: usize, nz_global: usize, rank: usize, size: usize) -> Slab {
        assert!(nz_global >= size, "fewer planes than ranks");
        let base = nz_global / size;
        let extra = nz_global % size;
        let nz_local = base + usize::from(rank < extra);
        let z0 = rank * base + rank.min(extra);
        Slab {
            nx,
            ny,
            nz_local,
            z0,
            nz_global,
        }
    }

    pub fn plane_len(&self) -> usize {
        self.nx * self.ny
    }

    pub fn local_len(&self) -> usize {
        self.plane_len() * self.nz_local
    }

    /// Index into a local array (no ghosts).
    fn idx(&self, ix: usize, iy: usize, iz_local: usize) -> usize {
        (iz_local * self.ny + iy) * self.nx + ix
    }
}

/// Exchange boundary planes with z-neighbours; returns (below, above)
/// ghost planes (empty when at the global boundary).
pub(crate) fn halo_exchange(comm: &mut Comm, slab: &Slab, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let plane = slab.plane_len();
    let rank = comm.rank();
    let size = comm.size();
    let mut below = Vec::new();
    let mut above = Vec::new();
    // Send own top plane up / bottom plane down, receive ghosts.
    // Ordering avoids deadlock: everyone sends first (buffered sends).
    if rank + 1 < size {
        let top = x[(slab.nz_local - 1) * plane..].to_vec();
        comm.send(rank + 1, TAG_UP, top);
    }
    if rank > 0 {
        let bottom = x[..plane].to_vec();
        comm.send(rank - 1, TAG_DOWN, bottom);
    }
    if rank > 0 {
        below = comm.recv(rank - 1, TAG_UP);
        assert_eq!(below.len(), plane);
    }
    if rank + 1 < size {
        above = comm.recv(rank + 1, TAG_DOWN);
        assert_eq!(above.len(), plane);
    }
    (below, above)
}

/// `x` value at global plane offset `dz` relative to local plane `iz`,
/// honouring ghosts and the global Dirichlet boundary (0 outside).
#[inline]
#[allow(clippy::too_many_arguments)]
fn sample(
    slab: &Slab,
    x: &[f64],
    below: &[f64],
    above: &[f64],
    ix: i64,
    iy: i64,
    iz_local: i64,
) -> f64 {
    if ix < 0 || iy < 0 || ix >= slab.nx as i64 || iy >= slab.ny as i64 {
        return 0.0;
    }
    let plane_idx = (iy as usize) * slab.nx + ix as usize;
    if iz_local < 0 {
        if below.is_empty() {
            0.0
        } else {
            below[plane_idx]
        }
    } else if iz_local >= slab.nz_local as i64 {
        if above.is_empty() {
            0.0
        } else {
            above[plane_idx]
        }
    } else {
        x[slab.idx(ix as usize, iy as usize, iz_local as usize)]
    }
}

/// Distributed 27-point operator: `y = A x` on this rank's slab, using
/// freshly exchanged ghost planes.
pub fn apply(comm: &mut Comm, slab: &Slab, x: &[f64], y: &mut [f64]) {
    let (below, above) = halo_exchange(comm, slab, x);
    for iz in 0..slab.nz_local as i64 {
        for iy in 0..slab.ny as i64 {
            for ix in 0..slab.nx as i64 {
                // Accumulate the neighbour sum first, then subtract once:
                // the exact operation order of the serial operator, so the
                // distributed result is bitwise identical.
                let mut neighbours = 0.0;
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            if dx == 0 && dy == 0 && dz == 0 {
                                continue;
                            }
                            neighbours +=
                                sample(slab, x, &below, &above, ix + dx, iy + dy, iz + dz);
                        }
                    }
                }
                let centre = sample(slab, x, &below, &above, ix, iy, iz);
                y[slab.idx(ix as usize, iy as usize, iz as usize)] = 26.0 * centre - neighbours;
            }
        }
    }
}

/// Block-Jacobi SymGS: one symmetric sweep within the local slab, ghosts
/// frozen at their exchanged values.
fn block_symgs(comm: &mut Comm, slab: &Slab, r: &[f64], z: &mut [f64]) {
    let (below, above) = halo_exchange(comm, slab, z);
    let ns = |z: &[f64], ix: i64, iy: i64, iz: i64| -> f64 {
        let mut s = 0.0;
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    s += sample(slab, z, &below, &above, ix + dx, iy + dy, iz + dz);
                }
            }
        }
        s
    };

    for iz in 0..slab.nz_local as i64 {
        for iy in 0..slab.ny as i64 {
            for ix in 0..slab.nx as i64 {
                let i = slab.idx(ix as usize, iy as usize, iz as usize);
                z[i] = (r[i] + ns(z, ix, iy, iz)) / 26.0;
            }
        }
    }
    for iz in (0..slab.nz_local as i64).rev() {
        for iy in (0..slab.ny as i64).rev() {
            for ix in (0..slab.nx as i64).rev() {
                let i = slab.idx(ix as usize, iy as usize, iz as usize);
                z[i] = (r[i] + ns(z, ix, iy, iz)) / 26.0;
            }
        }
    }
}

/// Distributed dot product.
pub(crate) fn ddot(comm: &Comm, a: &[f64], b: &[f64]) -> f64 {
    let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    comm.allreduce_sum(local)
}

/// Result of a distributed CG solve on one rank.
#[derive(Debug, Clone)]
pub struct DistributedCgResult {
    pub iterations: usize,
    pub initial_residual: f64,
    pub final_residual: f64,
    /// This rank's piece of the solution.
    pub x_local: Vec<f64>,
}

/// Preconditioned CG over the slab decomposition. `rhs_local` is this
/// rank's slice of the global right-hand side.
pub fn pcg_distributed(
    comm: &mut Comm,
    slab: &Slab,
    rhs_local: &[f64],
    max_iters: usize,
    tolerance: f64,
) -> DistributedCgResult {
    let n = slab.local_len();
    assert_eq!(rhs_local.len(), n);
    let mut x = vec![0.0; n];
    let mut r = rhs_local.to_vec();
    let mut z = vec![0.0; n];
    let mut ap = vec![0.0; n];

    let norm0 = ddot(comm, &r, &r).sqrt();
    if norm0 == 0.0 {
        return DistributedCgResult {
            iterations: 0,
            initial_residual: 0.0,
            final_residual: 0.0,
            x_local: x,
        };
    }
    z.fill(0.0);
    block_symgs(comm, slab, &r, &mut z);
    let mut p = z.clone();
    let mut rz = ddot(comm, &r, &z);
    let mut iterations = 0;
    let mut norm = norm0;

    for _ in 0..max_iters {
        apply(comm, slab, &p, &mut ap);
        let pap = ddot(comm, &p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            break;
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        iterations += 1;
        norm = ddot(comm, &r, &r).sqrt();
        if norm / norm0 < tolerance {
            break;
        }
        z.fill(0.0);
        block_symgs(comm, slab, &r, &mut z);
        let rz_new = ddot(comm, &r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    DistributedCgResult {
        iterations,
        initial_residual: norm0,
        final_residual: norm,
        x_local: x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpcg::{MatrixFreeOperator, Operator, Problem};

    /// Build the slice of the global RHS owned by `slab`.
    fn local_rhs(problem: &Problem, slab: &Slab) -> Vec<f64> {
        let plane = slab.plane_len();
        problem.rhs[slab.z0 * plane..(slab.z0 + slab.nz_local) * plane].to_vec()
    }

    #[test]
    fn decomposition_covers_global_grid() {
        for size in [1usize, 2, 3, 5, 8] {
            let mut total = 0;
            let mut next_z0 = 0;
            for rank in 0..size {
                let s = Slab::decompose(4, 5, 16, rank, size);
                assert_eq!(s.z0, next_z0, "slabs must be contiguous");
                next_z0 += s.nz_local;
                total += s.nz_local;
            }
            assert_eq!(total, 16);
        }
    }

    #[test]
    fn distributed_apply_matches_serial_exactly() {
        let (nx, ny, nz) = (5, 4, 12);
        let problem = Problem::new(nx, ny, nz);
        let serial_op = MatrixFreeOperator::new(&problem);
        let x_global: Vec<f64> = (0..problem.n())
            .map(|i| ((i * 37) % 101) as f64 * 0.01)
            .collect();
        let mut y_serial = vec![0.0; problem.n()];
        serial_op.apply(&x_global, &mut y_serial);

        for size in [1usize, 2, 3, 4] {
            let pieces = mpisim::run(size, |comm| {
                let slab = Slab::decompose(nx, ny, nz, comm.rank(), comm.size());
                let plane = slab.plane_len();
                let x_local = x_global[slab.z0 * plane..(slab.z0 + slab.nz_local) * plane].to_vec();
                let mut y_local = vec![0.0; slab.local_len()];
                apply(comm, &slab, &x_local, &mut y_local);
                y_local
            });
            let y_dist: Vec<f64> = pieces.into_iter().flatten().collect();
            assert_eq!(y_dist, y_serial, "size={size} mismatch");
        }
    }

    #[test]
    fn distributed_dot_matches_serial() {
        let n_global = 96;
        let data: Vec<f64> = (0..n_global).map(|i| (i as f64).sin()).collect();
        let expect: f64 = data.iter().map(|v| v * v).sum();
        let out = mpisim::run(4, |comm| {
            let chunk = n_global / comm.size();
            let lo = comm.rank() * chunk;
            let local = &data[lo..lo + chunk];
            ddot(comm, local, local)
        });
        for v in out {
            assert!((v - expect).abs() < 1e-9 * expect);
        }
    }

    #[test]
    fn distributed_cg_converges_and_matches_serial_solution() {
        let (nx, ny, nz) = (6, 6, 12);
        let problem = Problem::new(nx, ny, nz);
        // Serial reference.
        let op = MatrixFreeOperator::new(&problem);
        let serial = crate::hpcg::pcg(&op, &problem.rhs, 200, 1e-10);
        assert!(serial.final_relative_residual() < 1e-10);

        for size in [2usize, 3] {
            let results = mpisim::run(size, |comm| {
                let slab = Slab::decompose(nx, ny, nz, comm.rank(), comm.size());
                let rhs = local_rhs(&problem, &slab);
                pcg_distributed(comm, &slab, &rhs, 300, 1e-10)
            });
            // Converged everywhere (block-Jacobi may take a few more
            // iterations than the serial SymGS preconditioner).
            for r in &results {
                assert!(
                    r.final_residual < r.initial_residual * 1e-10,
                    "size={size}: {} -> {}",
                    r.initial_residual,
                    r.final_residual
                );
            }
            // The assembled global solution solves the same system: both
            // solutions are the ones vector (rhs = A·1).
            let x_global: Vec<f64> = results.into_iter().flat_map(|r| r.x_local).collect();
            for (i, v) in x_global.iter().enumerate() {
                assert!((v - 1.0).abs() < 1e-7, "x[{i}] = {v}");
            }
        }
    }

    #[test]
    fn single_rank_matches_serial_iteration_count() {
        // With one rank, block-Jacobi SymGS *is* the serial preconditioner.
        let problem = Problem::cube(8);
        let op = MatrixFreeOperator::new(&problem);
        let serial = crate::hpcg::pcg(&op, &problem.rhs, 60, 1e-9);
        let dist = mpisim::run(1, |comm| {
            let slab = Slab::decompose(8, 8, 8, 0, 1);
            pcg_distributed(comm, &slab, &problem.rhs, 60, 1e-9)
        });
        assert_eq!(dist[0].iterations, serial.iterations);
    }
}
