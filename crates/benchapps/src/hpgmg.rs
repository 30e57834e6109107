//! HPGMG-FV: the finite-volume full-multigrid benchmark (§3.3, Tables 3–4).
//!
//! A geometric multigrid solver for a 3D Poisson problem: V-cycles built
//! from red-black Gauss-Seidel smoothing (HPGMG's GSRB), 8-cell-average
//! restriction and cell-centred trilinear prolongation. The benchmark
//! reports a compute rate in DOF/s at the finest level (`l0`) and at two
//! successively 8× smaller problems (`l1`, `l2`) — exactly the three
//! Figures of Merit the paper's Table 4 lists per system.
//!
//! As with the other apps, the solver always runs for real (so the
//! residual checks are genuine); simulated platforms report times from a
//! cost model with volume (DRAM), surface (halo exchange) and fixed
//! (latency/coarse-chain) terms, whose constants are calibrated against
//! Table 4 and validated by the `table4` bench. A simulated platform that
//! cannot host the run (a GPU, too few nodes) is rejected before the
//! solve, so skipped cells cost nothing.
//!
//! The solver's loops are shaped for speed but its arithmetic is fixed.
//! Each level keeps its cube inside a one-cell ghost shell of `+0.0` that
//! nothing writes, so every phase runs one branch-free loop per row: a
//! boundary cell subtracts a ghost, which is exactly skipping the missing
//! neighbour, and its diagonal is the row's integer `6 + j/k faces`, plus 1
//! at the row's two end cells. Each colour's sweep visits only its own
//! cells, restriction sums four fine residual rows computed on the spot,
//! prolongation weighs each coarse row once, and the right-hand side's
//! sines are tabled. Every floating-point operation, its operands and its
//! order match the straightforward triple-loop solver (`u += r / diag`,
//! never `r * (1/6)`; neighbours subtracted i, j, k; the residual norm
//! summed lexicographically), so results are bit-identical to it — the
//! `differential` test below holds a copy and compares bits.

use crate::memo::{self, Solution, SolveKey, SolveMemo};
use crate::{BenchError, ExecutionMode, RunOutput};
use simhpc::noise::NoiseModel;
use simhpc::Partition;
use std::time::Instant;

/// Run configuration, mirroring `hpgmg-fv <log2_box_dim> <boxes_per_rank>`
/// plus the ReFrame task layout of the paper's appendix.
#[derive(Debug, Clone)]
pub struct HpgmgConfig {
    /// log2 of the box dimension (paper: 7 → 128³ cells per box).
    pub log2_box_dim: u32,
    /// Boxes per MPI rank (paper: 8).
    pub boxes_per_rank: u32,
    /// `num_tasks` (paper: 8).
    pub ranks: u32,
    /// `num_tasks_per_node` (paper: 2).
    pub tasks_per_node: u32,
    /// `num_cpus_per_task` (paper: 8).
    pub cpus_per_task: u32,
}

impl Default for HpgmgConfig {
    fn default() -> HpgmgConfig {
        HpgmgConfig {
            log2_box_dim: 5,
            boxes_per_rank: 8,
            ranks: 8,
            tasks_per_node: 2,
            cpus_per_task: 8,
        }
    }
}

impl HpgmgConfig {
    /// The paper's exact configuration (`7 8`, 8 ranks, 2 per node).
    pub fn paper() -> HpgmgConfig {
        HpgmgConfig {
            log2_box_dim: 7,
            ..HpgmgConfig::default()
        }
    }

    /// Degrees of freedom at reported level `l` (0 = finest).
    pub fn dof_at_level(&self, level: u32) -> u64 {
        let per_box = 1u64 << (3 * self.log2_box_dim);
        (per_box * self.boxes_per_rank as u64 * self.ranks as u64) >> (3 * level)
    }

    pub fn nodes(&self) -> u32 {
        self.ranks.div_ceil(self.tasks_per_node.max(1))
    }
}

// ---------------------------------------------------------------------------
// The real multigrid solver (periodically sized cube, 7-point FV Laplacian).
// ---------------------------------------------------------------------------

/// One grid level: an `n³` cell-centred cube with Dirichlet boundaries,
/// stored with a one-cell ghost shell on an `(n+2)³` grid. The shell holds
/// `+0.0` and is never written: smoothing and prolongation write interior
/// cells only, and restriction zeroes the whole coarse `u`. So a boundary
/// cell's missing neighbour reads as `+0.0`, and `x - (+0.0) == x` for
/// every `x` (`-0.0` included): subtracting a ghost is exactly skipping it.
struct Level {
    n: usize,
    u: Vec<f64>,
    rhs: Vec<f64>,
}

impl Level {
    fn new(n: usize) -> Level {
        let len = (n + 2).pow(3);
        Level {
            n,
            u: vec![0.0; len],
            rhs: vec![0.0; len],
        }
    }

    /// Index of interior row (j, k)'s `i = −1` ghost; cell `i` of the row
    /// sits at `row(j, k) + i + 1`.
    fn row(&self, j: usize, k: usize) -> usize {
        let p = self.n + 2;
        ((k + 1) * p + j + 1) * p
    }

    /// Diagonal of the cell-centred Dirichlet Laplacian, less its i faces,
    /// along row (j, k): the boundary lies half a cell away, so the
    /// ghost-cell elimination (`u_ghost = −u_cell` for a zero boundary
    /// value) adds 1 per boundary face. The two end cells of a row add 1
    /// for their i face. Every term is an integer, so the sum is exact in
    /// any grouping. Getting this right is what makes the coarse-grid
    /// correction consistent near the boundary (and the V-cycle converge at
    /// its textbook rate).
    fn row_diag(&self, j: usize, k: usize) -> f64 {
        let n = self.n;
        6.0 + (f64::from(j == 0) + f64::from(j + 1 == n))
            + (f64::from(k == 0) + f64::from(k + 1 == n))
    }

    /// Red-black Gauss-Seidel smoothing (HPGMG's GSRB smoother). Each
    /// colour's sweep visits only that colour's cells; within a colour no
    /// cell reads another, so the update order is immaterial.
    fn smooth(&mut self, sweeps: usize) {
        let (n, p) = (self.n, self.n + 2);
        for _ in 0..sweeps {
            for color in 0..2 {
                for k in 0..n {
                    for j in 0..n {
                        let d = self.row_diag(j, k);
                        let at = self.row(j, k);
                        let (before, rest) = self.u.split_at_mut(at);
                        let (c, after) = rest.split_at_mut(p);
                        let rows = Rows {
                            north: &before[at - p..],
                            south: &after[..p],
                            down: &before[at - p * p..][..p],
                            up: &after[p * p - p..][..p],
                        };
                        let rhs = &self.rhs[at..at + p];
                        // n is even, so this colour holds cell 0 (position
                        // 1) exactly when it does not hold cell n-1
                        // (position n); that end cell adds its i face.
                        let first = (color + j + k) % 2;
                        rows.relax(c, rhs, if first == 0 { 1 } else { n }, d + 1.0);
                        let mut x = 3 - first;
                        while x < n {
                            rows.relax(c, rhs, x, d);
                            x += 2;
                        }
                    }
                }
            }
        }
    }

    /// The residual `rhs − A u` along row (j, k), written to `out[..n]`.
    fn residual_row(&self, j: usize, k: usize, out: &mut [f64]) {
        let (n, p) = (self.n, self.n + 2);
        let d = self.row_diag(j, k);
        let at = self.row(j, k);
        let c = &self.u[at..at + p];
        let rows = Rows {
            north: &self.u[at - p..at],
            south: &self.u[at + p..][..p],
            down: &self.u[at - p * p..][..p],
            up: &self.u[at + p * p..][..p],
        };
        let rhs = &self.rhs[at..at + p];
        let out = &mut out[..n];
        out[0] = rhs[1] - rows.apply(c, 1, d + 1.0);
        for x in 2..n {
            out[x - 1] = rhs[x] - rows.apply(c, x, d);
        }
        out[n - 1] = rhs[n] - rows.apply(c, n, d + 1.0);
    }

    /// Residual 2-norm, summed in lexicographic cell order.
    fn residual_norm(&self) -> f64 {
        let mut r = vec![0.0; self.n];
        let mut s = 0.0;
        for k in 0..self.n {
            for j in 0..self.n {
                self.residual_row(j, k, &mut r);
                for v in &r {
                    s += v * v;
                }
            }
        }
        s.sqrt()
    }
}

/// The four off-row neighbour rows of a row, ghosts included: `j∓1`
/// (north, south) and `k∓1` (down, up), each `n+2` cells long.
struct Rows<'a> {
    north: &'a [f64],
    south: &'a [f64],
    down: &'a [f64],
    up: &'a [f64],
}

impl Rows<'_> {
    /// 7-point cell-centred Laplacian `A u` at position `x` of row `c`
    /// with diagonal `d`, subtracting the neighbours i, j, k in turn.
    #[inline(always)]
    fn apply(&self, c: &[f64], x: usize, d: f64) -> f64 {
        d * c[x] - c[x - 1] - c[x + 1] - self.north[x] - self.south[x] - self.down[x] - self.up[x]
    }

    /// One Gauss-Seidel update of position `x` of row `c`: `u += r / d`.
    #[inline(always)]
    fn relax(&self, c: &mut [f64], rhs: &[f64], x: usize, d: f64) {
        let r = rhs[x] - self.apply(c, x, d);
        c[x] += r / d;
    }
}

/// For fine cell index `f`, the coarse cells of its trilinear stencil with
/// their nonzero weights, nearest first. A fine cell's centre sits 1/4 of a
/// coarse cell away from its parent's centre, giving weights 3/4 / 1/4; at
/// the domain edge the stencil clamps to the parent alone.
fn coarse_terms(f: usize, nc: usize) -> [Option<(usize, f64)>; 2] {
    let c = f / 2;
    match (f.is_multiple_of(2), c) {
        (true, 0) => [Some((c, 1.0)), None],
        (true, _) => [Some((c, 0.75)), Some((c - 1, 0.25))],
        (false, _) if c + 1 >= nc => [Some((c, 1.0)), None],
        (false, _) => [Some((c, 0.75)), Some((c + 1, 0.25))],
    }
}

/// A multigrid hierarchy over an `n³` cube (n a power of two ≥ 4).
pub struct Multigrid {
    levels: Vec<Level>,
}

impl Multigrid {
    pub fn new(n: usize) -> Result<Multigrid, BenchError> {
        if n < 4 || !n.is_power_of_two() {
            return Err(BenchError::BadConfig(format!(
                "grid dimension {n} must be a power of two ≥ 4"
            )));
        }
        let mut levels = Vec::new();
        let mut dim = n;
        while dim >= 2 {
            levels.push(Level::new(dim));
            if dim == 2 {
                break;
            }
            dim /= 2;
        }
        Ok(Multigrid { levels })
    }

    /// Set a synthetic right-hand side with a known smooth structure:
    /// `sin(πx)·sin(πy)·sin(πz)` at the cell centres.
    pub fn set_rhs_sine(&mut self) {
        let fine = &mut self.levels[0];
        let n = fine.n;
        let sines: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::PI * ((i as f64 + 0.5) / n as f64)).sin())
            .collect();
        for k in 0..n {
            for j in 0..n {
                let at = fine.row(j, k);
                for (rhs, si) in fine.rhs[at + 1..=at + n].iter_mut().zip(&sines) {
                    *rhs = si * sines[j] * sines[k];
                }
            }
        }
        fine.u.fill(0.0);
    }

    /// Restrict the fine residual to the coarse RHS (8-cell average). Each
    /// coarse row sums the four fine residual rows under it, computed on
    /// the spot, in (dk, dj, di) order.
    fn restrict(&mut self, fine: usize) {
        let (head, tail) = self.levels.split_at_mut(fine + 1);
        let f = &head[fine];
        let c = &mut tail[0];
        let (n, nc) = (f.n, c.n);
        // Fine rows (dj, dk) = (0, 0), (1, 0), (0, 1), (1, 1), one after another.
        let mut r = vec![0.0; 4 * n];
        for k in 0..nc {
            for j in 0..nc {
                for (q, out) in r.chunks_exact_mut(n).enumerate() {
                    f.residual_row(2 * j + q % 2, 2 * k + q / 2, out);
                }
                let at = c.row(j, k);
                for (i, rhs) in c.rhs[at + 1..=at + nc].iter_mut().enumerate() {
                    let mut s = 0.0;
                    for q in 0..4 {
                        s += r[q * n + 2 * i];
                        s += r[q * n + 2 * i + 1];
                    }
                    // Galerkin-consistent scaling for this cell-centred
                    // average/trilinear transfer pair: r_2h = 4 · avg(r_h).
                    *rhs = s * 0.5;
                }
            }
        }
        c.u.fill(0.0);
    }

    /// Prolong the coarse correction onto the fine solution with
    /// cell-centred trilinear interpolation (weights 3/4 and 1/4 per
    /// dimension, clamped at the boundary). A fine cell's terms come coarse
    /// row by coarse row (k, then j, nearest first); within a row the fine
    /// cells pair up over two neighbouring coarse cells, odd cells nearer
    /// the left one and even cells the right, and the row's end cells
    /// clamp to one term.
    fn prolong(&mut self, fine: usize) {
        let (head, tail) = self.levels.split_at_mut(fine + 1);
        let f = &mut head[fine];
        let c = &tail[0];
        let (n, nc) = (f.n, c.n);
        let mut acc = vec![0.0; n];
        for fk in 0..n {
            for fj in 0..n {
                acc.fill(0.0);
                for (kk, wk) in coarse_terms(fk, nc).into_iter().flatten() {
                    for (jj, wj) in coarse_terms(fj, nc).into_iter().flatten() {
                        let w = wk * wj;
                        let (near, far, one) = (w * 0.75, w * 0.25, w * 1.0);
                        let row = &c.u[c.row(jj, kk)..][..nc + 2];
                        acc[0] += one * row[1];
                        let pairs = acc[1..n - 1].chunks_exact_mut(2);
                        for (cells, parents) in pairs.zip(row[1..=nc].windows(2)) {
                            cells[0] += near * parents[0];
                            cells[0] += far * parents[1];
                            cells[1] += near * parents[1];
                            cells[1] += far * parents[0];
                        }
                        acc[n - 1] += one * row[nc];
                    }
                }
                let at = f.row(fj, fk);
                for (u, a) in f.u[at + 1..=at + n].iter_mut().zip(&acc) {
                    *u += a;
                }
            }
        }
    }

    /// One V-cycle rooted at `level`.
    fn v_cycle(&mut self, level: usize) {
        if level + 1 == self.levels.len() {
            self.levels[level].smooth(16);
            return;
        }
        self.levels[level].smooth(2);
        self.restrict(level);
        self.v_cycle(level + 1);
        self.prolong(level);
        self.levels[level].smooth(2);
    }

    /// FMG-style solve: repeated V-cycles on the finest level.
    /// Returns (initial residual, final residual, cycles used).
    pub fn solve(&mut self, max_cycles: usize, tol: f64) -> (f64, f64, usize) {
        let r0 = self.levels[0].residual_norm();
        if r0 == 0.0 {
            return (0.0, 0.0, 0);
        }
        let mut r = r0;
        let mut cycles = 0;
        for _ in 0..max_cycles {
            self.v_cycle(0);
            cycles += 1;
            r = self.levels[0].residual_norm();
            if r / r0 < tol {
                break;
            }
        }
        (r0, r, cycles)
    }
}

// ---------------------------------------------------------------------------
// Cost model (simulated platforms) — calibrated to Table 4; see DESIGN.md.
// ---------------------------------------------------------------------------

/// DRAM traffic per fine-grid DOF for one full benchmark solve.
const BYTES_PER_DOF: f64 = 5200.0;
/// Residual/ghost exchange traffic coefficient (× DOF^(2/3) bytes).
const HALO_BYTES_COEFF: f64 = 1462.0 * 8.0;
/// Fixed latency-bound rounds per solve (coarse-grid chain).
const LATENCY_ROUNDS: f64 = 14950.0;
/// Vector copies resident during the solve (cache-residency check).
const RESIDENT_ARRAYS: f64 = 12.0;

/// Simulated solve time at one reported level.
fn simulated_time(config: &HpgmgConfig, level: u32, partition: &Partition) -> f64 {
    let proc = partition.processor();
    let dof = config.dof_at_level(level) as f64;
    let nodes = config.nodes() as f64;
    let threads_per_node = (config.tasks_per_node * config.cpus_per_task).min(proc.total_cores());
    let sf = partition.system_factor();

    // Volume term: DRAM traffic unless the per-node working set fits in
    // (half of) the LLC — on the 512 MB Rome caches the two coarse reported
    // problems go cache-resident, which is what produces COSMA8's l2 > l1
    // inversion in Table 4.
    let ws_per_node = dof / nodes * 8.0 * RESIDENT_ARRAYS;
    let cache_resident = ws_per_node <= proc.llc_bytes() as f64 * 0.5;
    let bw = if cache_resident {
        proc.llc_bandwidth_gbs()
    } else {
        proc.effective_bandwidth_gbs(threads_per_node, u64::MAX)
    };
    let volume = dof * BYTES_PER_DOF / (nodes * bw * 1e9 * sf);

    // Communication terms degrade with the software stack less sharply
    // than on-node streaming does (they are latency/injection bound), so
    // they divide by sqrt(system_factor).
    let comm_sf = sf.sqrt();

    // Surface term: ghost-zone exchange over the interconnect.
    let ic = partition.interconnect();
    let surface = HALO_BYTES_COEFF * dof.powf(2.0 / 3.0) / (ic.bandwidth_gbs * 1e9 * comm_sf);

    // Fixed term: latency-bound coarse-grid chain.
    let fixed = LATENCY_ROUNDS * ic.latency_s / comm_sf;

    volume + surface + fixed
}

fn validate(config: &HpgmgConfig) -> Result<(), BenchError> {
    if config.log2_box_dim < 2 || config.boxes_per_rank == 0 || config.ranks == 0 {
        return Err(BenchError::BadConfig(
            "box dim ≥ 4 and nonzero boxes/ranks required".into(),
        ));
    }
    Ok(())
}

/// What a simulated run on `partition` decides before any host work: a
/// bad configuration, then a platform that cannot host the run (a skip).
/// [`run_memo`] goes through it, and the harness asks it before the build
/// stage, so an unsupported cell never builds.
pub fn precheck(config: &HpgmgConfig, partition: &Partition) -> Result<(), BenchError> {
    validate(config)?;
    if partition.processor().is_gpu() {
        return Err(BenchError::Unsupported("HPGMG-FV here targets CPUs".into()));
    }
    if config.nodes() > partition.nodes() {
        return Err(BenchError::Unsupported(format!(
            "{} nodes requested but partition has {}",
            config.nodes(),
            partition.nodes()
        )));
    }
    Ok(())
}

/// Every input of a simulated run's host solve: the box edge after the
/// size cap.
pub fn solve_key(config: &HpgmgConfig) -> SolveKey {
    SolveKey::Hpgmg {
        n: 1usize << config.log2_box_dim.min(5),
    }
}

/// Run HPGMG-FV.
pub fn run(config: &HpgmgConfig, mode: &ExecutionMode) -> Result<RunOutput, BenchError> {
    run_memo(config, mode, None)
}

/// [`run`] taking a simulated run's solve from `memo` when one is given
/// (see [`crate::memo`]); native runs always solve.
pub fn run_memo(
    config: &HpgmgConfig,
    mode: &ExecutionMode,
    memo: Option<&SolveMemo>,
) -> Result<RunOutput, BenchError> {
    // Always run the real solver (capped size in both modes) and check
    // that multigrid actually converges — the sanity step of the pipeline.
    let key = solve_key(config);
    let SolveKey::Hpgmg { n: exec_n } = key else {
        unreachable!("an HPGMG config keys an HPGMG solve")
    };
    let (r0, r, cycles, native_elapsed) = match mode {
        ExecutionMode::Native => {
            validate(config)?;
            let start = Instant::now();
            let (r0, r, cycles) = solve(exec_n)?;
            (r0, r, cycles, start.elapsed().as_secs_f64())
        }
        ExecutionMode::Simulated { partition, .. } => {
            precheck(config, partition)?;
            let solved = memo::solve_with(memo, key, || {
                let (r0, r, cycles) = solve(exec_n)?;
                Ok(Solution::Hpgmg { r0, r, cycles })
            })?;
            let Solution::Hpgmg { r0, r, cycles } = solved else {
                unreachable!("an HPGMG key holds an HPGMG solution")
            };
            (r0, r, cycles, 0.0)
        }
    };

    let mut out = String::new();
    out.push_str("HPGMG-FV benchmark (reproduction)\n");
    out.push_str(&format!(
        "attempting to create a {}^3 box calculation on {} ranks ({} tasks/node, {} cpus/task)\n",
        1u64 << config.log2_box_dim,
        config.ranks,
        config.tasks_per_node,
        config.cpus_per_task
    ));
    out.push_str(&format!(
        "v-cycles used={cycles}  residual reduction={:.3e}\n",
        r / r0
    ));

    // Native mode reports the measured solve; simulated mode builds the
    // wall time purely from the cost model so it is deterministic per seed
    // (the host's measured time must never leak into simulated telemetry).
    let mut wall = native_elapsed;
    match mode {
        ExecutionMode::Native => {
            // Rate the real solve: DOF of the executed grid over the time.
            let dof = (exec_n as u64).pow(3) as f64 * cycles as f64;
            let rate = dof / native_elapsed;
            for level in 0..3u32 {
                out.push_str(&format!(
                    "  level {level} FMG solve averaged {:.6e} DOF/s\n",
                    rate / 8f64.powi(level as i32)
                ));
            }
        }
        ExecutionMode::Simulated {
            partition,
            system,
            seed,
        } => {
            let mut noise = NoiseModel::for_run(system, "hpgmg-fv", *seed);
            for level in 0..3u32 {
                let t = noise.perturb(simulated_time(config, level, partition));
                let rate = config.dof_at_level(level) as f64 / t;
                out.push_str(&format!(
                    "  level {level} FMG solve averaged {:.6e} DOF/s\n",
                    rate
                ));
                wall += t;
            }
        }
    }
    Ok(RunOutput {
        stdout: out,
        wall_time_s: wall,
    })
}

/// The host solve: up to 30 V-cycles on an `n`³ grid towards 1e-7.
/// Returns `(r0, r, cycles)`, or a validation failure when multigrid did
/// not cut the residual by six orders of magnitude.
fn solve(n: usize) -> Result<(f64, f64, usize), BenchError> {
    let mut mg = Multigrid::new(n)?;
    mg.set_rhs_sine();
    let (r0, r, cycles) = mg.solve(30, 1e-7);
    if r >= r0 * 1e-6 || !r.is_finite() {
        return Err(BenchError::ValidationFailed(format!(
            "multigrid did not converge: {r0:.3e} -> {r:.3e} in {cycles} cycles"
        )));
    }
    Ok((r0, r, cycles))
}

/// Differential test: the production solver against a verbatim copy of
/// the straightforward triple-loop solver it replaced, compared bit for
/// bit. The fast path may only change loop overhead, never a
/// floating-point operation, its operands or their order.
#[cfg(test)]
mod differential {
    use super::BenchError;

    // The reference: the original triple-loop solver, copied verbatim.

    /// One grid level: an `n³` cell-centred cube with Dirichlet boundaries.
    struct Level {
        n: usize,
        u: Vec<f64>,
        rhs: Vec<f64>,
        tmp: Vec<f64>,
    }

    impl Level {
        fn new(n: usize) -> Level {
            let len = n * n * n;
            Level {
                n,
                u: vec![0.0; len],
                rhs: vec![0.0; len],
                tmp: vec![0.0; len],
            }
        }

        #[inline]
        fn idx(&self, i: usize, j: usize, k: usize) -> usize {
            (k * self.n + j) * self.n + i
        }

        /// Diagonal of the cell-centred Dirichlet Laplacian at (i,j,k):
        /// the boundary lies half a cell away, so the ghost-cell elimination
        /// (`u_ghost = −u_cell` for a zero boundary value) adds 1 per
        /// boundary face. Getting this right is what makes the coarse-grid
        /// correction consistent near the boundary (and the V-cycle converge
        /// at its textbook rate).
        fn diag_at(&self, i: usize, j: usize, k: usize) -> f64 {
            let n = self.n;
            let mut d = 6.0;
            d += f64::from(i == 0) + f64::from(i + 1 == n);
            d += f64::from(j == 0) + f64::from(j + 1 == n);
            d += f64::from(k == 0) + f64::from(k + 1 == n);
            d
        }

        /// 7-point cell-centred Laplacian `A u` at (i,j,k).
        fn apply_at(&self, u: &[f64], i: usize, j: usize, k: usize) -> f64 {
            let n = self.n;
            let mut s = self.diag_at(i, j, k) * u[self.idx(i, j, k)];
            if i > 0 {
                s -= u[self.idx(i - 1, j, k)];
            }
            if i + 1 < n {
                s -= u[self.idx(i + 1, j, k)];
            }
            if j > 0 {
                s -= u[self.idx(i, j - 1, k)];
            }
            if j + 1 < n {
                s -= u[self.idx(i, j + 1, k)];
            }
            if k > 0 {
                s -= u[self.idx(i, j, k - 1)];
            }
            if k + 1 < n {
                s -= u[self.idx(i, j, k + 1)];
            }
            s
        }

        /// Red-black Gauss-Seidel smoothing (HPGMG's GSRB smoother).
        fn smooth(&mut self, sweeps: usize) {
            for _ in 0..sweeps {
                for color in 0..2 {
                    for k in 0..self.n {
                        for j in 0..self.n {
                            for i in 0..self.n {
                                if (i + j + k) % 2 != color {
                                    continue;
                                }
                                let at = self.idx(i, j, k);
                                let r = self.rhs[at] - self.apply_at(&self.u, i, j, k);
                                self.u[at] += r / self.diag_at(i, j, k);
                            }
                        }
                    }
                }
            }
        }

        /// Residual 2-norm.
        fn residual_norm(&self) -> f64 {
            let mut s = 0.0;
            for k in 0..self.n {
                for j in 0..self.n {
                    for i in 0..self.n {
                        let r = self.rhs[self.idx(i, j, k)] - self.apply_at(&self.u, i, j, k);
                        s += r * r;
                    }
                }
            }
            s.sqrt()
        }
    }

    /// For fine cell index `f`, the two nearest coarse cells and the trilinear
    /// weight of the farther one: returns `(primary, secondary, w_secondary)`.
    /// A fine cell's centre sits 1/4 of a coarse cell away from its parent's
    /// centre, giving weights 3/4 / 1/4; at the domain edge the stencil clamps.
    fn coarse_weights(f: usize, nc: usize) -> (usize, usize, f64) {
        let c = f / 2;
        match (f.is_multiple_of(2), c) {
            (true, 0) => (c, c, 0.0),
            (true, _) => (c, c - 1, 0.25),
            (false, _) if c + 1 >= nc => (c, c, 0.0),
            (false, _) => (c, c + 1, 0.25),
        }
    }

    /// A multigrid hierarchy over an `n³` cube (n a power of two ≥ 4).
    pub struct Multigrid {
        levels: Vec<Level>,
    }

    impl Multigrid {
        pub fn new(n: usize) -> Result<Multigrid, BenchError> {
            if n < 4 || !n.is_power_of_two() {
                return Err(BenchError::BadConfig(format!(
                    "grid dimension {n} must be a power of two ≥ 4"
                )));
            }
            let mut levels = Vec::new();
            let mut dim = n;
            while dim >= 2 {
                levels.push(Level::new(dim));
                if dim == 2 {
                    break;
                }
                dim /= 2;
            }
            Ok(Multigrid { levels })
        }

        /// Set a synthetic right-hand side with a known smooth structure.
        pub fn set_rhs_sine(&mut self) {
            let fine = &mut self.levels[0];
            let n = fine.n;
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let x = (i as f64 + 0.5) / n as f64;
                        let y = (j as f64 + 0.5) / n as f64;
                        let z = (k as f64 + 0.5) / n as f64;
                        fine.rhs[(k * n + j) * n + i] = (std::f64::consts::PI * x).sin()
                            * (std::f64::consts::PI * y).sin()
                            * (std::f64::consts::PI * z).sin();
                    }
                }
            }
            fine.u.fill(0.0);
        }

        /// Restrict the fine residual to the coarse RHS (8-cell average).
        fn restrict(&mut self, fine: usize) {
            // Compute residual on the fine level into tmp.
            {
                let lv = &mut self.levels[fine];
                for k in 0..lv.n {
                    for j in 0..lv.n {
                        for i in 0..lv.n {
                            let at = lv.idx(i, j, k);
                            let r = lv.rhs[at] - lv.apply_at(&lv.u, i, j, k);
                            lv.tmp[at] = r;
                        }
                    }
                }
            }
            let (head, tail) = self.levels.split_at_mut(fine + 1);
            let f = &head[fine];
            let c = &mut tail[0];
            for k in 0..c.n {
                for j in 0..c.n {
                    for i in 0..c.n {
                        let mut s = 0.0;
                        for dk in 0..2 {
                            for dj in 0..2 {
                                for di in 0..2 {
                                    s += f.tmp[f.idx(2 * i + di, 2 * j + dj, 2 * k + dk)];
                                }
                            }
                        }
                        let at = c.idx(i, j, k);
                        // Galerkin-consistent scaling for this cell-centred
                        // average/trilinear transfer pair: r_2h = 4 · avg(r_h).
                        c.rhs[at] = s * 0.5;
                    }
                }
            }
            c.u.fill(0.0);
        }

        /// Prolong the coarse correction onto the fine solution with
        /// cell-centred trilinear interpolation (weights 3/4 and 1/4 per
        /// dimension, clamped at the boundary).
        fn prolong(&mut self, fine: usize) {
            let (head, tail) = self.levels.split_at_mut(fine + 1);
            let f = &mut head[fine];
            let c = &tail[0];
            let nc = c.n;
            for fk in 0..f.n {
                let (k0, k1, wk) = coarse_weights(fk, nc);
                for fj in 0..f.n {
                    let (j0, j1, wj) = coarse_weights(fj, nc);
                    for fi in 0..f.n {
                        let (i0, i1, wi) = coarse_weights(fi, nc);
                        let mut acc = 0.0;
                        for (kk, wkk) in [(k0, 1.0 - wk), (k1, wk)] {
                            if wkk == 0.0 {
                                continue;
                            }
                            for (jj, wjj) in [(j0, 1.0 - wj), (j1, wj)] {
                                if wjj == 0.0 {
                                    continue;
                                }
                                for (ii, wii) in [(i0, 1.0 - wi), (i1, wi)] {
                                    if wii == 0.0 {
                                        continue;
                                    }
                                    acc += wkk * wjj * wii * c.u[c.idx(ii, jj, kk)];
                                }
                            }
                        }
                        let at = f.idx(fi, fj, fk);
                        f.u[at] += acc;
                    }
                }
            }
        }

        /// One V-cycle rooted at `level`.
        fn v_cycle(&mut self, level: usize) {
            if level + 1 == self.levels.len() {
                self.levels[level].smooth(16);
                return;
            }
            self.levels[level].smooth(2);
            self.restrict(level);
            self.v_cycle(level + 1);
            self.prolong(level);
            self.levels[level].smooth(2);
        }

        /// FMG-style solve: repeated V-cycles on the finest level.
        /// Returns (initial residual, final residual, cycles used).
        pub fn solve(&mut self, max_cycles: usize, tol: f64) -> (f64, f64, usize) {
            let r0 = self.levels[0].residual_norm();
            if r0 == 0.0 {
                return (0.0, 0.0, 0);
            }
            let mut r = r0;
            let mut cycles = 0;
            for _ in 0..max_cycles {
                self.v_cycle(0);
                cycles += 1;
                r = self.levels[0].residual_norm();
                if r / r0 < tol {
                    break;
                }
            }
            (r0, r, cycles)
        }
    }

    /// Bits of `(r0, r, cycles)` and of every fine-level cell value.
    type Solve = ((u64, u64, usize), Vec<u64>);

    /// The production solve, with the fine interior read through the
    /// level's row index. Every ghost cell of every level must still hold
    /// `+0.0`, bit for bit: the stencil's exactness rests on it.
    fn production(n: usize, max_cycles: usize) -> Solve {
        let mut mg = super::Multigrid::new(n).unwrap();
        mg.set_rhs_sine();
        let (r0, r, cycles) = mg.solve(max_cycles, 1e-7);
        for lv in &mg.levels {
            let m = lv.n;
            let mut interior = vec![false; (m + 2).pow(3)];
            for k in 0..m {
                for j in 0..m {
                    let at = lv.row(j, k);
                    interior[at + 1..=at + m].fill(true);
                }
            }
            for grid in [&lv.u, &lv.rhs] {
                let ghosts = grid.iter().zip(&interior).filter(|(_, &inside)| !inside);
                assert_eq!(ghosts.clone().count(), (m + 2).pow(3) - m * m * m);
                assert!(
                    ghosts.clone().all(|(v, _)| v.to_bits() == 0),
                    "n={n} max_cycles={max_cycles}: a ghost of the {m}³ level moved"
                );
            }
        }
        let fine = &mg.levels[0];
        let mut u = Vec::with_capacity(n * n * n);
        for k in 0..n {
            for j in 0..n {
                let at = fine.row(j, k);
                u.extend(fine.u[at + 1..=at + n].iter().map(|v| v.to_bits()));
            }
        }
        ((r0.to_bits(), r.to_bits(), cycles), u)
    }

    fn naive(n: usize, max_cycles: usize) -> Solve {
        let mut mg = Multigrid::new(n).unwrap();
        mg.set_rhs_sine();
        let (r0, r, cycles) = mg.solve(max_cycles, 1e-7);
        let u = mg.levels[0].u.iter().map(|v| v.to_bits()).collect();
        ((r0.to_bits(), r.to_bits(), cycles), u)
    }

    #[test]
    fn fast_path_is_bit_identical_to_the_naive_solver() {
        for n in [4, 8, 16, 32] {
            for max_cycles in [1, 2, 30] {
                let (got_scalars, got_u) = production(n, max_cycles);
                let (want_scalars, want_u) = naive(n, max_cycles);
                assert_eq!(got_scalars, want_scalars, "n={n} max_cycles={max_cycles}");
                let first_diff = got_u.iter().zip(&want_u).position(|(a, b)| a != b);
                assert_eq!(first_diff, None, "n={n} max_cycles={max_cycles}: u differs");
                assert_eq!(got_u.len(), n * n * n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(stdout: &str) -> Vec<f64> {
        stdout
            .lines()
            .filter(|l| l.contains("FMG solve averaged"))
            .map(|l| {
                l.split_whitespace()
                    .rev()
                    .nth(1)
                    .and_then(|v| v.parse().ok())
                    .expect("rate value")
            })
            .collect()
    }

    #[test]
    fn multigrid_converges_fast() {
        let mut mg = Multigrid::new(32).unwrap();
        mg.set_rhs_sine();
        let (r0, r, cycles) = mg.solve(40, 1e-9);
        assert!(r < r0 * 1e-8, "reduction {:.3e} in {cycles} cycles", r / r0);
        assert!(cycles <= 40);
        assert!(mg.levels.len() >= 4);
    }

    #[test]
    fn v_cycle_converges_mesh_independently() {
        // Multigrid's defining property: cycle counts don't grow with n.
        let cycles_for = |n: usize| {
            let mut mg = Multigrid::new(n).unwrap();
            mg.set_rhs_sine();
            let (_, _, cycles) = mg.solve(60, 1e-8);
            cycles
        };
        let c16 = cycles_for(16);
        let c32 = cycles_for(32);
        assert!(c32 <= c16 + 4, "cycles grew from {c16} to {c32}");
    }

    #[test]
    fn bad_grid_rejected() {
        assert!(Multigrid::new(3).is_err());
        assert!(Multigrid::new(0).is_err());
        assert!(Multigrid::new(24).is_err());
        assert!(Multigrid::new(4).is_ok());
    }

    #[test]
    fn dof_accounting() {
        let cfg = HpgmgConfig::paper();
        // 2^21 per box × 8 boxes × 8 ranks = 2^27.
        assert_eq!(cfg.dof_at_level(0), 1 << 27);
        assert_eq!(cfg.dof_at_level(1), 1 << 24);
        assert_eq!(cfg.dof_at_level(2), 1 << 21);
        assert_eq!(cfg.nodes(), 4);
    }

    #[test]
    fn native_run_reports_three_levels() {
        let cfg = HpgmgConfig {
            log2_box_dim: 4,
            ..HpgmgConfig::default()
        };
        let out = run(&cfg, &ExecutionMode::Native).unwrap();
        assert_eq!(rates(&out.stdout).len(), 3);
    }

    #[test]
    fn table4_csd3_fastest_isambard_slowest_at_l0() {
        let rate0 = |spec: &str| {
            let mode = ExecutionMode::simulated(spec, 9).unwrap();
            rates(&run(&HpgmgConfig::paper(), &mode).unwrap().stdout)[0]
        };
        let csd3 = rate0("csd3");
        let archer2 = rate0("archer2");
        let cosma8 = rate0("cosma8");
        let isambard = rate0("isambard-macs:cascadelake");
        assert!(
            csd3 > archer2,
            "paper: CSD3 126 > ARCHER2 95 ({csd3:.2e} vs {archer2:.2e})"
        );
        assert!(archer2 > cosma8, "paper: ARCHER2 95 > COSMA8 82");
        assert!(cosma8 > isambard, "paper: COSMA8 82 >> Isambard 31");
        assert!(
            csd3 / isambard > 2.5,
            "the paper's platform gap (~4x) must be visible: {:.1}",
            csd3 / isambard
        );
    }

    #[test]
    fn table4_cosma8_inversion_and_decreasing_levels() {
        let get = |spec: &str| {
            let mode = ExecutionMode::simulated(spec, 9).unwrap();
            rates(&run(&HpgmgConfig::paper(), &mode).unwrap().stdout)
        };
        // CSD3: strictly decreasing with level (126 → 94 → 49).
        let csd3 = get("csd3");
        assert!(csd3[0] > csd3[1] && csd3[1] > csd3[2]);
        // COSMA8 shows the paper's l2 ≥ l1 inversion (73 → 75).
        let cosma8 = get("cosma8");
        assert!(cosma8[0] > cosma8[1]);
        assert!(
            cosma8[2] > cosma8[1] * 0.95,
            "COSMA8 l2 should not collapse: {:?}",
            cosma8
        );
    }

    #[test]
    fn oversubscribed_partition_rejected() {
        // Isambard-MACS has 4 nodes; ask for more.
        let cfg = HpgmgConfig {
            ranks: 64,
            tasks_per_node: 2,
            ..HpgmgConfig::paper()
        };
        let mode = ExecutionMode::simulated("isambard-macs:cascadelake", 1).unwrap();
        assert!(matches!(run(&cfg, &mode), Err(BenchError::Unsupported(_))));
    }

    #[test]
    fn simulated_reproducible() {
        let mode = ExecutionMode::simulated("archer2", 4).unwrap();
        let a = run(&HpgmgConfig::default(), &mode).unwrap();
        let b = run(&HpgmgConfig::default(), &mode).unwrap();
        assert_eq!(a.stdout, b.stdout);
    }
}
