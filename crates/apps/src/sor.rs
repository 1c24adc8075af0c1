//! SOR: Jacobi relaxation, two-grid, barrier-only.
//!
//! The solver keeps *from* and *to* grids and alternates between them, with
//! a barrier after every sweep — the classic DSM formulation.  Rows are
//! **page-aligned** (one row per VM page, as the original benchmark padded
//! them), so within an epoch every process writes only its own rows' pages
//! and reads a grid nobody is writing: there is *no* unsynchronized sharing
//! of any kind, true or false — the all-zero SOR row of the paper's
//! Table 3.  On the paper's 8 KB-page DECstations, two 512-row grids of
//! page-padded rows are exactly the ~8 MB shared segment of Table 1.

use cvm_dsm::{Cluster, DsmConfig, RunReport};
use cvm_page::{GAddr, SharedAlloc};
use parking_lot::Mutex;

/// SOR parameters.
#[derive(Clone, Copy, Debug)]
pub struct SorParams {
    /// Grid side (cells); the paper uses 512.
    pub n: usize,
    /// Jacobi sweeps.
    pub iters: usize,
}

impl SorParams {
    /// The paper's input set: 512×512.
    pub fn paper() -> Self {
        SorParams { n: 512, iters: 10 }
    }

    /// A small instance for tests.
    pub fn small() -> Self {
        SorParams { n: 24, iters: 5 }
    }
}

/// Result of a run: the final grid (gathered by process 0).
#[derive(Clone, Debug)]
pub struct SorResult {
    /// Row-major final grid.
    pub grid: Vec<f64>,
    /// Grid side.
    pub n: usize,
}

/// Boundary/initial value of cell `(i, j)`: hot top edge, cold elsewhere.
fn initial(i: usize, j: usize, n: usize) -> f64 {
    if i == 0 {
        let x = j as f64 / (n - 1) as f64;
        4.0 * x * (1.0 - x)
    } else {
        0.0
    }
}

/// Per-cell update compute cost (cycles): 3 adds, 1 mul, loop overhead.
const CELL_FLOPS_CYCLES: u64 = 10;

/// Rows `[lo, hi)` owned by `proc` of `nprocs`.
pub fn row_block(n: usize, nprocs: usize, proc: usize) -> (usize, usize) {
    let per = n.div_ceil(nprocs);
    let lo = (proc * per).min(n);
    let hi = ((proc + 1) * per).min(n);
    (lo, hi)
}

/// Byte stride between grid rows: one row per page (rows padded to page
/// boundaries, like the original).
fn row_stride(cfg: &DsmConfig, n: usize) -> u64 {
    let page_bytes = cfg.geometry.page_bytes();
    (n as u64 * 8).div_ceil(page_bytes) * page_bytes
}

/// Allocates the two grids.
fn alloc_grids(alloc: &mut SharedAlloc, n: usize, row_stride: u64) -> (GAddr, GAddr) {
    let a = alloc
        .alloc_page_aligned("sor_grid_a", n as u64 * row_stride)
        .unwrap();
    let b = alloc
        .alloc_page_aligned("sor_grid_b", n as u64 * row_stride)
        .unwrap();
    (a, b)
}

/// Runs Jacobi SOR on the DSM.
///
/// A grid row is contiguous in shared memory, so every phase moves rows as
/// runs.  A sweep reads, per owned row `i`, the interior of rows `i − 1` and
/// `i + 1` and row `i` twice — shifted left and shifted right — which is
/// the four neighbour loads of every cell, and stores the row's interior:
/// the same accesses as a cell-at-a-time loop, batched by row.
pub fn run(cfg: DsmConfig, params: SorParams) -> (RunReport, SorResult) {
    let n = params.n;
    assert!(n >= 4, "grid too small");
    let row_stride = row_stride(&cfg, n);
    let result = Mutex::new(None);
    let report = Cluster::run(
        cfg,
        |alloc| alloc_grids(alloc, n, row_stride),
        |h, &(a, b)| {
            let row = |g: GAddr, i: usize| g.offset(i as u64 * row_stride);
            let (lo, hi) = row_block(n, h.nprocs(), h.proc());
            // Each barrier phase is an epoch step so a checkpoint-restored
            // node can rejoin mid-run; grid roles derive from sweep parity
            // rather than mutable state, keeping skipped phases pure.
            let mut ep = h.epochs();
            // Row buffers outlive the steps: allocated once a run.
            let mut whole = vec![0u64; n];
            let [mut up, mut down, mut left, mut right, mut out] =
                [(); 5].map(|()| vec![0u64; n - 2]);
            // Initialize own rows in both grids (boundaries must be valid
            // in whichever grid is being read).
            ep.step(|| {
                for i in lo..hi {
                    for (j, w) in whole.iter_mut().enumerate() {
                        *w = initial(i, j, n).to_bits();
                    }
                    h.write_run(row(a, i), &whole);
                    h.write_run(row(b, i), &whole);
                }
            });
            for sweep in 0..params.iters {
                // Even sweeps read `a` and write `b`; odd the reverse.
                let (src, dst) = if sweep % 2 == 0 { (a, b) } else { (b, a) };
                ep.step(|| {
                    for i in lo.max(1)..hi.min(n - 1) {
                        h.read_run(row(src, i - 1).word(1), &mut up);
                        h.read_run(row(src, i + 1).word(1), &mut down);
                        h.read_run(row(src, i), &mut left);
                        h.read_run(row(src, i).word(2), &mut right);
                        for (j, v) in out.iter_mut().enumerate() {
                            let [u, d, l, r] =
                                [&up, &down, &left, &right].map(|w| f64::from_bits(w[j]));
                            *v = (0.25 * (u + d + l + r)).to_bits();
                        }
                        h.write_run(row(dst, i).word(1), &out);
                        h.compute(CELL_FLOPS_CYCLES * (n as u64 - 2));
                        // Loop-control scratch the static analysis could not
                        // prove private (pointer-based row walks).
                        h.private_traffic(5 * n as u64 / 2);
                    }
                });
            }
            // After `iters` sweeps the freshest grid is `a` when the count
            // is even, `b` when odd.
            let last = if params.iters.is_multiple_of(2) { a } else { b };
            ep.step(|| {
                if h.proc() == 0 {
                    let mut grid = vec![0.0; n * n];
                    for (i, cells) in grid.chunks_mut(n).enumerate() {
                        h.read_run(row(last, i), &mut whole);
                        for (v, w) in cells.iter_mut().zip(&whole) {
                            *v = f64::from_bits(*w);
                        }
                    }
                    *result.lock() = Some(grid);
                }
            });
        },
    )
    .expect("cluster run");
    let grid = result.into_inner().expect("process 0 gathered the grid");
    (report, SorResult { grid, n })
}

/// Sequential reference implementation.
pub fn reference(params: SorParams) -> Vec<f64> {
    let n = params.n;
    let mut src = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            src[i * n + j] = initial(i, j, n);
        }
    }
    let mut dst = src.clone();
    for _ in 0..params.iters {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                dst[i * n + j] = 0.25
                    * (src[(i - 1) * n + j]
                        + src[(i + 1) * n + j]
                        + src[i * n + j - 1]
                        + src[i * n + j + 1]);
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_block_partitions_cover_grid() {
        for nprocs in [1, 2, 3, 4, 8] {
            let mut covered = [false; 32];
            for p in 0..nprocs {
                let (lo, hi) = row_block(32, nprocs, p);
                for row in covered.iter_mut().take(hi).skip(lo) {
                    assert!(!*row, "overlap at proc {p}");
                    *row = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "rows uncovered for {nprocs}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let params = SorParams::small();
        let (report, result) = run(DsmConfig::new(4), params);
        let expect = reference(params);
        for (idx, (got, want)) in result.grid.iter().zip(&expect).enumerate() {
            assert!((got - want).abs() < 1e-12, "cell {idx}: {got} vs {want}");
        }
        assert!(
            report.races.is_empty(),
            "SOR must be race-free: {:?}",
            report.races.reports()
        );
    }

    #[test]
    fn sor_has_zero_unsynchronized_sharing() {
        // Table 3: SOR shows 0% intervals used and 0% bitmaps used.
        let (report, _) = run(DsmConfig::new(4), SorParams::small());
        assert_eq!(report.det_stats.intervals_used, 0);
        assert_eq!(report.det_stats.bitmaps_requested, 0);
    }

    #[test]
    fn single_proc_equals_multi_proc() {
        let params = SorParams::small();
        let (_, one) = run(DsmConfig::new(1), params);
        let (_, four) = run(DsmConfig::new(3), params);
        assert_eq!(one.grid, four.grid);
    }

    /// The same program one cell at a time: the reference the shipped,
    /// row-at-a-time `run` must leave the same report as.
    fn run_by_words(cfg: DsmConfig, params: SorParams) -> (RunReport, SorResult) {
        let n = params.n;
        let row_stride = row_stride(&cfg, n);
        let result = Mutex::new(None);
        let report = Cluster::run(
            cfg,
            |alloc| alloc_grids(alloc, n, row_stride),
            |h, &(a, b)| {
                let cell =
                    |g: GAddr, i: usize, j: usize| g.offset(i as u64 * row_stride).word(j as u64);
                let (lo, hi) = row_block(n, h.nprocs(), h.proc());
                let mut ep = h.epochs();
                ep.step(|| {
                    for (i, j) in (lo..hi).flat_map(|i| (0..n).map(move |j| (i, j))) {
                        h.write_f64(cell(a, i, j), initial(i, j, n));
                        h.write_f64(cell(b, i, j), initial(i, j, n));
                    }
                });
                for sweep in 0..params.iters {
                    let (src, dst) = if sweep % 2 == 0 { (a, b) } else { (b, a) };
                    ep.step(|| {
                        for i in lo.max(1)..hi.min(n - 1) {
                            for j in 1..n - 1 {
                                let v = 0.25
                                    * (h.read_f64(cell(src, i - 1, j))
                                        + h.read_f64(cell(src, i + 1, j))
                                        + h.read_f64(cell(src, i, j - 1))
                                        + h.read_f64(cell(src, i, j + 1)));
                                h.write_f64(cell(dst, i, j), v);
                                h.compute(CELL_FLOPS_CYCLES);
                            }
                            h.private_traffic(5 * n as u64 / 2);
                        }
                    });
                }
                let last = if params.iters.is_multiple_of(2) { a } else { b };
                ep.step(|| {
                    if h.proc() == 0 {
                        let grid = (0..n * n).map(|at| h.read_f64(cell(last, at / n, at % n)));
                        *result.lock() = Some(grid.collect());
                    }
                });
            },
        )
        .expect("cluster run");
        let grid = result.into_inner().expect("process 0 gathered the grid");
        (report, SorResult { grid, n })
    }

    #[test]
    fn rows_as_runs_leave_what_cells_as_words_leave() {
        // 40-cell rows on 256-byte pages span two pages, so every run has a
        // page boundary inside it; on 4 KB pages a row is one segment.
        let params = SorParams { n: 40, iters: 3 };
        for page_bytes in [256, 4096] {
            for (what, cfg) in crate::run_equivalence::configs(3, page_bytes) {
                let (runs, by_runs) = run(cfg.clone(), params);
                let (words, by_words) = run_by_words(cfg, params);
                let bits = |grid: &[f64]| grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&by_runs.grid), bits(&by_words.grid), "{what}: grid");
                assert_eq!(bits(&by_runs.grid), bits(&reference(params)), "{what}");
                crate::run_equivalence::assert_same_report(&what, &runs, &words, true);
            }
        }
    }

    #[test]
    fn reference_keeps_boundary_and_smooths_interior() {
        let n = 16;
        let g = reference(SorParams { n, iters: 100 });
        for (j, v) in g.iter().enumerate().take(n) {
            assert_eq!(*v, initial(0, j, n), "top boundary must not move");
        }
        let center = g[8 * n + 8];
        assert!(center > 0.0 && center < 1.0, "center = {center}");
    }
}
