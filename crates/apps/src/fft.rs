//! FFT: a 1-D complex FFT via the six-step (transpose) method.
//!
//! The paper's input "64 x 64 x 16" is 65,536 complex points — an m×m
//! matrix with m = 256.  The six-step method alternates local row FFTs
//! with matrix transposes, a barrier between phases:
//!
//! 1. transpose, 2. m-point FFT on rows, 3. twiddle multiply,
//! 4. transpose, 5. m-point FFT on rows, 6. transpose.
//!
//! Transposes read remote rows (written before the last barrier — ordered)
//! and write locally-owned rows.  The matrices are stored *contiguously*
//! (as in Splash2), so on machines whose VM page exceeds one row (the
//! DECstations' 8 KB pages vs 4 KB rows) the row blocks of adjacent
//! processes share boundary pages: concurrent same-epoch writes to one
//! page, at different words.  That false sharing — examined and dismissed
//! by the detector — is what puts FFT at a nonzero "Intervals Used" but a
//! tiny "Bitmaps Used" in Table 3, with no races.
//!
//! Shared memory: source + destination + twiddle matrices, 3 × 1 MB at the
//! paper's size (Table 1's 3,088 KB).

use cvm_dsm::{Cluster, DsmConfig, RunReport};
use cvm_page::{GAddr, SharedAlloc};
use parking_lot::Mutex;

/// One complex number, stored as two shared words (re, im).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// `exp(i * theta)`.
    pub fn cis(theta: f64) -> Complex {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

/// FFT parameters.
#[derive(Clone, Copy, Debug)]
pub struct FftParams {
    /// Matrix side; the transform length is `m * m`.  Must be a power of
    /// two.
    pub m: usize,
    /// Inverse transform.
    pub inverse: bool,
}

impl FftParams {
    /// The paper's input: 65,536 points (m = 256).
    pub fn paper() -> Self {
        FftParams {
            m: 256,
            inverse: false,
        }
    }

    /// A small instance for tests (N = 64).
    pub fn small() -> Self {
        FftParams {
            m: 8,
            inverse: false,
        }
    }

    /// Transform length.
    pub fn n(&self) -> usize {
        self.m * self.m
    }
}

/// Result: the transformed sequence, gathered by process 0.
#[derive(Clone, Debug)]
pub struct FftResult {
    /// Output sequence, natural order.
    pub data: Vec<Complex>,
}

/// Deterministic input signal: a mix of tones plus a pseudo-random phase,
/// so the spectrum is non-trivial but reproducible.
pub fn input_signal(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            Complex {
                re: (2.0 * std::f64::consts::PI * 3.0 * t).sin()
                    + 0.5 * (2.0 * std::f64::consts::PI * 17.0 * t).cos(),
                im: 0.25 * (2.0 * std::f64::consts::PI * 5.0 * t).sin(),
            }
        })
        .collect()
}

/// In-place iterative radix-2 FFT of a local buffer.
///
/// `sign` is -1 for the forward transform, +1 for the inverse (no
/// scaling).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft_local(buf: &mut [Complex], sign: f64) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            buf.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex { re: 1.0, im: 0.0 };
            for k in 0..len / 2 {
                let u = buf[start + k];
                let v = buf[start + k + len / 2] * w;
                buf[start + k] = u + v;
                buf[start + k + len / 2] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// Naive O(n²) DFT reference.
pub fn dft_reference(input: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = input.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Complex::ZERO;
        for (i, &x) in input.iter().enumerate() {
            let w = Complex::cis(sign * 2.0 * std::f64::consts::PI * (i * k) as f64 / n as f64);
            acc = acc + x * w;
        }
        if inverse {
            acc = Complex {
                re: acc.re / n as f64,
                im: acc.im / n as f64,
            };
        }
        out.push(acc);
    }
    out
}

/// Cycles of floating-point work per butterfly.
const BUTTERFLY_CYCLES: u64 = 12;

/// Runs the six-step FFT on the DSM.
pub fn run(cfg: DsmConfig, params: FftParams) -> (RunReport, FftResult) {
    run_on(cfg, params, &input_signal(params.n()))
}

/// Allocates the source, destination and twiddle matrices of an
/// `n`-point transform.
fn alloc_matrices(alloc: &mut SharedAlloc, n: usize) -> (GAddr, GAddr, GAddr) {
    // A small globals block first, then the matrices allocated
    // back-to-back without page alignment — exactly how the
    // original malloc'd them.  Row blocks therefore straddle page
    // boundaries, which is where FFT's transpose-phase false
    // sharing comes from on large-page machines.
    let _globals = alloc.alloc("fft_globals", 24).unwrap();
    let words = (n * 2 * 8) as u64;
    let src = alloc.alloc("fft_src", words).unwrap();
    let dst = alloc.alloc("fft_dst", words).unwrap();
    let tw = alloc.alloc("fft_twiddle", words).unwrap();
    (src, dst, tw)
}

/// Packs `row` into the `(re, im)` word pairs shared memory holds.
fn pack(row: &[Complex], words: &mut [u64]) {
    for (pair, c) in words.chunks_exact_mut(2).zip(row) {
        pair[0] = c.re.to_bits();
        pair[1] = c.im.to_bits();
    }
}

/// The complex numbers held in `words` as `(re, im)` pairs.
fn unpack(words: &[u64]) -> impl Iterator<Item = Complex> + '_ {
    words.chunks_exact(2).map(|pair| Complex {
        re: f64::from_bits(pair[0]),
        im: f64::from_bits(pair[1]),
    })
}

/// Runs the six-step FFT on the DSM over a caller-supplied input.
///
/// A matrix row is `2m` contiguous shared words, so initialization, the
/// row FFTs and the gather move whole rows as runs; a transpose reads down a
/// column, one `(re, im)` pair a row, and stays word at a time.
pub fn run_on(cfg: DsmConfig, params: FftParams, input: &[Complex]) -> (RunReport, FftResult) {
    let m = params.m;
    assert!(m.is_power_of_two(), "matrix side must be a power of two");
    let n = params.n();
    assert_eq!(input.len(), n, "input length mismatch");
    let sign = if params.inverse { 1.0 } else { -1.0 };
    let result = Mutex::new(None);

    let report = Cluster::run(
        cfg,
        |alloc| alloc_matrices(alloc, n),
        |h, &(src, dst, tw)| {
            let at = |base: GAddr, row: usize, col: usize| -> GAddr {
                base.word(((row * m + col) * 2) as u64)
            };
            let read_c = |base: GAddr, row: usize, col: usize| -> Complex {
                let a = at(base, row, col);
                Complex {
                    re: h.read_f64(a),
                    im: h.read_f64(a.offset(8)),
                }
            };
            let write_c = |base: GAddr, row: usize, col: usize, v: Complex| {
                let a = at(base, row, col);
                h.write_f64(a, v.re);
                h.write_f64(a.offset(8), v.im);
            };
            let (lo, hi) = crate::sor::row_block(m, h.nprocs(), h.proc());
            // Seven barrier phases, each an epoch step so a restored node
            // skips already-checkpointed work and rejoins the barrier loop.
            let mut ep = h.epochs();
            // One row, as complex numbers and as the words of its run;
            // both outlive the steps.
            let mut buf = vec![Complex::ZERO; m];
            let mut words = vec![0u64; 2 * m];

            // Initialization: input rows and twiddles for owned rows.
            ep.step(|| {
                for i in lo..hi {
                    pack(&input[i * m..(i + 1) * m], &mut words);
                    h.write_run(at(src, i, 0), &words);
                    for (j, w) in buf.iter_mut().enumerate() {
                        let theta = sign * 2.0 * std::f64::consts::PI * (i * j) as f64 / n as f64;
                        *w = Complex::cis(theta);
                    }
                    pack(&buf, &mut words);
                    h.write_run(at(tw, i, 0), &words);
                }
            });

            let transpose = |from: GAddr, to: GAddr| {
                // Read remote columns, write own rows.
                for i in lo..hi {
                    for j in 0..m {
                        let v = read_c(from, j, i);
                        write_c(to, i, j, v);
                    }
                    h.private_traffic(12 * m as u64);
                }
            };
            let mut fft_rows = |grid: GAddr, twiddle: bool| {
                for i in lo..hi {
                    h.read_run(at(grid, i, 0), &mut words);
                    buf.iter_mut().zip(unpack(&words)).for_each(|(b, v)| *b = v);
                    fft_local(&mut buf, sign);
                    h.compute((m as u64 / 2) * (m.trailing_zeros() as u64) * BUTTERFLY_CYCLES);
                    h.private_traffic(12 * m as u64);
                    if twiddle {
                        h.read_run(at(tw, i, 0), &mut words);
                        buf.iter_mut()
                            .zip(unpack(&words))
                            .for_each(|(b, w)| *b = *b * w);
                    }
                    pack(&buf, &mut words);
                    h.write_run(at(grid, i, 0), &words);
                }
            };

            ep.step(|| transpose(src, dst)); // Step 1.
            ep.step(|| fft_rows(dst, true)); // Steps 2 + 3 (twiddle fused).
            ep.step(|| transpose(dst, src)); // Step 4.
            ep.step(|| fft_rows(src, false)); // Step 5.
            ep.step(|| transpose(src, dst)); // Step 6.

            ep.step(|| {
                if h.proc() == 0 {
                    let scale = if params.inverse { 1.0 / n as f64 } else { 1.0 };
                    let mut out = vec![Complex::ZERO; n];
                    for (i, row) in out.chunks_exact_mut(m).enumerate() {
                        h.read_run(at(dst, i, 0), &mut words);
                        for (o, v) in row.iter_mut().zip(unpack(&words)) {
                            *o = Complex {
                                re: v.re * scale,
                                im: v.im * scale,
                            };
                        }
                    }
                    *result.lock() = Some(out);
                }
            });
        },
    )
    .expect("cluster run");
    let data = result.into_inner().expect("process 0 gathered the output");
    (report, FftResult { data })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "element {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn fft_local_matches_dft() {
        let input = input_signal(16);
        let mut buf = input.clone();
        fft_local(&mut buf, -1.0);
        close(&buf, &dft_reference(&input, false), 1e-9);
    }

    #[test]
    fn fft_local_roundtrip() {
        let input = input_signal(64);
        let mut buf = input.clone();
        fft_local(&mut buf, -1.0);
        fft_local(&mut buf, 1.0);
        let scaled: Vec<Complex> = buf
            .iter()
            .map(|c| Complex {
                re: c.re / 64.0,
                im: c.im / 64.0,
            })
            .collect();
        close(&scaled, &input, 1e-9);
    }

    #[test]
    fn six_step_matches_dft_small() {
        let params = FftParams {
            m: 4,
            inverse: false,
        };
        let input = input_signal(16);
        let (report, result) = run_on(DsmConfig::new(2), params, &input);
        close(&result.data, &dft_reference(&input, false), 1e-9);
        assert!(
            report.races.is_empty(),
            "FFT must be race-free: {:?}",
            report.races.reports()
        );
    }

    #[test]
    fn six_step_inverse_recovers_signal() {
        let params = FftParams {
            m: 8,
            inverse: false,
        };
        let input = input_signal(64);
        let (_, fwd) = run_on(DsmConfig::new(4), params, &input);
        let (_, back) = run_on(
            DsmConfig::new(4),
            FftParams {
                m: 8,
                inverse: true,
            },
            &fwd.data,
        );
        close(&back.data, &input, 1e-9);
    }

    /// The same program one word at a time: the reference the shipped
    /// `run_on`, which moves rows as runs, must leave the same report as.
    fn run_on_by_words(
        cfg: DsmConfig,
        params: FftParams,
        input: &[Complex],
    ) -> (RunReport, FftResult) {
        let (m, n) = (params.m, params.n());
        let sign = if params.inverse { 1.0 } else { -1.0 };
        let result = Mutex::new(None);
        let report = Cluster::run(
            cfg,
            |alloc| alloc_matrices(alloc, n),
            |h, &(src, dst, tw)| {
                let at =
                    |base: GAddr, row: usize, col: usize| base.word(((row * m + col) * 2) as u64);
                let read_c = |base: GAddr, row: usize, col: usize| Complex {
                    re: h.read_f64(at(base, row, col)),
                    im: h.read_f64(at(base, row, col).offset(8)),
                };
                let write_c = |base: GAddr, row: usize, col: usize, v: Complex| {
                    h.write_f64(at(base, row, col), v.re);
                    h.write_f64(at(base, row, col).offset(8), v.im);
                };
                let (lo, hi) = crate::sor::row_block(m, h.nprocs(), h.proc());
                let mut ep = h.epochs();
                ep.step(|| {
                    for (i, j) in (lo..hi).flat_map(|i| (0..m).map(move |j| (i, j))) {
                        write_c(src, i, j, input[i * m + j]);
                        let theta = sign * 2.0 * std::f64::consts::PI * (i * j) as f64 / n as f64;
                        write_c(tw, i, j, Complex::cis(theta));
                    }
                });
                let transpose = |from: GAddr, to: GAddr| {
                    for i in lo..hi {
                        for j in 0..m {
                            write_c(to, i, j, read_c(from, j, i));
                        }
                        h.private_traffic(12 * m as u64);
                    }
                };
                let fft_rows = |grid: GAddr, twiddle: bool| {
                    for i in lo..hi {
                        let mut buf: Vec<Complex> = (0..m).map(|j| read_c(grid, i, j)).collect();
                        fft_local(&mut buf, sign);
                        h.compute((m as u64 / 2) * (m.trailing_zeros() as u64) * BUTTERFLY_CYCLES);
                        h.private_traffic(12 * m as u64);
                        for (j, &v) in buf.iter().enumerate() {
                            let v = if twiddle { v * read_c(tw, i, j) } else { v };
                            write_c(grid, i, j, v);
                        }
                    }
                };
                ep.step(|| transpose(src, dst));
                ep.step(|| fft_rows(dst, true));
                ep.step(|| transpose(dst, src));
                ep.step(|| fft_rows(src, false));
                ep.step(|| transpose(src, dst));
                ep.step(|| {
                    if h.proc() == 0 {
                        let scale = if params.inverse { 1.0 / n as f64 } else { 1.0 };
                        let out = (0..n).map(|at| {
                            let v = read_c(dst, at / m, at % m);
                            Complex {
                                re: v.re * scale,
                                im: v.im * scale,
                            }
                        });
                        *result.lock() = Some(out.collect());
                    }
                });
            },
        )
        .expect("cluster run");
        let data = result.into_inner().expect("process 0 gathered the output");
        (report, FftResult { data })
    }

    #[test]
    fn rows_as_runs_leave_what_word_pairs_leave() {
        // 16-point rows are 32 words: on 128-byte pages every row run
        // crosses page boundaries, on 4 KB pages most are one segment, and
        // on both the row blocks of adjacent processes share boundary pages.
        let params = FftParams {
            m: 16,
            inverse: false,
        };
        let input = input_signal(params.n());
        for page_bytes in [128, 4096] {
            for cell in cvm_testkit::Scenario::detection_axis(3, page_bytes) {
                let what = format!("{cell:?}");
                let (runs, by_runs) = run_on(cell.config(), params, &input);
                let (words, by_words) = run_on_by_words(cell.config(), params, &input);
                // Falsely shared pages are dismissed at word granularity,
                // whichever way write bits are taken (§4, §6.5).
                assert!(runs.races.is_empty(), "{what}: {:?}", runs.races.reports());
                let bits = |data: &[Complex]| {
                    data.iter()
                        .map(|c| (c.re.to_bits(), c.im.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(&by_runs.data),
                    bits(&by_words.data),
                    "{what}: spectrum"
                );
                // Writers of a shared boundary page race each other to it:
                // how often it bounces (single-writer) and what a fetched
                // copy already holds (multi-writer) vary run to run.
                cvm_testkit::assert_same_report(&what, &runs, &words, false);
            }
        }
    }

    #[test]
    fn false_sharing_on_large_pages_without_races() {
        // DECstation-style 8 KB pages make adjacent row blocks share
        // boundary pages (rows of m=16 complex = 256 B): concurrent writes
        // to the same page at different words.  Examined, dismissed.
        let mut cfg = DsmConfig::new(4);
        cfg.geometry = cvm_page::Geometry::with_page_bytes(8192);
        let params = FftParams {
            m: 16,
            inverse: false,
        };
        let input = input_signal(params.n());
        let (report, result) = run_on(cfg, params, &input);
        close(&result.data, &dft_reference(&input, false), 1e-8);
        assert!(report.races.is_empty());
        assert!(
            report.det_stats.intervals_used > 0,
            "expected transpose-phase false sharing"
        );
    }
}
