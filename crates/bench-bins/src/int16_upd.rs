//! The int16 weight update of Section II-K (Fig. 8c) — a paper-figure
//! artifact like [`crate::multinode`]: `fig8` is its only caller,
//! nothing is trained through it.
//!
//! The 4VNNIW-style pixel-pair reduction: dO rows are transposed into
//! pair-interleaved `[q/2][k][2]` panels and input rows into
//! channel-major `[c][q]` rows (the paper's *"memory bound operation
//! \[that\] further degrades the performance"*), then a 16-accumulator
//! `vpdpwssd` loop sweeps pixel pairs. That loop is written with
//! runtime-detected intrinsics, not emitted by the JIT, so `kver` does
//! not verify it.

use parallel::{split_even, ThreadPool};
use std::sync::Mutex;
use tensor::{ConvShape, VnniActs, VLEN};

/// Planned int16 weight-gradient pass (pixel-pair reduction).
pub struct QuantUpdPlan {
    shape: ConvShape,
}

impl QuantUpdPlan {
    /// Trivial setup (the kernels are shape-independent here).
    pub fn new(shape: ConvShape) -> Self {
        Self { shape }
    }

    /// Execute `dweights(i32) = conv_upd(input(i16), dout(i16))`.
    ///
    /// Includes the two upfront transposes the paper charges to this
    /// pass: dO rows → pair-interleaved `[q/2][k][2]`, input rows →
    /// channel-major `[c][q]`.
    pub fn run(&self, pool: &ThreadPool, input: &VnniActs, dout: &VnniActs, dweights: &mut [i32]) {
        let sh = &self.shape;
        assert_eq!((input.n, input.c, input.h, input.w), (sh.n, sh.c, sh.h, sh.w));
        assert_eq!((dout.n, dout.c, dout.h, dout.w), (sh.n, sh.k, sh.p(), sh.q()));
        assert_eq!(dout.pad, 0);
        let tasks = sh.kb() * sh.cb() * sh.r * sh.s;
        let panel = VLEN * VLEN;
        assert_eq!(dweights.len(), tasks * panel, "dweights length mismatch");

        // one task per `[kb][cb][r][s]` panel; thread `tid` owns the
        // contiguous panels of `split_even(tasks, T, tid)`
        let nthreads = pool.nthreads();
        let mut rest = dweights;
        let owned: Vec<Mutex<&mut [i32]>> = (0..nthreads)
            .map(|tid| {
                let len = split_even(tasks, nthreads, tid).len() * panel;
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                Mutex::new(mine)
            })
            .collect();

        let (p_dim, q_dim) = (sh.p(), sh.q());
        let qp = q_dim.div_ceil(2); // pixel pairs per row (odd Q padded)
        pool.run(|ctx| {
            let mut dw = owned[ctx.tid].lock().unwrap();
            // thread-local transpose scratch
            let mut dot = vec![0i16; qp * VLEN * 2]; // [q/2][k][2]
            let mut it = vec![0i16; VLEN * qp * 2]; // [c][q] (padded even)
            let my_tasks = split_even(tasks, ctx.nthreads, ctx.tid);
            for (task, out) in my_tasks.zip(dw.chunks_exact_mut(panel)) {
                let s_ = task % sh.s;
                let r_ = (task / sh.s) % sh.r;
                let cb = (task / (sh.s * sh.r)) % sh.cb();
                let kb = task / (sh.s * sh.r * sh.cb());
                let mut acc = [[0i32; VLEN]; VLEN];
                for n in 0..sh.n {
                    for pj in 0..p_dim {
                        // transpose dO row pj into pair-interleave
                        let do_base = dout.pix_offset_logical(n, kb, pj as isize, 0);
                        let dsl = dout.as_slice();
                        dot.fill(0);
                        for q in 0..q_dim {
                            for k in 0..VLEN {
                                dot[(q / 2) * VLEN * 2 + k * 2 + (q % 2)] =
                                    dsl[do_base + q * VLEN + k];
                            }
                        }
                        // transpose the strided input pixels feeding
                        // this row at tap (r_, s_) into channel-major
                        let isl = input.as_slice();
                        it.fill(0);
                        for q in 0..q_dim {
                            let off = input.pix_offset_logical(
                                n,
                                cb,
                                (pj * sh.stride + r_) as isize - sh.pad as isize,
                                (q * sh.stride + s_) as isize - sh.pad as isize,
                            );
                            for c in 0..VLEN {
                                it[c * qp * 2 + q] = isl[off + c];
                            }
                        }
                        // pixel-pair dot-product accumulate
                        quant_upd_rows(&mut acc, &it, &dot, qp);
                    }
                }
                // write the finished panel ([c][k] like the f32 layout)
                for (dst, row) in out.chunks_exact_mut(VLEN).zip(&acc) {
                    dst.copy_from_slice(row);
                }
            }
        });
    }
}

/// Accumulate `acc[c][k] += Σ_pairs dot(it[c][2q..], dot_panel[q][k][..])`.
fn quant_upd_rows(acc: &mut [[i32; VLEN]; VLEN], it: &[i16], dot: &[i16], qp: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512vnni") {
            // SAFETY: feature detected; slices sized by construction.
            unsafe { quant_upd_rows_vnni(acc, it, dot, qp) };
            return;
        }
    }
    quant_upd_rows_scalar(acc, it, dot, qp);
}

fn quant_upd_rows_scalar(acc: &mut [[i32; VLEN]; VLEN], it: &[i16], dot: &[i16], qp: usize) {
    for (c, row) in acc.iter_mut().enumerate() {
        for q in 0..qp {
            let x0 = it[c * qp * 2 + 2 * q] as i32;
            let x1 = it[c * qp * 2 + 2 * q + 1] as i32;
            for (k, v) in row.iter_mut().enumerate() {
                let w0 = dot[q * VLEN * 2 + k * 2] as i32;
                let w1 = dot[q * VLEN * 2 + k * 2 + 1] as i32;
                *v += x0 * w0 + x1 * w1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512vnni,avx512bw")]
unsafe fn quant_upd_rows_vnni(acc: &mut [[i32; VLEN]; VLEN], it: &[i16], dot: &[i16], qp: usize) {
    use std::arch::x86_64::*;
    let mut vacc = [_mm512_setzero_si512(); VLEN];
    for (c, va) in vacc.iter_mut().enumerate() {
        *va = _mm512_loadu_si512(acc[c].as_ptr() as *const _);
    }
    for q in 0..qp {
        let w = _mm512_loadu_si512(dot.as_ptr().add(q * VLEN * 2) as *const _);
        for (c, va) in vacc.iter_mut().enumerate() {
            let pair = *(it.as_ptr().add(c * qp * 2 + 2 * q) as *const i32);
            *va = _mm512_dpwssd_epi32(*va, _mm512_set1_epi32(pair), w);
        }
    }
    for (c, va) in vacc.iter().enumerate() {
        _mm512_storeu_si512(acc[c].as_mut_ptr() as *mut _, *va);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quant_upd_matches_naive() {
        for shape in [
            ConvShape::new(2, 16, 32, 6, 6, 3, 3, 1, 1),
            ConvShape::new(1, 32, 16, 7, 7, 1, 1, 1, 0), // odd Q
            ConvShape::new(1, 16, 16, 8, 8, 1, 1, 2, 0),
        ] {
            let threads = 3;
            let pool = ThreadPool::new(threads);
            let plan = QuantUpdPlan::new(shape);
            let x = VnniActs::random(shape.n, shape.c, shape.h, shape.w, shape.pad, 11);
            let gy = VnniActs::random(shape.n, shape.k, shape.p(), shape.q(), 0, 12);
            let wlen = shape.kb() * shape.cb() * shape.r * shape.s * 256;
            let mut dw = vec![0i32; wlen];
            plan.run(&pool, &x, &gy, &mut dw);

            // naive: dW[k][c][r][s] += x * gy
            let mut expect = vec![0i32; wlen];
            for n in 0..shape.n {
                for k in 0..shape.k {
                    for c in 0..shape.c {
                        for oj in 0..shape.p() {
                            for oi in 0..shape.q() {
                                let g = gy.get(n, k, oj, oi) as i32;
                                for r in 0..shape.r {
                                    for s in 0..shape.s {
                                        let ij =
                                            (shape.stride * oj + r) as isize - shape.pad as isize;
                                        let ii =
                                            (shape.stride * oi + s) as isize - shape.pad as isize;
                                        if ij >= 0
                                            && (ij as usize) < shape.h
                                            && ii >= 0
                                            && (ii as usize) < shape.w
                                        {
                                            let xv = x.get(n, c, ij as usize, ii as usize) as i32;
                                            let panel = (((k / VLEN) * shape.cb() + c / VLEN)
                                                * shape.r
                                                + r)
                                                * shape.s
                                                + s;
                                            expect[panel * 256 + (c % VLEN) * VLEN + k % VLEN] +=
                                                xv * g;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            assert_eq!(expect, dw, "{shape}");
        }
    }
}
