//! Reduced-precision int16 engine (Section II-K).
//!
//! The int16 instantiation of the streamed engine, with the datatype
//! changes of the paper's quantized path:
//!
//! * **forward** — [`QuantFwdPlan`] is [`StreamPlan`] over the
//!   [`I16Fwd`] kernel flavour: the one dryrun records the identical
//!   offset streams (the int16 layouts are element-parallel to the f32
//!   ones); kernels are `vpdpwssd`-based; the accumulation chain inside one
//!   kernel invocation is bounded by `chain_limit` channel blocks (the
//!   paper's overflow guard: *"we have to restrict the length of the
//!   FMA accumulation chain"*), which costs extra int32 output traffic
//!   — one of the three reasons int16 stays below 2×;
//! * **backward** — the f32 duality request (`bwd::dual_request`) on the
//!   int16 flavour: transposed/flipped weights re-quantized into the
//!   VNNI layout, dO (padded) as input;
//! * **update** — the 4VNNIW-style pixel-pair reduction: dO rows are
//!   transposed into pair-interleaved `[q/2][k][2]` panels and input
//!   rows into channel-major `[c][q]` rows (the paper's *"memory bound
//!   operation \[that\] further degrades the performance"*), then a
//!   16-accumulator `vpdpwssd` kernel sweeps pixel pairs.

use crate::backend::I16Fwd;
use crate::bwd::dual_request;
use crate::fuse::{apply_tile_requant, ApplyRec, FuseCtx, FusedOp};
use crate::fwd::{PlanRequest, StreamPlan};
use crate::streams::{replay_all, SendPtr};
use parallel::{split_even, ThreadPool};
use tensor::vnni::BlockedI32;
use tensor::{BlockedActs, BlockedFilter, ConvShape, VnniActs, VnniFilter, VLEN};

/// Default accumulation-chain bound in channel blocks (64 channels).
pub const DEFAULT_CHAIN_LIMIT: usize = 4;

/// Planned int16 forward pass: the int16 instantiation of the streamed
/// engine. The shared dryrun bounds the in-kernel accumulation chain by
/// the request's `chain_limit` (clamped to a divisor of `Cb`).
pub type QuantFwdPlan = StreamPlan<I16Fwd>;

impl QuantFwdPlan {
    /// Execute `out = conv(input, weights)` in int16→int32 (raw plans
    /// only — fused plans requantize through [`QuantFwdPlan::run_fused`]).
    pub fn run(
        &self,
        pool: &ThreadPool,
        input: &VnniActs,
        weights: &VnniFilter,
        out: &mut BlockedI32,
    ) {
        self.check_vnni_inputs(pool, input, weights);
        let sh = self.shape();
        assert_eq!((out.n, out.k, out.h, out.w), (sh.n, sh.k, sh.p(), sh.q()), "output mismatch");
        // SAFETY: geometry validated; disjoint tiles per thread.
        unsafe { self.run_raw(pool, input.as_ptr(), weights.as_ptr(), out.as_mut_ptr()) }
    }

    fn check_vnni_inputs(&self, pool: &ThreadPool, input: &VnniActs, weights: &VnniFilter) {
        self.check_inputs(
            pool,
            (input.n, input.c, input.h, input.w, input.pad),
            (weights.k, weights.c, weights.r, weights.s),
        );
    }

    /// Execute the full quantized chain into an f32 tensor:
    /// int16 conv → int32 accumulators (written bit-wise into the f32
    /// storage: same element size, same strides) → per-tile requantize
    /// `acc · mult[k]` + fused post-ops (folded-BN bias, residual add,
    /// ReLU) in the APPLY step, while the tile is cache-hot.
    ///
    /// `mult` is the per-output-channel requantization multiplier (the
    /// per-k weight scale with the activation scales folded in, see
    /// `VnniFilter::quantize_per_k`), length ≥ the padded channel
    /// count. The bias in `ctx` stays f32. The output's physical
    /// border (when `out_pad > 0`) is never touched and must already
    /// be zero, exactly like the f32 fused path.
    pub fn run_fused(
        &self,
        pool: &ThreadPool,
        input: &VnniActs,
        weights: &VnniFilter,
        output: &mut BlockedActs,
        mult: &[f32],
        ctx: &FuseCtx<'_>,
    ) {
        let fused = self.fused();
        // a raw plan records no APPLY, so accumulators would be left
        // unconverted
        assert_ne!(fused, FusedOp::None, "raw plans must run through run");
        self.check_vnni_inputs(pool, input, weights);
        self.check_fused_output(output, ctx);
        let kpad = self.shape().k.next_multiple_of(VLEN);
        assert!(mult.len() >= kpad, "mult shorter than the padded channel count");
        let out = SendPtr(output.as_mut_ptr());
        let apply = |rec: &ApplyRec| {
            // SAFETY: the record addresses a tile of `output` this
            // thread just finished accumulating.
            unsafe { apply_tile_requant(fused, rec, out.get(), mult, ctx) }
        };
        let (inp, wt, acc) = (input.as_ptr(), weights.as_ptr(), out.get().cast());
        // SAFETY: geometry validated above; threads own disjoint
        // tiles, and every tile's APPLY follows its last reduction.
        unsafe { replay_all(pool, &self.streams, &self.kernels, inp, wt, acc, apply) };
    }

    /// Raw-pointer execution of a raw plan (duality paths).
    ///
    /// # Safety
    /// Tensors must match the dryrun geometry exactly.
    pub unsafe fn run_raw(
        &self,
        pool: &ThreadPool,
        input: *const i16,
        weights: *const i16,
        out: *mut i32,
    ) {
        assert_eq!(self.fused(), FusedOp::None, "fused plans must run through run_fused");
        replay_all(pool, &self.streams, &self.kernels, input, weights, out, |_| {
            unreachable!("raw plans record no APPLY")
        });
    }
}

/// Planned int16 backward pass (duality only — the strided-spatial
/// fallback has no int16 counterpart in the paper either).
pub struct QuantBwdPlan {
    shape: ConvShape,
    dual: QuantFwdPlan,
}

impl QuantBwdPlan {
    /// Build the dual plan. Panics for strided spatial filters. dI is
    /// an unpadded [`BlockedI32`], whatever the request's `input_pad`.
    pub fn new(req: &PlanRequest) -> Self {
        let dual = dual_request(&PlanRequest { input_pad: 0, ..*req })
            .expect("int16 backward supports stride-1 or 1x1 layers (as does the paper)");
        Self { shape: req.shape, dual: QuantFwdPlan::new(&dual) }
    }

    /// Physical padding required on the int16 dO tensor.
    pub fn dout_pad(&self) -> usize {
        self.dual.input_pad()
    }

    /// Execute `dinput = conv_bwd(dout, weights)`.
    ///
    /// `weights` is the f32 master (kept in f32 as in mixed-precision
    /// training); it is transposed/flipped and re-quantized here.
    pub fn run(
        &self,
        pool: &ThreadPool,
        dout: &VnniActs,
        weights: &BlockedFilter,
        w_scale: f32,
        dinput: &mut BlockedI32,
    ) {
        let sh = &self.shape;
        assert_eq!((dout.n, dout.c, dout.h, dout.w), (sh.n, sh.k, sh.p(), sh.q()));
        assert_eq!(dout.pad, self.dout_pad(), "dout must carry the dual padding");
        assert_eq!((dinput.n, dinput.k, dinput.h, dinput.w), (sh.n, sh.c, sh.h, sh.w));
        let wt = VnniFilter::quantize(&weights.transpose_flip(), w_scale);
        if sh.stride > 1 {
            dinput.zero();
        }
        // SAFETY: dual plan geometry matches.
        unsafe { self.dual.run_raw(pool, dout.as_ptr(), wt.as_ptr(), dinput.as_mut_ptr()) };
    }
}

/// Planned int16 weight-gradient pass (pixel-pair reduction).
pub struct QuantUpdPlan {
    shape: ConvShape,
    nthreads: usize,
}

impl QuantUpdPlan {
    /// Team size the plan expects.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }
}

impl QuantUpdPlan {
    /// Trivial setup (the kernels are shape-independent here).
    pub fn new(shape: ConvShape, nthreads: usize) -> Self {
        Self { shape, nthreads }
    }

    /// Execute `dweights(i32) = conv_upd(input(i16), dout(i16))`.
    ///
    /// Includes the two upfront transposes the paper charges to this
    /// pass: dO rows → pair-interleaved `[q/2][k][2]`, input rows →
    /// channel-major `[c][q]`.
    pub fn run(&self, pool: &ThreadPool, input: &VnniActs, dout: &VnniActs, dweights: &mut [i32]) {
        assert_eq!(pool.nthreads(), self.nthreads);
        let sh = &self.shape;
        assert_eq!((input.n, input.c, input.h, input.w), (sh.n, sh.c, sh.h, sh.w));
        assert_eq!((dout.n, dout.c, dout.h, dout.w), (sh.n, sh.k, sh.p(), sh.q()));
        assert_eq!(dout.pad, 0);
        let wlen = sh.kb() * sh.cb() * sh.r * sh.s * VLEN * VLEN;
        assert_eq!(dweights.len(), wlen, "dweights length mismatch");
        dweights.fill(0);

        let (p_dim, q_dim) = (sh.p(), sh.q());
        let qp = q_dim.div_ceil(2); // pixel pairs per row (odd Q padded)
        let tasks = sh.kb() * sh.cb() * sh.r * sh.s;
        let dw = SendPtr(dweights.as_mut_ptr());
        let shv = *sh;
        let in_t = input;
        let do_t = dout;
        pool.run(move |ctx| {
            // thread-local transpose scratch
            let mut dot = vec![0i16; qp * VLEN * 2]; // [q/2][k][2]
            let mut it = vec![0i16; VLEN * qp * 2]; // [c][q] (padded even)
            let my_tasks = split_even(tasks, ctx.nthreads, ctx.tid);
            for task in my_tasks {
                let s_ = task % shv.s;
                let r_ = (task / shv.s) % shv.r;
                let cb = (task / (shv.s * shv.r)) % shv.cb();
                let kb = task / (shv.s * shv.r * shv.cb());
                let panel = task * VLEN * VLEN; // flat [kb][cb][r][s] order
                let mut acc = [[0i32; VLEN]; VLEN];
                for n in 0..shv.n {
                    for pj in 0..p_dim {
                        // transpose dO row pj into pair-interleave
                        let do_base = do_t.pix_offset_logical(n, kb, pj as isize, 0);
                        let dsl = do_t.as_slice();
                        dot.fill(0);
                        for q in 0..q_dim {
                            for k in 0..VLEN {
                                dot[(q / 2) * VLEN * 2 + k * 2 + (q % 2)] =
                                    dsl[do_base + q * VLEN + k];
                            }
                        }
                        // transpose the strided input pixels feeding
                        // this row at tap (r_, s_) into channel-major
                        let isl = in_t.as_slice();
                        it.fill(0);
                        for q in 0..q_dim {
                            let off = in_t.pix_offset_logical(
                                n,
                                cb,
                                (pj * shv.stride + r_) as isize - shv.pad as isize,
                                (q * shv.stride + s_) as isize - shv.pad as isize,
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
                for (c, row) in acc.iter().enumerate() {
                    for (k, v) in row.iter().enumerate() {
                        // SAFETY: panels are disjoint per task.
                        unsafe { *dw.get().add(panel + c * VLEN + k) += v };
                    }
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
    use crate::{blocking, LayerOptions};

    fn request(shape: ConvShape, opts: &LayerOptions) -> PlanRequest {
        PlanRequest::new(shape, blocking::choose(&shape), opts)
    }

    /// Naive int32 reference conv on the vnni tensors.
    fn fwd_ref(sh: &ConvShape, x: &VnniActs, w: &VnniFilter) -> BlockedI32 {
        let mut out = BlockedI32::zeros(sh.n, sh.k, sh.p(), sh.q());
        for n in 0..sh.n {
            for k in 0..sh.k {
                for oj in 0..sh.p() {
                    for oi in 0..sh.q() {
                        let mut acc = 0i32;
                        for c in 0..sh.c {
                            for r in 0..sh.r {
                                for s in 0..sh.s {
                                    let ij = (sh.stride * oj + r) as isize - sh.pad as isize;
                                    let ii = (sh.stride * oi + s) as isize - sh.pad as isize;
                                    if ij >= 0
                                        && (ij as usize) < sh.h
                                        && ii >= 0
                                        && (ii as usize) < sh.w
                                    {
                                        acc += x.get(n, c, ij as usize, ii as usize) as i32
                                            * w.get(k, c, r, s) as i32;
                                    }
                                }
                            }
                        }
                        out.set(n, k, oj, oi, acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn quant_fwd_matches_reference_exactly() {
        for (shape, threads) in [
            (ConvShape::new(2, 32, 32, 8, 8, 3, 3, 1, 1), 4),
            (ConvShape::new(1, 64, 32, 8, 8, 1, 1, 1, 0), 3),
            (ConvShape::new(1, 32, 32, 8, 8, 1, 1, 2, 0), 2),
        ] {
            let pool = ThreadPool::new(threads);
            let opts = LayerOptions::new(threads).with_prefetch(false).with_chain_limit(2);
            let plan = QuantFwdPlan::new(&request(shape, &opts));
            let x = VnniActs::random(shape.n, shape.c, shape.h, shape.w, shape.pad, 3);
            let w = VnniFilter::random(shape.k, shape.c, shape.r, shape.s, 4);
            let mut out = BlockedI32::zeros(shape.n, shape.k, shape.p(), shape.q());
            plan.run(&pool, &x, &w, &mut out);
            let expect = fwd_ref(&shape, &x, &w);
            assert_eq!(expect.as_slice(), out.as_slice(), "{shape}");
        }
    }

    #[test]
    fn fused_requant_matches_raw_plus_manual_apply() {
        let shape = ConvShape::new(2, 32, 32, 8, 8, 3, 3, 1, 1);
        let threads = 3;
        let pool = ThreadPool::new(threads);
        let x = VnniActs::random(shape.n, shape.c, shape.h, shape.w, shape.pad, 3);
        let w = VnniFilter::random(shape.k, shape.c, shape.r, shape.s, 4);
        let mult: Vec<f32> = (0..32).map(|k| 1e-4 * (k + 1) as f32).collect();
        let bias: Vec<f32> = (0..32).map(|k| 0.05 * k as f32 - 0.8).collect();
        let residual = BlockedActs::random(2, 32, 8, 8, 1, 5);

        let opts = LayerOptions::new(threads).with_prefetch(false);
        let raw = QuantFwdPlan::new(&request(shape, &opts));
        let mut acc = BlockedI32::zeros(2, 32, 8, 8);
        raw.run(&pool, &x, &w, &mut acc);

        for fuse in [FusedOp::Bias, FusedOp::BiasRelu, FusedOp::BiasEltwiseRelu] {
            // fused plan writes into a pad-1 padded output blob
            let fused =
                QuantFwdPlan::new(&request(shape, &opts.clone().with_fuse(fuse).with_out_pad(1)));
            assert_eq!(fused.fused(), fuse);
            let mut out = BlockedActs::zeros(2, 32, 8, 8, 1);
            let ctx =
                FuseCtx { bias: Some(&bias), eltwise: fuse.needs_eltwise().then_some(&residual) };
            fused.run_fused(&pool, &x, &w, &mut out, &mult, &ctx);
            for n in 0..2 {
                for k in 0..32 {
                    for h in 0..8 {
                        for wd in 0..8 {
                            let mut want = acc.get(n, k, h, wd) as f32 * mult[k] + bias[k];
                            if fuse.needs_eltwise() {
                                want += residual.get(n, k, h, wd);
                            }
                            if matches!(fuse, FusedOp::BiasRelu | FusedOp::BiasEltwiseRelu) {
                                want = want.max(0.0);
                            }
                            assert_eq!(out.get(n, k, h, wd), want, "{fuse:?} n={n} k={k}");
                        }
                    }
                }
                // the physical border must still be all zeros
                for kb in 0..out.cb {
                    for wp in 0..out.wp() {
                        let off = out.pix_offset_logical(n, kb, -1, wp as isize - 1);
                        for v in 0..VLEN {
                            assert_eq!(out.as_slice()[off + v], 0.0, "{fuse:?} border");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chain_limit_does_not_change_results() {
        let shape = ConvShape::new(1, 128, 16, 6, 6, 1, 1, 1, 0);
        let x = VnniActs::random(1, 128, 6, 6, 0, 7);
        let w = VnniFilter::random(16, 128, 1, 1, 8);
        let pool = ThreadPool::new(2);
        let mut results = Vec::new();
        for chain in [1usize, 2, 4, 8] {
            let opts = LayerOptions::new(2).with_prefetch(false).with_chain_limit(chain);
            let plan = QuantFwdPlan::new(&request(shape, &opts));
            let mut out = BlockedI32::zeros(1, 16, 6, 6);
            plan.run(&pool, &x, &w, &mut out);
            results.push(out.as_slice().to_vec());
        }
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
    }

    #[test]
    fn quant_bwd_duality_matches_naive() {
        let shape = ConvShape::new(1, 32, 32, 6, 6, 3, 3, 1, 1);
        let threads = 3;
        let pool = ThreadPool::new(threads);
        let opts = LayerOptions::new(threads).with_prefetch(false);
        let plan = QuantBwdPlan::new(&request(shape, &opts));
        // f32 master weights with integer values so quantization at
        // scale 1.0 is exact
        let wq = VnniFilter::random(32, 32, 3, 3, 9);
        let mut wf = BlockedFilter::zeros(32, 32, 3, 3);
        for k in 0..32 {
            for c in 0..32 {
                for r in 0..3 {
                    for s in 0..3 {
                        wf.set(k, c, r, s, wq.get(k, c, r, s) as f32);
                    }
                }
            }
        }
        let gy = VnniActs::random(1, 32, 6, 6, plan.dout_pad(), 10);
        let mut gx = BlockedI32::zeros(1, 32, 6, 6);
        plan.run(&pool, &gy, &wf, 1.0, &mut gx);

        // naive backward in int arithmetic
        let mut expect = BlockedI32::zeros(1, 32, 6, 6);
        for k in 0..32usize {
            for c in 0..32usize {
                for oj in 0..6usize {
                    for oi in 0..6usize {
                        let g = gy.get(0, k, oj, oi) as i32;
                        for r in 0..3usize {
                            for s in 0..3usize {
                                let ij = (oj + r) as isize - 1;
                                let ii = (oi + s) as isize - 1;
                                if (0..6).contains(&ij) && (0..6).contains(&ii) {
                                    let cur = expect.get(0, c, ij as usize, ii as usize);
                                    expect.set(
                                        0,
                                        c,
                                        ij as usize,
                                        ii as usize,
                                        cur + g * wq.get(k, c, r, s) as i32,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(expect.as_slice(), gx.as_slice());
    }

    #[test]
    fn quant_upd_matches_naive() {
        for shape in [
            ConvShape::new(2, 16, 32, 6, 6, 3, 3, 1, 1),
            ConvShape::new(1, 32, 16, 7, 7, 1, 1, 1, 0), // odd Q
            ConvShape::new(1, 16, 16, 8, 8, 1, 1, 2, 0),
        ] {
            let threads = 3;
            let pool = ThreadPool::new(threads);
            let plan = QuantUpdPlan::new(shape, threads);
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
