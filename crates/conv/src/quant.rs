//! Reduced-precision int16 engine (Section II-K).
//!
//! [`QuantFwdPlan`] is the int16 instantiation of the streamed engine,
//! [`StreamPlan`] over the [`I16Fwd`] kernel flavour: the one dryrun
//! records the identical offset streams (the int16 layouts are
//! element-parallel to the f32 ones); kernels are `vpdpwssd`-based; the
//! accumulation chain inside one kernel invocation is bounded by
//! `chain_limit` channel blocks (the paper's overflow guard: *"we have
//! to restrict the length of the FMA accumulation chain"*), which costs
//! extra int32 output traffic — one of the three reasons int16 stays
//! below 2×. The product serves int8 inference through it; the int16
//! weight update that `fig8` times lives in `bench_bins::int16_upd`.

use crate::backend::I16Fwd;
use crate::fuse::{apply_tile_requant, ApplyRec, FuseCtx, FusedOp};
use crate::fwd::StreamPlan;
use crate::streams::{replay_all, SendPtr};
use parallel::ThreadPool;
use tensor::vnni::BlockedI32;
use tensor::{BlockedActs, VnniActs, VnniFilter, VLEN};

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
        assert_eq!(self.fused(), FusedOp::None, "fused plans must run through run_fused");
        self.check_vnni_inputs(pool, input, weights);
        let sh = self.shape();
        assert_eq!((out.n, out.k, out.h, out.w), (sh.n, sh.k, sh.p(), sh.q()), "output mismatch");
        let (inp, wt, acc) = (input.as_ptr(), weights.as_ptr(), out.as_mut_ptr());
        // SAFETY: geometry validated; disjoint tiles per thread.
        unsafe {
            replay_all(pool, &self.streams, &self.kernels, inp, wt, acc, |_| {
                unreachable!("raw plans record no APPLY")
            })
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{blocking, LayerOptions, PlanRequest};
    use tensor::ConvShape;

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
}
