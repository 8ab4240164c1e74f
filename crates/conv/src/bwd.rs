//! Backward propagation (Section II-I).
//!
//! Three paths, chosen at setup:
//!
//! 1. **stride = 1 duality**: transform the weights
//!    (`W'[c][k][r'][s'] = W[k][c][R−1−r'][S−1−s']`) and run the
//!    *forward* engine on the dual shape — dO (physically padded by
//!    `R−1−pad`) plays the input, dI the output. This is the paper's
//!    headline trick for halving the number of code generators.
//! 2. **R = S = 1 duality**: dI is only written at stride-multiple
//!    pixels; the forward engine runs on the dual 1×1 shape with a
//!    *strided output geometry* (`out_col_stride = stride·VLEN`) into
//!    a pre-zeroed dI.
//! 3. **generic fallback** (strided spatial filters): Algorithm 7 —
//!    a loop nest of small GEMMs (`M = Q`, `K = N = VLEN`) against the
//!    transposed/flipped weight panels, parallelized over `(n, cb)` so
//!    dI accumulation never races.

use crate::blocking;
use crate::fuse::{FuseCtx, FusedOp};
use crate::fwd::{FwdPlan, OutGeom, PlanRequest};
use crate::streams::SendPtr;
use parallel::{FlatPartition, ThreadPool};
use smallgemm::SmallGemm;
use std::sync::Mutex;
use tensor::{BlockedActs, BlockedFilter, ConvShape, VLEN};

/// Which backward strategy a layer uses (observable for tests/benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BwdKind {
    /// Forward engine on the transposed/flipped weights (stride 1).
    DualStride1,
    /// Forward engine with strided output writes (1×1, any stride).
    Dual1x1,
    /// Algorithm 7 small-GEMM loop nest.
    GemmFallback,
}

impl BwdKind {
    /// The strategy `shape` takes.
    pub(crate) fn of(shape: &ConvShape) -> Self {
        // the transpose-flip duality needs per-dimension dual padding
        // (r−1−pad_h, s−1−pad_w); with a single symmetric pad it is
        // only available for square filters — asymmetric (1×7 / 7×1)
        // Inception factorizations take the Algorithm 7 fallback
        if shape.r == 1 && shape.s == 1 && shape.stride > 1 {
            BwdKind::Dual1x1
        } else if shape.stride == 1 && shape.r == shape.s && shape.r > shape.pad {
            BwdKind::DualStride1
        } else {
            BwdKind::GemmFallback
        }
    }

    /// Physical padding this strategy needs on the dO tensor.
    pub(crate) fn dout_pad(self, shape: &ConvShape) -> usize {
        match self {
            BwdKind::DualStride1 => shape.r - 1 - shape.pad,
            _ => 0,
        }
    }
}

/// The duality transform (Section II-I) of the backward plan: the
/// forward request on the dual shape — dO (physically padded by
/// `R−1−pad`) plays the input and the dual output is written through
/// dI's geometry (`req.input_pad` physical padding), at stride-multiple
/// pixels for the strided 1×1 duality.
/// `None` for shapes that take the Algorithm 7 fallback.
pub(crate) fn dual_request(req: &PlanRequest) -> Option<PlanRequest> {
    let (sh, pad) = (req.shape, req.input_pad);
    let kind = BwdKind::of(&sh);
    if kind == BwdKind::GemmFallback {
        return None;
    }
    if kind == BwdKind::Dual1x1 {
        assert_eq!(sh.pad, 0, "1x1 layers carry no padding");
    }
    let dual = ConvShape::new(sh.n, sh.k, sh.c, sh.p(), sh.q(), sh.r, sh.s, 1, kind.dout_pad(&sh));
    debug_assert!(kind != BwdKind::DualStride1 || (dual.p(), dual.q()) == (sh.h, sh.w));
    // pixel (oj, oi) of the dual output lands at dI[stride·oj][stride·oi]
    let di_row = (sh.w + 2 * pad) * VLEN;
    let di_cb = (sh.h + 2 * pad) * di_row;
    let out_geom = OutGeom {
        row_stride: sh.stride * di_row,
        col_stride: sh.stride * VLEN,
        kb_stride: di_cb,
        n_stride: sh.cb() * di_cb,
        base: pad * (di_row + VLEN),
    };
    Some(PlanRequest {
        shape: dual,
        blocking: blocking::choose(&dual),
        fused: FusedOp::None,
        input_pad: dual.pad,
        out_pad: 0,
        out_geom: Some(out_geom),
        ..*req
    })
}

/// Planned backward pass.
pub struct BwdPlan {
    shape: ConvShape,
    kind: BwdKind,
    /// Forward plan on the dual shape (duality paths).
    dual: Option<FwdPlan>,
    /// GEMM handle for the fallback path.
    gemm: Option<SmallGemm>,
    nthreads: usize,
    /// Physical padding of the dI tensor the plan writes.
    input_pad: usize,
    /// Reusable dO re-padding buffer for callers whose gradient tensor
    /// does not carry [`Self::dout_pad`] physical padding. Held by the
    /// plan so steady-state `run` calls stop allocating; taken out of
    /// the mutex for the duration of a call, so concurrent runs of a
    /// shared plan fall back to a fresh allocation instead of blocking.
    repad_scratch: Mutex<Option<BlockedActs>>,
}

impl BwdPlan {
    /// Choose the strategy and dryrun the dual plan; dI is written
    /// into a tensor carrying the request's `input_pad`.
    pub fn new(req: &PlanRequest) -> Self {
        let shape = req.shape;
        let dual = dual_request(req).map(|d| FwdPlan::new(&d));
        // the fallback: C[Q×VLEN] += A[Q×VLEN] · B[VLEN×VLEN]; C rows
        // are dI pixels strided by stride·VLEN
        let gemm = dual
            .is_none()
            .then(|| SmallGemm::new(shape.q(), VLEN, VLEN, VLEN, VLEN, shape.stride * VLEN, true));
        Self {
            shape,
            kind: BwdKind::of(&shape),
            dual,
            gemm,
            nthreads: req.threads,
            input_pad: req.input_pad,
            repad_scratch: Mutex::new(None),
        }
    }

    /// Strategy in effect.
    pub fn kind(&self) -> BwdKind {
        self.kind
    }

    /// Which backend the dual plan's kernels resolved to; `None` on
    /// the Algorithm 7 fallback, which generates none.
    pub(crate) fn backend_name(&self) -> Option<&'static str> {
        self.dual.as_ref().map(|d| d.backend_name())
    }

    /// Physical padding the dual path needs on the dO tensor (callers
    /// allocating gradient buffers with this padding avoid a copy).
    pub fn dout_pad(&self) -> usize {
        self.kind.dout_pad(&self.shape)
    }

    /// Execute: `dinput = conv_bwd(dout, weights)`.
    ///
    /// `dout` must carry at least [`Self::dout_pad`] physical padding
    /// (a padded scratch copy is made otherwise). `dinput` must have
    /// the layer's input geometry (same `pad` as the forward input).
    pub fn run(
        &self,
        pool: &ThreadPool,
        dout: &BlockedActs,
        weights: &BlockedFilter,
        dinput: &mut BlockedActs,
    ) {
        assert_eq!(pool.nthreads(), self.nthreads);
        let sh = &self.shape;
        assert_eq!((dout.n, dout.c, dout.h, dout.w), (sh.n, sh.k, sh.p(), sh.q()), "dout mismatch");
        assert_eq!(
            (dinput.n, dinput.c, dinput.h, dinput.w, dinput.pad),
            (sh.n, sh.c, sh.h, sh.w, self.input_pad),
            "dinput mismatch"
        );
        // every path needs dout at exactly `dout_pad()` physical
        // padding (0 for the non-DualStride1 kinds); mismatched
        // callers go through the plan's reusable re-padding buffer
        let need = self.dout_pad();
        let scratch = (dout.pad != need).then(|| self.repad_to_scratch(pool, dout, need));
        let src = scratch.as_ref().unwrap_or(dout);
        match &self.dual {
            Some(dual) => {
                let wt = weights.transpose_flip();
                if self.kind == BwdKind::Dual1x1 {
                    // strided writes leave the other pixels untouched
                    dinput.zero();
                }
                // SAFETY: the dual plan's geometry matches these
                // tensors; its out-geom targets dinput's interior.
                unsafe {
                    dual.run_raw(
                        pool,
                        src.as_ptr(),
                        wt.as_ptr(),
                        dinput.as_mut_ptr(),
                        &FuseCtx::default(),
                    )
                };
            }
            None => self.run_gemm(pool, src, weights, dinput),
        }
        if let Some(buf) = scratch {
            *self.repad_scratch.lock().unwrap() = Some(buf);
        }
    }

    /// Copy `src` into the plan's re-padding buffer (allocating it on
    /// first use or when a concurrent run holds it) and return it.
    fn repad_to_scratch(&self, pool: &ThreadPool, src: &BlockedActs, pad: usize) -> BlockedActs {
        let taken = self.repad_scratch.lock().unwrap().take();
        let mut dst = match taken {
            Some(b) if (b.n, b.c, b.h, b.w, b.pad) == (src.n, src.c, src.h, src.w, pad) => b,
            _ => BlockedActs::zeros(src.n, src.c, src.h, src.w, pad),
        };
        repad_into(pool, src, &mut dst);
        dst
    }

    /// Algorithm 7: backward with small GEMM calls.
    fn run_gemm(
        &self,
        pool: &ThreadPool,
        dout: &BlockedActs,
        weights: &BlockedFilter,
        dinput: &mut BlockedActs,
    ) {
        let sh = self.shape;
        let wt = weights.transpose_flip(); // W'[cb][kb][·][·][c'][k']
        dinput.zero();
        let gemm = self.gemm.as_ref().unwrap();
        let p_dim = sh.p();
        let part = FlatPartition::new([sh.n, sh.cb(), 1, 1]);
        let di = SendPtr(dinput.as_mut_ptr());
        let go = SendPtr::new(dout.as_ptr());
        let wt_ref = &wt;
        let di_row = dinput.stride_h();
        let di_cb = dinput.stride_cb();
        let di_n = dinput.stride_n();
        let di_base = (self.input_pad - sh.pad) * (di_row + VLEN);
        let do_row = dout.stride_h();
        let do_kb = dout.stride_cb();
        let do_n = dout.stride_n();
        pool.run(move |ctx| {
            for item in part.range(ctx.nthreads, ctx.tid) {
                let [n, cb, _, _] = part.unflatten(item);
                for kb in 0..sh.kb() {
                    for oj in 0..p_dim {
                        let ij = sh.stride * oj; // physical dI row base
                        for r in 0..sh.r {
                            for s in 0..sh.s {
                                // A: dO row (Q × VLEN)
                                let a_off = n * do_n + kb * do_kb + oj * do_row;
                                // B: W' panel, Alg 7 line 10 indexing
                                let b_off = wt_ref.panel_offset(cb, kb, sh.r - 1 - r, sh.s - 1 - s);
                                // C: dI pixels [ij + r][s + stride·oi]
                                let c_off =
                                    di_base + n * di_n + cb * di_cb + (ij + r) * di_row + s * VLEN;
                                // SAFETY: offsets in-bounds by construction;
                                // (n, cb) ownership keeps C writes disjoint.
                                unsafe {
                                    gemm.run_ptr(
                                        go.get().add(a_off),
                                        wt_ref.as_ptr().add(b_off),
                                        di.get().add(c_off),
                                    )
                                };
                            }
                        }
                    }
                }
            }
        });
        // Gradients written into the physical padding border are
        // gradients w.r.t. zero-padding — discard them to keep the
        // border invariant (border == 0) for downstream consumers.
        zero_border(dinput);
    }
}

/// Copy `src`'s logical interior into `dst`, which carries different
/// physical padding. Only interior rows are written, so a zero border
/// stays zero across reuses of the same destination buffer.
pub(crate) fn repad_into(pool: &ThreadPool, src: &BlockedActs, dst: &mut BlockedActs) {
    assert_eq!((dst.n, dst.c, dst.h, dst.w), (src.n, src.c, src.h, src.w), "repad geometry");
    let pad = dst.pad;
    let rows_total = src.n * src.cb * src.h;
    let dptr = SendPtr(dst.as_mut_ptr());
    let wp_new = src.w + 2 * pad;
    let hp_new = src.h + 2 * pad;
    pool.run(|ctx| {
        for row in ctx.chunk(rows_total) {
            let (ncb, h) = (row / src.h, row % src.h);
            let (n, cb) = (ncb / src.cb, ncb % src.cb);
            let s_off = src.pix_offset_logical(n, cb, h as isize, 0);
            let d_off = ((n * src.cb + cb) * hp_new + h + pad) * wp_new * VLEN + pad * VLEN;
            // SAFETY: disjoint destination rows per iteration.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    src.as_ptr().add(s_off),
                    dptr.get().add(d_off),
                    src.w * VLEN,
                );
            }
        }
    });
}

/// Zero the physical padding border of a tensor.
fn zero_border(t: &mut BlockedActs) {
    if t.pad == 0 {
        return;
    }
    let (pad, w, cb_count, n_count) = (t.pad, t.w, t.cb, t.n);
    let (hp, wp) = (t.hp(), t.wp());
    let (row, cbs) = (t.stride_h(), t.stride_cb());
    let data = t.as_mut_slice();
    for n in 0..n_count {
        for cb in 0..cb_count {
            let base = (n * cb_count + cb) * cbs;
            for h in 0..hp {
                if h < pad || h >= hp - pad {
                    data[base + h * row..base + (h + 1) * row].fill(0.0);
                } else {
                    data[base + h * row..base + h * row + pad * VLEN].fill(0.0);
                    let right = base + h * row + (pad + w) * VLEN;
                    data[right..right + (wp - w - pad) * VLEN].fill(0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerOptions;

    fn plan(shape: ConvShape, threads: usize) -> BwdPlan {
        let opts = LayerOptions::new(threads).with_prefetch(false);
        BwdPlan::new(&PlanRequest::new(shape, blocking::choose(&shape), &opts))
    }
    use crate::reference::conv_bwd_ref;
    use tensor::{Kcrs, Nchw, Norms};

    fn run_case(shape: ConvShape, threads: usize) -> BwdKind {
        let pool = ThreadPool::new(threads);
        let plan = plan(shape, threads);

        let gy = Nchw::random(shape.n, shape.k, shape.p(), shape.q(), 3);
        let w = Kcrs::random(shape.k, shape.c, shape.r, shape.s, 4);
        let gyb = BlockedActs::from_nchw(&gy, plan.dout_pad());
        let wb = BlockedFilter::from_kcrs(&w);
        let mut gxb = BlockedActs::zeros(shape.n, shape.c, shape.h, shape.w, shape.pad);
        plan.run(&pool, &gyb, &wb, &mut gxb);

        let mut gx_ref = Nchw::zeros(shape.n, shape.c, shape.h, shape.w);
        conv_bwd_ref(&shape, &gy, &w, &mut gx_ref);
        let n = Norms::compare(gx_ref.as_slice(), gxb.to_nchw().as_slice());
        assert!(n.ok(1e-4), "{shape}: {n}");
        plan.kind()
    }

    #[test]
    fn stride1_3x3_uses_duality() {
        let k = run_case(ConvShape::new(2, 32, 32, 8, 8, 3, 3, 1, 1), 4);
        assert_eq!(k, BwdKind::DualStride1);
    }

    #[test]
    fn stride1_1x1_uses_duality() {
        let k = run_case(ConvShape::new(2, 32, 48, 8, 8, 1, 1, 1, 0), 4);
        assert_eq!(k, BwdKind::DualStride1);
    }

    #[test]
    fn stride1_7x7_pad3() {
        let k = run_case(ConvShape::new(1, 16, 16, 12, 12, 7, 7, 1, 3), 2);
        assert_eq!(k, BwdKind::DualStride1);
    }

    #[test]
    fn strided_1x1_uses_strided_writes() {
        let k = run_case(ConvShape::new(2, 32, 48, 8, 8, 1, 1, 2, 0), 3);
        assert_eq!(k, BwdKind::Dual1x1);
        // odd input extent: last row/col receives no gradient
        let k = run_case(ConvShape::new(1, 16, 16, 9, 9, 1, 1, 2, 0), 2);
        assert_eq!(k, BwdKind::Dual1x1);
    }

    #[test]
    fn strided_spatial_uses_gemm_fallback() {
        let k = run_case(ConvShape::new(1, 16, 32, 10, 10, 3, 3, 2, 1), 4);
        assert_eq!(k, BwdKind::GemmFallback);
        // the 7x7/stride-2 first conv (small version)
        let k = run_case(ConvShape::new(1, 3, 16, 20, 20, 7, 7, 2, 3), 2);
        assert_eq!(k, BwdKind::GemmFallback);
    }

    #[test]
    fn dout_without_padding_takes_copy_path() {
        let shape = ConvShape::new(1, 16, 16, 8, 8, 3, 3, 1, 1);
        let pool = ThreadPool::new(2);
        let plan = plan(shape, 2);
        assert_eq!(plan.dout_pad(), 1); // R−1−pad = 3−1−1
        let gy = Nchw::random(1, 16, 8, 8, 3);
        let w = Kcrs::random(16, 16, 3, 3, 4);
        let gyb = BlockedActs::from_nchw(&gy, 0); // *no* padding
        let wb = BlockedFilter::from_kcrs(&w);
        let mut gxb = BlockedActs::zeros(1, 16, 8, 8, 1);
        plan.run(&pool, &gyb, &wb, &mut gxb);
        let mut gx_ref = Nchw::zeros(1, 16, 8, 8);
        conv_bwd_ref(&shape, &gy, &w, &mut gx_ref);
        let n = Norms::compare(gx_ref.as_slice(), gxb.to_nchw().as_slice());
        assert!(n.ok(1e-4), "{n}");
    }

    #[test]
    fn repad_scratch_is_reused_across_calls() {
        let shape = ConvShape::new(1, 16, 16, 8, 8, 3, 3, 1, 1);
        let pool = ThreadPool::new(2);
        let plan = plan(shape, 2);
        assert!(plan.dout_pad() > 0);
        let gy = Nchw::random(1, 16, 8, 8, 3);
        let w = Kcrs::random(16, 16, 3, 3, 4);
        let gyb = BlockedActs::from_nchw(&gy, 0); // forces the repad path
        let wb = BlockedFilter::from_kcrs(&w);
        let mut gxb = BlockedActs::zeros(1, 16, 8, 8, 1);
        plan.run(&pool, &gyb, &wb, &mut gxb);
        let first = plan.repad_scratch.lock().unwrap().as_ref().map(|b| b.as_ptr()).unwrap();
        let out1 = gxb.as_slice().to_vec();
        plan.run(&pool, &gyb, &wb, &mut gxb);
        let second = plan.repad_scratch.lock().unwrap().as_ref().map(|b| b.as_ptr()).unwrap();
        assert_eq!(first, second, "steady-state backward must reuse the plan's buffer");
        assert_eq!(out1, gxb.as_slice(), "reused scratch must not change results");
    }

    #[test]
    fn border_stays_zero_after_gemm_fallback() {
        let shape = ConvShape::new(1, 16, 16, 10, 10, 3, 3, 2, 1);
        let pool = ThreadPool::new(2);
        let plan = plan(shape, 2);
        let gy = Nchw::random(1, 16, shape.p(), shape.q(), 3);
        let w = Kcrs::random(16, 16, 3, 3, 4);
        let gyb = BlockedActs::from_nchw(&gy, 0);
        let wb = BlockedFilter::from_kcrs(&w);
        let mut gxb = BlockedActs::zeros(1, 16, 10, 10, 1);
        plan.run(&pool, &gyb, &wb, &mut gxb);
        for wcol in 0..gxb.wp() {
            let off = gxb.pix_offset_logical(0, 0, -1, wcol as isize - 1);
            for v in 0..VLEN {
                assert_eq!(gxb.as_slice()[off + v], 0.0);
            }
        }
    }
}
