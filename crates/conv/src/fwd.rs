//! Forward-propagation engine (Algorithms 3–5).
//!
//! Setup performs the dryrun: it walks the work-item space
//! `N × Kb × Pb × Qb` (statically partitioned over threads exactly as
//! Section II-F prescribes: minibatch first, then output feature
//! blocks, then spatial tiles), generates every kernel variant the
//! tile geometry needs (main tiles, remainder tiles, first-`cb` /
//! accumulating variants — Section II-H's motivation), and records the
//! per-thread offset streams. Execution replays the streams.
//!
//! The same engine executes the *backward* pass: `bwd` builds a
//! `FwdPlan` for the dual shape (Section II-I) with, where needed, a
//! strided output geometry.

use crate::backend::{Backend, F32Fwd, Flavor, Kernel};
use crate::blocking::Blocking;
use crate::bwd::BwdKind;
use crate::fuse::{apply_tile, ApplyRec, FuseCtx, FusedOp};
use crate::layer::LayerOptions;
use crate::streams::{replay_all, SendPtr, Stream};
use microkernel::KernelShape;
use parallel::{FlatPartition, ThreadPool};
use std::collections::HashMap;
use tensor::{BlockedActs, BlockedFilter, ConvShape, VLEN};

/// Output-tensor geometry (element strides) the plan writes through.
/// The default is a dense `[N][Kb][P][Q][VLEN]` tensor; the backward
/// 1×1 duality uses strided variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutGeom {
    /// Elements between output rows.
    pub row_stride: usize,
    /// Elements between output pixels in a row.
    pub col_stride: usize,
    /// Elements between output channel blocks.
    pub kb_stride: usize,
    /// Elements between samples.
    pub n_stride: usize,
    /// Element offset of logical pixel (0, 0) of block 0, sample 0.
    pub base: usize,
}

impl OutGeom {
    /// Dense geometry for the plan's own output shape.
    pub fn dense(shape: &ConvShape) -> Self {
        Self::padded(shape, 0)
    }

    /// Geometry of an output tensor carrying `out_pad` physical zero
    /// padding on every border (`[N][Kb][P+2p][Q+2p][VLEN]`, writes
    /// land on the logical interior). Graph executors use this to let
    /// a fused convolution produce directly into a blob that a later
    /// padded convolution consumes.
    pub fn padded(shape: &ConvShape, out_pad: usize) -> Self {
        let (p, q) = (shape.p() + 2 * out_pad, shape.q() + 2 * out_pad);
        let row_stride = q * VLEN;
        Self {
            row_stride,
            col_stride: VLEN,
            kb_stride: p * q * VLEN,
            n_stride: shape.kb() * p * q * VLEN,
            base: out_pad * row_stride + out_pad * VLEN,
        }
    }
}

/// One plan request: everything a dryrun is parameterized by, derived
/// from a [`LayerOptions`] once and consumed by every plan constructor
/// (`FwdPlan`/`QuantFwdPlan`/`BwdPlan`/`UpdPlan`) of the layer.
#[derive(Clone, Copy, Debug)]
pub struct PlanRequest {
    pub(crate) shape: ConvShape,
    pub(crate) blocking: Blocking,
    pub(crate) threads: usize,
    pub(crate) backend: Backend,
    pub(crate) prefetch: bool,
    /// `FusedOp::None` builds a *raw* plan with no APPLY segments.
    pub(crate) fused: FusedOp,
    /// Physical padding of the input tensor (≥ `shape.pad`).
    pub(crate) input_pad: usize,
    /// Physical padding of the gradient-output tensor (update pass).
    pub(crate) dout_pad: usize,
    /// Physical padding of the output tensor `run` writes.
    pub(crate) out_pad: usize,
    /// Accumulation-chain bound (channel blocks) of chain-bounded
    /// flavours; ignored by the f32 ones.
    pub(crate) chain_limit: usize,
    /// Explicit output geometry (the backward duality's strided dI
    /// writes, executed through `run_raw`); overrides `out_pad`.
    pub(crate) out_geom: Option<OutGeom>,
}

impl PlanRequest {
    /// The request `opts` describes for `shape` under `blocking`:
    /// paddings default to the conv's own pad (input), the
    /// duality-optimal padding (dO) and the options' `out_pad`.
    pub fn new(shape: ConvShape, blocking: Blocking, opts: &LayerOptions) -> Self {
        let input_pad = opts.input_pad.unwrap_or(shape.pad);
        assert!(input_pad >= shape.pad, "input tensor padding below the conv's pad");
        Self {
            shape,
            blocking,
            threads: opts.threads,
            backend: opts.backend,
            prefetch: opts.prefetch,
            fused: opts.fuse,
            input_pad,
            dout_pad: opts.dout_pad.unwrap_or_else(|| BwdKind::of(&shape).dout_pad(&shape)),
            out_pad: opts.out_pad,
            chain_limit: opts.chain_limit,
            out_geom: None,
        }
    }

    /// Descriptor of the `rows × cols` tile kernel this request's
    /// dryrun calls (initializing or accumulating `cb` step).
    fn kernel_shape(
        &self,
        out_geom: &OutGeom,
        rows: usize,
        cols: usize,
        init: bool,
    ) -> KernelShape {
        let in_row = (self.shape.w + 2 * self.input_pad) * VLEN;
        KernelShape {
            rbp: rows,
            rbq: cols,
            r: self.shape.r,
            s: self.shape.s,
            stride: self.shape.stride,
            cb_inner: self.blocking.cb_inner,
            in_row_stride: in_row,
            in_cb_stride: (self.shape.h + 2 * self.input_pad) * in_row,
            out_row_stride: out_geom.row_stride,
            out_col_stride: out_geom.col_stride,
            init_zero: init,
            prefetch: self.prefetch,
        }
    }
}

/// Enumerate every [`KernelShape`] variant a forward dryrun for
/// `(shape, blocking)` can generate against a dense output and
/// `shape.pad` physical input padding: main tiles, spatial remainder
/// tiles, and the initializing/accumulating `cb`-step variants. The
/// int16 plan draws from the *same* population, so this one
/// enumeration feeds both the `verify-kernels` sweep and the verifier
/// property tests.
pub fn kernel_shape_variants(
    shape: &ConvShape,
    blocking: &Blocking,
    prefetch: bool,
) -> Vec<KernelShape> {
    let opts = LayerOptions::new(1).with_prefetch(prefetch);
    let req = PlanRequest::new(*shape, *blocking, &opts);
    let out_geom = OutGeom::dense(shape);
    let cb_steps = shape.cb() / blocking.cb_inner;
    assert_eq!(cb_steps * blocking.cb_inner, shape.cb(), "cb_inner must divide Cb");
    let (p, q) = (shape.p(), shape.q());
    let mut rows_set: Vec<usize> =
        (0..p.div_ceil(blocking.rbp)).map(|tj| (p - tj * blocking.rbp).min(blocking.rbp)).collect();
    rows_set.sort_unstable();
    rows_set.dedup();
    let mut cols_set: Vec<usize> =
        (0..q.div_ceil(blocking.rbq)).map(|ti| (q - ti * blocking.rbq).min(blocking.rbq)).collect();
    cols_set.sort_unstable();
    cols_set.dedup();
    let inits: &[bool] = if cb_steps > 1 { &[true, false] } else { &[true] };
    let mut out = Vec::new();
    for &rows in &rows_set {
        for &cols in &cols_set {
            for &init in inits {
                out.push(req.kernel_shape(&out_geom, rows, cols, init));
            }
        }
    }
    out
}

/// A fully planned streamed convolution of kernel flavour `F`: the
/// kernel variants and per-thread streams one dryrun recorded. The
/// forward pass, the backward duality and the int16 path are all
/// instances of this one type.
pub struct StreamPlan<F: Flavor<Shape = KernelShape>> {
    /// The request as planned (`blocking` chain-clamped).
    req: PlanRequest,
    pub(crate) kernels: Vec<Kernel<F>>,
    pub(crate) streams: Vec<Stream>,
    out_geom: OutGeom,
}

/// The f32 forward (or dual-backward) plan.
pub type FwdPlan = StreamPlan<F32Fwd>;

impl<F: Flavor<Shape = KernelShape>> StreamPlan<F> {
    /// Dryrun: build kernels and per-thread streams.
    pub fn new(req: &PlanRequest) -> Self {
        let mut req = *req;
        let shape = req.shape;
        if F::BOUNDED_CHAIN && req.blocking.cb_inner > req.chain_limit {
            // the overflow guard: bound the in-register reduction
            // length, keeping it a divisor of Cb so cb_steps stays
            // integral
            assert!(req.chain_limit >= 1, "chain limit must be at least one channel block");
            let mut ci = req.chain_limit;
            while !shape.cb().is_multiple_of(ci) {
                ci -= 1;
            }
            req.blocking.cb_inner = ci;
        }
        let out_geom = req.out_geom.unwrap_or_else(|| OutGeom::padded(&shape, req.out_pad));
        assert!(shape.cb().is_multiple_of(req.blocking.cb_inner), "cb_inner must divide Cb");

        let mut kernels: Vec<Kernel<F>> = Vec::new();
        let mut variant: HashMap<(usize, usize, bool), u8> = HashMap::new();
        let mut variant_for = |rows: usize, cols: usize, init: bool| -> u8 {
            *variant.entry((rows, cols, init)).or_insert_with(|| {
                let sh = req.kernel_shape(&out_geom, rows, cols, init);
                kernels.push(Kernel::cached(sh, req.backend));
                u8::try_from(kernels.len() - 1).expect("too many kernel variants")
            })
        };
        let streams = dryrun_streams(&req, &out_geom, &mut variant_for);
        Self { req, kernels, streams, out_geom }
    }

    /// The convolution shape this plan executes.
    pub fn shape(&self) -> &ConvShape {
        &self.req.shape
    }

    /// The blocking decision in effect (chain-clamped for int16) — the
    /// legality invariants of the planner hold for every flavour, and
    /// are property-tested.
    pub fn blocking(&self) -> &Blocking {
        &self.req.blocking
    }

    /// The fused op (`FusedOp::None` for raw plans).
    pub fn fused(&self) -> FusedOp {
        self.req.fused
    }

    /// Physical input padding the plan's offsets assume.
    pub fn input_pad(&self) -> usize {
        self.req.input_pad
    }

    /// Physical padding `run` expects on the output tensor.
    pub fn out_pad(&self) -> usize {
        self.req.out_pad
    }

    /// Output geometry the plan writes through.
    pub fn out_geom(&self) -> &OutGeom {
        &self.out_geom
    }

    /// Kernel variants generated by the dryrun (Section II-H's
    /// combinatorial-explosion bookkeeping, observable for tests).
    pub fn kernel_variants(&self) -> usize {
        self.kernels.len()
    }

    /// Which backend the first kernel resolved to.
    pub fn backend_name(&self) -> &'static str {
        self.kernels.first().map(|k| k.backend_name()).unwrap_or("none")
    }

    /// The recorded per-thread streams.
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    /// Total stream metadata bytes across threads.
    pub fn stream_bytes(&self) -> usize {
        self.streams.iter().map(|s| s.metadata_bytes()).sum()
    }

    /// Validate the input-side tensors of a typed `run` (logical dims
    /// and physical padding of the activations, dims of the filter).
    pub(crate) fn check_inputs(
        &self,
        pool: &ThreadPool,
        input: (usize, usize, usize, usize, usize),
        filter: (usize, usize, usize, usize),
    ) {
        let sh = &self.req.shape;
        assert_eq!(pool.nthreads(), self.req.threads, "plan was dryrun for a different team size");
        assert_eq!(input, (sh.n, sh.c, sh.h, sh.w, self.req.input_pad), "input tensor mismatch");
        assert_eq!(filter, (sh.k, sh.c, sh.r, sh.s), "filter tensor mismatch");
    }

    /// Validate the f32 output tensor and the APPLY operands of a
    /// fused run.
    pub(crate) fn check_fused_output(&self, output: &BlockedActs, ctx: &FuseCtx<'_>) {
        let (sh, fused, out_pad) = (&self.req.shape, self.req.fused, self.req.out_pad);
        assert_eq!(
            (output.n, output.c, output.h, output.w, output.pad),
            (sh.n, sh.k, sh.p(), sh.q(), out_pad),
            "output tensor mismatch"
        );
        if fused.needs_bias() {
            // the apply reads whole VLEN blocks, so the bias must cover
            // the padded channel count, not just the logical k
            assert!(
                ctx.bias.is_some_and(|b| b.len() >= sh.k.next_multiple_of(VLEN)),
                "bias missing or shorter than the padded channel count"
            );
        }
        if fused.needs_eltwise() {
            let e = ctx.eltwise.expect("eltwise tensor missing");
            assert_eq!(
                (e.n, e.cb, e.h, e.w, e.pad),
                (output.n, output.cb, output.h, output.w, out_pad),
                "eltwise tensor mismatch"
            );
        }
    }
}

impl FwdPlan {
    /// Execute into a blocked output tensor.
    pub fn run(
        &self,
        pool: &ThreadPool,
        input: &BlockedActs,
        weights: &BlockedFilter,
        output: &mut BlockedActs,
        ctx: &FuseCtx<'_>,
    ) {
        self.check_inputs(
            pool,
            (input.n, input.c, input.h, input.w, input.pad),
            (weights.k, weights.c, weights.r, weights.s),
        );
        self.check_fused_output(output, ctx);
        // SAFETY: geometry validated above; threads write disjoint tiles.
        unsafe { self.run_raw(pool, input.as_ptr(), weights.as_ptr(), output.as_mut_ptr(), ctx) }
    }

    /// Execute through raw base pointers (used by the backward duality
    /// paths, which write strided outputs).
    ///
    /// # Safety
    /// The pointers must describe tensors with exactly the geometry the
    /// plan was dryrun for; output tiles are disjoint per thread.
    pub unsafe fn run_raw(
        &self,
        pool: &ThreadPool,
        input: *const f32,
        weights: *const f32,
        output: *mut f32,
        ctx: &FuseCtx<'_>,
    ) {
        let (fused, out) = (self.req.fused, SendPtr(output));
        replay_all(pool, &self.streams, &self.kernels, input, weights, output, |rec| {
            // SAFETY: the record addresses a tile of `output` this
            // thread just finished reducing.
            unsafe { apply_tile(fused, rec, out.get(), ctx) }
        });
    }
}

/// The dryrun proper (Section II-H): walk Algorithm 4's loop nest for
/// every thread, record offsets and variants instead of calling
/// kernels. Flavour-independent — f32 and int16 use the same element
/// offsets because the blocked layouts are parallel.
fn dryrun_streams(
    req: &PlanRequest,
    out_geom: &OutGeom,
    variant_for: &mut dyn FnMut(usize, usize, bool) -> u8,
) -> Vec<Stream> {
    let PlanRequest { shape, blocking, input_pad, threads: nthreads, fused, .. } = *req;
    let (p, q) = (shape.p(), shape.q());
    let (tp, tq) = blocking.tiles(p, q);
    let cb_steps = shape.cb() / blocking.cb_inner;
    let in_row = (shape.w + 2 * input_pad) * VLEN;
    let in_cb = (shape.h + 2 * input_pad) * in_row;
    let in_n = shape.cb() * in_cb;
    // extra physical border beyond what the conv consumes
    let in_base = (input_pad - shape.pad) * (in_row + VLEN);
    let wt_cb = shape.r * shape.s * VLEN * VLEN;
    let wt_kb = shape.cb() * wt_cb;

    let part = FlatPartition::new([shape.n, shape.kb(), tp, tq]);
    let mut streams = Vec::with_capacity(nthreads);
    for tid in 0..nthreads {
        let mut s = Stream::default();
        for item in part.range(nthreads, tid) {
            let [n, kb, tj, ti] = part.unflatten(item);
            let rows = blocking.rbp.min(p - tj * blocking.rbp);
            let cols = blocking.rbq.min(q - ti * blocking.rbq);
            let oj = tj * blocking.rbp;
            let oi = ti * blocking.rbq;
            let out_off = out_geom.base
                + n * out_geom.n_stride
                + kb * out_geom.kb_stride
                + oj * out_geom.row_stride
                + oi * out_geom.col_stride;
            for cbs in 0..cb_steps {
                let cb0 = cbs * blocking.cb_inner;
                let var = variant_for(rows, cols, cbs == 0);
                let in_off = in_base
                    + n * in_n
                    + cb0 * in_cb
                    + (oj * shape.stride) * in_row
                    + (oi * shape.stride) * VLEN;
                let wt_off = kb * wt_kb + cb0 * wt_cb;
                s.push_conv(var, in_off, wt_off, out_off);
            }
            if fused != FusedOp::None {
                s.push_apply(ApplyRec {
                    out_off: u32::try_from(out_off).expect("output offset exceeds u32"),
                    kb: kb as u16,
                    rows: rows as u8,
                    cols: cols as u16,
                    row_stride: out_geom.row_stride as u32,
                });
            }
        }
        streams.push(s);
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking;
    use crate::fuse::apply_unfused;
    use crate::layer::LayerOptions;
    use crate::reference::conv_fwd_ref;
    use tensor::{Kcrs, Nchw, Norms};

    fn run_case(shape: ConvShape, fused: FusedOp, backend: Backend, threads: usize) {
        let pool = ThreadPool::new(threads);
        let b = blocking::choose(&shape);
        let opts = LayerOptions::new(threads).with_backend(backend).with_fuse(fused);
        let plan = FwdPlan::new(&PlanRequest::new(shape, b, &opts));

        let x = Nchw::random(shape.n, shape.c, shape.h, shape.w, 1);
        let w = Kcrs::random(shape.k, shape.c, shape.r, shape.s, 2);
        let xb = BlockedActs::from_nchw(&x, shape.pad);
        let wb = BlockedFilter::from_kcrs(&w);
        let mut yb = BlockedActs::zeros(shape.n, shape.k, shape.p(), shape.q(), 0);

        let bias: Vec<f32> = (0..shape.k.next_multiple_of(VLEN)).map(|i| i as f32 * 0.01).collect();
        let residual = BlockedActs::random(shape.n, shape.k, shape.p(), shape.q(), 0, 77);
        let ctx = FuseCtx {
            bias: fused.needs_bias().then_some(&bias[..]),
            eltwise: fused.needs_eltwise().then_some(&residual),
        };
        plan.run(&pool, &xb, &wb, &mut yb, &ctx);

        // reference: naive conv + unfused op
        let mut y_ref = Nchw::zeros(shape.n, shape.k, shape.p(), shape.q());
        conv_fwd_ref(&shape, &x, &w, &mut y_ref);
        let mut y_ref_b = BlockedActs::from_nchw(&y_ref, 0);
        apply_unfused(fused, &mut y_ref_b, &ctx);

        let n = Norms::compare(y_ref_b.as_slice(), yb.as_slice());
        assert!(n.ok(1e-4), "{shape} fused={fused:?} backend={backend:?}: {n}");
    }

    #[test]
    fn one_by_one_layers() {
        run_case(ConvShape::new(2, 32, 48, 8, 8, 1, 1, 1, 0), FusedOp::None, Backend::Auto, 4);
        run_case(ConvShape::new(2, 64, 32, 8, 8, 1, 1, 2, 0), FusedOp::None, Backend::Auto, 4);
    }

    #[test]
    fn three_by_three_layers() {
        run_case(ConvShape::new(2, 32, 32, 8, 8, 3, 3, 1, 1), FusedOp::None, Backend::Auto, 4);
        run_case(ConvShape::new(1, 16, 16, 10, 10, 3, 3, 2, 1), FusedOp::None, Backend::Auto, 2);
    }

    #[test]
    fn first_conv_7x7_with_channel_padding() {
        // C=3 is zero-padded into one block
        run_case(ConvShape::new(1, 3, 32, 20, 20, 7, 7, 2, 3), FusedOp::None, Backend::Auto, 3);
    }

    #[test]
    fn fused_operators() {
        let s = ConvShape::new(1, 32, 32, 8, 8, 3, 3, 1, 1);
        for f in [
            FusedOp::Bias,
            FusedOp::Relu,
            FusedOp::BiasRelu,
            FusedOp::Eltwise,
            FusedOp::EltwiseRelu,
        ] {
            run_case(s, f, Backend::Auto, 4);
        }
    }

    #[test]
    fn backends_agree_on_full_layer() {
        let s = ConvShape::new(2, 32, 32, 14, 14, 3, 3, 1, 1);
        run_case(s, FusedOp::None, Backend::Scalar, 2);
        run_case(s, FusedOp::None, Backend::Auto, 2);
    }

    #[test]
    fn remainder_tiles() {
        // Q=10 with rbq from policy (10 ≤ 28 ⇒ rbq=10), P=10; force
        // remainder by overriding blocking
        let shape = ConvShape::new(1, 32, 16, 10, 10, 3, 3, 1, 1);
        let b = Blocking { rbp: 2, rbq: 7, cb_inner: 1, upd_bp: 4, upd_bq: 10 };
        let pool = ThreadPool::new(3);
        let opts = LayerOptions::new(3).with_prefetch(false);
        let plan = FwdPlan::new(&PlanRequest::new(shape, b, &opts));
        // (main, remainder) × (first-cb init, accumulate) = 4 variants
        assert_eq!(plan.kernel_variants(), 4, "main + remainder variants expected");
        let x = Nchw::random(1, 32, 10, 10, 5);
        let w = Kcrs::random(16, 32, 3, 3, 6);
        let xb = BlockedActs::from_nchw(&x, 1);
        let wb = BlockedFilter::from_kcrs(&w);
        let mut yb = BlockedActs::zeros(1, 16, 10, 10, 0);
        plan.run(&pool, &xb, &wb, &mut yb, &FuseCtx::default());
        let mut y_ref = Nchw::zeros(1, 16, 10, 10);
        conv_fwd_ref(&shape, &x, &w, &mut y_ref);
        let n = Norms::compare(BlockedActs::from_nchw(&y_ref, 0).as_slice(), yb.as_slice());
        assert!(n.ok(1e-4), "{n}");
    }

    #[test]
    fn padded_output_matches_dense_and_keeps_border_zero() {
        // the same conv written into a pad-2 output tensor must hold
        // the dense results on its logical interior and leave the
        // physical border untouched (zero) — the invariant downstream
        // padded consumers rely on
        let shape = ConvShape::new(2, 32, 32, 8, 8, 3, 3, 1, 1);
        let threads = 3;
        let pool = ThreadPool::new(threads);
        let b = blocking::choose(&shape);
        let x = Nchw::random(2, 32, 8, 8, 31);
        let w = Kcrs::random(32, 32, 3, 3, 32);
        let xb = BlockedActs::from_nchw(&x, 1);
        let wb = BlockedFilter::from_kcrs(&w);
        let bias: Vec<f32> = (0..32).map(|i| 0.02 * i as f32 - 0.3).collect();
        let residual = BlockedActs::random(2, 32, 8, 8, 2, 33);

        let opts = LayerOptions::new(threads);
        let dense = FwdPlan::new(&PlanRequest::new(shape, b, &opts));
        let mut y_dense = BlockedActs::zeros(2, 32, 8, 8, 0);
        dense.run(&pool, &xb, &wb, &mut y_dense, &FuseCtx::default());

        for fused in [FusedOp::None, FusedOp::BiasEltwiseRelu] {
            let padded = FwdPlan::new(&PlanRequest::new(
                shape,
                b,
                &opts.clone().with_fuse(fused).with_out_pad(2),
            ));
            assert_eq!(padded.out_pad(), 2);
            let mut y_pad = BlockedActs::zeros(2, 32, 8, 8, 2);
            let ctx = FuseCtx {
                bias: fused.needs_bias().then_some(&bias[..]),
                eltwise: fused.needs_eltwise().then_some(&residual),
            };
            padded.run(&pool, &xb, &wb, &mut y_pad, &ctx);
            for n in 0..2 {
                #[allow(clippy::needless_range_loop)]
                for k in 0..32 {
                    for h in 0..8 {
                        for wd in 0..8 {
                            let mut want = y_dense.get(n, k, h, wd);
                            if fused == FusedOp::BiasEltwiseRelu {
                                want = (want + bias[k] + residual.get(n, k, h, wd)).max(0.0);
                            }
                            assert_eq!(y_pad.get(n, k, h, wd), want, "{fused:?} interior");
                        }
                    }
                }
                // the physical border must still be all zeros
                for kb in 0..y_pad.cb {
                    for wp in 0..y_pad.wp() {
                        let off = y_pad.pix_offset_logical(n, kb, -2, wp as isize - 2);
                        for v in 0..VLEN {
                            assert_eq!(y_pad.as_slice()[off + v], 0.0, "{fused:?} border");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let shape = ConvShape::new(3, 32, 32, 8, 8, 3, 3, 1, 1);
        let x = Nchw::random(3, 32, 8, 8, 9);
        let w = Kcrs::random(32, 32, 3, 3, 10);
        let xb = BlockedActs::from_nchw(&x, 1);
        let wb = BlockedFilter::from_kcrs(&w);
        let mut outs = Vec::new();
        for threads in [1usize, 2, 5, 8] {
            let pool = ThreadPool::new(threads);
            let b = blocking::choose(&shape);
            let opts = LayerOptions::new(threads).with_prefetch(false);
            let plan = FwdPlan::new(&PlanRequest::new(shape, b, &opts));
            let mut yb = BlockedActs::zeros(3, 32, 8, 8, 0);
            plan.run(&pool, &xb, &wb, &mut yb, &FuseCtx::default());
            outs.push(yb.as_slice().to_vec());
        }
        for o in &outs[1..] {
            assert_eq!(&outs[0], o, "results must be identical across team sizes");
        }
    }

    #[test]
    fn stream_metadata_is_compact() {
        let shape = ConvShape::new(4, 64, 64, 28, 28, 3, 3, 1, 1);
        let b = blocking::choose(&shape);
        let opts = LayerOptions::new(8).with_backend(Backend::Scalar).with_fuse(FusedOp::Relu);
        let plan = FwdPlan::new(&PlanRequest::new(shape, b, &opts));
        // 4·4·(28/rbp·28/28)·Cb convs; metadata ≈ 13B per conv
        let convs: usize = (0..8).map(|_| 0).len(); // silence clippy
        let _ = convs;
        assert!(plan.stream_bytes() < 512 * 1024, "{} bytes", plan.stream_bytes());
        assert!(plan.kernel_variants() <= 4);
    }
}
