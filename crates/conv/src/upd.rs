//! Weight-gradient update engine (Algorithms 8–9, Section II-J).
//!
//! The parallelization space is a single knob: the number of partial
//! weight-gradient copies `G`:
//!
//! * `G = 1` — the paper's first extreme: one dW tensor, threads split
//!   the `R × S × Kb × Cb` task space, no reduction, but every thread
//!   re-reads activation tensors;
//! * `G = T` — the paper's second extreme: per-thread copies over the
//!   minibatch split, minimal activation traffic, but a `(T+1)·|dW|`
//!   reduction;
//! * `1 < G < T` — the hybrid family: `G` groups each own a copy and a
//!   minibatch shard; members of a group split the task space.
//!
//! [`choose_copies`] evaluates the paper's bandwidth model over the
//! divisors of `T` at dryrun time ("during the dryrun phase of the
//! weight gradient update propagation we decide on which
//! parallelization strategy to use"). The compute kernel is the
//! `VLEN × VLEN`-panel microkernel of Algorithm 9 with the spatial
//! `BP × BQ` blocking from [`crate::blocking`].

use crate::backend::UpdKernel;
use crate::blocking::Blocking;
use crate::fwd::PlanRequest;
use crate::streams::SendPtr;
use machine::MachineModel;
use microkernel::UpdShape;
use parallel::{split_even, ThreadPool};
use std::collections::HashMap;
use std::sync::Mutex;
use tensor::{AVec, BlockedActs, BlockedFilter, ConvShape, VLEN};

/// Planned weight-gradient pass.
pub struct UpdPlan {
    shape: ConvShape,
    /// Partial-copy count (`1 ⇒` feature split, `T ⇒` per-thread).
    copies: usize,
    /// Kernel variants keyed by tile rows (main + remainder).
    kernels: Vec<UpdKernel>,
    variant_of_rows: HashMap<usize, usize>,
    bp: usize,
    nthreads: usize,
    /// Physical padding expected on the dO tensor.
    dout_pad: usize,
    /// Physical padding expected on the input tensor.
    input_pad: usize,
    /// Reusable partial-copy buffer (`G·|dW|` floats when `G > 1`),
    /// held by the plan so steady-state `run` calls stop allocating.
    /// Taken out of the mutex for a call's duration; concurrent runs
    /// of a shared plan fall back to a fresh allocation.
    copy_scratch: Mutex<Option<AVec<f32>>>,
}

/// Bandwidth model of Section II-J: approximate bytes moved for a
/// strategy with `g` copies on `t` threads.
pub fn strategy_bytes(shape: &ConvShape, t: usize, g: usize) -> f64 {
    let members = (t / g).max(1);
    // factorize members over (Kb, Cb) as evenly as possible
    let mk = members.min(shape.kb());
    let mc = members.div_ceil(mk).min(shape.cb());
    let in_bytes = (shape.n * shape.c * shape.h * shape.w * 4) as f64;
    let do_bytes = (shape.n * shape.k * shape.p() * shape.q() * 4) as f64;
    let w_bytes = (shape.k * shape.c * shape.r * shape.s * 4) as f64;
    // every member that owns tasks with a given cb re-reads that input
    // slice; dually for kb and dO
    mk as f64 * in_bytes + mc as f64 * do_bytes + (g as f64 + 1.0) * 2.0 * w_bytes
}

/// Pick the copy count minimizing modelled traffic (divisors of `t`),
/// requiring enough tasks to keep group members busy.
pub fn choose_copies(shape: &ConvShape, t: usize, _machine: &MachineModel) -> usize {
    let tasks = shape.kb() * shape.cb() * shape.r * shape.s;
    let mut best = (f64::INFINITY, t);
    for g in 1..=t {
        if !t.is_multiple_of(g) {
            continue;
        }
        let members = t / g;
        if tasks < members {
            continue; // group members would idle
        }
        let bytes = strategy_bytes(shape, t, g);
        if bytes < best.0 {
            best = (bytes, g);
        }
    }
    best.1
}

/// The [`UpdShape`] variants an update dryrun generates for tensors
/// carrying `input_pad` / `dout_pad` physical padding: the main
/// `upd_bp`-row tile and the spatial remainder.
fn upd_shapes(
    shape: &ConvShape,
    blocking: &Blocking,
    input_pad: usize,
    dout_pad: usize,
    prefetch: bool,
) -> Vec<UpdShape> {
    let p = shape.p();
    let mut rows = vec![blocking.upd_bp.min(p)];
    if !p.is_multiple_of(blocking.upd_bp) {
        rows.push(p % blocking.upd_bp);
    }
    rows.sort_unstable();
    rows.dedup();
    rows.into_iter()
        .map(|bp| UpdShape {
            bp,
            bq: shape.q(),
            stride: shape.stride,
            in_row_stride: (shape.w + 2 * input_pad) * VLEN,
            do_row_stride: (shape.q() + 2 * dout_pad) * VLEN,
            prefetch,
        })
        .collect()
}

/// Enumerate every [`UpdShape`] variant an update dryrun for
/// `(shape, blocking)` can generate (unpadded dO, `shape.pad` physical
/// input padding). Counterpart of [`crate::fwd::kernel_shape_variants`]
/// for the `verify-kernels` sweep and the verifier property tests.
pub fn upd_shape_variants(shape: &ConvShape, blocking: &Blocking, prefetch: bool) -> Vec<UpdShape> {
    upd_shapes(shape, blocking, shape.pad, 0, prefetch)
}

impl UpdPlan {
    /// Dryrun: choose strategy, generate kernels. Input and dO carry
    /// the request's `input_pad` / `dout_pad` physical padding.
    pub fn new(req: &PlanRequest, machine: &MachineModel) -> Self {
        let PlanRequest { shape, blocking, input_pad, dout_pad, .. } = *req;
        assert_eq!(blocking.upd_bq, shape.q(), "update kernels sweep full rows");
        let shapes = upd_shapes(&shape, &blocking, input_pad, dout_pad, req.prefetch);
        let variant_of_rows = shapes.iter().enumerate().map(|(i, sh)| (sh.bp, i)).collect();
        let kernels = shapes.into_iter().map(|sh| UpdKernel::cached(sh, req.backend)).collect();
        Self {
            shape,
            copies: choose_copies(&shape, req.threads, machine),
            kernels,
            variant_of_rows,
            bp: blocking.upd_bp,
            nthreads: req.threads,
            dout_pad,
            input_pad,
            copy_scratch: Mutex::new(None),
        }
    }

    /// As [`UpdPlan::new`] but with the copy count forced (ablations).
    pub fn with_forced_copies(req: &PlanRequest, machine: &MachineModel, copies: usize) -> Self {
        assert!(copies >= 1 && req.threads.is_multiple_of(copies), "copies must divide the team");
        Self { copies, ..Self::new(req, machine) }
    }

    /// The chosen number of partial dW copies.
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// Which backend the first kernel resolved to.
    pub(crate) fn backend_name(&self) -> &'static str {
        self.kernels[0].backend_name()
    }

    /// Execute: `dweights = conv_upd(input, dout)` (overwrites).
    pub fn run(
        &self,
        pool: &ThreadPool,
        input: &BlockedActs,
        dout: &BlockedActs,
        dweights: &mut BlockedFilter,
    ) {
        assert_eq!(pool.nthreads(), self.nthreads);
        let sh = &self.shape;
        assert_eq!(
            (input.n, input.c, input.h, input.w, input.pad),
            (sh.n, sh.c, sh.h, sh.w, self.input_pad),
            "input mismatch"
        );
        assert_eq!(
            (dout.n, dout.c, dout.h, dout.w, dout.pad),
            (sh.n, sh.k, sh.p(), sh.q(), self.dout_pad),
            "dout mismatch"
        );
        assert_eq!(
            (dweights.k, dweights.c, dweights.r, dweights.s),
            (sh.k, sh.c, sh.r, sh.s),
            "dweights mismatch"
        );
        dweights.zero();

        let g = self.copies;
        let t = self.nthreads;
        let members = t / g;
        let wlen = dweights.as_slice().len();
        // partial copies, reused across calls (re-zeroed in-region
        // below); G == 1 accumulates into dW directly with no scratch
        let slen = if g > 1 { g * wlen } else { 0 };
        let taken = self.copy_scratch.lock().unwrap().take();
        let mut scratch: AVec<f32> = match taken {
            Some(b) if b.len() == slen => b,
            _ => AVec::zeroed(slen),
        };
        let scratch_ptr = SendPtr(scratch.as_mut_ptr());
        let dw_ptr = SendPtr(dweights.as_mut_ptr());
        let in_ptr = SendPtr::new(input.as_ptr());
        let do_ptr = SendPtr::new(dout.as_ptr());

        let tasks = sh.kb() * sh.cb() * sh.r * sh.s;
        let p = sh.p();
        let tiles = p.div_ceil(self.bp);
        let in_row = input.stride_h();
        let in_cb = input.stride_cb();
        let in_n = input.stride_n();
        let in_base = (self.input_pad - sh.pad) * (in_row + VLEN);
        let do_row = dout.stride_h();
        let do_kb = dout.stride_cb();
        let do_n = dout.stride_n();
        let do_base = self.dout_pad * do_row + self.dout_pad * VLEN;
        let wt_panel = VLEN * VLEN;
        let wt_s = wt_panel;
        let kernels = &self.kernels;
        let variant_of_rows = &self.variant_of_rows;
        let bp = self.bp;
        let shv = *sh;

        pool.run(move |ctx| {
            if g > 1 {
                // zero the (reused) partial copies before accumulating
                let my = ctx.chunk(g * wlen);
                // SAFETY: disjoint per-thread chunks of the scratch.
                unsafe { std::ptr::write_bytes(scratch_ptr.get().add(my.start), 0, my.len()) };
                ctx.barrier();
            }
            let group = ctx.tid / members;
            let member = ctx.tid % members;
            let n_range = split_even(shv.n, g, group);
            let my_tasks = split_even(tasks, members, member);
            let dst = if g > 1 {
                // SAFETY: each group writes its own wlen-sized slice.
                unsafe { scratch_ptr.get().add(group * wlen) }
            } else {
                dw_ptr.get()
            };
            for task in my_tasks {
                // decode (kb, cb, r, s) from the flat task id
                let s_ = task % shv.s;
                let r_ = (task / shv.s) % shv.r;
                let cb = (task / (shv.s * shv.r)) % shv.cb();
                let kb = task / (shv.s * shv.r * shv.cb());
                let panel = ((kb * shv.cb() + cb) * shv.r + r_) * shv.s * wt_s + s_ * wt_panel;
                for n in n_range.clone() {
                    for tj in 0..tiles {
                        let rows = bp.min(p - tj * bp);
                        let var = variant_of_rows[&rows];
                        let p0 = tj * bp;
                        // input base: physical row stride·p0 + r, col s
                        let in_off = in_base
                            + n * in_n
                            + cb * in_cb
                            + (p0 * shv.stride + r_) * in_row
                            + s_ * VLEN;
                        let do_off = do_base + n * do_n + kb * do_kb + p0 * do_row;
                        // prefetch the next tile's sub-tensors
                        let (pf_in, pf_do) = if tj + 1 < tiles {
                            let np0 = (tj + 1) * bp;
                            (
                                in_base
                                    + n * in_n
                                    + cb * in_cb
                                    + (np0 * shv.stride + r_) * in_row
                                    + s_ * VLEN,
                                do_base + n * do_n + kb * do_kb + np0 * do_row,
                            )
                        } else {
                            (in_off, do_off)
                        };
                        // SAFETY: offsets in-bounds; panels disjoint per
                        // task within a group; copies disjoint per group.
                        unsafe {
                            kernels[var].call(
                                in_ptr.get().add(in_off),
                                do_ptr.get().add(do_off),
                                dst.add(panel),
                                in_ptr.get().add(pf_in),
                                do_ptr.get().add(pf_do),
                                dst.add(panel),
                            )
                        };
                    }
                }
            }
            if g > 1 {
                // sum-reduce the partial copies (each thread owns a
                // contiguous 1/T of dW — the paper's final reduction)
                ctx.barrier();
                let my = ctx.chunk(wlen);
                for i in my {
                    let mut acc = 0.0f32;
                    for gg in 0..g {
                        // SAFETY: read-only after the barrier.
                        acc += unsafe { *scratch_ptr.get().add(gg * wlen + i) };
                    }
                    // SAFETY: each thread writes its own chunk.
                    unsafe { *dw_ptr.get().add(i) = acc };
                }
            }
        });
        if g > 1 {
            *self.copy_scratch.lock().unwrap() = Some(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{blocking, LayerOptions};

    fn plan(shape: ConvShape, b: Blocking, threads: usize, prefetch: bool) -> UpdPlan {
        let opts = LayerOptions::new(threads).with_prefetch(prefetch).with_dout_pad(0);
        UpdPlan::new(&PlanRequest::new(shape, b, &opts), &MachineModel::skx())
    }
    use crate::reference::conv_upd_ref;
    use tensor::{Kcrs, Nchw, Norms};

    fn run_case(shape: ConvShape, threads: usize, force_copies: Option<usize>) -> usize {
        let pool = ThreadPool::new(threads);
        let b = blocking::choose(&shape);
        let mut plan = plan(shape, b, threads, true);
        if let Some(g) = force_copies {
            assert_eq!(threads % g, 0);
            plan.copies = g;
        }
        let x = Nchw::random(shape.n, shape.c, shape.h, shape.w, 5);
        let gy = Nchw::random(shape.n, shape.k, shape.p(), shape.q(), 6);
        let xb = BlockedActs::from_nchw(&x, shape.pad);
        let gyb = BlockedActs::from_nchw(&gy, 0);
        let mut dwb = BlockedFilter::zeros(shape.k, shape.c, shape.r, shape.s);
        plan.run(&pool, &xb, &gyb, &mut dwb);

        let mut dw_ref = Kcrs::zeros(shape.k, shape.c, shape.r, shape.s);
        conv_upd_ref(&shape, &x, &gy, &mut dw_ref);
        let n = Norms::compare(dw_ref.as_slice(), dwb.to_kcrs().as_slice());
        assert!(n.ok(1e-3), "{shape} copies={}: {n}", plan.copies());
        plan.copies()
    }

    #[test]
    fn all_strategies_match_reference() {
        let shape = ConvShape::new(4, 32, 32, 8, 8, 3, 3, 1, 1);
        for g in [1usize, 2, 4] {
            run_case(shape, 4, Some(g));
        }
    }

    #[test]
    fn strided_and_one_by_one_layers() {
        run_case(ConvShape::new(2, 32, 48, 8, 8, 1, 1, 1, 0), 3, None);
        run_case(ConvShape::new(2, 32, 32, 8, 8, 1, 1, 2, 0), 2, None);
        run_case(ConvShape::new(2, 16, 16, 10, 10, 3, 3, 2, 1), 4, None);
    }

    #[test]
    fn first_conv_update() {
        run_case(ConvShape::new(1, 3, 16, 20, 20, 7, 7, 2, 3), 2, None);
    }

    #[test]
    fn remainder_row_tiles() {
        // P = 10 with bp that does not divide it
        let shape = ConvShape::new(1, 16, 16, 10, 10, 3, 3, 1, 1);
        let pool = ThreadPool::new(2);
        let mut b = blocking::choose(&shape);
        b.upd_bp = 4; // 10 = 4 + 4 + 2 -> remainder variant
        let plan = plan(shape, b, 2, false);
        assert_eq!(plan.kernels.len(), 2);
        let x = Nchw::random(1, 16, 10, 10, 5);
        let gy = Nchw::random(1, 16, 10, 10, 6);
        let xb = BlockedActs::from_nchw(&x, 1);
        let gyb = BlockedActs::from_nchw(&gy, 0);
        let mut dwb = BlockedFilter::zeros(16, 16, 3, 3);
        plan.run(&pool, &xb, &gyb, &mut dwb);
        let mut dw_ref = Kcrs::zeros(16, 16, 3, 3);
        conv_upd_ref(&shape, &x, &gy, &mut dw_ref);
        let n = Norms::compare(dw_ref.as_slice(), dwb.to_kcrs().as_slice());
        assert!(n.ok(1e-3), "{n}");
    }

    #[test]
    fn copy_scratch_is_reused_across_calls() {
        let shape = ConvShape::new(4, 32, 32, 8, 8, 3, 3, 1, 1);
        let pool = ThreadPool::new(4);
        let b = blocking::choose(&shape);
        let mut plan = plan(shape, b, 4, false);
        plan.copies = 4; // force the partial-copy path
        let x = Nchw::random(4, 32, 8, 8, 5);
        let gy = Nchw::random(4, 32, 8, 8, 6);
        let xb = BlockedActs::from_nchw(&x, 1);
        let gyb = BlockedActs::from_nchw(&gy, 0);
        let mut dwb = BlockedFilter::zeros(32, 32, 3, 3);
        plan.run(&pool, &xb, &gyb, &mut dwb);
        let first_ptr = plan.copy_scratch.lock().unwrap().as_ref().map(|s| s.as_ptr()).unwrap();
        let out1 = dwb.as_slice().to_vec();
        plan.run(&pool, &xb, &gyb, &mut dwb);
        let second_ptr = plan.copy_scratch.lock().unwrap().as_ref().map(|s| s.as_ptr()).unwrap();
        assert_eq!(first_ptr, second_ptr, "steady-state update must reuse the plan's buffer");
        assert_eq!(out1, dwb.as_slice(), "re-zeroed scratch must reproduce identical dW");
    }

    #[test]
    fn chooser_prefers_copies_for_small_weights() {
        // tiny dW, large activations: reduction is cheap, re-reads are
        // not -> many copies
        let s = ConvShape::new(64, 64, 64, 56, 56, 3, 3, 1, 1);
        let g = choose_copies(&s, 28, &MachineModel::skx());
        assert!(g >= 14, "expected many copies, got {g}");
    }

    #[test]
    fn chooser_prefers_feature_split_for_huge_weights() {
        // 2048×512 1×1 on tiny spatial: dW dwarfs activations
        let s = ConvShape::new(4, 2048, 512, 7, 7, 1, 1, 1, 0);
        let g = choose_copies(&s, 28, &MachineModel::skx());
        assert!(g <= 4, "expected few copies, got {g}");
    }

    #[test]
    fn results_identical_across_team_sizes() {
        let shape = ConvShape::new(3, 32, 32, 8, 8, 3, 3, 1, 1);
        let x = Nchw::random(3, 32, 8, 8, 7);
        let gy = Nchw::random(3, 32, 8, 8, 8);
        let xb = BlockedActs::from_nchw(&x, 1);
        let gyb = BlockedActs::from_nchw(&gy, 0);
        let mut outs: Vec<Vec<f32>> = Vec::new();
        for threads in [1usize, 2, 6] {
            let pool = ThreadPool::new(threads);
            let b = blocking::choose(&shape);
            let plan = plan(shape, b, threads, false);
            let mut dwb = BlockedFilter::zeros(32, 32, 3, 3);
            plan.run(&pool, &xb, &gyb, &mut dwb);
            outs.push(dwb.as_slice().to_vec());
        }
        // different reduction orders cause ulp-level differences only
        for o in &outs[1..] {
            let n = Norms::compare(&outs[0], o);
            assert!(n.ok(1e-5), "{n}");
        }
    }
}
