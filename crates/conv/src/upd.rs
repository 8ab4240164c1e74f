//! Weight-gradient update engine (Algorithms 8–9, Section II-J).
//!
//! The update is one more streamed plan (Section II-H). The dryrun
//! splits the `Kb × Cb × R × S` task space (one task per `VLEN × VLEN`
//! dW panel) evenly over the team; for each of its tasks a thread
//! walks the images in order, then the row tiles in order, and records
//! one `(input@tap, dO, dW panel)` kernel call per tile. `run` zeroes
//! dW and replays the streams through the replay loop every other
//! plan uses ([`Stream::replay`]). Each panel is accumulated by exactly
//! one thread, in an order that does not depend on the team size, so
//! the weight gradient — and with it training — is bit-identical for
//! every thread count.
//!
//! The product runs one dW copy. The paper's other extremes — `G`
//! partial copies, each owned by a group of threads over a minibatch
//! shard, then a `(G+1)·|dW|` reduction — are an ablation only:
//! [`UpdPlan::with_forced_copies`] records the same walk per group
//! into the plan's scratch and sums the copies afterwards. Its
//! summation order depends on `G`, so that path is not
//! thread-count-free. [`choose_copies`] keeps the paper's bandwidth
//! model of that choice for the `table1`/`fig5` columns; no plan
//! consults it. The compute kernel is the `VLEN × VLEN`-panel
//! microkernel of Algorithm 9 with the spatial `BP × BQ` blocking from
//! [`crate::blocking`].

use crate::backend::UpdKernel;
use crate::blocking::Blocking;
use crate::fwd::PlanRequest;
use crate::streams::{replay_all, SendPtr, Stream};
use microkernel::UpdShape;
use parallel::{split_even, ThreadPool};
use std::sync::Mutex;
use tensor::{AVec, BlockedActs, BlockedFilter, ConvShape, VLEN};

/// Planned weight-gradient pass.
pub struct UpdPlan {
    shape: ConvShape,
    /// Partial-copy count: 1, or `G > 1` on the forced ablation path.
    copies: usize,
    /// Kernel variants (main row tile and remainder).
    kernels: Vec<UpdKernel>,
    /// One recorded stream per thread; operands are (input@tap, dO,
    /// dW panel), panel offsets into copy `g` start at `g·|dW|`.
    streams: Vec<Stream>,
    /// Physical padding expected on the dO tensor.
    dout_pad: usize,
    /// Physical padding expected on the input tensor.
    input_pad: usize,
    /// Reusable partial-copy buffer (`G·|dW|` floats, forced path
    /// only), held by the plan so steady-state `run` calls stop
    /// allocating, and left zeroed by each call's reduction. Taken out
    /// of the mutex for a call's duration; concurrent runs of a shared
    /// plan fall back to a fresh allocation.
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
pub fn choose_copies(shape: &ConvShape, t: usize) -> usize {
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
    /// Dryrun: generate kernels and record one dW copy's streams.
    /// Input and dO carry the request's `input_pad` / `dout_pad`
    /// physical padding.
    pub fn new(req: &PlanRequest) -> Self {
        Self::with_forced_copies(req, 1)
    }

    /// As [`UpdPlan::new`] but accumulating into `copies` partial dW
    /// copies, one per group of `threads / copies` members, each group
    /// over its own minibatch shard (the Section II-J ablation).
    pub fn with_forced_copies(req: &PlanRequest, copies: usize) -> Self {
        let PlanRequest { shape, blocking, input_pad, dout_pad, threads, .. } = *req;
        assert!(copies >= 1 && threads.is_multiple_of(copies), "copies must divide the team");
        assert_eq!(blocking.upd_bq, shape.q(), "update kernels sweep full rows");
        let shapes = upd_shapes(&shape, &blocking, input_pad, dout_pad, req.prefetch);
        let (p, bp) = (shape.p(), blocking.upd_bp);
        let tiles: Vec<(usize, u8)> = (0..p.div_ceil(bp))
            .map(|tj| {
                let rows = bp.min(p - tj * bp);
                let var = shapes.iter().position(|sh| sh.bp == rows).expect("row variant");
                (tj * bp, var as u8)
            })
            .collect();
        let kernels = shapes.into_iter().map(|sh| UpdKernel::cached(sh, req.backend)).collect();

        let in_row = (shape.w + 2 * input_pad) * VLEN;
        let in_cb = (shape.h + 2 * input_pad) * in_row;
        let in_base = (input_pad - shape.pad) * (in_row + VLEN);
        let do_row = (shape.q() + 2 * dout_pad) * VLEN;
        let do_kb = (p + 2 * dout_pad) * do_row;
        let do_base = dout_pad * do_row + dout_pad * VLEN;
        let tasks = shape.kb() * shape.cb() * shape.r * shape.s;
        let members = threads / copies;
        let streams = (0..threads)
            .map(|tid| {
                let (group, member) = (tid / members, tid % members);
                let mut st = Stream::default();
                for task in split_even(tasks, members, member) {
                    // the flat task id is the panel index of
                    // [Kb][Cb][R][S]; decode (kb, cb, r, s) from it
                    let s_ = task % shape.s;
                    let r_ = (task / shape.s) % shape.r;
                    let cb = (task / (shape.s * shape.r)) % shape.cb();
                    let kb = task / (shape.s * shape.r * shape.cb());
                    let panel = (group * tasks + task) * VLEN * VLEN;
                    for n in split_even(shape.n, copies, group) {
                        for &(p0, var) in &tiles {
                            let in_off = in_base
                                + (n * shape.cb() + cb) * in_cb
                                + (p0 * shape.stride + r_) * in_row
                                + s_ * VLEN;
                            let do_off = do_base + (n * shape.kb() + kb) * do_kb + p0 * do_row;
                            st.push_conv(var, in_off, do_off, panel);
                        }
                    }
                }
                st
            })
            .collect();
        Self {
            shape,
            copies,
            kernels,
            streams,
            dout_pad,
            input_pad,
            copy_scratch: Mutex::new(None),
        }
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
        let wlen = dweights.as_slice().len();
        let mut scratch = (g > 1).then(|| {
            match self.copy_scratch.lock().expect("held only to take or put the buffer").take() {
                Some(b) if b.len() == g * wlen => b,
                _ => AVec::zeroed(g * wlen),
            }
        });
        let out = match &mut scratch {
            Some(s) => s.as_mut_ptr(),
            None => dweights.as_mut_ptr(),
        };
        let (inp, dop) = (input.as_ptr(), dout.as_ptr());
        // SAFETY: geometry validated above; each panel of each copy is
        // accumulated by exactly one thread.
        unsafe {
            replay_all(pool, &self.streams, &self.kernels, inp, dop, out, |_| {
                unreachable!("update streams record no APPLY")
            })
        };
        if let Some(mut scratch) = scratch {
            // sum-reduce the partial copies (each thread owns a
            // contiguous 1/T of dW — the paper's final reduction),
            // re-zeroing them for the next call
            let (src, dst) = (SendPtr(scratch.as_mut_ptr()), SendPtr(dweights.as_mut_ptr()));
            pool.run(|ctx| {
                for i in ctx.chunk(wlen) {
                    let mut acc = 0.0f32;
                    for gg in 0..g {
                        // SAFETY: element i of every copy belongs to
                        // this thread's chunk alone.
                        unsafe {
                            let p = src.get().add(gg * wlen + i);
                            acc += *p;
                            *p = 0.0;
                        }
                    }
                    // SAFETY: each thread writes its own chunk of dW.
                    unsafe { *dst.get().add(i) = acc };
                }
            });
            *self.copy_scratch.lock().expect("held only to take or put the buffer") = Some(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::conv_upd_ref;
    use crate::{blocking, LayerOptions};
    use std::collections::BTreeSet;
    use tensor::{Kcrs, Nchw, Norms};

    fn plan(shape: ConvShape, b: Blocking, threads: usize, prefetch: bool, g: usize) -> UpdPlan {
        let opts = LayerOptions::new(threads).with_prefetch(prefetch).with_dout_pad(0);
        UpdPlan::with_forced_copies(&PlanRequest::new(shape, b, &opts), g)
    }

    fn run_case(shape: ConvShape, threads: usize, copies: usize) {
        let pool = ThreadPool::new(threads);
        let plan = plan(shape, blocking::choose(&shape), threads, true, copies);
        let x = Nchw::random(shape.n, shape.c, shape.h, shape.w, 5);
        let gy = Nchw::random(shape.n, shape.k, shape.p(), shape.q(), 6);
        let xb = BlockedActs::from_nchw(&x, shape.pad);
        let gyb = BlockedActs::from_nchw(&gy, 0);
        let mut dwb = BlockedFilter::zeros(shape.k, shape.c, shape.r, shape.s);
        plan.run(&pool, &xb, &gyb, &mut dwb);

        let mut dw_ref = Kcrs::zeros(shape.k, shape.c, shape.r, shape.s);
        conv_upd_ref(&shape, &x, &gy, &mut dw_ref);
        let n = Norms::compare(dw_ref.as_slice(), dwb.to_kcrs().as_slice());
        assert!(n.ok(1e-3), "{shape} copies={copies}: {n}");
    }

    #[test]
    fn all_strategies_match_reference() {
        let shape = ConvShape::new(4, 32, 32, 8, 8, 3, 3, 1, 1);
        for g in [1usize, 2, 4] {
            run_case(shape, 4, g);
        }
    }

    #[test]
    fn strided_and_one_by_one_layers() {
        run_case(ConvShape::new(2, 32, 48, 8, 8, 1, 1, 1, 0), 3, 1);
        run_case(ConvShape::new(2, 32, 32, 8, 8, 1, 1, 2, 0), 2, 1);
        run_case(ConvShape::new(2, 16, 16, 10, 10, 3, 3, 2, 1), 4, 1);
    }

    #[test]
    fn first_conv_update() {
        run_case(ConvShape::new(1, 3, 16, 20, 20, 7, 7, 2, 3), 2, 1);
    }

    #[test]
    fn remainder_row_tiles() {
        // P = 10 with bp that does not divide it
        let shape = ConvShape::new(1, 16, 16, 10, 10, 3, 3, 1, 1);
        let pool = ThreadPool::new(2);
        let mut b = blocking::choose(&shape);
        b.upd_bp = 4; // 10 = 4 + 4 + 2 -> remainder variant
        let plan = plan(shape, b, 2, false, 1);
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
    fn streams_cover_every_call_and_threads_own_disjoint_panels() {
        // P = 10 in tiles of 4 (a remainder tile), 2 images per group
        let shape = ConvShape::new(4, 32, 48, 10, 10, 3, 3, 1, 1);
        let mut b = blocking::choose(&shape);
        b.upd_bp = 4;
        let (tasks, tiles) = (shape.kb() * shape.cb() * shape.r * shape.s, 3);
        let wlen = tasks * VLEN * VLEN;
        for (threads, g) in [(3usize, 1usize), (4, 2)] {
            let plan = plan(shape, b, threads, false, g);
            let calls: usize = plan.streams.iter().map(Stream::conv_count).sum();
            assert_eq!(calls, tasks * shape.n * tiles, "T={threads} G={g}");
            let owned: Vec<BTreeSet<u32>> =
                plan.streams.iter().map(|st| st.out.iter().copied().collect()).collect();
            for (i, a) in owned.iter().enumerate() {
                for bset in &owned[i + 1..] {
                    assert!(a.is_disjoint(bset), "T={threads} G={g}: a dW panel has two writers");
                }
            }
            // copy `group` of the scratch is written only by its members,
            // and together they cover every panel of it
            let members = threads / g;
            for group in 0..g {
                let span = (group * wlen) as u32..((group + 1) * wlen) as u32;
                let panels: BTreeSet<u32> = owned[group * members..(group + 1) * members]
                    .iter()
                    .flatten()
                    .copied()
                    .collect();
                assert!(panels.iter().all(|o| span.contains(o)), "T={threads} G={g}");
                assert_eq!(panels.len(), tasks, "T={threads} G={g}");
            }
        }
    }

    #[test]
    fn copy_scratch_is_reused_across_calls() {
        let shape = ConvShape::new(4, 32, 32, 8, 8, 3, 3, 1, 1);
        let pool = ThreadPool::new(4);
        let plan = plan(shape, blocking::choose(&shape), 4, false, 4);
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
        let g = choose_copies(&s, 28);
        assert!(g >= 14, "expected many copies, got {g}");
    }

    #[test]
    fn chooser_prefers_feature_split_for_huge_weights() {
        // 2048×512 1×1 on tiny spatial: dW dwarfs activations
        let s = ConvShape::new(4, 2048, 512, 7, 7, 1, 1, 1, 0);
        let g = choose_copies(&s, 28);
        assert!(g <= 4, "expected few copies, got {g}");
    }

    #[test]
    fn results_identical_across_team_sizes() {
        let shape = ConvShape::new(3, 32, 32, 8, 8, 3, 3, 1, 1);
        let x = Nchw::random(3, 32, 8, 8, 7);
        let gy = Nchw::random(3, 32, 8, 8, 8);
        let xb = BlockedActs::from_nchw(&x, 1);
        let gyb = BlockedActs::from_nchw(&gy, 0);
        let mut outs: Vec<Vec<u32>> = Vec::new();
        for threads in [1usize, 2, 6] {
            let pool = ThreadPool::new(threads);
            let b = blocking::choose(&shape);
            let opts = LayerOptions::new(threads).with_prefetch(false).with_dout_pad(0);
            let plan = UpdPlan::new(&PlanRequest::new(shape, b, &opts));
            let mut dwb = BlockedFilter::zeros(32, 32, 3, 3);
            plan.run(&pool, &xb, &gyb, &mut dwb);
            outs.push(dwb.as_slice().iter().map(|v| v.to_bits()).collect());
        }
        for o in &outs[1..] {
            assert_eq!(&outs[0], o, "dW must be bit-identical across team sizes");
        }
    }
}
