//! Non-convolution operators on blocked tensors.
//!
//! These are the bandwidth-bound layers of Section II-G (ReLU, Pooling,
//! Normalization, Bias, …). Where they follow a convolution they are
//! fused into its microkernel stream by the `conv` crate; the
//! standalone versions here serve the graph executor for the remaining
//! placements (pooling, BN, the FC head) and as the unfused reference.
//!
//! All operators run on `[N][Cb][H][W][VLEN]` tensors; channel-padding
//! lanes hold zeros on entry and are kept at zero.

use parallel::ThreadPool;
use smallgemm::big_gemm;
use std::sync::Mutex;
use tensor::{BlockedActs, VnniActs, VLEN};

/// Per-channel int8-range quantization of a blob into its int16 image
/// (`q = rne_sat_i8(x · inv_scale[c])`, see
/// `VnniActs::quantize_per_channel_into`), the `(n, cb)` chunks split
/// over the team. The pass is element-wise: any team size gives the
/// same bits.
pub fn quantize_fwd(pool: &ThreadPool, x: &BlockedActs, inv_scale: &[f32], image: &mut VnniActs) {
    // one job per team member, each behind its own (never contended)
    // lock so the region closure stays `Fn`
    let jobs: Vec<_> =
        image.quantize_jobs(x, inv_scale, pool.nthreads()).into_iter().map(Mutex::new).collect();
    pool.run(|ctx| jobs[ctx.tid].lock().expect("a job is locked by one thread only").run());
}

/// Max pooling forward; records argmax (flat input offsets) for the
/// backward scatter.
pub fn maxpool_fwd(
    pool: &ThreadPool,
    x: &BlockedActs,
    size: usize,
    stride: usize,
    pad: usize,
    y: &mut BlockedActs,
    argmax: &mut Vec<u32>,
) {
    let p = (x.h + 2 * pad - size) / stride + 1;
    let q = (x.w + 2 * pad - size) / stride + 1;
    assert_eq!((y.n, y.c, y.h, y.w), (x.n, x.c, p, q), "maxpool shape");
    argmax.clear();
    argmax.resize(x.n * x.cb * p * q * VLEN, u32::MAX);
    let slots = x.n * x.cb;
    let yptr = SendMut(y.as_mut_ptr());
    let yy: &BlockedActs = y;
    let aptr = SendMutU32(argmax.as_mut_ptr());
    pool.run(|ctx| {
        for slot in ctx.chunk(slots) {
            let (n, cb) = (slot / x.cb, slot % x.cb);
            for oj in 0..p {
                for oi in 0..q {
                    let mut best = [f32::NEG_INFINITY; VLEN];
                    let mut besti = [u32::MAX; VLEN];
                    for r in 0..size {
                        for s in 0..size {
                            let ij = (oj * stride + r) as isize - pad as isize;
                            let ii = (oi * stride + s) as isize - pad as isize;
                            if ij < 0 || ij >= x.h as isize || ii < 0 || ii >= x.w as isize {
                                continue;
                            }
                            let off = x.pix_offset_logical(n, cb, ij, ii);
                            let xs = &x.as_slice()[off..off + VLEN];
                            for v in 0..VLEN {
                                if xs[v] > best[v] {
                                    best[v] = xs[v];
                                    besti[v] = (off + v) as u32;
                                }
                            }
                        }
                    }
                    let yoff = yy.pix_offset_logical(n, cb, oj as isize, oi as isize);
                    let aoff = ((n * x.cb + cb) * p + oj) * q * VLEN + oi * VLEN;
                    for v in 0..VLEN {
                        // SAFETY: disjoint (n, cb) slots per thread.
                        unsafe {
                            *yptr.get().add(yoff + v) = best[v];
                            *aptr.get().add(aoff + v) = besti[v];
                        }
                    }
                }
            }
        }
    });
}

/// Max pooling backward: scatter `dy` to the recorded argmax positions
/// (accumulating into `dx`, which the caller zeroes at step start).
pub fn maxpool_bwd(pool: &ThreadPool, dy: &BlockedActs, argmax: &[u32], dx: &mut BlockedActs) {
    assert_eq!(argmax.len(), dy.n * dy.cb * dy.h * dy.w * VLEN);
    let slots = dy.n * dy.cb;
    let dxp = SendMut(dx.as_mut_ptr());
    pool.run(|ctx| {
        // each thread owns whole (n, cb) slots: the argmax targets of a
        // slot stay within that slot's input block, so writes are
        // disjoint across threads
        for slot in ctx.chunk(slots) {
            let (n, cb) = (slot / dy.cb, slot % dy.cb);
            for oj in 0..dy.h {
                let doff = dy.pix_offset_logical(n, cb, oj as isize, 0);
                let aoff = (slot * dy.h + oj) * dy.w * VLEN;
                for i in 0..dy.w * VLEN {
                    let t = argmax[aoff + i];
                    if t != u32::MAX {
                        // SAFETY: disjoint target blocks per thread.
                        unsafe { *dxp.get().add(t as usize) += dy.as_slice()[doff + i] };
                    }
                }
            }
        }
    });
}

/// Average pooling forward (spatial windows; zero-padded borders count
/// toward the divisor as in Caffe's default).
pub fn avgpool_fwd(
    pool: &ThreadPool,
    x: &BlockedActs,
    size: usize,
    stride: usize,
    pad: usize,
    y: &mut BlockedActs,
) {
    let p = (x.h + 2 * pad - size) / stride + 1;
    let q = (x.w + 2 * pad - size) / stride + 1;
    assert_eq!((y.n, y.c, y.h, y.w), (x.n, x.c, p, q), "avgpool shape");
    let inv = 1.0 / (size * size) as f32;
    let slots = x.n * x.cb;
    let yptr = SendMut(y.as_mut_ptr());
    let yy: &BlockedActs = y;
    pool.run(|ctx| {
        for slot in ctx.chunk(slots) {
            let (n, cb) = (slot / x.cb, slot % x.cb);
            for oj in 0..p {
                for oi in 0..q {
                    let mut acc = [0.0f32; VLEN];
                    for r in 0..size {
                        for s in 0..size {
                            let ij = (oj * stride + r) as isize - pad as isize;
                            let ii = (oi * stride + s) as isize - pad as isize;
                            if ij < 0 || ij >= x.h as isize || ii < 0 || ii >= x.w as isize {
                                continue;
                            }
                            let off = x.pix_offset_logical(n, cb, ij, ii);
                            for v in 0..VLEN {
                                acc[v] += x.as_slice()[off + v];
                            }
                        }
                    }
                    let yoff = yy.pix_offset_logical(n, cb, oj as isize, oi as isize);
                    for v in 0..VLEN {
                        // SAFETY: disjoint slots.
                        unsafe { *yptr.get().add(yoff + v) = acc[v] * inv };
                    }
                }
            }
        }
    });
}

/// Average pooling backward.
pub fn avgpool_bwd(
    pool: &ThreadPool,
    dy: &BlockedActs,
    size: usize,
    stride: usize,
    pad: usize,
    dx: &mut BlockedActs,
) {
    let inv = 1.0 / (size * size) as f32;
    let slots = dy.n * dy.cb;
    let dxp = SendMut(dx.as_mut_ptr());
    let dxx: &BlockedActs = dx;
    pool.run(|ctx| {
        for slot in ctx.chunk(slots) {
            let (n, cb) = (slot / dy.cb, slot % dy.cb);
            for oj in 0..dy.h {
                for oi in 0..dy.w {
                    let g =
                        &dy.as_slice()[dy.pix_offset_logical(n, cb, oj as isize, oi as isize)..];
                    for r in 0..size {
                        for s in 0..size {
                            let ij = (oj * stride + r) as isize - pad as isize;
                            let ii = (oi * stride + s) as isize - pad as isize;
                            if ij < 0 || ij >= dxx.h as isize || ii < 0 || ii >= dxx.w as isize {
                                continue;
                            }
                            let off = dxx.pix_offset_logical(n, cb, ij, ii);
                            for v in 0..VLEN {
                                // SAFETY: disjoint slots.
                                unsafe { *dxp.get().add(off + v) += g[v] * inv };
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Global average pooling to `1×1`.
pub fn gap_fwd(pool: &ThreadPool, x: &BlockedActs, y: &mut BlockedActs) {
    assert_eq!((y.n, y.c, y.h, y.w), (x.n, x.c, 1, 1));
    let inv = 1.0 / (x.h * x.w) as f32;
    let slots = x.n * x.cb;
    let yptr = SendMut(y.as_mut_ptr());
    pool.run(|ctx| {
        for slot in ctx.chunk(slots) {
            let (n, cb) = (slot / x.cb, slot % x.cb);
            let mut acc = [0.0f32; VLEN];
            for h in 0..x.h {
                let off = x.pix_offset_logical(n, cb, h as isize, 0);
                let row = &x.as_slice()[off..off + x.w * VLEN];
                for wv in row.chunks_exact(VLEN) {
                    for v in 0..VLEN {
                        acc[v] += wv[v];
                    }
                }
            }
            for (v, a) in acc.iter().enumerate() {
                // SAFETY: disjoint slots.
                unsafe { *yptr.get().add(slot * VLEN + v) = a * inv };
            }
        }
    });
}

/// Global average pooling backward.
pub fn gap_bwd(pool: &ThreadPool, dy: &BlockedActs, dx: &mut BlockedActs) {
    let inv = 1.0 / (dx.h * dx.w) as f32;
    let slots = dx.n * dx.cb;
    let dxp = SendMut(dx.as_mut_ptr());
    pool.run(|ctx| {
        for slot in ctx.chunk(slots) {
            let (n, cb) = (slot / dx.cb, slot % dx.cb);
            let g = &dy.as_slice()[slot * VLEN..slot * VLEN + VLEN];
            for h in 0..dx.h {
                let off = dx.pix_offset_logical(n, cb, h as isize, 0);
                for w in 0..dx.w {
                    for v in 0..VLEN {
                        // SAFETY: disjoint slots.
                        unsafe { *dxp.get().add(off + w * VLEN + v) += g[v] * inv };
                    }
                }
            }
        }
    });
}

/// Batch-norm state saved by forward for the backward pass.
#[derive(Clone, Debug, Default)]
pub struct BnSaved {
    /// Per-channel batch mean.
    pub mean: Vec<f32>,
    /// Per-channel inverse standard deviation.
    pub istd: Vec<f32>,
    /// Per-channel batch variance (exactly as computed, before the
    /// eps-regularized inverse sqrt — the value running-stat EMAs
    /// consume).
    pub var: Vec<f32>,
}

/// Batch normalization forward (training statistics), optional fused
/// ReLU: `y = relu(gamma·(x−μ)/σ + beta)`.
#[allow(clippy::too_many_arguments)]
pub fn bn_fwd(
    pool: &ThreadPool,
    x: &BlockedActs,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    relu: bool,
    residual: Option<&BlockedActs>,
    y: &mut BlockedActs,
    saved: &mut BnSaved,
) {
    let cpad = x.cb * VLEN;
    assert!(gamma.len() >= cpad && beta.len() >= cpad);
    assert_eq!((y.n, y.c, y.h, y.w), (x.n, x.c, x.h, x.w));
    if let Some(res) = residual {
        assert_eq!((res.n, res.c, res.h, res.w), (x.n, x.c, x.h, x.w));
    }
    saved.mean = vec![0.0; cpad];
    saved.istd = vec![0.0; cpad];
    saved.var = vec![0.0; cpad];
    let m = (x.n * x.h * x.w) as f32;
    // pass 1: per-channel mean/var (parallel over channel blocks)
    let meanp = SendMut(saved.mean.as_mut_ptr());
    let istdp = SendMut(saved.istd.as_mut_ptr());
    let varp = SendMut(saved.var.as_mut_ptr());
    pool.run(|ctx| {
        for cb in ctx.chunk(x.cb) {
            let mut sum = [0.0f64; VLEN];
            let mut sq = [0.0f64; VLEN];
            for n in 0..x.n {
                for h in 0..x.h {
                    let off = x.pix_offset_logical(n, cb, h as isize, 0);
                    for wv in x.as_slice()[off..off + x.w * VLEN].chunks_exact(VLEN) {
                        for v in 0..VLEN {
                            sum[v] += wv[v] as f64;
                            sq[v] += (wv[v] as f64) * (wv[v] as f64);
                        }
                    }
                }
            }
            for v in 0..VLEN {
                let mu = sum[v] / m as f64;
                let var = (sq[v] / m as f64 - mu * mu).max(0.0);
                // SAFETY: disjoint channel blocks.
                unsafe {
                    *meanp.get().add(cb * VLEN + v) = mu as f32;
                    *istdp.get().add(cb * VLEN + v) = 1.0 / (var as f32 + eps).sqrt();
                    *varp.get().add(cb * VLEN + v) = var as f32;
                }
            }
        }
    });
    // pass 2: normalize (+ optional residual add + ReLU)
    let slots = x.n * x.cb;
    let yptr = SendMut(y.as_mut_ptr());
    let mean = &saved.mean;
    let istd = &saved.istd;
    let yy: &BlockedActs = y;
    pool.run(|ctx| {
        for slot in ctx.chunk(slots) {
            let (n, cb) = (slot / x.cb, slot % x.cb);
            for h in 0..x.h {
                let off = x.pix_offset_logical(n, cb, h as isize, 0);
                let yoff = yy.pix_offset_logical(n, cb, h as isize, 0);
                let roff = residual.map(|r| r.pix_offset_logical(n, cb, h as isize, 0));
                for w in 0..x.w {
                    for v in 0..VLEN {
                        let c = cb * VLEN + v;
                        let xv = x.as_slice()[off + w * VLEN + v];
                        let mut yv = gamma[c] * (xv - mean[c]) * istd[c] + beta[c];
                        if let (Some(res), Some(ro)) = (residual, roff) {
                            yv += res.as_slice()[ro + w * VLEN + v];
                        }
                        if relu {
                            yv = yv.max(0.0);
                        }
                        // SAFETY: disjoint slots.
                        unsafe { *yptr.get().add(yoff + w * VLEN + v) = yv };
                    }
                }
            }
        }
    });
}

/// Batch normalization forward with *frozen* statistics (inference
/// semantics): `y = gamma·(x−running_mean)/sqrt(running_var+eps) +
/// beta`, optional residual add and ReLU. No statistic is computed
/// from the live batch, so every sample's output is independent of
/// its co-batched neighbours — the property batch-composition-free
/// serving depends on. Used for the BN nodes the inference fusion
/// pass could *not* fold into their producer convolution.
#[allow(clippy::too_many_arguments)]
pub fn bn_infer_fwd(
    pool: &ThreadPool,
    x: &BlockedActs,
    gamma: &[f32],
    beta: &[f32],
    running_mean: &[f32],
    running_var: &[f32],
    eps: f32,
    relu: bool,
    residual: Option<&BlockedActs>,
    y: &mut BlockedActs,
) {
    let cpad = x.cb * VLEN;
    assert!(gamma.len() >= cpad && beta.len() >= cpad);
    assert!(running_mean.len() >= cpad && running_var.len() >= cpad);
    assert_eq!((y.n, y.c, y.h, y.w), (x.n, x.c, x.h, x.w));
    if let Some(res) = residual {
        assert_eq!((res.n, res.c, res.h, res.w), (x.n, x.c, x.h, x.w));
    }
    // fold the frozen statistics into one affine per channel; padded
    // lanes resolve to scale·0 + 0 = 0 under canonical parameter
    // padding (gamma 1, beta 0, mean 0, var 1)
    let mut scale = vec![0.0f32; cpad];
    let mut shift = vec![0.0f32; cpad];
    for c in 0..cpad {
        scale[c] = gamma[c] / (running_var[c] + eps).sqrt();
        shift[c] = beta[c] - running_mean[c] * scale[c];
    }
    let slots = x.n * x.cb;
    let yptr = SendMut(y.as_mut_ptr());
    let yy: &BlockedActs = y;
    let (scale, shift) = (&scale, &shift);
    pool.run(|ctx| {
        for slot in ctx.chunk(slots) {
            let (n, cb) = (slot / x.cb, slot % x.cb);
            for h in 0..x.h {
                let off = x.pix_offset_logical(n, cb, h as isize, 0);
                let yoff = yy.pix_offset_logical(n, cb, h as isize, 0);
                let roff = residual.map(|r| r.pix_offset_logical(n, cb, h as isize, 0));
                for w in 0..x.w {
                    for v in 0..VLEN {
                        let c = cb * VLEN + v;
                        let xv = x.as_slice()[off + w * VLEN + v];
                        let mut yv = scale[c] * xv + shift[c];
                        if let (Some(res), Some(ro)) = (residual, roff) {
                            yv += res.as_slice()[ro + w * VLEN + v];
                        }
                        if relu {
                            yv = yv.max(0.0);
                        }
                        // SAFETY: disjoint slots.
                        unsafe { *yptr.get().add(yoff + w * VLEN + v) = yv };
                    }
                }
            }
        }
    });
}

/// Batch normalization backward (with the fused-ReLU mask applied to
/// the incoming gradient when `relu` was fused forward).
#[allow(clippy::too_many_arguments)]
pub fn bn_bwd(
    pool: &ThreadPool,
    x: &BlockedActs,
    y: &BlockedActs,
    dy: &BlockedActs,
    gamma: &[f32],
    saved: &BnSaved,
    relu: bool,
    dresidual: Option<&mut BlockedActs>,
    dx: &mut BlockedActs,
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let cpad = x.cb * VLEN;
    let m = (x.n * x.h * x.w) as f32;
    dgamma[..cpad].fill(0.0);
    dbeta[..cpad].fill(0.0);
    // pass 1: dgamma/dbeta per channel (+ residual gradient fan-out)
    let dgp = SendMut(dgamma.as_mut_ptr());
    let dbp = SendMut(dbeta.as_mut_ptr());
    let dres_ptr = dresidual.map(|d| SendMut(d.as_mut_ptr()));
    pool.run(|ctx| {
        for cb in ctx.chunk(x.cb) {
            let mut dg = [0.0f64; VLEN];
            let mut db = [0.0f64; VLEN];
            for n in 0..x.n {
                for h in 0..x.h {
                    let off = x.pix_offset_logical(n, cb, h as isize, 0);
                    let doff = dy.pix_offset_logical(n, cb, h as isize, 0);
                    let yoff = y.pix_offset_logical(n, cb, h as isize, 0);
                    for w in 0..x.w {
                        for v in 0..VLEN {
                            let c = cb * VLEN + v;
                            let mut g = dy.as_slice()[doff + w * VLEN + v];
                            if relu && y.as_slice()[yoff + w * VLEN + v] <= 0.0 {
                                g = 0.0;
                            }
                            if let Some(dr) = dres_ptr {
                                // the residual branch receives the same
                                // post-ReLU-mask gradient
                                // SAFETY: disjoint channel blocks.
                                unsafe { *dr.get().add(doff + w * VLEN + v) += g };
                            }
                            let xh =
                                (x.as_slice()[off + w * VLEN + v] - saved.mean[c]) * saved.istd[c];
                            dg[v] += (g * xh) as f64;
                            db[v] += g as f64;
                        }
                    }
                }
            }
            for v in 0..VLEN {
                // SAFETY: disjoint channel blocks.
                unsafe {
                    *dgp.get().add(cb * VLEN + v) = dg[v] as f32;
                    *dbp.get().add(cb * VLEN + v) = db[v] as f32;
                }
            }
        }
    });
    // pass 2: dx
    let slots = x.n * x.cb;
    let dxp = SendMut(dx.as_mut_ptr());
    let dgamma = &*dgamma;
    let dbeta = &*dbeta;
    pool.run(|ctx| {
        for slot in ctx.chunk(slots) {
            let (n, cb) = (slot / x.cb, slot % x.cb);
            for h in 0..x.h {
                let xoff = x.pix_offset_logical(n, cb, h as isize, 0);
                let doff = dy.pix_offset_logical(n, cb, h as isize, 0);
                let yoff = y.pix_offset_logical(n, cb, h as isize, 0);
                let dx_off = dx.pix_offset_logical(n, cb, h as isize, 0);
                for w in 0..x.w {
                    for v in 0..VLEN {
                        let c = cb * VLEN + v;
                        let mut g = dy.as_slice()[doff + w * VLEN + v];
                        if relu && y.as_slice()[yoff + w * VLEN + v] <= 0.0 {
                            g = 0.0;
                        }
                        let xh =
                            (x.as_slice()[xoff + w * VLEN + v] - saved.mean[c]) * saved.istd[c];
                        let t = g - dbeta[c] / m - xh * dgamma[c] / m;
                        // SAFETY: disjoint slots.
                        unsafe {
                            *dxp.get().add(dx_off + w * VLEN + v) += gamma[c] * saved.istd[c] * t
                        };
                    }
                }
            }
        }
    });
}

/// Fully connected forward: `y[N][K] = x[N][C] · w[C][K] + b` over the
/// padded channel dimension (padding lanes are zero).
pub fn fc_fwd(_pool: &ThreadPool, x: &BlockedActs, w: &[f32], bias: &[f32], y: &mut BlockedActs) {
    assert_eq!(x.h * x.w, 1, "FC expects 1x1 spatial input");
    let (cpad, kpad) = (x.cb * VLEN, y.cb * VLEN);
    assert_eq!(w.len(), cpad * kpad);
    big_gemm(x.n, kpad, cpad, x.as_slice(), cpad, w, kpad, 0.0, y.as_mut_slice(), kpad);
    for n in 0..y.n {
        for k in 0..kpad {
            y.as_mut_slice()[n * kpad + k] += bias[k];
        }
    }
}

/// Fully connected backward: gradients for input, weights and bias.
#[allow(clippy::too_many_arguments)]
pub fn fc_bwd(
    _pool: &ThreadPool,
    x: &BlockedActs,
    dy: &BlockedActs,
    w: &[f32],
    dx: &mut BlockedActs,
    dw: &mut [f32],
    db: &mut [f32],
) {
    let (cpad, kpad) = (x.cb * VLEN, dy.cb * VLEN);
    // dW[C][K] = xᵀ[C][N] · dY[N][K]
    let mut xt = vec![0.0f32; cpad * x.n];
    for n in 0..x.n {
        for c in 0..cpad {
            xt[c * x.n + n] = x.as_slice()[n * cpad + c];
        }
    }
    big_gemm(cpad, kpad, x.n, &xt, x.n, dy.as_slice(), kpad, 0.0, dw, kpad);
    // db = Σ_n dY
    db[..kpad].fill(0.0);
    for n in 0..x.n {
        for k in 0..kpad {
            db[k] += dy.as_slice()[n * kpad + k];
        }
    }
    // dX[N][C] = dY[N][K] · wᵀ[K][C]
    let mut wt = vec![0.0f32; kpad * cpad];
    for c in 0..cpad {
        for k in 0..kpad {
            wt[k * cpad + c] = w[c * kpad + k];
        }
    }
    let mut dxd = vec![0.0f32; x.n * cpad];
    big_gemm(x.n, cpad, kpad, dy.as_slice(), kpad, &wt, cpad, 0.0, &mut dxd, cpad);
    for (d, s) in dx.as_mut_slice().iter_mut().zip(&dxd) {
        *d += s;
    }
}

/// Softmax + cross-entropy forward. Returns mean loss and top-1
/// accuracy; stores probabilities for the backward pass.
pub fn softmax_loss_fwd(
    logits: &BlockedActs,
    classes: usize,
    labels: &[usize],
    probs: &mut Vec<f32>,
) -> (f32, f32) {
    let kpad = logits.cb * VLEN;
    assert!(classes <= kpad);
    assert_eq!(labels.len(), logits.n);
    probs.clear();
    probs.resize(logits.n * kpad, 0.0);
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    for n in 0..logits.n {
        let row = &logits.as_slice()[n * kpad..n * kpad + kpad];
        let max = row[..classes].iter().cloned().fold(f32::MIN, f32::max);
        let mut denom = 0.0f64;
        for k in 0..classes {
            denom += ((row[k] - max) as f64).exp();
        }
        let mut best = (0usize, f32::MIN);
        for k in 0..classes {
            let p = ((row[k] - max) as f64).exp() / denom;
            probs[n * kpad + k] = p as f32;
            if row[k] > best.1 {
                best = (k, row[k]);
            }
        }
        loss -= (probs[n * kpad + labels[n]].max(1e-12) as f64).ln();
        if best.0 == labels[n] {
            correct += 1;
        }
    }
    ((loss / logits.n as f64) as f32, correct as f32 / logits.n as f32)
}

/// Softmax + cross-entropy backward: `dlogits = (p − onehot)/N`.
pub fn softmax_loss_bwd(
    probs: &[f32],
    classes: usize,
    labels: &[usize],
    dlogits: &mut BlockedActs,
) {
    let kpad = dlogits.cb * VLEN;
    let inv_n = 1.0 / dlogits.n as f32;
    dlogits.zero();
    for n in 0..dlogits.n {
        for k in 0..classes {
            let mut g = probs[n * kpad + k];
            if k == labels[n] {
                g -= 1.0;
            }
            dlogits.as_mut_slice()[n * kpad + k] = g * inv_n;
        }
    }
}

/// `dst += src` (gradient fan-in accumulation of Split nodes).
pub fn accumulate(pool: &ThreadPool, dst: &mut BlockedActs, src: &BlockedActs) {
    assert_eq!(dst.as_slice().len(), src.as_slice().len(), "accumulate shape mismatch");
    let len = dst.as_slice().len();
    let dptr = SendMut(dst.as_mut_ptr());
    pool.run(|ctx| {
        for i in ctx.chunk(len) {
            // SAFETY: disjoint index chunks.
            unsafe { *dptr.get().add(i) += src.as_slice()[i] };
        }
    });
}

/// Channel concatenation forward (all parts share `n/h/w`; channel
/// counts are multiples of `VLEN` in the supported topologies).
pub fn concat_fwd(parts: &[&BlockedActs], y: &mut BlockedActs) {
    let mut cb0 = 0usize;
    for part in parts {
        assert_eq!((part.n, part.h, part.w, part.pad), (y.n, y.h, y.w, 0));
        assert_eq!(part.c % VLEN, 0, "concat parts must be block-aligned");
        for n in 0..y.n {
            for cb in 0..part.cb {
                let src = part.pix_offset_logical(n, cb, 0, 0);
                let dst = y.pix_offset_logical(n, cb0 + cb, 0, 0);
                let len = part.h * part.w * VLEN;
                y.as_mut_slice()[dst..dst + len].copy_from_slice(&part.as_slice()[src..src + len]);
            }
        }
        cb0 += part.cb;
    }
    assert_eq!(cb0, y.cb, "concat channel mismatch");
}

/// Channel concatenation backward: slice `dy` back into the parts.
pub fn concat_bwd(dy: &BlockedActs, parts: &mut [&mut BlockedActs]) {
    let mut cb0 = 0usize;
    for part in parts.iter_mut() {
        for n in 0..dy.n {
            for cb in 0..part.cb {
                let dst = part.pix_offset_logical(n, cb, 0, 0);
                let src = dy.pix_offset_logical(n, cb0 + cb, 0, 0);
                let len = part.h * part.w * VLEN;
                let slice = &dy.as_slice()[src..src + len];
                for (d, s) in part.as_mut_slice()[dst..dst + len].iter_mut().zip(slice) {
                    *d += s;
                }
            }
        }
        cb0 += part.cb;
    }
}

#[derive(Clone, Copy)]
struct SendMut(*mut f32);
unsafe impl Send for SendMut {}
unsafe impl Sync for SendMut {}
impl SendMut {
    #[inline]
    fn get(&self) -> *mut f32 {
        self.0
    }
}

#[derive(Clone, Copy)]
struct SendMutU32(*mut u32);
unsafe impl Send for SendMutU32 {}
unsafe impl Sync for SendMutU32 {}
impl SendMutU32 {
    #[inline]
    fn get(&self) -> *mut u32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_is_team_size_independent() {
        // 3 samples × 3 channel blocks: fewer chunks than one of the
        // teams below has members per sample, more than another
        let x = BlockedActs::random(3, 40, 5, 4, 1, 9);
        let inv: Vec<f32> = (0..48).map(|c| 20.0 + 7.0 * c as f32).collect();
        let mut want = VnniActs::zeros(3, 40, 5, 4, 1);
        want.quantize_per_channel_into(&x, &inv);
        assert!(want.as_slice().iter().any(|&q| q != 0));
        for threads in [1, 2, 3, 4, 11] {
            let mut image = VnniActs::zeros(3, 40, 5, 4, 1);
            quantize_fwd(&ThreadPool::new(threads), &x, &inv, &mut image);
            assert_eq!(image.as_slice(), want.as_slice(), "team of {threads}");
        }
    }

    #[test]
    fn maxpool_roundtrip() {
        let pool = ThreadPool::new(2);
        let x = BlockedActs::random(1, 16, 6, 6, 0, 1);
        let mut y = BlockedActs::zeros(1, 16, 3, 3, 0);
        let mut am = Vec::new();
        maxpool_fwd(&pool, &x, 2, 2, 0, &mut y, &mut am);
        // every output equals the max of its window
        for c in 0..16 {
            for oj in 0..3 {
                for oi in 0..3 {
                    let want = (0..2)
                        .flat_map(|r| (0..2).map(move |s| (r, s)))
                        .map(|(r, s)| x.get(0, c, oj * 2 + r, oi * 2 + s))
                        .fold(f32::MIN, f32::max);
                    assert_eq!(y.get(0, c, oj, oi), want);
                }
            }
        }
        // bwd scatters each gradient to exactly one input position
        let mut dy = BlockedActs::zeros(1, 16, 3, 3, 0);
        dy.as_mut_slice().fill(1.0);
        let mut dx = BlockedActs::zeros(1, 16, 6, 6, 0);
        maxpool_bwd(&pool, &dy, &am, &mut dx);
        let total: f32 = dx.as_slice().iter().sum();
        assert_eq!(total, (16 * 9) as f32);
    }

    #[test]
    fn gap_is_mean_and_bwd_spreads() {
        let pool = ThreadPool::new(2);
        let mut x = BlockedActs::zeros(1, 16, 2, 2, 0);
        for (i, hw) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
            x.set(0, 3, hw.0, hw.1, i as f32);
        }
        let mut y = BlockedActs::zeros(1, 16, 1, 1, 0);
        gap_fwd(&pool, &x, &mut y);
        assert!((y.get(0, 3, 0, 0) - 1.5).abs() < 1e-6);
        let mut dy = BlockedActs::zeros(1, 16, 1, 1, 0);
        dy.set(0, 3, 0, 0, 4.0);
        let mut dx = BlockedActs::zeros(1, 16, 2, 2, 0);
        gap_bwd(&pool, &dy, &mut dx);
        assert_eq!(dx.get(0, 3, 1, 1), 1.0);
    }

    #[test]
    fn bn_normalizes_batch() {
        let pool = ThreadPool::new(2);
        let x = BlockedActs::random(4, 16, 5, 5, 0, 7);
        let gamma = vec![1.0f32; 16];
        let beta = vec![0.0f32; 16];
        let mut y = BlockedActs::zeros(4, 16, 5, 5, 0);
        let mut saved = BnSaved::default();
        bn_fwd(&pool, &x, &gamma, &beta, 1e-5, false, None, &mut y, &mut saved);
        // output channel mean ≈ 0, var ≈ 1
        for c in 0..16 {
            let mut sum = 0.0f64;
            let mut sq = 0.0f64;
            for n in 0..4 {
                for h in 0..5 {
                    for w in 0..5 {
                        let v = y.get(n, c, h, w) as f64;
                        sum += v;
                        sq += v * v;
                    }
                }
            }
            let m = 100.0;
            assert!((sum / m).abs() < 1e-4, "mean {}", sum / m);
            assert!((sq / m - 1.0).abs() < 1e-2, "var {}", sq / m);
        }
    }

    #[test]
    fn bn_bwd_gradient_check() {
        // numerical gradient of loss = Σ y·g w.r.t. one input element
        let pool = ThreadPool::new(1);
        let x = BlockedActs::random(2, 16, 3, 3, 0, 9);
        let g = BlockedActs::random(2, 16, 3, 3, 0, 10);
        let gamma: Vec<f32> = (0..16).map(|i| 1.0 + 0.01 * i as f32).collect();
        let beta = vec![0.1f32; 16];
        let run = |xx: &BlockedActs| -> (f64, BlockedActs, BnSaved) {
            let mut y = BlockedActs::zeros(2, 16, 3, 3, 0);
            let mut saved = BnSaved::default();
            bn_fwd(&pool, xx, &gamma, &beta, 1e-5, false, None, &mut y, &mut saved);
            let loss: f64 =
                y.as_slice().iter().zip(g.as_slice()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
            (loss, y, saved)
        };
        let (_, y, saved) = run(&x);
        let mut dx = BlockedActs::zeros(2, 16, 3, 3, 0);
        let mut dgamma = vec![0.0f32; 16];
        let mut dbeta = vec![0.0f32; 16];
        bn_bwd(&pool, &x, &y, &g, &gamma, &saved, false, None, &mut dx, &mut dgamma, &mut dbeta);
        // finite difference on x[0][5][1][2]
        let eps = 1e-2f32;
        let mut xp = x.clone();
        xp.set(0, 5, 1, 2, x.get(0, 5, 1, 2) + eps);
        let (lp, _, _) = run(&xp);
        let mut xm = x.clone();
        xm.set(0, 5, 1, 2, x.get(0, 5, 1, 2) - eps);
        let (lm, _, _) = run(&xm);
        let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
        let ana = dx.get(0, 5, 1, 2);
        assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "num {num} vs ana {ana}");
    }

    #[test]
    fn fc_and_softmax_train_one_step() {
        let pool = ThreadPool::new(1);
        let x = BlockedActs::random(4, 16, 1, 1, 0, 3);
        let mut w = vec![0.0f32; 16 * 16];
        for (i, v) in w.iter_mut().enumerate() {
            *v = ((i % 7) as f32 - 3.0) * 0.05;
        }
        let bias = vec![0.0f32; 16];
        let mut y = BlockedActs::zeros(4, 16, 1, 1, 0);
        fc_fwd(&pool, &x, &w, &bias, &mut y);
        let labels = vec![0usize, 1, 2, 3];
        let mut probs = Vec::new();
        let (loss, _acc) = softmax_loss_fwd(&y, 10, &labels, &mut probs);
        assert!(loss > 0.0);
        let mut dy = BlockedActs::zeros(4, 16, 1, 1, 0);
        softmax_loss_bwd(&probs, 10, &labels, &mut dy);
        let mut dx = BlockedActs::zeros(4, 16, 1, 1, 0);
        let mut dw = vec![0.0f32; 256];
        let mut db = vec![0.0f32; 16];
        fc_bwd(&pool, &x, &dy, &w, &mut dx, &mut dw, &mut db);
        // a gradient step must reduce the loss
        for (wi, g) in w.iter_mut().zip(&dw) {
            *wi -= 0.5 * g;
        }
        fc_fwd(&pool, &x, &w, &bias, &mut y);
        let (loss2, _) = softmax_loss_fwd(&y, 10, &labels, &mut probs);
        assert!(loss2 < loss, "{loss2} !< {loss}");
    }

    #[test]
    fn concat_roundtrip() {
        let a = BlockedActs::random(1, 16, 2, 2, 0, 1);
        let b = BlockedActs::random(1, 32, 2, 2, 0, 2);
        let mut y = BlockedActs::zeros(1, 48, 2, 2, 0);
        concat_fwd(&[&a, &b], &mut y);
        assert_eq!(y.get(0, 3, 1, 1), a.get(0, 3, 1, 1));
        assert_eq!(y.get(0, 16 + 5, 0, 1), b.get(0, 5, 0, 1));
        let mut da = BlockedActs::zeros(1, 16, 2, 2, 0);
        let mut db = BlockedActs::zeros(1, 32, 2, 2, 0);
        concat_bwd(&y, &mut [&mut da, &mut db]);
        assert_eq!(da.as_slice(), a.as_slice());
        assert_eq!(db.as_slice(), b.as_slice());
    }
}
