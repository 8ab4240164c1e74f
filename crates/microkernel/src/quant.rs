//! Reduced-precision int16 → int32 microkernel (Section II-K): the
//! scalar oracle.
//!
//! The kernel follows the same structure as the f32 forward kernel but
//! consumes channel *pairs*: one 32-bit broadcast carries two adjacent
//! int16 input channels, one 512-bit weight load carries the
//! pair-interleaved weights (see `tensor::vnni`), and the JIT's
//! `vpdpwssd` multiplies the pairs and accumulates into int32 lanes —
//! the AVX-512 VNNI equivalent of Knights Mill's `4VNNIW`.
//! [`quant_scalar`] performs the same pairwise arithmetic in the same
//! order, so it agrees with the generated code bit for bit.
//!
//! The paper restricts the FMA accumulation-chain length to avoid
//! overflowing the int32 accumulators; [`KernelShape::cb_inner`] plays
//! that role here — the engine bounds how many channel blocks one
//! invocation reduces and spills to memory in between, which is one of
//! the three reasons int16 stays below 2× (Section III-B).

use crate::shape::KernelShape;
use tensor::VLEN;

/// Portable scalar kernel: processes channel pairs exactly like the
/// generated kernels, so results are bit-identical across backends.
///
/// # Safety
/// `inp`, `wt` and `out` must point to buffers that stay in bounds for
/// every offset `sh` describes (validated via [`KernelShape::validate`]);
/// `out` must not alias the inputs. Prefetch pointers may be null.
pub unsafe fn quant_scalar(
    sh: &KernelShape,
    inp: *const i16,
    wt: *const i16,
    out: *mut i32,
    _pf_in: *const i16,
    _pf_wt: *const i16,
    _pf_out: *const i32,
) {
    let mut acc = [[0i32; VLEN]; 28];
    if !sh.init_zero {
        for p in 0..sh.rbp {
            for q in 0..sh.rbq {
                let o = out.add(sh.out_off(p, q));
                for v in 0..VLEN {
                    acc[p * sh.rbq + q][v] = *o.add(v);
                }
            }
        }
    }
    for cb in 0..sh.cb_inner {
        for r in 0..sh.r {
            for s in 0..sh.s {
                // pair-interleaved weight panel: [c/2][k][2]
                let wbase = wt.add(sh.wt_off(cb, r, s));
                for cp in 0..VLEN / 2 {
                    for p in 0..sh.rbp {
                        for q in 0..sh.rbq {
                            let ioff = sh.in_off(cb, r, s, p, q) + 2 * cp;
                            let x0 = *inp.add(ioff) as i32;
                            let x1 = *inp.add(ioff + 1) as i32;
                            let t = &mut acc[p * sh.rbq + q];
                            for v in 0..VLEN {
                                let w0 = *wbase.add((cp * VLEN + v) * 2) as i32;
                                let w1 = *wbase.add((cp * VLEN + v) * 2 + 1) as i32;
                                t[v] = t[v].wrapping_add(x0 * w0 + x1 * w1);
                            }
                        }
                    }
                }
            }
        }
    }
    for p in 0..sh.rbp {
        for q in 0..sh.rbq {
            let o = out.add(sh.out_off(p, q));
            for v in 0..VLEN {
                *o.add(v) = acc[p * sh.rbq + q][v];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::rng::SplitMix64;

    fn check(sh: &KernelShape) {
        sh.validate();
        let in_rows = (sh.rbp - 1) * sh.stride + sh.r + 1;
        let in_len = sh.cb_inner * sh.in_cb_stride.max(in_rows * sh.in_row_stride)
            + in_rows * sh.in_row_stride;
        let wt_len = sh.cb_inner * sh.r * sh.s * VLEN * VLEN;
        let out_len = sh.rbp * sh.out_row_stride + sh.rbq * sh.out_col_stride + VLEN;
        let mut rng = SplitMix64::new(123);
        let mut inp = vec![0i16; in_len];
        let mut wt = vec![0i16; wt_len];
        let mut out0 = vec![0i32; out_len];
        rng.fill_i16(&mut inp);
        rng.fill_i16(&mut wt);
        for x in out0.iter_mut() {
            *x = rng.next_i16() as i32;
        }

        // reference: pairs in natural channel order, weights interleaved
        let mut expect = out0.clone();
        for p in 0..sh.rbp {
            for q in 0..sh.rbq {
                let o = sh.out_off(p, q);
                if sh.init_zero {
                    expect[o..o + VLEN].fill(0);
                }
                for cb in 0..sh.cb_inner {
                    for r in 0..sh.r {
                        for s in 0..sh.s {
                            let wb = sh.wt_off(cb, r, s);
                            for c in 0..VLEN {
                                let x = inp[sh.in_off(cb, r, s, p, q) + c] as i32;
                                let (cp, parity) = (c / 2, c % 2);
                                for v in 0..VLEN {
                                    let w = wt[wb + (cp * VLEN + v) * 2 + parity] as i32;
                                    expect[o + v] += x * w;
                                }
                            }
                        }
                    }
                }
            }
        }

        let mut out_s = out0.clone();
        // SAFETY: buffers sized by the shape's extents above.
        unsafe {
            quant_scalar(
                sh,
                inp.as_ptr(),
                wt.as_ptr(),
                out_s.as_mut_ptr(),
                std::ptr::null(),
                std::ptr::null(),
                std::ptr::null(),
            )
        };
        assert_eq!(expect, out_s, "scalar mismatch {sh:?}");
    }

    fn base(rbp: usize, rbq: usize, r: usize, s: usize, stride: usize, cbi: usize) -> KernelShape {
        let in_cols = (rbq - 1) * stride + s + 2;
        let in_rows = (rbp - 1) * stride + r + 1;
        KernelShape {
            rbp,
            rbq,
            r,
            s,
            stride,
            cb_inner: cbi,
            in_row_stride: in_cols * VLEN,
            in_cb_stride: in_rows * in_cols * VLEN + 64,
            out_row_stride: (rbq + 2) * VLEN,
            out_col_stride: VLEN,
            init_zero: false,
            prefetch: false,
        }
    }

    #[test]
    fn vnni_kernel_is_exact() {
        for (rbp, rbq) in [(1, 1), (1, 14), (2, 7), (4, 7)] {
            for (r, s, stride) in [(1, 1, 1), (3, 3, 1), (1, 1, 2)] {
                check(&base(rbp, rbq, r, s, stride, 1));
            }
        }
    }

    #[test]
    fn cb_inner_restricted_chain() {
        // cb_inner models the restricted accumulation chain: results
        // must stay exact for any split
        check(&base(1, 8, 1, 1, 1, 1));
        check(&base(1, 8, 1, 1, 1, 2));
        check(&base(1, 8, 1, 1, 1, 4));
    }

    #[test]
    fn init_zero_quant() {
        let mut sh = base(1, 7, 3, 3, 1, 1);
        sh.init_zero = true;
        check(&sh);
    }
}
