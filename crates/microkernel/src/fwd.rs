//! Forward-propagation microkernel (Section II-D): the scalar oracle.
//!
//! The kernel body follows the paper's recipe exactly: load one vector
//! of weights (`VLEN` output channels for one input channel), then
//! broadcast `RBQ × RBP` input pixels against it with FMAs, keeping the
//! whole output tile in an accumulator tile; output loads/stores are
//! hoisted outside the `R,S` (and optionally `Cb`) reduction loops.
//! The `jit` crate emits the same loop nest as straight-line AVX-512
//! code; [`fwd_scalar`] is what every such kernel is tested against,
//! and what runs on hosts that cannot execute generated code.

use crate::shape::KernelShape;
use tensor::VLEN;

/// Portable scalar kernel: correct for every shape, with the
/// six-pointer ABI of Section II-E (three compute pointers, three
/// prefetch pointers — ignored here) behind the descriptor.
///
/// # Safety
/// `inp`, `wt` and `out` must point to buffers that stay in bounds for
/// every offset `sh` describes (validated via [`KernelShape::validate`]);
/// `out` must not alias the inputs. Prefetch pointers may be null.
pub unsafe fn fwd_scalar(
    sh: &KernelShape,
    inp: *const f32,
    wt: *const f32,
    out: *mut f32,
    _pf_in: *const f32,
    _pf_wt: *const f32,
    _pf_out: *const f32,
) {
    // accumulate in a stack tile to mirror the register blocking
    let mut acc = [[0.0f32; VLEN]; 28];
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
                let wbase = wt.add(sh.wt_off(cb, r, s));
                for c in 0..VLEN {
                    let wrow = wbase.add(c * VLEN);
                    for p in 0..sh.rbp {
                        for q in 0..sh.rbq {
                            let x = *inp.add(sh.in_off(cb, r, s, p, q) + c);
                            let t = &mut acc[p * sh.rbq + q];
                            for v in 0..VLEN {
                                t[v] += x * *wrow.add(v);
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

    /// Build a miniature problem around one kernel invocation and check
    /// it against the naive formula.
    fn check(sh: &KernelShape) {
        sh.validate();
        let in_rows = (sh.rbp - 1) * sh.stride + sh.r + 1;
        let in_len = sh.cb_inner * sh.in_cb_stride.max(in_rows * sh.in_row_stride)
            + in_rows * sh.in_row_stride;
        let wt_len = sh.cb_inner * sh.r * sh.s * VLEN * VLEN;
        let out_len = sh.rbp * sh.out_row_stride + sh.rbq * sh.out_col_stride + VLEN;
        let mut rng = SplitMix64::new(42);
        let mut inp = vec![0.0f32; in_len];
        let mut wt = vec![0.0f32; wt_len];
        let mut out0 = vec![0.0f32; out_len];
        rng.fill_f32(&mut inp);
        rng.fill_f32(&mut wt);
        rng.fill_f32(&mut out0);

        // reference
        let mut expect = out0.clone();
        for p in 0..sh.rbp {
            for q in 0..sh.rbq {
                let mut acc = [0.0f32; VLEN];
                if !sh.init_zero {
                    acc.copy_from_slice(&out0[sh.out_off(p, q)..sh.out_off(p, q) + VLEN]);
                }
                for cb in 0..sh.cb_inner {
                    for r in 0..sh.r {
                        for s in 0..sh.s {
                            for c in 0..VLEN {
                                let x = inp[sh.in_off(cb, r, s, p, q) + c];
                                let woff = sh.wt_off(cb, r, s) + c * VLEN;
                                for v in 0..VLEN {
                                    acc[v] += x * wt[woff + v];
                                }
                            }
                        }
                    }
                }
                expect[sh.out_off(p, q)..sh.out_off(p, q) + VLEN].copy_from_slice(&acc);
            }
        }

        // scalar kernel
        let mut out_s = out0.clone();
        // SAFETY: buffers sized by the shape's extents above.
        unsafe {
            fwd_scalar(
                sh,
                inp.as_ptr(),
                wt.as_ptr(),
                out_s.as_mut_ptr(),
                std::ptr::null(),
                std::ptr::null(),
                std::ptr::null(),
            )
        };
        let n = tensor::Norms::compare(&expect, &out_s);
        assert!(n.ok(1e-5), "scalar {sh:?}: {n}");
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
    fn kernel_matrix_of_shapes() {
        for (rbp, rbq) in [(1, 1), (1, 7), (1, 14), (1, 28), (2, 7), (2, 14), (4, 7)] {
            for (r, s, stride) in [(1, 1, 1), (3, 3, 1), (1, 1, 2), (3, 3, 2), (7, 7, 2)] {
                check(&base(rbp, rbq, r, s, stride, 1));
            }
        }
    }

    #[test]
    fn cb_inner_reduction() {
        for cbi in [1usize, 2, 4] {
            check(&base(1, 14, 1, 1, 1, cbi));
        }
    }

    #[test]
    fn init_zero_overwrites_output() {
        let mut sh = base(1, 8, 3, 3, 1, 1);
        sh.init_zero = true;
        check(&sh);
    }

    #[test]
    fn strided_output_columns() {
        // bwd 1x1 duality: write every second output pixel
        let mut sh = base(1, 6, 1, 1, 1, 1);
        sh.out_col_stride = 2 * VLEN;
        sh.out_row_stride = 16 * VLEN;
        check(&sh);
    }

    #[test]
    fn prefetch_variant_is_harmless() {
        let mut sh = base(2, 14, 3, 3, 1, 1);
        sh.prefetch = true;
        check(&sh);
    }
}
