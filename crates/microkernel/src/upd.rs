//! Weight-gradient microkernel (Algorithm 9 / Section II-J): the
//! scalar oracle.
//!
//! One invocation accumulates a single `VLEN × VLEN` panel of `dW` for
//! one filter tap `(r, s)`, sweeping a `BP × BQ` block of output
//! pixels. The register blocking is over the *input channel* dimension:
//! `VLEN` accumulators (one per `c` row of the panel) expose `VLEN`
//! independent FMA chains — exactly the paper's "register blocking up
//! to a factor of VLEN".

use crate::shape::UpdShape;
use tensor::VLEN;

/// Portable scalar update kernel.
///
/// # Safety
/// `inp` and `dout` must stay in bounds for every offset `sh` describes
/// (validated via [`UpdShape::validate`]); `dw` must cover one
/// `VLEN x VLEN` panel and not alias the inputs. Prefetch pointers may
/// be null.
pub unsafe fn upd_scalar(
    sh: &UpdShape,
    inp: *const f32,
    dout: *const f32,
    dw: *mut f32,
    _pf_in: *const f32,
    _pf_do: *const f32,
    _pf_dw: *const f32,
) {
    let mut acc = [[0.0f32; VLEN]; VLEN];
    for (c, row) in acc.iter_mut().enumerate() {
        let base = dw.add(c * VLEN);
        for (v, x) in row.iter_mut().enumerate() {
            *x = *base.add(v);
        }
    }
    for p in 0..sh.bp {
        for q in 0..sh.bq {
            let g = dout.add(sh.do_off(p, q));
            let x = inp.add(sh.in_off(p, q));
            for (c, row) in acc.iter_mut().enumerate() {
                let xi = *x.add(c);
                for (v, a) in row.iter_mut().enumerate() {
                    *a += xi * *g.add(v);
                }
            }
        }
    }
    for (c, row) in acc.iter().enumerate() {
        let base = dw.add(c * VLEN);
        for (v, x) in row.iter().enumerate() {
            *base.add(v) = *x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::rng::SplitMix64;

    fn check(sh: &UpdShape) {
        sh.validate();
        let in_len = sh.bp * sh.stride * sh.in_row_stride + sh.bq * sh.stride * VLEN + VLEN;
        let do_len = sh.bp * sh.do_row_stride + sh.bq * VLEN + VLEN;
        let mut rng = SplitMix64::new(7);
        let mut inp = vec![0.0f32; in_len];
        let mut dout = vec![0.0f32; do_len];
        let mut dw0 = vec![0.0f32; VLEN * VLEN];
        rng.fill_f32(&mut inp);
        rng.fill_f32(&mut dout);
        rng.fill_f32(&mut dw0);

        // reference
        let mut expect = dw0.clone();
        for p in 0..sh.bp {
            for q in 0..sh.bq {
                for c in 0..VLEN {
                    let x = inp[sh.in_off(p, q) + c];
                    for v in 0..VLEN {
                        expect[c * VLEN + v] += x * dout[sh.do_off(p, q) + v];
                    }
                }
            }
        }

        let mut dw_s = dw0.clone();
        // SAFETY: buffers sized by the shape's extents above.
        unsafe {
            upd_scalar(
                sh,
                inp.as_ptr(),
                dout.as_ptr(),
                dw_s.as_mut_ptr(),
                std::ptr::null(),
                std::ptr::null(),
                std::ptr::null(),
            )
        };
        let n = tensor::Norms::compare(&expect, &dw_s);
        assert!(n.ok(1e-5), "scalar {sh:?}: {n}");
    }

    fn base(bp: usize, bq: usize, stride: usize) -> UpdShape {
        UpdShape {
            bp,
            bq,
            stride,
            in_row_stride: (bq * stride + 3) * VLEN,
            do_row_stride: (bq + 1) * VLEN,
            prefetch: false,
        }
    }

    #[test]
    fn panel_accumulation_matches_reference() {
        for (bp, bq) in [(1, 1), (1, 14), (4, 7), (7, 7), (14, 14)] {
            for stride in [1, 2] {
                check(&base(bp, bq, stride));
            }
        }
    }

    #[test]
    fn prefetch_variant_is_harmless() {
        let mut sh = base(4, 14, 1);
        sh.prefetch = true;
        check(&sh);
    }

    #[test]
    fn repeated_invocations_accumulate() {
        // dW accumulates across invocations (the n / spatial-block loops)
        let sh = base(2, 4, 1);
        let in_len = sh.bp * sh.stride * sh.in_row_stride + sh.bq * sh.stride * VLEN + VLEN;
        let do_len = sh.bp * sh.do_row_stride + sh.bq * VLEN + VLEN;
        let inp = vec![1.0f32; in_len];
        let dout = vec![1.0f32; do_len];
        let mut dw = vec![0.0f32; 256];
        for _ in 0..3 {
            // SAFETY: buffers sized by the shape's extents above.
            unsafe {
                upd_scalar(
                    &sh,
                    inp.as_ptr(),
                    dout.as_ptr(),
                    dw.as_mut_ptr(),
                    std::ptr::null(),
                    std::ptr::null(),
                    std::ptr::null(),
                )
            };
        }
        // every element = 3 invocations × bp·bq pixels × 1·1
        for &x in &dw {
            assert_eq!(x, (3 * sh.bp * sh.bq) as f32);
        }
    }
}
