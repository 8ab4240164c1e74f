//! Property-based tests: the dispatched (vector) kernels agree with
//! the scalar kernels over randomized shapes, strides and data — the
//! statistical version of the paper artifact's per-kernel validation.
//! "Dispatched" is what `Backend::Auto` resolves to: the JIT where
//! this host can run it.

use conv::backend::{F32Fwd, F32Upd, Kernel};
use conv::Backend;
use microkernel::{KernelShape, UpdShape};
use proptest::prelude::*;
use tensor::rng::SplitMix64;
use tensor::{Norms, VLEN};

fn fwd_shape(rbp: usize, rbq: usize, r: usize, s: usize, stride: usize, cbi: usize) -> KernelShape {
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
        in_cb_stride: in_rows * in_cols * VLEN + 32,
        out_row_stride: (rbq + 1) * VLEN,
        out_col_stride: VLEN,
        init_zero: false,
        prefetch: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fwd_vector_equals_scalar(
        rbp in 1usize..3,
        rbq in 1usize..15,
        r in 1usize..4,
        s in 1usize..4,
        stride in 1usize..3,
        cbi in 1usize..3,
        init_zero in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        prop_assume!(rbp * rbq <= 28);
        let mut sh = fwd_shape(rbp, rbq, r, s, stride, cbi);
        sh.init_zero = init_zero;
        let in_rows = (rbp - 1) * stride + r + 1;
        let in_len = cbi * sh.in_cb_stride + in_rows * sh.in_row_stride;
        let wt_len = cbi * r * s * VLEN * VLEN;
        let out_len = rbp * sh.out_row_stride + rbq * VLEN + VLEN;
        let mut rng = SplitMix64::new(seed);
        let mut inp = vec![0.0f32; in_len];
        let mut wt = vec![0.0f32; wt_len];
        let mut out0 = vec![0.0f32; out_len];
        rng.fill_f32(&mut inp);
        rng.fill_f32(&mut wt);
        rng.fill_f32(&mut out0);

        let mut a = out0.clone();
        let mut b = out0.clone();
        // SAFETY: buffers sized by the shape's extents above.
        unsafe {
            microkernel::fwd::fwd_scalar(
                &sh, inp.as_ptr(), wt.as_ptr(), a.as_mut_ptr(),
                std::ptr::null(), std::ptr::null(), std::ptr::null(),
            );
            Kernel::<F32Fwd>::new(sh, Backend::Auto).call(
                inp.as_ptr(), wt.as_ptr(), b.as_mut_ptr(),
                std::ptr::null(), std::ptr::null(), std::ptr::null(),
            );
        }
        let n = Norms::compare(&a, &b);
        prop_assert!(n.ok(1e-5), "{sh:?}: {n}");
    }

    #[test]
    fn upd_vector_equals_scalar(
        bp in 1usize..6,
        bq in 1usize..10,
        stride in 1usize..3,
        seed in 0u64..10_000,
    ) {
        let sh = UpdShape {
            bp,
            bq,
            stride,
            in_row_stride: (bq * stride + 2) * VLEN,
            do_row_stride: (bq + 1) * VLEN,
            prefetch: false,
        };
        let in_len = bp * stride * sh.in_row_stride + bq * stride * VLEN + VLEN;
        let do_len = bp * sh.do_row_stride + bq * VLEN + VLEN;
        let mut rng = SplitMix64::new(seed);
        let mut inp = vec![0.0f32; in_len];
        let mut dout = vec![0.0f32; do_len];
        let mut dw0 = vec![0.0f32; 256];
        rng.fill_f32(&mut inp);
        rng.fill_f32(&mut dout);
        rng.fill_f32(&mut dw0);
        let mut a = dw0.clone();
        let mut b = dw0.clone();
        // SAFETY: buffers sized by the shape's extents above.
        unsafe {
            microkernel::upd::upd_scalar(
                &sh, inp.as_ptr(), dout.as_ptr(), a.as_mut_ptr(),
                std::ptr::null(), std::ptr::null(), std::ptr::null(),
            );
            Kernel::<F32Upd>::new(sh, Backend::Auto).call(
                inp.as_ptr(), dout.as_ptr(), b.as_mut_ptr(),
                std::ptr::null(), std::ptr::null(), std::ptr::null(),
            );
        }
        let n = Norms::compare(&a, &b);
        prop_assert!(n.ok(1e-5), "{sh:?}: {n}");
    }
}
