//! Microkernel descriptors and the scalar oracle kernels.
//!
//! The paper generates its microkernels at runtime (Section II-D); the
//! `jit` crate does that here. This crate holds what the generator and
//! everything around it share:
//!
//! * [`KernelShape`] / [`UpdShape`] — the complete descriptor of one
//!   microkernel (register blocking, strides, inner channel-block
//!   count, prefetch behaviour), with the [`Extents`] it may touch,
//! * the six-pointer ABI of Section II-E: three compute pointers plus
//!   three prefetch pointers for the *next* invocation's sub-tensors,
//! * one portable scalar kernel per flavour, written straight from the
//!   loop nest the JIT unrolls: the reference every generated kernel
//!   is tested against, and what `conv` runs on a host that cannot
//!   execute generated code.
//!
//! Kernels:
//! * [`fwd`] — forward/backward f32 microkernel (backward reuses it via
//!   the duality transform of Section II-I),
//! * [`upd`] — weight-gradient microkernel (one `VLEN×VLEN` dW panel
//!   per invocation, Section II-J),
//! * [`quant`] — int16→int32 kernel with VNNI pairing (Section II-K).

// Kernel bodies index fixed-size accumulator tiles by (p, q, lane)
// coordinates to mirror the register blocking; iterator rewrites would
// obscure the addressing the paper reasons about.
#![allow(clippy::needless_range_loop)]

pub mod fwd;
pub mod quant;
pub mod shape;
pub mod upd;

pub use shape::{Extents, KernelShape, UpdShape};

/// True when the host can run the AVX-512 f32 kernels.
pub fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the host can run the VNNI int16 kernels natively.
pub fn has_vnni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512vnni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
