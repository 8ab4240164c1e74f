//! Runtime x86-64 code generation for direct-convolution kernels.
//!
//! This crate is the faithful reproduction of the paper's central
//! mechanism: *"we implemented a runtime just-in-time (JIT) code
//! generator following the ideas presented in \[LIBXSMM\]"* (Section
//! II-D). At layer-setup time a [`microkernel::KernelShape`] is
//! assembled into straight-line AVX-512 machine code in an executable
//! buffer:
//!
//! * accumulators live in `zmm0..zmm27` — the whole `RBP × RBQ` output
//!   tile stays in registers across the `R × S × C` reduction,
//! * weights load into `zmm28..zmm31` with plain vector moves,
//! * every FMA is an EVEX `vfmadd231ps` with an *embedded 32-bit
//!   broadcast memory operand* — the exact "fused memory operand"
//!   instruction sequence the paper discusses (including its ≈15%
//!   µop-split penalty on SKX),
//! * software prefetches (`prefetcht0/t1`) for the three *next
//!   invocation* pointers of the 6-argument ABI are sprinkled through
//!   the FMA stream (Section II-E),
//! * int16 kernels emit `vpdpwssd` (AVX-512 VNNI) — our stand-in for
//!   Knights Mill's `4VNNIW` (Section II-K).
//!
//! The kernels use the System-V calling convention with six pointer
//! arguments (`rdi, rsi, rdx, rcx, r8, r9`) — compute input / weights /
//! output plus the three prefetch pointers, exactly the kernel-streams
//! replay ABI of Algorithm 5.
//!
//! On hosts without AVX-512 (or sandboxes denying executable mappings,
//! see [`jit_available`]) engines fall back to the scalar oracle
//! kernels in the `microkernel` crate.

pub mod buffer;
pub mod emit;
pub mod fwd;
pub mod quant;
pub mod upd;

pub use buffer::{CodeBuffer, JitError};
pub use fwd::assemble_fwd;
pub use quant::assemble_quant;
pub use upd::assemble_upd;

/// Re-exported verifier spec: callers mapping assembled kernels via
/// [`CodeBuffer::from_kernel`] pass the matching `KernelSpec` variant
/// (`FwdF32` / `UpdF32` / `QuantI16`) wrapping the shape the kernel
/// was assembled from.
pub use kver::KernelSpec;

/// ABI of the generated f32 kernels: `(in, wt, out, pf_in, pf_wt,
/// pf_out)`. For the weight-update kernel the roles are `(in, dO, dW,
/// pf_in, pf_dO, pf_dW)`.
pub type F32Kernel =
    unsafe extern "C" fn(*const f32, *const f32, *mut f32, *const f32, *const f32, *const f32);

/// ABI of the generated int16 kernels.
pub type I16Kernel =
    unsafe extern "C" fn(*const i16, *const i16, *mut i32, *const i16, *const i16, *const i32);

/// Whether this process can map and execute generated code *and* the
/// host has AVX-512 (both are required to use the JIT backend). The
/// probe maps one page, writes a `ret`-immediately stub, and calls it;
/// the result is cached.
pub fn jit_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if !std::arch::is_x86_feature_detected!("avx512f") {
                return false;
            }
            // mov eax, 42; ret
            let stub = [0xB8u8, 42, 0, 0, 0, 0xC3];
            match CodeBuffer::from_code(&stub) {
                Ok(buf) => {
                    // SAFETY: the stub above is a complete nullary function.
                    let f: extern "C" fn() -> i32 = unsafe { std::mem::transmute(buf.as_ptr()) };
                    f() == 42
                }
                Err(_) => false,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_stable() {
        let a = jit_available();
        let b = jit_available();
        assert_eq!(a, b);
    }
}
