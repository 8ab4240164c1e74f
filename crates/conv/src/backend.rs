//! Unified kernel handles over the JIT and the scalar oracle.
//!
//! Engines never call a kernel family directly: they hold [`Kernel`]
//! handles constructed at layer setup — one generic handle over the
//! three kernel [`Flavor`]s ([`FwdKernel`] / [`UpdKernel`] /
//! [`QuantKernel`]). `Backend::Auto` is runtime code generation (the
//! paper's mechanism) wherever this host can run the flavour's code,
//! and the scalar oracle everywhere else — so the same engine runs
//! anywhere, and every vector convolution instruction it executes
//! comes from a byte stream `kver` can verify. The oracle repeats the
//! generated code's arithmetic in the same order: int32 results are
//! bit-identical across hosts, f32 ones agree to fused-vs-separate
//! multiply-add rounding.
//!
//! Handles are `Arc`-backed: cloning one shares the generated code
//! buffer instead of re-JITting (the cuDNN-style "handle to a compiled
//! primitive" model). A process-wide code cache keyed by the kernel
//! descriptor dedupes generation across plans — ResNet-50 repeats a
//! handful of kernel shapes dozens of times, so most plans only clone.

use jit::CodeBuffer;
use microkernel::{KernelShape, UpdShape};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

/// Kernel backend selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Runtime code generation when this host can run it, else the
    /// scalar kernels.
    #[default]
    Auto,
    /// Force the scalar kernels (correctness baseline).
    Scalar,
}

/// Hit/miss counters of the process-wide kernel code cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelCacheStats {
    /// Handles served by cloning an existing entry.
    pub hits: usize,
    /// Handles that required generation.
    pub misses: usize,
}

impl KernelCacheStats {
    /// Fraction of lookups served from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One process-wide code cache for every flavour, keyed uniformly by
/// `(kver class + descriptor, resolved to the JIT?)`; entries are the
/// flavour's `Arc<Imp<F>>` behind `dyn Any`.
type CodeCache = Mutex<HashMap<(kver::KernelSpec, bool), Arc<dyn Any + Send + Sync>>>;
static CODE_CACHE: LazyLock<CodeCache> = LazyLock::new(Default::default);
static CACHE_HITS: AtomicUsize = AtomicUsize::new(0);
static CACHE_MISSES: AtomicUsize = AtomicUsize::new(0);

/// Counters of the process-wide kernel code cache (all kernel kinds).
pub fn kernel_cache_stats() -> KernelCacheStats {
    KernelCacheStats {
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
    }
}

/// Process-wide static-verifier counters: how many JIT kernels passed
/// verification and how many instructions were checked. Stays at zero
/// in release builds without the `jit/verify` feature (the check is
/// compiled out of [`jit::CodeBuffer::from_kernel`]).
pub fn kernel_verify_stats() -> kver::VerifyStats {
    kver::stats()
}

/// ABI of a flavour's generated kernels (Section II-E: three compute
/// pointers, three prefetch pointers).
pub type JitFn<F> = unsafe extern "C" fn(
    *const <F as Flavor>::In,
    *const <F as Flavor>::In,
    *mut <F as Flavor>::Acc,
    *const <F as Flavor>::In,
    *const <F as Flavor>::In,
    *const <F as Flavor>::Acc,
);

/// Signature of a flavour's scalar kernel: the JIT ABI behind the
/// descriptor.
pub type PortableFn<F> = unsafe fn(
    &<F as Flavor>::Shape,
    *const <F as Flavor>::In,
    *const <F as Flavor>::In,
    *mut <F as Flavor>::Acc,
    *const <F as Flavor>::In,
    *const <F as Flavor>::In,
    *const <F as Flavor>::Acc,
);

/// A kernel flavour: everything that distinguishes the f32 forward,
/// f32 update and int16 forward microkernels (Section II-K: the same
/// loop nest with a different FMA instruction). [`Kernel`] is written
/// once over this trait.
pub trait Flavor: Sized + 'static {
    /// Kernel descriptor.
    type Shape: Copy + Send + Sync + 'static;
    /// Element type of the two input operands.
    type In: Copy + 'static;
    /// Element type of the accumulated output operand.
    type Acc: Copy + 'static;
    /// Whether the accumulator can overflow, so plans must bound the
    /// in-kernel reduction chain (the paper's int16 restriction).
    const BOUNDED_CHAIN: bool;
    /// The scalar oracle.
    const SCALAR: PortableFn<Self>;
    /// Verifier class of `shape` — also the code-cache key.
    fn spec(shape: &Self::Shape) -> kver::KernelSpec;
    /// Panic on an illegal descriptor.
    fn validate(shape: &Self::Shape);
    /// Whether this host can generate and run the flavour's JIT code.
    fn jit_available() -> bool;
    /// Emit machine code for `shape`.
    fn assemble(shape: &Self::Shape) -> Vec<u8>;
}

/// f32 forward/backward flavour (`vfmadd231ps`).
pub struct F32Fwd;
/// f32 weight-gradient flavour; operands are `(input@tap, dO, dW panel)`.
pub struct F32Upd;
/// int16 forward flavour (`vpdpwssd`, int32 accumulators). The JIT
/// path additionally requires AVX-512 VNNI on the host.
pub struct I16Fwd;

impl Flavor for F32Fwd {
    type Shape = KernelShape;
    type In = f32;
    type Acc = f32;
    const BOUNDED_CHAIN: bool = false;
    const SCALAR: PortableFn<Self> = microkernel::fwd::fwd_scalar;
    fn spec(shape: &KernelShape) -> kver::KernelSpec {
        kver::KernelSpec::FwdF32(*shape)
    }
    fn validate(shape: &KernelShape) {
        shape.validate()
    }
    fn jit_available() -> bool {
        jit::jit_available()
    }
    fn assemble(shape: &KernelShape) -> Vec<u8> {
        jit::assemble_fwd(shape)
    }
}

impl Flavor for F32Upd {
    type Shape = UpdShape;
    type In = f32;
    type Acc = f32;
    const BOUNDED_CHAIN: bool = false;
    const SCALAR: PortableFn<Self> = microkernel::upd::upd_scalar;
    fn spec(shape: &UpdShape) -> kver::KernelSpec {
        kver::KernelSpec::UpdF32(*shape)
    }
    fn validate(shape: &UpdShape) {
        shape.validate()
    }
    fn jit_available() -> bool {
        jit::jit_available()
    }
    fn assemble(shape: &UpdShape) -> Vec<u8> {
        jit::assemble_upd(shape)
    }
}

impl Flavor for I16Fwd {
    type Shape = KernelShape;
    type In = i16;
    type Acc = i32;
    const BOUNDED_CHAIN: bool = true;
    const SCALAR: PortableFn<Self> = microkernel::quant::quant_scalar;
    fn spec(shape: &KernelShape) -> kver::KernelSpec {
        kver::KernelSpec::QuantI16(*shape)
    }
    fn validate(shape: &KernelShape) {
        shape.validate()
    }
    fn jit_available() -> bool {
        jit::jit_available() && microkernel::has_vnni()
    }
    fn assemble(shape: &KernelShape) -> Vec<u8> {
        jit::assemble_quant(shape)
    }
}

enum Imp<F: Flavor> {
    Jit {
        #[allow(dead_code)] // owns the mapping the fn pointer points into
        buf: CodeBuffer,
        f: JitFn<F>,
    },
    Scalar,
}

/// A ready-to-call microkernel of flavour `F`. Cloning is cheap: the
/// generated code is shared behind an `Arc`.
pub struct Kernel<F: Flavor> {
    shape: F::Shape,
    imp: Arc<Imp<F>>,
}

/// Forward/backward f32 kernel handle.
pub type FwdKernel = Kernel<F32Fwd>;
/// Weight-gradient f32 kernel handle.
pub type UpdKernel = Kernel<F32Upd>;
/// int16 kernel handle (Section II-K).
pub type QuantKernel = Kernel<I16Fwd>;

impl<F: Flavor> Clone for Kernel<F> {
    fn clone(&self) -> Self {
        Self { shape: self.shape, imp: Arc::clone(&self.imp) }
    }
}

/// Whether `backend` means generated code here: `Auto` is the
/// flavour's JIT if this host can run it, else the scalar oracle.
fn resolves_to_jit<F: Flavor>(backend: Backend) -> bool {
    backend == Backend::Auto && F::jit_available()
}

impl<F: Flavor> Kernel<F> {
    /// Generate a kernel for `shape` on `backend`.
    pub fn new(shape: F::Shape, backend: Backend) -> Self {
        F::validate(&shape);
        let imp = if resolves_to_jit::<F>(backend) {
            let buf = CodeBuffer::from_kernel(&F::assemble(&shape), &F::spec(&shape))
                .expect("verified executable JIT kernel");
            // SAFETY: the buffer holds a kernel emitted by the
            // flavour's own assembler, which follows the JitFn ABI.
            let f = unsafe { std::mem::transmute::<*const u8, JitFn<F>>(buf.as_ptr()) };
            Imp::Jit { buf, f }
        } else {
            Imp::Scalar
        };
        Self { shape, imp: Arc::new(imp) }
    }

    /// As [`Kernel::new`] but consulting the process-wide code cache:
    /// identical `(descriptor, resolved family)` requests share one
    /// generated kernel. Plans use this path so repeated layer shapes
    /// JIT once per process.
    pub fn cached(shape: F::Shape, backend: Backend) -> Self {
        let key = (F::spec(&shape), resolves_to_jit::<F>(backend));
        let mut map = CODE_CACHE.lock().unwrap();
        if let Some(imp) = map.get(&key) {
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            let imp = Arc::clone(imp).downcast().expect("the key's class names the flavour");
            return Self { shape, imp };
        }
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        let k = Self::new(shape, backend);
        map.insert(key, k.imp.clone());
        k
    }

    /// The descriptor this kernel was generated for.
    #[inline]
    pub fn shape(&self) -> &F::Shape {
        &self.shape
    }

    /// Which kernel family the handle resolved to.
    pub fn backend_name(&self) -> &'static str {
        match *self.imp {
            Imp::Jit { .. } => "jit",
            Imp::Scalar => "scalar",
        }
    }

    /// Invoke the kernel (Section II-E six-pointer ABI): two input
    /// operands, the accumulated output, and their prefetch twins.
    ///
    /// # Safety
    /// The pointers must be valid for the extents implied by the
    /// kernel's descriptor; `out` must not alias `inp`/`wt`.
    #[inline]
    pub unsafe fn call(
        &self,
        inp: *const F::In,
        wt: *const F::In,
        out: *mut F::Acc,
        pf_in: *const F::In,
        pf_wt: *const F::In,
        pf_out: *const F::Acc,
    ) {
        match &*self.imp {
            Imp::Jit { f, .. } => f(inp, wt, out, pf_in, pf_wt, pf_out),
            Imp::Scalar => (F::SCALAR)(&self.shape, inp, wt, out, pf_in, pf_wt, pf_out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::VLEN;

    fn shape() -> KernelShape {
        KernelShape {
            rbp: 1,
            rbq: 8,
            r: 1,
            s: 1,
            stride: 1,
            cb_inner: 1,
            in_row_stride: 16 * VLEN,
            in_cb_stride: 16 * 16 * VLEN,
            out_row_stride: 16 * VLEN,
            out_col_stride: VLEN,
            init_zero: true,
            prefetch: false,
        }
    }

    #[test]
    fn cached_handles_share_generated_code() {
        // a shape no other test uses, so the cache key is private to
        // this test; the global counters are only checked with >=
        // because sibling tests mutate them concurrently
        let mut sh = shape();
        sh.rbq = 7;
        let before = kernel_cache_stats();
        let a = FwdKernel::cached(sh, Backend::Auto);
        let b = FwdKernel::cached(sh, Backend::Auto);
        let after = kernel_cache_stats();
        assert!(Arc::ptr_eq(&a.imp, &b.imp), "cache must hand out the same impl");
        assert!(after.hits > before.hits, "second lookup must hit");
        assert!(after.misses > before.misses, "first lookup must miss");
        assert!(after.hit_rate() > 0.0);
    }

    #[test]
    fn clones_are_cheap_and_identical() {
        let k = FwdKernel::new(shape(), Backend::Scalar);
        let c = k.clone();
        assert!(Arc::ptr_eq(&k.imp, &c.imp));
        assert_eq!(k.backend_name(), c.backend_name());
    }

    #[test]
    fn auto_prefers_jit_when_available() {
        let k = FwdKernel::new(shape(), Backend::Auto);
        if jit::jit_available() {
            assert_eq!(k.backend_name(), "jit");
        } else {
            assert_eq!(k.backend_name(), "scalar");
        }
    }

    /// One invocation of `sh` per backend (scalar, and JIT when this
    /// host can run the flavour's code) on the same operands.
    fn outputs<F: Flavor>(
        sh: F::Shape,
        ext: microkernel::Extents,
        gen: impl Fn(usize) -> F::In,
        zero: F::Acc,
    ) -> Vec<Vec<F::Acc>> {
        let inp: Vec<F::In> = (0..ext.input).map(|i| gen(i % 13)).collect();
        let wt: Vec<F::In> = (0..ext.weights).map(|i| gen(i % 7 + 3)).collect();
        let mut backends = vec![Backend::Scalar];
        if F::jit_available() {
            backends.push(Backend::Auto);
        }
        backends
            .into_iter()
            .map(|backend| {
                let k = Kernel::<F>::new(sh, backend);
                let mut out = vec![zero; ext.output];
                // SAFETY: buffers cover the descriptor's extents; the
                // shapes disable prefetch, so null prefetch pointers
                // are never dereferenced.
                unsafe {
                    k.call(
                        inp.as_ptr(),
                        wt.as_ptr(),
                        out.as_mut_ptr(),
                        std::ptr::null(),
                        std::ptr::null(),
                        std::ptr::null(),
                    )
                };
                out
            })
            .collect()
    }

    #[test]
    fn all_backends_agree() {
        let sh = KernelShape { r: 3, s: 3, cb_inner: 2, ..shape() };
        let upd = UpdShape {
            bp: 3,
            bq: 8,
            stride: 2,
            in_row_stride: 20 * VLEN,
            do_row_stride: 8 * VLEN,
            prefetch: false,
        };
        let f32_gen = |i: usize| i as f32 * 0.25 - 1.0;
        let fwd = outputs::<F32Fwd>(sh, sh.extents(), f32_gen, 0.0);
        let upd = outputs::<F32Upd>(upd, upd.extents(), f32_gen, 0.0);
        for outs in [fwd, upd] {
            assert!(outs[0].iter().any(|&v| v != 0.0), "the oracle computed something");
            for o in &outs[1..] {
                assert!(tensor::Norms::compare(&outs[0], o).ok(1e-5));
            }
        }
        let quant = outputs::<I16Fwd>(sh, sh.extents(), |i| i as i16 * 37 - 200, 0);
        assert!(quant[0].iter().any(|&v| v != 0));
        for o in &quant[1..] {
            assert_eq!(&quant[0], o, "int32 accumulators must be bit-exact");
        }
    }
}
