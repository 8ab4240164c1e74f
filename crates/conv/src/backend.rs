//! Unified kernel handles over the JIT and intrinsics backends.
//!
//! Engines never call a backend directly: they hold [`Kernel`] handles
//! constructed at layer setup — one generic handle over the three
//! kernel [`Flavor`]s ([`FwdKernel`] / [`UpdKernel`] / [`QuantKernel`]).
//! `Backend::Auto` prefers real runtime code generation (the paper's
//! mechanism) and falls back to the monomorphized intrinsics family,
//! then scalar — so the same engine runs anywhere while using the
//! fastest available implementation.
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
    /// JIT when available, else intrinsics, else scalar.
    #[default]
    Auto,
    /// Force runtime code generation (panics if unavailable).
    Jit,
    /// Force the monomorphized intrinsics family.
    Intrinsics,
    /// Force the scalar kernels (correctness baseline).
    Scalar,
}

/// Hit/miss counters of the process-wide kernel code cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelCacheStats {
    /// Handles served by cloning an existing entry.
    pub hits: usize,
    /// Handles that required generation (JIT/select).
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
/// `(kver class + descriptor, resolved backend)`; entries are the
/// flavour's `Arc<Imp<F>>` behind `dyn Any`.
type CodeCache = Mutex<HashMap<(kver::KernelSpec, Backend), Arc<dyn Any + Send + Sync>>>;
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

/// Signature of a flavour's intrinsics and scalar kernels: the JIT ABI
/// behind the descriptor.
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
    /// Select the monomorphized intrinsics kernel for `shape`.
    fn select(shape: &Self::Shape) -> PortableFn<Self>;
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
    fn select(shape: &KernelShape) -> PortableFn<Self> {
        microkernel::select_fwd(shape)
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
    fn select(shape: &UpdShape) -> PortableFn<Self> {
        microkernel::select_upd(shape)
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
    fn select(shape: &KernelShape) -> PortableFn<Self> {
        microkernel::select_quant(shape)
    }
}

enum Imp<F: Flavor> {
    Jit {
        #[allow(dead_code)] // owns the mapping the fn pointer points into
        buf: CodeBuffer,
        f: JitFn<F>,
    },
    Portable(PortableFn<F>),
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

/// `Auto` is JIT when the flavour can run it here, else intrinsics.
fn resolve<F: Flavor>(backend: Backend) -> Backend {
    match backend {
        Backend::Auto if F::jit_available() => Backend::Jit,
        Backend::Auto => Backend::Intrinsics,
        other => other,
    }
}

impl<F: Flavor> Kernel<F> {
    /// Generate/select a kernel for `shape` on `backend`.
    pub fn new(shape: F::Shape, backend: Backend) -> Self {
        F::validate(&shape);
        let imp = match resolve::<F>(backend) {
            Backend::Jit => {
                assert!(
                    F::jit_available(),
                    "JIT backend unavailable for this flavour on this host"
                );
                let buf = CodeBuffer::from_kernel(&F::assemble(&shape), &F::spec(&shape))
                    .expect("verified executable JIT kernel");
                // SAFETY: the buffer holds a kernel emitted by the
                // flavour's own assembler, which follows the JitFn ABI.
                let f = unsafe { std::mem::transmute::<*const u8, JitFn<F>>(buf.as_ptr()) };
                Imp::Jit { buf, f }
            }
            Backend::Intrinsics => Imp::Portable(F::select(&shape)),
            Backend::Scalar => Imp::Scalar,
            Backend::Auto => unreachable!(),
        };
        Self { shape, imp: Arc::new(imp) }
    }

    /// As [`Kernel::new`] but consulting the process-wide code cache:
    /// identical `(descriptor, resolved backend)` requests share one
    /// generated kernel. Plans use this path so repeated layer shapes
    /// JIT once per process.
    pub fn cached(shape: F::Shape, backend: Backend) -> Self {
        let key = (F::spec(&shape), resolve::<F>(backend));
        let mut map = CODE_CACHE.lock().unwrap();
        if let Some(imp) = map.get(&key) {
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            let imp = Arc::clone(imp).downcast().expect("the key's class names the flavour");
            return Self { shape, imp };
        }
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        let k = Self::new(shape, key.1);
        map.insert(key, k.imp.clone());
        k
    }

    /// The descriptor this kernel was generated for.
    #[inline]
    pub fn shape(&self) -> &F::Shape {
        &self.shape
    }

    /// Which backend the handle resolved to.
    pub fn backend_name(&self) -> &'static str {
        match *self.imp {
            Imp::Jit { .. } => "jit",
            Imp::Portable(_) => "intrinsics",
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
            Imp::Portable(f) => f(&self.shape, inp, wt, out, pf_in, pf_wt, pf_out),
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
        let a = FwdKernel::cached(sh, Backend::Intrinsics);
        let b = FwdKernel::cached(sh, Backend::Intrinsics);
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
            assert_eq!(k.backend_name(), "intrinsics");
        }
    }

    /// One invocation of `sh` per backend (scalar, intrinsics, and JIT
    /// when this host can run the flavour's code) on the same operands.
    fn outputs<F: Flavor>(
        sh: F::Shape,
        ext: microkernel::Extents,
        gen: impl Fn(usize) -> F::In,
        zero: F::Acc,
    ) -> Vec<Vec<F::Acc>> {
        let inp: Vec<F::In> = (0..ext.input).map(|i| gen(i % 13)).collect();
        let wt: Vec<F::In> = (0..ext.weights).map(|i| gen(i % 7 + 3)).collect();
        let mut backends = vec![Backend::Scalar, Backend::Intrinsics];
        if F::jit_available() {
            backends.push(Backend::Jit);
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
