//! Static verifier for JIT-emitted convolution kernels.
//!
//! The hottest code in this system is raw machine code assembled at
//! plan time (`jit::assemble_fwd`/`assemble_upd`/`assemble_quant`)
//! and executed through `unsafe` function pointers — no compiler, no
//! assembler, no checker between the emitter and the CPU. This crate
//! closes that gap with a static-analysis pass over the emitted bytes:
//!
//! 1. [`decode`] — a minimal x86-64 decoder covering *exactly* the
//!    encoding subset the emitter produces (EVEX maps 0F/0F38, legacy
//!    prefetch/loop scaffolding, `mod = 10` base + disp32 memory
//!    operands). Anything else is a typed [`Violation`].
//! 2. An abstract interpreter ([`verify`]) that walks the decoded
//!    stream — concretely executing the compact channel-block loop, so
//!    "all loop-counter values" is literal — and checks, against the
//!    [`KernelSpec`] the kernel was generated from:
//!    * **ABI invariants**: `vzeroupper` before every `ret` (the PR 5
//!      SSE-stall bug class), no writes to callee-saved GPRs or the
//!      stack, only the six argument pointers plus `r10`/`r11`
//!      scratch;
//!    * **register discipline**: accumulators within the
//!      `rbp·rbq ≤ 28` budget, weight registers confined to their
//!      class range, no read-before-init;
//!    * **memory bounds**: every load/store/prefetch displacement, at
//!      every loop iteration, lands inside the declared input/weight/
//!      output extents ([`microkernel::Extents`]) with 64-byte
//!      alignment on full-vector accesses, and the output writes tile
//!      the `RBP × RBQ` block *exactly* — no writes into physical
//!      padding, which padded fused plans require to stay zero.
//!
//! Verification needs no executable memory, so it runs on any host —
//! the `verify-kernels` binary sweeps the whole autotuner candidate
//! space through it. In debug and `--features jit/verify` builds,
//! `jit::CodeBuffer::from_kernel` runs this pass on every kernel ever
//! mapped. See DESIGN.md §12 for the abstract domains and the list of
//! properties deliberately *not* checked.

#![deny(missing_docs)]

pub mod decode;
mod interp;

use microkernel::{KernelShape, UpdShape};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use tensor::VLEN;

/// Which kernel class (and generating shape) a byte stream claims to
/// implement — the contract [`verify`] checks the bytes against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelSpec {
    /// f32 forward/backward kernel from [`jit::assemble_fwd`]-style
    /// emission for this [`KernelShape`].
    ///
    /// [`jit::assemble_fwd`]: https://docs.rs/jit
    FwdF32(KernelShape),
    /// f32 weight-gradient kernel for this [`UpdShape`] (pointer roles
    /// `in`/`dO`/`dW`).
    UpdF32(UpdShape),
    /// int16 forward kernel (VNNI path): i16 input/weights, i32
    /// output.
    QuantI16(KernelShape),
}

/// The six tensors a kernel can address, one per ABI pointer argument.
///
/// For [`KernelSpec::UpdF32`] the roles read `In`/`dO`/`dW`, but the
/// extents bookkeeping is identical so the names stay generic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tensor {
    /// Compute input activations (`rdi`).
    In,
    /// Compute weights — dO for the update kernel (`rsi`).
    Wt,
    /// Compute output — dW for the update kernel (`rdx`).
    Out,
    /// Prefetch input pointer (`rcx`).
    PfIn,
    /// Prefetch weight pointer (`r8`).
    PfWt,
    /// Prefetch output pointer (`r9`).
    PfOut,
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tensor::In => "input",
            Tensor::Wt => "weights",
            Tensor::Out => "output",
            Tensor::PfIn => "prefetch-input",
            Tensor::PfWt => "prefetch-weights",
            Tensor::PfOut => "prefetch-output",
        })
    }
}

/// A verification failure. Every variant pins one distinct defect
/// class; the mutation tests in `crates/jit/tests` assert the mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The stream ends in the middle of an instruction.
    Truncated {
        /// Byte offset of the partial instruction.
        at: usize,
    },
    /// A byte sequence outside the emitter's encoding subset.
    Decode {
        /// Byte offset of the unrecognized instruction.
        at: usize,
        /// The offending byte (first unexpected byte of the sequence).
        byte: u8,
    },
    /// A branch that does not target an earlier instruction boundary.
    BadBranch {
        /// Byte offset of the branch instruction.
        at: usize,
        /// The (absolute) byte offset it targets.
        target: i64,
    },
    /// The stream does not end with `ret` (or contains none at all).
    MissingRet,
    /// A `ret` not immediately preceded by `vzeroupper` — the ABI bug
    /// class behind PR 5's ~5× SSE post-op stall.
    MissingVzeroupper {
        /// Byte offset of the offending `ret`.
        at: usize,
    },
    /// An instruction names a GPR outside the sanctioned set (the six
    /// System-V argument registers plus `r10`/`r11` scratch) — e.g. a
    /// callee-saved register or the stack pointer.
    UnsanctionedGpr {
        /// Byte offset of the instruction.
        at: usize,
        /// Hardware GPR number (0-15).
        reg: u8,
    },
    /// A memory access through a register that does not hold a tensor
    /// pointer (an immediate, scratch, or clobbered pointer).
    NonPointerBase {
        /// Byte offset of the access.
        at: usize,
        /// Hardware GPR number used as base.
        reg: u8,
    },
    /// `dec`/`jnz` on a register whose value is not a known counter —
    /// the loop trip count would be unbounded or undefined.
    UninitLoopCounter {
        /// Byte offset of the instruction.
        at: usize,
    },
    /// The concrete walk exceeded the step budget — a runaway loop.
    Runaway {
        /// Steps executed before giving up.
        steps: usize,
    },
    /// An accumulator register at or beyond the kernel's budget
    /// (`rbp·rbq` for forward kernels, `VLEN` for update kernels) —
    /// e.g. an FMA retargeted into the weight-register range.
    AccumulatorOutOfBudget {
        /// Byte offset of the instruction.
        at: usize,
        /// The offending zmm register.
        zmm: u8,
        /// The kernel's accumulator budget.
        budget: usize,
    },
    /// A weight-stream vector register outside the class's range
    /// (`zmm28..31` for forward kernels, `zmm16..31` for update).
    WeightRegOutOfRange {
        /// Byte offset of the instruction.
        at: usize,
        /// The offending zmm register.
        zmm: u8,
    },
    /// A vector register read before anything initialized it.
    ReadBeforeInit {
        /// Byte offset of the reading instruction.
        at: usize,
        /// The uninitialized zmm register.
        zmm: u8,
    },
    /// A vector store through anything but the output pointer.
    StoreToReadOnly {
        /// Byte offset of the store.
        at: usize,
        /// The tensor the store would corrupt.
        tensor: Tensor,
    },
    /// A full-width vector load through the input pointer — kernels
    /// only read input via embedded broadcasts.
    VectorLoadFromInput {
        /// Byte offset of the load.
        at: usize,
    },
    /// An embedded broadcast from a non-input tensor.
    BroadcastOutsideInput {
        /// Byte offset of the instruction.
        at: usize,
        /// The tensor it reads instead.
        tensor: Tensor,
    },
    /// A compute load/store/FMA through one of the three prefetch
    /// pointers (valid only as prefetch addresses).
    PrefetchPointerComputeAccess {
        /// Byte offset of the access.
        at: usize,
        /// Hardware GPR number of the prefetch pointer.
        reg: u8,
    },
    /// An access (at some loop iteration) outside the declared extent
    /// of its tensor.
    OutOfBounds {
        /// Byte offset of the access.
        at: usize,
        /// The tensor accessed.
        tensor: Tensor,
        /// Resolved byte offset from the tensor base.
        offset: i64,
        /// Access size in bytes (1 for prefetches).
        size: u32,
        /// Declared tensor extent in bytes.
        extent: usize,
    },
    /// An access violating its required alignment (64 bytes for
    /// full-vector loads/stores, element-size for broadcasts).
    Misaligned {
        /// Byte offset of the access.
        at: usize,
        /// The tensor accessed.
        tensor: Tensor,
        /// Resolved byte offset from the tensor base.
        offset: i64,
        /// Required alignment in bytes.
        align: u32,
    },
    /// The set of output vectors written does not equal the expected
    /// `RBP × RBQ` tile (each vector exactly once) — writes into
    /// physical padding, skipped pixels, or double stores.
    OutputTileMismatch {
        /// Expected tile vectors never written.
        missing: usize,
        /// Writes (including duplicates) outside the expected set.
        unexpected: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Truncated { at } => {
                write!(f, "instruction stream truncated mid-instruction at byte {at}")
            }
            Violation::Decode { at, byte } => {
                write!(f, "unrecognized encoding at byte {at} (byte {byte:#04x})")
            }
            Violation::BadBranch { at, target } => {
                write!(f, "branch at byte {at} targets {target}, not an earlier boundary")
            }
            Violation::MissingRet => write!(f, "stream does not end with ret"),
            Violation::MissingVzeroupper { at } => {
                write!(f, "ret at byte {at} without preceding vzeroupper")
            }
            Violation::UnsanctionedGpr { at, reg } => {
                write!(f, "unsanctioned GPR r{reg} at byte {at}")
            }
            Violation::NonPointerBase { at, reg } => {
                write!(f, "memory access through non-pointer r{reg} at byte {at}")
            }
            Violation::UninitLoopCounter { at } => {
                write!(f, "loop control without a concrete counter at byte {at}")
            }
            Violation::Runaway { steps } => {
                write!(f, "runaway loop: exceeded {steps} interpreted steps")
            }
            Violation::AccumulatorOutOfBudget { at, zmm, budget } => {
                write!(f, "zmm{zmm} used as accumulator at byte {at} (budget {budget})")
            }
            Violation::WeightRegOutOfRange { at, zmm } => {
                write!(f, "zmm{zmm} used in the weight stream at byte {at}")
            }
            Violation::ReadBeforeInit { at, zmm } => {
                write!(f, "zmm{zmm} read before initialization at byte {at}")
            }
            Violation::StoreToReadOnly { at, tensor } => {
                write!(f, "store into read-only {tensor} tensor at byte {at}")
            }
            Violation::VectorLoadFromInput { at } => {
                write!(f, "full-vector load from the input tensor at byte {at}")
            }
            Violation::BroadcastOutsideInput { at, tensor } => {
                write!(f, "broadcast from {tensor} (not input) at byte {at}")
            }
            Violation::PrefetchPointerComputeAccess { at, reg } => {
                write!(f, "compute access through prefetch pointer r{reg} at byte {at}")
            }
            Violation::OutOfBounds { at, tensor, offset, size, extent } => write!(
                f,
                "{size}-byte access at {tensor}[{offset}] exceeds extent {extent} (byte {at})"
            ),
            Violation::Misaligned { at, tensor, offset, align } => {
                write!(f, "{tensor}[{offset}] not {align}-byte aligned (byte {at})")
            }
            Violation::OutputTileMismatch { missing, unexpected } => write!(
                f,
                "output writes do not tile the block: {missing} missing, {unexpected} unexpected"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// Summary of one successful verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Report {
    /// Decoded instructions in the stream.
    pub instructions: usize,
    /// Instructions the abstract interpreter executed (loop bodies
    /// count once per iteration).
    pub steps: usize,
    /// Output vectors stored (equals the expected tile size).
    pub output_writes: usize,
    /// Code size in bytes.
    pub code_bytes: usize,
}

/// Process-wide verification counters (observable through
/// `conv::kernel_verify_stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Kernels verified successfully since process start.
    pub kernels_verified: usize,
    /// Decoded instructions across those kernels.
    pub instructions_checked: usize,
}

static KERNELS: AtomicUsize = AtomicUsize::new(0);
static INSTRUCTIONS: AtomicUsize = AtomicUsize::new(0);

/// Snapshot of the process-wide verification counters.
pub fn stats() -> VerifyStats {
    VerifyStats {
        kernels_verified: KERNELS.load(Ordering::Relaxed),
        instructions_checked: INSTRUCTIONS.load(Ordering::Relaxed),
    }
}

/// Verify that `code` is a well-formed kernel for `spec`.
///
/// Decodes the stream, checks the static ABI structure, then walks it
/// with the abstract interpreter (executing loops concretely). Needs
/// no executable memory. Panics if `spec`'s shape fails its own
/// `validate()` — invalid shapes must be rejected before emission, not
/// handed to the verifier.
pub fn verify(code: &[u8], spec: &KernelSpec) -> Result<Report, Violation> {
    let cfg = ClassCfg::for_spec(spec);
    let insts = decode::decode_all(code)?;
    check_structure(code.len(), &insts)?;
    let report = interp::run(&insts, &cfg, code.len())?;
    KERNELS.fetch_add(1, Ordering::Relaxed);
    INSTRUCTIONS.fetch_add(report.instructions, Ordering::Relaxed);
    Ok(report)
}

/// Static stream structure: ends in `ret`, every `ret` directly
/// preceded by `vzeroupper`, branches target earlier boundaries.
fn check_structure(len: usize, insts: &[(usize, decode::Inst)]) -> Result<(), Violation> {
    use decode::Inst;
    match insts.last() {
        Some((_, Inst::Ret)) => {}
        _ => return Err(Violation::MissingRet),
    }
    for (i, (at, inst)) in insts.iter().enumerate() {
        match inst {
            Inst::Ret => {
                let clean = i > 0 && matches!(insts[i - 1].1, Inst::Vzeroupper);
                if !clean {
                    return Err(Violation::MissingVzeroupper { at: *at });
                }
            }
            Inst::Jnz { target } => {
                let backward = *target >= 0 && (*target as usize) < *at && (*target as usize) < len;
                let boundary = insts.binary_search_by_key(target, |(o, _)| *o as i64).is_ok();
                if !backward || !boundary {
                    return Err(Violation::BadBranch { at: *at, target: *target });
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Internal: per-class configuration shared with the interpreter.
pub(crate) struct ClassCfg {
    pub nacc: usize,
    pub wt_lo: u8,
    pub wt_hi: u8,
    /// Byte extents for In/Wt/Out.
    pub extents: [usize; 3],
    /// Broadcast element alignment (4 for f32, 2 for i16 pairs).
    pub bcst_align: u32,
    /// Expected output-store byte offsets (sorted).
    pub tiles: Vec<i64>,
}

impl ClassCfg {
    fn new(
        nacc: usize,
        wt: (u8, u8),
        extents: [usize; 3],
        bcst_align: u32,
        tiles: Vec<i64>,
    ) -> Self {
        let mut tiles = tiles;
        tiles.sort_unstable();
        Self { nacc, wt_lo: wt.0, wt_hi: wt.1, extents, bcst_align, tiles }
    }

    pub(crate) fn for_spec(spec: &KernelSpec) -> Self {
        match spec {
            KernelSpec::FwdF32(sh) => {
                sh.validate();
                let e = sh.extents();
                Self::new(
                    sh.accumulators(),
                    (28, 31),
                    [e.input * 4, e.weights * 4, e.output * 4],
                    4,
                    sh.out_tile_offsets().iter().map(|&o| (o * 4) as i64).collect(),
                )
            }
            KernelSpec::QuantI16(sh) => {
                sh.validate();
                let e = sh.extents();
                Self::new(
                    sh.accumulators(),
                    (28, 31),
                    [e.input * 2, e.weights * 2, e.output * 4],
                    2,
                    sh.out_tile_offsets().iter().map(|&o| (o * 4) as i64).collect(),
                )
            }
            KernelSpec::UpdF32(sh) => {
                sh.validate();
                let e = sh.extents();
                Self::new(
                    VLEN,
                    (16, 31),
                    [e.input * 4, e.weights * 4, e.output * 4],
                    4,
                    sh.out_tile_offsets().iter().map(|&o| (o * 4) as i64).collect(),
                )
            }
        }
    }
}
