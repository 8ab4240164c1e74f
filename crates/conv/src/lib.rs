//! Direct convolution engine — the paper's primary contribution.
//!
//! A [`ConvLayer`] is set up once per layer (the "JIT + dryrun" phase)
//! and then executed many times (the "replay" phase):
//!
//! * **setup** picks register/cache blocking ([`blocking`]), generates
//!   the microkernel variants (JIT machine code when this host can run
//!   it, the scalar oracle otherwise — [`backend`]), runs the
//!   *dryrun* that records each thread's exact sequence of kernel
//!   invocations as offset streams with RLE-encoded segments
//!   ([`streams`], Section II-H) — for the weight update ([`upd`])
//!   as for every other pass;
//! * **execution** replays the per-thread streams (Algorithm 5): no
//!   branchy index math, prefetch arguments taken from the next stream
//!   entry, fused operators ([`fuse`]) applied while output sub-tensors
//!   are cache-hot.
//!
//! The backward pass reuses the forward machinery through the duality
//! transforms of Section II-I ([`bwd`]); int16 kernels implement the
//! reduced-precision forward of Section II-K ([`quant`]);
//! [`mod@reference`] holds the naive Algorithm 1/6/8 loop nests every
//! engine is tested against. The blocking choice itself can escalate
//! from the Section II-B heuristic to a measured search ([`tune`]).

pub mod backend;
pub mod blocking;
pub mod bwd;
pub mod cache;
pub mod fuse;
pub mod fwd;
pub mod layer;
pub mod quant;
pub mod reference;
pub mod streams;
pub mod tune;
pub mod upd;

pub use backend::{
    kernel_cache_stats, kernel_verify_stats, Backend, FwdKernel, KernelCacheStats, UpdKernel,
};
pub use blocking::Blocking;
pub use cache::{CombinedCacheStats, FusedOpCacheStats, PlanCache, PlanCacheStats};
pub use fuse::FusedOp;
pub use fwd::PlanRequest;
pub use layer::{ConvLayer, LayerOptions, Precision};
pub use quant::{QuantFwdPlan, DEFAULT_CHAIN_LIMIT};
pub use tensor::ConvShape;
pub use tune::{TuneLevel, TuneOutcome, TuneStore};
