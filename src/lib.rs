//! # anatomy
//!
//! A from-scratch Rust reproduction of *Anatomy of High-Performance
//! Deep Learning Convolutions on SIMD Architectures* (Georganas et
//! al., SC 2018): JIT-compiled direct-convolution kernels, the
//! kernel-streams dryrun/replay execution framework, layer fusion,
//! duality-based backward propagation, bandwidth-balanced weight
//! updates, int16 (VNNI) kernels, and the GxM graph executor.
//!
//! This root crate re-exports the workspace so examples and downstream
//! users can depend on one name:
//!
//! ```
//! use anatomy::conv::{ConvLayer, LayerOptions};
//! use anatomy::tensor::ConvShape;
//!
//! let shape = ConvShape::new(1, 32, 32, 8, 8, 3, 3, 1, 1);
//! let layer = ConvLayer::new(shape, LayerOptions::new(2));
//! assert!(layer.blocking().rbq >= 8);
//! ```
//!
//! On top of the re-exports it adds the serving surface:
//!
//! * [`InferenceSession`] — one forward-only network behind a shared
//!   thread pool and layer-plan cache, `run(batch) → outputs`;
//! * [`serve::BatchingFrontend`] — a multi-client micro-batching
//!   front-end over several session replicas (see the [`serve`]
//!   module docs);
//! * [`daemon::Daemon`] — `anatomy-serve`, the network-facing
//!   multi-model daemon: a TCP listener speaking a length-prefixed
//!   binary protocol (`docs/PROTOCOL.md`) with admission control and
//!   zero-downtime weight hot-swap (see the [`daemon`] module docs
//!   and the README's operator guide);
//! * [`fault`] — deterministic fault injection for the serving stack:
//!   named fault points compiled to no-ops by default and armed by a
//!   seeded plan under `--features chaos` (DESIGN.md §13).
//!
//! The model surface is typed (DESIGN.md §8): sessions take anything
//! [`IntoModelSpec`] — a validated [`ModelSpec`], a [`GraphBuilder`]
//! chain, or legacy topology text — every failure is a structured
//! [`Error`], and trained weights travel through [`StateDict`]s for
//! the train → save → load → serve round trip.
//!
//! See `DESIGN.md` for the system inventory, and its §2
//! (per-experiment index) for which binary reproduces which paper
//! artifact.

#![deny(missing_docs)]

pub use baselines;
pub use conv;
pub use gxm;
pub use jit;
pub use machine;
pub use microkernel;
pub use parallel;
pub use smallgemm;
pub use tensor;
pub use topologies;

pub use conv::{Precision, TuneLevel};
pub use gxm::{ConvOpts, Error, GraphBuilder, IntoModelSpec, ModelSpec, StateDict};

pub mod daemon;
pub mod fault;
pub mod serve;

use std::sync::Arc;

/// One batch's worth of inference results.
#[derive(Clone, Debug)]
pub struct InferenceOutput {
    /// Softmax probabilities, `samples × classes` row-major (dense,
    /// without SIMD-lane padding).
    pub probs: Vec<f32>,
    /// Arg-max class per sample.
    pub top1: Vec<usize>,
}

/// The serving entry point: a forward-only network behind a shared
/// thread pool and a shared layer-plan cache.
///
/// A session owns an [`gxm::ExecMode::Inference`] network — no
/// gradient, momentum or backward-scratch allocation, activation
/// buffers recycled via the liveness memory plan — and exposes a
/// `run(batch) → outputs` loop. Several sessions (e.g. one per model,
/// or one per minibatch size) can share one pool and one cache so
/// repeated layer shapes JIT once per process.
///
/// Constructors take anything [`IntoModelSpec`]: a validated
/// [`ModelSpec`], a [`GraphBuilder`], or legacy topology text.
///
/// ```
/// use anatomy::{ConvOpts, GraphBuilder, InferenceSession};
///
/// let model = GraphBuilder::new()
///     .input("data", 3, 8, 8)
///     .conv("c1", ConvOpts::k(16).rs(3).pad(1).bias().relu())
///     .gap("g")
///     .fc("logits", 4)
///     .softmax("loss")
///     .build()
///     .unwrap();
/// let mut session = InferenceSession::new(&model, 2, 2).unwrap();
/// let batch = vec![0.5f32; 2 * 3 * 8 * 8];
/// let out = session.run(&batch).unwrap();
/// assert_eq!(out.top1.len(), 2);
/// assert_eq!(out.probs.len(), 2 * session.classes());
///
/// // partial batches pad the tail internally and return exactly
/// // `count` results:
/// let one = session.run_samples(&batch[..session.sample_elems()], 1).unwrap();
/// assert_eq!(one.top1.len(), 1);
/// assert_eq!(one.top1[0], out.top1[0]);
///
/// // wrong-sized payloads are typed errors, not panics:
/// assert!(session.run(&batch[..7]).is_err());
/// ```
pub struct InferenceSession {
    net: gxm::Network,
    pool: Arc<parallel::ThreadPool>,
    cache: conv::PlanCache,
}

impl InferenceSession {
    /// Build a session with a private pool and cache.
    ///
    /// The served network runs the inference BN fusion pass: every
    /// `Conv → Bn (→ eltwise-add → ReLU)` subgraph executes as one
    /// fused convolution with the BN's frozen running statistics
    /// folded into weights and bias, and any BN that cannot fold
    /// still normalizes with frozen statistics — so bn-graph
    /// predictions are independent of batch composition.
    pub fn new(model: impl IntoModelSpec, minibatch: usize, threads: usize) -> Result<Self, Error> {
        if threads == 0 {
            return Err(Error::BadInput("threads must be >= 1".to_string()));
        }
        Self::with_shared(
            model,
            minibatch,
            Arc::new(parallel::ThreadPool::new(threads)),
            conv::PlanCache::new(),
        )
    }

    /// Build a session with the BN fusion pass *disabled*: every BN
    /// runs as a standalone frozen-stats pass. Same predictions as
    /// [`Self::new`] up to fold-rounding — this is the unfused
    /// reference the fused executor is benchmarked and tested
    /// against, not a serving configuration.
    pub fn new_unfused(
        model: impl IntoModelSpec,
        minibatch: usize,
        threads: usize,
    ) -> Result<Self, Error> {
        if threads == 0 {
            return Err(Error::BadInput("threads must be >= 1".to_string()));
        }
        Self::build(
            model,
            minibatch,
            Arc::new(parallel::ThreadPool::new(threads)),
            conv::PlanCache::new(),
            false,
            TuneLevel::Heuristic,
            Precision::F32,
        )
    }

    /// Build a session sharing `pool` and `cache` with other sessions
    /// (the cache dedupes JIT + dryrun work across all of them).
    pub fn with_shared(
        model: impl IntoModelSpec,
        minibatch: usize,
        pool: Arc<parallel::ThreadPool>,
        cache: conv::PlanCache,
    ) -> Result<Self, Error> {
        Self::build(model, minibatch, pool, cache, true, TuneLevel::Heuristic, Precision::F32)
    }

    /// [`Self::with_shared`] with the plan-time decisions explicit.
    /// Every convolution's blocking is chosen at `tune` level (the
    /// heuristic, or a micro-bench-measured search on `pool`), with
    /// winners memoized in `cache` so replicas and
    /// repeated builds never re-tune (see [`conv::tune`]). At
    /// [`Precision::Int8`] every convolution whose input range is
    /// derivable (from folded-BN statistics, or measured via
    /// [`Self::calibrate`]) executes the paper's Section II-K
    /// reduced-precision path — quantize → int8/VNNI convolution →
    /// fused requantize — while underivable nodes fall back to their
    /// f32 plans (DESIGN.md §11).
    pub fn with_shared_quantized(
        model: impl IntoModelSpec,
        minibatch: usize,
        pool: Arc<parallel::ThreadPool>,
        cache: conv::PlanCache,
        tune: TuneLevel,
        precision: Precision,
    ) -> Result<Self, Error> {
        Self::build(model, minibatch, pool, cache, true, tune, precision)
    }

    fn build(
        model: impl IntoModelSpec,
        minibatch: usize,
        pool: Arc<parallel::ThreadPool>,
        cache: conv::PlanCache,
        fold_bn: bool,
        tune: TuneLevel,
        precision: Precision,
    ) -> Result<Self, Error> {
        let spec = model.into_model_spec()?;
        let net = gxm::Network::build_quantized(
            &spec,
            minibatch,
            Arc::clone(&pool),
            gxm::ExecMode::Inference,
            &cache,
            fold_bn,
            tune,
            precision,
        )?;
        Ok(Self { net, pool, cache })
    }

    /// Load trained parameters (a [`StateDict`] exported by
    /// [`gxm::Network::state_dict`]) into the served network. Forward
    /// outputs afterwards are bit-identical to the network the dict
    /// was saved from — the serve half of train → save → load → serve.
    pub fn load_state_dict(&mut self, sd: &StateDict) -> Result<(), Error> {
        self.net.load_state_dict(sd)
    }

    /// Run one full batch (`minibatch × c × h × w` NCHW f32) and return
    /// the softmax probabilities and top-1 predictions.
    ///
    /// # Errors
    /// [`Error::BadInput`] when `batch` is not exactly
    /// `minibatch × c × h × w` values.
    pub fn run(&mut self, batch: &[f32]) -> Result<InferenceOutput, Error> {
        let want = self.net.minibatch() * self.sample_elems();
        if batch.len() != want {
            return Err(Error::BadInput(format!(
                "batch must be minibatch × c × h × w = {want} f32 values, got {}",
                batch.len()
            )));
        }
        self.run_samples(batch, self.net.minibatch())
    }

    /// Run `count <= minibatch` samples (`count × c × h × w` NCHW f32),
    /// padding the unused tail of the planned batch with zeros, and
    /// return exactly `count` results.
    ///
    /// This is the primitive a batching front-end flushes partial
    /// batches through: the kernels always execute at the planned
    /// minibatch (replaying the recorded streams unchanged), only the
    /// load and the result extraction are `count`-sized.
    ///
    /// # Errors
    /// [`Error::BadInput`] when `count` is 0 or exceeds the planned
    /// minibatch, or when `samples` is not `count × c × h × w` values.
    pub fn run_samples(&mut self, samples: &[f32], count: usize) -> Result<InferenceOutput, Error> {
        if count == 0 || count > self.net.minibatch() {
            return Err(Error::BadInput(format!(
                "count must be in 1..={}, got {count}",
                self.net.minibatch()
            )));
        }
        if samples.len() != count * self.sample_elems() {
            return Err(Error::BadInput(format!(
                "samples must be count × c × h × w = {} f32 values, got {}",
                count * self.sample_elems(),
                samples.len()
            )));
        }
        self.net.load_input_nchw(samples, count);
        self.net.forward();
        let classes = self.net.classes;
        let padded = self.net.probabilities();
        let kpad = padded.len() / self.net.minibatch();
        let mut probs = Vec::with_capacity(count * classes);
        let mut top1 = Vec::with_capacity(count);
        for n in 0..count {
            let row = &padded[n * kpad..n * kpad + classes];
            probs.extend_from_slice(row);
            let best =
                row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap();
            top1.push(best);
        }
        Ok(InferenceOutput { probs, top1 })
    }

    /// Feed `count` representative samples (`count × c × h × w` NCHW
    /// f32) through the network in calibration mode: every batch runs
    /// the *f32* plans while per-channel activation maxima are
    /// recorded at each node, then the int8 convolutions requantize
    /// their weights against the measured ranges. Calibration widens
    /// int8 coverage — convolutions whose input range was underivable
    /// from BN statistics join the quantized path — and tightens the
    /// scales of those already on it (DESIGN.md §11).
    ///
    /// `count` may exceed the planned minibatch; samples are chunked
    /// into full-or-partial batches and the recorded maxima accumulate
    /// across all of them. No-op data-wise at [`Precision::F32`]
    /// (rejected with [`Error::BadInput`] so a misconfigured pipeline
    /// is caught loudly).
    ///
    /// # Errors
    /// [`Error::BadInput`] when the session is not int8, `count` is 0,
    /// or `samples` is not `count × c × h × w` values.
    pub fn calibrate(&mut self, samples: &[f32], count: usize) -> Result<(), Error> {
        if self.net.precision() != Precision::Int8 {
            return Err(Error::BadInput(
                "calibrate requires an int8-precision session".to_string(),
            ));
        }
        if count == 0 {
            return Err(Error::BadInput("calibration needs at least one sample".to_string()));
        }
        let se = self.sample_elems();
        if samples.len() != count * se {
            return Err(Error::BadInput(format!(
                "samples must be count × c × h × w = {} f32 values, got {}",
                count * se,
                samples.len()
            )));
        }
        let mb = self.net.minibatch();
        let mut done = 0;
        while done < count {
            let take = (count - done).min(mb);
            self.net.load_input_nchw(&samples[done * se..(done + take) * se], take);
            self.net.calibrate_batch();
            done += take;
        }
        Ok(())
    }

    /// The session's numeric execution mode.
    pub fn precision(&self) -> Precision {
        self.net.precision()
    }

    /// Number of convolution nodes in the served graph.
    pub fn conv_node_count(&self) -> usize {
        self.net.conv_node_count()
    }

    /// Number of convolutions currently executing the int8 path (0 at
    /// f32 precision); `quantized_conv_count / conv_node_count` is the
    /// int8 coverage the inference benchmark reports.
    pub fn quantized_conv_count(&self) -> usize {
        self.net.quantized_conv_count()
    }

    /// Class count of the model's softmax head.
    pub fn classes(&self) -> usize {
        self.net.classes
    }

    /// The session's batch size.
    pub fn minibatch(&self) -> usize {
        self.net.minibatch()
    }

    /// Elements per sample (`c × h × w` of the input node) — the unit
    /// a front-end slices client payloads by.
    pub fn sample_elems(&self) -> usize {
        let (c, h, w) = self.net.input_dims();
        c * h * w
    }

    /// Logical `(c, h, w)` of the model's input.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        self.net.input_dims()
    }

    /// The shared thread pool (hand it to further sessions).
    pub fn pool(&self) -> &Arc<parallel::ThreadPool> {
        &self.pool
    }

    /// The shared plan cache (hand it to further sessions).
    pub fn cache(&self) -> &conv::PlanCache {
        &self.cache
    }

    /// Plan-cache counters (hit rate is the serving-path health metric).
    pub fn cache_stats(&self) -> conv::PlanCacheStats {
        self.cache.stats()
    }

    /// The underlying forward-only network (introspection).
    pub fn network(&self) -> &gxm::Network {
        &self.net
    }
}
