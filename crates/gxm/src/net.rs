//! The ETG executor: a trainable (or forward-only) network.
//!
//! Building a network is split into two phases mirroring the paper's
//! setup/replay discipline:
//!
//! * the **plan phase** (`plan_graph`) compiles the topology to an
//!   ETG, infers every blob's geometry (including the physical padding
//!   each consumer convolution wants) and obtains one planned
//!   `ConvLayer` per convolution node **through a [`PlanCache`]** —
//!   repeated layer shapes JIT + dryrun once and share the plan;
//! * the **allocate phase** materializes parameters and activation
//!   storage for an [`ExecMode`]: `Training` keeps the classic
//!   blob-per-node layout with gradients and momentum, `Inference`
//!   allocates *no* gradient/momentum/scratch state and shares
//!   activation buffers between nodes whose lifetimes do not overlap
//!   (a liveness scan over the forward schedule —
//!   [`crate::pipeline::fwd_last_use`]).
//!
//! `train_step` then executes the ETG's forward, backward and update
//! schedules and applies SGD with momentum — the full training loop of
//! Section III-C; `forward` alone serves inference.
//!
//! Split nodes are resolved as aliases: distribution is free forward,
//! and the gradient reduction falls out of the accumulate-into-blob
//! convention every backward operator follows.

use crate::error::Error;
use crate::model::ModelSpec;
use crate::ops;
use crate::pipeline::{compile, fwd_last_use, Etg, PassKind};
use crate::spec::{NodeSpec, PoolKind};
use crate::state::StateDict;
use conv::fuse::FuseCtx;
use conv::{ConvLayer, FusedOp, LayerOptions, PlanCache, Precision};
use parallel::ThreadPool;
use std::collections::HashMap;
use std::sync::Arc;
use tensor::rng::SplitMix64;
use tensor::vnni::I8_QMAX;
use tensor::{BlockedActs, BlockedFilter, VnniActs, VnniFilter, VLEN};

/// Epsilon of every batch-norm node.
const BN_EPS: f32 = 1e-5;

/// Exponential-moving-average factor for the BN running statistics
/// accumulated during training (the usual framework default).
const BN_MOMENTUM: f32 = 0.1;

/// How a network's storage is materialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Activations + gradients + momentum: the full training loop.
    #[default]
    Training,
    /// Forward-only serving: no gradient/momentum/scratch allocation,
    /// activation buffers shared via the liveness memory plan.
    Inference,
}

/// Activation (+ gradient, in training mode) storage for one slot.
struct Blob {
    act: BlockedActs,
    grad: Option<BlockedActs>,
}

/// Parameter with (training-only) gradient and momentum (flat f32).
struct Param {
    w: Vec<f32>,
    dw: Vec<f32>,
    vel: Vec<f32>,
}

impl Param {
    fn new(mode: ExecMode, len: usize) -> Self {
        match mode {
            ExecMode::Training => {
                Self { w: vec![0.0; len], dw: vec![0.0; len], vel: vec![0.0; len] }
            }
            ExecMode::Inference => Self { w: vec![0.0; len], dw: Vec::new(), vel: Vec::new() },
        }
    }

    fn training_bytes(&self) -> usize {
        (self.dw.len() + self.vel.len()) * 4
    }
}

/// Training-only state of a convolution node.
struct ConvTrainState {
    dw: BlockedFilter,
    w_vel: BlockedFilter,
    /// masked dO scratch (saved for the update pass)
    dout_masked: BlockedActs,
    /// dI scratch (accumulated into the bottom's grad)
    di_scratch: BlockedActs,
}

/// Inference-only folded-BN state of a convolution node: the weights
/// with `gamma/sqrt(running_var+eps)` folded in and the per-channel
/// bias `beta − gamma·running_mean/sqrt(running_var+eps)`. Re-derived
/// by [`Network::refold`] from the raw conv weights and the target
/// BN's parameters — which stay authoritative, so the state dict is
/// unaffected and a `load_state_dict` transparently refreshes the
/// fold.
struct FoldedConv {
    /// The BN node whose parameters fold into this convolution.
    bn: usize,
    /// Alias-resolved owner of the folded BN's residual blob, if any.
    eltwise: Option<usize>,
    /// Folded weights (raw weights × per-output-channel scale).
    w: BlockedFilter,
    /// Folded per-channel bias, padded to whole SIMD blocks (padding
    /// lanes kept at 0 so the fused apply preserves the zero-lane
    /// invariant).
    bias: Vec<f32>,
}

/// Per-conv-node int8 execution state, re-derived by `requantize` from
/// the current (folded) f32 weights and the input blob's per-channel
/// absolute-maximum estimate. A conv node carries one iff the network
/// runs at [`Precision::Int8`] *and* its input amax is known (derived
/// from BN parameters or measured by calibration) — otherwise the node
/// falls back to its f32 plan. Every blob between nodes stays plain
/// f32 (requantized in the producer's APPLY); a blob with an int8
/// consumer additionally gets an int16 image, see [`ImagePlan`].
struct QuantState {
    /// int8 weights with the input scales pre-folded per channel.
    wq: VnniFilter,
    /// Per-output-channel requant multiplier (`kb·VLEN` lanes).
    mult: Vec<f32>,
    /// All-zero bias for plans whose f32 fuse carries no bias source:
    /// the quantized plan still runs a bias-bearing APPLY (the requant
    /// pass must visit every tile), so a neutral vector stands in.
    zero_bias: Option<Vec<f32>>,
}

/// The int16 image of an owner node's blob — what int8 convolutions
/// read instead of the f32 tensor. A node carries one iff an int8
/// convolution consumes its blob: the scales are a property of the
/// blob, so one pooled pass right after the node executes quantizes it
/// for however many convolutions read it. Rebuilt by `requantize`.
struct ImagePlan {
    /// Index into `Network::images`: buffers are shared between blobs
    /// of one geometry whose image lifetimes (producer → last int8
    /// consumer) do not overlap.
    buf: usize,
    /// Per-channel quantization factor `127/amax` (1.0 for degenerate
    /// all-zero channels — safe, never NaN/inf).
    inv_sx: Vec<f32>,
}

#[allow(dead_code)]
// eltwise indices / dims kept for introspection
// One LayerState exists per network layer and they live in a Vec for
// the network's lifetime; boxing the Conv payload would only add an
// indirection on the training hot path.
#[allow(clippy::large_enum_variant)]
enum LayerState {
    Input,
    Conv {
        /// Shared plan handle (deduped through the [`PlanCache`]).
        layer: Arc<ConvLayer>,
        w: BlockedFilter,
        bias: Option<Param>,
        relu: bool,
        eltwise: Option<usize>,
        /// `None` in inference mode — the zero-gradient-allocation
        /// invariant the serving path depends on.
        train: Option<ConvTrainState>,
        /// `Some` when the inference fusion pass folded a BN into this
        /// convolution (never in training mode).
        folded: Option<Box<FoldedConv>>,
    },
    Bn {
        gamma: Param,
        beta: Param,
        saved: ops::BnSaved,
        /// EMA of the per-channel batch means seen during training
        /// (persisted through the state dict; groundwork for
        /// frozen-stats inference).
        running_mean: Vec<f32>,
        /// EMA of the per-channel batch variances (initialized to 1).
        running_var: Vec<f32>,
        relu: bool,
        eltwise: Option<usize>,
    },
    Pool {
        kind: PoolKind,
        size: usize,
        stride: usize,
        pad: usize,
        argmax: Vec<u32>,
    },
    Gap,
    Fc {
        w: Param,
        b: Param,
        in_dim: usize,
        out_dim: usize,
    },
    SoftmaxLoss {
        probs: Vec<f32>,
        classes: usize,
    },
    Split,
    Concat,
}

/// Metrics of one training step.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Top-1 accuracy on the minibatch.
    pub top1: f32,
}

/// One `Conv → Bn (→ eltwise-add → ReLU)` subgraph the inference
/// fusion pass rewrites into a single fused convolution: the BN's
/// frozen statistics fold into the conv's weights and a per-channel
/// bias, and the BN's residual add / ReLU ride along in the conv's
/// cache-hot APPLY step.
#[derive(Clone, Copy, Debug)]
struct FoldSpec {
    /// The BN node folded away (its parameters stay authoritative —
    /// the folded weights re-derive from them on every state load).
    bn: usize,
    /// ReLU of the folded BN.
    relu: bool,
    /// Alias-resolved owner of the BN's residual blob, if any.
    eltwise: Option<usize>,
}

/// Output of the plan phase: everything shape-dependent, including
/// the (cached) convolution plans, but **no** tensor storage.
struct GraphPlan {
    etg: Etg,
    /// Alias resolution: node → node owning its output blob (Split
    /// nodes alias their bottom; in inference mode, folded BN nodes
    /// alias their producer convolution).
    alias: Vec<usize>,
    /// Inferred (c, h, w) per node.
    shapes: Vec<(usize, usize, usize)>,
    /// Physical padding of each owner node's output blob (consumer
    /// padding for non-conv producers, the folded BN's consumer
    /// padding for fused convolutions, 0 otherwise).
    opad: Vec<usize>,
    /// One shared plan per convolution node.
    conv_plans: Vec<Option<Arc<ConvLayer>>>,
    /// Fusion rewrite per convolution node (inference mode only).
    fold: Vec<Option<FoldSpec>>,
    /// Numeric execution mode every conv plan was built for.
    precision: Precision,
    input_node: usize,
    loss_node: usize,
    classes: usize,
}

/// Plan phase: compile the topology, infer geometry, decide the
/// inference BN folds, and obtain every convolution plan through
/// `cache` (one JIT + dryrun per *distinct* normalized layer, shared
/// handles for repeats).
#[allow(clippy::too_many_arguments)]
fn plan_graph(
    nl: &[NodeSpec],
    minibatch: usize,
    pool: &Arc<ThreadPool>,
    cache: &PlanCache,
    mode: ExecMode,
    fold_bn: bool,
    tune: conv::TuneLevel,
    precision: Precision,
) -> GraphPlan {
    let threads = pool.nthreads();
    let etg = compile(nl);
    let nodes = &etg.eng.nodes;
    let index: HashMap<String, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.name().to_string(), i)).collect();

    // alias resolution for Split nodes
    let mut alias: Vec<usize> = (0..nodes.len()).collect();
    for (i, n) in nodes.iter().enumerate() {
        if let NodeSpec::Split { bottom, .. } = n {
            alias[i] = alias[index[bottom]];
        }
    }

    // shape inference: (c, h, w) per node
    let mut shapes: Vec<(usize, usize, usize)> = Vec::with_capacity(nodes.len());
    for n in nodes.iter() {
        let dim_of = |name: &str| shapes[alias[index[name]]];
        let sh = match n {
            NodeSpec::Input { c, h, w, .. } => (*c, *h, *w),
            NodeSpec::Conv { bottom, k, r, s, stride, pad, .. } => {
                let (_, h, w) = dim_of(bottom);
                ((*k), (h + 2 * pad - r) / stride + 1, (w + 2 * pad - s) / stride + 1)
            }
            NodeSpec::Bn { bottom, .. } => dim_of(bottom),
            NodeSpec::Pool { bottom, size, stride, pad, .. } => {
                let (c, h, w) = dim_of(bottom);
                (c, (h + 2 * pad - size) / stride + 1, (w + 2 * pad - size) / stride + 1)
            }
            NodeSpec::GlobalAvgPool { bottom, .. } => {
                let (c, _, _) = dim_of(bottom);
                (c, 1, 1)
            }
            NodeSpec::Fc { k, .. } => (*k, 1, 1),
            NodeSpec::SoftmaxLoss { bottom, .. } => dim_of(bottom),
            NodeSpec::Concat { bottoms, .. } => {
                let (mut c, mut h, mut w) = (0, 0, 0);
                for b in bottoms {
                    let (cc, hh, ww) = dim_of(b);
                    c += cc;
                    h = hh;
                    w = ww;
                }
                (c, h, w)
            }
            NodeSpec::Split { bottom, .. } => dim_of(bottom),
        };
        shapes.push(sh);
    }

    // padding inference: blob pad = max pad over conv consumers
    let mut blob_pad = vec![0usize; nodes.len()];
    for n in nodes.iter() {
        if let NodeSpec::Conv { bottom, pad, .. } = n {
            let owner = alias[index[bottom.as_str()]];
            blob_pad[owner] = blob_pad[owner].max(*pad);
        }
    }
    // conv outputs must stay pad-0 (they feed BN/pool/eltwise in the
    // supported topologies); padded consumers read BN/pool outputs
    for (i, n) in nodes.iter().enumerate() {
        if matches!(n, NodeSpec::Conv { .. }) {
            assert_eq!(
                blob_pad[i],
                0,
                "conv '{}' output feeds a padded conv directly; insert a bn node",
                n.name()
            );
        }
    }

    // physical padding of each node's own output blob: convs, GAP and
    // FC produce pad-0 tensors, the rest inherit the consumer padding
    // (folds below lift a fused conv's pad to its BN's)
    let mut opad: Vec<usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| match n {
            NodeSpec::Conv { .. } | NodeSpec::GlobalAvgPool { .. } | NodeSpec::Fc { .. } => 0,
            _ => blob_pad[i],
        })
        .collect();

    // the inference fusion pass (Section II-G taken to its logical
    // end): a BN whose bottom is a *pure* convolution it exclusively
    // consumes folds into that convolution — frozen stats become
    // folded weights + a per-channel bias, the BN's residual/ReLU ride
    // in the conv's APPLY step, and the BN node aliases the conv's
    // blob (its standalone full-tensor pass disappears). A fan-out
    // conv is never folded: the NL extender routes shared blobs
    // through a Split, so the BN's bottom is then not a Conv node.
    let mut fold: Vec<Option<FoldSpec>> = vec![None; nodes.len()];
    if mode == ExecMode::Inference && fold_bn {
        for (j, n) in nodes.iter().enumerate() {
            let NodeSpec::Bn { bottom, relu, eltwise, .. } = n else { continue };
            let bi = index[bottom.as_str()];
            let NodeSpec::Conv { bias, relu: conv_relu, eltwise: conv_elt, .. } = &nodes[bi] else {
                continue;
            };
            // only a conv with no fused ops of its own can absorb the
            // BN's affine + post-ops
            if *bias || *conv_relu || conv_elt.is_some() {
                continue;
            }
            if let Some(e) = eltwise {
                let ro = alias[index[e.as_str()]];
                // the residual must already exist when the *conv*
                // executes (the fused apply reads it there, earlier
                // than the BN's original schedule slot) and must share
                // the merged blob's physical geometry
                if ro >= bi || opad[ro] != blob_pad[j] {
                    continue;
                }
            }
            fold[bi] = Some(FoldSpec {
                bn: j,
                relu: *relu,
                eltwise: eltwise.as_ref().map(|e| alias[index[e.as_str()]]),
            });
            // re-point the BN — and any Split already aliased to it —
            // at the convolution's blob
            for a in alias.iter_mut() {
                if *a == j {
                    *a = bi;
                }
            }
            // the merged blob carries the BN's consumer padding
            opad[bi] = blob_pad[j];
        }
    }

    // convolution plans through the cache (the JIT + dryrun phase)
    let mut conv_plans: Vec<Option<Arc<ConvLayer>>> = Vec::with_capacity(nodes.len());
    let mut input_node = usize::MAX;
    let mut loss_node = usize::MAX;
    let mut classes = 0usize;
    for (i, n) in nodes.iter().enumerate() {
        let plan = match n {
            NodeSpec::Input { .. } => {
                input_node = i;
                None
            }
            NodeSpec::SoftmaxLoss { bottom, .. } => {
                loss_node = i;
                classes = shapes[alias[index[bottom.as_str()]]].0;
                None
            }
            NodeSpec::Conv { bottom, k, r, s, stride, pad, bias, relu, eltwise, .. } => {
                let bi = alias[index[bottom.as_str()]];
                let (bc, bh, bw) = shapes[bi];
                let shape =
                    tensor::ConvShape::new(minibatch, bc, *k, bh, bw, *r, *s, *stride, *pad);
                let fuse = if let Some(f) = fold[i] {
                    // a folded BN always contributes its bias shift;
                    // its residual add / ReLU complete the variant
                    match (f.relu, f.eltwise.is_some()) {
                        (false, false) => FusedOp::Bias,
                        (true, false) => FusedOp::BiasRelu,
                        (false, true) => FusedOp::BiasEltwise,
                        (true, true) => FusedOp::BiasEltwiseRelu,
                    }
                } else {
                    match (bias, relu, eltwise.is_some()) {
                        (true, false, false) => FusedOp::Bias,
                        (false, true, false) => FusedOp::Relu,
                        (true, true, false) => FusedOp::BiasRelu,
                        (false, false, true) => FusedOp::Eltwise,
                        (false, true, true) => FusedOp::EltwiseRelu,
                        (true, false, true) => FusedOp::BiasEltwise,
                        (true, true, true) => FusedOp::BiasEltwiseRelu,
                        (false, false, false) => FusedOp::None,
                    }
                };
                Some(
                    cache.get_or_build(
                        shape,
                        LayerOptions::new(threads)
                            .with_fuse(fuse)
                            // int8: every conv also plans a fused
                            // quantized forward, so a later calibration
                            // can widen coverage without replanning
                            .with_precision(precision)
                            // the *physical* padding of the input blob
                            // (for a folded producer, the merged blob
                            // carries its BN's consumer padding)
                            .with_input_pad(opad[bi])
                            .with_dout_pad(0)
                            .with_out_pad(opad[i])
                            // autotuning: the cache memoizes winners per
                            // (shape, machine, level), so repeated shapes
                            // search once; Measured micro-benches on the
                            // network's own pool
                            .with_tune(tune)
                            .with_pool(Arc::clone(pool)),
                    ),
                )
            }
            _ => None,
        };
        conv_plans.push(plan);
    }
    assert!(input_node != usize::MAX, "topology has no input node");
    assert!(loss_node != usize::MAX, "topology has no softmaxloss node");
    GraphPlan {
        etg,
        alias,
        shapes,
        opad,
        conv_plans,
        fold,
        precision,
        input_node,
        loss_node,
        classes,
    }
}

impl GraphPlan {
    /// Physical padding of node `i`'s own output blob.
    fn out_pad(&self, i: usize) -> usize {
        self.opad[i]
    }

    /// Whether node `i` owns an activation blob (Splits alias their
    /// bottom, the loss head reads its bottom in place).
    fn owns_blob(&self, i: usize) -> bool {
        !matches!(self.etg.eng.nodes[i], NodeSpec::Split { .. } | NodeSpec::SoftmaxLoss { .. })
    }
}

/// Exact physical geometry `(n, c, h, w, pad)` of an activation buffer.
type Geom = (usize, usize, usize, usize, usize);

/// Buffer indices handed out per exact geometry and recycled through a
/// free list — the allocator both liveness scans (f32 slots, int16
/// images) run on.
#[derive(Default)]
struct GeomPool {
    /// Geometry of every buffer minted so far, by index.
    geoms: Vec<Geom>,
    free: HashMap<Geom, Vec<usize>>,
}

impl GeomPool {
    /// A free buffer of this geometry, or a new index.
    fn take(&mut self, geom: Geom) -> usize {
        self.free.get_mut(&geom).and_then(|v| v.pop()).unwrap_or_else(|| {
            self.geoms.push(geom);
            self.geoms.len() - 1
        })
    }

    /// Return buffer `idx` for reuse.
    fn release(&mut self, idx: usize) {
        self.free.entry(self.geoms[idx]).or_default().push(idx);
    }
}

/// Inference memory plan: walk the forward schedule, hand every
/// blob-owning node a slot, and return a node's slot to the free pool
/// of its geometry once its last consumer has executed — so e.g. the
/// early-stage 56×56 activations of ResNet-50 back many later nodes.
///
/// Reuse is keyed on the exact `(n, c, h, w, pad)` geometry. Every
/// producer fully overwrites its logical interior and nothing writes
/// the physical padding border, so a recycled buffer's border stays
/// zero — the invariant padded convolutions rely on.
///
/// A dying input is released only *after* the current node's output
/// slot is taken, so an operator never reads and writes one buffer.
/// The network-input node's slot is pinned (never recycled): a batch
/// loaded through `input_mut` stays valid across repeated forwards,
/// the same contract training mode provides.
fn assign_slots_inference(plan: &GraphPlan, minibatch: usize) -> (Vec<usize>, Vec<Option<Blob>>) {
    let nodes_len = plan.etg.eng.nodes.len();
    let last = fwd_last_use(&plan.etg, &plan.alias);
    let geom_of = |i: usize| -> Geom {
        let (c, h, w) = plan.shapes[i];
        (minibatch, c, h, w, plan.out_pad(i))
    };
    let mut slot_of = vec![usize::MAX; nodes_len];
    let mut slots = GeomPool::default();
    for (pos, t) in plan.etg.fwd.iter().enumerate() {
        let node = t.node;
        if plan.alias[node] != node || !plan.owns_blob(node) {
            // alias nodes and the loss head own no storage; their
            // inputs still die here, so fall through to the release
        } else {
            slot_of[node] = slots.take(geom_of(node));
        }
        // release every distinct input blob whose last use is here
        // (except the pinned network-input slot)
        let mut dying: Vec<usize> = plan.etg.eng.preds[node]
            .iter()
            .map(|&p| plan.alias[p])
            .filter(|&o| o != plan.input_node && last[o] == pos && slot_of[o] != usize::MAX)
            .collect();
        dying.sort_unstable();
        dying.dedup();
        for o in dying {
            slots.release(slot_of[o]);
        }
    }
    let blobs = slots
        .geoms
        .into_iter()
        .map(|(n, c, h, w, pad)| {
            Some(Blob { act: BlockedActs::zeros(n, c, h, w, pad), grad: None })
        })
        .collect();
    (slot_of, blobs)
}

/// A compiled network (trainable or forward-only, per [`ExecMode`]).
#[allow(dead_code)] // loss_node kept for graph introspection
pub struct Network {
    pool: Arc<ThreadPool>,
    etg: Etg,
    mode: ExecMode,
    /// Blob storage per slot. Training mode uses one slot per owner
    /// node; inference mode shares slots between nodes with disjoint
    /// forward lifetimes (the liveness memory plan).
    blobs: Vec<Option<Blob>>,
    /// Owner node → slot index (usize::MAX for blob-less nodes).
    slot_of: Vec<usize>,
    /// Alias resolution: node → node owning its output blob.
    alias: Vec<usize>,
    /// Inferred logical (c, h, w) per node (state-dict geometry).
    shapes: Vec<(usize, usize, usize)>,
    layers: Vec<LayerState>,
    /// Index of the input node and the loss node.
    input_node: usize,
    loss_node: usize,
    /// Logical (c, h, w) of the input node.
    input_dims: (usize, usize, usize),
    minibatch: usize,
    /// Class count of the softmax head.
    pub classes: usize,
    labels: Vec<usize>,
    /// Numeric execution mode the conv plans were built for.
    precision: Precision,
    /// Per-node int8 state (`Some` only for quantizable convs at
    /// [`Precision::Int8`]); rebuilt by `requantize`.
    quant: Vec<Option<QuantState>>,
    /// Per-owner-node input-amax estimate derived from BN parameters
    /// (rebuilt with every `requantize`).
    derived_amax: Vec<Option<Vec<f32>>>,
    /// Per-owner-node measured amax from `calibrate_batch` forwards
    /// (max-accumulated; overrides the derived estimate).
    calibrated_amax: Vec<Option<Vec<f32>>>,
    /// `true` while a calibration forward runs: forces the f32 path so
    /// the recorded maxima describe the unquantized distribution.
    calibrating: bool,
    /// Per-owner-node int16 image (`Some` iff an int8 conv reads the
    /// node's blob); rebuilt by `requantize`.
    image_plan: Vec<Option<ImagePlan>>,
    /// int16 image storage, indexed by [`ImagePlan::buf`].
    images: Vec<VnniActs>,
}

impl Network {
    /// Compile a validated [`ModelSpec`] for a minibatch size and
    /// thread count: a private pool, a private plan cache, training
    /// mode.
    ///
    /// Malformed topologies cannot reach this point — every
    /// [`ModelSpec`] constructor validates — so the only failures left
    /// are degenerate runtime parameters ([`Error::BadInput`]).
    pub fn build(spec: &ModelSpec, minibatch: usize, threads: usize) -> Result<Self, Error> {
        if threads == 0 {
            return Err(Error::BadInput("threads must be >= 1".to_string()));
        }
        Self::build_with(
            spec,
            minibatch,
            Arc::new(ThreadPool::new(threads)),
            ExecMode::Training,
            &PlanCache::new(),
        )
    }

    /// Full-control build: a shared thread pool, an execution mode and
    /// a shared [`PlanCache`]. Serving stacks pass one pool + cache to
    /// every network they build so repeated layer shapes JIT once.
    ///
    /// In [`ExecMode::Inference`] the plan phase runs the BN fusion
    /// pass: every `Conv → Bn (→ eltwise-add → ReLU)` subgraph
    /// executes as one fused convolution with the BN's frozen
    /// statistics folded into weights and bias (see
    /// [`Self::folded_bn_count`]); BN nodes that cannot fold still
    /// normalize with frozen running statistics, so bn-graph forwards
    /// are batch-composition-independent either way.
    pub fn build_with(
        spec: &ModelSpec,
        minibatch: usize,
        pool: Arc<ThreadPool>,
        mode: ExecMode,
        cache: &PlanCache,
    ) -> Result<Self, Error> {
        let (tune, precision) = (conv::TuneLevel::Heuristic, Precision::F32);
        Self::build_quantized(spec, minibatch, pool, mode, cache, true, tune, precision)
    }

    /// [`Self::build_with`] with every plan-time decision explicit.
    /// `fold_bn = false` keeps every BN a standalone frozen-stats pass
    /// — the unfused reference the fused executor is benchmarked and
    /// tested against (ignored in training mode). Every convolution's
    /// blocking is chosen at `tune` level (see [`conv::TuneLevel`]),
    /// with winners memoized in `cache`'s tuning store — replicas and
    /// repeated builds never re-tune, and [`PlanCache::load_tuning`]
    /// lets a restart skip measurement entirely.
    ///
    /// At [`Precision::Int8`] (inference mode only) every
    /// convolution plans a fused quantized forward next to its f32
    /// plan; nodes whose input-scale estimate can be derived from BN
    /// parameters execute int8 immediately, the rest fall back to f32
    /// until a [`Self::calibrate_batch`] measurement covers them.
    /// Blobs between nodes stay plain f32 either way — quantization
    /// happens on entry to a conv and requantization inside its fused
    /// APPLY, so mixed-precision graphs need no explicit cast nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn build_quantized(
        spec: &ModelSpec,
        minibatch: usize,
        pool: Arc<ThreadPool>,
        mode: ExecMode,
        cache: &PlanCache,
        fold_bn: bool,
        tune: conv::TuneLevel,
        precision: Precision,
    ) -> Result<Self, Error> {
        if minibatch == 0 {
            return Err(Error::BadInput("minibatch must be >= 1".to_string()));
        }
        if precision == Precision::Int8 && mode != ExecMode::Inference {
            return Err(Error::BadInput("int8 precision requires inference mode".to_string()));
        }
        let plan =
            plan_graph(spec.nodes(), minibatch, &pool, cache, mode, fold_bn, tune, precision);
        Ok(Self::allocate(plan, minibatch, pool, mode, spec.seed()))
    }

    /// Allocate phase: materialize parameters and activation storage
    /// for `mode` over a finished [`GraphPlan`]. `seed` drives the
    /// per-node weight-init streams.
    fn allocate(
        plan: GraphPlan,
        minibatch: usize,
        pool: Arc<ThreadPool>,
        mode: ExecMode,
        seed: u64,
    ) -> Self {
        let nodes_len = plan.etg.eng.nodes.len();
        let index: HashMap<String, usize> =
            plan.etg.eng.nodes.iter().enumerate().map(|(i, n)| (n.name().to_string(), i)).collect();

        // activation storage: one slot per owner node in training,
        // liveness-shared slots in inference
        let (slot_of, blobs) = match mode {
            ExecMode::Training => {
                let mut slot_of = vec![usize::MAX; nodes_len];
                let mut blobs: Vec<Option<Blob>> = Vec::with_capacity(nodes_len);
                for i in 0..nodes_len {
                    if plan.alias[i] == i && plan.owns_blob(i) {
                        let (c, h, w) = plan.shapes[i];
                        let pad = plan.out_pad(i);
                        slot_of[i] = blobs.len();
                        blobs.push(Some(Blob {
                            act: BlockedActs::zeros(minibatch, c, h, w, pad),
                            grad: Some(BlockedActs::zeros(minibatch, c, h, w, pad)),
                        }));
                    }
                }
                (slot_of, blobs)
            }
            ExecMode::Inference => assign_slots_inference(&plan, minibatch),
        };

        // parameters + per-node operator state. Every parameterized
        // node draws from its own RNG stream keyed on (spec seed, node
        // name): training and inference nets built from one spec carry
        // bit-identical initial weights, and a node's init no longer
        // depends on which nodes were constructed before it.
        let mut layers: Vec<LayerState> = Vec::with_capacity(nodes_len);
        for (i, n) in plan.etg.eng.nodes.iter().enumerate() {
            let index_of = |name: &str| index[name];
            let (c, _, _) = plan.shapes[i];
            let state = match n {
                NodeSpec::Input { .. } => LayerState::Input,
                NodeSpec::Conv { bottom, k, r, s, bias, relu, eltwise, .. } => {
                    let layer = Arc::clone(plan.conv_plans[i].as_ref().expect("conv planned"));
                    let bi = plan.alias[index_of(bottom.as_str())];
                    let (bc, _, _) = plan.shapes[bi];
                    let mut wt = BlockedFilter::zeros(*k, bc, *r, *s);
                    he_init_filter(&mut wt, &mut node_rng(seed, n.name()));
                    let bias_p = bias.then(|| Param::new(mode, k.next_multiple_of(VLEN)));
                    let train = (mode == ExecMode::Training).then(|| ConvTrainState {
                        dw: BlockedFilter::zeros(*k, bc, *r, *s),
                        w_vel: BlockedFilter::zeros(*k, bc, *r, *s),
                        dout_masked: layer.new_output(),
                        di_scratch: layer.new_input(),
                    });
                    let folded = plan.fold[i].map(|f| {
                        Box::new(FoldedConv {
                            bn: f.bn,
                            eltwise: f.eltwise,
                            w: BlockedFilter::zeros(*k, bc, *r, *s),
                            bias: vec![0.0; k.next_multiple_of(VLEN)],
                        })
                    });
                    LayerState::Conv {
                        layer,
                        w: wt,
                        bias: bias_p,
                        relu: *relu,
                        eltwise: eltwise.as_ref().map(|e| plan.alias[index_of(e.as_str())]),
                        train,
                        folded,
                    }
                }
                NodeSpec::Bn { relu, eltwise, .. } => {
                    let cpad = c.next_multiple_of(VLEN);
                    let mut gamma = Param::new(mode, cpad);
                    gamma.w.fill(1.0);
                    LayerState::Bn {
                        gamma,
                        beta: Param::new(mode, cpad),
                        saved: ops::BnSaved::default(),
                        running_mean: vec![0.0; cpad],
                        running_var: vec![1.0; cpad],
                        relu: *relu,
                        eltwise: eltwise.as_ref().map(|e| plan.alias[index_of(e.as_str())]),
                    }
                }
                NodeSpec::Pool { kind, size, stride, pad, .. } => LayerState::Pool {
                    kind: *kind,
                    size: *size,
                    stride: *stride,
                    pad: *pad,
                    argmax: Vec::new(),
                },
                NodeSpec::GlobalAvgPool { .. } => LayerState::Gap,
                NodeSpec::Fc { bottom, k, .. } => {
                    let (bc, _, _) = plan.shapes[plan.alias[index_of(bottom.as_str())]];
                    let (in_dim, out_dim) = (bc.next_multiple_of(VLEN), k.next_multiple_of(VLEN));
                    let mut w = Param::new(mode, in_dim * out_dim);
                    let mut rng = node_rng(seed, n.name());
                    let scale = (2.0 / in_dim as f32).sqrt();
                    for v in w.w.iter_mut() {
                        *v = rng.next_f32() * 2.0 * scale;
                    }
                    LayerState::Fc { w, b: Param::new(mode, out_dim), in_dim, out_dim }
                }
                NodeSpec::SoftmaxLoss { .. } => {
                    LayerState::SoftmaxLoss { probs: Vec::new(), classes: plan.classes }
                }
                NodeSpec::Concat { .. } => LayerState::Concat,
                NodeSpec::Split { .. } => LayerState::Split,
            };
            layers.push(state);
        }
        let input_dims = plan.shapes[plan.alias[plan.input_node]];
        let mut net = Self {
            pool,
            etg: plan.etg,
            mode,
            blobs,
            slot_of,
            alias: plan.alias,
            shapes: plan.shapes,
            layers,
            input_node: plan.input_node,
            loss_node: plan.loss_node,
            input_dims,
            minibatch,
            classes: plan.classes,
            labels: Vec::new(),
            precision: plan.precision,
            quant: (0..nodes_len).map(|_| None).collect(),
            derived_amax: vec![None; nodes_len],
            calibrated_amax: vec![None; nodes_len],
            calibrating: false,
            image_plan: (0..nodes_len).map(|_| None).collect(),
            images: Vec::new(),
        };
        // derive the folded weights/biases from the freshly
        // initialized parameters (no-op without folds)
        net.refold();
        net
    }

    /// Re-derive every folded convolution's weights and bias from the
    /// current raw conv weights and BN parameters (frozen running
    /// statistics). Called after allocation and after every
    /// [`Self::load_state_dict`], so the fused plans always execute
    /// the parameters the state dict holds.
    fn refold(&mut self) {
        for i in 0..self.layers.len() {
            let bn = match &self.layers[i] {
                LayerState::Conv { folded: Some(f), .. } => f.bn,
                _ => continue,
            };
            let (gamma, beta, mean, var) = match &self.layers[bn] {
                LayerState::Bn { gamma, beta, running_mean, running_var, .. } => {
                    (gamma.w.clone(), beta.w.clone(), running_mean.clone(), running_var.clone())
                }
                _ => unreachable!("folds target bn nodes"),
            };
            if let LayerState::Conv { w, folded: Some(f), .. } = &mut self.layers[i] {
                let kpad = f.bias.len();
                let mut scale = vec![0.0f32; kpad];
                for k in 0..kpad {
                    scale[k] = gamma[k] / (var[k] + BN_EPS).sqrt();
                    // padding lanes stay exactly 0 (canonical gamma=1,
                    // var=1, beta=mean=0 would give 0 anyway, but the
                    // zero-lane invariant deserves no rounding risk)
                    f.bias[k] = if k < w.k { beta[k] - mean[k] * scale[k] } else { 0.0 };
                }
                // blocked filter layout [Kb][Cb][R][S][c][k]: the
                // output channel of element `idx` is
                // (idx / stride_kb)·VLEN + idx % VLEN
                let stride_kb = w.stride_kb();
                for (idx, dst) in f.w.as_mut_slice().iter_mut().enumerate() {
                    *dst = w.as_slice()[idx] * scale[(idx / stride_kb) * VLEN + idx % VLEN];
                }
            }
        }
        // folded weights feed the int8 quantization — refresh it too
        // (no-op at f32 precision)
        self.requantize();
    }

    /// Derive a per-channel absolute-maximum estimate for every
    /// blob-owning node from the *current* parameters, walking the
    /// (topologically ordered) node list:
    ///
    /// * the network input is assumed normalized to `|x| <= 1`
    ///   (calibration measures the real range when that is wrong);
    /// * a BN output — standalone or folded into its producer conv —
    ///   is bounded by `|beta| + 3·|gamma|` per channel (the frozen
    ///   running statistics normalize the pre-activation to ~N(0,1));
    /// * pooling and global average pooling never increase a maximum;
    /// * concat concatenates channel ranges, a residual add sums them;
    /// * a convolution *without* a folded BN has an unknown output
    ///   range → `None`, and every consumer conv falls back to f32
    ///   until calibration covers it.
    fn derive_amax(&self) -> Vec<Option<Vec<f32>>> {
        let n = self.layers.len();
        let mut amax: Vec<Option<Vec<f32>>> = vec![None; n];
        let bn_bound = |gamma: &[f32], beta: &[f32], cpad: usize| -> Vec<f32> {
            (0..cpad).map(|c| beta[c].abs() + 3.0 * gamma[c].abs()).collect()
        };
        let add_residual = |own: Vec<f32>, res: Option<&Vec<f32>>| -> Option<Vec<f32>> {
            res.map(|r| own.iter().zip(r).map(|(a, b)| a + b).collect())
        };
        for i in 0..n {
            if self.alias[i] != i {
                continue;
            }
            let cpad = self.shapes[i].0.next_multiple_of(VLEN);
            let bottom_owner = || self.alias[self.etg.eng.preds[i][0]];
            amax[i] = match &self.layers[i] {
                LayerState::Input => Some(vec![1.0; cpad]),
                LayerState::Conv { folded: Some(f), .. } => {
                    let bound = match &self.layers[f.bn] {
                        LayerState::Bn { gamma, beta, .. } => bn_bound(&gamma.w, &beta.w, cpad),
                        _ => unreachable!("folds target bn nodes"),
                    };
                    match f.eltwise {
                        Some(ro) => add_residual(bound, amax[ro].as_ref()),
                        None => Some(bound),
                    }
                }
                LayerState::Conv { folded: None, .. } => None,
                LayerState::Bn { gamma, beta, eltwise, .. } => {
                    let bound = bn_bound(&gamma.w, &beta.w, cpad);
                    match eltwise {
                        Some(ro) => add_residual(bound, amax[*ro].as_ref()),
                        None => Some(bound),
                    }
                }
                LayerState::Pool { .. } | LayerState::Gap => amax[bottom_owner()].clone(),
                LayerState::Concat => {
                    let mut cat = Vec::with_capacity(cpad);
                    let mut ok = true;
                    for &b in &self.etg.eng.preds[i] {
                        let o = self.alias[b];
                        match &amax[o] {
                            Some(a) => cat.extend_from_slice(&a[..self.shapes[o].0]),
                            None => ok = false,
                        }
                    }
                    cat.resize(cpad, 0.0);
                    ok.then_some(cat)
                }
                _ => None,
            };
        }
        amax
    }

    /// Rebuild every quantizable conv node's int8 state from the
    /// current folded f32 weights and the effective per-channel input
    /// amax (measured calibration maxima override the derived
    /// estimates). Runs at the end of [`Self::refold`], so allocation,
    /// `load_state_dict` and a hot weight reload all leave the int8
    /// weights consistent with the f32 parameters. No-op at f32.
    fn requantize(&mut self) {
        if self.precision != Precision::Int8 {
            return;
        }
        self.derived_amax = self.derive_amax();
        self.image_plan.iter_mut().for_each(|p| *p = None);
        for i in 0..self.layers.len() {
            self.quant[i] = None;
            let LayerState::Conv { layer, w, bias, folded, .. } = &self.layers[i] else { continue };
            let Some(qplan) = layer.quant_plan() else { continue };
            let bi = self.alias[self.etg.eng.preds[i][0]];
            let amax = self.calibrated_amax[bi].as_ref().or(self.derived_amax[bi].as_ref());
            let Some(amax) = amax else { continue };
            // s_x = amax/127 per input channel; a degenerate (all-zero
            // or non-finite) channel gets the neutral scale 1.0 — its
            // activations are 0 (or garbage no scale could save), and
            // the scheme stays NaN- and divide-free
            let s_x: Vec<f32> = amax
                .iter()
                .map(|&a| if a > 0.0 && a.is_finite() { a / I8_QMAX } else { 1.0 })
                .collect();
            let wsrc: &BlockedFilter = match folded {
                Some(f) => &f.w,
                None => w,
            };
            let (wq, mult) = VnniFilter::quantize_per_k(wsrc, &s_x);
            let zero_bias = (qplan.fused().needs_bias() && folded.is_none() && bias.is_none())
                .then(|| vec![0.0f32; wsrc.k.next_multiple_of(VLEN)]);
            self.quant[i] = Some(QuantState { wq, mult, zero_bias });
            // the first int8 consumer plans its bottom blob's image
            self.image_plan[bi].get_or_insert_with(|| ImagePlan {
                buf: usize::MAX,
                inv_sx: s_x.iter().map(|&s| 1.0 / s).collect(),
            });
        }
        self.plan_images();
    }

    /// Give every planned image its storage: the liveness scan of
    /// `assign_slots_inference` over *image* lifetimes — born right
    /// after the owner executes, dead once its last int8 consumer has —
    /// so a blob kept alive for a residual join does not pin an image,
    /// and a conv's output image may take over the buffer its input
    /// image dies in. Every pass rewrites a whole image (a zero f32
    /// border quantizes to zeros), so a recycled buffer carries nothing
    /// over.
    fn plan_images(&mut self) {
        let bottom = |node: usize| self.alias[self.etg.eng.preds[node][0]];
        let mut last_use = vec![0usize; self.layers.len()];
        for (pos, t) in self.etg.fwd.iter().enumerate() {
            if self.quant[t.node].is_some() {
                last_use[bottom(t.node)] = pos;
            }
        }
        let geom_of = |node: usize| -> Geom {
            let a = &self.blobs[self.slot_of[node]].as_ref().expect("blobs are in place").act;
            (a.n, a.c, a.h, a.w, a.pad)
        };
        let mut bufs = GeomPool::default();
        for (pos, t) in self.etg.fwd.iter().enumerate() {
            if self.quant[t.node].is_some() && last_use[bottom(t.node)] == pos {
                bufs.release(self.image_plan[bottom(t.node)].as_ref().expect("planned above").buf);
            }
            if let Some(plan) = &mut self.image_plan[t.node] {
                plan.buf = bufs.take(geom_of(t.node));
            }
        }
        self.images =
            bufs.geoms.iter().map(|&(n, c, h, w, pad)| VnniActs::zeros(n, c, h, w, pad)).collect();
    }

    /// Run one calibration forward over the currently loaded input
    /// batch: the f32 path executes end to end while the per-channel
    /// absolute maximum of every blob is recorded (max-accumulated
    /// across calls, so several batches sharpen one profile), then the
    /// int8 states are rebuilt against the measured ranges. Only
    /// meaningful — and only allowed — at [`Precision::Int8`].
    pub fn calibrate_batch(&mut self) {
        assert_eq!(self.precision, Precision::Int8, "calibration needs an int8-precision network");
        if self.labels.len() != self.minibatch {
            self.labels = vec![0; self.minibatch];
        }
        self.calibrating = true;
        for pos in 0..self.etg.fwd.len() {
            let node = self.etg.fwd[pos].node;
            self.forward_node(node);
            let owner = self.alias[node];
            if self.slot_of[owner] != usize::MAX {
                self.record_amax(owner);
            }
        }
        self.calibrating = false;
        self.requantize();
    }

    /// Max-accumulate the per-channel |activation| maxima of `owner`'s
    /// blob into the calibration profile.
    fn record_amax(&mut self, owner: usize) {
        let blob = &self.blobs[self.slot_of[owner]].as_ref().expect("blob in place").act;
        let cpad = blob.cb * VLEN;
        let entry = self.calibrated_amax[owner].get_or_insert_with(|| vec![0.0; cpad]);
        // the `(n, cb)` chunks in storage order; the zero border inside
        // a chunk can never raise a maximum
        for (i, chunk) in blob.as_slice().chunks_exact(blob.stride_cb()).enumerate() {
            let amax = &mut entry[i % blob.cb * VLEN..][..VLEN];
            for px in chunk.chunks_exact(VLEN) {
                for (a, x) in amax.iter_mut().zip(px) {
                    if x.abs() > *a {
                        *a = x.abs();
                    }
                }
            }
        }
    }

    /// Number of trainable parameters (logical, without lane padding).
    pub fn param_count(&self) -> usize {
        let mut total = 0usize;
        for (i, l) in self.layers.iter().enumerate() {
            match l {
                LayerState::Conv { w, bias, .. } => {
                    total += w.k * w.c * w.r * w.s;
                    if bias.is_some() {
                        total += w.k;
                    }
                    let _ = i;
                }
                LayerState::Bn { gamma, .. } => total += 2 * gamma.w.len(),
                LayerState::Fc { w, b, .. } => total += w.w.len() + b.w.len(),
                _ => {}
            }
        }
        total
    }

    /// Gradient bytes exchanged per step under data parallelism (the
    /// allreduce payload of Fig. 9).
    pub fn gradient_bytes(&self) -> f64 {
        self.param_count() as f64 * 4.0
    }

    /// The mode the network's storage was materialized for.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Number of gradient blobs currently allocated (0 in inference).
    pub fn gradient_blob_count(&self) -> usize {
        self.blobs.iter().flatten().filter(|b| b.grad.is_some()).count()
    }

    /// Bytes of training-only state: gradient blobs, weight gradients,
    /// momentum and backward scratch. Exactly 0 in inference mode.
    pub fn training_state_bytes(&self) -> usize {
        let mut total = 0usize;
        for b in self.blobs.iter().flatten() {
            if let Some(g) = &b.grad {
                total += g.as_slice().len() * 4;
            }
        }
        for l in &self.layers {
            match l {
                LayerState::Conv { bias, train, .. } => {
                    if let Some(t) = train {
                        total += (t.dw.as_slice().len() + t.w_vel.as_slice().len()) * 4;
                        total +=
                            (t.dout_masked.as_slice().len() + t.di_scratch.as_slice().len()) * 4;
                    }
                    if let Some(b) = bias {
                        total += b.training_bytes();
                    }
                }
                LayerState::Bn { gamma, beta, .. } => {
                    total += gamma.training_bytes() + beta.training_bytes();
                }
                LayerState::Fc { w, b, .. } => total += w.training_bytes() + b.training_bytes(),
                _ => {}
            }
        }
        total
    }

    /// Activation slots allocated (inference shares slots between
    /// nodes with disjoint lifetimes, so this is below the node count).
    pub fn activation_slot_count(&self) -> usize {
        self.blobs.len()
    }

    /// Bytes of activation storage: the f32 slots plus the int16 images
    /// int8 convolutions read.
    pub fn activation_bytes(&self) -> usize {
        let blobs: usize = self.blobs.iter().flatten().map(|b| b.act.as_slice().len() * 4).sum();
        let images: usize = self.images.iter().map(|q| q.as_slice().len() * 2).sum();
        blobs + images
    }

    /// Softmax probabilities of the last forward pass, one padded row
    /// of `cb·VLEN` lanes per sample (the first [`Self::classes`] of
    /// each row are the real classes). Empty before the first forward.
    pub fn probabilities(&self) -> &[f32] {
        if let LayerState::SoftmaxLoss { probs, .. } = &self.layers[self.loss_node] {
            probs
        } else {
            unreachable!("loss node is a softmax")
        }
    }

    /// Mutable access to the input activation (fill with a batch).
    ///
    /// Valid in both modes: the inference memory plan pins the input
    /// node's slot, so a loaded batch stays intact across repeated
    /// `forward` calls exactly as in training mode.
    pub fn input_mut(&mut self) -> &mut BlockedActs {
        let slot = self.slot_of[self.alias[self.input_node]];
        &mut self.blobs[slot].as_mut().unwrap().act
    }

    /// The minibatch size the network was compiled for.
    pub fn minibatch(&self) -> usize {
        self.minibatch
    }

    /// Logical `(c, h, w)` of the network's input node — together with
    /// [`Self::minibatch`] this is everything a batching front-end
    /// needs to slice client payloads into samples.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        self.input_dims
    }

    /// Load `count` dense NCHW f32 samples into batch positions
    /// `0..count` and zero the rest — the safe way to serve a partial
    /// batch (`count < minibatch`): unused tail positions, SIMD lane
    /// padding and the physical zero border all hold the value the
    /// kernels assume regardless of what the previous batch left
    /// behind.
    ///
    /// `samples` must hold exactly `count × c × h × w` elements with
    /// `count <= minibatch`.
    pub fn load_input_nchw(&mut self, samples: &[f32], count: usize) {
        let (c, h, w) = self.input_dims;
        assert!(count >= 1 && count <= self.minibatch, "count must be in 1..=minibatch");
        assert_eq!(samples.len(), count * c * h * w, "samples must be count × c × h × w NCHW f32");
        let minibatch = self.minibatch;
        let input = self.input_mut();
        // only the unloaded tail needs clearing: positions `0..count`
        // are fully overwritten below, and the lane padding / physical
        // border are zeroed at allocation and never written (the blob
        // is pinned — nothing else touches it). The batch dimension is
        // outermost in the blocked layout, so the tail is one slice.
        if count < minibatch {
            let per_sample = input.as_slice().len() / minibatch;
            input.as_mut_slice()[count * per_sample..].fill(0.0);
        }
        for n in 0..count {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        input.set(n, ci, hi, wi, samples[((n * c + ci) * h + hi) * w + wi]);
                    }
                }
            }
        }
    }

    /// Set the labels the next `forward` scores loss/top-1 against.
    pub fn set_labels(&mut self, labels: &[usize]) {
        assert_eq!(labels.len(), self.minibatch);
        self.labels = labels.to_vec();
    }

    /// One full training step on (already loaded) input + labels.
    pub fn train_step(&mut self, labels: &[usize], lr: f32, momentum: f32) -> StepStats {
        assert_eq!(self.mode, ExecMode::Training, "train_step needs a Training-mode network");
        assert_eq!(labels.len(), self.minibatch);
        self.labels = labels.to_vec();
        let stats = self.forward();
        self.backward();
        self.update();
        self.sgd(lr, momentum);
        stats
    }

    /// Forward pass only (inference); returns loss/top-1 against the
    /// last set labels (zeros if never set).
    pub fn forward(&mut self) -> StepStats {
        if self.labels.len() != self.minibatch {
            self.labels = vec![0; self.minibatch];
        }
        let mut out = StepStats { loss: 0.0, top1: 0.0 };
        for pos in 0..self.etg.fwd.len() {
            let t = self.etg.fwd[pos];
            debug_assert_eq!(t.pass, PassKind::Fwd);
            if let Some(s) = self.forward_node(t.node) {
                out = s;
            }
            self.quantize_image(t.node);
        }
        out
    }

    /// Quantize `node`'s freshly written blob into its int16 image on
    /// the network's pool — once for all of its int8 consumers; a no-op
    /// for blobs no int8 convolution reads.
    fn quantize_image(&mut self, node: usize) {
        let Some(plan) = &self.image_plan[node] else { return };
        let blob = self.blobs[self.slot_of[node]].as_ref().expect("blob in place");
        ops::quantize_fwd(&self.pool, &blob.act, &plan.inv_sx, &mut self.images[plan.buf]);
    }

    fn take_blob(&mut self, node: usize) -> Blob {
        self.blobs[self.slot_of[self.alias[node]]].take().expect("blob taken twice")
    }

    fn put_blob(&mut self, node: usize, b: Blob) {
        self.blobs[self.slot_of[self.alias[node]]] = Some(b);
    }

    /// Take `node`'s first bottom blob and its own output blob.
    fn take_io(&mut self, node: usize) -> (usize, Blob, Blob) {
        let b0 = self.etg.eng.preds[node][0];
        (b0, self.take_blob(b0), self.take_blob(node))
    }

    /// Return what [`Self::take_io`] took.
    fn put_io(&mut self, node: usize, b0: usize, bot: Blob, own: Blob) {
        self.put_blob(b0, bot);
        self.put_blob(node, own);
    }

    /// Take `node`'s residual (second-bottom) blob — `None` when it has
    /// none or the residual shares the first bottom `b0`'s storage.
    fn take_residual(&mut self, node: usize, b0: usize) -> Option<(usize, Blob)> {
        let b1 = *self.etg.eng.preds[node].get(1)?;
        (self.alias[b1] != self.alias[b0]).then(|| (b1, self.take_blob(b1)))
    }

    fn forward_node(&mut self, node: usize) -> Option<StepStats> {
        // matched without bindings: the arms re-borrow what they need
        // around taking blobs out of `self`
        match self.layers[node] {
            LayerState::Input | LayerState::Split => None,
            LayerState::Conv { .. } => {
                self.forward_conv(node);
                None
            }
            LayerState::Bn { .. } => {
                // a BN folded into its producer convolution already
                // executed inside the conv's fused APPLY step — its
                // schedule slot is a no-op (the node aliases the
                // conv's blob)
                if self.alias[node] != node {
                    return None;
                }
                let (b0, bot, mut own) = self.take_io(node);
                let res = self.take_residual(node, b0);
                let training = self.mode == ExecMode::Training;
                let LayerState::Bn { gamma, beta, saved, running_mean, running_var, relu, .. } =
                    &mut self.layers[node]
                else {
                    unreachable!("matched a bn node above")
                };
                if training {
                    ops::bn_fwd(
                        &self.pool,
                        &bot.act,
                        &gamma.w,
                        &beta.w,
                        BN_EPS,
                        *relu,
                        res.as_ref().map(|(_, b)| &b.act),
                        &mut own.act,
                        saved,
                    );
                    // accumulate the running statistics every
                    // training-mode forward — the EMAs the
                    // frozen-stats inference paths consume
                    for c in 0..running_mean.len() {
                        running_mean[c] =
                            (1.0 - BN_MOMENTUM) * running_mean[c] + BN_MOMENTUM * saved.mean[c];
                        running_var[c] =
                            (1.0 - BN_MOMENTUM) * running_var[c] + BN_MOMENTUM * saved.var[c];
                    }
                } else {
                    // inference: frozen running statistics — the
                    // output of each sample no longer depends on
                    // its co-batched neighbours (a BN the fusion
                    // pass could not fold still serves correctly)
                    ops::bn_infer_fwd(
                        &self.pool,
                        &bot.act,
                        &gamma.w,
                        &beta.w,
                        running_mean,
                        running_var,
                        BN_EPS,
                        *relu,
                        res.as_ref().map(|(_, b)| &b.act),
                        &mut own.act,
                    );
                }
                if let Some((b1, r)) = res {
                    self.put_blob(b1, r);
                }
                self.put_io(node, b0, bot, own);
                None
            }
            LayerState::Pool { .. } => {
                let (b0, bot, mut own) = self.take_io(node);
                let LayerState::Pool { kind, size, stride, pad, argmax } = &mut self.layers[node]
                else {
                    unreachable!("matched a pool node above")
                };
                match kind {
                    PoolKind::Max => ops::maxpool_fwd(
                        &self.pool,
                        &bot.act,
                        *size,
                        *stride,
                        *pad,
                        &mut own.act,
                        argmax,
                    ),
                    PoolKind::Avg => {
                        ops::avgpool_fwd(&self.pool, &bot.act, *size, *stride, *pad, &mut own.act)
                    }
                }
                self.put_io(node, b0, bot, own);
                None
            }
            LayerState::Gap => {
                let (b0, bot, mut own) = self.take_io(node);
                ops::gap_fwd(&self.pool, &bot.act, &mut own.act);
                self.put_io(node, b0, bot, own);
                None
            }
            LayerState::Fc { .. } => {
                let (b0, bot, mut own) = self.take_io(node);
                let LayerState::Fc { w, b, .. } = &self.layers[node] else {
                    unreachable!("matched an fc node above")
                };
                ops::fc_fwd(&self.pool, &bot.act, &w.w, &b.w, &mut own.act);
                self.put_io(node, b0, bot, own);
                None
            }
            LayerState::SoftmaxLoss { .. } => {
                let b0 = self.etg.eng.preds[node][0];
                let bot = self.take_blob(b0);
                let LayerState::SoftmaxLoss { probs, classes } = &mut self.layers[node] else {
                    unreachable!("matched the loss node above")
                };
                let (loss, top1) = ops::softmax_loss_fwd(&bot.act, *classes, &self.labels, probs);
                self.put_blob(b0, bot);
                Some(StepStats { loss, top1 })
            }
            LayerState::Concat => {
                let mut own = self.take_blob(node);
                let parts: Vec<Blob> = (0..self.etg.eng.preds[node].len())
                    .map(|j| self.take_blob(self.etg.eng.preds[node][j]))
                    .collect();
                {
                    let refs: Vec<&BlockedActs> = parts.iter().map(|p| &p.act).collect();
                    ops::concat_fwd(&refs, &mut own.act);
                }
                for (j, p) in parts.into_iter().enumerate() {
                    self.put_blob(self.etg.eng.preds[node][j], p);
                }
                self.put_blob(node, own);
                None
            }
        }
    }

    /// Forward one convolution node: int8 when the node carries a
    /// [`QuantState`], its f32 plan otherwise.
    fn forward_conv(&mut self, node: usize) {
        let (b0, bot, mut own) = self.take_io(node);
        let bot_owner = self.alias[b0];
        // eltwise residual: the conv's own second bottom, or — for a
        // folded BN — the BN's residual, read here while the output
        // tile is still cache-hot
        let res_owner = match &self.layers[node] {
            LayerState::Conv { folded: Some(f), .. } => f.eltwise,
            _ => self.etg.eng.preds[node].get(1).map(|&b| self.alias[b]),
        };
        let res = res_owner.filter(|&ro| ro != bot_owner).map(|ro| (ro, self.take_blob(ro)));
        let LayerState::Conv { layer, w, bias, folded, .. } = &self.layers[node] else {
            unreachable!("forward_node matched a conv node")
        };
        let eltwise = match &res {
            Some((_, r)) => Some(&r.act),
            None => res_owner.map(|_| &bot.act),
        };
        // a calibration forward is f32 end to end
        let qs = if self.calibrating { None } else { self.quant[node].as_ref() };
        if let Some(qs) = qs {
            // int8 path: the bottom blob was quantized into its int16
            // image when its producer ran; conv in int8/int16, requant +
            // bias/residual/ReLU in the f32 APPLY — the output blob is
            // plain f32 again, so no consumer sees a precision boundary
            let plan = self.image_plan[bot_owner].as_ref().expect("an int8 conv's bottom has one");
            let xq = &self.images[plan.buf];
            let bias_ref: Option<&[f32]> = match folded {
                Some(f) => Some(&f.bias),
                None => bias.as_ref().map(|b| &b.w[..]).or(qs.zero_bias.as_deref()),
            };
            let ctx = FuseCtx { bias: bias_ref, eltwise };
            layer.forward_quant(&self.pool, xq, &qs.wq, &mut own.act, &qs.mult, &ctx);
        } else {
            let (weights, bias_ref) = match folded {
                Some(f) => (&f.w, Some(&f.bias[..])),
                None => (w, bias.as_ref().map(|b| &b.w[..])),
            };
            let ctx = FuseCtx { bias: bias_ref, eltwise };
            layer.forward(&self.pool, &bot.act, weights, &mut own.act, &ctx);
        }
        if let Some((ro, r)) = res {
            self.put_blob(ro, r);
        }
        self.put_io(node, b0, bot, own);
    }

    /// Backward pass (zeroes gradients first).
    pub fn backward(&mut self) {
        assert_eq!(self.mode, ExecMode::Training, "backward needs a Training-mode network");
        for b in self.blobs.iter_mut().flatten() {
            b.grad.as_mut().expect("training blobs carry gradients").zero();
        }
        for pos in 0..self.etg.bwd.len() {
            self.backward_node(self.etg.bwd[pos].node);
        }
    }

    fn backward_node(&mut self, node: usize) {
        // matched without bindings, as in `forward_node`
        match self.layers[node] {
            LayerState::Input | LayerState::Split => {}
            LayerState::SoftmaxLoss { .. } => {
                let b0 = self.etg.eng.preds[node][0];
                let mut bot = self.take_blob(b0);
                let LayerState::SoftmaxLoss { probs, classes } = &self.layers[node] else {
                    unreachable!("matched the loss node above")
                };
                ops::softmax_loss_bwd(probs, *classes, &self.labels, bot.grad.as_mut().unwrap());
                self.put_blob(b0, bot);
            }
            LayerState::Fc { .. } => {
                let (b0, mut bot, own) = self.take_io(node);
                let LayerState::Fc { w, b, .. } = &mut self.layers[node] else {
                    unreachable!("matched an fc node above")
                };
                ops::fc_bwd(
                    &self.pool,
                    &bot.act,
                    own.grad.as_ref().unwrap(),
                    &w.w,
                    bot.grad.as_mut().unwrap(),
                    &mut w.dw,
                    &mut b.dw,
                );
                self.put_io(node, b0, bot, own);
            }
            LayerState::Gap => {
                let (b0, mut bot, own) = self.take_io(node);
                ops::gap_bwd(&self.pool, own.grad.as_ref().unwrap(), bot.grad.as_mut().unwrap());
                self.put_io(node, b0, bot, own);
            }
            LayerState::Pool { .. } => {
                let (b0, mut bot, own) = self.take_io(node);
                let LayerState::Pool { kind, size, stride, pad, argmax } = &self.layers[node]
                else {
                    unreachable!("matched a pool node above")
                };
                let (dout, din) = (own.grad.as_ref().unwrap(), bot.grad.as_mut().unwrap());
                match kind {
                    PoolKind::Max => ops::maxpool_bwd(&self.pool, dout, argmax, din),
                    PoolKind::Avg => ops::avgpool_bwd(&self.pool, dout, *size, *stride, *pad, din),
                }
                self.put_io(node, b0, bot, own);
            }
            LayerState::Bn { .. } => {
                let (b0, mut bot, own) = self.take_io(node);
                let mut res = self.take_residual(node, b0);
                let LayerState::Bn { gamma, beta, saved, relu, .. } = &mut self.layers[node] else {
                    unreachable!("matched a bn node above")
                };
                ops::bn_bwd(
                    &self.pool,
                    &bot.act,
                    &own.act,
                    own.grad.as_ref().unwrap(),
                    &gamma.w,
                    saved,
                    *relu,
                    res.as_mut().map(|(_, b)| b.grad.as_mut().unwrap()),
                    bot.grad.as_mut().unwrap(),
                    &mut gamma.dw,
                    &mut beta.dw,
                );
                if let Some((b1, r)) = res {
                    self.put_blob(b1, r);
                }
                self.put_io(node, b0, bot, own);
            }
            LayerState::Conv { .. } => {
                let (b0, mut bot, own) = self.take_io(node);
                let mut res = self.take_residual(node, b0);
                // nothing reads the network input's gradient
                let needs_di = self.alias[b0] != self.input_node;
                let LayerState::Conv { layer, w, bias, relu, eltwise, train, .. } =
                    &mut self.layers[node]
                else {
                    unreachable!("matched a conv node above")
                };
                let ts = train.as_mut().expect("backward requires training-mode state");
                let own_grad = own.grad.as_ref().unwrap();
                // mask the incoming gradient through the fused ReLU;
                // route it to the residual branch as well
                if *relu || eltwise.is_some() {
                    for i in 0..own_grad.as_slice().len() {
                        let mut g = own_grad.as_slice()[i];
                        if *relu && own.act.as_slice()[i] <= 0.0 {
                            g = 0.0;
                        }
                        ts.dout_masked.as_mut_slice()[i] = g;
                    }
                    if let (Some(_), Some((_, r))) = (eltwise.as_ref(), res.as_mut()) {
                        let rg = r.grad.as_mut().unwrap().as_mut_slice();
                        for (d, s) in rg.iter_mut().zip(ts.dout_masked.as_slice()) {
                            *d += s;
                        }
                    }
                } else {
                    ts.dout_masked.as_mut_slice().copy_from_slice(own_grad.as_slice());
                }
                // bias gradient
                if let Some(bp) = bias.as_mut() {
                    bp.dw.fill(0.0);
                    let dm = &ts.dout_masked;
                    let plane = dm.h * dm.w;
                    for n in 0..dm.n {
                        for kb in 0..dm.cb {
                            let base = (n * dm.cb + kb) * plane * VLEN;
                            for px in 0..plane {
                                for v in 0..VLEN {
                                    bp.dw[kb * VLEN + v] += dm.as_slice()[base + px * VLEN + v];
                                }
                            }
                        }
                    }
                }
                // dI then accumulate into the bottom's gradient
                if needs_di {
                    layer.backward(&self.pool, &ts.dout_masked, w, &mut ts.di_scratch);
                    ops::accumulate(&self.pool, bot.grad.as_mut().unwrap(), &ts.di_scratch);
                }
                if let Some((b1, r)) = res {
                    self.put_blob(b1, r);
                }
                self.put_io(node, b0, bot, own);
            }
            LayerState::Concat => {
                let own = self.take_blob(node);
                let mut parts: Vec<Blob> = (0..self.etg.eng.preds[node].len())
                    .map(|j| self.take_blob(self.etg.eng.preds[node][j]))
                    .collect();
                {
                    let mut refs: Vec<&mut BlockedActs> =
                        parts.iter_mut().map(|p| p.grad.as_mut().unwrap()).collect();
                    ops::concat_bwd(own.grad.as_ref().unwrap(), &mut refs);
                }
                for (j, p) in parts.into_iter().enumerate() {
                    self.put_blob(self.etg.eng.preds[node][j], p);
                }
                self.put_blob(node, own);
            }
        }
    }

    /// Weight-gradient update pass (the heavy dW computations).
    pub fn update(&mut self) {
        assert_eq!(self.mode, ExecMode::Training, "update needs a Training-mode network");
        for pos in 0..self.etg.upd.len() {
            let node = self.etg.upd[pos].node;
            if !matches!(self.layers[node], LayerState::Conv { .. }) {
                continue;
            }
            let b0 = self.etg.eng.preds[node][0];
            let bot = self.take_blob(b0);
            let LayerState::Conv { layer, train, .. } = &mut self.layers[node] else {
                unreachable!("matched a conv node above")
            };
            let ts = train.as_mut().expect("update requires training-mode state");
            layer.update(&self.pool, &bot.act, &ts.dout_masked, &mut ts.dw);
            self.put_blob(b0, bot);
        }
    }

    /// SGD with momentum over every parameter.
    pub fn sgd(&mut self, lr: f32, momentum: f32) {
        assert_eq!(self.mode, ExecMode::Training, "sgd needs a Training-mode network");
        let step = |w: &mut [f32], dw: &[f32], vel: &mut [f32]| {
            for i in 0..w.len() {
                vel[i] = momentum * vel[i] - lr * dw[i];
                w[i] += vel[i];
            }
        };
        for l in self.layers.iter_mut() {
            match l {
                LayerState::Conv { w, bias, train, .. } => {
                    let ts = train.as_mut().expect("sgd requires training-mode state");
                    step(w.as_mut_slice(), ts.dw.as_slice(), ts.w_vel.as_mut_slice());
                    if let Some(b) = bias {
                        step(&mut b.w, &b.dw, &mut b.vel);
                    }
                }
                LayerState::Bn { gamma, beta, .. } => {
                    step(&mut gamma.w, &gamma.dw, &mut gamma.vel);
                    step(&mut beta.w, &beta.dw, &mut beta.vel);
                }
                LayerState::Fc { w, b, .. } => {
                    step(&mut w.w, &w.dw, &mut w.vel);
                    step(&mut b.w, &b.dw, &mut b.vel);
                }
                _ => {}
            }
        }
    }

    /// The compiled ETG (inspection/tests).
    pub fn etg(&self) -> &Etg {
        &self.etg
    }

    /// The exact tensor inventory (name, logical dims) the network
    /// exports/imports — the contract both state-dict directions and
    /// their validation share.
    fn param_inventory(&self) -> Vec<(String, Vec<usize>)> {
        let mut inv = Vec::new();
        for (i, l) in self.layers.iter().enumerate() {
            let name = self.etg.eng.nodes[i].name();
            match l {
                LayerState::Conv { w, bias, .. } => {
                    inv.push((format!("{name}.weight"), vec![w.k, w.c, w.r, w.s]));
                    if bias.is_some() {
                        inv.push((format!("{name}.bias"), vec![w.k]));
                    }
                }
                LayerState::Bn { .. } => {
                    let c = self.shapes[i].0;
                    for t in ["gamma", "beta", "running_mean", "running_var"] {
                        inv.push((format!("{name}.{t}"), vec![c]));
                    }
                }
                LayerState::Fc { .. } => {
                    let c_in = self.shapes[self.alias[self.etg.eng.preds[i][0]]].0;
                    let k_out = self.shapes[i].0;
                    inv.push((format!("{name}.weight"), vec![c_in, k_out]));
                    inv.push((format!("{name}.bias"), vec![k_out]));
                }
                _ => {}
            }
        }
        inv
    }

    /// Export every parameter (and BN running statistic) as a named
    /// [`StateDict`] in dense logical layout. Extraction copies bits
    /// out of the blocked storage without arithmetic, so
    /// [`Self::load_state_dict`] of the result is bit-exact.
    pub fn state_dict(&self) -> StateDict {
        let mut sd = StateDict::new();
        for (i, l) in self.layers.iter().enumerate() {
            let name = self.etg.eng.nodes[i].name();
            match l {
                LayerState::Conv { w, bias, .. } => {
                    let mut data = Vec::with_capacity(w.k * w.c * w.r * w.s);
                    for k in 0..w.k {
                        for c in 0..w.c {
                            for r in 0..w.r {
                                for s in 0..w.s {
                                    data.push(w.get(k, c, r, s));
                                }
                            }
                        }
                    }
                    sd.insert(&format!("{name}.weight"), vec![w.k, w.c, w.r, w.s], data)
                        .expect("export geometry is self-consistent");
                    if let Some(b) = bias {
                        sd.insert(&format!("{name}.bias"), vec![w.k], b.w[..w.k].to_vec())
                            .expect("export geometry is self-consistent");
                    }
                }
                LayerState::Bn { gamma, beta, running_mean, running_var, .. } => {
                    let c = self.shapes[i].0;
                    sd.insert(&format!("{name}.gamma"), vec![c], gamma.w[..c].to_vec())
                        .expect("export geometry is self-consistent");
                    sd.insert(&format!("{name}.beta"), vec![c], beta.w[..c].to_vec())
                        .expect("export geometry is self-consistent");
                    sd.insert(&format!("{name}.running_mean"), vec![c], running_mean[..c].to_vec())
                        .expect("export geometry is self-consistent");
                    sd.insert(&format!("{name}.running_var"), vec![c], running_var[..c].to_vec())
                        .expect("export geometry is self-consistent");
                }
                LayerState::Fc { w, b, out_dim, .. } => {
                    let c_in = self.shapes[self.alias[self.etg.eng.preds[i][0]]].0;
                    let k_out = self.shapes[i].0;
                    let mut data = Vec::with_capacity(c_in * k_out);
                    for c in 0..c_in {
                        data.extend_from_slice(&w.w[c * out_dim..c * out_dim + k_out]);
                    }
                    sd.insert(&format!("{name}.weight"), vec![c_in, k_out], data)
                        .expect("export geometry is self-consistent");
                    sd.insert(&format!("{name}.bias"), vec![k_out], b.w[..k_out].to_vec())
                        .expect("export geometry is self-consistent");
                }
                _ => {}
            }
        }
        sd
    }

    /// Import a [`StateDict`] previously exported from a network of
    /// the same topology (any [`ExecMode`] on either side).
    ///
    /// Strict by design: every expected tensor must be present with
    /// matching dims and no unknown names may remain — and validation
    /// runs *before* any write, so a failed load leaves the network
    /// untouched. Imported buffers are re-canonicalized (SIMD-lane
    /// padding zeroed, BN gamma padding reset to 1) so a reloaded
    /// network is indistinguishable from the one that was saved.
    pub fn load_state_dict(&mut self, sd: &StateDict) -> Result<(), Error> {
        // pass 1: validate the full inventory up front
        let expected = self.param_inventory();
        for (name, dims) in &expected {
            match sd.get(name) {
                None => return Err(Error::StateDict(format!("missing tensor '{name}'"))),
                Some(e) if &e.dims != dims => {
                    return Err(Error::StateDict(format!(
                        "tensor '{name}': dims {:?} do not match the network's {:?}",
                        e.dims, dims
                    )))
                }
                Some(_) => {}
            }
        }
        let known: std::collections::HashSet<&str> =
            expected.iter().map(|(n, _)| n.as_str()).collect();
        if let Some(stranger) = sd.names().find(|n| !known.contains(n)) {
            return Err(Error::StateDict(format!(
                "unexpected tensor '{stranger}' (not a parameter of this network)"
            )));
        }
        // pass 2: write back with canonical padding
        let load_padded = |dst: &mut [f32], src: &[f32], fill: f32| {
            dst.fill(fill);
            dst[..src.len()].copy_from_slice(src);
        };
        for i in 0..self.layers.len() {
            let name = self.etg.eng.nodes[i].name().to_string();
            let fc_cin = match &self.layers[i] {
                LayerState::Fc { .. } => self.shapes[self.alias[self.etg.eng.preds[i][0]]].0,
                _ => 0,
            };
            match &mut self.layers[i] {
                LayerState::Conv { w, bias, .. } => {
                    let e = sd.get(&format!("{name}.weight")).expect("validated");
                    w.as_mut_slice().fill(0.0);
                    let mut it = e.data.iter();
                    for k in 0..w.k {
                        for c in 0..w.c {
                            for r in 0..w.r {
                                for s in 0..w.s {
                                    w.set(k, c, r, s, *it.next().expect("validated dims"));
                                }
                            }
                        }
                    }
                    if let Some(b) = bias {
                        let e = sd.get(&format!("{name}.bias")).expect("validated");
                        load_padded(&mut b.w, &e.data, 0.0);
                    }
                }
                LayerState::Bn { gamma, beta, running_mean, running_var, .. } => {
                    let get = |t: &str| &sd.get(&format!("{name}.{t}")).expect("validated").data;
                    load_padded(&mut gamma.w, get("gamma"), 1.0);
                    load_padded(&mut beta.w, get("beta"), 0.0);
                    load_padded(running_mean, get("running_mean"), 0.0);
                    load_padded(running_var, get("running_var"), 1.0);
                }
                LayerState::Fc { w, b, out_dim, .. } => {
                    let e = sd.get(&format!("{name}.weight")).expect("validated");
                    let k_out = e.dims[1];
                    w.w.fill(0.0);
                    for c in 0..fc_cin {
                        w.w[c * *out_dim..c * *out_dim + k_out]
                            .copy_from_slice(&e.data[c * k_out..(c + 1) * k_out]);
                    }
                    let e = sd.get(&format!("{name}.bias")).expect("validated");
                    load_padded(&mut b.w, &e.data, 0.0);
                }
                _ => {}
            }
        }
        // the imported conv weights / BN parameters invalidate every
        // folded convolution — re-derive (no-op without folds)
        self.refold();
        Ok(())
    }

    /// Number of BN nodes in the compiled graph.
    pub fn bn_node_count(&self) -> usize {
        self.layers.iter().filter(|l| matches!(l, LayerState::Bn { .. })).count()
    }

    /// Number of BN nodes the inference fusion pass folded into their
    /// producer convolution (0 in training mode or with folding
    /// disabled). `folded_bn_count / bn_node_count` is the fused-node
    /// coverage the inference benchmark reports.
    pub fn folded_bn_count(&self) -> usize {
        self.layers.iter().filter(|l| matches!(l, LayerState::Conv { folded: Some(_), .. })).count()
    }

    /// Numeric execution mode the network's conv plans were built for.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of convolution nodes in the compiled graph.
    pub fn conv_node_count(&self) -> usize {
        self.layers.iter().filter(|l| matches!(l, LayerState::Conv { .. })).count()
    }

    /// Number of convolution nodes currently executing the int8 path
    /// (0 at f32 precision). `quantized_conv_count / conv_node_count`
    /// is the int8 coverage the inference benchmark reports; nodes
    /// outside it fall back to their f32 plan.
    pub fn quantized_conv_count(&self) -> usize {
        self.quant.iter().filter(|q| q.is_some()).count()
    }

    /// The BN-derived per-channel input-amax estimate of node `name`'s
    /// output blob (`None` if underivable or at f32 precision).
    pub fn derived_amax_of(&self, name: &str) -> Option<&[f32]> {
        let i = self.node_index(name)?;
        self.derived_amax[self.alias[i]].as_deref()
    }

    /// The calibration-measured per-channel amax of node `name`'s
    /// output blob (`None` before any [`Self::calibrate_batch`]).
    pub fn calibrated_amax_of(&self, name: &str) -> Option<&[f32]> {
        let i = self.node_index(name)?;
        self.calibrated_amax[self.alias[i]].as_deref()
    }

    /// The per-input-channel quantization factors (`127/amax`) conv
    /// node `name` currently quantizes its input with (`None` when the
    /// node runs f32).
    pub fn conv_input_scales(&self, name: &str) -> Option<&[f32]> {
        let i = self.node_index(name)?;
        self.quant[i].as_ref()?;
        let bottom = self.alias[self.etg.eng.preds[i][0]];
        self.image_plan[bottom].as_ref().map(|p| &p.inv_sx[..])
    }

    /// Quantization passes per forward: the blobs an int8 convolution
    /// reads, each quantized once however many convolutions read it
    /// (0 at f32 precision). `quantized_conv_count` minus this is the
    /// number of conv inputs served by an image another conv shares.
    pub fn quantize_pass_count(&self) -> usize {
        self.image_plan.iter().flatten().count()
    }

    fn node_index(&self, name: &str) -> Option<usize> {
        self.etg.eng.nodes.iter().position(|n| n.name() == name)
    }
}

/// Derive a node's private weight-init stream from the spec seed and
/// the node's name (FNV-1a over the name, mixed into the seed), so
/// initialization is independent of node construction order.
fn node_rng(seed: u64, name: &str) -> SplitMix64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix64::new(seed ^ h)
}

/// He-normal-ish filter init (uniform approximation, deterministic).
fn he_init_filter(w: &mut BlockedFilter, rng: &mut SplitMix64) {
    let fan_in = (w.c * w.r * w.s) as f32;
    let scale = (6.0 / fan_in).sqrt();
    for k in 0..w.k {
        for c in 0..w.c {
            for r in 0..w.r {
                for s in 0..w.s {
                    w.set(k, c, r, s, rng.next_f32() * 2.0 * scale);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_topology;

    /// Inference network with the BN fusion pass off (the reference).
    fn unfused_net(
        spec: &ModelSpec,
        minibatch: usize,
        pool: &Arc<ThreadPool>,
        cache: &PlanCache,
    ) -> Network {
        let (mode, tune) = (ExecMode::Inference, conv::TuneLevel::Heuristic);
        let pool = Arc::clone(pool);
        Network::build_quantized(spec, minibatch, pool, mode, cache, false, tune, Precision::F32)
            .unwrap()
    }

    fn small_cnn() -> ModelSpec {
        parse_topology(
            "input name=data c=16 h=16 w=16\n\
             conv name=c1 bottom=data k=32 r=3 s=3 pad=1 bias=1 relu=1\n\
             pool name=p1 bottom=c1 kind=max size=2 stride=2\n\
             conv name=c2 bottom=p1 k=32 bias=1 relu=1\n\
             gap name=g bottom=c2\n\
             fc name=logits bottom=g k=16\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap()
    }

    #[test]
    fn forward_runs_and_produces_finite_loss() {
        let mut net = Network::build(&small_cnn(), 8, 4).unwrap();
        // random input
        let mut rng = SplitMix64::new(1);
        rng.fill_f32(net.input_mut().as_mut_slice());
        let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
        net.labels = labels;
        let stats = net.forward();
        assert!(stats.loss.is_finite() && stats.loss > 0.0);
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = Network::build(&small_cnn(), 8, 4).unwrap();
        let mut rng = SplitMix64::new(2);
        let mut input = vec![0.0f32; net.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        for step in 0..30 {
            net.input_mut().as_mut_slice().copy_from_slice(&input);
            let stats = net.train_step(&labels, 0.05, 0.9);
            if step == 0 {
                first = stats.loss;
            }
            last = stats.loss;
            assert!(stats.loss.is_finite(), "step {step}: loss diverged");
        }
        assert!(last < 0.5 * first, "loss did not fall: {first} -> {last}");
    }

    #[test]
    fn residual_bn_network_trains() {
        // mini-ResNet block: conv-bn-relu -> conv-bn(+shortcut, relu)
        let nl = parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=c0 bottom=data k=16\n\
             bn name=b0 bottom=c0 relu=1\n\
             conv name=c1 bottom=b0 k=16 r=3 s=3 pad=1\n\
             bn name=b1 bottom=c1 relu=1\n\
             conv name=c2 bottom=b1 k=16 r=3 s=3 pad=1\n\
             bn name=b2 bottom=c2 eltwise=b0 relu=1\n\
             gap name=g bottom=b2\n\
             fc name=logits bottom=g k=16\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap();
        let mut net = Network::build(&nl, 4, 3).unwrap();
        // b0 fans out (c1 + eltwise) -> one split node must appear
        assert!(net.etg().eng.nodes.iter().any(|n| matches!(n, NodeSpec::Split { .. })));
        let mut rng = SplitMix64::new(3);
        let mut input = vec![0.0f32; net.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        let labels = vec![0usize, 1, 2, 3];
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        for step in 0..40 {
            net.input_mut().as_mut_slice().copy_from_slice(&input);
            let s = net.train_step(&labels, 0.05, 0.9);
            if step == 0 {
                first = s.loss;
            }
            last = s.loss;
        }
        assert!(last < 0.7 * first, "residual net loss did not fall: {first} -> {last}");
    }

    #[test]
    fn param_count_is_sane() {
        let net = Network::build(&small_cnn(), 2, 2).unwrap();
        // c1: 32*16*9 + 32, c2: 32*32 + 32, fc: 32*16(padded)… > 5k
        assert!(net.param_count() > 5_000, "{}", net.param_count());
    }

    #[test]
    fn inference_forward_matches_training_exactly() {
        let nl = small_cnn();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(4));
        let mut train =
            Network::build_with(&nl, 8, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        let mut infer =
            Network::build_with(&nl, 8, Arc::clone(&pool), ExecMode::Inference, &cache).unwrap();
        let first_build_misses = cache.misses();
        // the second build must not have JIT'd anything new
        assert_eq!(first_build_misses, 2, "two distinct conv layers in the topology");
        assert!(cache.hits() >= 2, "inference build must reuse the training build's plans");

        let mut rng = SplitMix64::new(7);
        let mut input = vec![0.0f32; train.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        train.input_mut().as_mut_slice().copy_from_slice(&input);
        infer.input_mut().as_mut_slice().copy_from_slice(&input);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        train.set_labels(&labels);
        infer.set_labels(&labels);
        let st = train.forward();
        let si = infer.forward();
        assert_eq!(st.loss, si.loss, "losses must agree bit-for-bit");
        assert_eq!(st.top1, si.top1);
        assert_eq!(train.probabilities(), infer.probabilities());
    }

    #[test]
    fn inference_mode_allocates_no_training_state() {
        let nl = small_cnn();
        let infer = Network::build_with(
            &nl,
            4,
            Arc::new(ThreadPool::new(2)),
            ExecMode::Inference,
            &PlanCache::new(),
        )
        .unwrap();
        assert_eq!(infer.mode(), ExecMode::Inference);
        assert_eq!(infer.gradient_blob_count(), 0, "no gradient blobs in inference");
        assert_eq!(infer.training_state_bytes(), 0, "no dW/momentum/scratch in inference");
        let train = Network::build(&nl, 4, 2).unwrap();
        assert!(train.gradient_blob_count() > 0);
        assert!(train.training_state_bytes() > 0);
    }

    #[test]
    fn inference_liveness_plan_shares_slots() {
        // a same-geometry conv chain: only a handful of buffers must
        // stay live at any point of the forward schedule
        let nl = parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=a bottom=data k=16 relu=1\n\
             conv name=b bottom=a k=16 relu=1\n\
             conv name=c bottom=b k=16 relu=1\n\
             conv name=d bottom=c k=16 relu=1\n\
             conv name=e bottom=d k=16 relu=1\n\
             gap name=g bottom=e\n\
             fc name=logits bottom=g k=16\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let train =
            Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        let infer =
            Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Inference, &cache).unwrap();
        assert!(
            infer.activation_slot_count() < train.activation_slot_count(),
            "liveness plan must share buffers: {} vs {}",
            infer.activation_slot_count(),
            train.activation_slot_count()
        );
        assert!(infer.activation_bytes() < train.activation_bytes());
        // the five 1×1 convs share one normalized shape: one plan
        assert_eq!(cache.misses(), 1, "identical chain convs must share one plan");
    }

    /// The mini-ResNet block every bn-fold feature test uses: a pure
    /// conv → bn chain with a residual join through a split.
    fn residual_bn_spec() -> ModelSpec {
        parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=c0 bottom=data k=16\n\
             bn name=b0 bottom=c0 relu=1\n\
             conv name=c1 bottom=b0 k=16 r=3 s=3 pad=1\n\
             bn name=b1 bottom=c1 relu=1\n\
             conv name=c2 bottom=b1 k=16 r=3 s=3 pad=1\n\
             bn name=b2 bottom=c2 eltwise=b0 relu=1\n\
             gap name=g bottom=b2\n\
             fc name=logits bottom=g k=16\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap()
    }

    #[test]
    fn inference_folds_bn_into_conv_and_matches_unfused_frozen_reference() {
        // the fused executor (conv + folded BN + residual + ReLU in
        // one APPLY) against the unfused frozen-stats reference
        // forward — same weights, same running statistics, so the two
        // may differ only by fold-rounding
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(3));
        // train a few steps so the running statistics are non-trivial
        let mut train =
            Network::build_with(&nl, 4, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        let mut rng = SplitMix64::new(11);
        let mut input = vec![0.0f32; train.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        let labels = vec![0usize, 1, 2, 3];
        for _ in 0..3 {
            train.input_mut().as_mut_slice().copy_from_slice(&input);
            train.train_step(&labels, 0.05, 0.9);
        }
        let sd = train.state_dict();

        let mut fused =
            Network::build_with(&nl, 4, Arc::clone(&pool), ExecMode::Inference, &cache).unwrap();
        let mut unfused = unfused_net(&nl, 4, &pool, &cache);
        // b0/b1 fold; b2's residual (b0's blob) carries physical pad 1
        // for the 3×3 conv c1 while b2's own output is pad-0, so the
        // geometry gate keeps b2 a standalone frozen-stats pass — the
        // graph exercises folded and unfolded BNs side by side
        assert_eq!(fused.bn_node_count(), 3);
        assert_eq!(fused.folded_bn_count(), 2, "b0 and b1 fold, b2 stays standalone");
        assert_eq!(unfused.folded_bn_count(), 0);
        fused.load_state_dict(&sd).unwrap();
        unfused.load_state_dict(&sd).unwrap();

        fused.set_labels(&labels);
        unfused.set_labels(&labels);
        fused.input_mut().as_mut_slice().copy_from_slice(&input);
        unfused.input_mut().as_mut_slice().copy_from_slice(&input);
        for step in 0..3 {
            let sf = fused.forward();
            let su = unfused.forward();
            assert!(
                (sf.loss - su.loss).abs() <= 1e-4 * su.loss.abs().max(1.0),
                "step {step}: fused loss {} vs unfused {}",
                sf.loss,
                su.loss
            );
            assert_eq!(sf.top1, su.top1, "step {step}");
            let n = tensor::Norms::compare(unfused.probabilities(), fused.probabilities());
            assert!(n.ok(1e-4), "step {step}: fused vs unfused frozen reference: {n}");
        }
    }

    #[test]
    fn residual_join_folds_to_bias_eltwise_relu_when_geometry_matches() {
        // a 1×1 bottleneck chain: every blob is pad-0, so the join BN
        // folds too (the BiasEltwiseRelu variant) and the whole graph
        // runs without a single standalone BN pass
        let nl = parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=c0 bottom=data k=16\n\
             bn name=b0 bottom=c0 relu=1\n\
             conv name=c1 bottom=b0 k=16\n\
             bn name=b1 bottom=c1 relu=1\n\
             conv name=c2 bottom=b1 k=16\n\
             bn name=b2 bottom=c2 eltwise=b0 relu=1\n\
             gap name=g bottom=b2\n\
             fc name=logits bottom=g k=16\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let mut train =
            Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        let mut rng = SplitMix64::new(29);
        let mut input = vec![0.0f32; train.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        for _ in 0..2 {
            train.input_mut().as_mut_slice().copy_from_slice(&input);
            train.train_step(&[0, 1], 0.05, 0.9);
        }
        let sd = train.state_dict();

        let mut fused =
            Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Inference, &cache).unwrap();
        let mut unfused = unfused_net(&nl, 2, &pool, &cache);
        assert_eq!(fused.folded_bn_count(), 3, "all BNs fold, including the residual join");
        // the fused-plan flavour is observable through the cache
        let stats = cache.stats();
        assert!(
            stats.for_op(conv::FusedOp::BiasEltwiseRelu).misses >= 1,
            "the join must have built a BiasEltwiseRelu plan: {stats:?}"
        );
        fused.load_state_dict(&sd).unwrap();
        unfused.load_state_dict(&sd).unwrap();
        fused.input_mut().as_mut_slice().copy_from_slice(&input);
        unfused.input_mut().as_mut_slice().copy_from_slice(&input);
        fused.set_labels(&[0, 1]);
        unfused.set_labels(&[0, 1]);
        let sf = fused.forward();
        let su = unfused.forward();
        assert_eq!(sf.top1, su.top1);
        let n = tensor::Norms::compare(unfused.probabilities(), fused.probabilities());
        assert!(n.ok(1e-4), "fused join vs unfused frozen reference: {n}");
    }

    #[test]
    fn training_forward_is_untouched_by_the_fusion_pass() {
        // training mode keeps batch statistics and standalone BN
        // passes: two training nets (one built alongside an inference
        // net, one alone) agree bit-for-bit
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let mut a =
            Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        let _infer =
            Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Inference, &cache).unwrap();
        let mut b =
            Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
        assert_eq!(a.folded_bn_count(), 0, "training mode never folds");
        let mut rng = SplitMix64::new(13);
        let mut input = vec![0.0f32; a.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        a.input_mut().as_mut_slice().copy_from_slice(&input);
        b.input_mut().as_mut_slice().copy_from_slice(&input);
        let labels = vec![0usize, 1];
        a.set_labels(&labels);
        b.set_labels(&labels);
        let sa = a.forward();
        let sb = b.forward();
        assert_eq!(sa.loss, sb.loss);
        assert_eq!(a.probabilities(), b.probabilities());
    }

    #[test]
    fn bn_graph_inference_is_batch_composition_independent() {
        // the ROADMAP item this PR closes: serving a bn-graph sample
        // must give identical bits whether it shares the batch with
        // zeros or with other live samples
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let mut infer =
            Network::build_with(&nl, 4, Arc::clone(&pool), ExecMode::Inference, &cache).unwrap();
        let (c, h, w) = infer.input_dims();
        let mut rng = SplitMix64::new(17);
        let mut samples = vec![0.0f32; 4 * c * h * w];
        rng.fill_f32(&mut samples);
        // full batch
        infer.load_input_nchw(&samples, 4);
        infer.forward();
        let kpad = infer.probabilities().len() / 4;
        let full_row0 = infer.probabilities()[..kpad].to_vec();
        // sample 0 alone, rest of the batch zero-padded
        infer.load_input_nchw(&samples[..c * h * w], 1);
        infer.forward();
        let alone_row0 = infer.probabilities()[..kpad].to_vec();
        assert_eq!(full_row0, alone_row0, "frozen stats must decouple co-batched samples");
    }

    #[test]
    #[should_panic(expected = "Training-mode network")]
    fn inference_network_rejects_train_step() {
        let mut infer = Network::build_with(
            &small_cnn(),
            2,
            Arc::new(ThreadPool::new(1)),
            ExecMode::Inference,
            &PlanCache::new(),
        )
        .unwrap();
        infer.train_step(&[0, 1], 0.1, 0.9);
    }

    #[test]
    fn state_dict_round_trips_bit_exact_after_training() {
        let spec = small_cnn();
        let mut net = Network::build(&spec, 4, 2).unwrap();
        let mut rng = SplitMix64::new(21);
        let mut input = vec![0.0f32; net.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        let labels = vec![0usize, 1, 2, 3];
        for _ in 0..3 {
            net.input_mut().as_mut_slice().copy_from_slice(&input);
            net.train_step(&labels, 0.05, 0.9);
        }
        let sd = net.state_dict();
        // serialize through the binary format too
        let sd = StateDict::from_bytes(&sd.to_bytes()).unwrap();
        let mut twin = Network::build(&spec.clone().with_seed(999), 4, 2).unwrap();
        twin.load_state_dict(&sd).unwrap();
        net.input_mut().as_mut_slice().copy_from_slice(&input);
        twin.input_mut().as_mut_slice().copy_from_slice(&input);
        net.set_labels(&labels);
        twin.set_labels(&labels);
        let a = net.forward();
        let b = twin.forward();
        assert_eq!(a.loss, b.loss, "reloaded forward must be bit-identical");
        assert_eq!(net.probabilities(), twin.probabilities());
        // and the reloaded network exports the identical dict
        assert_eq!(twin.state_dict(), sd);
    }

    #[test]
    fn load_state_dict_is_strict_and_atomic() {
        let spec = small_cnn();
        let mut net = Network::build(&spec, 2, 1).unwrap();
        let good = net.state_dict();
        // missing tensor
        let mut missing = StateDict::new();
        for (name, e) in good.iter() {
            if name != "c1.weight" {
                missing.insert(name, e.dims.clone(), e.data.clone()).unwrap();
            }
        }
        let e = net.load_state_dict(&missing).unwrap_err();
        assert!(e.to_string().contains("missing tensor 'c1.weight'"), "{e}");
        // unexpected tensor
        let mut extra = good.clone();
        extra.insert("ghost.weight", vec![1], vec![0.0]).unwrap();
        assert!(net.load_state_dict(&extra).is_err());
        // wrong dims — and the failed load must not have clobbered
        // anything (validation precedes writes)
        let mut wrong = good.clone();
        wrong.insert("c1.bias", vec![3], vec![0.0; 3]).unwrap();
        assert!(net.load_state_dict(&wrong).is_err());
        assert_eq!(net.state_dict(), good, "failed loads must leave the network untouched");
    }

    #[test]
    fn bn_running_stats_accumulate_in_training_only() {
        let spec = parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=c0 bottom=data k=16\n\
             bn name=b0 bottom=c0 relu=1\n\
             gap name=g bottom=b0\n\
             fc name=logits bottom=g k=4\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap();
        let mean_of = |net: &Network| -> Vec<f32> {
            net.state_dict().get("b0.running_mean").unwrap().data.clone()
        };
        let mut train = Network::build(&spec, 2, 1).unwrap();
        let mut rng = SplitMix64::new(5);
        rng.fill_f32(train.input_mut().as_mut_slice());
        assert!(mean_of(&train).iter().all(|&m| m == 0.0), "fresh stats start at 0");
        train.forward();
        let after_one = mean_of(&train);
        assert!(after_one.iter().any(|&m| m != 0.0), "training forward must accumulate");
        train.forward();
        assert_ne!(mean_of(&train), after_one, "EMA keeps moving");
        // inference-mode forwards leave the stats frozen
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(1));
        let mut infer = Network::build_with(&spec, 2, pool, ExecMode::Inference, &cache).unwrap();
        rng.fill_f32(infer.input_mut().as_mut_slice());
        infer.forward();
        assert!(mean_of(&infer).iter().all(|&m| m == 0.0), "inference must not accumulate");
    }

    #[test]
    fn seeded_init_is_per_node_not_order_dependent() {
        // two specs sharing node names 'c1'/'logits' but with an extra
        // layer in between: the shared nodes' initial weights must be
        // identical because init streams derive from (seed, name)
        let a = parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=c1 bottom=data k=16\n\
             gap name=g bottom=c1\n\
             fc name=logits bottom=g k=4\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap()
        .with_seed(7);
        let b = parse_topology(
            "input name=data c=16 h=8 w=8\n\
             conv name=c1 bottom=data k=16\n\
             conv name=extra bottom=c1 k=16\n\
             gap name=g bottom=extra\n\
             fc name=logits bottom=g k=4\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap()
        .with_seed(7);
        let na = Network::build(&a, 1, 1).unwrap();
        let nb = Network::build(&b, 1, 1).unwrap();
        let wa = na.state_dict();
        let wb = nb.state_dict();
        assert_eq!(wa.get("c1.weight"), wb.get("c1.weight"));
        assert_eq!(wa.get("logits.weight"), wb.get("logits.weight"));
        // a different seed moves the weights
        let c = Network::build(&a.clone().with_seed(8), 1, 1).unwrap();
        assert_ne!(c.state_dict().get("c1.weight"), wa.get("c1.weight"));
    }

    #[test]
    fn degenerate_runtime_params_are_bad_input() {
        assert!(matches!(Network::build(&small_cnn(), 0, 1), Err(Error::BadInput(_))));
        assert!(matches!(Network::build(&small_cnn(), 1, 0), Err(Error::BadInput(_))));
    }

    /// Train `residual_bn_spec` a few steps on a fixed batch and hand
    /// back (state dict, input, labels) — shared by the int8 tests.
    fn trained_residual(
        pool: &Arc<ThreadPool>,
        cache: &PlanCache,
    ) -> (StateDict, Vec<f32>, Vec<usize>) {
        let nl = residual_bn_spec();
        let mut train =
            Network::build_with(&nl, 4, Arc::clone(pool), ExecMode::Training, cache).unwrap();
        let mut rng = SplitMix64::new(41);
        let mut input = vec![0.0f32; train.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        let labels = vec![0usize, 1, 2, 3];
        for _ in 0..5 {
            train.input_mut().as_mut_slice().copy_from_slice(&input);
            train.train_step(&labels, 0.05, 0.9);
        }
        (train.state_dict(), input, labels)
    }

    #[test]
    fn int8_inference_quantizes_every_bn_fed_conv_and_tracks_f32() {
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(3));
        let (sd, input, labels) = trained_residual(&pool, &cache);

        let mut f32_net =
            Network::build_with(&nl, 4, Arc::clone(&pool), ExecMode::Inference, &cache).unwrap();
        let mut int8 = Network::build_quantized(
            &nl,
            4,
            Arc::clone(&pool),
            ExecMode::Inference,
            &cache,
            true,
            conv::TuneLevel::Heuristic,
            Precision::Int8,
        )
        .unwrap();
        assert_eq!(int8.precision(), Precision::Int8);
        assert_eq!(f32_net.precision(), Precision::F32);
        assert_eq!(f32_net.quantized_conv_count(), 0);
        // c0 reads the (assumed-normalized) input, c1/c2 read
        // folded-BN outputs: every conv derives an input scale
        assert_eq!(int8.conv_node_count(), 3);
        assert_eq!(int8.quantized_conv_count(), 3, "all three convs must run int8");
        f32_net.load_state_dict(&sd).unwrap();
        int8.load_state_dict(&sd).unwrap();
        f32_net.input_mut().as_mut_slice().copy_from_slice(&input);
        int8.input_mut().as_mut_slice().copy_from_slice(&input);
        f32_net.set_labels(&labels);
        int8.set_labels(&labels);
        let sf = f32_net.forward();
        let si = int8.forward();
        assert_eq!(sf.top1, si.top1, "top-1 must survive quantization");
        let n = tensor::Norms::compare(f32_net.probabilities(), int8.probabilities());
        assert!(n.ok(0.05), "int8 probability drift vs f32: {n}");
        // calibration replaces the derived estimates with measured
        // ranges; the net must stay quantized and stay close
        int8.calibrate_batch();
        assert_eq!(int8.quantized_conv_count(), 3);
        let si2 = int8.forward();
        assert_eq!(sf.top1, si2.top1);
        let n2 = tensor::Norms::compare(f32_net.probabilities(), int8.probabilities());
        assert!(n2.ok(0.05), "calibrated int8 drift vs f32: {n2}");
    }

    #[test]
    fn int8_unquantizable_convs_fall_back_to_f32() {
        // small_cnn's c2 reads a pooled *raw conv* output (c1 carries
        // its own bias+relu, no BN) — no derivable range, so c2 must
        // serve f32 until a calibration forward measures it
        let nl = small_cnn();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let mut int8 = Network::build_quantized(
            &nl,
            2,
            Arc::clone(&pool),
            ExecMode::Inference,
            &cache,
            true,
            conv::TuneLevel::Heuristic,
            Precision::Int8,
        )
        .unwrap();
        assert_eq!(int8.conv_node_count(), 2);
        assert_eq!(int8.quantized_conv_count(), 1, "only the input-fed conv can derive scales");
        assert!(int8.conv_input_scales("c1").is_some());
        assert!(int8.conv_input_scales("c2").is_none());
        let mut rng = SplitMix64::new(43);
        rng.fill_f32(int8.input_mut().as_mut_slice());
        let s = int8.forward();
        assert!(s.loss.is_finite());
        // a calibration forward measures c2's input range → full
        // coverage without replanning
        int8.calibrate_batch();
        assert_eq!(int8.quantized_conv_count(), 2, "calibration must widen coverage");
        assert!(int8.conv_input_scales("c2").is_some());
        let s2 = int8.forward();
        assert!(s2.loss.is_finite());
    }

    #[test]
    fn calibrated_scales_agree_with_bn_derived_estimates() {
        // the BN-derived bound |beta| + 3·|gamma| models the frozen
        // stats; a measured maximum over an in-distribution batch must
        // land in the same ballpark (below the 3-sigma bound, not
        // orders of magnitude under it)
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let (sd, input, _) = trained_residual(&pool, &cache);
        let mut int8 = Network::build_quantized(
            &nl,
            4,
            Arc::clone(&pool),
            ExecMode::Inference,
            &cache,
            true,
            conv::TuneLevel::Heuristic,
            Precision::Int8,
        )
        .unwrap();
        int8.load_state_dict(&sd).unwrap();
        int8.input_mut().as_mut_slice().copy_from_slice(&input);
        let derived = int8.derived_amax_of("b0").expect("b0 folds, range derives").to_vec();
        int8.calibrate_batch();
        let measured = int8.calibrated_amax_of("b0").expect("calibration recorded b0").to_vec();
        let dmax = derived.iter().cloned().fold(0.0f32, f32::max);
        let mmax = measured.iter().cloned().fold(0.0f32, f32::max);
        assert!(dmax > 0.0 && mmax > 0.0);
        let ratio = mmax / dmax;
        assert!(
            (0.05..=3.0).contains(&ratio),
            "measured max {mmax} vs derived bound {dmax}: ratio {ratio} out of tolerance"
        );
    }

    #[test]
    fn degenerate_all_zero_channel_yields_safe_scales() {
        // zero gamma+beta on one BN channel drives its activation —
        // and the derived amax — to exactly 0; the quantization scheme
        // must answer with the neutral scale 1.0, never NaN or inf
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let (sd, input, _) = trained_residual(&pool, &cache);
        let mut dead = StateDict::new();
        for (name, e) in sd.iter() {
            let mut data = e.data.clone();
            if name == "b0.gamma" || name == "b0.beta" {
                data[3] = 0.0;
            }
            dead.insert(name, e.dims.clone(), data).unwrap();
        }
        let mut int8 = Network::build_quantized(
            &nl,
            4,
            Arc::clone(&pool),
            ExecMode::Inference,
            &cache,
            true,
            conv::TuneLevel::Heuristic,
            Precision::Int8,
        )
        .unwrap();
        int8.load_state_dict(&dead).unwrap();
        assert_eq!(int8.derived_amax_of("b0").unwrap()[3], 0.0, "channel 3 is dead");
        let scales = int8.conv_input_scales("c1").expect("c1 still quantizes");
        assert!(scales.iter().all(|s| s.is_finite() && *s > 0.0), "scales must stay safe");
        assert_eq!(scales[3], 1.0, "dead channel gets the neutral scale");
        // and the whole net still forwards to finite probabilities —
        // also after a calibration pass re-measures the dead channel
        int8.input_mut().as_mut_slice().copy_from_slice(&input);
        assert!(int8.forward().loss.is_finite());
        int8.calibrate_batch();
        let scales = int8.conv_input_scales("c1").unwrap();
        assert!(scales.iter().all(|s| s.is_finite() && *s > 0.0));
        assert!(int8.forward().loss.is_finite());
    }

    #[test]
    fn int8_training_is_rejected() {
        let r = Network::build_quantized(
            &small_cnn(),
            2,
            Arc::new(ThreadPool::new(1)),
            ExecMode::Training,
            &PlanCache::new(),
            true,
            conv::TuneLevel::Heuristic,
            Precision::Int8,
        );
        match r {
            Err(e) => assert!(e.to_string().contains("inference mode"), "{e}"),
            Ok(_) => panic!("int8 training build must be rejected"),
        }
    }
}
