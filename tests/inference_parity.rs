//! Inference-mode acceptance tests on the real paper topologies:
//!
//! * building ResNet-50 through a shared [`conv::PlanCache`] performs
//!   one JIT + dryrun per *distinct* layer shape (the distinct count
//!   is recomputed here independently of the executor),
//! * an `ExecMode::Inference` network allocates zero gradient blobs
//!   and zero training-state bytes; its forward runs the BN fusion
//!   pass (frozen running statistics folded into the conv weights)
//!   and tracks the *unfused frozen-stats reference forward* within a
//!   bit-tolerance bound — the parity that stays meaningful now that
//!   inference no longer shares batch statistics with training,
//! * fused (folded) and unfused inference plans never collide in the
//!   shared plan cache,
//! * the `InferenceSession` facade serves batches end to end.

use anatomy::conv::PlanCache;
use anatomy::gxm::{ExecMode, Network, NodeSpec};
use anatomy::parallel::ThreadPool;
use anatomy::tensor::rng::SplitMix64;
use anatomy::tensor::ConvShape;
use anatomy::{InferenceSession, ModelSpec, Precision, TuneLevel};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Minibatch-2 inference network with the BN fusion pass off — the
/// unfused reference executor.
fn unfused_net(spec: &ModelSpec, pool: &Arc<ThreadPool>, cache: &PlanCache) -> Network {
    let (mode, tune) = (ExecMode::Inference, TuneLevel::Heuristic);
    Network::build_quantized(spec, 2, Arc::clone(pool), mode, cache, false, tune, Precision::F32)
        .unwrap()
}

/// Count the distinct normalized conv layers of a topology the same
/// way a cache key sees them — (ConvShape, input blob padding) — but
/// computed directly from the node list, independent of `gxm`'s plan
/// phase. (The graph convolutions carry no fused ops; BN owns those.)
fn distinct_conv_layers(nl: &[NodeSpec], minibatch: usize) -> usize {
    let mut dims: HashMap<&str, (usize, usize, usize)> = HashMap::new(); // name -> (c, h, w)
    let mut blob_pad: HashMap<&str, usize> = HashMap::new();
    // consumer padding first: blob pad = max pad over conv consumers
    for n in nl {
        if let NodeSpec::Conv { bottom, pad, .. } = n {
            let e = blob_pad.entry(bottom.as_str()).or_insert(0);
            *e = (*e).max(*pad);
        }
    }
    let mut shapes: HashSet<(ConvShape, usize)> = HashSet::new();
    for n in nl {
        match n {
            NodeSpec::Input { name, c, h, w, .. } => {
                dims.insert(name, (*c, *h, *w));
            }
            NodeSpec::Conv { name, bottom, k, r, s, stride, pad, .. } => {
                let (bc, bh, bw) = dims[bottom.as_str()];
                let shape = ConvShape::new(minibatch, bc, *k, bh, bw, *r, *s, *stride, *pad);
                let input_pad = blob_pad.get(bottom.as_str()).copied().unwrap_or(0);
                shapes.insert((shape, input_pad));
                dims.insert(name, (*k, shape.p(), shape.q()));
            }
            NodeSpec::Bn { name, bottom, .. } => {
                let d = dims[bottom.as_str()];
                dims.insert(name, d);
            }
            NodeSpec::Pool { name, bottom, size, stride, pad, .. } => {
                let (c, h, w) = dims[bottom.as_str()];
                let oh = (h + 2 * pad - size) / stride + 1;
                let ow = (w + 2 * pad - size) / stride + 1;
                dims.insert(name, (c, oh, ow));
            }
            NodeSpec::GlobalAvgPool { name, bottom, .. } => {
                let (c, _, _) = dims[bottom.as_str()];
                dims.insert(name, (c, 1, 1));
            }
            NodeSpec::Fc { name, k, .. } => {
                dims.insert(name, (*k, 1, 1));
            }
            NodeSpec::Concat { name, bottoms, .. } => {
                let mut c = 0;
                let (mut h, mut w) = (0, 0);
                for b in bottoms {
                    let (cc, hh, ww) = dims[b.as_str()];
                    c += cc;
                    h = hh;
                    w = ww;
                }
                dims.insert(name, (c, h, w));
            }
            NodeSpec::SoftmaxLoss { .. } | NodeSpec::Split { .. } => {}
        }
    }
    shapes.len()
}

#[test]
fn resnet50_builds_once_per_distinct_shape_and_folds_every_bn() {
    let nl = anatomy::topologies::resnet50_model(32, 10);
    let convs = nl.nodes().iter().filter(|n| matches!(n, NodeSpec::Conv { .. })).count();
    assert_eq!(convs, 53, "the full ResNet-50 graph");
    let distinct = distinct_conv_layers(nl.nodes(), 2);
    assert!(distinct < convs, "repeats exist: {distinct} distinct of {convs}");

    let cache = PlanCache::new();
    let pool = Arc::new(ThreadPool::new(4));
    let mut train =
        Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
    // one JIT + dryrun per distinct layer shape, not per node
    assert_eq!(
        cache.misses(),
        distinct,
        "cache must build exactly one plan per distinct (shape, input_pad)"
    );
    assert_eq!(cache.hits(), convs - distinct, "every repeat must hit");

    // the inference build rewrites every Conv→Bn subgraph into a fused
    // convolution: its folded plans (different fuse op / output pad)
    // are new cache entries that must never collide with training's
    let mut infer =
        Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Inference, &cache).unwrap();
    let misses_after_infer = cache.misses();
    assert!(misses_after_infer > distinct, "folded plans are distinct cache entries");
    assert_eq!(
        infer.folded_bn_count(),
        infer.bn_node_count(),
        "every ResNet-50 BN sits on a pure conv it exclusively consumes: all must fold"
    );
    assert_eq!(infer.bn_node_count(), 53);

    // a second inference build hits every fused plan: zero new JIT
    let _infer2 =
        Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Inference, &cache).unwrap();
    assert_eq!(cache.misses(), misses_after_infer, "second inference build must JIT nothing");

    // zero gradient/momentum allocation in inference
    assert_eq!(infer.gradient_blob_count(), 0);
    assert_eq!(infer.training_state_bytes(), 0);
    assert!(train.training_state_bytes() > 0);
    assert!(
        infer.activation_slot_count() < train.activation_slot_count(),
        "liveness plan must share buffers ({} vs {})",
        infer.activation_slot_count(),
        train.activation_slot_count()
    );

    // calibrate the running statistics (training-mode forwards
    // accumulate the EMAs without touching weights) so the frozen
    // normalization matches the network's actual activation scales,
    // then compare the fused executor against the unfused
    // frozen-stats reference forward under the same state dict
    let mut rng = SplitMix64::new(99);
    let mut input = vec![0.0f32; train.input_mut().as_slice().len()];
    rng.fill_f32(&mut input);
    let labels = vec![3usize, 7];
    train.input_mut().as_mut_slice().copy_from_slice(&input);
    for _ in 0..10 {
        train.forward();
    }
    let sd = train.state_dict();
    let mut reference = unfused_net(&nl, &pool, &cache);
    assert_eq!(reference.folded_bn_count(), 0, "the reference executor keeps BNs standalone");
    infer.load_state_dict(&sd).unwrap();
    reference.load_state_dict(&sd).unwrap();
    infer.set_labels(&labels);
    reference.set_labels(&labels);
    infer.input_mut().as_mut_slice().copy_from_slice(&input);
    reference.input_mut().as_mut_slice().copy_from_slice(&input);
    let sf = infer.forward();
    let su = reference.forward();
    assert_eq!(sf.top1, su.top1, "fused and unfused frozen-stats top-1 must agree");
    let n = anatomy::tensor::Norms::compare(reference.probabilities(), infer.probabilities());
    assert!(n.ok(1e-4), "ResNet-50 fused vs unfused frozen-stats reference: {n}");
}

#[test]
fn inception_fused_inference_tracks_unfused_frozen_reference() {
    let nl = anatomy::topologies::inception_v3_model_sized(63, 10);
    let cache = PlanCache::new();
    let pool = Arc::new(ThreadPool::new(4));
    let mut train =
        Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Training, &cache).unwrap();
    let mut infer =
        Network::build_with(&nl, 2, Arc::clone(&pool), ExecMode::Inference, &cache).unwrap();
    let misses_after_infer = cache.misses();
    let mut reference = unfused_net(&nl, &pool, &cache);
    // unfused inference reuses the training plans: no new JIT
    assert_eq!(cache.misses(), misses_after_infer, "unfused build must JIT nothing new");
    assert_eq!(infer.gradient_blob_count(), 0);
    assert_eq!(infer.training_state_bytes(), 0);
    assert!(infer.folded_bn_count() > 0, "Inception conv→bn chains must fold");

    let mut rng = SplitMix64::new(123);
    let mut input = vec![0.0f32; train.input_mut().as_slice().len()];
    rng.fill_f32(&mut input);
    let labels = vec![1usize, 4];
    // stat calibration: EMAs converge to the init weights' activation
    // statistics without SGD perturbing the weights
    train.input_mut().as_mut_slice().copy_from_slice(&input);
    for _ in 0..10 {
        train.forward();
    }
    let sd = train.state_dict();
    infer.load_state_dict(&sd).unwrap();
    reference.load_state_dict(&sd).unwrap();
    infer.set_labels(&labels);
    reference.set_labels(&labels);
    for step in 0..2 {
        infer.input_mut().as_mut_slice().copy_from_slice(&input);
        reference.input_mut().as_mut_slice().copy_from_slice(&input);
        let sf = infer.forward();
        let su = reference.forward();
        assert_eq!(sf.top1, su.top1, "step {step}");
        let n = anatomy::tensor::Norms::compare(reference.probabilities(), infer.probabilities());
        assert!(n.ok(1e-4), "step {step}: Inception fused vs unfused reference: {n}");
    }
}

#[test]
fn inference_session_serves_batches() {
    let topo = anatomy::topologies::resnet50_model(32, 10);
    let mut session = InferenceSession::new(&topo, 2, 2).expect("valid topology");
    assert_eq!(session.classes(), 10);
    assert_eq!(session.network().training_state_bytes(), 0);

    let mut rng = SplitMix64::new(5);
    let mut batch = vec![0.0f32; 2 * 3 * 32 * 32];
    let mut first = None;
    for i in 0..3 {
        rng.fill_f32(&mut batch);
        if i == 0 {
            first = Some(batch.clone());
        }
        let out = session.run(&batch).unwrap();
        assert_eq!(out.top1.len(), 2);
        assert_eq!(out.probs.len(), 2 * 10);
        for n in 0..2 {
            let row = &out.probs[n * 10..(n + 1) * 10];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "probabilities must sum to 1, got {sum}");
            assert!(row.iter().all(|p| *p >= 0.0));
        }
    }
    // replaying the first batch reproduces its outputs exactly
    // (recycled buffers hold no hidden state)
    let first = first.unwrap();
    let a = session.run(&first).unwrap();
    let b = session.run(&first).unwrap();
    assert_eq!(a.probs, b.probs);
    assert_eq!(a.top1, b.top1);

    // a second session sharing pool + cache builds without new JIT
    let misses = session.cache_stats().misses;
    let pool = Arc::clone(session.pool());
    let cache = session.cache().clone();
    let mut twin = InferenceSession::with_shared(&topo, 2, pool, cache).unwrap();
    assert_eq!(twin.cache_stats().misses, misses, "shared cache must serve the twin session");
    let out = twin.run(&first).unwrap();
    assert_eq!(out.probs, a.probs, "twin session must reproduce the same outputs");
}
