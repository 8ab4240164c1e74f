//! End-to-end acceptance tests of the plan-time autotuner through the
//! serving facade:
//!
//! * a `Measured`-tuned [`anatomy::InferenceSession`] predicts the
//!   same classes as the heuristic session on the same inputs (the
//!   tuner changes the blocking, never the math);
//! * one shared cache tunes each distinct `(shape, machine, level)`
//!   exactly once, no matter how many replicas build through it;
//! * saving the tuning cache and restarting (a fresh `PlanCache`)
//!   replays every winner with zero tuning searches and zero
//!   micro-bench runs.

use anatomy::conv::PlanCache;
use anatomy::parallel::ThreadPool;
use anatomy::{ConvOpts, GraphBuilder, InferenceSession, ModelSpec, Precision, TuneLevel};
use std::sync::Arc;

fn model() -> ModelSpec {
    GraphBuilder::new()
        .seed(7)
        .input("data", 3, 12, 12)
        .conv("c1", ConvOpts::k(16).rs(3).pad(1))
        .bn_relu("b1")
        .conv("c2", ConvOpts::k(32).rs(3).pad(1))
        .bn_relu("b2")
        .conv("c3", ConvOpts::k(32).rs(1).relu())
        .gap("gap")
        .fc("logits", 5)
        .softmax("loss")
        .build()
        .unwrap()
}

/// An f32 session of `model()` (minibatch 2, two threads) tuned at `level`.
fn tuned_session(spec: &ModelSpec, cache: &PlanCache, level: TuneLevel) -> InferenceSession {
    let pool = Arc::new(ThreadPool::new(2));
    InferenceSession::with_shared_quantized(spec, 2, pool, cache.clone(), level, Precision::F32)
        .unwrap()
}

fn batch() -> Vec<f32> {
    let mut v = vec![0.0f32; 2 * 3 * 12 * 12];
    let mut rng = anatomy::tensor::rng::SplitMix64::new(99);
    rng.fill_f32(&mut v);
    v
}

#[test]
fn tuned_sessions_predict_like_the_heuristic() {
    let spec = model();
    let input = batch();
    let mut heuristic = InferenceSession::new(&spec, 2, 2).unwrap();
    let want = heuristic.run(&input).unwrap();

    let mut tuned = tuned_session(&spec, &PlanCache::new(), TuneLevel::Measured);
    let got = tuned.run(&input).unwrap();
    assert_eq!(got.top1, want.top1, "tuning changed predictions");
    for (a, b) in got.probs.iter().zip(&want.probs) {
        assert!((a - b).abs() < 1e-4, "prob {a} vs {b}");
    }
    // a 12×12 conv can be too fast to time, and then keeps the
    // heuristic: every plan is one or the other, and each shape tuned
    let stats = tuned.cache_stats();
    assert_eq!(stats.tuned_plans + stats.heuristic_plans, stats.entries);
    assert_eq!(stats.tune_runs, 3);
}

#[test]
fn replicas_share_one_tuning_search() {
    let spec = model();
    let cache = PlanCache::new();
    // two "replicas": same model, same thread count, shared cache
    for _ in 0..2 {
        let _ = tuned_session(&spec, &cache, TuneLevel::Measured);
    }
    let stats = cache.stats();
    // distinct conv shapes in `model()`: c1, c2, c3 → 3 searches, once
    assert_eq!(stats.tune_runs, 3, "each distinct shape tunes exactly once per process");
    assert_eq!(stats.entries, stats.misses, "replica 2 hit every plan");
    assert!(stats.hits > 0);
}

#[test]
fn restart_with_tuning_file_never_micro_benches() {
    let spec = model();
    let cache = PlanCache::new();
    let _ = tuned_session(&spec, &cache, TuneLevel::Measured);
    let first = cache.stats();
    assert_eq!(first.tune_runs, 3);

    let dir = std::env::temp_dir().join("anatomy-autotune-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("tunes-{}.bin", std::process::id()));
    assert_eq!(cache.save_tuning(&path).unwrap(), 3);

    // "restart": a brand-new cache loads the file, then builds the
    // same model — every winner replays, nothing searches or measures
    let restarted = PlanCache::new();
    assert_eq!(restarted.load_tuning(&path).unwrap(), 3);
    let mut session = tuned_session(&spec, &restarted, TuneLevel::Measured);
    let stats = restarted.stats();
    assert_eq!(stats.tune_runs, 0, "restart re-tuned");
    assert_eq!(stats.tune_micro_runs, 0, "restart micro-benched");
    assert_eq!(stats.tuned_plans + stats.heuristic_plans, stats.entries);
    // and the served network still works
    let out = session.run(&batch()).unwrap();
    assert_eq!(out.top1.len(), 2);
    std::fs::remove_file(&path).unwrap();
}
