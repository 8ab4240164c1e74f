//! Property-based cache-coherence tests: a plan served from the
//! [`conv::PlanCache`] (a cache *hit*) must produce bit-identical
//! results to a freshly built `ConvLayer` — across backends, fused
//! operators and all three passes. This is the contract that makes
//! sharing plans between networks safe.

use conv::cache::PlanCache;
use conv::fuse::FuseCtx;
use conv::{Backend, ConvLayer, FusedOp, LayerOptions};
use parallel::ThreadPool;
use proptest::prelude::*;
use tensor::rng::SplitMix64;
use tensor::{BlockedActs, BlockedFilter, ConvShape, VLEN};

fn backend_of(idx: usize) -> Backend {
    [Backend::Scalar, Backend::Auto][idx]
}

fn fuse_of(idx: usize) -> FusedOp {
    [
        FusedOp::None,
        FusedOp::Bias,
        FusedOp::Relu,
        FusedOp::BiasRelu,
        FusedOp::EltwiseRelu,
        FusedOp::BiasEltwise,
        FusedOp::BiasEltwiseRelu,
    ][idx]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cache_hit_layer_is_bit_identical_to_fresh_build(
        n in 1usize..3,
        cb in 1usize..3,
        kb in 1usize..3,
        hw in 4usize..10,
        spatial in any::<bool>(),
        stride in 1usize..3,
        backend_idx in 0usize..2,
        fuse_idx in 0usize..7,
        threads in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let (r, pad) = if spatial { (3, 1) } else { (1, 0) };
        prop_assume!(hw + 2 * pad >= r);
        let shape = ConvShape::new(n, cb * VLEN, kb * VLEN, hw, hw, r, r, stride, pad);
        let backend = backend_of(backend_idx);
        let fuse = fuse_of(fuse_idx);
        let opts = LayerOptions::new(threads).with_backend(backend).with_fuse(fuse);

        let cache = PlanCache::new();
        let _warm = cache.get_or_build(shape, opts.clone());
        let cached = cache.get_or_build(shape, opts.clone()); // the hit
        prop_assert_eq!(cache.hits(), 1);
        let fresh = ConvLayer::new(shape, opts);

        let pool = ThreadPool::new(threads);
        let mut rng = SplitMix64::new(seed);
        let mut x = fresh.new_input();
        rng.fill_f32(x.as_mut_slice());
        let mut w = fresh.new_filter();
        rng.fill_f32(w.as_mut_slice());
        let bias: Vec<f32> = (0..shape.k).map(|i| 0.05 * i as f32 - 0.4).collect();
        let residual = BlockedActs::random(shape.n, shape.k, shape.p(), shape.q(), 0, seed ^ 1);
        let ctx = FuseCtx {
            bias: fuse.needs_bias().then_some(&bias[..]),
            eltwise: fuse.needs_eltwise().then_some(&residual),
        };

        // forward: bit-identical
        let mut y_fresh = fresh.new_output();
        let mut y_cached = cached.new_output();
        fresh.forward(&pool, &x, &w, &mut y_fresh, &ctx);
        cached.forward(&pool, &x, &w, &mut y_cached, &ctx);
        prop_assert_eq!(y_fresh.as_slice(), y_cached.as_slice());

        // backward: bit-identical
        let mut gy = fresh.new_dout();
        rng.fill_f32(gy.as_mut_slice());
        let mut gx_fresh = fresh.new_input();
        let mut gx_cached = cached.new_input();
        fresh.backward(&pool, &gy, &w, &mut gx_fresh);
        cached.backward(&pool, &gy, &w, &mut gx_cached);
        prop_assert_eq!(gx_fresh.as_slice(), gx_cached.as_slice());

        // weight update: bit-identical
        let mut dw_fresh = fresh.new_filter();
        let mut dw_cached = fresh.new_filter();
        fresh.update(&pool, &x, &gy, &mut dw_fresh);
        cached.update(&pool, &x, &gy, &mut dw_cached);
        prop_assert_eq!(dw_fresh.as_slice(), dw_cached.as_slice());
    }
}

/// Two *different* cache handles (clones) hand out the same Arc, and a
/// second cache built from scratch produces a plan that still matches
/// bit-for-bit — determinism of the whole setup pipeline.
#[test]
fn independent_caches_build_identical_plans() {
    let shape = ConvShape::new(2, 32, 32, 8, 8, 3, 3, 1, 1);
    let threads = 3;
    let pool = ThreadPool::new(threads);
    let a = PlanCache::new().get_or_build(shape, LayerOptions::new(threads));
    let b = PlanCache::new().get_or_build(shape, LayerOptions::new(threads));

    let x = BlockedActs::random(2, 32, 8, 8, 1, 5);
    let mut w = BlockedFilter::zeros(32, 32, 3, 3);
    SplitMix64::new(6).fill_f32(w.as_mut_slice());
    let mut ya = a.new_output();
    let mut yb = b.new_output();
    a.forward(&pool, &x, &w, &mut ya, &FuseCtx::default());
    b.forward(&pool, &x, &w, &mut yb, &FuseCtx::default());
    assert_eq!(ya.as_slice(), yb.as_slice());
}
