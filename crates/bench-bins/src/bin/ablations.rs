//! Ablation study over the paper's individual optimizations, on two
//! representative ResNet-50 layers (a 3×3 and a deep 1×1):
//!
//! * JIT vs scalar-oracle backends,
//! * software prefetch on/off (Section II-E),
//! * kernel streams replay vs runtime branchy loops (Section II-H),
//! * fused vs unfused post-ops (Section II-G),
//! * weight-update copy counts 1 / T/2 / T (Section II-J).

use baselines::{ConvBaseline, MkldnnConv};
use bench_bins::{gflops, time_it, HarnessConfig};
use conv::blocking;
use conv::fuse::{apply_unfused, FuseCtx, FusedOp};
use conv::upd::UpdPlan;
use conv::{Backend, ConvLayer, LayerOptions, PlanRequest};
use parallel::ThreadPool;
use tensor::{BlockedActs, BlockedFilter, ConvShape};

fn main() {
    let cfg = HarnessConfig::from_args();
    let pool = ThreadPool::new(cfg.threads);
    let layers = [
        ("3x3 (Table I #8)", ConvShape::new(cfg.minibatch, 128, 128, 28, 28, 3, 3, 1, 1)),
        ("1x1 deep (Table I #20)", ConvShape::new(cfg.minibatch, 2048, 512, 7, 7, 1, 1, 1, 0)),
    ];
    println!("# Ablations (minibatch {}, {} threads)", cfg.minibatch, cfg.threads);
    for (label, shape) in layers {
        println!("\n== {label}: {shape}");
        let x = BlockedActs::random(shape.n, shape.c, shape.h, shape.w, shape.pad, 1);
        let w = BlockedFilter::random(shape.k, shape.c, shape.r, shape.s, 2);

        // backends
        for backend in [Backend::Auto, Backend::Scalar] {
            let iters = if backend == Backend::Scalar { 1 } else { cfg.iters };
            let layer = ConvLayer::new(shape, LayerOptions::new(cfg.threads).with_backend(backend));
            let mut y = layer.new_output();
            let t = time_it(|| layer.forward(&pool, &x, &w, &mut y, &FuseCtx::default()), 1, iters);
            println!("backend {:<12} {:8.1} GFLOPS", layer.backend_name(), gflops(&shape, t));
        }

        // prefetch on/off
        for pf in [true, false] {
            let layer = ConvLayer::new(shape, LayerOptions::new(cfg.threads).with_prefetch(pf));
            let mut y = layer.new_output();
            let t = time_it(
                || layer.forward(&pool, &x, &w, &mut y, &FuseCtx::default()),
                cfg.warmup,
                cfg.iters,
            );
            println!("prefetch={:<5} {:8.1} GFLOPS", pf, gflops(&shape, t));
        }

        // streams replay vs branchy loops
        {
            let layer = ConvLayer::new(shape, LayerOptions::new(cfg.threads));
            let branchy = MkldnnConv::new(shape, cfg.threads);
            let mut y = layer.new_output();
            let t_replay = time_it(
                || layer.forward(&pool, &x, &w, &mut y, &FuseCtx::default()),
                cfg.warmup,
                cfg.iters,
            );
            let t_branchy =
                time_it(|| branchy.forward(&pool, &x, &w, &mut y), cfg.warmup, cfg.iters);
            println!(
                "streams replay {:8.1} GFLOPS vs branchy loops {:8.1} GFLOPS",
                gflops(&shape, t_replay),
                gflops(&shape, t_branchy)
            );
        }

        // fusion
        {
            let bias: Vec<f32> = (0..shape.k).map(|i| i as f32 * 0.01).collect();
            let res = BlockedActs::random(shape.n, shape.k, shape.p(), shape.q(), 0, 9);
            let ctx = FuseCtx { bias: Some(&bias), eltwise: Some(&res) };
            let fused = ConvLayer::new(
                shape,
                LayerOptions::new(cfg.threads).with_fuse(FusedOp::EltwiseRelu),
            );
            let plain = ConvLayer::new(shape, LayerOptions::new(cfg.threads));
            let mut y = fused.new_output();
            let t_f = time_it(|| fused.forward(&pool, &x, &w, &mut y, &ctx), cfg.warmup, cfg.iters);
            let t_u = time_it(
                || {
                    plain.forward(&pool, &x, &w, &mut y, &FuseCtx::default());
                    apply_unfused(FusedOp::EltwiseRelu, &mut y, &ctx);
                },
                cfg.warmup,
                cfg.iters,
            );
            println!(
                "conv+eltwise+relu fused {:.3} ms vs unfused {:.3} ms ({:.2}x)",
                t_f * 1e3,
                t_u * 1e3,
                t_u / t_f
            );
        }

        // weight-update copy counts
        {
            let b = blocking::choose(&shape);
            let dout = BlockedActs::random(shape.n, shape.k, shape.p(), shape.q(), 0, 3);
            let mut dw = BlockedFilter::zeros(shape.k, shape.c, shape.r, shape.s);
            let mut copies = vec![1usize, cfg.threads / 2, cfg.threads];
            copies.sort_unstable();
            copies.dedup();
            for g in copies {
                if g == 0 || !cfg.threads.is_multiple_of(g) {
                    continue;
                }
                let opts = LayerOptions::new(cfg.threads).with_dout_pad(0);
                let req = PlanRequest::new(shape, b, &opts);
                let plan = UpdPlan::with_forced_copies(&req, g);
                let t = time_it(|| plan.run(&pool, &x, &dout, &mut dw), cfg.warmup, cfg.iters);
                println!("upd copies={:<3} {:8.1} GFLOPS", g, gflops(&shape, t));
            }
        }
    }
}
