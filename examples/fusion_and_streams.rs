//! Demonstrate the two headline execution techniques:
//!
//! 1. **layer fusion** (Section II-G): a conv + bias + ReLU + residual
//!    add as one fused stream vs the same computation as separate
//!    bandwidth-bound passes;
//! 2. **kernel streams** (Section II-H): the dryrun's compact RLE
//!    metadata and the branch-free replay vs the branchy loop nest
//!    (our "mkldnn" baseline).
//!
//! ```sh
//! cargo run --release --example fusion_and_streams
//! ```

use anatomy::baselines::{ConvBaseline, MkldnnConv};
use anatomy::conv::fuse::{apply_unfused, FuseCtx, FusedOp};
use anatomy::conv::fwd::FwdPlan;
use anatomy::conv::{blocking, ConvLayer, LayerOptions, PlanRequest};
use anatomy::parallel::ThreadPool;
use anatomy::tensor::{BlockedActs, BlockedFilter, ConvShape};

fn main() {
    let threads = anatomy::parallel::hardware_threads();
    let minibatch = 8.min(threads);
    // Table I layer 9: 1x1 with a residual consumer — the fusion case
    let shape = ConvShape::new(minibatch, 128, 512, 28, 28, 1, 1, 1, 0);
    let pool = ThreadPool::new(threads);

    let x = BlockedActs::random(shape.n, shape.c, shape.h, shape.w, 0, 1);
    let w = BlockedFilter::random(shape.k, shape.c, shape.r, shape.s, 2);
    let residual = BlockedActs::random(shape.n, shape.k, shape.p(), shape.q(), 0, 3);
    let bias: Vec<f32> = (0..shape.k).map(|i| (i % 7) as f32 * 0.01).collect();

    // fused: conv + bias + eltwise + relu in one stream replay
    let fused = ConvLayer::new(shape, LayerOptions::new(threads).with_fuse(FusedOp::EltwiseRelu));
    let ctx = FuseCtx { bias: Some(&bias), eltwise: Some(&residual) };
    let mut y_fused = fused.new_output();
    let time = |f: &mut dyn FnMut()| {
        f();
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            f();
        }
        t0.elapsed().as_secs_f64() / 10.0
    };
    let t_fused = time(&mut || fused.forward(&pool, &x, &w, &mut y_fused, &ctx));

    // unfused: plain conv, then separate eltwise+relu pass over memory
    let plain = ConvLayer::new(shape, LayerOptions::new(threads));
    let mut y_plain = plain.new_output();
    let t_unfused = time(&mut || {
        plain.forward(&pool, &x, &w, &mut y_plain, &FuseCtx::default());
        apply_unfused(FusedOp::EltwiseRelu, &mut y_plain, &ctx);
    });
    println!(
        "conv+residual+ReLU: fused {:.2} ms vs unfused {:.2} ms ({:.2}x)",
        t_fused * 1e3,
        t_unfused * 1e3,
        t_unfused / t_fused
    );

    // streams metadata compactness + replay vs branchy loops
    let b = blocking::choose(&shape);
    let plan = FwdPlan::new(&PlanRequest::new(shape, b, &LayerOptions::new(threads)));
    println!(
        "kernel streams: {} variants, {} bytes of metadata for {} microkernel calls/step",
        plan.kernel_variants(),
        plan.stream_bytes(),
        shape.n * shape.kb() * (shape.p() / b.rbp) * (shape.q() / b.rbq),
    );
    let branchy = MkldnnConv::new(shape, threads);
    let mut y2 = plain.new_output();
    let t_replay = time(&mut || plain.forward(&pool, &x, &w, &mut y2, &FuseCtx::default()));
    let t_branchy = time(&mut || branchy.forward(&pool, &x, &w, &mut y2));
    println!("replay {:.2} ms vs branchy loop nest {:.2} ms", t_replay * 1e3, t_branchy * 1e3);
}
