//! Quickstart: set up one convolution layer (JIT + dryrun), run all
//! three training passes, and validate them against the naive
//! reference loop nests with the paper's artifact norms.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use anatomy::conv::fuse::FuseCtx;
use anatomy::conv::reference::{conv_bwd_ref, conv_fwd_ref, conv_upd_ref};
use anatomy::conv::upd::choose_copies;
use anatomy::conv::{ConvLayer, LayerOptions};
use anatomy::parallel::ThreadPool;
use anatomy::tensor::{BlockedActs, BlockedFilter, ConvShape, Kcrs, Nchw, Norms};

fn main() {
    // a ResNet-50 3x3 layer (Table I layer 8) at a small minibatch
    let shape = ConvShape::new(4, 128, 128, 28, 28, 3, 3, 1, 1);
    let threads = anatomy::parallel::hardware_threads().min(8);
    let pool = ThreadPool::new(threads);

    println!("layer: {shape}");
    let t0 = std::time::Instant::now();
    let layer = ConvLayer::new(shape, LayerOptions::new(threads));
    println!(
        "setup (kernel generation + dryrun): {:?} — backend '{}', blocking {}x{}, bwd {:?}, \
         {} dW copies by the Section II-J model (the engine runs one)",
        t0.elapsed(),
        layer.backend_name(),
        layer.blocking().rbp,
        layer.blocking().rbq,
        layer.bwd_kind(),
        choose_copies(&shape, threads)
    );

    // data in interchange format, converted to the blocked layouts
    let x = Nchw::random(shape.n, shape.c, shape.h, shape.w, 1);
    let w = Kcrs::random(shape.k, shape.c, shape.r, shape.s, 2);
    let gy = Nchw::random(shape.n, shape.k, shape.p(), shape.q(), 3);
    let xb = BlockedActs::from_nchw(&x, shape.pad);
    let wb = BlockedFilter::from_kcrs(&w);
    let gyb = BlockedActs::from_nchw(&gy, layer.dout_pad());

    // forward
    let mut yb = layer.new_output();
    layer.forward(&pool, &xb, &wb, &mut yb, &FuseCtx::default());
    let mut y_ref = Nchw::zeros(shape.n, shape.k, shape.p(), shape.q());
    conv_fwd_ref(&shape, &x, &w, &mut y_ref);
    println!("fwd vs reference: {}", Norms::compare(y_ref.as_slice(), yb.to_nchw().as_slice()));

    // backward (duality)
    let mut gxb = layer.new_input();
    layer.backward(&pool, &gyb, &wb, &mut gxb);
    let mut gx_ref = Nchw::zeros(shape.n, shape.c, shape.h, shape.w);
    conv_bwd_ref(&shape, &gy, &w, &mut gx_ref);
    println!("bwd vs reference: {}", Norms::compare(gx_ref.as_slice(), gxb.to_nchw().as_slice()));

    // weight update
    let mut dwb = layer.new_filter();
    layer.update(&pool, &xb, &gyb, &mut dwb);
    let mut dw_ref = Kcrs::zeros(shape.k, shape.c, shape.r, shape.s);
    conv_upd_ref(&shape, &x, &gy, &mut dw_ref);
    println!("upd vs reference: {}", Norms::compare(dw_ref.as_slice(), dwb.to_kcrs().as_slice()));

    // quick throughput number
    let t0 = std::time::Instant::now();
    let iters = 20;
    for _ in 0..iters {
        layer.forward(&pool, &xb, &wb, &mut yb, &FuseCtx::default());
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    println!("forward: {:.1} GFLOPS on {threads} threads", shape.flops() as f64 / per / 1e9);
}
