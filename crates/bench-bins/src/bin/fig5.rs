//! Figure 5: ResNet-50 (a) backward and (b) weight-update propagation.
//!
//! Measured host GFLOPS for the optimized engine per layer, plus the
//! SKX-model efficiency series (the paper's testbed shape): backward ≈
//! forward except stride-2 layers; update 10–15 points lower.

use bench_bins::{calibrate_host, gflops, time_it, HarnessConfig};
use conv::upd::choose_copies;
use conv::{ConvLayer, LayerOptions};
use machine::{predicted_efficiency, MachineModel, Pass};
use parallel::ThreadPool;
use tensor::{BlockedActs, BlockedFilter};
use topologies::resnet50_table1;

fn main() {
    let cfg = HarnessConfig::from_args();
    let pool = ThreadPool::new(cfg.threads);
    let host = calibrate_host(&pool);
    let skx = MachineModel::skx();
    println!("# Fig. 5: ResNet-50 bwd (a) and upd (b) on the host + SKX model");
    println!("layer\tbwd_GFLOPS\tbwd_eff%\tbwd_skx%\tupd_GFLOPS\tupd_eff%\tupd_skx%\tcopies");
    for (id, shape) in resnet50_table1(cfg.minibatch) {
        let layer = ConvLayer::new(shape, LayerOptions::new(cfg.threads));
        let x = BlockedActs::random(shape.n, shape.c, shape.h, shape.w, shape.pad, 1);
        let w = BlockedFilter::random(shape.k, shape.c, shape.r, shape.s, 2);
        let dout = BlockedActs::random(shape.n, shape.k, shape.p(), shape.q(), layer.dout_pad(), 3);
        let mut dx = layer.new_input();
        let mut dw = layer.new_filter();

        let t_bwd = time_it(|| layer.backward(&pool, &dout, &w, &mut dx), cfg.warmup, cfg.iters);
        let t_upd = time_it(|| layer.update(&pool, &x, &dout, &mut dw), cfg.warmup, cfg.iters);
        let (g_bwd, g_upd) = (gflops(&shape, t_bwd), gflops(&shape, t_upd));
        println!(
            "{id}\t{:8.1}\t{:5.1}\t{:5.1}\t{:8.1}\t{:5.1}\t{:5.1}\t{}",
            g_bwd,
            100.0 * g_bwd / host.peak_gflops(),
            100.0 * predicted_efficiency(&skx, &shape, Pass::Backward),
            g_upd,
            100.0 * g_upd / host.peak_gflops(),
            100.0 * predicted_efficiency(&skx, &shape, Pass::Update),
            choose_copies(&shape, cfg.threads),
        );
    }
}
