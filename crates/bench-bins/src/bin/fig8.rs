//! Figure 8: reduced-precision (int16) vs fp32 kernels for
//! (a) forward, (b) backward and (c) weight-update on ResNet-50
//! layers 2–20 (the paper's x-axis also skips the C=3 first conv).
//!
//! Measured: the VNNI int16 forward engine vs the f32 engine on the
//! host (GOPS + speedup). Modeled: the KNM 4VNNIW speedup of all three
//! passes from Section II-K's three limiters (averages
//! ≈1.63×/1.58×/1.3×) — the backward columns are model-only. The int16
//! weight update ([`bench_bins::int16_upd`]) is timed on layers 4 and 5
//! and reported on stderr.

use bench_bins::int16_upd::QuantUpdPlan;
use bench_bins::{calibrate_host, gflops, time_it, HarnessConfig};
use conv::fuse::FuseCtx;
use conv::quant::QuantFwdPlan;
use conv::{blocking, ConvLayer, LayerOptions, PlanRequest};
use machine::{predicted_int16_speedup, MachineModel, Pass};
use parallel::ThreadPool;
use tensor::vnni::BlockedI32;
use tensor::{BlockedActs, BlockedFilter, VnniActs, VnniFilter, VLEN};
use topologies::resnet50_table1;

fn main() {
    let cfg = HarnessConfig::from_args();
    let pool = ThreadPool::new(cfg.threads);
    let _host = calibrate_host(&pool);
    let knm = MachineModel::knm();
    println!("# Fig. 8: int16 vs fp32, fwd (a) / bwd (b) / upd (c)");
    println!("layer\tfp32_GF\ti16_GOPS\thost_speedup\tknm_fwd_model\tknm_bwd_model\tknm_upd_model");
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    for (id, shape) in resnet50_table1(cfg.minibatch) {
        if id == 1 {
            continue; // the paper's Fig. 8 skips the C=3 layer
        }
        // f32 forward
        let layer = ConvLayer::new(shape, LayerOptions::new(cfg.threads));
        let x = BlockedActs::random(shape.n, shape.c, shape.h, shape.w, shape.pad, 1);
        let w = BlockedFilter::random(shape.k, shape.c, shape.r, shape.s, 2);
        let mut y = layer.new_output();
        let t32 = time_it(
            || layer.forward(&pool, &x, &w, &mut y, &FuseCtx::default()),
            cfg.warmup,
            cfg.iters,
        );
        // int16 forward
        // raw int16 plans from the same request the f32 layer was built from
        let req = PlanRequest::new(shape, blocking::choose(&shape), layer.options());
        let qplan = QuantFwdPlan::new(&req);
        let xq = VnniActs::random(shape.n, shape.c, shape.h, shape.w, shape.pad, 3);
        let wq = VnniFilter::random(shape.k, shape.c, shape.r, shape.s, 4);
        let mut yq = BlockedI32::zeros(shape.n, shape.k, shape.p(), shape.q());
        let t16 = time_it(|| qplan.run(&pool, &xq, &wq, &mut yq), cfg.warmup, cfg.iters);

        let knm_shape = shape.with_minibatch(70);
        let m_f = predicted_int16_speedup(&knm, &knm_shape, Pass::Forward);
        let m_b = predicted_int16_speedup(&knm, &knm_shape, Pass::Backward);
        let m_u = predicted_int16_speedup(&knm, &knm_shape, Pass::Update);
        sums[0] += m_f;
        sums[1] += m_b;
        sums[2] += m_u;
        count += 1;
        println!(
            "{id}\t{:8.1}\t{:8.1}\t{:5.2}\t{:5.2}\t{:5.2}\t{:5.2}",
            gflops(&shape, t32),
            gflops(&shape, t16),
            t32 / t16,
            m_f,
            m_b,
            m_u,
        );
        // time the int16 update on a couple of layers so the figure's
        // (c) panel runs real code too
        if matches!(id, 4 | 5) {
            let qu = QuantUpdPlan::new(shape);
            let gyq0 = VnniActs::random(shape.n, shape.k, shape.p(), shape.q(), 0, 6);
            let mut dwq = vec![0i32; shape.kb() * shape.cb() * shape.r * shape.s * VLEN * VLEN];
            let t_u16 = time_it(|| qu.run(&pool, &xq, &gyq0, &mut dwq), 1, cfg.iters.min(2));
            eprintln!("#   layer {id}: int16 upd ran at {:.1} GOPS", gflops(&shape, t_u16));
        }
    }
    println!(
        "# KNM-model averages: fwd {:.2}x  bwd {:.2}x  upd {:.2}x  (paper: 1.63/1.58/1.30)",
        sums[0] / count as f64,
        sums[1] / count as f64,
        sums[2] / count as f64
    );
}
