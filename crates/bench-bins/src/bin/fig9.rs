//! Figure 9: end-to-end ResNet-50 training throughput and strong
//! scaling to 16 nodes.
//!
//! * measured: real GxM training steps on the host (images/second),
//! * modeled: strong scaling through the α–β fabric with the allreduce
//!   overlapped behind backward compute (the MLSL mechanism) — the
//!   paper reports ≈90% parallel efficiency at 16 nodes,
//! * references: the paper's quoted P100/TensorFlow numbers.
//!
//! `--topology inception` runs the Inception graph instead;
//! `--hw N` sets the input resolution (default 64 for CI-speed runs;
//! use `--hw 224 --full` for the paper geometry).

use bench_bins::multinode::{simulate_strong_scaling, Fabric};
use bench_bins::HarnessConfig;
use gxm::data::SyntheticData;
use gxm::Network;
use std::time::Instant;

fn main() {
    let cfg = HarnessConfig::from_args();
    let args: Vec<String> = std::env::args().collect();
    let inception = args.iter().any(|a| a == "--topology") && args.iter().any(|a| a == "inception");
    let hw = args
        .iter()
        .position(|a| a == "--hw")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(64usize);
    let classes = 100usize;

    let (name, model) = if inception {
        ("Inception-v3(mixed-block)", topologies::inception_v3_model(classes))
    } else {
        ("ResNet-50", topologies::resnet50_model(hw, classes))
    };
    eprintln!("# building {name} at {hw}x{hw}, minibatch {}", cfg.minibatch);
    let t0 = Instant::now();
    let mut net = Network::build(&model, cfg.minibatch, cfg.threads).expect("valid model");
    eprintln!("# setup (JIT + dryrun): {:?}, params {}", t0.elapsed(), net.param_count());

    let (c, h, w) = if inception { (3, 147, 147) } else { (3, hw, hw) };
    let mut data = SyntheticData::new(classes, c, h, w, 7);
    // warmup + measure
    for _ in 0..cfg.warmup {
        let labels = data.next_batch(net.input_mut());
        net.train_step(&labels, 0.005, 0.9);
    }
    let t0 = Instant::now();
    let mut last = None;
    for _ in 0..cfg.iters {
        let labels = data.next_batch(net.input_mut());
        last = Some(net.train_step(&labels, 0.005, 0.9));
    }
    let t_step = t0.elapsed().as_secs_f64() / cfg.iters as f64;
    let imgs = cfg.minibatch as f64 / t_step;
    let s = last.unwrap();
    println!(
        "# single node (host, measured): {imgs:.1} img/s  ({t_step:.3}s/step, loss {:.3})",
        s.loss
    );

    // strong scaling model (4 comm cores of 56 as on the SKX testbed)
    let fabric = Fabric::omnipath(4);
    println!("nodes\timgs_per_s\tefficiency");
    for p in simulate_strong_scaling(
        &fabric,
        t_step,
        cfg.minibatch,
        net.gradient_bytes(),
        4.0 / 56.0,
        16,
    ) {
        println!("{}\t{:8.1}\t{:5.3}", p.nodes, p.imgs_per_s, p.efficiency);
    }
    println!("# paper references (Fig. 9): KNM+this-work 192 img/s, 2S-SKX+this-work 136 img/s,");
    println!("#   P100+TF 219 img/s, SKX+TF+MKL-DNN 90 img/s; 16-node: 2430 (KNM) / 1696 (SKX)");
}
