//! Regenerate Table I: the ResNet-50 layer specifications, plus each
//! layer's derived blocking and strategy decisions from our engines.

use conv::upd::choose_copies;
use conv::{ConvLayer, LayerOptions};
use topologies::resnet50_table1;

fn main() {
    let cfg = bench_bins::HarnessConfig::from_args();
    println!("# Table I: ResNet-50 layer specifications (minibatch {})", cfg.minibatch);
    println!("id\tC\tK\tH=W\tR=S\tstr\tP=Q\tGFLOP\trb(PxQ)\tcb_in\tbwd\tupd_copies");
    for (id, shape) in resnet50_table1(cfg.minibatch) {
        let layer = ConvLayer::new(shape, LayerOptions::new(cfg.threads));
        let b = layer.blocking();
        println!(
            "{id}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2}\t{}x{}\t{}\t{:?}\t{}",
            shape.c,
            shape.k,
            shape.h,
            shape.r,
            shape.stride,
            shape.p(),
            shape.flops() as f64 / 1e9,
            b.rbp,
            b.rbq,
            b.cb_inner,
            layer.bwd_kind(),
            choose_copies(&shape, cfg.threads),
        );
    }
}
