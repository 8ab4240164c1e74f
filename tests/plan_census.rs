//! What the planner decides for the two benchmarked layer
//! populations (ResNet-50 Table I, Inception-v3), as checked numbers:
//! which kernel family every plan resolves to, and how many layers
//! take each backward strategy.

use anatomy::conv::bwd::BwdKind;
use anatomy::conv::{ConvLayer, ConvShape, LayerOptions, Precision};
use anatomy::topologies::{inception_v3_layers, resnet50_table1};

fn populations() -> [(&'static str, Vec<(usize, ConvShape)>); 2] {
    [("resnet50", resnet50_table1(1)), ("inception_v3", inception_v3_layers(1))]
}

/// A benchmarked plan silently degrading to the scalar oracle must
/// fail here, not show up as a throughput number.
#[test]
fn every_plan_resolves_to_the_jit_where_the_host_can_run_it() {
    if !(anatomy::jit::jit_available() && anatomy::microkernel::has_vnni()) {
        return;
    }
    for (net, layers) in populations() {
        for (id, shape) in layers {
            for precision in [Precision::F32, Precision::Int8] {
                let layer = ConvLayer::new(shape, LayerOptions::new(2).with_precision(precision));
                let plans = layer.kernel_backends();
                let dual = layer.bwd_kind() != BwdKind::GemmFallback;
                let int8 = precision == Precision::Int8;
                assert_eq!(plans.len(), 2 + dual as usize + int8 as usize, "{net} #{id}");
                for (plan, backend) in plans {
                    assert_eq!(backend, "jit", "{net} #{id} {precision:?} {plan}");
                }
            }
        }
    }
}

/// How many layers take each backward strategy (Section II-I): the
/// Algorithm 7 fallback serves one Table-I layer (the strided 7×7
/// stem — `conv.bwd.fallback_layers` in the ledger) and Inception's
/// strided 3×3 reductions and asymmetric 1×7/7×1/1×3/3×1 taps.
#[test]
fn backward_strategy_census() {
    let census = |layers: &[(usize, ConvShape)]| {
        let kinds: Vec<BwdKind> = layers
            .iter()
            .map(|(_, s)| ConvLayer::new(*s, LayerOptions::new(1)).bwd_kind())
            .collect();
        [BwdKind::DualStride1, BwdKind::Dual1x1, BwdKind::GemmFallback]
            .map(|k| kinds.iter().filter(|&&x| x == k).count())
    };
    let [resnet, inception] = populations().map(|(_, layers)| census(&layers));
    assert_eq!(resnet, [13, 6, 1], "Table I: stride-1 dual, strided 1x1 dual, fallback");
    assert_eq!(inception, [16, 0, 8], "Inception-v3: stride-1 dual, strided 1x1 dual, fallback");
}
