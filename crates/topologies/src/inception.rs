//! Inception-v3 ("GoogleNet v3" in the paper's run scripts): the
//! distinct convolution shapes for the kernel-average experiments and
//! a trainable graph with real Inception mixed blocks.

use conv::ConvShape;

/// The distinct convolution shapes of Inception-v3 (299×299 input),
/// `(c, k, hw_in, r, s, stride, pad)`. Asymmetric 1×7/7×1 factorized
/// convolutions appear as their two halves.
pub const INCEPTION_V3_CONVS: [(usize, usize, usize, usize, usize, usize, usize); 24] = [
    // stem
    (32, 32, 149, 3, 3, 1, 0),
    (32, 64, 147, 3, 3, 1, 1),
    (64, 80, 73, 1, 1, 1, 0),
    (80, 192, 73, 3, 3, 1, 0),
    // 35×35 mixed blocks
    (192, 64, 35, 1, 1, 1, 0),
    (192, 48, 35, 1, 1, 1, 0),
    (48, 64, 35, 5, 5, 1, 2),
    (64, 96, 35, 3, 3, 1, 1),
    (96, 96, 35, 3, 3, 1, 1),
    (288, 384, 35, 3, 3, 2, 0),
    // 17×17 mixed blocks (1×7 / 7×1 factorization)
    (288, 128, 17, 1, 1, 1, 0),
    (128, 128, 17, 1, 7, 1, 0),
    (128, 192, 17, 7, 1, 1, 0),
    (768, 192, 17, 1, 1, 1, 0),
    (192, 192, 17, 7, 1, 1, 0),
    (192, 192, 17, 1, 7, 1, 0),
    (192, 320, 17, 3, 3, 2, 0),
    // 8×8 mixed blocks
    (1280, 320, 8, 1, 1, 1, 0),
    (1280, 384, 8, 1, 1, 1, 0),
    (384, 384, 8, 1, 3, 1, 0),
    (384, 384, 8, 3, 1, 1, 0),
    (1280, 448, 8, 1, 1, 1, 0),
    (448, 384, 8, 3, 3, 1, 1),
    (2048, 192, 8, 1, 1, 1, 0),
];

/// Inception-v3 conv shapes for a minibatch. The first stem conv
/// (3→32, stride 2) is omitted like the paper omits C=3 layers from
/// the Inception averages (its Fig. 8 x-axis also starts at layer 2).
pub fn inception_v3_layers(minibatch: usize) -> Vec<(usize, ConvShape)> {
    INCEPTION_V3_CONVS
        .iter()
        .enumerate()
        .map(|(i, &(c, k, hw, r, s, stride, pad))| {
            // asymmetric filters would need asymmetric padding to
            // preserve spatial extent; ConvShape has a single pad, so
            // the factorized taps run unpadded ("valid") — same FLOP
            // structure, slightly smaller outputs.
            (i + 2, ConvShape::new(minibatch, c, k, hw, hw, r, s, stride, pad))
        })
        .collect()
}

/// A trainable Inception-style graph: stem + one 35×35 mixed block
/// (four branches with filter concat) + reduction + head. Full v3
/// repeats these block patterns; one of each exercises every operator
/// class (concat, avg-pool branch, factorized convs).
pub fn inception_v3_model(classes: usize) -> gxm::ModelSpec {
    inception_v3_model_sized(147, classes)
}

/// As [`inception_v3_model`] with a configurable input resolution
/// (tests and inference benchmarks run the same graph at reduced
/// spatial extents; `input_hw` must survive the three stride-2 stages,
/// so ≥ 31 keeps every block non-degenerate). The four mixed-block
/// branches fan out from `pool2` via [`gxm::GraphBuilder::from`] and
/// rejoin through `concat`.
pub fn inception_v3_model_sized(input_hw: usize, classes: usize) -> gxm::ModelSpec {
    use gxm::ConvOpts;
    gxm::GraphBuilder::new()
        .input("data", 3, input_hw, input_hw)
        // stem (shortened: v3's 299→147 double-stride stem collapsed)
        .conv("stem1", ConvOpts::k(32).rs(3).stride(2).pad(1))
        .bn_relu("stem1bn")
        .conv("stem2", ConvOpts::k(64).rs(3).pad(1))
        .bn_relu("stem2bn")
        .max_pool("stempool", 3, 2, 1)
        .conv("stem3", ConvOpts::k(192).rs(3).pad(1))
        .bn_relu("stem3bn")
        .max_pool("pool2", 3, 2, 1)
        // mixed block (35×35-style): 1x1 / 5x5 / double-3x3 / pool
        .conv("b1x1", ConvOpts::k(64))
        .bn_relu("b1x1bn")
        .from("pool2")
        .conv("b5red", ConvOpts::k(48))
        .bn_relu("b5redbn")
        .conv("b5", ConvOpts::k(64).rs(5).pad(2))
        .bn_relu("b5bn")
        .from("pool2")
        .conv("b3red", ConvOpts::k(64))
        .bn_relu("b3redbn")
        .conv("b3a", ConvOpts::k(96).rs(3).pad(1))
        .bn_relu("b3abn")
        .conv("b3b", ConvOpts::k(96).rs(3).pad(1))
        .bn_relu("b3bbn")
        .from("pool2")
        .avg_pool("bpool", 3, 1, 1)
        .conv("bpoolproj", ConvOpts::k(32))
        .bn_relu("bpoolprojbn")
        .concat("mixed1", &["b1x1bn", "b5bn", "b3bbn", "bpoolprojbn"])
        // head
        .conv("head", ConvOpts::k(256))
        .bn_relu("headbn")
        .gap("gpool")
        .fc("logits", classes)
        .softmax("loss")
        .build()
        .expect("inception graph is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_inventory_is_consistent() {
        let layers = inception_v3_layers(28);
        assert_eq!(layers.len(), 24);
        for (id, s) in &layers {
            assert!(s.p() > 0 && s.q() > 0, "layer {id}: {s}");
        }
    }

    #[test]
    fn includes_factorized_convolutions() {
        let layers = inception_v3_layers(1);
        assert!(layers.iter().any(|(_, s)| s.r == 1 && s.s == 7));
        assert!(layers.iter().any(|(_, s)| s.r == 7 && s.s == 1));
    }

    #[test]
    fn topology_parses_and_has_concat() {
        let spec = gxm::ModelSpec::parse(&inception_v3_model(1000).to_text()).expect("valid");
        assert!(spec.nodes().iter().any(|n| matches!(n, gxm::NodeSpec::Concat { .. })));
        // the mixed block concatenates 64+64+96+32 = 256 channels
        let mix = spec.nodes().iter().position(|n| n.name() == "mixed1").unwrap();
        assert_eq!(spec.shapes()[mix].0, 256);
        // and the canonical text round-trips to the same spec
        assert_eq!(spec, inception_v3_model(1000));
    }

    #[test]
    fn sized_topology_matches_default_at_147() {
        assert_eq!(inception_v3_model(10), inception_v3_model_sized(147, 10));
        // a reduced-resolution instance still parses
        let spec =
            gxm::ModelSpec::parse(&inception_v3_model_sized(63, 10).to_text()).expect("valid");
        assert!(spec.nodes().iter().any(|n| matches!(n, gxm::NodeSpec::Concat { .. })));
    }
}
