//! ResNet-50: Table I layer inventory and the full training graph.

use conv::ConvShape;

/// One row of the paper's Table I.
#[derive(Clone, Copy, Debug)]
pub struct TableRow {
    /// Layer id (1–20, as used on the x-axes of Figures 4–8).
    pub id: usize,
    /// Input feature maps.
    pub c: usize,
    /// Output feature maps.
    pub k: usize,
    /// Input spatial extent (H = W).
    pub hw: usize,
    /// Filter extent (R = S).
    pub rs: usize,
    /// Stride.
    pub stride: usize,
}

/// Table I verbatim (20 distinct ResNet-50 convolution shapes).
pub const TABLE_I: [TableRow; 20] = [
    TableRow { id: 1, c: 3, k: 64, hw: 224, rs: 7, stride: 2 },
    TableRow { id: 2, c: 64, k: 256, hw: 56, rs: 1, stride: 1 },
    TableRow { id: 3, c: 64, k: 64, hw: 56, rs: 1, stride: 1 },
    TableRow { id: 4, c: 64, k: 64, hw: 56, rs: 3, stride: 1 },
    TableRow { id: 5, c: 256, k: 64, hw: 56, rs: 1, stride: 1 },
    TableRow { id: 6, c: 256, k: 512, hw: 56, rs: 1, stride: 2 },
    TableRow { id: 7, c: 256, k: 128, hw: 56, rs: 1, stride: 2 },
    TableRow { id: 8, c: 128, k: 128, hw: 28, rs: 3, stride: 1 },
    TableRow { id: 9, c: 128, k: 512, hw: 28, rs: 1, stride: 1 },
    TableRow { id: 10, c: 512, k: 128, hw: 28, rs: 1, stride: 1 },
    TableRow { id: 11, c: 512, k: 1024, hw: 28, rs: 1, stride: 2 },
    TableRow { id: 12, c: 512, k: 256, hw: 28, rs: 1, stride: 2 },
    TableRow { id: 13, c: 256, k: 256, hw: 14, rs: 3, stride: 1 },
    TableRow { id: 14, c: 256, k: 1024, hw: 14, rs: 1, stride: 1 },
    TableRow { id: 15, c: 1024, k: 256, hw: 14, rs: 1, stride: 1 },
    TableRow { id: 16, c: 1024, k: 2048, hw: 14, rs: 1, stride: 2 },
    TableRow { id: 17, c: 1024, k: 512, hw: 14, rs: 1, stride: 2 },
    TableRow { id: 18, c: 512, k: 512, hw: 7, rs: 3, stride: 1 },
    TableRow { id: 19, c: 512, k: 2048, hw: 7, rs: 1, stride: 1 },
    TableRow { id: 20, c: 2048, k: 512, hw: 7, rs: 1, stride: 1 },
];

/// The 20 Table I shapes as full [`ConvShape`]s for a minibatch
/// (the paper uses N=28 on SKX, N=70 on KNM). Spatial filters get
/// their canonical "same" padding (`rs/2`).
pub fn resnet50_table1(minibatch: usize) -> Vec<(usize, ConvShape)> {
    TABLE_I
        .iter()
        .map(|r| {
            (r.id, ConvShape::new(minibatch, r.c, r.k, r.hw, r.hw, r.rs, r.rs, r.stride, r.rs / 2))
        })
        .collect()
}

/// The full ResNet-50 v1 training graph as a validated
/// [`gxm::ModelSpec`] (conv → bn[+relu], bottleneck blocks with
/// projection shortcuts, stride on the first 1×1 of each downsampling
/// block, exactly the variant whose shapes populate Table I) —
/// assembled through the typed [`gxm::GraphBuilder`], residual joins
/// via `bn_join`.
pub fn resnet50_model(input_hw: usize, classes: usize) -> gxm::ModelSpec {
    let mut g = gxm::GraphBuilder::new()
        .input("data", 3, input_hw, input_hw)
        .conv("conv1", gxm::ConvOpts::k(64).rs(7).stride(2).pad(3))
        .bn_relu("bn1")
        .max_pool("pool1", 3, 2, 1);

    let stages: [(usize, usize, usize); 4] =
        [(64, 256, 3), (128, 512, 4), (256, 1024, 6), (512, 2048, 3)];
    let mut bottom = "pool1".to_string();
    for (si, (mid, out, blocks)) in stages.iter().enumerate() {
        for b in 0..*blocks {
            let name = format!("res{}{}", si + 2, (b'a' + b as u8) as char);
            let stride = if si > 0 && b == 0 { 2 } else { 1 };
            // projection shortcut on the first block of each stage
            let shortcut = if b == 0 {
                g = g
                    .from(&bottom)
                    .conv(&format!("{name}_sc"), gxm::ConvOpts::k(*out).stride(stride))
                    .bn(&format!("{name}_scbn"));
                format!("{name}_scbn")
            } else {
                bottom.clone()
            };
            g = g
                .from(&bottom)
                .conv(&format!("{name}_1"), gxm::ConvOpts::k(*mid).stride(stride))
                .bn_relu(&format!("{name}_1bn"))
                .conv(&format!("{name}_2"), gxm::ConvOpts::k(*mid).rs(3).pad(1))
                .bn_relu(&format!("{name}_2bn"))
                .conv(&format!("{name}_3"), gxm::ConvOpts::k(*out))
                .bn_join(&format!("{name}_3bn"), &shortcut, true);
            bottom = format!("{name}_3bn");
        }
    }
    g.gap("pool5")
        .fc("logits", classes)
        .softmax("loss")
        .build()
        .expect("resnet50 graph is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_output_shapes() {
        for (id, s) in resnet50_table1(28) {
            // padded "same" spatial: P = HW/stride for every layer
            let expect = s.h.div_ceil(s.stride);
            assert_eq!(s.p(), expect, "layer {id}: {s}");
            assert_eq!(s.n, 28);
        }
    }

    #[test]
    fn table_has_20_unique_layers() {
        let rows = resnet50_table1(1);
        assert_eq!(rows.len(), 20);
        let mut seen = std::collections::HashSet::new();
        for (_, s) in rows {
            assert!(seen.insert(format!("{s}")));
        }
    }

    #[test]
    fn total_flops_is_resnet_scale() {
        // fwd flops of a full minibatch-1 pass over the *distinct*
        // layers: ResNet-50 fwd is ~4 GFLOP with repeats; the distinct
        // shapes alone are within the same order of magnitude
        let total: u64 = resnet50_table1(1).iter().map(|(_, s)| s.flops()).sum();
        assert!(total > 1_000_000_000 && total < 10_000_000_000, "{total}");
    }

    #[test]
    fn model_round_trips_through_text() {
        let model = resnet50_model(224, 1000);
        let reparsed = gxm::ModelSpec::parse(&model.to_text()).unwrap();
        assert_eq!(model, reparsed, "the canonical text must describe the same graph");
    }

    #[test]
    fn topology_text_parses_and_covers_table() {
        let text = resnet50_model(224, 1000).to_text();
        let spec = gxm::ModelSpec::parse(&text).expect("valid topology");
        let nl = spec.nodes();
        // 1 stem conv + 16 blocks × 3 convs + 4 shortcut convs = 53
        let convs = nl.iter().filter(|n| matches!(n, gxm::NodeSpec::Conv { .. })).count();
        assert_eq!(convs, 53);
        // distinct conv shapes in the graph == Table I rows
        let mut shapes = std::collections::HashSet::new();
        let mut dims: std::collections::HashMap<String, (usize, usize)> = Default::default();
        let mut chans: std::collections::HashMap<String, usize> = Default::default();
        for n in nl {
            match n {
                gxm::NodeSpec::Input { name, c, h, .. } => {
                    dims.insert(name.clone(), (*h, *h));
                    chans.insert(name.clone(), *c);
                }
                gxm::NodeSpec::Conv { name, bottom, k, r, stride, pad, .. } => {
                    let (h, _) = dims[bottom];
                    let c = chans[bottom];
                    shapes.insert((c, *k, h, *r, *stride));
                    let oh = (h + 2 * pad - r) / stride + 1;
                    dims.insert(name.clone(), (oh, oh));
                    chans.insert(name.clone(), *k);
                }
                gxm::NodeSpec::Bn { name, bottom, .. } => {
                    dims.insert(name.clone(), dims[bottom]);
                    chans.insert(name.clone(), chans[bottom]);
                }
                gxm::NodeSpec::Pool { name, bottom, size, stride, pad, .. } => {
                    let (h, _) = dims[bottom];
                    let oh = (h + 2 * pad - size) / stride + 1;
                    dims.insert(name.clone(), (oh, oh));
                    chans.insert(name.clone(), chans[bottom]);
                }
                _ => {}
            }
        }
        let table: std::collections::HashSet<(usize, usize, usize, usize, usize)> =
            TABLE_I.iter().map(|r| (r.c, r.k, r.hw, r.rs, r.stride)).collect();
        assert_eq!(shapes, table, "graph conv shapes must equal Table I");
    }
}
