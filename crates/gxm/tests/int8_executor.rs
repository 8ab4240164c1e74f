//! The int8 executor's contract (DESIGN.md §11.2), pinned from outside:
//!
//! * an int8 `Network::forward` is bit-identical to a hand-rolled chain
//!   of public calls — quantize every conv input by the scalar
//!   *definition* of the rounding, `ConvLayer::forward_quant` per conv,
//!   the f32 operators in between — so neither the SIMD quantizer, nor
//!   the pool split, nor the per-blob int16 images change a single bit;
//! * a blob is quantized once per forward however many convolutions
//!   read it.

use conv::fuse::FuseCtx;
use conv::{ConvLayer, FusedOp, LayerOptions, PlanCache, Precision, TuneLevel};
use gxm::{ops, parse_topology, ExecMode, ModelSpec, Network, StateDict};
use parallel::ThreadPool;
use std::sync::Arc;
use tensor::rng::SplitMix64;
use tensor::{BlockedActs, BlockedFilter, ConvShape, Kcrs, Nchw, VnniActs, VnniFilter, VLEN};

const BN_EPS: f32 = 1e-5;
const THREADS: usize = 2;
const BATCH: usize = 2;

fn int8_net(spec: &ModelSpec, batch: usize) -> Network {
    Network::build_quantized(
        spec,
        batch,
        Arc::new(ThreadPool::new(THREADS)),
        ExecMode::Inference,
        &PlanCache::new(),
        true,
        TuneLevel::Heuristic,
        Precision::Int8,
    )
    .unwrap()
}

/// Move every BN away from the identity (and give biases a value) so
/// folds, derived ranges and residual adds are all non-trivial.
fn perturb(net: &mut Network) -> StateDict {
    let mut rng = SplitMix64::new(77);
    let mut sd = StateDict::new();
    for (name, e) in net.state_dict().iter() {
        let kind = name.rsplit('.').next().unwrap();
        let data = e
            .data
            .iter()
            .map(|&v| match (kind, rng.next_f32()) {
                ("gamma", r) => 1.0 + 0.5 * r,
                ("beta" | "running_mean", r) => 0.4 * r,
                ("running_var", r) => 1.0 + r,
                ("bias", r) => 0.2 * r,
                _ => v,
            })
            .collect();
        sd.insert(name, e.dims.clone(), data).unwrap();
    }
    net.load_state_dict(&sd).unwrap();
    sd
}

/// Load one random batch; returns it in the blocked layout the
/// network's input blob has.
fn load_batch(net: &mut Network, pad: usize) -> BlockedActs {
    let (c, h, w) = net.input_dims();
    let mut x = Nchw::zeros(BATCH, c, h, w);
    SplitMix64::new(5).fill_f32(x.as_mut_slice());
    net.load_input_nchw(x.as_slice(), BATCH);
    BlockedActs::from_nchw(&x, pad)
}

/// The hand-rolled side: public calls only, scalar-definition rounding.
struct Oracle<'a> {
    net: &'a Network,
    sd: &'a StateDict,
    pool: ThreadPool,
}

impl Oracle<'_> {
    /// A per-channel tensor padded to whole SIMD blocks.
    fn padded(&self, name: &str, fill: f32) -> Vec<f32> {
        let data = &self.sd.get(name).unwrap().data;
        let mut v = vec![fill; data.len().next_multiple_of(VLEN)];
        v[..data.len()].copy_from_slice(data);
        v
    }

    /// Conv `name` (with `bn` folded in, if given) over blob `x` — the
    /// output of node `x_name` — as the executor must run it:
    /// definition-quantized input, per-k quantized weights,
    /// `forward_quant` with the fold's bias / `eltwise` in the APPLY.
    #[allow(clippy::too_many_arguments)]
    fn conv(
        &self,
        name: &str,
        bn: Option<&str>,
        x_name: &str,
        x: &BlockedActs,
        (r, stride, pad): (usize, usize, usize),
        fuse: FusedOp,
        out_pad: usize,
        eltwise: Option<&BlockedActs>,
    ) -> BlockedActs {
        let e = self.sd.get(&format!("{name}.weight")).unwrap();
        let (k, c) = (e.dims[0], e.dims[1]);
        let mut w = Kcrs::zeros(k, c, r, r);
        w.as_mut_slice().copy_from_slice(&e.data);
        let mut bias = vec![0.0f32; k.next_multiple_of(VLEN)];
        if let Some(bn) = bn {
            let gamma = self.padded(&format!("{bn}.gamma"), 1.0);
            let beta = self.padded(&format!("{bn}.beta"), 0.0);
            let mean = self.padded(&format!("{bn}.running_mean"), 0.0);
            let var = self.padded(&format!("{bn}.running_var"), 1.0);
            for ki in 0..k {
                let scale = gamma[ki] / (var[ki] + BN_EPS).sqrt();
                bias[ki] = beta[ki] - mean[ki] * scale;
                for v in &mut w.as_mut_slice()[ki * c * r * r..(ki + 1) * c * r * r] {
                    *v *= scale;
                }
            }
        }
        // the blob's scales: measured range if calibrated, else derived
        let amax =
            self.net.calibrated_amax_of(x_name).or(self.net.derived_amax_of(x_name)).unwrap();
        let s_x: Vec<f32> =
            amax.iter().map(|&a| if a > 0.0 && a.is_finite() { a / 127.0 } else { 1.0 }).collect();
        let inv: Vec<f32> = s_x.iter().map(|s| 1.0 / s).collect();
        assert_eq!(self.net.conv_input_scales(name).unwrap(), &inv[..], "{name}: input scales");
        // quantize by the definition (libm rounding, scalar, one thread)
        let mut xq = VnniActs::zeros(x.n, x.c, x.h, x.w, x.pad);
        let chunk = x.stride_cb();
        for (i, (q, v)) in xq.as_mut_slice().iter_mut().zip(x.as_slice()).enumerate() {
            let scaled = v * inv[i / chunk % x.cb * VLEN + i % VLEN];
            *q = scaled.round_ties_even().clamp(-127.0, 127.0) as i16;
        }
        let (wq, mult) = VnniFilter::quantize_per_k(&BlockedFilter::from_kcrs(&w), &s_x);
        let shape = ConvShape::new(x.n, c, k, x.h, x.w, r, r, stride, pad);
        let layer = ConvLayer::new(
            shape,
            LayerOptions::new(THREADS)
                .with_fuse(fuse)
                .with_precision(Precision::Int8)
                .with_input_pad(x.pad)
                .with_dout_pad(0)
                .with_out_pad(out_pad),
        );
        let mut y = layer.new_output();
        let ctx = FuseCtx { bias: Some(&bias), eltwise };
        layer.forward_quant(&self.pool, &xq, &wq, &mut y, &mult, &ctx);
        y
    }

    /// `gap → fc(logits) → softmax` over `x`; the padded probabilities.
    fn head(&self, x: &BlockedActs) -> Vec<f32> {
        let mut pooled = BlockedActs::zeros(x.n, x.c, 1, 1, 0);
        ops::gap_fwd(&self.pool, x, &mut pooled);
        let e = self.sd.get("logits.weight").unwrap();
        let (c_in, k_out) = (e.dims[0], e.dims[1]);
        let (in_dim, out_dim) = (c_in.next_multiple_of(VLEN), k_out.next_multiple_of(VLEN));
        let mut w = vec![0.0f32; in_dim * out_dim];
        for c in 0..c_in {
            w[c * out_dim..c * out_dim + k_out]
                .copy_from_slice(&e.data[c * k_out..(c + 1) * k_out]);
        }
        let mut logits = BlockedActs::zeros(x.n, k_out, 1, 1, 0);
        ops::fc_fwd(&self.pool, &pooled, &w, &self.padded("logits.bias", 0.0), &mut logits);
        let mut probs = Vec::new();
        ops::softmax_loss_fwd(&logits, k_out, &vec![0; x.n], &mut probs);
        probs
    }
}

#[test]
fn residual_bn_graph_matches_the_oracle_chain() {
    // b0 and b1 fold into c0/c1; b2's residual (b0's blob, pad 1 for
    // the 3×3 c1) cannot share b2's pad-0 geometry, so c2 runs a pure
    // requant and b2 stays a standalone frozen-stats pass
    let spec = parse_topology(
        "input name=data c=16 h=8 w=8\n\
         conv name=c0 bottom=data k=16\n\
         bn name=b0 bottom=c0 relu=1\n\
         conv name=c1 bottom=b0 k=16 r=3 s=3 pad=1\n\
         bn name=b1 bottom=c1 relu=1\n\
         conv name=c2 bottom=b1 k=16 r=3 s=3 pad=1\n\
         bn name=b2 bottom=c2 eltwise=b0 relu=1\n\
         gap name=g bottom=b2\n\
         fc name=logits bottom=g k=16\n\
         softmaxloss name=loss bottom=logits\n",
    )
    .unwrap();
    let mut net = int8_net(&spec, BATCH);
    let sd = perturb(&mut net);
    assert_eq!((net.folded_bn_count(), net.quantized_conv_count()), (2, 3));
    // data, b0 and b1 each feed one conv: three blobs, three passes
    assert_eq!(net.quantize_pass_count(), 3);
    let x = load_batch(&mut net, 0);
    net.forward();

    let o = Oracle { net: &net, sd: &sd, pool: ThreadPool::new(THREADS) };
    let b0 = o.conv("c0", Some("b0"), "data", &x, (1, 1, 0), FusedOp::BiasRelu, 1, None);
    let b1 = o.conv("c1", Some("b1"), "b0", &b0, (3, 1, 1), FusedOp::BiasRelu, 1, None);
    let c2 = o.conv("c2", None, "b1", &b1, (3, 1, 1), FusedOp::None, 0, None);
    let mut b2 = BlockedActs::zeros(BATCH, 16, 8, 8, 0);
    ops::bn_infer_fwd(
        &o.pool,
        &c2,
        &o.padded("b2.gamma", 1.0),
        &o.padded("b2.beta", 0.0),
        &o.padded("b2.running_mean", 0.0),
        &o.padded("b2.running_var", 1.0),
        BN_EPS,
        true,
        Some(&b0),
        &mut b2,
    );
    assert_eq!(net.probabilities(), &o.head(&b2)[..]);
}

#[test]
fn fan_out_graph_quantizes_once_per_blob_and_matches_the_oracle_chain() {
    // b0's blob feeds three convs and a max-pool whose output feeds a
    // fourth — the Inception shape
    let spec = parse_topology(
        "input name=data c=16 h=8 w=8\n\
         conv name=c0 bottom=data k=32\n\
         bn name=b0 bottom=c0 relu=1\n\
         conv name=ca bottom=b0 k=16\n\
         bn name=ba bottom=ca relu=1\n\
         conv name=cb bottom=b0 k=16 r=3 s=3 pad=1\n\
         bn name=bb bottom=cb relu=1\n\
         conv name=cc bottom=b0 k=16 stride=1\n\
         bn name=bc bottom=cc\n\
         pool name=p bottom=b0 kind=max size=3 stride=1 pad=1\n\
         conv name=cd bottom=p k=16\n\
         bn name=bd bottom=cd relu=1\n\
         concat name=cat bottom=ba,bb,bc,bd\n\
         gap name=g bottom=cat\n\
         fc name=logits bottom=g k=10\n\
         softmaxloss name=loss bottom=logits\n",
    )
    .unwrap();
    let mut net = int8_net(&spec, BATCH);
    let sd = perturb(&mut net);
    let x = load_batch(&mut net, 0);
    // measured ranges this time (the oracle reads whichever is in force)
    net.calibrate_batch();
    assert_eq!((net.conv_node_count(), net.quantized_conv_count()), (5, 5));
    // one pass per blob — data, b0, p — not one per consumer
    assert_eq!(net.quantize_pass_count(), 3);
    net.forward();

    let o = Oracle { net: &net, sd: &sd, pool: ThreadPool::new(THREADS) };
    let b0 = o.conv("c0", Some("b0"), "data", &x, (1, 1, 0), FusedOp::BiasRelu, 1, None);
    let ba = o.conv("ca", Some("ba"), "b0", &b0, (1, 1, 0), FusedOp::BiasRelu, 0, None);
    let bb = o.conv("cb", Some("bb"), "b0", &b0, (3, 1, 1), FusedOp::BiasRelu, 0, None);
    let bc = o.conv("cc", Some("bc"), "b0", &b0, (1, 1, 0), FusedOp::Bias, 0, None);
    let mut p = BlockedActs::zeros(BATCH, 32, 8, 8, 0);
    ops::maxpool_fwd(&o.pool, &b0, 3, 1, 1, &mut p, &mut Vec::new());
    let bd = o.conv("cd", Some("bd"), "p", &p, (1, 1, 0), FusedOp::BiasRelu, 0, None);
    let mut cat = BlockedActs::zeros(BATCH, 64, 8, 8, 0);
    ops::concat_fwd(&[&ba, &bb, &bc, &bd], &mut cat);
    assert_eq!(net.probabilities(), &o.head(&cat)[..]);
}

#[test]
fn resnet50_quantizes_each_conv_input_blob_once() {
    let mut net = int8_net(&topologies::resnet50_model(32, 10), 1);
    assert_eq!((net.conv_node_count(), net.quantized_conv_count()), (53, 53));
    // the four projection shortcuts read the blob their block's first
    // conv reads: 53 conv inputs, 49 blobs, 49 passes
    assert_eq!(net.quantize_pass_count(), 49);
    // a calibration forward widens nothing here and changes no route
    net.calibrate_batch();
    assert_eq!((net.quantized_conv_count(), net.quantize_pass_count()), (53, 49));
}
